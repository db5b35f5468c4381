import random
import tracemalloc

import numpy as np
import pytest

from gaugeqec.catalog import CATALOG_NAMES, catalog
from gaugeqec.code import SubsystemCode, validate, validated
from gaugeqec.distance import Kind, classify, is_correctable_set
from gaugeqec.oracle import (
    _BLOCK_BYTES,
    _apply,
    _blocks,
    _comm_norm,
    _logical_actions,
    acts_as_gauge,
    code_projector,
    dense,
    vanishes_on_code_space,
    verify_correctability,
    verify_subsystem_structure,
)
from gaugeqec.pauli import (
    PauliOp,
    commutes,
    hermitian,
    identity,
    letter_vecs,
    multiply,
    pauli_from_string,
    single,
    vec_hermitian,
    weight_sums,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_pauli(rng, n):
    return PauliOp(n, rng.randrange(4), rng.randrange(1 << n), rng.randrange(1 << n))


def test_dense_single_qubit_matrices():
    assert np.array_equal(dense(identity(1)), np.eye(2))
    assert np.array_equal(dense(single(1, 0, "X")), X)
    assert np.array_equal(dense(single(1, 0, "Y")), Y)
    assert np.array_equal(dense(single(1, 0, "Z")), Z)


def test_dense_xz_is_minus_i_y():
    xz = dense(single(1, 0, "X")) @ dense(single(1, 0, "Z"))
    assert np.allclose(xz, -1j * Y)
    prod = multiply(single(1, 0, "X"), single(1, 0, "Z"))
    assert np.allclose(dense(prod), xz)


def test_dense_is_multiplicative_homomorphism():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randrange(1, 7)
        p, q = random_pauli(rng, n), random_pauli(rng, n)
        lhs = dense(multiply(p, q))
        rhs = dense(p) @ dense(q)
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_dense_operators_are_unitary():
    rng = random.Random(103)
    for _ in range(40):
        n = rng.randrange(1, 7)
        m = dense(random_pauli(rng, n))
        assert np.linalg.norm(m.conj().T @ m - np.eye(1 << n)) < 1e-10


def test_dense_stabilizer_generator_squares_to_identity():
    s1 = pauli_from_string("XXXXXXIII")
    m = dense(s1)
    assert np.linalg.norm(m @ m - np.eye(512)) < 1e-10


def test_dense_refuses_large_systems():
    with pytest.raises(ValueError):
        dense(identity(11))


def test_projector_single_qubit_z():
    proj = code_projector(SubsystemCode.from_strings(stabilizer=["Z"])).matrix
    assert np.allclose(proj, np.array([[1, 0], [0, 0]], dtype=complex))


@pytest.mark.parametrize("name,trace", [("shor9", 2), ("bacon-shor-9", 32)])
def test_projector_identities(name, trace):
    proj = code_projector(catalog(name)).matrix
    assert abs(proj.trace().real - trace) < 1e-10
    assert np.linalg.norm(proj @ proj - proj) < 1e-10
    assert np.linalg.norm(proj - proj.conj().T) < 1e-10
    for g in catalog(name).stabilizer:
        assert np.linalg.norm(dense(g) @ proj - proj) < 1e-10


@pytest.mark.parametrize("name", ["shor9", "bacon-shor-9"])
def test_subsystem_structure_verifies(name):
    report = verify_subsystem_structure(catalog(name))
    assert report.ok, report.failures
    assert report.max_residual < 1e-10


def test_broken_gauge_pair_is_caught_before_verification():
    bs = catalog("bacon-shor-9")
    bad_pairs = ((single(9, 2, "X"), bs.gauge_pairs[0][1]),) + bs.gauge_pairs[1:]
    bad = SubsystemCode(9, bs.stabilizer, bad_pairs, bs.logical_pairs)
    report = validate(bad)
    assert not report.ok  # X3 anticommutes with the fourth stabilizer


def test_correctability_weight_one_matches_group_theory_on_shor():
    code = catalog("shor9")
    errors = [identity(9)] + [single(9, q, L) for q in range(9) for L in "XYZ"]
    dense_report = verify_correctability(code, errors[:10])
    group_verdict = is_correctable_set(code, errors[:10])
    assert dense_report.ok == group_verdict.correctable is True


def test_correctability_gauge_pair_product():
    # X1 * X4 lands in the gauge group of the four-stabilizer code
    bs = catalog("bacon-shor-9")
    errors = [single(9, 0, "X"), single(9, 3, "X")]
    assert classify(bs, multiply(*errors)).kind is Kind.GAUGE
    report = verify_correctability(bs, errors)
    assert report.ok


def test_correctability_witness_pair_detected():
    bs = catalog("bacon-shor-9")
    errors = [pauli_from_string("XXIIIIIII"), pauli_from_string("IIIIIXIII")]
    report = verify_correctability(bs, errors)
    assert not report.ok
    assert report.failing_pair == (errors[0], errors[1])
    assert is_correctable_set(bs, errors).correctable is False


def test_commutant_cross_validation_sample():
    rng = random.Random(107)
    for name in ("shor9", "bacon-shor-9"):
        code = catalog(name)
        for _ in range(25):
            p = hermitian(9, rng.randrange(1 << 9), rng.randrange(1 << 9))
            kind = classify(code, p).kind
            assert acts_as_gauge(code, p) == (kind is Kind.GAUGE)
            if kind is Kind.OUTSIDE_N:
                assert vanishes_on_code_space(code, p)


def _random_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_signed_permutation_equals_kronecker_for_every_small_pauli():
    rng = np.random.default_rng(109)
    for n in range(4):
        m = _random_matrix(rng, 1 << n, 3)
        for phase in range(4):
            for x in range(1 << n):
                for z in range(1 << n):
                    p = PauliOp(n, phase, x, z)
                    assert np.array_equal(_apply(p, m), dense(p) @ m), p


def test_signed_permutation_equals_kronecker_for_random_paulis():
    rng = random.Random(113)
    nrng = np.random.default_rng(113)
    for _ in range(60):
        n = rng.randrange(4, 7)
        p = random_pauli(rng, n)
        m = _random_matrix(nrng, 1 << n, rng.randrange(1, 5))
        assert np.array_equal(_apply(p, m), dense(p) @ m), p


def test_signed_permutation_refuses_mismatched_sizes():
    with pytest.raises(ValueError):
        _apply(single(3, 0, "X"), np.eye(4, dtype=complex))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_projector_is_bit_identical_to_the_kronecker_product(name):
    c = validated(catalog(name))
    dim = 1 << c.n
    expected = np.eye(dim, dtype=complex)
    for g in c.stabilizer:
        expected = expected @ (np.eye(dim, dtype=complex) + dense(g)) / 2
    assert np.array_equal(code_projector(c).matrix, expected)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_code_space_basis_is_orthonormal_and_spans_the_projector(name):
    c = validated(catalog(name))
    proj = code_projector(c)
    v = proj.basis
    assert v.shape == (1 << c.n, 1 << (c.n - c.s))
    assert np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])) < 1e-10
    assert np.linalg.norm(v @ v.conj().T - proj.matrix) < 1e-10


@pytest.mark.parametrize("name", ["five-qubit", "steane7"])
def test_every_hermitian_pauli_agrees_with_classify(name):
    code = catalog(name)
    n = code.n
    for x in range(1 << n):
        for z in range(1 << n):
            p = hermitian(n, x, z)
            kind = classify(code, p).kind
            assert acts_as_gauge(code, p) == (kind is Kind.GAUGE), p
            if kind is Kind.OUTSIDE_N:
                assert vanishes_on_code_space(code, p), p


@pytest.mark.parametrize("name", ["steane7", "bacon-shor-9"])
def test_comm_norm_split_matches_the_direct_and_dense_norms(name):
    # X on qubit 0 anticommutes with a stabilizer, so L V leaves the code
    # space and the ||R C|| term of the split is far from zero
    c = validated(catalog(name))
    proj = code_projector(c)
    v = proj.basis
    op = single(c.n, 0, "X")
    assert not all(commutes(op, g) for g in c.stabilizer)
    ops = [op] + c.logical_ops()
    lcs, rs = _blocks(v, ops)
    assert np.linalg.norm(rs[0]) > 0.5
    rng = np.random.default_rng(127)
    m = v.shape[1]
    blocks = _random_matrix(rng, 2 * m, m).reshape(2, m, m)
    split = _comm_norm(blocks, lcs, rs)
    assert split.shape == (2, len(ops))
    lps = [dense(p) @ proj.matrix for p in ops]
    for i, cm in enumerate(blocks):
        assert np.allclose(_comm_norm(cm, lcs, rs), split[i], rtol=1e-12, atol=0)
        vcv = v @ cm @ v.conj().T
        for j, (p, lp) in enumerate(zip(ops, lps)):
            direct = np.linalg.norm(v @ cm @ lcs[j] - _apply(p, v) @ cm)
            full = np.linalg.norm(vcv @ lp - lp @ vcv)
            assert abs(split[i, j] - direct) <= 1e-10 * direct
            assert abs(split[i, j] - full) <= 1e-10 * full
        # the leak term carries part of the norm for the non-normalizer op
        assert np.linalg.norm(rs[0] @ cm) > 0.1 * split[i, 0]


@pytest.mark.parametrize("wmax", [1, 2])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_correctability_verdict_and_witness_match_group_theory(name, wmax):
    code = catalog(name)
    letters = letter_vecs(code.n)
    errors = [vec_hermitian(code.n, v) for w in range(wmax + 1) for v in weight_sums(letters, w)]
    report = verify_correctability(code, errors)
    verdict = is_correctable_set(code, errors)
    assert report.ok == verdict.correctable
    assert report.failing_pair == verdict.witness
    assert len(report.failures) == (0 if report.ok else 1)
    assert report.ok or report.max_residual > 1.0
    assert not report.ok or report.max_residual < 1e-10


def test_long_error_list_is_checked_in_bounded_memory():
    # 352 weight-<=2 errors on bacon-shor-9: holding every E V at once took a
    # traced peak of 121 MB; blocks of E V keep it to a few blocks
    code = catalog("bacon-shor-9")
    letters = letter_vecs(code.n)
    errors = [vec_hermitian(code.n, v) for w in range(3) for v in weight_sums(letters, w)]
    assert len(errors) == 352
    _logical_actions(code)  # the cached projector and logical blocks are not counted
    tracemalloc.start()
    try:
        report = verify_correctability(code, errors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * _BLOCK_BYTES
    assert len(errors) * code_projector(code).basis.nbytes > 10 * _BLOCK_BYTES  # many blocks
    verdict = is_correctable_set(code, errors)
    assert report.ok is verdict.correctable is False
    assert report.failing_pair == verdict.witness
    assert [str(e) for e in report.failing_pair] == ["XIIIIIIII", "IXXIIIIII"]


def test_empty_error_set_is_refused_like_the_group_test():
    code = catalog("steane7")
    with pytest.raises(ValueError, match="empty error set"):
        is_correctable_set(code, [])
    with pytest.raises(ValueError, match="empty error set"):
        verify_correctability(code, [])
