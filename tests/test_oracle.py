import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from gaugeqec.catalog import CATALOG_NAMES, catalog
from gaugeqec.code import SubsystemCode, validate, validated
from gaugeqec.distance import Kind, classify, is_correctable_set
from gaugeqec import oracle
from gaugeqec.oracle import (
    _BLOCK_BYTES,
    _action,
    _apply,
    _blocks,
    _comm_norm,
    _logical_actions,
    _pair_residuals,
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
    lcs, rs = _blocks(proj, ops)
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


# code-space support: the rows where V is nonzero, |support| of 2^n
SUPPORT_SIZES = {"shor9": 8, "bacon-shor-9": 128, "steane7": 16, "five-qubit": 32}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_support_is_the_nonzero_rows_of_the_basis(name):
    proj = code_projector(catalog(name))
    nonzero = np.flatnonzero(np.abs(proj.basis).sum(axis=1) > 0)
    assert np.array_equal(proj.support, nonzero)
    assert len(proj.support) == SUPPORT_SIZES[name]
    # ||V[r]||^2 = P[r, r], so the support is also where P's diagonal is nonzero
    assert np.array_equal(proj.support, np.flatnonzero(proj.matrix.diagonal() != 0))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_support_contracted_action_matches_the_full_contraction(name):
    code = validated(catalog(name))
    proj = code_projector(code)
    v = proj.basis
    rng = random.Random(41)
    for _ in range(50):
        p = random_pauli(rng, code.n)
        full = v.conj().T @ _apply(p, v)
        assert np.abs(_action(proj, p) - full).max() <= 1e-12, p


def _verify_pair_blocks(code):
    """V' Ea' Eb V over every row, for every pair b >= a of verify's errors."""
    v = code_projector(code).basis
    errors = [vec_hermitian(code.n, e) for w in (0, 1) for e in weight_sums(letter_vecs(code.n), w)]
    evs = [_apply(e, v) for e in errors]
    return np.array([evs[a].conj().T @ evs[b] for a in range(len(evs)) for b in range(a, len(evs))])


def test_zero_pair_blocks_skip_the_commutator_and_keep_every_residual():
    code = validated(catalog("bacon-shor-9"))
    blocks = _verify_pair_blocks(code)
    assert len(blocks) == 406  # 28 errors: identity and the 27 weight-1 Paulis
    assert int((~blocks.any(axis=(1, 2))).sum()) == 360
    lcs, rs = _logical_actions(code)
    assert np.array_equal(_pair_residuals(blocks, lcs, rs), _comm_norm(blocks, lcs, rs))


def _scan_reference(code, errors):
    """(witness, max_residual) from the (a, b >= a) scan, one full-row pair at a time."""
    v = code_projector(code).basis
    lcs, rs = _logical_actions(code)
    evs = [_apply(e, v) for e in errors]
    worst = 0.0
    for a, ea in enumerate(evs):
        for b in range(a, len(evs)):
            for r in _comm_norm(ea.conj().T @ evs[b], lcs, rs):
                worst = max(worst, float(r))
                if r > oracle.TOL:
                    return (errors[a], errors[b]), worst
    return None, worst


@pytest.mark.parametrize("name", ["five-qubit", "steane7", "bacon-shor-9"])
def test_blocked_scan_keeps_the_witness_and_residual_of_the_pair_order(name, monkeypatch):
    # blocks of 3 errors over shuffled lists: a later row's witness in an early
    # block must give way to an earlier row's witness in a later block
    code = validated(catalog(name))
    monkeypatch.setattr(oracle, "_BLOCK_BYTES", 3 * code_projector(code).basis.nbytes)
    letters = letter_vecs(code.n)
    pool = [vec_hermitian(code.n, v) for w in range(3) for v in weight_sums(letters, w)]
    rng = random.Random(43)
    for _ in range(4 if name == "bacon-shor-9" else 12):
        errors = rng.sample(pool, 11)
        report = verify_correctability(code, errors)
        witness, worst = _scan_reference(code, errors)
        assert report.failing_pair == witness
        assert report.ok is (witness is None)
        assert report.max_residual == pytest.approx(worst, rel=1e-9, abs=1e-12)


def test_each_later_block_is_stacked_once_per_home_block(monkeypatch):
    # no witness stops the scan, so every row meets every later block; each
    # home block stacks itself and each later block once
    code = validated(catalog("bacon-shor-9"))
    letters = letter_vecs(code.n)
    block = oracle._BLOCK_BYTES // code_projector(code).basis.nbytes
    errors = [vec_hermitian(code.n, v) for w in range(3) for v in weight_sums(letters, w)]
    errors = errors[: 3 * block + 1]
    blocks = -(-len(errors) // block)
    assert blocks == 4
    monkeypatch.setattr(oracle, "TOL", 1e9)
    calls = []
    stacked = oracle._stacked

    def counted(v, errs):
        calls.append(len(errs))
        return stacked(v, errs)

    monkeypatch.setattr(oracle, "_stacked", counted)
    report = verify_correctability(code, errors)
    assert report.ok and report.failing_pair is None
    assert len(calls) <= blocks * (blocks + 1) // 2
    assert sum(calls) == sum(len(errors) - home for home in range(0, len(errors), block))
    # one block for the whole list scans the same pairs to the same residual
    monkeypatch.setattr(oracle, "_BLOCK_BYTES", len(errors) * code_projector(code).basis.nbytes)
    assert verify_correctability(code, errors).max_residual == pytest.approx(report.max_residual, rel=1e-12)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_projector_check_passes_the_basis_and_fails_tampered_ones(name):
    proj = code_projector(validated(catalog(name)))
    assert oracle.verify_projector(proj)
    v = proj.basis
    flipped = v.copy()
    flipped[:, 0] *= -1  # still an orthonormal basis of the same code space
    assert oracle.verify_projector(dataclasses.replace(proj, basis=flipped))
    one_row = v.copy()
    one_row[proj.support[0]] *= -1  # one entry of one orbit column: no longer g V = V
    bad_p = proj.matrix.copy()
    bad_p[:, proj.support[0]] *= -1
    # a dropped column with P to match: only the column count refuses it
    short = v[:, 1:]
    for tampered in (
        dataclasses.replace(proj, basis=short, matrix=short @ short.conj().T),
        dataclasses.replace(proj, basis=short),
        dataclasses.replace(proj, basis=np.hstack([v, v[:, :1]])),
        dataclasses.replace(proj, basis=one_row),
        dataclasses.replace(proj, matrix=bad_p),
    ):
        assert not oracle.verify_projector(tampered)


def test_projector_check_fails_a_basis_outside_the_code_space():
    # the ZI code's V and P checked against IZ: V has m orthonormal columns
    # and V V^dagger = P, so only the generator test g V = V refuses them
    code = validated(SubsystemCode.from_strings(stabilizer=["ZI"]))
    proj = code_projector(code)
    assert oracle.verify_projector(proj)
    other = code_projector(validated(SubsystemCode.from_strings(stabilizer=["IZ"])))
    swapped = dataclasses.replace(proj, code=other.code)
    assert not oracle.verify_projector(swapped)


def test_hermitian_check_reads_the_conjugate_transpose_off_the_permutation():
    for n in range(3):
        for phase in range(4):
            for x in range(1 << n):
                for z in range(1 << n):
                    p = PauliOp(n, phase, x, z)
                    m = dense(p)
                    assert oracle._is_hermitian(p) is np.array_equal(m, m.conj().T), p
                    assert oracle._is_hermitian(p) is (p.sign_exponent % 2 == 0), p
    # validated refuses odd sign exponents, so the helper is checked directly
    assert not oracle._is_hermitian(pauli_from_string("+iXZIIIIII"))
    assert oracle._is_hermitian(pauli_from_string("-XZIIIIIII"))


def test_structure_names_each_generator_that_fails_the_hermitian_check(monkeypatch):
    code = catalog("bacon-shor-9")
    bad = {code.gauge_ops()[2], code.logical_ops()[1]}
    monkeypatch.setattr(oracle, "_is_hermitian", lambda p: p not in bad)
    report = verify_subsystem_structure(code)
    assert not report.ok
    assert report.failures == [
        f"gauge op 2 ({code.gauge_ops()[2]}) is not Hermitian",
        f"logical op 1 ({code.logical_ops()[1]}) is not Hermitian",
    ]


def _span(masks):
    out = {0}
    for g in masks:
        out |= {e ^ g for e in out}
    return sorted(out)


def _zero_or_monomial(c):
    nz = np.abs(c) > oracle.TOL
    return not nz.any() or bool((nz.sum(axis=0) == 1).all() and (nz.sum(axis=1) == 1).all())


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_orbit_basis_has_one_nonzero_per_support_row_in_orbit_order(name):
    code = validated(catalog(name))
    proj = code_projector(code)
    v = proj.basis
    nonzero = v != 0
    assert np.array_equal(nonzero.sum(axis=1), np.isin(np.arange(len(v)), proj.support).astype(int))
    rows = np.arange(len(v))
    assert np.array_equal(proj.column, np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), -1))
    assert np.array_equal(proj.entry, v[rows, np.maximum(proj.column, 0)] * (proj.column >= 0))
    # column j sums over the X-orbit of its least row, and columns go by that row
    orbit = _span([oracle._index_mask(g.x, code.n) for g in code.stabilizer])
    least = [int(np.flatnonzero(v[:, j])[0]) for j in range(v.shape[1])]
    assert least == sorted(least)
    for j, b in enumerate(least):
        assert np.flatnonzero(v[:, j]).tolist() == sorted({b ^ x for x in orbit})


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_compressed_paulis_are_zero_or_monomial(name):
    # every Hermitian Pauli of the small codes, 2,000 seeded ones of the others
    code = validated(catalog(name))
    proj = code_projector(code)
    v = proj.basis
    if code.n <= 7:
        ops = [hermitian(code.n, x, z) for x in range(1 << code.n) for z in range(1 << code.n)]
    else:
        rng = random.Random(47)
        ops = [hermitian(code.n, rng.randrange(1 << code.n), rng.randrange(1 << code.n)) for _ in range(2000)]
    for p in ops:
        full = v.conj().T @ _apply(p, v)
        assert _zero_or_monomial(full), p
        assert np.abs(_action(proj, p) - full).max() <= 1e-12, p


def test_correctability_matches_the_reference_and_the_group_test_on_sweep_codes(sweep_5103):
    # every 16th of the 2,592 [[5,1,0,3]] codes, 162 of them, at weight <= 2
    codes = sweep_5103.codes[::16]
    assert len(codes) == 162
    letters = letter_vecs(5)
    errors = [vec_hermitian(5, v) for w in range(3) for v in weight_sums(letters, w)]
    for code in codes:
        report = verify_correctability(code, errors)
        witness, worst = _scan_reference(code, errors)
        verdict = is_correctable_set(code, errors)
        assert report.failing_pair == witness == verdict.witness, code
        assert report.ok is (witness is None) is verdict.correctable, code
        assert report.max_residual == pytest.approx(worst, rel=1e-9, abs=1e-12), code
