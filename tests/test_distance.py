import random
from itertools import product
from pathlib import Path

import pytest

import naive_ops
from naive_ops import brute_distance

from gaugeqec.catalog import CATALOG_NAMES, catalog
from gaugeqec.code import SubsystemCode, gauge_fix, singleton_check, validated
from gaugeqec.codefile import parse_code_file
from gaugeqec.decoder import syndrome
from gaugeqec.distance import (
    BudgetExceededError,
    Kind,
    classify,
    distance,
    is_correctable_set,
)
from gaugeqec.pauli import (
    identity,
    multiply,
    pauli_from_string,
    pauli_to_string,
    single,
    vec_hermitian,
)

DATA = Path(__file__).parent / "data"

# distances recomputed by the string-based brute-force oracle in naive_ops
EXPECTED_DISTANCE = {
    "shor9": 3,
    "bacon-shor-9": 3,
    "five-qubit": 3,
    "steane7": 3,
}


def weight_le_1(n):
    return [identity(n)] + [single(n, q, L) for q in range(n) for L in "XYZ"]


def test_classify_identity_is_gauge():
    assert classify(catalog("shor9"), identity(9)).kind is Kind.GAUGE


def test_classify_x1_outside_normalizer():
    cls = classify(catalog("shor9"), single(9, 0, "X"))
    assert cls.kind is Kind.OUTSIDE_N


def test_classify_logical_z_on_bacon_shor():
    cls = classify(catalog("bacon-shor-9"), pauli_from_string("ZZZZZZZZZ"))
    assert cls.kind is Kind.LOGICAL
    assert cls.label == (0, 1)
    assert cls.label_str() == "Z"


def test_classify_gauge_elements():
    bs = catalog("bacon-shor-9")
    for op in bs.gauge_ops():
        assert classify(bs, op).kind is Kind.GAUGE


def test_distance_methods_agree_on_catalog():
    for name in CATALOG_NAMES:
        code = catalog(name)
        d_ex = distance(code, "exhaustive")
        d_co = distance(code, "coset")
        assert d_ex == d_co == EXPECTED_DISTANCE[name]


def test_distance_against_brute_force_oracle():
    shor = catalog("shor9")
    stab = [pauli_to_string(g) for g in shor.stabilizer]
    assert brute_distance(stab, stab, 9, 3) == distance(shor)
    bs = catalog("bacon-shor-9")
    stab = [pauli_to_string(g) for g in bs.stabilizer]
    group = stab + [pauli_to_string(op) for op in bs.gauge_ops()]
    assert brute_distance(stab, group, 9, 3) == distance(bs)


def test_distance_bare_qubit():
    assert distance(SubsystemCode(1)) == 1


def test_distance_requires_logical_content():
    # two qubits fully stabilized: k = 0
    code = SubsystemCode.from_strings(stabilizer=["ZI", "IZ"])
    with pytest.raises(ValueError):
        distance(code)


def test_distance_budget_cap():
    with pytest.raises(BudgetExceededError):
        distance(catalog("shor9"), "exhaustive", budget=4)
    with pytest.raises(BudgetExceededError):
        distance(catalog("bacon-shor-9"), "coset", budget=4)


def _bacon_shor(m):
    """Bacon-Shor on an m x m grid, qubit m·i + j: [[m², 1, (m − 1)², m]], gauge pairs derived."""
    n = m * m

    def op(letter, qubits):
        return "".join(letter if q in qubits else "I" for q in range(n))

    stabilizer = [op("X", {m * i + j for i in (a, a + 1) for j in range(m)}) for a in range(m - 1)]
    stabilizer += [op("Z", {m * i + j for i in range(m) for j in (b, b + 1)}) for b in range(m - 1)]
    code = SubsystemCode.from_strings(stabilizer=stabilizer, logical_x=[op("X", set(range(m)))],
                                      logical_z=[op("Z", {m * i for i in range(m)})])
    return validated(code, derive_gauge=(m - 1) ** 2)


def test_distance_of_bacon_shor_squares():
    # 2^18 and 2^32 gauge elements times 3 logical classes; the threshold
    # test lists Paulis of weight at most 3
    assert distance(_bacon_shor(4)) == 4
    code = parse_code_file((DATA / "bacon_shor_5x5.code").read_text())
    assert code == _bacon_shor(5) and (code.n, code.k, code.r) == (25, 1, 16)
    assert distance(code) == 5


def test_distance_budget_caps_the_largest_weight_list():
    # d = 5 is settled when weight 3 fails the test at 6: C(25, 3)·27 = 62,100 Paulis
    code = _bacon_shor(5)
    assert distance(code, budget=62_100) == 5
    with pytest.raises(BudgetExceededError, match="62100 Paulis of weight 3 exceed the budget 62099"):
        distance(code, budget=62_099)


def test_distance_unknown_method():
    with pytest.raises(ValueError):
        distance(catalog("shor9"), "randomized")


def test_gauge_fix_does_not_decrease_distance():
    for name in CATALOG_NAMES:
        code = catalog(name)
        assert distance(gauge_fix(code)) >= distance(code)


def test_singleton_holds_on_catalog():
    for name in CATALOG_NAMES:
        code = catalog(name)
        assert singleton_check(code.n, code.k, distance(code))


def test_weight_one_errors_correctable_on_both_nine_qubit_codes():
    for name in ("shor9", "bacon-shor-9"):
        res = is_correctable_set(catalog(name), weight_le_1(9))
        assert res.correctable and res.witness is None


def test_two_qubit_witness_set():
    errs = [pauli_from_string("XXIIIIIII"), pauli_from_string("IIIIIXIII")]
    bad = is_correctable_set(catalog("bacon-shor-9"), errs)
    assert not bad.correctable
    prod = multiply(*bad.witness)
    assert classify(catalog("bacon-shor-9"), prod).kind is Kind.LOGICAL
    good = is_correctable_set(catalog("shor9"), errs)
    assert good.correctable


def test_empty_error_set_rejected():
    with pytest.raises(ValueError):
        is_correctable_set(catalog("shor9"), [])


@pytest.mark.parametrize(
    "errors, n", [(["XXX", "ZZZ"], 3), (["IIIIIIIII", "XXXXXXXXXXXX"], 12)]
)
def test_correctability_refuses_errors_on_another_qubit_count(errors, n):
    with pytest.raises(ValueError, match=f"operator is on {n} qubits, expected 9"):
        is_correctable_set(catalog("shor9"), [pauli_from_string(e) for e in errors])


def test_equal_syndrome_weight_one_pairs_are_gauge_equivalent():
    # errors within the correction radius sharing a syndrome differ by gauge
    for name in ("shor9", "bacon-shor-9"):
        code = catalog(name)
        errs = weight_le_1(9)
        for i in range(len(errs)):
            for j in range(i + 1, len(errs)):
                if syndrome(code, errs[i]) == syndrome(code, errs[j]):
                    prod = multiply(errs[i], errs[j])
                    assert classify(code, prod).kind is Kind.GAUGE


def test_classify_random_consistency_with_syndrome():
    rng = random.Random(71)
    code = catalog("bacon-shor-9")
    for _ in range(300):
        x, z = rng.randrange(1 << 9), rng.randrange(1 << 9)
        from gaugeqec.pauli import hermitian

        p = hermitian(9, x, z)
        cls = classify(code, p)
        trivial = syndrome(code, p).trivial
        assert (cls.kind is Kind.OUTSIDE_N) == (not trivial)


_NAIVE_KIND = {"outside": Kind.OUTSIDE_N, "gauge": Kind.GAUGE, "logical": Kind.LOGICAL}


def _letters(op):
    return pauli_to_string(vec_hermitian(op.n, op.vec))


def _assert_classify_matches_naive(code, paulis):
    """classify's kind agrees with naive_ops; a logical label names the coset."""
    c = validated(code)
    stab = [_letters(g) for g in c.stabilizer]
    group = [_letters(g) for g in c.group_generators()]
    rows = [naive_ops.to_bits(g) for g in group]
    logicals = [(_letters(lx), _letters(lz)) for lx, lz in c.logical_pairs]
    for text in paulis:
        cls = classify(c, pauli_from_string(text))
        assert cls.kind is _NAIVE_KIND[naive_ops.classify_string(stab, group, text)], text
        if cls.kind is not Kind.LOGICAL:
            continue
        # times the logical operators its label names, it must land in the group
        rest = text
        for j, (lx, lz) in enumerate(logicals):
            if cls.label[2 * j]:
                rest = naive_ops.mul(rest, lx)[1]
            if cls.label[2 * j + 1]:
                rest = naive_ops.mul(rest, lz)[1]
        assert naive_ops.in_span(rows, naive_ops.to_bits(rest)), text


# k >= 2, so multi-qubit labels such as X1Z2 occur
_K3_WITH_GAUGE = SubsystemCode.from_strings(
    stabilizer=["XXXXXX", "ZZZZZZ"], gauge_x=["XXIIII"], gauge_z=["IZZIII"]
)
_K2 = SubsystemCode.from_strings(stabilizer=["XXXX", "ZZZZ"])


@pytest.mark.parametrize(
    "code", [catalog("five-qubit"), catalog("steane7"), _K2, _K3_WITH_GAUGE],
    ids=["five-qubit", "steane7", "k2", "k3-gauge"],
)
def test_frame_classify_matches_naive_on_every_pauli(code):
    c = validated(code)
    paulis = ["".join(letters) for letters in product("IXYZ", repeat=c.n)]
    _assert_classify_matches_naive(c, paulis)
    if c.k >= 2:
        labels = {classify(c, pauli_from_string(t)).label_str() for t in paulis}
        assert {"X1Z2", "Y1Y2"} <= labels


@pytest.mark.parametrize("name", ["shor9", "bacon-shor-9"])
def test_frame_classify_matches_naive_on_sampled_paulis(name):
    rng = random.Random(20_000)
    paulis = ["".join(rng.choice("IXYZ") for _ in range(9)) for _ in range(20_000)]
    _assert_classify_matches_naive(catalog(name), paulis)
