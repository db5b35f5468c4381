import hashlib
import json
import pickle
import random
from itertools import combinations

import pytest

from gaugeqec.catalog import CATALOG_NAMES, catalog
from gaugeqec.code import (
    CodeParams,
    SubsystemCode,
    ValidationReport,
    frame_rows,
    gauge_fix,
    logical_equivalent,
    parameters,
    singleton_check,
    validate,
    validated,
)
from gaugeqec.gf2 import Eliminator
from gaugeqec.pauli import (
    PauliOp,
    hermitian,
    identity,
    multiply,
    pauli_from_string,
    pauli_to_string,
    single,
)
from naive_ops import anticommute, centralizer_lists, in_span, mul, rank, split_sign, to_bits


def test_catalog_names():
    assert set(CATALOG_NAMES) == {"shor9", "bacon-shor-9", "five-qubit", "steane7"}
    with pytest.raises(KeyError):
        catalog("shor")


def test_catalog_codes_validate():
    for name, counts in (
        ("shor9", (8, 0, 1)),
        ("bacon-shor-9", (4, 4, 1)),
        ("five-qubit", (4, 0, 1)),
        ("steane7", (6, 0, 1)),
    ):
        code = catalog(name)
        assert (code.s, code.r, code.k) == counts
        assert validate(code).ok


def test_parameters():
    assert parameters(catalog("shor9")) == CodeParams(9, 1, 0)
    assert parameters(catalog("bacon-shor-9")) == CodeParams(9, 1, 4)
    bare = SubsystemCode(1)
    assert parameters(bare) == CodeParams(1, 1, 0)


def test_negative_stabilizer_sign_is_invalid():
    shor = catalog("shor9")
    bad = SubsystemCode(
        9,
        (pauli_from_string("-XXXXXXIII"),) + shor.stabilizer[1:],
        (),
        shor.logical_pairs,
    )
    report = validate(bad)
    assert not report.ok
    assert any("sign" in v or "-1" in v for v in report.violations)


def test_anticommuting_stabilizers_invalid():
    bad = SubsystemCode.from_strings(stabilizer=["XII", "ZII"])
    report = validate(bad)
    assert not report.ok
    assert any("anticommute" in v for v in report.violations)


def test_dependent_stabilizers_invalid():
    bad = SubsystemCode.from_strings(stabilizer=["ZZI", "IZZ", "ZIZ"])
    report = validate(bad)
    assert not report.ok
    assert any("depends" in v for v in report.violations)


def test_gauge_pair_pattern_enforced():
    # gauge x must anticommute with its own z partner
    bad = SubsystemCode.from_strings(
        stabilizer=["ZZII"], gauge_x=["IIXI"], gauge_z=["IIIZ"]
    )
    report = validate(bad)
    assert not report.ok
    assert any("must anticommute" in v for v in report.violations)


def test_gauge_op_must_centralize_stabilizer():
    bad = SubsystemCode.from_strings(
        stabilizer=["ZZII"], gauge_x=["XIII"], gauge_z=["ZIII"]
    )
    report = validate(bad)
    assert not report.ok
    assert any("stabilizer generator" in v for v in report.violations)


def test_validation_completes_missing_sectors():
    shor = catalog("shor9")
    stab_only = SubsystemCode(9, shor.stabilizer)
    completed = validated(stab_only)
    assert (completed.s, completed.r, completed.k) == (8, 0, 1)
    bs = catalog("bacon-shor-9")
    derived = validated(SubsystemCode(9, bs.stabilizer), derive_gauge=4)
    assert (derived.s, derived.r, derived.k) == (4, 4, 1)


def test_frame_rows_derives_a_gauge_x_row_given_as_none():
    # each missing x row anticommutes with its own gauge z row alone; only
    # supplied rows are checked, so a None row is never named
    bs = validated(catalog("bacon-shor-9"))
    n, s, r = bs.n, bs.s, bs.r
    stab, gz, logical = bs.rows[:s], bs.rows[s + 1 : s + 2 * r : 2], bs.rows[s + 2 * r :]
    violations, code = frame_rows(n, stab, [v for z in gz for v in (None, z)] + list(logical), r)
    assert violations == [] and validate(code).ok
    assert (code.rows[:s], code.rows[s + 1 : s + 2 * r : 2]) == (stab, gz)
    letters = [[pauli_to_string(op) for op in pair] for pair in code.gauge_pairs]
    for i, (gx, _) in enumerate(letters):
        assert [anticommute(gx, z) for _, z in letters] == [j == i for j in range(r)]
    flipped = [None, gz[0] ^ 1, *[v for z in gz[1:] for v in (None, z)]]  # X on qubit 0
    violations, code = frame_rows(n, stab, flipped + list(logical), r)
    assert code is None and violations
    assert all(v.startswith("gauge z0 ") for v in violations), violations


def test_gauge_fix_rowspace_matches_shor():
    fixed = gauge_fix(catalog("bacon-shor-9"))
    assert fixed.r == 0 and fixed.k == 1
    shor = catalog("shor9")
    fixed_span = Eliminator(g.vec for g in fixed.stabilizer)
    assert fixed_span.rank == 8
    assert all(fixed_span.contains(g.vec) for g in shor.stabilizer)
    assert fixed.logical_pairs == catalog("bacon-shor-9").logical_pairs


def test_gauge_fix_without_gauge_is_identity():
    for name in ("shor9", "five-qubit"):
        code = catalog(name)
        assert gauge_fix(code) == code


def test_singleton_check():
    assert singleton_check(9, 1, 3)
    assert singleton_check(5, 1, 3)  # met with equality
    assert not singleton_check(4, 1, 3)
    with pytest.raises(ValueError):
        singleton_check(5, 1, 0)


def test_alternative_logical_representative():
    shor = catalog("shor9")
    bs = catalog("bacon-shor-9")
    s1 = shor.stabilizer[0]
    gx1 = bs.gauge_pairs[0][0]
    xbar = bs.logical_pairs[0][0]
    alt = multiply(s1, multiply(gx1, xbar))
    assert alt == pauli_from_string("IIXIIIXXI")
    assert alt.phase_exp == 0


def test_gauge_generators_have_full_rank_mod_stabilizer():
    bs = catalog("bacon-shor-9")
    stab_rows = tuple(g.vec for g in bs.stabilizer)
    gauge_rows = tuple(op.vec for op in bs.gauge_ops())
    combined = Eliminator(stab_rows + gauge_rows).rank
    assert combined - Eliminator(stab_rows).rank == 8


def test_generators_live_in_centralizer_span():
    for name in CATALOG_NAMES:
        code = catalog(name)
        basis = centralizer_lists([split_sign(str(g))[1] for g in code.stabilizer], code.n)
        assert rank(basis) == len(basis) == 2 * code.n - code.s
        for op in code.gauge_ops() + code.logical_ops():
            assert in_span(basis, _bits(op))


def _bits(op):
    return to_bits(split_sign(str(op))[1])


def _product(ops, bits, n):
    p = identity(n)
    for i, op in enumerate(ops):
        if bits >> i & 1:
            p = multiply(p, op)
    return p


def test_logical_equivalence_predicate():
    bs = catalog("bacon-shor-9")
    xbar = bs.logical_pairs[0][0]
    zbar = bs.logical_pairs[0][1]
    alt = multiply(bs.stabilizer[0], multiply(bs.gauge_pairs[0][0], xbar))
    assert logical_equivalent(bs, xbar, alt)
    assert not logical_equivalent(bs, xbar, zbar)
    # against string-level elimination over the gauge generators, on every
    # pair of Paulis of weight at most 1 and on seeded normalizer elements,
    # half of them shifted by a random gauge group element
    rng = random.Random(24)
    for name in CATALOG_NAMES:
        c = validated(catalog(name))
        n, group, normalizer = c.n, c.group_generators(), c.normalizer_generators()
        ops = [identity(n)] + [single(n, q, letter) for q in range(n) for letter in "XYZ"]
        pairs = [(p, q) for p in ops for q in ops]
        for _ in range(200):
            p = _product(normalizer, rng.getrandbits(len(normalizer)), n)
            shift = _product(group, rng.getrandbits(len(group)), n)
            other = _product(normalizer, rng.getrandbits(len(normalizer)), n)
            pairs += [(p, multiply(p, shift)), (p, other)]
        verdicts = [logical_equivalent(c, p, q) for p, q in pairs]
        rows = [_bits(g) for g in group]
        assert verdicts == [in_span(rows, _bits(multiply(p, q))) for p, q in pairs], name
        assert 200 <= sum(verdicts) < len(pairs)


@pytest.mark.parametrize("n", [3, 12])
def test_logical_equivalence_refuses_operators_on_another_qubit_count(n):
    x, z = pauli_from_string("X" * n), pauli_from_string("Z" * n)
    with pytest.raises(ValueError, match=f"operator is on {n} qubits, expected 9"):
        logical_equivalent(catalog("shor9"), x, z)


def test_from_strings_pairing_errors():
    with pytest.raises(ValueError):
        SubsystemCode.from_strings(stabilizer=["ZZ"], gauge_x=["XI"], gauge_z=[])


def test_too_many_generators_invalid():
    report = validate(
        SubsystemCode.from_strings(
            stabilizer=["ZI"], logical_x=["XI", "IX"], logical_z=["ZI", "IZ"]
        )
    )
    assert not report.ok


def _random_frame(rng, n):
    """x and z vectors of a random frame: the standard one under 2n transvections."""
    xs = [1 << j for j in range(n)]
    zs = [1 << (n + j) for j in range(n)]
    for _ in range(2 * n):
        h = rng.randrange(1, 1 << (2 * n))
        h_sw = ((h & ((1 << n) - 1)) << n) | (h >> n)
        xs = [v ^ h if (v & h_sw).bit_count() & 1 else v for v in xs]
        zs = [v ^ h if (v & h_sw).bit_count() & 1 else v for v in zs]
    return xs, zs


def _op(n, vec, phase=0):
    return PauliOp(n, phase, vec & ((1 << n) - 1), vec >> n)


def _seeded_code(rng):
    """(code, derive_gauge, report) of a code cut from a random frame, mostly broken one way.

    An operator on another qubit count is refused as the code is built; the
    code is then None and the report holds the refusal.
    """
    n = rng.randint(1, 6)
    xs, zs = _random_frame(rng, n)
    s = rng.randint(0, n)
    r = rng.randint(0, n - s)
    k = rng.randint(0, n - s - r)
    stab = [hermitian(n, v & ((1 << n) - 1), v >> n) for v in zs[:s]]
    pairs = [
        (_op(n, xs[j], rng.randrange(4)), _op(n, zs[j], rng.randrange(4)))
        for j in range(s, s + r + k)
    ]
    free = n - s - r - k
    derive_gauge = rng.choice((-1, free + 1)) if rng.random() < 0.1 else rng.randint(0, free)
    kind = rng.choice(("none", "row", "row", "sign", "dependent", "too-many", "qubits"))
    ops = stab + [op for pair in pairs for op in pair]
    if kind == "row" and ops:
        i = rng.randrange(len(ops))
        ops[i] = _op(n, rng.randrange(1 << (2 * n)), ops[i].phase_exp if i < s else 0)
    elif kind == "sign" and s:
        i = rng.randrange(s)
        ops[i] = _op(n, ops[i].vec, (ops[i].phase_exp + rng.randint(1, 3)) % 4)
    elif kind == "dependent" and len(ops) >= 3:
        a, b, c = rng.sample(range(len(ops)), 3)
        ops[c] = _op(n, ops[a].vec ^ ops[b].vec, ops[c].phase_exp)
    elif kind == "too-many":
        extra = [_op(n, v) for v in xs[: rng.randint(1, n)]]
        ops = ops[:s] + extra + ops[s:]
        s += len(extra)
    elif kind == "qubits" and ops:
        ops[rng.randrange(len(ops))] = _op(n + 1, rng.randrange(1 << (2 * n + 2)))
    sector = ops[s:]
    pairs = [(sector[2 * i], sector[2 * i + 1]) for i in range(len(sector) // 2)]
    try:
        code = SubsystemCode(n, tuple(ops[:s]), tuple(pairs[:r]), tuple(pairs[r:]))
    except ValueError as exc:  # an operator on another qubit count: no code to validate
        return None, derive_gauge, ValidationReport([str(exc)])
    return code, derive_gauge, validate(code, derive_gauge)


def test_validate_golden():
    # 4,000 seeded codes from random frames, most broken by one random row, a
    # stabilizer sign, a dependent generator, extra generators or a qubit
    # count, and with random sector signs, half of them not Hermitian: every
    # violation message in order, and every completed code
    rng = random.Random(1411)
    outcomes = []
    for _ in range(4000):
        _, _, report = _seeded_code(rng)
        if report.ok:
            c = report.completed
            outcomes.append([f"{c.s} {c.r} {c.k}"] + [str(op) for op in c.normalizer_generators()])
        else:
            outcomes.append(["invalid"] + report.violations)
    assert sum(o[0] != "invalid" for o in outcomes) == 514
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == "3889b74a6b38990cbb36fbc80e232197962a2a7178ef609e7f5a7e44b91e923f"


def _reference_ok(code, derive_gauge):
    """Validity from definitions on signed strings: counts, signs, slot pattern, rank."""
    n, s = code.n, len(code.stabilizer)
    sector = [op for pair in code.gauge_pairs + code.logical_pairs for op in pair]
    gens = [split_sign(str(op)) for op in code.stabilizer + tuple(sector)]
    letters = [word for _, word in gens]
    if not 0 <= derive_gauge <= n - s - len(sector) // 2:
        return False
    if any(k for k, _ in gens[:s]):  # -1 or ±i in the stabilizer group
        return False
    if any((2 * k + mul(word, word)[0]) % 4 for k, word in gens[s:]):  # squares to -I
        return False
    for a, b in combinations(range(len(gens)), 2):
        partners = a >= s and (a - s) % 2 == 0 and b == a + 1
        if anticommute(letters[a], letters[b]) != partners:
            return False
    return rank([to_bits(word) for word in letters]) == len(letters)


def test_validate_agrees_with_a_string_reference():
    # the completed frame decides validity; a reference that never builds a
    # frame must reach the same verdict on every seeded code
    rng = random.Random(1411)
    verdicts = []
    for _ in range(4000):
        code, derive_gauge, report = _seeded_code(rng)
        ok = code is not None and _reference_ok(code, derive_gauge)
        assert report.ok == ok, (code, derive_gauge)
        verdicts.append(ok)
    assert sum(verdicts) == 514


def test_validate_refuses_exactly_the_sector_generators_that_square_to_minus_one():
    # string arithmetic: i**k P squares to i**(2k) P P = (-1)**k I, so the
    # supplied gauge and logical generators that square to -I are the ones
    # refused as not Hermitian
    rng = random.Random(1411)
    refused = 0
    for _ in range(4000):
        code, _, report = _seeded_code(rng)
        if code is None:  # the qubit count is reported alone
            continue
        named = {v.split(" has sign")[0] for v in report.violations
                 if v.endswith("it is not Hermitian")}
        sector = [(f"{kind} {xz}{j}", op) for kind, pairs in (("gauge", code.gauge_pairs),
                                                               ("logical", code.logical_pairs))
                  for j, pair in enumerate(pairs) for xz, op in zip("xz", pair)]
        squares_to_minus = set()
        for name, op in sector:
            k, letters = split_sign(str(op))
            phase, square = mul(letters, letters)
            assert square == "I" * len(letters)
            if (2 * k + phase) % 4:
                squares_to_minus.add(name)
        assert named == squares_to_minus
        refused += bool(named)
    assert refused > 1000


def test_equal_codes_hash_equal_and_survive_pickling():
    for name in CATALOG_NAMES:
        code = catalog(name)
        rebuilt = SubsystemCode.from_strings(
            stabilizer=[str(g) for g in code.stabilizer],
            gauge_x=[str(gx) for gx, _ in code.gauge_pairs],
            gauge_z=[str(gz) for _, gz in code.gauge_pairs],
            logical_x=[str(lx) for lx, _ in code.logical_pairs],
            logical_z=[str(lz) for _, lz in code.logical_pairs],
        )
        assert rebuilt == code and hash(rebuilt) == hash(code)
        assert hash(code) == hash((code.n, code.s, code.r, code.rows, code.signs))
        copy = pickle.loads(pickle.dumps(code))
        assert copy == code and hash(copy) == hash(code)
        assert validated(copy) is validated(code)  # one cache entry for both
    assert SubsystemCode(2) != SubsystemCode(3)


def test_a_code_is_built_only_from_operators_on_its_qubit_count():
    # the same bits on n + 1 qubits would give the same row, so the code refuses them
    refusal = r"^operator XXII is on 4 qubits, code has 3$"
    with pytest.raises(ValueError, match=refusal):
        SubsystemCode(3, [PauliOp(4, 0, 0b011, 0)])
    with pytest.raises(ValueError, match=refusal):
        SubsystemCode.from_strings(stabilizer=["ZZI"], logical_x=["XXII"], logical_z=["ZZZ"])
    # a code is its rows: it pickles to exactly (n, s, r, rows, signs)
    codes = [catalog(name) for name in CATALOG_NAMES] + [SubsystemCode(3, [PauliOp(3, 0, 3, 0)])]
    for code in codes:
        assert code.stabilizer  # the operator views are built, and not pickled
        assert code.__reduce_ex__(2)[2] == (code.n, code.s, code.r, code.rows, code.signs)
        assert pickle.loads(pickle.dumps(code)) == code
