import pytest

from gaugeqec.catalog import CATALOG_NAMES, catalog
from gaugeqec.code import (
    CodeParams,
    SubsystemCode,
    gauge_fix,
    logical_equivalent,
    parameters,
    singleton_check,
    validate,
    validated,
)
from gaugeqec.gf2 import BinMatrix, Eliminator, rank
from gaugeqec.pauli import multiply, pauli_from_string
from gaugeqec.tableau import centralizer_basis


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
    combined = rank(BinMatrix(18, stab_rows + gauge_rows))
    assert combined - rank(BinMatrix(18, stab_rows)) == 8


def test_generators_live_in_centralizer_span():
    for name in CATALOG_NAMES:
        code = catalog(name)
        basis = centralizer_basis(code.n, list(code.stabilizer))
        assert len(basis) == 2 * code.n - code.s
        span = Eliminator(p.vec for p in basis)
        for op in code.gauge_ops() + code.logical_ops():
            assert span.contains(op.vec)


def test_logical_equivalence_predicate():
    bs = catalog("bacon-shor-9")
    xbar = bs.logical_pairs[0][0]
    zbar = bs.logical_pairs[0][1]
    alt = multiply(bs.stabilizer[0], multiply(bs.gauge_pairs[0][0], xbar))
    assert logical_equivalent(bs, xbar, alt)
    assert not logical_equivalent(bs, xbar, zbar)


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
