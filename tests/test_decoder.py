import pytest

from gaugeqec.catalog import catalog
from gaugeqec.decoder import (
    Outcome,
    Syndrome,
    build_table,
    recover_and_classify,
    syndrome,
)
from gaugeqec.montecarlo import NoiseModel, sample_error, shot_stream
from gaugeqec.pauli import identity, multiply, pauli_from_string, single


def test_syndrome_of_identity_is_trivial():
    syn = syndrome(catalog("shor9"), identity(9))
    assert syn.trivial and str(syn) == "00000000"
    assert syn.outcomes() == (1,) * 8


def test_syndrome_x1_flips_only_third_generator():
    syn = syndrome(catalog("shor9"), single(9, 0, "X"))
    assert str(syn) == "00100000"
    assert syn.outcomes()[2] == -1


def test_syndrome_z1_flips_first_two_generators():
    syn = syndrome(catalog("shor9"), single(9, 0, "Z"))
    assert str(syn) == "11000000"


def test_syndrome_size_mismatch():
    with pytest.raises(ValueError):
        syndrome(catalog("shor9"), identity(5))


@pytest.mark.parametrize("n", [5, 12])
def test_decoder_refuses_errors_on_another_qubit_count(n):
    code = catalog("shor9")
    table = build_table(code, 1)
    with pytest.raises(ValueError, match=f"operator is on {n} qubits, expected 9"):
        syndrome(code, identity(n))
    with pytest.raises(ValueError, match=f"operator is on {n} qubits, expected 9"):
        recover_and_classify(code, table, identity(n))


def test_table_shor9_weight_one():
    table = build_table(catalog("shor9"), 1)
    assert len(table) == 22  # identity + 9 X + 3 Z + 9 Y classes
    code = catalog("shor9")
    z1 = single(9, 0, "Z")
    syn = syndrome(code, z1)
    for q in (1, 2):
        assert syndrome(code, single(9, q, "Z")) == syn
    assert table.entries[syn.bits] == z1


def test_table_bacon_shor_weight_one_reaches_all_syndromes():
    table = build_table(catalog("bacon-shor-9"), 1)
    assert len(table) == 16
    assert sorted(table.entries) == list(range(16))


def test_table_weight_zero():
    table = build_table(catalog("shor9"), 0)
    assert len(table) == 1
    assert table.entries[0] == identity(9)


def test_table_bad_weight():
    with pytest.raises(ValueError):
        build_table(catalog("shor9"), 10)
    with pytest.raises(ValueError):
        build_table(catalog("shor9"), -1)


def test_recover_single_qubit_errors_all_succeed():
    for name in ("shor9", "bacon-shor-9"):
        code = catalog(name)
        table = build_table(code, 1)
        for q in range(9):
            for letter in "XYZ":
                rec = recover_and_classify(code, table, single(9, q, letter))
                assert rec.outcome is Outcome.GAUGE_SUCCESS


def test_recover_identity():
    code = catalog("shor9")
    table = build_table(code, 1)
    rec = recover_and_classify(code, table, identity(9))
    assert rec.outcome is Outcome.GAUGE_SUCCESS
    assert rec.residual == identity(9)


def test_recover_two_qubit_error_fails_logically_on_bacon_shor():
    code = catalog("bacon-shor-9")
    table = build_table(code, 1)
    rec = recover_and_classify(code, table, pauli_from_string("IXXIIIIII"))
    assert rec.outcome is Outcome.LOGICAL_FAILURE
    assert rec.logical_class.label_str() == "X"
    assert rec.residual == pauli_from_string("XXXIIIIII")


def test_unrecoverable_syndrome_reported():
    code = catalog("shor9")
    table = build_table(code, 0)
    rec = recover_and_classify(code, table, single(9, 0, "X"))
    assert rec.outcome is Outcome.UNRECOVERABLE


def test_table_code_mismatch():
    table = build_table(catalog("shor9"), 1)
    with pytest.raises(ValueError):
        recover_and_classify(catalog("bacon-shor-9"), table, identity(9))


def test_gauge_multiplication_preserves_syndrome():
    code = catalog("bacon-shor-9")
    model = NoiseModel(0.4)
    gauge = code.group_generators()
    for shot in range(150):
        e = sample_error(model, 9, shot_stream(7, shot, 9))
        syn = syndrome(code, e)
        for g in gauge:
            assert syndrome(code, multiply(g, e)) == syn


def test_residual_classification_never_leaves_normalizer():
    # randomized errors of any weight: decoding asserts the residual internally
    code = catalog("shor9")
    table = build_table(code, 1)
    model = NoiseModel(0.6)
    for shot in range(500):
        e = sample_error(model, 9, shot_stream(123, shot, 9))
        recover_and_classify(code, table, e)


def test_table_dump_is_deterministic_and_sorted():
    code = catalog("bacon-shor-9")
    d1 = build_table(code, 1).dump()
    d2 = build_table(code, 1).dump()
    assert d1 == d2
    lines = d1.splitlines()
    assert lines == sorted(lines)
    assert lines[0].split() == ["0000", "IIIIIIIII"]
    assert len(lines) == 16


def test_syndrome_value_object():
    s = Syndrome(4, 0b0010)
    assert str(s) == "0100"
    assert s.outcomes() == (1, -1, 1, 1)


def test_stored_representatives_reproduce_their_keys():
    for name in ("shor9", "bacon-shor-9"):
        code = catalog(name)
        table = build_table(code, 2)
        for bits, rep in table.entries.items():
            assert syndrome(code, rep).bits == bits


GOLDEN_SHOR9_T1 = """\
00000000 IIIIIIIII
00000001 IIIIIIIIX
00000010 IIIIIIXII
00000011 IIIIIIIXI
00000100 IIIIIXIII
00001000 IIIXIIIII
00001100 IIIIXIIII
00010000 IIXIIIIII
00100000 XIIIIIIII
00110000 IXIIIIIII
01000000 IIIIIIZII
01000001 IIIIIIIIY
01000010 IIIIIIYII
01000011 IIIIIIIYI
10000000 IIIZIIIII
10000100 IIIIIYIII
10001000 IIIYIIIII
10001100 IIIIYIIII
11000000 ZIIIIIIII
11010000 IIYIIIIII
11100000 YIIIIIIII
11110000 IYIIIIIII
"""


def test_table_dump_golden_shor9():
    assert build_table(catalog("shor9"), 1).dump() == GOLDEN_SHOR9_T1
