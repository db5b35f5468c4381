import pytest

from gaugeqec import codefile
from gaugeqec.catalog import CATALOG_NAMES, catalog
from gaugeqec.codefile import MAX_CODE_QUBITS, CodeFileError, parse_code_file, serialize_code

SHOR9_FILE = """\
n: 9

[stabilizer]
XXXXXXIII
XXXIIIXXX
ZZIIIIIII
IZZIIIIII
IIIZZIIII
IIIIZZIII
IIIIIIZZI
IIIIIIIZZ

[logical_x]
XXXXXXXXX

[logical_z]
ZZZZZZZZZ
"""


def test_parse_table_one_transcription():
    code = parse_code_file(SHOR9_FILE)
    assert code == catalog("shor9")


def test_round_trip_catalog_codes():
    for name in CATALOG_NAMES:
        code = catalog(name)
        assert parse_code_file(serialize_code(code)) == code


def test_serialize_is_stable():
    text = serialize_code(catalog("shor9"))
    assert text == SHOR9_FILE
    assert serialize_code(parse_code_file(text)) == text


def test_comments_and_blank_lines_ignored():
    text = "# header comment\nn: 2\n\n[stabilizer]\nZZ  # the only generator\n"
    code = parse_code_file(text)
    assert code.s == 1 and code.n == 2


def test_signs_round_trip():
    text = "n: 2\n[gauge_x]\n-YI\n[gauge_z]\nZI\n[logical_x]\nIX\n[logical_z]\n-IZ\n"
    code = parse_code_file(text)
    assert serialize_code(code).count("-YI") == 1 and serialize_code(code).count("-IZ") == 1
    assert parse_code_file(serialize_code(code)) == code


def test_a_generator_that_is_not_hermitian_is_refused():
    text = "n: 2\n[gauge_x]\n-iYI\n[gauge_z]\nZI\n[logical_x]\nIX\n[logical_z]\nIZ\n"
    with pytest.raises(CodeFileError, match="gauge x0 has sign i\\^3; it is not Hermitian"):
        parse_code_file(text)


def test_bad_character_position():
    text = "n: 9\n[stabilizer]\nXXXXXXIIW\n"
    with pytest.raises(CodeFileError) as err:
        parse_code_file(text)
    assert err.value.line == 3
    assert err.value.col == 9


def test_missing_header():
    with pytest.raises(CodeFileError):
        parse_code_file("[stabilizer]\nZZ\n")


def test_unknown_section():
    with pytest.raises(CodeFileError) as err:
        parse_code_file("n: 2\n[stabilisers]\nZZ\n")
    assert err.value.line == 2


@pytest.mark.parametrize("header", ["[stabilizer", "[stabilizer]]", "[[stabilizer]]"])
def test_a_section_header_needs_exactly_one_bracket_on_each_side(header):
    with pytest.raises(CodeFileError, match="malformed section header") as err:
        parse_code_file(f"n: 2\n{header}\nZZ\n")
    assert err.value.line == 2


def test_spaces_inside_section_brackets_are_allowed():
    assert parse_code_file("n: 2\n[ stabilizer ]\nZZ\n").s == 1


def test_operator_outside_section():
    with pytest.raises(CodeFileError):
        parse_code_file("n: 2\nZZ\n")


def test_wrong_length_operator():
    with pytest.raises(CodeFileError):
        parse_code_file("n: 3\n[stabilizer]\nZZ\n")


def test_unpaired_gauge_sections():
    text = "n: 2\n[gauge_x]\nXI\n"
    with pytest.raises(CodeFileError):
        parse_code_file(text)


def test_validation_errors_surface():
    text = "n: 9\n[stabilizer]\n-XXXXXXIII\n"
    with pytest.raises(CodeFileError) as err:
        parse_code_file(text)
    assert "sign" in str(err.value) or "-1" in str(err.value)


@pytest.mark.parametrize(
    "text, line, violation",
    [
        ("n: 2\n[stabilizer]\n-ZZ\n", 3, "stabilizer generator 0 has sign i^2"),
        ("n: 3\n[stabilizer]\nZZI\n# ZZ on each neighbour pair\nIZZ\nZIZ\n", 6,
         "stabilizer generator 2 depends on earlier generators"),
        ("n: 3\n[stabilizer]\nZZI\nIZZ\nZIZ\n", 5, "stabilizer generator 2 depends"),
        # a pair reports the later of its two lines, whichever section comes first
        ("n: 2\n[logical_x]\nXI\n[logical_z]\nZI\n[stabilizer]\nZZ\n", 7,
         "logical x0 anticommutes with stabilizer generator 0"),
        ("n: 2\n[stabilizer]\nZZ\n[logical_x]\nXI\n[logical_z]\nZI\n", 5,
         "logical x0 anticommutes with stabilizer generator 0"),
        ("n: 2\n[stabilizer]\nZI\nXI\n", 4, "stabilizer generators 0 and 1 anticommute"),
        ("n: 2\n[gauge_x]\n-iYI\n[gauge_z]\nZI\n", 3, "gauge x0 has sign i^3"),
        # a violation naming no operator keeps line 1
        ("n: 1\n[stabilizer]\nZ\nZ\n", 1, "too many generators"),
    ],
    ids=["sign", "dependent-after-comment", "dependent", "pair-stabilizer-later",
         "pair-logical-later", "stabilizer-pair", "gauge-sign", "no-operator"],
)
def test_a_validation_failure_reports_the_line_of_the_operator_it_names(text, line, violation):
    with pytest.raises(CodeFileError) as err:
        parse_code_file(text)
    assert err.value.line == line
    assert violation in str(err.value)


def test_negative_qubit_count():
    with pytest.raises(CodeFileError):
        parse_code_file("n: 0\n")
    with pytest.raises(CodeFileError):
        parse_code_file("n: nine\n")


@pytest.mark.parametrize("count", ["９", "1_0", "+5", "-3", "5.0", "0x5", "²", "5 5", ""])
def test_the_qubit_count_is_ascii_digits_only(count):
    with pytest.raises(CodeFileError, match="invalid qubit count") as err:
        parse_code_file(f"# header next\nn: {count}\n[stabilizer]\nZZZZZ\n")
    assert err.value.line == 2


def test_the_qubit_count_may_have_leading_zeros_and_spaces():
    assert parse_code_file("n:  03 \n[stabilizer]\nZZZ\nIZZ\n").n == 3


@pytest.mark.parametrize(
    "count",
    ["10000000", str(MAX_CODE_QUBITS + 1), "0" * 9 + "1001", "9" * 5000],
    ids=["ten-million", "cap-plus-one", "leading-zeros", "5000-digits"],
)
def test_a_qubit_count_above_the_cap_is_refused_before_any_code_is_built(count, monkeypatch):
    # past the cap nothing is built: a code of 10^7 qubits would exhaust memory
    def unreachable(*args, **kwargs):
        pytest.fail("a code was built past the qubit cap")

    monkeypatch.setattr(codefile, "SubsystemCode", unreachable)
    monkeypatch.setattr(codefile, "validated", unreachable)
    with pytest.raises(CodeFileError, match=f"must be 1 to {MAX_CODE_QUBITS}") as err:
        parse_code_file(f"n: {count}\n[stabilizer]\nZZ\n")
    assert err.value.line == 1


def test_the_qubit_cap_admits_a_thousand_qubits_and_leading_zeros():
    assert MAX_CODE_QUBITS >= 1000
    assert parse_code_file("n: " + "0" * 40 + "1\n[stabilizer]\nZ\n").n == 1
