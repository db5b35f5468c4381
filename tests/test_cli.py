import contextlib
import io
import json
from pathlib import Path

import pytest

from gaugeqec import pauli
from gaugeqec.catalog import catalog
from gaugeqec.cli import main
from gaugeqec.codefile import parse_code_file, serialize_code

DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_params_plain():
    code, out, _ = run_cli("params", "--code", "shor9")
    assert code == 0
    assert out == "n: 9\nk: 1\nr: 0\n"


def test_params_json_matches_plain():
    _, plain, _ = run_cli("params", "--code", "bacon-shor-9")
    _, as_json, _ = run_cli("params", "--code", "bacon-shor-9", "--json")
    parsed = json.loads(as_json)
    expected = {k: int(v) for k, v in
                (line.split(": ") for line in plain.strip().splitlines())}
    assert parsed == expected == {"n": 9, "k": 1, "r": 4}


def test_distance_command():
    code, out, _ = run_cli("distance", "--code", "bacon-shor-9")
    assert code == 0 and out == "d: 3\n"
    code, out, _ = run_cli("distance", "--code", "five-qubit", "--method", "exhaustive")
    assert code == 0 and out == "d: 3\n"


def _repetition_code_file(path, n):
    """A bit-flip repetition code on n qubits: s = n − 1, d = 1."""
    stabilizer = ["I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1)]
    path.write_text("\n".join([f"n: {n}", "[stabilizer]", *stabilizer, "[logical_x]", "X" * n,
                               "[logical_z]", "Z" + "I" * (n - 1), ""]))
    return str(path)


def test_distance_command_reaches_bacon_shor_5x5_and_a_200_qubit_code(tmp_path):
    # the gauge group of Bacon-Shor 5x5 has 2^40 elements; distance walks
    # its 2^10 (syndrome, label) keys, up to weight 3, instead
    code, out, _ = run_cli("distance", "--code", str(DATA / "bacon_shor_5x5.code"))
    assert (code, out) == (0, "d: 5\n")
    code, out, _ = run_cli("distance", "--code", _repetition_code_file(tmp_path / "rep.code", 200))
    assert (code, out) == (0, "d: 1\n")


def test_decode_refuses_a_weight_list_over_the_cap(monkeypatch):
    # bacon-shor-9 has 2,268 Paulis of weight 3; the table stops at the first list over the cap
    monkeypatch.setattr(pauli, "MAX_WEIGHT_SUMS", 2267)
    code, out, err = run_cli("decode", "--code", "bacon-shor-9", "--t", "3")
    assert (code, out) == (1, "")
    assert err == "error: 2268 Paulis of weight 3 on 9 qubits exceed 2267\n"
    monkeypatch.setattr(pauli, "MAX_WEIGHT_SUMS", 2268)
    assert run_cli("decode", "--code", "bacon-shor-9", "--t", "3")[0] == 0


def test_find_gauge_refuses_a_large_stabilizer(tmp_path):
    path = _repetition_code_file(tmp_path / "rep.code", 41)
    code, out, err = run_cli("find-gauge", "--code", path, "--distance-min", "1", "--budget", "100")
    assert (code, out) == (1, "")
    assert err == "error: s = 40 stabilizer generators exceed the cap 20\n"


def test_syndrome_command():
    code, out, _ = run_cli("syndrome", "--code", "shor9", "--error", "XIIIIIIII")
    assert code == 0 and out == "syndrome: 00100000\n"


def test_decode_command():
    code, out, _ = run_cli(
        "decode", "--code", "bacon-shor-9", "--error", "IXXIIIIII", "--t", "1"
    )
    assert code == 0
    assert "outcome: logical_failure" in out
    assert "class: X" in out


# every decode table dump of the catalog at t = 1, 2 and the shor9 syndrome
# of every weight-1 error, captured before the syndrome, label and key
# parities moved onto one gf2.ParityMap
TABLE_GOLDEN = json.loads((DATA / "cli_table_goldens.json").read_text())


@pytest.mark.parametrize("command", sorted(TABLE_GOLDEN))
def test_table_and_syndrome_stdout_golden(command):
    code, out, _ = run_cli(*command.split())
    assert code == 0
    assert out == TABLE_GOLDEN[command]


def test_decode_table_dump():
    code, out, _ = run_cli("decode", "--code", "bacon-shor-9", "--t", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    assert lines == sorted(lines)
    assert lines[0] == "0000 IIIIIIIII"


def test_decode_json_keeps_an_empty_syndrome(tmp_path):
    # with no stabilizer every syndrome is the empty string, still an entry field
    path = tmp_path / "one.code"
    path.write_text("n: 1\n[logical_x]\nX\n[logical_z]\nZ\n")
    code, out, _ = run_cli("decode", "--code", str(path), "--t", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"t": 1, "table": [["", "I"]]}


def test_catalog_list_and_print():
    code, out, _ = run_cli("catalog")
    assert code == 0
    assert out == "codes: shor9 bacon-shor-9 five-qubit steane7\n"
    code, out, _ = run_cli("catalog", "--code", "five-qubit")
    assert code == 0
    assert parse_code_file(out) == catalog("five-qubit")


def test_gauge_fix_output_parses():
    code, out, _ = run_cli("gauge-fix", "--code", "bacon-shor-9")
    assert code == 0
    fixed = parse_code_file(out)
    assert fixed.r == 0 and fixed.s == 8


def test_find_gauge_five_qubit():
    code, out, _ = run_cli("find-gauge", "--code", "five-qubit", "--distance-min", "3")
    assert code == 0
    assert out == "r: 0\nexhausted: true\n"


def test_find_gauge_budget_exit_code():
    code, out, _ = run_cli(
        "find-gauge", "--code", "steane7", "--distance-min", "3", "--budget", "5"
    )
    assert code == 2
    assert "exhausted: false" in out


def test_sweep_short_circuit():
    code, out, _ = run_cli(
        "sweep", "--n", "3", "--k", "1", "--r", "0", "--distance-min", "3"
    )
    assert code == 0
    assert out == "codes_found: 0\nexhausted: true\n"


def test_simulate_requires_seed():
    code, _, err = run_cli("simulate", "--code", "shor9", "--p", "0.1", "--shots", "10")
    assert code == 1
    assert "--seed" in err


def test_simulate_output_shape():
    code, out, _ = run_cli(
        "simulate", "--code", "shor9", "--p", "0.02", "--shots", "2000",
        "--seed", "5", "--t", "1",
    )
    assert code == 0
    assert out.startswith("t: 1\nshots: 2000\np: 0.02\nseed: 5\n")


def test_simulate_json_matches_plain():
    args = ("simulate", "--code", "shor9", "--p", "0.02", "--shots", "500", "--seed", "3")
    _, plain, _ = run_cli(*args)
    _, as_json, _ = run_cli(*args, "--json")
    parsed = json.loads(as_json)
    plain_map = dict(line.split(": ") for line in plain.strip().splitlines())
    assert set(parsed) == set(plain_map)
    for key, value in plain_map.items():
        assert str(parsed[key]) == value


@pytest.mark.parametrize("fmt", [(), ("--json",)])
def test_signed_zero_p_prints_like_zero(fmt):
    base = ("simulate", "--code", "shor9", "--shots", "300", "--seed", "2", *fmt)
    code_a, zero, _ = run_cli(*base, "--p", "0")
    code_b, negative_zero, _ = run_cli(*base, "--p", "-0.0")
    assert code_a == code_b == 0
    assert negative_zero == zero and "-0" not in zero


def test_worker_flag_output_identical_simulate():
    base = ("simulate", "--code", "bacon-shor-9", "--p", "0.05", "--shots", "20000",
            "--seed", "9")
    _, one, _ = run_cli(*base, "--workers", "1")
    _, two, _ = run_cli(*base, "--workers", "2")
    assert one == two


def test_worker_flag_output_identical_sweep():
    base = ("sweep", "--n", "4", "--k", "1", "--r", "1", "--distance-min", "2")
    code1, one, _ = run_cli(*base, "--workers", "1")
    code2, two, _ = run_cli(*base, "--workers", "2")
    assert code1 == code2 == 0
    assert one == two


def test_worker_flag_output_identical_find_gauge():
    for name, d_min, r in (("five-qubit", "3", 0), ("shor9", "3", 4), ("steane7", "2", 3)):
        base = ("find-gauge", "--code", name, "--distance-min", d_min)
        code1, one, _ = run_cli(*base, "--workers", "1")
        code2, two, _ = run_cli(*base, "--workers", "2")
        assert code1 == code2 == 0
        assert one == two
        assert one.startswith(f"r: {r}\nexhausted: true\n")


def test_find_gauge_verbose_reports_progress_on_standard_error():
    # --verbose adds progress lines to stderr and leaves stdout as it is,
    # for any worker count; only the elapsed times may differ
    base = ("find-gauge", "--code", "shor9", "--distance-min", "3")
    _, quiet, _ = run_cli(*base)
    runs = [run_cli(*base, "--verbose", *workers) for workers in ((), ("--workers", "2"))]
    progress = [f"find-gauge: subspaces={n} candidates={int(n == 173741)}"
                for n in (43818, 60202, 83754, 100490, 173741)]
    for status, out, err in runs:
        assert (status, out) == (0, quiet)
        lines = [line.rsplit(" elapsed=", 1)[0] for line in err.splitlines()]
        assert lines == progress + ["find-gauge stats: subspaces=173741 candidates=1"]


@pytest.mark.parametrize(
    "point",
    [("3", "0", "1", "2"), ("5", "0", "0", "4")],  # one enumerable, one past the Singleton bound
)
def test_sweep_without_logical_qubits_exits_one_before_enumerating(monkeypatch, point):
    from gaugeqec import cli

    called = []
    monkeypatch.setattr(cli, "sweep_nonexistence", lambda *a, **kw: called.append(a))
    n, k, r, d = point
    code, out, err = run_cli("sweep", "--n", n, "--k", k, "--r", r, "--distance-min", d)
    assert code == 1
    assert out == "" and not called
    assert "k >= 1" in err


def test_unknown_subcommand_exits_one():
    code, _, err = run_cli("frobnicate")
    assert code == 1
    assert "usage" in err


def test_unknown_flag_exits_one():
    # --symmetry-pruning is retired: the sweep has one mode
    for argv in (
        ("params", "--code", "shor9", "--frob"),
        ("sweep", "--n", "3", "--k", "1", "--r", "1", "--distance-min", "2", "--symmetry-pruning"),
    ):
        code, _, err = run_cli(*argv)
        assert code == 1, argv
        assert "usage" in err and "Traceback" not in err, argv


def test_bad_error_operand():
    code, _, err = run_cli("syndrome", "--code", "shor9", "--error", "XXW")
    assert code == 1
    assert "error" in err


def test_code_file_loading(tmp_path):
    path = tmp_path / "mycode.txt"
    from gaugeqec.codefile import serialize_code

    path.write_text(serialize_code(catalog("steane7")))
    code, out, _ = run_cli("params", "--code", str(path))
    assert code == 0
    assert out == "n: 7\nk: 1\nr: 0\n"


def test_catalog_name_takes_precedence_over_files(tmp_path, monkeypatch):
    # a file literally named shor9 is shadowed by the catalog entry
    monkeypatch.chdir(tmp_path)
    (tmp_path / "shor9").write_text("n: 1\n[stabilizer]\nZ\n")
    _, out, _ = run_cli("params", "--code", "shor9")
    assert out == "n: 9\nk: 1\nr: 0\n"
    _, out, _ = run_cli("params", "--code", "./shor9")
    assert out == "n: 1\nk: 0\nr: 0\n"


def test_missing_code_reference():
    code, _, err = run_cli("params", "--code", "no-such-code")
    assert code == 1
    assert "neither a catalog name nor" in err or "neither" in err


def test_code_reference_naming_a_directory_exits_one(tmp_path):
    code, out, err = run_cli("params", "--code", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_code_file_that_is_not_utf8_is_named_in_the_error(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"n: 1\n[stabilizer]\nZ\xff\n")
    code, out, err = run_cli("params", "--code", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: ") and "utf-8" in err


def test_verify_five_qubit():
    code, out, _ = run_cli("verify", "--code", "five-qubit")
    assert code == 0
    assert "projector: pass" in out
    assert "structure: pass" in out
    assert "agreement: pass" in out


def test_verify_refuses_a_code_over_the_dense_limit_before_building_it(tmp_path):
    code, out, err = run_cli("verify", "--code", _repetition_code_file(tmp_path / "rep.code", 11))
    assert (code, out) == (1, "")
    assert err == "error: dense matrices are limited to 10 qubits\n"


def test_verify_refuses_a_logical_operator_that_is_not_hermitian(tmp_path):
    text = serialize_code(catalog("five-qubit"))
    lx = text.split("[logical_x]\n")[1].split("\n")[0]
    path = tmp_path / "anti_hermitian.txt"
    path.write_text(text.replace(f"[logical_x]\n{lx}\n", f"[logical_x]\n+i{lx}\n"))
    code, out, err = run_cli("verify", "--code", str(path))
    assert code == 1 and out == ""
    assert "logical x0 has sign i^1; it is not Hermitian" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_nonpositive_budget_is_rejected(value):
    for argv in (
        ("distance", "--code", "shor9"),
        ("find-gauge", "--code", "steane7", "--distance-min", "3"),
        ("sweep", "--n", "4", "--k", "1", "--r", "1", "--distance-min", "2"),
    ):
        code, out, err = run_cli(*argv, "--budget", value)
        assert code == 1, argv
        assert out == ""
        assert "--budget" in err and "positive" in err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_worker_count_below_one_is_rejected(value):
    for argv in (
        ("find-gauge", "--code", "five-qubit", "--distance-min", "3"),
        ("sweep", "--n", "4", "--k", "1", "--r", "1", "--distance-min", "2"),
        ("simulate", "--code", "shor9", "--p", "0.01", "--shots", "10", "--seed", "1"),
    ):
        code, out, err = run_cli(*argv, "--workers", value)
        assert code == 1, argv
        assert out == ""
        assert "--workers" in err and "positive" in err


@pytest.mark.parametrize("seed", [str(-1), str(1 << 128)])
def test_seed_outside_the_key_range_is_rejected(seed):
    code, out, err = run_cli(
        "simulate", "--code", "shor9", "--p", "0.01", "--shots", "10", "--seed", seed
    )
    assert code == 1
    assert out == ""
    assert "--seed" in err and "2^128" in err


def test_largest_seed_is_accepted():
    code, out, _ = run_cli(
        "simulate", "--code", "shor9", "--p", "0.01", "--shots", "10",
        "--seed", str((1 << 128) - 1),
    )
    assert code == 0
    assert f"seed: {(1 << 128) - 1}\n" in out


SIMULATE = ("simulate", "--code", "shor9", "--p", "0.01", "--shots", "10", "--seed", "3")
SWEEP = ("sweep", "--n", "4", "--k", "1", "--r", "1", "--distance-min", "2")


def _with(argv, option, value):
    """``argv`` with ``option`` set to ``value``, appended when it is absent."""
    argv = list(argv)
    if option in argv:
        argv[argv.index(option) + 1] = value
        return argv
    return argv + [option, value]


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (SIMULATE, "--seed", "٣"),  # Arabic-Indic three
        (SIMULATE, "--seed", "1_0"),
        (SIMULATE, "--seed", "+3"),
        (SIMULATE, "--shots", "١٠"),
        (SIMULATE, "--shots", " 10"),
        (SIMULATE, "--t", "¹"),
        (SIMULATE, "--workers", "２"),
        (SIMULATE, "--p", "٠.٠١"),
        (SIMULATE, "--p", "0.0_1"),
        (SIMULATE, "--p", "0.01x"),
        (SWEEP, "--n", "４"),  # fullwidth four
        (SWEEP, "--distance-min", "２"),
        (SWEEP, "--budget", "1_000"),
        (("find-gauge", "--code", "shor9", "--distance-min", "3"), "--distance-min", "３"),
        (("distance", "--code", "shor9"), "--budget", "١٠٠"),
        (("decode", "--code", "shor9"), "--t", "1.0"),
    ],
)
def test_numeric_options_take_ascii_decimals_only(argv, option, value):
    code, out, err = run_cli(*_with(argv, option, value))
    assert code == 1 and out == ""
    assert f"error: argument {option}: must be an ASCII decimal" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, option, value, message",
    [
        (SIMULATE, "--shots", "-3", "negative shot count"),
        (SIMULATE, "--t", "-1", "max corrected weight must be >= 0"),
        (SIMULATE, "--p", "-0.5", "--p must be in [0, 1]"),
        (SWEEP, "--n", "0", "need n, k >= 1"),
        (SWEEP, "--r", "-1", "need n, k >= 1, r >= 0"),
        (("find-gauge", "--code", "shor9", "--distance-min", "-3"), "--distance-min", "-3",
         "d_min must be >= 1"),
    ],
)
def test_ascii_numbers_out_of_range_reach_the_range_check(argv, option, value, message):
    code, out, err = run_cli(*_with(argv, option, value))
    assert code == 1 and out == ""
    assert message in err and "ASCII" not in err


def test_ascii_numbers_read_as_before():
    code, out, _ = run_cli(*_with(SIMULATE, "--seed", "-0"))
    assert code == 0 and "seed: 0\n" in out
    code, out, _ = run_cli(*_with(SIMULATE, "--shots", "0"))
    assert code == 0 and "shots: 0\n" in out
    code, out, _ = run_cli(*_with(SIMULATE, "--p", "1e-2"))
    assert code == 0 and out == run_cli(*SIMULATE)[1]


# stdout captured before the batch decoder replaced the per-shot loop in run()
SIMULATE_GOLDEN = [
    (
        ("--code", "shor9", "--p", "0.05", "--shots", "20000", "--seed", "7"),
        "t: 1\nshots: 20000\np: 0.05\nseed: 7\ngauge_success: 18769\n"
        "logical_failure.X: 133\nlogical_failure.Z: 111\nunrecoverable: 987\n",
    ),
    (
        ("--code", "bacon-shor-9", "--p", "0.05", "--shots", "20000", "--seed", "7", "--json"),
        '{"t": 1, "shots": 20000, "p": 0.05, "seed": 7, "gauge_success": 19102, '
        '"logical_failure.X": 408, "logical_failure.Y": 78, "logical_failure.Z": 412, '
        '"unrecoverable": 0}\n',
    ),
    (
        ("--code", "shor9", "--p", "0.1", "--shots", "30000", "--seed", "123", "--workers", "2"),
        "t: 1\nshots: 30000\np: 0.1\nseed: 123\ngauge_success: 24055\n"
        "logical_failure.X: 656\nlogical_failure.Y: 21\nlogical_failure.Z: 564\n"
        "unrecoverable: 4704\n",
    ),
    (
        ("--code", "shor9", "--p", "0.1", "--shots", "30000", "--seed", "123",
         "--fallback-identity"),
        "t: 1\nshots: 30000\np: 0.1\nseed: 123\ngauge_success: 24055\n"
        "logical_failure.X: 656\nlogical_failure.Y: 21\nlogical_failure.Z: 564\n"
        "logical_failure.uncorrected: 4704\nunrecoverable: 0\n",
    ),
    (
        ("--code", "bacon-shor-9", "--p", "0.2", "--shots", "10000", "--seed", "5", "--t", "0",
         "--fallback-identity", "--json"),
        '{"t": 0, "shots": 10000, "p": 0.2, "seed": 5, "gauge_success": 1522, '
        '"logical_failure.X": 56, "logical_failure.Y": 16, "logical_failure.Z": 55, '
        '"logical_failure.uncorrected": 8351, "unrecoverable": 0}\n',
    ),
]


@pytest.mark.parametrize("args, expected", SIMULATE_GOLDEN)
def test_simulate_stdout_golden(args, expected):
    code, out, _ = run_cli("simulate", *args)
    assert code == 0
    assert out == expected


# stdout whose generators depend on the GF(2) elimination order, captured
# before rref, kernels and the affine and membership solves were folded
# into gf2.Eliminator
ELIMINATION_GOLDEN = [
    (
        ("gauge-fix", "--code", "bacon-shor-9"),
        (
            "n: 9\n"
            "\n"
            "[stabilizer]\n"
            "XXXXXXIII\n"
            "XXXIIIXXX\n"
            "ZZIZZIZZI\n"
            "IZZIZZIZZ\n"
            "IZZIIIIII\n"
            "IIIIZZIII\n"
            "ZZIIIIIII\n"
            "IIIZZIIII\n"
            "\n"
            "[logical_x]\n"
            "XXXXXXXXX\n"
            "\n"
            "[logical_z]\n"
            "ZZZZZZZZZ\n"
        ),
    ),
    (
        ("find-gauge", "--code", "steane7", "--distance-min", "3"),
        (
            "r: 0\n"
            "exhausted: true\n"
        ),
    ),
    (
        ("find-gauge", "--code", "five-qubit", "--distance-min", "3"),
        (
            "r: 0\n"
            "exhausted: true\n"
        ),
    ),
    (
        ("sweep", "--n", "4", "--k", "1", "--r", "1", "--distance-min", "2"),
        (
            "codes_found: 4320\n"
            "exhausted: true\n"
            "first_code: n: 4\n"
            "\n"
            "[stabilizer]\n"
            "XZXX\n"
            "ZXZZ\n"
            "\n"
            "[gauge_x]\n"
            "XIXI\n"
            "\n"
            "[gauge_z]\n"
            "YXIX\n"
            "\n"
            "[logical_x]\n"
            "IIXX\n"
            "\n"
            "[logical_z]\n"
            "XXXZ\n"
            "\n"
        ),
    ),
    (
        ("sweep", "--n", "4", "--k", "1", "--r", "0", "--distance-min", "2"),
        (
            "codes_found: 2268\n"
            "exhausted: true\n"
            "first_code: n: 4\n"
            "\n"
            "[stabilizer]\n"
            "XIIX\n"
            "IYZI\n"
            "ZZYZ\n"
            "\n"
            "[logical_x]\n"
            "IXXI\n"
            "\n"
            "[logical_z]\n"
            "IIZX\n"
            "\n"
        ),
    ),
    (
        ("sweep", "--n", "3", "--k", "1", "--r", "1", "--distance-min", "2"),
        (
            "codes_found: 0\n"
            "exhausted: true\n"
        ),
    ),
    (
        # a positive find with a code file, captured with the partner search
        # that enumerated every slot modulo the subgroup and gz_j only
        ("find-gauge", "--code", "steane7", "--distance-min", "2"),
        (
            "r: 3\n"
            "exhausted: true\n"
            "code_file: n: 7\n"
            "\n"
            "[stabilizer]\n"
            "IZZXXYY\n"
            "ZXYIZXY\n"
            "XZYZYIX\n"
            "\n"
            "[gauge_x]\n"
            "XYYXIII\n"
            "ZIIYIXI\n"
            "ZXYIIII\n"
            "\n"
            "[gauge_z]\n"
            "IIIZZZZ\n"
            "IZZIIZZ\n"
            "ZIZIZIZ\n"
            "\n"
            "[logical_x]\n"
            "XXXXXXX\n"
            "\n"
            "[logical_z]\n"
            "ZZZZZZZ\n"
            "\n"
        ),
    ),
    (
        ("find-gauge", "--code", "five-qubit", "--distance-min", "2"),
        (
            "r: 0\n"
            "exhausted: true\n"
        ),
    ),
]


@pytest.mark.parametrize("args, expected", ELIMINATION_GOLDEN)
def test_elimination_order_stdout_golden(args, expected):
    code, out, _ = run_cli(*args)
    assert code == 0
    assert out == expected


def test_restructured_shor9_code_file_golden(shor9_gauge_search):
    assert serialize_code(shor9_gauge_search.restructured) == (
        "n: 9\n"
        "\n"
        "[stabilizer]\n"
        "XXXXXXIII\n"
        "XXXIIIXXX\n"
        "ZZIZZIZZI\n"
        "IZZIZZIZZ\n"
        "\n"
        "[gauge_x]\n"
        "XIIXIIIII\n"
        "XXIXXIIII\n"
        "XIIIIIXII\n"
        "XXIIIIXXI\n"
        "\n"
        "[gauge_z]\n"
        "IIIZZIIII\n"
        "IIIIZZIII\n"
        "IIIIIIZZI\n"
        "IIIIIIIZZ\n"
        "\n"
        "[logical_x]\n"
        "XXXXXXXXX\n"
        "\n"
        "[logical_z]\n"
        "ZZZZZZZZZ\n"
    )
