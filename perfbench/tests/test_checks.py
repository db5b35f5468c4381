"""Each correctness check passes a right result and rejects a wrong one."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import stagetrace
import workloads
from checks import GOLDEN_COUNTS, GOLDEN_SEED
from gaugeqec.catalog import catalog
from gaugeqec.decoder import build_table
from gaugeqec.distance import Kind
from gaugeqec.montecarlo import NoiseModel, SimReport
from gaugeqec.search import GaugeSymmetryResult, SearchStats, SweepResult, SweepSpec

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _failed(results):
    return [label for label, ok in results if not ok]


def test_sweep_rejects_a_code_at_a_nonexistent_point():
    spec = SweepSpec(5, 1, 1, 3)
    assert _failed(checks.check_sweep(spec, SweepResult([], True, SearchStats()), False)) == []
    bogus = SweepResult([catalog("five-qubit")], True, SearchStats())
    failed = _failed(checks.check_sweep(spec, bogus, False))
    assert any("verdict" in label for label in failed)
    assert any("code 0 re-checks" in label for label in failed)  # r = 0, not 1


def test_sweep_rejects_unexhausted_or_empty_positive_control():
    spec = SweepSpec(4, 1, 1, 2)
    assert _failed(checks.check_sweep(spec, SweepResult([], True, SearchStats()), True))
    assert _failed(checks.check_sweep(spec, SweepResult([], False, SearchStats()), False))


def test_code_recheck_uses_parameters_and_distance():
    steane = catalog("steane7")
    assert checks.check_code(steane, 7, 1, 0, 3)
    assert not checks.check_code(steane, 7, 1, 0, 4)
    assert not checks.check_code(steane, 7, 1, 1, 3)


def _gauge_results(r_shor):
    restructured = catalog("bacon-shor-9") if r_shor else None
    return {
        "shor9": GaugeSymmetryResult(r_shor, restructured, True, SearchStats()),
        "steane7": GaugeSymmetryResult(0, None, True, SearchStats()),
        "five-qubit": GaugeSymmetryResult(0, None, True, SearchStats()),
    }


def test_find_gauge_checks_r_and_the_restructured_code():
    codes = {name: catalog(name) for name in workloads.GAUGE_EXPECTED_R}
    expect = workloads.GAUGE_EXPECTED_R
    assert _failed(checks.check_find_gauge(codes, _gauge_results(4), expect, 3)) == []
    assert _failed(checks.check_find_gauge(codes, _gauge_results(0), expect, 3))
    wrong_code = _gauge_results(4)
    wrong_code["shor9"] = GaugeSymmetryResult(4, catalog("shor9"), True, SearchStats())
    assert _failed(checks.check_find_gauge(codes, wrong_code, expect, 3))


def _golden_reports():
    return {
        key: SimReport(10**6, key[1], GOLDEN_SEED, gauge, unrec, fails)
        for key, (gauge, unrec, fails) in GOLDEN_COUNTS.items()
    }


def test_simulate_rejects_one_altered_count():
    reports = _golden_reports()
    assert _failed(checks.check_simulate(reports, 10**6, GOLDEN_SEED)) == []
    # other seeds are not compared with the captured counts
    assert _failed(checks.check_simulate(reports, 10**6, 7)) == []
    key = ("shor9", 0.02)
    gauge, unrec, fails = GOLDEN_COUNTS[key]
    moved = (("X", fails[0][1] + 1),) + fails[1:]
    reports[key] = SimReport(10**6, 0.02, GOLDEN_SEED, gauge - 1, unrec, moved)
    assert _failed(checks.check_simulate(reports, 10**6, GOLDEN_SEED)) == [
        f"simulate shor9 p=0.02: counts match seed {GOLDEN_SEED}"
    ]


def test_simulate_rejects_flat_scaling():
    reports = {
        ("shor9", p): SimReport(1000, p, 1, 990, 0, (("X", 10),)) for p in workloads.SIM_PS
    }
    assert _failed(checks.check_simulate(reports, 1000, 1)) == ["simulate shor9: log-log slope >= 1.7"]


def test_per_shot_path_matches_run_and_catches_a_mismatch(monkeypatch):
    code = catalog("shor9")
    table = build_table(code, 1)
    model = NoiseModel(0.05)
    assert _failed(checks.check_per_shot_path(code, table, model, 300, 5, "shor9")) == []
    real_run = checks.run

    def off_by_one(*args, **kwargs):
        rep = real_run(*args, **kwargs)
        fails = (("X", rep.logical_failures[0][1] + 1),) + rep.logical_failures[1:]
        return SimReport(rep.shots, rep.p, rep.seed, rep.gauge_success - 1, rep.unrecoverable, fails)

    monkeypatch.setattr(checks, "run", off_by_one)
    assert _failed(checks.check_per_shot_path(code, table, model, 300, 5, "shor9"))


def test_verify_rejects_a_flipped_oracle_verdict():
    ops = ((Kind.GAUGE, True, None), (Kind.LOGICAL, False, None), (Kind.OUTSIDE_N, False, True))
    good = workloads.VerifyOutcome(True, True, True, True, ops)
    assert _failed(checks.check_verify(good)) == []
    flipped = workloads.VerifyOutcome(True, True, True, True, ((Kind.GAUGE, False, None),) + ops[1:])
    assert len(_failed(checks.check_verify(flipped))) == 1
    disagree = workloads.VerifyOutcome(True, True, False, True, ops)
    assert len(_failed(checks.check_verify(disagree))) == 1
    not_vanishing = workloads.VerifyOutcome(True, True, True, True, ops[:2] + ((Kind.OUTSIDE_N, False, False),))
    assert len(_failed(checks.check_verify(not_vanishing))) == 1


def test_clear_caches_empties_wrapped_caches():
    import gaugeqec.oracle  # noqa: F401  (the workload modules import it too)

    catalog("shor9")
    oracle = sys.modules["gaugeqec.oracle"]
    tracer = stagetrace.Tracer()
    tracer.install()
    try:
        oracle.code_projector(catalog("five-qubit"))
        workloads.clear_caches()
        assert oracle.code_projector.__wrapped__.cache_info().currsize == 0
    finally:
        tracer.uninstall()
    assert catalog.cache_info().currsize == 0


def test_benchmark_json_names_the_metrics_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"adj_wall_s", "setup_s", "peak_rss_mb"}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(stagetrace.LAYER_METRICS)


def test_refuses_to_run_without_the_library(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-4112", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert "no gaugeqec sources" in proc.stderr


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_contract_line(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sweep-4112", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
