import multiprocessing

import pytest

from gaugeqec import parallel
from gaugeqec.catalog import catalog
from gaugeqec.cli import main
from gaugeqec.decoder import build_table
from gaugeqec.montecarlo import NoiseModel, run
from gaugeqec.parallel import MAX_WORKERS, ordered_map
from gaugeqec.search import SweepSpec, find_gauge_symmetries, sweep_nonexistence


def _scaled(ctx, job):
    return ctx * job


def _fail_on_three(ctx, job):
    if job == 3:
        raise ValueError(f"job {job} failed")
    return job


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("njobs", [0, 1, 2, 7, 100])
def test_results_come_back_in_job_order(monkeypatch, workers, njobs):
    started = []

    def recording_pool(processes, **kwargs):
        started.append(processes)
        return multiprocessing.Pool(processes, **kwargs)

    monkeypatch.setattr(parallel, "Pool", recording_pool)
    jobs = list(range(njobs))
    assert list(ordered_map(_scaled, 10, jobs, workers)) == [10 * j for j in jobs]
    # one process or fewer runs in place; a pool never outnumbers the jobs
    assert started == ([min(workers, njobs)] if min(workers, njobs) > 1 else [])
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_an_exception_in_a_job_reaches_the_caller(workers):
    with pytest.raises(ValueError, match="job 3 failed"):
        list(ordered_map(_fail_on_three, None, range(6), workers))
    assert multiprocessing.active_children() == []


def test_a_budget_stopped_sweep_leaves_no_worker_behind():
    res = sweep_nonexistence(SweepSpec(4, 1, 1, 2, budget=50), workers=2)
    assert not res.exhausted
    assert multiprocessing.active_children() == []


def test_an_early_stopped_gauge_search_leaves_no_worker_behind():
    res = find_gauge_symmetries(catalog("shor9"), 3, workers=2)
    assert res.r_found == 4
    assert multiprocessing.active_children() == []


def _no_pool(*args, **kwargs):
    raise AssertionError("a pool was started")


def test_a_worker_count_over_the_cap_is_refused_before_any_pool(monkeypatch):
    monkeypatch.setattr(parallel, "Pool", _no_pool)
    code = catalog("shor9")
    over = MAX_WORKERS + 1
    calls = [
        lambda: find_gauge_symmetries(code, 3, workers=over),
        lambda: sweep_nonexistence(SweepSpec(3, 1, 1, 2), workers=over),
        lambda: run(code, build_table(code, 1), NoiseModel(0.01), 1_000_000, seed=1, workers=over),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"workers must be <= {MAX_WORKERS}, got {over}"):
            call()


def test_the_cli_refuses_a_worker_count_over_the_cap(monkeypatch, capsys):
    monkeypatch.setattr(parallel, "Pool", _no_pool)
    for argv in (
        ["find-gauge", "--code", "shor9", "--distance-min", "3"],
        ["sweep", "--n", "3", "--k", "1", "--r", "1", "--distance-min", "2"],
        ["simulate", "--code", "shor9", "--p", "0.01", "--shots", "1000000", "--seed", "1"],
    ):
        assert main([*argv, "--workers", str(MAX_WORKERS + 1)]) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: workers must be <= {MAX_WORKERS}, got {MAX_WORKERS + 1}\n"
    assert multiprocessing.active_children() == []
