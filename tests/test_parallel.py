import multiprocessing

import pytest

from gaugeqec import parallel
from gaugeqec.catalog import catalog
from gaugeqec.parallel import ordered_map
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
