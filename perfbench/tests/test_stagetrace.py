"""Span bookkeeping: self time, nesting, installing and absent stages."""

import itertools
import sys

import numpy as np
import pytest

import stagetrace
from stagetrace import Stage, Tracer, layer_metrics, self_times, stage_table


def test_self_time_subtracts_covered_child_time():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]), b [5, 9] and c [9.5, 11]
    parent = np.array([-1, 0, 1, 0, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0, 9.5])
    end = np.array([10.0, 4.0, 3.0, 9.0, 11.0])
    own = self_times(parent, start, end)
    # c sticks out of root: only its [9.5, 10] part is covered time of root
    assert own.tolist() == pytest.approx([10 - 3 - 4 - 0.5, 3 - 1, 1, 4, 1.5])


def test_self_time_of_separate_roots_is_their_duration():
    own = self_times(np.array([-1, -1]), np.array([0.0, 2.0]), np.array([1.0, 5.0]))
    assert own.tolist() == [1.0, 3.0]


def test_wrapped_calls_nest_into_a_stage_table(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(stagetrace.time, "perf_counter", lambda: float(next(ticks)))
    tracer = Tracer(stages=())
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    tracer.begin_run()
    assert outer(1) == 3
    tracer.begin_run()
    inner(0)
    first, second = stage_table(tracer)
    # outer: start 0 ... end 5; inner spans [1, 2] and [3, 4]
    assert first["outer"] == {"calls": 1, "self_s": 3.0, "total_s": 5.0}
    assert first["inner"] == {"calls": 2, "self_s": 2.0, "total_s": 2.0}
    assert second["inner"]["calls"] == 1 and second["outer"]["calls"] == 0
    assert stagetrace.top_stage(first) == "outer"
    assert tracer.arrays()["run"].tolist() == [0, 0, 0, 1]


def test_install_rebinds_every_binding_and_uninstall_restores():
    import gaugeqec
    search = sys.modules["gaugeqec.search"]
    original = search.sweep_nonexistence
    method = search._SweepContext.__dict__["check_subspace"]
    tracer = Tracer()
    tracer.install()
    try:
        assert search.sweep_nonexistence is not original
        assert gaugeqec.sweep_nonexistence is search.sweep_nonexistence
        assert search._SweepContext.__dict__["check_subspace"] is not method
    finally:
        tracer.uninstall()
    assert search.sweep_nonexistence is original and gaugeqec.sweep_nonexistence is original
    assert search._SweepContext.__dict__["check_subspace"] is method
    assert tracer.absent == []


def test_traced_search_counts_its_work():
    search = sys.modules["gaugeqec.search"]
    tracer = Tracer()
    tracer.begin_run()
    tracer.install()
    try:
        result = search.sweep_nonexistence(search.SweepSpec(3, 1, 1, 2))
    finally:
        tracer.uninstall()
    (table,) = stage_table(tracer)
    m = layer_metrics(table, tracer.counters[0])
    assert m["search.enumerate.calls"] == 1
    assert m["search.subspaces"] == result.stats.subspaces == m["search.check_subspace.calls"]
    assert m["search.codes_found"] == len(result.codes)
    assert 0 <= m["search.check_subspace.pass_ratio"] <= 1


def test_missing_stage_is_reported_absent_not_fatal():
    stages = (
        Stage("search.renamed", "gaugeqec.search", "_no_such_helper"),
        Stage("search.renamed_method", "gaugeqec.search", "_NoSuchContext.check"),
        Stage("gone.module", "gaugeqec.no_such_module", "f"),
    )
    tracer = Tracer(stages=stages)
    tracer.begin_run()
    tracer.install()
    tracer.uninstall()
    assert len(tracer.absent) == 3
    (table,) = stage_table(tracer)
    m = layer_metrics(table, tracer.counters[0])
    assert m["search.check_subspace.calls"] == 0 and m["search.check_subspace.pass_ratio"] == 0


def test_changed_result_shape_is_reported_not_fatal():
    tracer = Tracer(stages=())
    wrapped = tracer.wrap("search.sectors", lambda: None, stagetrace._sectors)
    tracer.begin_run()
    wrapped()
    assert tracer.absent == ["search.sectors counters (result shape changed)"]
