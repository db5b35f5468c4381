import pytest

from gaugeqec.catalog import catalog
from gaugeqec.code import parameters, validate
from gaugeqec.distance import Kind, classify, distance
from gaugeqec import search
from gaugeqec.gf2 import Eliminator
from gaugeqec.search import (
    SweepSpec,
    find_gauge_symmetries,
    sweep_nonexistence,
)


def test_five_qubit_has_no_gauge_symmetry():
    res = find_gauge_symmetries(catalog("five-qubit"), 3)
    assert res.r_found == 0
    assert res.exhausted and res.conclusive
    assert res.restructured is None


def test_steane_has_no_gauge_symmetry():
    res = find_gauge_symmetries(catalog("steane7"), 3)
    assert res.r_found == 0
    assert res.exhausted


def test_shor9_hides_four_gauge_qubits(shor9_gauge_search):
    res = shor9_gauge_search
    assert res.r_found == 4
    assert res.exhausted
    code = res.restructured
    assert validate(code).ok
    assert parameters(code).r == 4 and parameters(code).k == 1
    assert distance(code) >= 3


def test_restructured_stabilizer_is_inside_the_original(shor9_gauge_search):
    shor = catalog("shor9")
    code = shor9_gauge_search.restructured
    span = Eliminator(g.vec for g in shor.stabilizer)
    assert all(span.contains(g.vec) for g in code.stabilizer)


def test_restructured_code_keeps_the_encoded_operations(shor9_gauge_search):
    shor = catalog("shor9")
    code = shor9_gauge_search.restructured
    for op, label in zip(shor.logical_ops(), ((1, 0), (0, 1))):
        cls = classify(code, op)
        assert cls.kind is Kind.LOGICAL and cls.label == label


def test_find_gauge_rejects_subsystem_input():
    with pytest.raises(ValueError):
        find_gauge_symmetries(catalog("bacon-shor-9"), 3)


def test_find_gauge_budget_reports_inconclusive():
    res = find_gauge_symmetries(catalog("steane7"), 3, budget=10)
    assert res.r_found == 0
    assert not res.exhausted
    assert not res.conclusive


def test_find_gauge_worker_count_does_not_change_the_result():
    serial = find_gauge_symmetries(catalog("five-qubit"), 3)
    parallel = find_gauge_symmetries(catalog("five-qubit"), 3, workers=2)
    assert serial.r_found == parallel.r_found
    assert serial.exhausted == parallel.exhausted
    assert serial.restructured == parallel.restructured


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(5, 5, 0, 3)  # no stabilizer left
    with pytest.raises(ValueError):
        SweepSpec(13, 1, 0, 3)  # beyond the 2n <= 24 cap
    with pytest.raises(ValueError):
        SweepSpec(5, 1, 1, 0)


def test_sweep_singleton_short_circuit():
    res = sweep_nonexistence(SweepSpec(3, 1, 0, 3))
    assert res.codes == [] and res.exhausted
    assert res.stats.subspaces == 0


def test_sweep_small_subsystem_point():
    res = sweep_nonexistence(SweepSpec(4, 1, 1, 2))
    # (2^8-1)(2^7-2) / |GL_2(F_2)| rank-2 isotropic subspaces
    assert res.stats.subspaces == 255 * 126 // 6 == 5355
    assert res.exhausted
    assert len(res.codes) == 4320
    first = res.codes[0]
    assert parameters(first).r == 1 and parameters(first).k == 1
    assert distance(first) >= 2


def test_sweep_symmetry_pruning_preserves_the_verdict():
    plain = sweep_nonexistence(SweepSpec(4, 1, 1, 2))
    pruned = sweep_nonexistence(SweepSpec(4, 1, 1, 2, symmetry_pruning=True))
    assert bool(plain.codes) == bool(pruned.codes)
    assert plain.exhausted == pruned.exhausted
    # pruned output is a subset consisting of orbit representatives
    plain_set = set(map(repr, plain.codes))
    assert all(repr(c) in plain_set for c in pruned.codes)


def test_sweep_worker_count_does_not_change_the_result():
    serial = sweep_nonexistence(SweepSpec(4, 1, 1, 2))
    parallel = sweep_nonexistence(SweepSpec(4, 1, 1, 2), workers=2)
    assert serial.codes == parallel.codes
    assert serial.exhausted == parallel.exhausted


def test_sweep_budget_is_inconclusive():
    res = sweep_nonexistence(SweepSpec(4, 1, 1, 2, budget=50))
    assert not res.exhausted


def test_better_than_perfect_does_not_exist(sweep_5113):
    assert sweep_5113.codes == []
    assert sweep_5113.exhausted


def test_sweep_counts_match_the_closed_form(sweep_5113):
    # ordered isotropic triples divided by |GL_3(F_2)|
    expected = (2**10 - 1) * (2**9 - 2) * (2**8 - 4) // 168
    assert sweep_5113.stats.subspaces == expected == 782595


def test_perfect_code_point_is_populated(sweep_5103):
    assert sweep_5103.exhausted
    assert len(sweep_5103.codes) >= 1
    first = sweep_5103.codes[0]
    p = parameters(first)
    assert (p.n, p.k, p.r) == (5, 1, 0)
    assert distance(first) == 3


def test_chunks_refuse_to_run_without_their_worker_context(monkeypatch):
    monkeypatch.setattr(search, "_GAUGE_CTX", None)
    monkeypatch.setattr(search, "_SWEEP_CTX", None)
    with pytest.raises(RuntimeError, match="worker initializer"):
        search._gauge_filter_chunk((0,))
    with pytest.raises(RuntimeError, match="worker initializer"):
        search._sweep_chunk(((0,), 0))
