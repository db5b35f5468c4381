import pytest

import naive_ops
from gaugeqec import gf2
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


@pytest.mark.parametrize(
    "spec, counts",
    [
        (SweepSpec(3, 1, 1, 2), (63, 945, 0, 0)),  # s = 1: every leaf is a first row
        (SweepSpec(4, 1, 0, 2), (11475, 2268, 2268, 2268)),
        (SweepSpec(4, 2, 0, 2), (5355, 216, 216, 216)),
        (SweepSpec(4, 1, 1, 2, symmetry_pruning=True), (5355, 9870, 480, 480)),
    ],
)
def test_sweep_work_counts_are_pinned(spec, counts):
    res = sweep_nonexistence(spec)
    assert res.exhausted
    stats = res.stats
    assert (stats.subspaces, stats.sectors, stats.candidates, len(res.codes)) == counts


def test_library_entry_points_refuse_fewer_than_one_worker():
    with pytest.raises(ValueError, match="workers"):
        find_gauge_symmetries(catalog("five-qubit"), 3, workers=0)
    with pytest.raises(ValueError, match="workers"):
        sweep_nonexistence(SweepSpec(3, 1, 1, 2), workers=-1)


def _letters(v: int, n: int) -> str:
    out = []
    for q in range(n):
        x, z = (v >> q) & 1, (v >> (n + q)) & 1
        out.append("IXZY"[x + 2 * z])
    return "".join(out)


def _recorded_leaves(monkeypatch, spec):
    """(rows, check_subspace result) for every leaf the sweep visits."""
    seen = []
    original = search._SweepContext.check_subspace

    def record(self, parent, u, commuting):
        result = original(self, parent, u, commuting)
        seen.append((parent.rows + (u,), result))
        return result

    monkeypatch.setattr(search._SweepContext, "check_subspace", record)
    res = sweep_nonexistence(spec)
    monkeypatch.undo()
    return res, seen


@pytest.mark.parametrize(
    "spec", [SweepSpec(4, 1, 1, 2), SweepSpec(4, 1, 0, 2), SweepSpec(3, 1, 1, 2)]
)
def test_rank_bound_matches_a_from_scratch_count(monkeypatch, spec):
    res, seen = _recorded_leaves(monkeypatch, spec)
    assert len(seen) == res.stats.subspaces
    assert len({rows for rows, _ in seen}) == len(seen)
    n = spec.n
    low = list(naive_ops.all_paulis_up_to_weight(n, spec.d_min - 1, include_identity=False))
    for rows, witnesses in seen:
        strings = [_letters(v, n) for v in rows]
        assert not any(naive_ops.anticommute(a, b) for a in strings for b in strings)
        row_bits = [naive_ops.to_bits(g) for g in strings]
        commuting = [p for p in low if not any(naive_ops.anticommute(p, g) for g in strings)]
        base = naive_ops.rank(row_bits)
        assert base == spec.s
        count = naive_ops.rank(row_bits + [naive_ops.to_bits(p) for p in commuting]) - base
        assert (witnesses is not None) == (count <= 2 * spec.r), rows
        if witnesses is not None:
            assert len(witnesses) == count
            assert {_letters(w, n) for w in witnesses} <= set(commuting)


def _plain_sectors(ctx, rows, witnesses):
    """Sector enumeration re-derived one RREF basis at a time."""
    n, r = ctx.n, ctx.r
    swapped = [search.swap_halves(v, n) for v in rows]
    elim = gf2.Eliminator(rows)
    qbasis = [v for v in gf2.kernel_basis(gf2.BinMatrix(2 * n, tuple(swapped))) if elim.add(v)]
    q = len(qbasis)
    coords = gf2.BinMatrix(2 * n, tuple(qbasis) + tuple(rows))
    wcoords = [gf2.solve_membership(coords, w) & ((1 << q) - 1) for w in witnesses]
    examined, sectors = 0, []
    for coord_rows in search._rref_bases(q, 2 * r):
        examined += 1
        span = gf2.Eliminator(coord_rows)
        if not all(span.contains(wc) for wc in wcoords):
            continue
        lifted = []
        for cr in coord_rows:
            v = 0
            for i in range(q):
                if (cr >> i) & 1:
                    v ^= qbasis[i]
            lifted.append(v)
        gram = [
            sum(
                ((a & search.swap_halves(b, n)).bit_count() & 1) << j
                for j, b in enumerate(lifted)
            )
            for a in lifted
        ]
        if gf2.Eliminator(gram).rank == 2 * r:
            sectors.append(tuple(search._hyperbolic_pairs(lifted, n)))
    return examined, sectors


@pytest.mark.parametrize(
    "spec, every",
    [(SweepSpec(4, 1, 1, 2), 53), (SweepSpec(3, 1, 1, 2), 1), (SweepSpec(4, 1, 2, 2), 5)],
)
def test_tabulated_sectors_match_a_plain_rederivation(monkeypatch, spec, every):
    _, seen = _recorded_leaves(monkeypatch, spec)
    survivors = [(rows, w) for rows, w in seen if w is not None][::every]
    assert survivors
    ctx = search._SweepContext(spec)
    for rows, witnesses in survivors:
        assert ctx.sectors(rows, witnesses) == _plain_sectors(ctx, rows, witnesses)


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
