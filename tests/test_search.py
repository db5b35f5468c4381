import functools
import hashlib
import json
import pickle
import random
import time
from itertools import combinations, product
from pathlib import Path

import pytest

import naive_ops
from gaugeqec.catalog import CATALOG_NAMES, catalog
from gaugeqec.code import SubsystemCode, parameters, validate, validated
from gaugeqec.codefile import serialize_code
from gaugeqec.distance import Kind, classify, distance, is_correctable_set, keeps_distance
from gaugeqec import search
from gaugeqec.gf2 import Eliminator
from gaugeqec.oracle import code_projector, verify_correctability, verify_subsystem_structure
from gaugeqec.pauli import PauliOp, identity, pauli_from_string, single, vec_hermitian
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


def test_find_gauge_keeps_at_least_one_stabilizer_generator():
    # at d_min = 1 every subgroup passes, so the scan stops at its first r, s − 1
    for name, r in (("steane7", 5), ("shor9", 7)):
        res = find_gauge_symmetries(catalog(name), 1)
        assert (res.r_found, res.restructured.s, res.exhausted) == (r, 1, True), name


def test_find_gauge_rejects_subsystem_input():
    with pytest.raises(ValueError):
        find_gauge_symmetries(catalog("bacon-shor-9"), 3)


def test_find_gauge_budget_reports_inconclusive():
    res = find_gauge_symmetries(catalog("steane7"), 3, budget=10)
    assert res.r_found == 0
    assert not res.exhausted
    assert not res.conclusive


def test_find_gauge_worker_count_does_not_change_the_result():
    for name, d_min, r in (("five-qubit", 3, 0), ("shor9", 3, 4), ("steane7", 2, 3)):
        serial = find_gauge_symmetries(catalog(name), d_min)
        parallel = find_gauge_symmetries(catalog(name), d_min, workers=2)
        assert serial.r_found == parallel.r_found == r
        assert serial.exhausted == parallel.exhausted
        assert serial.restructured == parallel.restructured
        assert serial.stats.subspaces == parallel.stats.subspaces
        assert serial.stats.candidates == parallel.stats.candidates == (r > 0)


def test_find_gauge_elapsed_includes_the_syndrome_table(monkeypatch):
    # the table of low-weight syndromes is built before the first subgroup
    init = search._GaugeContext.__init__

    def slow(self, code, d_min):
        time.sleep(0.05)
        init(self, code, d_min)

    monkeypatch.setattr(search._GaugeContext, "__init__", slow)
    assert find_gauge_symmetries(catalog("five-qubit"), 3).stats.elapsed >= 0.05


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(5, 5, 0, 3)  # no stabilizer left
    with pytest.raises(ValueError):
        SweepSpec(13, 1, 0, 3)  # beyond the 2n <= 24 cap
    with pytest.raises(ValueError):
        SweepSpec(5, 1, 1, 0)
    for n, r, d in ((3, 1, 2), (5, 0, 4)):  # distance is undefined without logical qubits
        with pytest.raises(ValueError, match="k >= 1"):
            SweepSpec(n, 0, r, d)
    for budget in (0, -1):  # None is the only "no limit"
        with pytest.raises(ValueError, match="budget"):
            SweepSpec(4, 1, 1, 2, budget=budget)
    assert SweepSpec(4, 1, 1, 2, budget=1).budget == 1


def test_find_gauge_refuses_a_stabilizer_over_the_cap(monkeypatch):
    # the 2^s-bit syndrome masks are never built: s = 40 would ask for 2^40 bits each
    monkeypatch.setattr(search, "_GaugeContext", None)
    for n in (22, 41):
        code = SubsystemCode.from_strings(
            stabilizer=["I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1)],
            logical_x=["X" * n], logical_z=["Z" + "I" * (n - 1)])
        with pytest.raises(ValueError, match=f"s = {n - 1} stabilizer generators exceed the cap 20"):
            find_gauge_symmetries(code, 1, budget=100)
    assert search.MAX_GAUGE_STABILIZERS == 20


def test_find_gauge_refuses_a_budget_below_one():
    for budget in (0, -5):
        with pytest.raises(ValueError, match="budget"):
            find_gauge_symmetries(catalog("five-qubit"), 3, budget=budget)


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


def test_sweep_worker_count_does_not_change_the_result():
    # r = 0 takes the same sector path as r > 0: one empty sector per leaf
    for spec in (SweepSpec(4, 1, 1, 2), SweepSpec(4, 1, 0, 2)):
        serial = sweep_nonexistence(spec)
        parallel = sweep_nonexistence(spec, workers=2)
        assert serial.codes == parallel.codes
        assert [hash(c) for c in serial.codes] == [hash(c) for c in parallel.codes]
        assert serial.exhausted == parallel.exhausted
        counts = [(res.stats.subspaces, res.stats.sectors, res.stats.candidates)
                  for res in (serial, parallel)]
        assert counts[0] == counts[1], spec


def test_sweep_reports_rising_progress():
    # one report per PROGRESS_EVERY subspaces, each with more than the last
    seen = []
    res = sweep_nonexistence(SweepSpec(5, 1, 1, 3), progress=lambda st: seen.append(st.subspaces))
    assert len(seen) == res.stats.subspaces // search.PROGRESS_EVERY == 39
    assert seen == sorted(set(seen)) and seen[-1] <= res.stats.subspaces == 782595


def test_per_profile_state_does_not_change_a_chunk():
    """A context keeps state for the last pivot profile it swept.

    Jobs of a pool worker can come from any profile, so chunks taken in a
    shuffled order on one context, pickled on the way as a pool's is, give
    what each gives on a fresh context; an unbudgeted two-worker sweep
    returns their concatenation in canonical order.
    """
    spec = SweepSpec(4, 1, 1, 2)
    chunks = search._sweep_chunks(spec)
    fresh = [search._sweep_chunk(search._SweepContext(spec), job) for job in chunks]
    order = list(range(len(chunks)))
    random.Random(31).shuffle(order)
    ctx = search._SweepContext(spec)
    for step, i in enumerate(order):
        assert search._sweep_chunk(ctx, chunks[i]) == fresh[i], chunks[i]
        if step % 16 == 0:
            ctx = pickle.loads(pickle.dumps(ctx))
    res = sweep_nonexistence(spec, workers=2)
    assert res.exhausted
    assert res.codes == [code for _, _, codes in fresh for code in codes]
    assert (res.stats.subspaces, res.stats.sectors, res.stats.candidates) == (
        sum(f[0] for f in fresh), sum(f[1] for f in fresh), sum(len(f[2]) for f in fresh)
    ) == (5355, 146475, 4320)


def test_hyperbolic_split_exists_exactly_for_a_nondegenerate_span():
    def vecs(*strings):
        return [pauli_from_string(s).vec for s in strings]

    assert search._hyperbolic_pairs(vecs("XXI", "ZIZ", "YZI", "IZZ"), 3) == ((3, 40), (26, 24))
    assert search._hyperbolic_pairs([], 3) == ()
    # no partner for the first vector, then none after one pair is split off
    assert search._hyperbolic_pairs(vecs("XII", "IXI"), 3) is None
    assert search._hyperbolic_pairs(vecs("XII", "ZII", "IXI", "IIX"), 3) is None


def test_sweep_raises_when_a_covering_sector_falls_below_the_distance_target(monkeypatch):
    # a sector covering the witnesses keeps d >= d_min by construction, so a
    # shortfall is a fault to report, not a candidate to drop
    monkeypatch.setattr(search, "keeps_distance", lambda n, stab_rows, logical_rows, d: False)
    with pytest.raises(RuntimeError, match="d >= d_min"):
        sweep_nonexistence(SweepSpec(4, 1, 1, 2))


@pytest.mark.parametrize(
    "spec, counts",
    [
        (SweepSpec(3, 1, 1, 2), (63, 945, 0, 0)),  # s = 1: every leaf is a first row
        (SweepSpec(4, 1, 0, 2), (11475, 2268, 2268, 2268)),
        (SweepSpec(4, 2, 0, 2), (5355, 216, 216, 216)),
        # the rank loop rejects 66 of the 255 leaves, which then examine no sectors
        (SweepSpec(4, 1, 2, 2), (255, 123039, 0, 0)),
    ],
)
def test_sweep_work_counts_are_pinned(spec, counts):
    res = sweep_nonexistence(spec)
    assert res.exhausted
    stats = res.stats
    assert (stats.subspaces, stats.sectors, stats.candidates, len(res.codes)) == counts


@pytest.mark.parametrize(
    "fixture, counts",
    [("sweep_5113", (782595, 467775, 0, 0)), ("sweep_5103", (782595, 2592, 2592, 2592))],
)
def test_session_sweep_work_counts_are_pinned(request, fixture, counts):
    res = request.getfixturevalue(fixture)
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


def _recorded_leaves(monkeypatch, spec, class_count=False):
    """(rows, check_subspace result) for every leaf that reaches the rank loop.

    Unless ``class_count`` is set, the class count in front of the rank loop
    is disabled: its cap becomes the number of low-weight vectors, which no
    count exceeds, so every leaf the sweep visits is recorded.
    """
    seen = []
    original = search._SweepContext.check_subspace
    init = search._SweepContext.__init__

    def record(self, rows, span, u, reps):
        result = original(self, rows, span, u, reps)
        seen.append((rows + (u,), result))
        return result

    def uncapped(self, spec):
        init(self, spec)
        self.class_cap = len(self.low)

    monkeypatch.setattr(search._SweepContext, "check_subspace", record)
    if not class_count:
        monkeypatch.setattr(search._SweepContext, "__init__", uncapped)
    res = sweep_nonexistence(spec)
    monkeypatch.undo()
    return res, seen


@pytest.mark.parametrize(
    "spec, calls",
    [
        (SweepSpec(4, 2, 0, 2), 216),
        (SweepSpec(4, 1, 1, 2), 5355),  # every leaf passes the class count
        (SweepSpec(3, 1, 1, 2), None),
        (SweepSpec(5, 1, 1, 3, budget=5_000), None),
    ],
)
def test_class_count_rejects_only_leaves_the_rank_bound_rejects(monkeypatch, spec, calls):
    res_all, every = _recorded_leaves(monkeypatch, spec)
    res, counted = _recorded_leaves(monkeypatch, spec, class_count=True)
    assert len(every) == res_all.stats.subspaces
    kept = {rows for rows, _ in counted}
    assert len(kept) == len(counted)
    # the rank loop sees an order-preserving subsequence, with the same verdicts
    assert [leaf for leaf in every if leaf[0] in kept] == counted
    assert all(witnesses is None for rows, witnesses in every if rows not in kept)
    stats, stats_all = res.stats, res_all.stats
    assert (stats.subspaces, stats.sectors, stats.candidates) == (
        stats_all.subspaces, stats_all.sectors, stats_all.candidates
    )
    assert res.codes == res_all.codes and res.exhausted == res_all.exhausted
    if calls is not None:
        assert (len(counted), len(every)) == (calls, 5355)


@pytest.mark.parametrize(
    "spec",
    [
        SweepSpec(4, 1, 1, 2),
        SweepSpec(4, 1, 0, 2),
        SweepSpec(3, 1, 1, 2),
        SweepSpec(4, 2, 0, 2),  # the class count rejects 5,139 of 5,355 leaves
        # at d = 3 the weight-2 vectors merge mod S′, so classes are not vectors
        SweepSpec(5, 1, 1, 3, budget=5_000),
        # the rank loop rejects 66 of 255 leaves here and 840 of 2,048 in the next
        SweepSpec(4, 1, 2, 2),
        SweepSpec(5, 2, 1, 2, budget=20_000),
    ],
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


def _bit_list(v, ncols):
    return [(v >> j) & 1 for j in range(ncols)]


def _from_bit_list(bits):
    return sum(b << j for j, b in enumerate(bits))


def _plain_sectors(ctx, rows, witnesses):
    """Sector enumeration re-derived one RREF basis at a time.

    Every rank, kernel and membership question goes to the 0/1-list
    reference, not to the elimination kernel that ``sectors`` uses.
    """
    n, r = ctx.n, ctx.r
    kept = [_bit_list(v, 2 * n) for v in rows]
    qbasis = []
    swapped = [_bit_list(search.swap_halves(v, n), 2 * n) for v in rows]
    for b in naive_ops.kernel_lists(swapped, 2 * n):
        if naive_ops.rank(kept + [b]) > len(kept):
            kept.append(b)
            qbasis.append(_from_bit_list(b))
    q = len(qbasis)
    coords = kept[len(rows) :] + kept[: len(rows)]
    wcoords = [
        naive_ops.membership_combination(coords, _bit_list(w, 2 * n))[:q] for w in witnesses
    ]
    examined, sectors = 0, []
    for coord_rows in search._rref_bases(q, 2 * r):
        examined += 1
        span = [_bit_list(cr, q) for cr in coord_rows]
        if not all(naive_ops.in_span(span, wc) for wc in wcoords):
            continue
        lifted = []
        for cr in coord_rows:
            v = 0
            for i in range(q):
                if (cr >> i) & 1:
                    v ^= qbasis[i]
            lifted.append(v)
        gram = [[(a & search.swap_halves(b, n)).bit_count() & 1 for b in lifted] for a in lifted]
        if naive_ops.rank(gram) == 2 * r:
            sectors.append(tuple(search._hyperbolic_pairs(lifted, n)))
    return examined, sectors


@pytest.mark.parametrize(
    "spec, every",
    [
        (SweepSpec(4, 1, 1, 2), 53),
        (SweepSpec(3, 1, 1, 2), 1),
        (SweepSpec(4, 1, 2, 2), 5),
        # every survivor here has too large a witness radical for any sector
        (SweepSpec(5, 1, 1, 3, budget=5_000), 1),
        # every survivor here meets the radical bound with equality and has sectors
        (SweepSpec(5, 2, 1, 2, budget=20_000), 1),
    ],
)
def test_tabulated_sectors_match_a_plain_rederivation(monkeypatch, spec, every):
    _, seen = _recorded_leaves(monkeypatch, spec)
    survivors = [(rows, w) for rows, w in seen if w is not None][::every]
    assert survivors
    ctx = search._SweepContext(spec)
    for rows, witnesses in survivors:
        assert ctx.sectors(rows, witnesses) == _plain_sectors(ctx, rows, witnesses)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _codes_sha256(codes):
    return _sha256("".join(serialize_code(c) for c in codes))


# sha256 of the JSON list of (rows, witnesses) leaves in visit order, captured
# from the sweep that re-solved every level's constraints per parent
LEAF_ORDER_GOLDENS = [
    (SweepSpec(4, 1, 0, 2), 11475,
     "fd746b80efebfeea278d1274d4b323f0065c5ea4df6aa5716e2763207bf7e2ef"),
    (SweepSpec(4, 2, 0, 2), 5355,
     "5076723398fa58b730993ad073028fedd4ab59696c6f36d62aac910b8d320eda"),
    # s = 4: the solves of two levels are carried from node to child
    (SweepSpec(5, 1, 0, 3, budget=20_000), 20480,
     "ee64c816538c68b88af0fdcfc8ddf6e583d6abaac4d63538ba6f3aabe6122025"),
    # s = 1: the chunk's root is the leaves' parent
    (SweepSpec(3, 1, 1, 2), 63,
     "1f493dc2901eb41d1b03804b8aa81830caf837b45af2fc3c19feefb1b1c2017a"),
    # s = 3, with weight-2 vectors merging mod S′
    (SweepSpec(5, 1, 1, 3, budget=5_000), 4096,
     "c4d2b35200d431c72249ee1c27290ae69a7c8665bc962c33017028f9174bd0b0"),
]


def test_sweep_visit_order_and_code_lists_are_pinned(monkeypatch, sweep_5103):
    for spec, count, sha in LEAF_ORDER_GOLDENS:
        res, seen = _recorded_leaves(monkeypatch, spec)
        assert (len(seen), _sha256(json.dumps(seen))) == (count, sha), spec
        if spec == SweepSpec(4, 1, 0, 2):
            assert _codes_sha256(res.codes) == (
                "1eb7474f74a169d87c796881d625f715a707c45bae3f1c612f2aae111726ade1"
            )
    assert len(sweep_5103.codes) == 2592
    assert _codes_sha256(sweep_5103.codes) == (
        "4e2412bf57f091f3535bb8448e8b7a05d5e7bac61bed8362754e659e8a7dfdf6"
    )


@pytest.mark.parametrize("spec", [spec for spec, _, _ in LEAF_ORDER_GOLDENS])
def test_class_mask_holds_the_first_commuting_vector_of_each_class(monkeypatch, spec):
    """``reps`` at every leaf, against its definition in string arithmetic.

    Bit i is set exactly when low[i] commutes with S′ + u, lies outside
    span S′, and no earlier low vector w has low[i] ⊕ w in span S′.
    """
    calls = []
    check = search._SweepContext.check_subspace

    def record(self, rows, span, u, reps):
        calls.append((rows, u, reps))
        return check(self, rows, span, u, reps)

    monkeypatch.setattr(search._SweepContext, "check_subspace", record)
    res, _ = _recorded_leaves(monkeypatch, spec)
    assert len(calls) == res.stats.subspaces
    n = spec.n
    low = [_letters(v, n) for v in search._SweepContext(spec).low]
    assert sorted(low) == sorted(
        naive_ops.all_paulis_up_to_weight(n, spec.d_min - 1, include_identity=False)
    )
    anticommute = functools.cache(naive_ops.anticommute)
    firsts = {}  # S′ -> the i with low[i] first in its nonzero class, commuting with S′
    for rows, u, reps in calls:
        if rows not in firsts:
            strings = [_letters(g, n) for g in rows]
            span = {"I" * n}
            for g in strings:
                span |= {naive_ops.mul(g, h)[1] for h in span}
            seen, firsts[rows] = {"I" * n}, []
            for i, v in enumerate(low):
                coset = {naive_ops.mul(v, g)[1] for g in span}
                if seen.isdisjoint(coset) and not any(anticommute(v, g) for g in strings):
                    firsts[rows].append(i)
                seen.add(v)
        u_str = _letters(u, n)
        assert reps == sum(1 << i for i in firsts[rows] if not anticommute(low[i], u_str)), (rows, u)


@pytest.mark.parametrize("spec", [spec for spec, _, _ in LEAF_ORDER_GOLDENS])
def test_leaf_classes_are_the_distinct_classes_mod_the_leaf(monkeypatch, spec):
    """``leaf_classes`` at every leaf that reaches ``check_subspace``, in string arithmetic.

    Bit i is set exactly when low[i] is the first Pauli of weight below
    d_min in its nonzero class mod S = S′ + u and commutes with S, so the
    count is the number of distinct nonzero classes mod S of those Paulis.
    """
    masks, leaves = [], []
    leaf_classes, check = search._SweepContext.leaf_classes, search._SweepContext.check_subspace

    def record_classes(self, span, u, reps):
        masks.append(leaf_classes(self, span, u, reps))
        return masks[-1]

    def record_check(self, rows, span, u, reps):
        leaves.append(rows + (u,))
        return check(self, rows, span, u, reps)

    monkeypatch.setattr(search._SweepContext, "leaf_classes", record_classes)
    monkeypatch.setattr(search._SweepContext, "check_subspace", record_check)
    sweep_nonexistence(spec)
    assert masks and len(masks) == len(leaves)
    n, identity = spec.n, "I" * spec.n
    low = [_letters(v, n) for v in search._SweepContext(spec).low]
    anticommute = functools.cache(naive_ops.anticommute)
    for rows, mask in zip(leaves, masks):
        strings = [_letters(g, n) for g in rows]
        span = {identity}
        for g in strings:
            span |= {naive_ops.mul(g, h)[1] for h in span}
        classes, firsts = set(), []
        for i, p in enumerate(low):
            if any(anticommute(p, g) for g in strings):
                continue
            coset = frozenset(naive_ops.mul(p, g)[1] for g in span)
            if identity not in coset and coset not in classes:
                classes.add(coset)
                firsts.append(i)
        assert mask.bit_count() == len(classes), rows
        assert mask == sum(1 << i for i in firsts), rows


def test_the_leaf_test_is_a_function_of_its_arguments(monkeypatch):
    """``check_subspace`` replayed in any order on a fresh context gives what the sweep got.

    [[4,1,2,2]] has leaves that the class count passes and the rank loop
    rejects, so both verdicts and the witnesses are replayed.
    """
    spec = SweepSpec(4, 1, 2, 2)
    calls = []
    check = search._SweepContext.check_subspace

    def record(self, *args):
        calls.append((args, check(self, *args)))
        return calls[-1][1]

    monkeypatch.setattr(search._SweepContext, "check_subspace", record)
    sweep_nonexistence(spec)
    monkeypatch.undo()
    assert len(calls) == 255 and sum(result is None for _, result in calls) == 66
    random.Random(32).shuffle(calls)
    ctx = search._SweepContext(spec)
    assert [ctx.check_subspace(*args) for args, _ in calls] == [result for _, result in calls]


# sha256 of code lists whose codes are assembled from their rows, captured
# from the sweep that built a candidate code and then validated it; re-pinned
# when derived rows became +1-signed Hermitian, which dropped sign prefixes only
CODE_LIST_GOLDENS = [
    (SweepSpec(4, 1, 1, 2), 4320,
     "eaf46407f841f50a6117c4dbdd5a03d04745dae528ac72a7d9e073c0b89f7966"),
    (SweepSpec(5, 2, 1, 2, budget=20_000), 512,
     "671fd6b7ba665d02d07890831b291c97920de583327899b68bf4d30902f72b4a"),
]


@pytest.mark.parametrize("workers", [1, 2])
def test_assembled_code_lists_are_pinned(workers):
    for spec, count, sha in CODE_LIST_GOLDENS:
        res = sweep_nonexistence(spec, workers=workers)
        assert (len(res.codes), _codes_sha256(res.codes)) == (count, sha), spec


def _signed(n, v, e):
    """i^e times the +1-signed Hermitian Pauli with (x|z) bits v."""
    h = vec_hermitian(n, v)
    return PauliOp(n, (h.phase_exp + e) % 4, h.x, h.z)


def _assembled(monkeypatch, run):
    """(arguments, guard verdict, code) of every ``_guarded_code`` call of ``run``."""
    calls, verdicts = [], []
    guarded, guard = search._guarded_code, search.keeps_distance

    def record(*args):
        code = guarded(*args)
        calls.append((args, verdicts[-1], code))
        return code

    def record_guard(*args):
        verdicts.append(guard(*args))
        return verdicts[-1]

    monkeypatch.setattr(search, "keeps_distance", record_guard)
    monkeypatch.setattr(search, "_guarded_code", record)
    run()
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize(
    "spec, count",
    [
        (SweepSpec(4, 1, 1, 2), 4320),
        (SweepSpec(4, 1, 0, 2), 2268),
        (SweepSpec(4, 2, 0, 2), 216),
        (None, 1),  # find-gauge's restructured shor9, with its logical pairs supplied
    ],
)
def test_one_pass_assembly_equals_validating_the_candidate(monkeypatch, spec, count):
    if spec is None:
        calls = _assembled(monkeypatch, lambda: find_gauge_symmetries(catalog("shor9"), 3))
    else:
        calls = _assembled(monkeypatch, lambda: sweep_nonexistence(spec))
    assert len(calls) == count
    for (n, stab, pairs, d_min, *logical), verdict, code in calls:
        ops = [_signed(n, v, e) for v, e in zip(*logical)]
        # find-gauge leaves each gauge x row for the frame: take the derived one
        derived = code.rows[code.s :: 2]
        candidate = SubsystemCode(
            n,
            tuple(vec_hermitian(n, v) for v in stab),
            tuple((vec_hermitian(n, derived[j] if gx is None else gx), vec_hermitian(n, gz))
                  for j, (gx, gz) in enumerate(pairs)),
            tuple(zip(ops[::2], ops[1::2])),
        )
        expected = validated(candidate)
        assert code == expected and hash(code) == hash(expected)
        if logical:  # the supplied logical rows come back with their signs
            assert code.logical_ops() == ops
        # the guard's verdict, and both distance methods on the code
        assert verdict is True and distance(code) == distance(code, "exhaustive") >= d_min


def test_assembly_and_guard_walk_on_random_subsystem_codes(monkeypatch):
    # random stabilizer codes with their first r logical pairs made gauge
    # pairs, the other logical pairs supplied or left for the frame to derive
    for seed in range(80):
        base = validated(_random_stabilizer_code(seed))
        rng = random.Random(seed)
        r = rng.randrange(base.k)
        supplied = rng.random() < 0.5
        first = base.s + 2 * r  # the first logical row left once r pairs are gauge pairs
        logical = (base.rows[first:], base.signs[first:]) if supplied else ((), ())
        n, stab = base.n, [g.vec for g in base.stabilizer]
        pairs = [(x.vec, z.vec) for x, z in base.logical_pairs[:r]]
        [(_, verdict, code)] = _assembled(
            monkeypatch, lambda: search._guarded_code(n, stab, pairs, 1, *logical)
        )
        candidate = SubsystemCode(n, base.stabilizer, tuple(
            (vec_hermitian(n, x), vec_hermitian(n, z)) for x, z in pairs),
            base.logical_pairs[r:] if supplied else ())
        assert code == validated(candidate) and code.r == r
        assert verdict is True and distance(code) == distance(code, "exhaustive"), seed


def test_the_sweep_builds_one_code_object_per_code(monkeypatch):
    # every code object's fields are set by ``_store``, and only there
    built = []
    store = SubsystemCode._store

    def counting(self, *args):
        built.append(self)
        store(self, *args)

    monkeypatch.setattr(SubsystemCode, "_store", counting)
    res = sweep_nonexistence(SweepSpec(4, 2, 0, 2))
    assert len(res.codes) == 216
    assert [id(c) for c in built] == [id(c) for c in res.codes]


def test_the_sweep_builds_no_operator_objects(monkeypatch):
    built = []
    post_init = PauliOp.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PauliOp, "__post_init__", counting)
    res = sweep_nonexistence(SweepSpec(4, 1, 1, 2))
    assert len(res.codes) == 4320 and built == []


def test_sweep_codes_are_their_rows():
    # a sweep code equals the code built from its operators, hashes alike,
    # and pickles as ints alone
    n = 4
    for code in sweep_nonexistence(SweepSpec(n, 1, 1, 2)).codes:
        rebuilt = SubsystemCode(n, code.stabilizer, code.gauge_pairs, code.logical_pairs)
        dumped = pickle.dumps(code)  # after its operators were built
        assert b"PauliOp" not in dumped
        copy = pickle.loads(dumped)
        assert rebuilt == code == copy
        assert hash(rebuilt) == hash(code) == hash(copy)
        assert (copy.rows, copy.signs) == (code.rows, code.signs)


@pytest.mark.parametrize(
    "n, stab, pairs, logical, violation",
    [
        (4, ["ZZII"], [("IIXI", "IIXX")], [], "gauge x0 and gauge z0 must anticommute"),
        (4, ["ZZII", "IIZZ", "ZZZZ"], [], [],
         "stabilizer generator 2 depends on earlier generators"),
        (2, ["ZZ"], [("XX", "ZI")], [("YY", "IZ")], "s + r + k = 3 > n = 2"),
        # independent rows that break the frame pattern: only completion refuses them
        (4, ["ZZII"], [("XIII", "ZIII")], [],
         "gauge x0 anticommutes with stabilizer generator 0"),
        (4, ["ZZII"], [], [("XXII", "IIZI")], "logical x0 and logical z0 must anticommute"),
        (4, ["ZZII", "XIII"], [], [], "stabilizer generators 0 and 1 anticommute"),
    ],
)
def test_invalid_rows_raise_the_validation_error(n, stab, pairs, logical, violation):
    stab_ops = tuple(map(pauli_from_string, stab))
    pair_ops, logical_ops = (
        tuple((pauli_from_string(x), pauli_from_string(z)) for x, z in ps) for ps in (pairs, logical)
    )
    with pytest.raises(ValueError) as from_rows:
        rows, logical = [g.vec for g in stab_ops], [op for pair in logical_ops for op in pair]
        search._guarded_code(n, rows, [(x.vec, z.vec) for x, z in pair_ops], 1,
                             [op.vec for op in logical], [op.sign_exponent for op in logical])
    with pytest.raises(ValueError) as from_ops:
        validated(SubsystemCode(n, stab_ops, pair_ops, logical_ops))
    assert str(from_rows.value) == str(from_ops.value)
    assert str(from_rows.value).startswith("invalid code: ") and violation in str(from_rows.value)


def test_sweep_budget_is_inconclusive():
    res = sweep_nonexistence(SweepSpec(4, 1, 1, 2, budget=50))
    assert not res.exhausted


def test_budgeted_searches_take_one_job_per_batch(monkeypatch):
    # a search that may stop at its budget reads each result as it is made,
    # so a pool stops near the budget; the result is the same for any workers
    asked = []

    def recording(fn, ctx, jobs, workers, single=False):
        asked.append((fn.__name__, single))
        return ordered_map(fn, ctx, jobs, workers, single)

    ordered_map = search.ordered_map
    monkeypatch.setattr(search, "ordered_map", recording)
    results = {}
    for workers in (1, 2):
        for budget in (None, 20_000):
            res = sweep_nonexistence(SweepSpec(5, 1, 0, 3, budget=budget), workers=workers)
            found = find_gauge_symmetries(catalog("steane7"), 3, budget=budget and 40, workers=workers)
            results[workers, budget] = (
                res.exhausted, res.stats.subspaces, res.stats.sectors, _codes_sha256(res.codes),
                found.exhausted, found.r_found, found.stats.subspaces,
            )
    assert asked == [("_sweep_chunk", False), ("_gauge_filter_chunk", False),
                     ("_sweep_chunk", True), ("_gauge_filter_chunk", True)] * 2
    for budget in (None, 20_000):
        assert results[1, budget] == results[2, budget]
    assert results[1, 20_000][:2] == (False, 20480) and results[1, 20_000][4] is False


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


def _subgroups(s, pivots):
    """Every subgroup S′ with this pivot profile: RREF coefficient rows over the
    s stabilizer generators, in canonical order (row 0's free bits outermost)."""
    frees = [[c for c in range(p + 1, s) if c not in pivots] for p in pivots]
    for values in product(*(range(1 << len(f)) for f in frees)):
        yield tuple(
            (1 << p) | sum(((v >> j) & 1) << c for j, c in enumerate(f))
            for p, f, v in zip(pivots, frees, values)
        )


def _reference_gauge_filter(code, d_min, pivots):
    """One pivot profile of the gauge filter, each subgroup from scratch.

    Each S′ is built as Pauli strings, products of the stabilizer generators
    its rows select.  S′ survives when no Pauli of weight below d_min that
    commutes with all of S′ anticommutes with a logical operator.  Returns
    (examined, the first survivor's rows or None).
    """
    n = code.n
    stab = [_letters(g.vec, n) for g in code.stabilizer]
    logical = [_letters(op.vec, n) for op in validated(code).logical_ops()]
    acting = [
        p
        for p in naive_ops.all_paulis_up_to_weight(n, d_min - 1, include_identity=False)
        if any(naive_ops.anticommute(p, q) for q in logical)
    ]
    examined, first = 0, None
    for rows in _subgroups(code.s, pivots):
        examined += 1
        if first is not None:
            continue
        sprime = []
        for row in rows:
            g = "I" * n
            for i, h in enumerate(stab):
                if (row >> i) & 1:
                    g = naive_ops.mul(g, h)[1]
            sprime.append(g)
        if not any(all(not naive_ops.anticommute(p, g) for g in sprime) for p in acting):
            first = rows
    return examined, first


@pytest.mark.parametrize(
    "name, d_min, ranks",
    [
        ("five-qubit", 2, (3, 2, 1)),
        ("five-qubit", 3, (3, 2, 1)),
        ("five-qubit", 4, (3, 2, 1)),  # d = 3 < d_min: every subgroup is rejected
        ("steane7", 2, (5, 4, 3, 2, 1)),  # survivors at r = 3 and below
        ("steane7", 3, (5, 4, 3, 2, 1)),
        ("shor9", 2, (7,)),
        ("shor9", 3, (7, 6)),  # every subgroup pruned, most of them as subtrees
    ],
    ids=lambda v: str(v) if not isinstance(v, tuple) else "r" + "".join(map(str, v)),
)
def test_gauge_filter_matches_a_from_scratch_syndrome_check(name, d_min, ranks):
    code = validated(catalog(name))
    ctx = search._GaugeContext(code, d_min)
    for r in ranks:
        for pivots in combinations(range(code.s), code.s - r):
            got = search._gauge_filter_chunk(ctx, pivots)
            assert got == _reference_gauge_filter(code, d_min, pivots), pivots


@pytest.mark.parametrize("seed, d_min", [(0, 2), (3, 2), (24, 3)])
def test_gauge_filter_rejects_every_subgroup_below_the_input_distance(seed, d_min):
    # a logical operator of weight below d_min commutes with every S′, yet
    # some nonzero syndromes of these codes are not bad: only the zero
    # syndrome at the root rejects every subgroup
    code = validated(_random_stabilizer_code(seed))
    assert distance(code) < d_min
    ctx = search._GaugeContext(code, d_min)
    assert ctx.bad & 1 and ctx.bad != (1 << (1 << code.s)) - 1
    for m in range(1, code.s):
        for pivots in combinations(range(code.s), m):
            got = search._gauge_filter_chunk(ctx, pivots)
            assert got[1] is None
            assert got == _reference_gauge_filter(code, d_min, pivots), pivots


def _every_survivor(ctx, pivots):
    """Every subgroup of the profile that the filter keeps, not only the first."""
    return set(search._gauge_survivors(ctx, pivots))


@pytest.mark.parametrize(
    "name, kept",
    [
        ("five-qubit", {2: 0, 3: 0, 4: 0}),  # every restructured code has d = 1
        ("steane7", {2: 272, 3: 0}),
    ],
    ids=["five-qubit", "steane7"],
)
def test_gauge_filter_keeps_exactly_the_subgroups_that_keep_the_distance(name, kept):
    # the gauge group is C(S′) ∩ C(L), so the syndrome filter is exact: it
    # keeps S′ if and only if the restructured code has d >= d_min
    code = validated(catalog(name))
    profiles = [pivots for m in range(1, code.s) for pivots in combinations(range(code.s), m)]
    verdicts = {}
    for d_min in kept:
        ctx = search._GaugeContext(code, d_min)
        verdicts[d_min] = set().union(*(_every_survivor(ctx, p) for p in profiles))
    checked = 0
    for pivots in profiles:
        for rows in _subgroups(code.s, pivots):
            # d_min = 1 only assembles: every code has d >= 1
            d = distance(search._solve_gauge_partners(code, 1, rows), "exhaustive")
            for d_min in kept:
                assert (rows in verdicts[d_min]) == (d >= d_min), (rows, d_min, d)
            checked += 1
    assert checked == {"five-qubit": 65, "steane7": 2823}[name]
    assert {d_min: len(rows) for d_min, rows in verdicts.items()} == kept


def test_the_filter_returns_the_least_survivor_of_every_profile():
    # the entry-by-entry walk against the least of every survivor listed; at
    # d_min = 1 no syndrome is bad, every subgroup survives and the least has
    # each free entry 0 (listing shor9's 417,197 subgroups would take 1 s)
    codes = [catalog(name) for name in ("five-qubit", "steane7", "shor9")]
    codes += [_random_stabilizer_code(seed) for seed in range(100)]
    profiles = with_survivor = 0
    for code in map(validated, codes):
        for d_min in (1, 2, 3):
            ctx = search._GaugeContext(code, d_min)
            assert (ctx.bad == 0) == (d_min == 1)
            for m in range(1, code.s):
                for pivots in combinations(range(code.s), m):
                    least = (min(search._gauge_survivors(ctx, pivots), default=None) if ctx.bad
                             else tuple(1 << p for p in pivots))
                    assert search._gauge_filter_chunk(ctx, pivots)[1] == least, (code, d_min, pivots)
                    profiles += 1
                    with_survivor += least is not None
    assert profiles == 990 + 3 * sum(2 ** c.s - 2 for c in codes[3:])
    assert 0 < with_survivor < profiles


def _repetition_code(n):
    """ZZ on neighbours, logical X on every qubit and Z on the first: s = n − 1, d = 1."""
    return SubsystemCode.from_strings(
        stabilizer=["I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1)],
        logical_x=["X" * n], logical_z=["Z" + "I" * (n - 1)])


def test_the_filter_draws_at_most_one_survivor_per_entry_and_one_more(monkeypatch):
    # at d_min = 1 all 131,072 subgroups of the first profile survive; the
    # least is fixed entry by entry, each query drawing one survivor at most
    walk, drawn = search._gauge_survivors, {}

    def counted(ctx, pivots, masks=None):
        for rows in walk(ctx, pivots, masks):
            drawn[pivots] = drawn.get(pivots, 0) + 1
            yield rows

    monkeypatch.setattr(search, "_gauge_survivors", counted)
    res = find_gauge_symmetries(_repetition_code(19), 1)
    assert (res.r_found, res.exhausted, res.stats.subspaces) == (17, True, 131_072)
    entries = 17  # pivot 0's row has a bit for each of the 17 free columns
    assert 1 <= drawn[(0,)] <= entries + 1
    assert list(drawn) == [(0,)]


@pytest.mark.parametrize("name, subspaces", [("steane7", 2823), ("five-qubit", 65)])
def test_a_profile_whose_dual_outgrows_the_good_syndromes_is_not_walked(monkeypatch, name,
                                                                       subspaces):
    # every nonzero syndrome is bad at d_min = 3, so no dual of dimension 1 or
    # more avoids them and r_cap is 0
    ctx = search._GaugeContext(validated(catalog(name)), 3)
    assert (ctx.bad, ctx.r_cap) == ((1 << (1 << ctx.s)) - 2, 0)

    def refuse(*args):
        raise AssertionError("walked a profile past r_cap")

    monkeypatch.setattr(search, "_gauge_survivors", refuse)
    res = find_gauge_symmetries(catalog(name), 3)
    assert (res.r_found, res.exhausted, res.stats.subspaces) == (0, True, subspaces)


@pytest.mark.parametrize("name, subgroups", [("five-qubit", 65), ("steane7", 2823)])
def test_gauge_partners_are_the_free_columns_zero_solutions(name, subgroups):
    # partner i solves: commute with S′, the logical operators, the other gz
    # and the partners before it, anticommute with gz_i; the frame row must be
    # the solution with every free column 0, here from strings and 0/1 lists
    code = validated(catalog(name))
    n = code.n
    stab = [_letters(g.vec, n) for g in code.stabilizer]
    logical = [_letters(op.vec, n) for op in code.logical_ops()]
    checked = 0
    for m in range(1, code.s):
        for pivots in combinations(range(code.s), m):
            for rows in _subgroups(code.s, pivots):
                sprime = []
                for row in rows:
                    g = "I" * n
                    for i, h in enumerate(stab):
                        if (row >> i) & 1:
                            g = naive_ops.mul(g, h)[1]
                    sprime.append(g)
                gz = [g for i, g in enumerate(stab) if i not in pivots]
                partners = []
                for i in range(len(gz)):
                    system = []
                    for j, c in enumerate(sprime + logical + gz + partners):
                        bits = naive_ops.to_bits(c)
                        target = j == len(sprime) + len(logical) + i
                        system.append((bits[n:] + bits[:n], int(target)))
                    u = naive_ops.affine_particular(system, 2 * n)
                    partners.append("".join("IXZY"[u[q] + 2 * u[n + q]] for q in range(n)))
                got = search._solve_gauge_partners(code, 1, rows)
                assert [_letters(gz.vec, n) for _, gz in got.gauge_pairs] == gz
                assert [_letters(gx.vec, n) for gx, _ in got.gauge_pairs] == partners, rows
                checked += 1
    assert checked == subgroups


# (name, d_min, r, exhausted, subspaces, sha256 prefix of the restructured
# code file), captured from the coset-list filter walk before the 2^s-bit mask walk
CATALOG_GAUGE_GOLDENS = [
    ("five-qubit", 1, 3, True, 8, "29b8bf249257354e"),
    ("five-qubit", 2, 0, True, 65, None),
    ("five-qubit", 3, 0, True, 65, None),
    ("five-qubit", 4, 0, True, 65, None),
    ("steane7", 1, 5, True, 32, "3729022b14632a8d"),
    ("steane7", 2, 3, True, 1226, "da81425b8b958aba"),
    ("steane7", 3, 0, True, 2823, None),
    ("steane7", 4, 0, True, 2823, None),
    ("shor9", 1, 7, True, 128, "2cca9c2706b5add1"),
    ("shor9", 2, 5, True, 43818, "9f07c4f0fb4b07a5"),
    ("shor9", 3, 4, True, 173741, "c7ec191883e6d5d2"),
    ("shor9", 4, 0, True, 417197, None),
]


@pytest.mark.parametrize("name, d_min, r, exhausted, subspaces, sha", CATALOG_GAUGE_GOLDENS)
def test_gauge_search_on_catalog_codes_matches_goldens(name, d_min, r, exhausted, subspaces, sha):
    res = find_gauge_symmetries(catalog(name), d_min)
    got = res.restructured and hashlib.sha256(serialize_code(res.restructured).encode()).hexdigest()
    assert (res.r_found, res.exhausted, res.stats.subspaces, got and got[:16]) == (
        r, exhausted, subspaces, sha)


@pytest.mark.parametrize(
    "name, d_min", [(name, d_min) for name, d_min, *_, sha in CATALOG_GAUGE_GOLDENS if sha])
def test_restructured_catalog_codes_pass_the_dense_oracle(name, d_min):
    # the derived gauge partners against the dense matrices, which share no
    # frame completion with them: the structure factorizes, the code space
    # has dimension 2^(n − s), both correctability tests agree on the weight
    # <= 1 Paulis, and the exhaustive distance reaches d_min
    code = find_gauge_symmetries(catalog(name), d_min).restructured
    n, s = code.n, code.s
    assert verify_subsystem_structure(code).ok
    assert abs(code_projector(code).matrix.trace().real - 2 ** (n - s)) < 1e-10
    errors = [identity(n)] + [single(n, q, letter) for q in range(n) for letter in "XYZ"]
    dense = verify_correctability(code, errors).ok
    assert dense == is_correctable_set(code, errors).correctable == (d_min >= 3)
    assert distance(code, "exhaustive") >= d_min


def _naive_bad(code, d_min):
    """The syndromes of every Pauli of weight 1 to d_min − 1 that acts logically, from strings."""
    n, s = code.n, code.s
    stab = [_letters(v, n) for v in code.rows[:s]]
    logical = [_letters(v, n) for v in code.rows[s:]]
    bad = 0
    for p in naive_ops.all_paulis_up_to_weight(n, d_min - 1, include_identity=False):
        if any(naive_ops.anticommute(p, q) for q in logical):
            bad |= 1 << sum(naive_ops.anticommute(p, g) << i for i, g in enumerate(stab))
    return bad


def test_bad_syndromes_match_string_arithmetic():
    # an independent witness for the table the filter walks against; where
    # a logical operator below d_min has syndrome 0, only that bit is kept
    inputs = [(catalog(name), d_min) for name in ("shor9", "steane7", "five-qubit")
              for d_min in (2, 3, 4)]
    inputs += [(_random_stabilizer_code(seed), d_min) for seed, d_min, *_ in RANDOM_CODE_GOLDENS[:40]]
    zero_syndrome = 0
    for code, d_min in inputs:
        code = validated(code)
        bad, expected = search._GaugeContext(code, d_min).bad, _naive_bad(code, d_min)
        if expected & 1:
            assert bad == 1, (code, d_min)
            zero_syndrome += 1
        else:
            assert bad == expected, (code, d_min)
    assert 0 < zero_syndrome < len(inputs)


def test_the_bad_syndrome_build_stops_at_a_logical_operator_below_d_min(monkeypatch):
    # shor9 has d = 3: a weight-3 logical operator sets bit 0 and ends the
    # build long before the 4^9 − 1 Paulis of weight 1 to 24 are keyed
    keyed = []
    weight_sums = search.weight_sums

    def counting(letters, w):
        for key in weight_sums(letters, w):
            keyed.append(w)
            yield key

    monkeypatch.setattr(search, "weight_sums", counting)
    assert search._GaugeContext(validated(catalog("shor9")), 25).bad == 1
    assert max(keyed) == 3 and len(keyed) <= 27 + 324 + 2268
    res = find_gauge_symmetries(catalog("shor9"), 25)
    assert (res.r_found, res.exhausted, res.stats.subspaces, res.stats.candidates) == (
        0, True, 417197, 0)


def test_the_distance_threshold_test_equals_the_exhaustive_walk(sweep_5103):
    # keeps_distance(n, S, L, d) is distance(code, "exhaustive") >= d for
    # every d up to n + 1, on catalog, sweep and random subsystem codes
    codes = [validated(catalog(name)) for name in CATALOG_NAMES]
    for spec in (SweepSpec(4, 1, 1, 2), SweepSpec(4, 1, 0, 2), SweepSpec(4, 2, 0, 2)):
        codes += sweep_nonexistence(spec).codes
    codes += sweep_5103.codes
    for seed in range(80):
        base = validated(_random_stabilizer_code(seed))
        r = random.Random(seed).randrange(base.k)
        codes.append(validated(SubsystemCode(
            base.n, base.stabilizer, base.logical_pairs[:r], base.logical_pairs[r:])))
    pairs = below = 0
    for code in codes:
        n, s, g = code.n, code.s, code.s + 2 * code.r
        walked = distance(code, "exhaustive")
        for d in range(1, n + 2):
            kept = keeps_distance(n, code.rows[:s], code.rows[g:], d)
            assert kept == (walked >= d), (code, d, walked)
            pairs += 1
            below += not kept
    assert len(codes) == 4 + 4320 + 2268 + 216 + 2592 + 80
    assert pairs == 49_606 + 513 and 0 < below < pairs  # 513 pairs from the random codes


def test_partner_solving_refuses_a_code_below_the_distance_target(monkeypatch):
    # with no syndrome marked bad the first subgroup survives the filter;
    # its code has d < 3, which the guard must report, not return
    init = search._GaugeContext.__init__

    def blind(self, code, d_min):
        init(self, code, d_min)
        self.bad = 0

    monkeypatch.setattr(search._GaugeContext, "__init__", blind)
    with pytest.raises(RuntimeError, match="d >= d_min"):
        find_gauge_symmetries(catalog("shor9"), 3)


@pytest.mark.parametrize("name", ["five-qubit", "steane7"])
def test_only_the_stabilizer_commutes_with_itself_and_the_logical_operators(name):
    # why partner solving has one candidate per gauge slot: the constraints
    # on an x partner fix it modulo exactly these operators
    code = validated(catalog(name))
    n = code.n
    stab = [_letters(g.vec, n) for g in code.stabilizer]
    others = stab + [_letters(op.vec, n) for op in code.logical_ops()]
    commuting = [
        p
        for p in naive_ops.all_paulis_up_to_weight(n, n)
        if not any(naive_ops.anticommute(p, q) for q in others)
    ]
    assert len(commuting) == 2 ** code.s
    stab_bits = [naive_ops.to_bits(g) for g in stab]
    assert all(naive_ops.in_span(stab_bits, naive_ops.to_bits(p)) for p in commuting)


def _random_stabilizer_code(seed):
    """A seeded random stabilizer code: 4 to 7 qubits, 2 to n − 1 generators."""
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    s = rng.randint(2, n - 1)
    rows = []
    while len(rows) < s:
        v = rng.getrandbits(2 * n)
        sw = ((v >> n) | (v << n)) & ((1 << 2 * n) - 1)
        if any(((u & sw).bit_count() & 1) for u in rows):
            continue
        span = {0}
        for u in rows:
            span |= {x ^ u for x in span}
        if v in span:
            continue
        rows.append(v)
    return SubsystemCode(n, tuple(vec_hermitian(n, v) for v in rows))


# [seed, d_min, r, exhausted, subspaces, sha256 prefix of the restructured
# code file], captured with the partner search that enumerated every slot
# modulo the subgroup and gz_j only, before it became one candidate per slot;
# four prefixes re-pinned when derived rows became +1-signed Hermitian
RANDOM_CODE_GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "find_gauge_random_codes.json").read_text()
)


@functools.cache
def _random_code_searches():
    return [
        find_gauge_symmetries(_random_stabilizer_code(seed), d_min)
        for seed, d_min, *_ in RANDOM_CODE_GOLDENS
    ]


def test_gauge_search_on_random_codes_matches_goldens():
    assert sum(1 for g in RANDOM_CODE_GOLDENS if g[2] > 0) >= 40
    for (seed, d_min, r, exhausted, subspaces, sha), res in zip(
        RANDOM_CODE_GOLDENS, _random_code_searches()
    ):
        got = (
            hashlib.sha256(serialize_code(res.restructured).encode()).hexdigest()[:16]
            if res.restructured is not None
            else None
        )
        assert (res.r_found, res.exhausted, res.stats.subspaces, got) == (
            r, exhausted, subspaces, sha
        ), (seed, d_min)


def test_every_found_operator_is_a_plus_signed_hermitian_pauli(sweep_5103):
    # read off the code files with string arithmetic: i**k P squares to
    # i**(2k) P P, so an operator squares to +I and is +1-signed exactly when
    # its line has no sign prefix (a phase-0 Y row prints as e.g. -iYIXZ)
    specs = (SweepSpec(4, 1, 1, 2), SweepSpec(4, 1, 0, 2), SweepSpec(5, 2, 1, 2, budget=20_000))
    lists = {spec: sweep_nonexistence(spec).codes for spec in specs}
    lists["sweep_5103"] = sweep_5103.codes
    lists["find-gauge"] = [res.restructured for res in _random_code_searches() if res.restructured]
    assert [len(codes) for codes in lists.values()] == [4320, 2268, 512, 2592, 42]
    for name, codes in lists.items():
        lines = [line for c in codes for line in serialize_code(c).splitlines()[1:]]
        signed = squares_to_minus = 0
        for line in lines:
            if line and not line.startswith("["):
                k, letters = naive_ops.split_sign(line)
                phase, square = naive_ops.mul(letters, letters)
                assert square == "I" * len(letters)
                signed += k != 0
                squares_to_minus += (2 * k + phase) % 4 != 0
        assert (name, signed, squares_to_minus) == (name, 0, 0)
