"""Exhaustive structure searches over subsystem codes.

Two searches live here.  ``find_gauge_symmetries`` looks for gauge structure
hiding inside an existing stabilizer code: it enumerates subgroups of the
stabilizer, keeps the dropped generators as gauge z operators, and solves for
commuting x partners.  ``sweep_nonexistence`` enumerates every isotropic
stabilizer subspace at a target parameter point together with every
hyperbolic gauge sector, to prove codes with those parameters do or do not
exist.

Both searches share one exact pruning idea: any operator of weight below the
distance target that commutes with the candidate stabilizer must end up
inside the gauge group, so the span of such operators modulo the stabilizer
cannot exceed the gauge dimension.  Subspaces failing that rank bound cannot
yield a valid candidate and are rejected before any partner solving; the
bound is necessary, so no candidate is ever lost.

The sweep applies the bound to every leaf of its depth-first enumeration,
so the work its siblings share is done once, in their parent.  Which
low-weight Paulis commute with a subspace is a bitmask over those Paulis:
the mask anticommuting with a row is linear in the row, so each level ANDs
in one row's complement, and the last row's Gray-code walk updates it with
one XOR per step.  With S = S′ + ⟨u⟩, the parent keeps an elimination of its
rows S′ and the low-weight vectors reduced modulo S′, filled on first use;
a leaf is rejected once rank({u} ∪ L) − 1 passes 2r, where L is the
commuting set reduced modulo S′, using a basis that stops at 2r + 2 rows.
Gauge sectors of the surviving leaves are read off a table of coordinate
bases with their span masks, built once per shape.

Work is split across workers by enumeration prefix; results are merged in
canonical enumeration order, so verdicts and outputs are identical for any
worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from multiprocessing import Pool
from typing import Callable, Iterator, Sequence

from . import gf2
from .code import SubsystemCode, singleton_check, validated
from .distance import _gray_walk, distance
from .pauli import low_weight_vecs, swap_halves, vec_hermitian

ProgressFn = Callable[["SearchStats"], None]

PROGRESS_EVERY = 20000


@dataclass
class SearchStats:
    subspaces: int = 0
    candidates: int = 0
    sectors: int = 0
    elapsed: float = 0.0


@dataclass
class GaugeSymmetryResult:
    r_found: int
    restructured: SubsystemCode | None
    exhausted: bool
    stats: SearchStats

    @property
    def conclusive(self) -> bool:
        return self.exhausted or self.r_found > 0


@dataclass(frozen=True)
class SweepSpec:
    n: int
    k: int
    r: int
    d_min: int
    budget: int | None = None
    symmetry_pruning: bool = False

    @property
    def s(self) -> int:
        return self.n - self.k - self.r

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 0 or self.r < 0 or self.d_min < 1:
            raise ValueError("need n >= 1, k, r >= 0 and d_min >= 1")
        if self.s < 1:
            raise ValueError("at least one stabilizer generator is required")
        if 2 * self.n > 24:
            raise ValueError("sweeps are limited to 2n <= 24")


@dataclass
class SweepResult:
    codes: list[SubsystemCode]
    exhausted: bool
    stats: SearchStats

    @property
    def conclusive(self) -> bool:
        return self.exhausted or bool(self.codes)


# --------------------------------------------------------------------------
# shared low-level helpers (plain ints; these run in worker processes)


def _free_cols(pivots: Sequence[int], ncols: int) -> list[list[int]]:
    """Per-row free column positions of an RREF profile."""
    pivot_set = set(pivots)
    return [
        [c for c in range(p + 1, ncols) if c not in pivot_set] for p in pivots
    ]


def _scatter(bits: int, cols: Sequence[int]) -> int:
    v = 0
    for i, c in enumerate(cols):
        if (bits >> i) & 1:
            v |= 1 << c
    return v


def _rref_bases(ncols: int, rank: int) -> Iterator[tuple[int, ...]]:
    """Every rank-``rank`` RREF row tuple over ``ncols`` columns, canonically."""
    for pivots in combinations(range(ncols), rank):
        frees = _free_cols(pivots, ncols)
        for values in product(*(range(1 << len(f)) for f in frees)):
            yield tuple(
                (1 << p) | _scatter(v, f) for p, f, v in zip(pivots, frees, values)
            )


# --------------------------------------------------------------------------
# gauge-symmetry discovery


class _GaugeContext:
    """Immutable picture of the input code, shareable with workers."""

    def __init__(self, code: SubsystemCode, d_min: int):
        self.n = code.n
        self.s = code.s
        self.d_min = d_min
        self.svecs = tuple(g.vec for g in code.stabilizer)
        self.logical_vecs = tuple(op.vec for op in code.logical_ops())
        n = self.n
        self.stab_elim = gf2.Eliminator(self.svecs)
        swapped = [swap_halves(v, n) for v in self.svecs]
        buckets: dict[int, list[int]] = {}
        for v in low_weight_vecs(n, d_min - 1):
            reduced = self.stab_elim.reduce(v)
            if reduced == 0:
                continue  # already a stabilizer element
            buckets.setdefault(gf2.parities(v, swapped), []).append(reduced)
        self.buckets = buckets

    def filter_subspace(self, coeff_rows: tuple[int, ...]) -> list[int] | None:
        """Rank bound: low-weight centralizer classes must fit in r gauge slots.

        Returns independent representatives (mod the old stabilizer) of the
        low-weight classes the gauge span will have to absorb, or None when
        they already outnumber the gauge slots.  Any class of weight below
        d_min left outside the gauge group would be a short logical operator,
        so covering these representative classes is exactly the distance
        requirement.
        """
        r = self.s - len(coeff_rows)
        orth = gf2.kernel_basis(gf2.BinMatrix(self.s, coeff_rows))
        elim = gf2.Eliminator()
        reps: list[int] = []
        buckets = self.buckets
        for sig in _gray_walk(0, orth):
            for reduced in buckets.get(sig, ()):
                if elim.add(reduced):
                    reps.append(reduced)
                    if len(reps) > r:
                        return None
        return reps


_GAUGE_CTX: _GaugeContext | None = None


def _gauge_worker_init(ctx: _GaugeContext) -> None:
    global _GAUGE_CTX
    _GAUGE_CTX = ctx


def _gauge_filter_chunk(pivots: tuple[int, ...]):
    """Filter every subspace with the given pivot profile; return survivors."""
    ctx = _GAUGE_CTX
    if ctx is None:
        raise RuntimeError("gauge filter chunk run before its worker initializer")
    frees = _free_cols(pivots, ctx.s)
    examined = 0
    survivors = []
    for values in product(*(range(1 << len(f)) for f in frees)):
        rows = tuple(
            (1 << p) | _scatter(v, f) for p, f, v in zip(pivots, frees, values)
        )
        examined += 1
        reps = ctx.filter_subspace(rows)
        if reps is not None:
            survivors.append((rows, reps))
    return examined, survivors


def _solve_gauge_partners(
    code: SubsystemCode,
    ctx: _GaugeContext,
    coeff_rows: tuple[int, ...],
    witnesses: list[int],
    stats: SearchStats,
    budget: int | None,
) -> SubsystemCode | None:
    """Depth-first search for commuting x partners over one stabilizer subgroup.

    The z generators are the original stabilizer generators outside the
    subgroup's pivot set.  Each x partner ranges over the affine solution
    space of its commutation constraints, taken modulo shifts that provably
    leave the generated group unchanged (the subgroup itself and the matching
    z generator), so no distinct candidate group is enumerated twice.

    A branch survives only while the witness classes it has not yet absorbed
    still fit into the unassigned gauge slots; a full assignment covering all
    witnesses has distance >= d_min by construction of the witness set.
    """
    n, s = ctx.n, ctx.s
    m = len(coeff_rows)
    r = s - m
    svecs = ctx.svecs
    sprime = []
    for c in coeff_rows:
        v = 0
        for i in range(s):
            if (c >> i) & 1:
                v ^= svecs[i]
        sprime.append(v)
    pivot_set = {(c & -c).bit_length() - 1 for c in coeff_rows}
    gz_idx = [j for j in range(s) if j not in pivot_set]
    gz_vecs = [svecs[j] for j in gz_idx]
    sprime_sw = [swap_halves(v, n) for v in sprime]
    gz_sw = [swap_halves(v, n) for v in gz_vecs]
    logical_sw = [swap_halves(v, n) for v in ctx.logical_vecs]
    sprime_elim = gf2.Eliminator(sprime)

    chosen: list[int] = []

    def assemble() -> SubsystemCode | None:
        stab_ops = tuple(vec_hermitian(n, v) for v in sprime)
        gauge_pairs = tuple(
            (vec_hermitian(n, chosen[i]), code.stabilizer[gz_idx[i]])
            for i in range(r)
        )
        cand = SubsystemCode(n, stab_ops, gauge_pairs, code.logical_pairs)
        try:
            completed = validated(cand)
        except ValueError:
            return None
        if distance(completed, "coset") < ctx.d_min:
            return None
        return completed

    def residual_rank(cover: gf2.Eliminator) -> int:
        probe = cover.copy()
        return sum(1 for w in witnesses if probe.add(w))

    def rec(j: int, cover: gf2.Eliminator, uncovered: int) -> SubsystemCode | None:
        if budget is not None and stats.subspaces + stats.candidates > budget:
            raise _BudgetStop
        if uncovered > r - j:
            return None  # too few slots left to absorb the witness classes
        if j == r:
            return assemble() if uncovered == 0 else None
        rows = [(sw, 0) for sw in sprime_sw]
        rows += [(gz_sw[i], 1 if i == j else 0) for i in range(r)]
        rows += [(sw, 0) for sw in logical_sw]
        rows += [(swap_halves(g, n), 0) for g in chosen]
        sol = gf2.solve_affine(rows, 2 * n)
        if sol is None:
            return None
        particular, kernel = sol
        quotient = sprime_elim.copy()
        quotient.add(gz_vecs[j])
        reps = [kv for kv in kernel if quotient.add(kv)]
        for bits in range(1 << len(reps)):
            gx = particular
            b = bits
            while b:
                low = b & -b
                gx ^= reps[low.bit_length() - 1]
                b ^= low
            stats.candidates += 1
            next_cover = cover.copy()
            next_cover.add(gx)
            chosen.append(gx)
            found = rec(j + 1, next_cover, residual_rank(next_cover))
            chosen.pop()
            if found is not None:
                return found
        return None

    base_cover = ctx.stab_elim.copy()
    return rec(0, base_cover, residual_rank(base_cover))


class _BudgetStop(Exception):
    pass


def find_gauge_symmetries(
    code: SubsystemCode,
    d_min: int,
    budget: int | None = None,
    workers: int = 1,
    progress: ProgressFn | None = None,
) -> GaugeSymmetryResult:
    """Largest r such that the code restructures into r gauge qubits.

    Scans r from high to low; within one r, stabilizer subgroups of corank r
    are enumerated canonically and the first one admitting valid partners
    with distance >= d_min wins.  A conclusive r = 0 requires the whole space
    to have been exhausted.
    """
    c = validated(code)
    if c.r != 0:
        raise ValueError("input must be a stabilizer code (no gauge pairs)")
    if c.k == 0:
        raise ValueError("input code has no logical qubits")
    if d_min < 1:
        raise ValueError("d_min must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ctx = _GaugeContext(c, d_min)
    stats = SearchStats()
    start = time.monotonic()
    s = c.s

    pool = Pool(workers, initializer=_gauge_worker_init, initargs=(ctx,)) if workers > 1 else None
    _gauge_worker_init(ctx)  # main process uses the same path
    try:
        for r in range(s - 1, 0, -1):
            m = s - r
            chunks = list(combinations(range(s), m))
            if pool is not None:
                results = pool.imap(_gauge_filter_chunk, chunks)
            else:
                results = map(_gauge_filter_chunk, chunks)
            for examined, survivors in results:
                stats.subspaces += examined
                if progress and stats.subspaces % PROGRESS_EVERY < examined:
                    stats.elapsed = time.monotonic() - start
                    progress(stats)
                for rows, reps in survivors:
                    try:
                        found = _solve_gauge_partners(c, ctx, rows, reps, stats, budget)
                    except _BudgetStop:
                        stats.elapsed = time.monotonic() - start
                        return GaugeSymmetryResult(0, None, False, stats)
                    if found is not None:
                        stats.elapsed = time.monotonic() - start
                        return GaugeSymmetryResult(r, found, True, stats)
                if budget is not None and stats.subspaces + stats.candidates > budget:
                    stats.elapsed = time.monotonic() - start
                    return GaugeSymmetryResult(0, None, False, stats)
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    stats.elapsed = time.monotonic() - start
    return GaugeSymmetryResult(0, None, True, stats)


# --------------------------------------------------------------------------
# parameter sweeps


class _ParentRows:
    """The first s − 1 rows of a subspace, shared by the leaves extending them.

    ``reduced`` maps a low-weight vector's bit in the commuting masks to the
    vector reduced modulo these rows; siblings fill it on first use.
    """

    __slots__ = ("rows", "elim", "reduced")

    def __init__(self, rows: Sequence[int]):
        self.rows = tuple(rows)
        self.elim = gf2.Eliminator(rows)
        self.reduced: dict[int, int] = {}


class _SweepContext:
    def __init__(self, spec: SweepSpec):
        self.spec = spec
        self.n = spec.n
        self.s = spec.s
        self.r = spec.r
        self.low = tuple(low_weight_vecs(spec.n, spec.d_min - 1))
        # Bit i of a mask stands for self.low[i].  The mask anticommuting
        # with u is linear in u: the XOR, over the bits c of u, of the
        # vectors with bit (c + n) mod 2n set.  Tabulated a byte of u at a time.
        n = spec.n
        self.all_low = (1 << len(self.low)) - 1
        col_masks = [
            sum(1 << i for i, v in enumerate(self.low) if (v >> ((c + n) % (2 * n))) & 1)
            for c in range(2 * n)
        ]
        self.anti_tables = []
        for first in range(0, 2 * n, 8):
            cols = col_masks[first:first + 8]
            table = [0] * (1 << len(cols))
            for byte in range(1, len(table)):
                low = byte & -byte
                table[byte] = table[byte ^ low] ^ cols[low.bit_length() - 1]
            self.anti_tables.append(table)

    def anticommuting(self, u: int) -> int:
        """Mask of the low-weight vectors that anticommute with u."""
        mask = 0
        for table in self.anti_tables:
            mask ^= table[u & 0xFF]
            u >>= 8
        return mask

    def check_subspace(
        self, parent: _ParentRows, u: int, commuting: int
    ) -> list[int] | None:
        """Independent low-weight centralizer classes, or None past the bound.

        The subspace is S = S′ + ⟨u⟩ with S′ = ``parent.rows``, and
        ``commuting`` masks the low-weight vectors commuting with all of S.
        Their classes mod S span rank({u} ∪ L) − 1 dimensions, where L holds
        them reduced mod S′; more than 2r of them reject S.  The rank is
        taken with a small basis that stops as soon as it passes 2r + 1.
        Only a passing S builds its witnesses: the greedy basis of those
        classes in canonical order, whose length is that rank.
        """
        cap = 2 * self.r + 1
        reduce = parent.elim.reduce
        reduced = parent.reduced
        low = self.low
        basis = [reduce(u)]  # nonzero: u is independent of S′
        m = commuting
        while m:
            bit = m & -m
            m ^= bit
            v = reduced.get(bit)
            if v is None:
                v = reduced[bit] = reduce(low[bit.bit_length() - 1])
            # insertion-order reduction on each row's top bit
            for b in basis:
                if v ^ b < v:
                    v ^= b
            if v:
                basis.append(v)
                if len(basis) > cap:
                    return None
        elim = parent.elim.copy()
        elim.add(u)
        witnesses: list[int] = []
        m = commuting
        while m:
            bit = m & -m
            m ^= bit
            v = low[bit.bit_length() - 1]
            if elim.add(v):
                witnesses.append(v)
        return witnesses

    def sectors(
        self, rows: Sequence[int], witnesses: list[int]
    ) -> tuple[int, list[tuple[tuple[int, int], ...]]]:
        """All hyperbolic gauge sectors covering the witnesses; (examined, pairs).

        Sectors are 2r-dimensional subspaces of the q-dimensional quotient
        C(S)/S, in the coordinates of ``qbasis``.  Their RREF bases and span
        masks come from ``_sector_table``, so coverage is one mask test;
        nondegeneracy uses the Gram matrix of ``qbasis``.  A witness's
        coordinates are the tag bits left after reducing it against S and
        ``qbasis``, where ``qbasis[i]`` carries tag bit 2n + i.
        """
        n, r = self.n, self.r
        if r == 0:
            return (1, [()]) if not witnesses else (1, [])
        ncols = 2 * n
        columns = (1 << ncols) - 1
        swapped = [swap_halves(v, n) for v in rows]
        coords = gf2.Eliminator(rows)
        qbasis = []
        for v in gf2.kernel_basis(gf2.BinMatrix(ncols, tuple(swapped))):
            tagged = coords.reduce(v | 1 << (ncols + len(qbasis)))
            if tagged & columns:  # v is independent of S and qbasis
                coords.add(tagged)
                qbasis.append(v)
        q = len(qbasis)
        needed = 0
        for w in witnesses:
            comb = coords.reduce(w)
            if comb & columns:
                raise RuntimeError("witness outside the centralizer of the subspace")
            needed |= 1 << (comb >> ncols)
        qbasis_sw = [swap_halves(v, n) for v in qbasis]
        gram = [
            sum(((v & sw).bit_count() & 1) << j for j, sw in enumerate(qbasis_sw))
            for v in qbasis
        ]
        table = _sector_table(q, 2 * r)
        sectors = []
        for coord_rows, span in table:
            if span & needed != needed:
                continue
            images = [_combine(cr, gram) for cr in coord_rows]
            restricted = [
                sum(((img & cr).bit_count() & 1) << j for j, cr in enumerate(coord_rows))
                for img in images
            ]
            if gf2.Eliminator(restricted).rank != 2 * r:
                continue  # degenerate restriction: not a gauge sector
            lifted = [_combine(cr, qbasis) for cr in coord_rows]
            sectors.append(tuple(_hyperbolic_pairs(lifted, n)))
        return len(table), sectors


def _combine(bits: int, rows: Sequence[int]) -> int:
    """XOR of the rows selected by the set bits."""
    v = 0
    while bits:
        low = bits & -bits
        v ^= rows[low.bit_length() - 1]
        bits ^= low
    return v


@lru_cache(maxsize=None)
def _sector_table(q: int, dim: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every rank-``dim`` RREF basis over q columns with the mask of its span."""
    table = []
    for rows in _rref_bases(q, dim):
        span = 0
        for v in _gray_walk(0, rows):
            span |= 1 << v
        table.append((rows, span))
    return tuple(table)


def _hyperbolic_pairs(basis: list[int], n: int) -> list[tuple[int, int]]:
    """Split a nondegenerate even-dimensional space into anticommuting pairs."""
    work = list(basis)
    pairs = []
    while work:
        a = work[0]
        partner = None
        for b in work[1:]:
            if (a & swap_halves(b, n)).bit_count() & 1:
                partner = b
                break
        if partner is None:
            raise RuntimeError("nondegenerate space must pair up")
        pairs.append((a, partner))
        a_sw = swap_halves(a, n)
        p_sw = swap_halves(partner, n)
        rest = []
        for u in work[1:]:
            if u == partner:
                continue
            if (u & p_sw).bit_count() & 1:
                u ^= a
            if (u & a_sw).bit_count() & 1:
                u ^= partner
            rest.append(u)
        work = rest
    return pairs


def _permute_vec(v: int, perm: Sequence[int], n: int) -> int:
    out = 0
    for j in range(n):
        if (v >> j) & 1:
            out |= 1 << perm[j]
        if (v >> (n + j)) & 1:
            out |= 1 << (n + perm[j])
    return out


def _perm_minimal(rows: Sequence[int], n: int) -> bool:
    base = tuple(rows)
    for perm in permutations(range(n)):
        permuted = [_permute_vec(v, perm, n) for v in rows]
        if gf2.rref(gf2.BinMatrix(2 * n, tuple(permuted)))[0].rows < base:
            return False
    return True


_SWEEP_CTX: _SweepContext | None = None


def _sweep_worker_init(ctx: _SweepContext) -> None:
    global _SWEEP_CTX
    _SWEEP_CTX = ctx


def _sweep_chunk(args):
    """Enumerate one (pivot profile, first row) prefix of the isotropic space.

    Later rows are built from the affine solutions of their commutation
    constraints against the earlier rows, so only isotropic bases are
    visited.  Each level walks its rows in Gray order together with their
    anticommuting masks, and the mask of low-weight vectors commuting with
    every row so far is carried down, one AND per level.
    """
    ctx = _SWEEP_CTX
    if ctx is None:
        raise RuntimeError("sweep chunk run before its worker initializer")
    pivots, row0_bits = args
    n, s = ctx.n, ctx.s
    ncols = 2 * n
    frees = _free_cols(pivots, ncols)
    row0 = (1 << pivots[0]) | _scatter(row0_bits, frees[0])
    prune = ctx.spec.symmetry_pruning

    subspaces = 0
    sectors_examined = 0
    found: list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]] = []

    def walk(level: int, rows: list[int]):
        """(row, anticommuting mask) for each row extending ``rows`` isotropically."""
        free = frees[level]
        base = 1 << pivots[level]
        constraints = []
        for prev in rows:
            sw = swap_halves(prev, n)
            mask = 0
            for i, c in enumerate(free):
                if (sw >> c) & 1:
                    mask |= 1 << i
            constraints.append((mask, (base & sw).bit_count() & 1))
        sol = gf2.solve_affine(constraints, len(free))
        if sol is None:
            return ()
        particular, kernel = sol
        start = base | _scatter(particular, free)
        steps = [_scatter(kv, free) for kv in kernel]
        return zip(
            _gray_walk(start, steps),
            _gray_walk(ctx.anticommuting(start), [ctx.anticommuting(v) for v in steps]),
        )

    def leaves(parent: _ParentRows, candidates, commuting: int) -> None:
        nonlocal subspaces, sectors_examined
        for u, anti in candidates:
            subspaces += 1
            if prune and not _perm_minimal(parent.rows + (u,), n):
                continue
            witnesses = ctx.check_subspace(parent, u, commuting & ~anti)
            if witnesses is None:
                continue
            full_rows = parent.rows + (u,)
            examined, sector_list = ctx.sectors(full_rows, witnesses)
            sectors_examined += examined
            for pairs in sector_list:
                found.append((full_rows, pairs))

    def rec(level: int, rows: list[int], commuting: int) -> None:
        if level == s - 1:
            leaves(_ParentRows(rows), walk(level, rows), commuting)
            return
        for u, anti in walk(level, rows):
            rows.append(u)
            rec(level + 1, rows, commuting & ~anti)
            rows.pop()

    anti0 = ctx.anticommuting(row0)
    if s == 1:
        leaves(_ParentRows(()), [(row0, anti0)], ctx.all_low)
    else:
        rec(1, [row0], ctx.all_low & ~anti0)
    return subspaces, sectors_examined, found


def _sweep_chunks(spec: SweepSpec) -> list[tuple[tuple[int, ...], int]]:
    ncols = 2 * spec.n
    chunks = []
    for pivots in combinations(range(ncols), spec.s):
        f0 = len(_free_cols(pivots, ncols)[0])
        chunks.extend((pivots, bits) for bits in range(1 << f0))
    return chunks


def sweep_nonexistence(
    spec: SweepSpec,
    workers: int = 1,
    progress: ProgressFn | None = None,
) -> SweepResult:
    """Enumerate every candidate at [[n, k, r]] and keep those with d >= d_min.

    Parameter points already excluded by the Singleton bound short-circuit to
    an exhausted empty result.  ``exhausted`` is False whenever the budget
    stopped the enumeration early, in which case an empty result is
    inconclusive.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    stats = SearchStats()
    start = time.monotonic()
    if not singleton_check(spec.n, spec.k, spec.d_min):
        stats.elapsed = time.monotonic() - start
        return SweepResult([], True, stats)

    ctx = _SweepContext(spec)
    chunks = _sweep_chunks(spec)
    codes: list[SubsystemCode] = []
    exhausted = True

    pool = (
        Pool(workers, initializer=_sweep_worker_init, initargs=(ctx,))
        if workers > 1
        else None
    )
    _sweep_worker_init(ctx)
    try:
        chunksize = max(1, len(chunks) // (32 * workers)) if pool else 1
        results = (
            pool.imap(_sweep_chunk, chunks, chunksize=chunksize)
            if pool
            else map(_sweep_chunk, chunks)
        )
        for subspaces, sectors_examined, found in results:
            stats.subspaces += subspaces
            stats.sectors += sectors_examined
            for rows, pairs in found:
                stats.candidates += 1
                cand = SubsystemCode(
                    spec.n,
                    tuple(vec_hermitian(spec.n, v) for v in rows),
                    tuple(
                        (vec_hermitian(spec.n, gx), vec_hermitian(spec.n, gz))
                        for gx, gz in pairs
                    ),
                )
                completed = validated(cand)
                d = distance(completed, "coset")
                if d >= spec.d_min:
                    codes.append(completed)
            if progress and stats.subspaces % PROGRESS_EVERY < subspaces:
                stats.elapsed = time.monotonic() - start
                progress(stats)
            if spec.budget is not None and stats.subspaces + stats.sectors > spec.budget:
                exhausted = False
                break
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    stats.elapsed = time.monotonic() - start
    return SweepResult(codes, exhausted, stats)
