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

Work is split across workers by enumeration prefix; results are merged in
canonical enumeration order, so verdicts and outputs are identical for any
worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, permutations, product
from multiprocessing import Pool
from typing import Callable, Iterator, Sequence

from . import gf2
from .code import SubsystemCode, singleton_check, validated
from .distance import distance
from .pauli import swap_halves, vec_hermitian

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


def _gray_vectors(rows: Sequence[int]) -> Iterator[int]:
    """All XOR combinations of rows, starting from 0, one flip per step."""
    v = 0
    yield v
    for i in range(1, 1 << len(rows)):
        v ^= rows[(i & -i).bit_length() - 1]
        yield v


def _low_weight_vecs(n: int, wmax: int) -> list[int]:
    """(x|z) vectors of every Pauli with weight 1..wmax, canonical order."""
    bits = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
    out = []
    for w in range(1, wmax + 1):
        for qubits in combinations(range(n), w):
            for letters in product("XYZ", repeat=w):
                x = z = 0
                for q, letter in zip(qubits, letters):
                    xb, zb = bits[letter]
                    x |= xb << q
                    z |= zb << q
                out.append(x | (z << n))
    return out


def _kernel_ints(rows: Sequence[int], ncols: int) -> list[int]:
    return gf2.kernel_basis(gf2.BinMatrix(ncols, tuple(rows)))


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
        stab_elim = gf2.Eliminator(self.svecs)
        swapped = [swap_halves(v, n) for v in self.svecs]
        buckets: dict[int, list[int]] = {}
        for v in _low_weight_vecs(n, d_min - 1):
            reduced = stab_elim.reduce(v)
            if reduced == 0:
                continue  # already a stabilizer element
            sig = 0
            for i, sw in enumerate(swapped):
                if (v & sw).bit_count() & 1:
                    sig |= 1 << i
            buckets.setdefault(sig, []).append(reduced)
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
        orth = _kernel_ints(coeff_rows, self.s)
        elim = gf2.Eliminator()
        reps: list[int] = []
        buckets = self.buckets
        for sig in _gray_vectors(orth):
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
    stab_elim = gf2.Eliminator(svecs)

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
        quotient = gf2.Eliminator(sprime)
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

    base_cover = stab_elim.copy()
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


class _SweepContext:
    def __init__(self, spec: SweepSpec):
        self.spec = spec
        self.n = spec.n
        self.s = spec.s
        self.r = spec.r
        self.low = tuple(_low_weight_vecs(spec.n, spec.d_min - 1))

    def check_subspace(self, rows: Sequence[int]) -> list[int] | None:
        """Independent low-weight centralizer classes, or None past the bound."""
        n = self.n
        cap = 2 * self.r
        swapped = [swap_halves(v, n) for v in rows]
        elim = gf2.Eliminator(rows)
        witnesses: list[int] = []
        for v in self.low:
            for sw in swapped:
                if (v & sw).bit_count() & 1:
                    break
            else:
                if elim.add(v):
                    witnesses.append(v)
                    if len(witnesses) > cap:
                        return None
        return witnesses

    def sectors(
        self, rows: Sequence[int], witnesses: list[int]
    ) -> tuple[int, list[tuple[tuple[int, int], ...]]]:
        """All hyperbolic gauge sectors covering the witnesses; (examined, pairs)."""
        n, s, r = self.n, self.s, self.r
        if r == 0:
            return (1, [()]) if not witnesses else (1, [])
        swapped = [swap_halves(v, n) for v in rows]
        ns_basis = _kernel_ints(swapped, 2 * n)
        elim = gf2.Eliminator(rows)
        qbasis = [v for v in ns_basis if elim.add(v)]
        q = len(qbasis)
        coord_matrix = gf2.BinMatrix(2 * n, tuple(qbasis) + tuple(rows))
        wcoords = []
        for w in witnesses:
            comb = gf2.solve_membership(coord_matrix, w)
            if comb is None:
                raise RuntimeError("witness outside the centralizer of the subspace")
            wcoords.append(comb & ((1 << q) - 1))
        examined = 0
        sectors = []
        for coord_rows in _rref_bases(q, 2 * r):
            examined += 1
            elim_c = gf2.Eliminator(coord_rows)
            if not all(elim_c.contains(wc) for wc in wcoords):
                continue
            lifted = []
            for cr in coord_rows:
                v = 0
                for i in range(q):
                    if (cr >> i) & 1:
                        v ^= qbasis[i]
                lifted.append(v)
            lifted_sw = [swap_halves(v, n) for v in lifted]
            gram = []
            for v in lifted:
                bits = 0
                for jj, sw in enumerate(lifted_sw):
                    if (v & sw).bit_count() & 1:
                        bits |= 1 << jj
                gram.append(bits)
            if gf2.Eliminator(gram).rank != 2 * r:
                continue  # degenerate restriction: not a gauge sector
            sectors.append(tuple(_hyperbolic_pairs(lifted, n)))
        return examined, sectors


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


def _canonical_rows(rows: Sequence[int], ncols: int) -> tuple[int, ...]:
    return gf2.rref(gf2.BinMatrix(ncols, tuple(rows)))[0].rows


def _perm_minimal(rows: Sequence[int], n: int) -> bool:
    base = tuple(rows)
    for perm in permutations(range(n)):
        permuted = [_permute_vec(v, perm, n) for v in rows]
        if _canonical_rows(permuted, 2 * n) < base:
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
    visited.
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

    def rec(level: int, rows: list[int]) -> None:
        nonlocal subspaces, sectors_examined
        if level == s:
            full_rows = tuple(rows)
            subspaces += 1
            if prune and not _perm_minimal(full_rows, n):
                return
            witnesses = ctx.check_subspace(full_rows)
            if witnesses is None:
                return
            examined, sector_list = ctx.sectors(full_rows, witnesses)
            sectors_examined += examined
            for pairs in sector_list:
                found.append((full_rows, pairs))
            return
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
            return
        particular, kernel = sol
        for bits in _gray_vectors(kernel):
            value = particular ^ bits
            rows.append(base | _scatter(value, free))
            rec(level + 1, rows)
            rows.pop()

    rec(1, [row0])
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
