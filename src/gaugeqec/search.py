"""Exhaustive structure searches over subsystem codes.

Two searches live here.  ``find_gauge_symmetries`` looks for gauge structure
hiding inside an existing stabilizer code: it enumerates subgroups of the
stabilizer, keeps the dropped generators as gauge z operators, and reads
their x partners off one completed symplectic frame.  ``sweep_nonexistence``
enumerates every isotropic stabilizer subspace at a target parameter point
together with every hyperbolic gauge sector, to prove codes with those
parameters do or do not exist.

The gauge search needs no bound.  Keeping a subgroup S′ of the stabilizer S
and the logical operators L fixes the gauge group: G = S + ⟨gx⟩ lies in
C(S′) ∩ C(L), and for a stabilizer input both have dimension s + r, so
they are equal.  The restructured code keeps d >= d_min exactly when no
Pauli of weight below d_min whose syndrome lies in K = S′^⊥ anticommutes
with a logical operator; those syndromes are one bitmask per code, and K
is walked depth-first, each node masking the syndromes whose coset meets
it.  A profile's canonically least survivor is fixed one row bit at a
time, each bit asking the walk for one survivor at most, and a profile
whose K outgrows the syndromes outside the mask is not walked at all.
``frame_rows`` derives each gauge x partner as a row of the frame that
the kept z operators, S′ and L complete to, fixed modulo S, so partners
need no search.

The sweep prunes by a necessary rank bound: any operator of weight below
the distance target that commutes with the candidate stabilizer must end up
inside the gauge group, so their span modulo the stabilizer cannot exceed
2r; no candidate is lost.  The depth-first enumeration (``_sweep_chunk``)
solves a node's commutation constraints on the next level once and hands
the solve, the span and one mask of commuting low-weight classes to its
children, each refined with one XOR per step of their Gray-code walk.
With S = S′ + ⟨u⟩, a leaf is rejected when its commuting low-weight classes
number more than 2^(2r+1) − 1 mod S′, counted in the walk that makes it,
or 2^(2r) − 1 mod S, counted by ``check_subspace`` before its exact rank
loop.  A surviving leaf reads its gauge sectors off a table of coordinate
bases built once per shape.  A covering sector puts every commuting Pauli of
weight below d_min into the gauge group, so each nondegenerate one is a code
with d >= d_min.  The job that finds it checks its integer rows and
completes them to a frame once, and the code is read off the frame;
``distance.logical_weight`` on the code's rows is only a guard.

Both run through one loop, ``_search``, which splits work across workers
by enumeration prefix with ``parallel.ordered_map`` and merges results in
canonical order, so verdicts and outputs are identical for any worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, islice, product
from typing import Callable, Iterator, Sequence

from . import gf2
from .code import SubsystemCode, frame_rows, singleton_check, validated
from .distance import logical_weight
from .parallel import check_workers, ordered_map
from .pauli import key_layers, letter_keys, letter_vecs, swap_halves, weight_sums

ProgressFn = Callable[["SearchStats"], None]

PROGRESS_EVERY = 20000
# find-gauge holds 2^s-bit syndrome masks and lists 2^s − 2 pivot profiles
MAX_GAUGE_STABILIZERS = 20


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

    @property
    def s(self) -> int:
        return self.n - self.k - self.r

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1 or self.r < 0 or self.d_min < 1:
            raise ValueError("need n, k >= 1, r >= 0 and d_min >= 1")
        if self.s < 1:
            raise ValueError("at least one stabilizer generator is required")
        if 2 * self.n > 24:
            raise ValueError("sweeps are limited to 2n <= 24")
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be >= 1 (None for no limit), got {self.budget}")


@dataclass
class SweepResult:
    codes: list[SubsystemCode]
    exhausted: bool
    stats: SearchStats

    @property
    def conclusive(self) -> bool:
        return self.exhausted or bool(self.codes)


def _search(job, ctx, jobs, workers: int, budget: int | None, progress: ProgressFn | None,
            start: float, first: Callable | None = None) -> tuple[list, bool, SearchStats]:
    """(finds, exhausted, stats) of ``job(ctx, j)`` over ``jobs`` in order.

    Each job returns (subspaces, sectors, finds).  With a budget the pool
    takes one job per batch, and the search stops after the job that takes
    subspaces + sectors past it.  Progress counts the job that triggered it.
    With ``first``, the search stops at its first find f and returns
    [first(f)].  ``elapsed`` runs from ``start``.
    """
    stats, finds, exhausted = SearchStats(), [], True
    for subspaces, sectors, found in ordered_map(job, ctx, jobs, workers, budget is not None):
        stats.subspaces += subspaces
        stats.sectors += sectors
        finds += found
        stats.candidates = len(finds)
        if progress and stats.subspaces % PROGRESS_EVERY < subspaces:
            stats.elapsed = time.monotonic() - start
            progress(stats)
        if first and finds:
            finds = [first(finds[0])]
            break
        if budget is not None and stats.subspaces + stats.sectors > budget:
            exhausted = False
            break
    stats.elapsed = time.monotonic() - start
    return finds, exhausted, stats


# --------------------------------------------------------------------------
# shared low-level helpers (plain ints; these run in worker processes)


def _free_cols(pivots: Sequence[int], ncols: int) -> list[list[int]]:
    """Per-row free column positions of an RREF profile."""
    pivot_set = set(pivots)
    return [
        [c for c in range(p + 1, ncols) if c not in pivot_set] for p in pivots
    ]


def _combine(bits: int, rows: Sequence[int]) -> int:
    """XOR of the rows selected by the set bits."""
    v = 0
    while bits:
        low = bits & -bits
        v ^= rows[low.bit_length() - 1]
        bits ^= low
    return v


def _rref_bases(ncols: int, rank: int) -> Iterator[tuple[int, ...]]:
    """Every rank-``rank`` RREF row tuple over ``ncols`` columns, canonically."""
    for pivots in combinations(range(ncols), rank):
        frees = [[1 << c for c in f] for f in _free_cols(pivots, ncols)]
        for values in product(*(range(1 << len(f)) for f in frees)):
            yield tuple(
                (1 << p) | _combine(v, f) for p, f, v in zip(pivots, frees, values)
            )


# --------------------------------------------------------------------------
# gauge-symmetry discovery


class _GaugeContext:
    """Immutable picture of the input code, shareable with workers.

    Bit ``sig`` of ``bad`` is set when a Pauli of weight 1 to d_min − 1 with
    syndrome ``sig`` anticommutes with a logical operator (``key_layers``);
    the first with syndrome 0 ends the build, ``bad`` holds only bit 0 and ``r_cap`` is 0.
    Else a dual K of dimension r that avoids ``bad`` holds 2^r − 1 nonzero
    syndromes outside it, so r is at most ``r_cap``, log2 of one more than
    their count.
    """

    def __init__(self, code: SubsystemCode, d_min: int):
        self.s, self.bad, letters = (s := code.s), 0, letter_keys(code.n, code.rows)
        # halves[j] masks each y < 2^s with bit j clear
        self.halves = [((1 << (1 << s)) - 1) // ((1 << (2 << j)) - 1) * ((1 << (1 << j)) - 1)
                       for j in range(s)]
        # a key holds the syndrome in its low s bits and the logical label above them
        for key in (k for layer in islice(key_layers(letters, len(code.rows)), d_min - 1) for k in layer):
            if key >> s:
                self.bad |= 1 << (key & ((1 << s) - 1))
                if self.bad & 1:
                    self.bad = 1
                    break
        self.r_cap = 0 if self.bad & 1 else ((1 << s) - (self.bad >> 1).bit_count()).bit_length() - 1


def _gauge_survivors(ctx: _GaugeContext, pivots: tuple[int, ...],
                     masks: Sequence[int] | None = None) -> Iterator[tuple[int, ...]]:
    """The RREF rows of every subgroup S′ with this pivot profile that keeps d >= d_min.

    S′ survives when no syndrome in K = S′^⊥ is ``bad``.  K has one basis
    vector k per free column f of S′: bit f plus the pivots of the rows
    holding bit f, any subset of the pivots below f.  Choosing them
    depth-first walks every S′ of the profile once, k ascending at each
    level.  ``masks``, one per free column in ascending order, narrows the
    candidate k of each level to its set bits.  A node with span K′ holds a
    2^s-bit mask ``blocked``, bit k set when k + K′ meets ``bad``; taking k
    ORs in ``blocked`` XOR-translated by k (each bit j of k swaps adjacent
    2^j-bit blocks) and sets bit f of the rows holding its pivots.
    """
    levels = []  # per free column f: f, the pivots below it, the mask of its candidate k
    for f in (f for f in range(ctx.s) if f not in pivots):
        lower, mask = pivots[:f - len(levels)], 1 << (1 << f)
        for p in lower:
            mask |= mask << (1 << p)
        levels.append((f, lower, mask if masks is None else mask & masks[len(levels)]))

    def rec(level: int, blocked: int, rows: list[int]) -> Iterator[tuple[int, ...]]:
        f, lower, open_ = levels[level]
        open_ &= ~blocked
        while open_:
            k = (open_ & -open_).bit_length() - 1
            open_ &= open_ - 1
            moved, child = blocked, [row ^ (k >> p & 1) << f for row, p in zip(rows, pivots)]
            for j in (f, *lower):
                if k >> j & 1:
                    moved = (moved & ctx.halves[j]) << (1 << j) | moved >> (1 << j) & ctx.halves[j]
            yield from rec(level + 1, blocked | moved, child) if level + 1 < len(levels) else [tuple(child)]

    if not ctx.bad & 1:  # else a logical operator below d_min commutes with every S′
        yield from rec(0, ctx.bad, [1 << p for p in pivots])


def _gauge_filter_chunk(ctx: _GaugeContext, pivots: tuple[int, ...]):
    """(examined, the canonical first survivor or None); pivot p's row has a bit per free f > p.

    The least rows are fixed one entry at a time, most significant first:
    pivot p's row, its free columns f > p descending.  Entry (p, f) is bit
    p of k_f.  ``best``, the last survivor found, keeps every entry fixed so
    far; where it has a 1 the walker is asked for a survivor with a 0 there
    (level f's candidates masked by ``halves[p]``).  A dual of dimension
    s − m past ``r_cap`` leaves no survivor and is not walked.
    """
    m, r = len(pivots), ctx.s - len(pivots)
    examined = 1 << m * r + m * (m - 1) // 2 - sum(pivots)  # the sum of r − p + i over rows i
    if r > ctx.r_cap:
        return examined, None
    masks = [-1] * r
    best = next(_gauge_survivors(ctx, pivots, masks), None)
    frees, halves = [f for f in range(ctx.s) if f not in pivots], ctx.halves
    for i, p in enumerate(pivots if best else ()):
        for j in reversed(range(p - i, len(frees))):  # frees[j] > p exactly when j >= p − i
            kept, masks[j] = masks[j], masks[j] & halves[p]
            if best[i] >> frees[j] & 1:
                found = next(_gauge_survivors(ctx, pivots, masks), None)
                if found is None:
                    masks[j] ^= kept  # kept & ~halves[p]: the entry is 1
                else:
                    best = found
    return examined, best


def _gauge_job(ctx: _GaugeContext, pivots: tuple[int, ...]):
    """``_gauge_filter_chunk`` as a search job: (examined, 0, its survivor if any)."""
    examined, rows = _gauge_filter_chunk(ctx, pivots)
    return examined, 0, () if rows is None else (rows,)


def _solve_gauge_partners(
    code: SubsystemCode, d_min: int, coeff_rows: tuple[int, ...]
) -> SubsystemCode:
    """The restructured code of one stabilizer subgroup, one x partner per gauge slot.

    The z generators gz are the stabilizer generators outside the subgroup's
    pivot set.  Each goes to ``frame_rows`` as a gauge pair (None, gz_i), so
    its x partner gx_i is the frame row that commutes with S′, the logical
    operators, the other gz and the partners before it, and anticommutes
    with gz_i alone.  Such rows form one coset of S, because in a stabilizer
    code only S commutes with S and the logical operators, and S + ⟨gx⟩
    depends on each gx_i modulo S only.  The subgroup must have passed the
    syndrome filter, so a distance below d_min is an error.
    """
    s = code.s
    svecs = code.rows[:s]
    pivot_set = {(c & -c).bit_length() - 1 for c in coeff_rows}
    pairs = [(None, v) for j, v in enumerate(svecs) if j not in pivot_set]
    return _guarded_code(code.n, [_combine(c, svecs) for c in coeff_rows], pairs, d_min,
                         code.rows[s:], code.signs[s:])


def _guarded_code(n: int, stab, pairs, d_min: int, logical=(), logical_signs=()) -> SubsystemCode:
    """``validated`` of (x|z) stabilizer rows, gauge (x, z) row pairs and logical rows.

    ``frame_rows`` checks and completes the rows, deriving a gauge x row
    given as None, and reads the code off them; invalid rows raise the
    ValueError of ``validated``.  Both searches build only codes that keep
    d >= d_min, so ``logical_weight`` with limit d_min, exact and walking
    key layers up to d_min / 2 only, is a guard: a code below d_min raises
    RuntimeError.  Only the supplied logical rows carry sign exponents,
    ``logical_signs``; a sweep supplies none.
    """
    g = len(stab) + 2 * len(pairs)
    sector = [v for pair in pairs for v in pair] + list(logical)
    signs = (0,) * g + tuple(logical_signs)
    violations, code = frame_rows(n, stab, sector, len(pairs), signs=signs)
    if code is None:
        raise ValueError("invalid code: " + "; ".join(message for message, _ in violations))
    if logical_weight(n, code.rows[:code.s], code.rows[g:], d_min) < d_min:
        raise RuntimeError(f"a code built to keep d >= d_min has d < {d_min}")
    return code


def find_gauge_symmetries(
    code: SubsystemCode,
    d_min: int,
    budget: int | None = None,
    workers: int = 1,
    progress: ProgressFn | None = None,
) -> GaugeSymmetryResult:
    """Largest r <= s − 1 such that the code restructures into r gauge qubits.

    Scans r from s − 1 down to 1, one pivot profile of corank-r stabilizer
    subgroups at a time, so at least one stabilizer generator always stays
    (at d_min = 1 ``steane7`` gives r = 5 and ``shor9`` r = 7).  Assembles
    the canonically first subgroup that passes the syndrome filter, which
    ``_gauge_filter_chunk`` finds without listing the others;
    ``stats.candidates`` counts the codes assembled, 0 or 1.  A conclusive
    r = 0 requires the whole space to have been exhausted.  A code with
    s > ``MAX_GAUGE_STABILIZERS`` raises ValueError.
    """
    start = time.monotonic()
    c = validated(code)
    if c.r != 0:
        raise ValueError("input must be a stabilizer code (no gauge pairs)")
    if c.k == 0:
        raise ValueError("input code has no logical qubits")
    if d_min < 1:
        raise ValueError("d_min must be >= 1")
    check_workers(workers)
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1 (None for no limit), got {budget}")
    if c.s > MAX_GAUGE_STABILIZERS:
        raise ValueError(f"s = {c.s} stabilizer generators exceed the cap {MAX_GAUGE_STABILIZERS}")
    profiles = [pivots for m in range(1, c.s) for pivots in combinations(range(c.s), m)]
    finds, exhausted, stats = _search(_gauge_job, _GaugeContext(c, d_min), profiles, workers,
                                      budget, progress, start, partial(_solve_gauge_partners, c, d_min))
    found = finds[0] if finds else None
    return GaugeSymmetryResult(found.r if found else 0, found, exhausted, stats)


# --------------------------------------------------------------------------
# parameter sweeps


class _SweepContext:
    def __init__(self, spec: SweepSpec):
        self.n, self.s, self.r, self.d_min = spec.n, spec.s, spec.r, spec.d_min
        self.low = tuple(v for w in range(1, spec.d_min) for v in weight_sums(letter_vecs(spec.n), w))
        # Bit i of a mask stands for self.low[i]; ``anti(u)`` masks the
        # low-weight vectors that anticommute with u.
        anti = gf2.ParityMap((swap_halves(v, spec.n) for v in self.low), 2 * spec.n)
        self.anti = anti.__call__  # a bound method is cheaper to call than the instance
        # a passing leaf's commuting classes span at most 2r + 1 dimensions mod S′, 2r mod S
        self.class_cap, self.leaf_cap = (1 << (2 * spec.r + 1)) - 1, (1 << (2 * spec.r)) - 1
        # the zero class counts as holding a lower vector
        self.index = {v: i for i, v in enumerate(self.low)} | {0: -1}
        self.dups: dict[int, int] = {}
        self.profile: tuple = (None,)  # (pivots, state) of the last profile ``_sweep_chunk`` swept

    def dup(self, g: int) -> int:
        """Mask of the low-weight vectors v with v + g zero or an earlier low vector.

        ORed over every g in S′, it marks all but the first low-weight
        vector of each nonzero class mod S′, and the whole zero class.
        Stored in ``dups``, which callers read first.
        """
        index = self.index
        mask = self.dups[g] = sum(1 << i for i, v in enumerate(self.low) if index.get(v ^ g, i) < i)
        return mask

    def leaf_classes(self, span: Sequence[int], u: int, reps: int) -> int:
        """``reps`` with one bit left per distinct nonzero class mod S = S′ + ⟨u⟩.

        ``span`` lists S′.  ``dup(g ^ u)`` over g in S′ marks each v with
        v + u + g zero or an earlier low vector, which commutes with S when v
        does.
        """
        merged = 0
        for g in span:
            m = self.dups.get(g ^ u)
            merged |= self.dup(g ^ u) if m is None else m
        return reps & ~merged

    def check_subspace(
        self, rows: tuple[int, ...], span: Sequence[int], u: int, reps: int
    ) -> list[int] | None:
        """Independent low-weight centralizer classes, or None past the bound.

        The subspace is S = S′ + ⟨u⟩, S′ given by its RREF ``rows`` and its
        ``span``, and ``reps`` masks the first low-weight vector of each
        nonzero class mod S′ that commutes with all of S.  ``leaf_classes``
        merges them mod S; more than 2^(2r) − 1 distinct nonzero classes
        reject S with no rank taken.  Then u and each class's vector are
        kept greedily, in that order, when independent of S′ and of those
        kept before: reduced mod S′ on each row's lowest bit, its pivot, and
        against the kept reductions on their top bits.  Past 2r + 1 kept,
        S is rejected; otherwise the vectors kept after u are the witnesses,
        a basis of those classes mod S in canonical order.
        """
        m = self.leaf_classes(span, u, reps)
        if m.bit_count() > self.leaf_cap:
            return None
        kept, basis, w = [], [], u
        while True:
            v = w
            for row in rows:
                if v & row & -row:
                    v ^= row
            for b in basis:  # insertion-order reduction on each row's top bit
                if v ^ b < v:
                    v ^= b
            if v:
                basis.append(v)
                kept.append(w)
                if len(kept) > 2 * self.r + 1:
                    return None
            if not m:
                return kept[1:]
            bit = m & -m
            m ^= bit
            w = self.low[bit.bit_length() - 1]

    def sectors(
        self, rows: Sequence[int], witnesses: list[int]
    ) -> tuple[int, list[tuple[tuple[int, int], ...]]]:
        """All hyperbolic gauge sectors covering the witnesses; (examined, pairs).

        Sectors are 2r-dimensional subspaces of the q-dimensional quotient
        C(S)/S, in the coordinates of ``qbasis``.  Their RREF bases and span
        masks come from ``_sector_table``, so coverage is one mask test, and
        a covering sector is kept exactly when ``_hyperbolic_pairs`` splits
        it, which is when it is nondegenerate.  A witness's coordinates are
        the tag bits left after reducing it against S and ``qbasis``, where
        ``qbasis[i]`` carries tag bit 2n + i.

        A nondegenerate space containing the witness span W has dimension at
        least dim W + dim rad W, so when that exceeds 2r no sector exists and
        ``qbasis`` is never built; every sector still counts as examined.
        """
        n, r = self.n, self.r
        table = _sector_table(2 * (n - len(rows)), 2 * r)
        witnesses_sw = [swap_halves(w, n) for w in witnesses]
        w_gram = gf2.Eliminator(gf2.parities(w, witnesses_sw) for w in witnesses)
        if 2 * len(witnesses) - w_gram.rank > 2 * r:
            return len(table), []
        ncols = 2 * n
        columns = (1 << ncols) - 1
        coords = gf2.Eliminator(rows)
        qbasis = []
        for v in gf2.Eliminator(swap_halves(g, n) for g in rows).kernel(range(ncols)):
            tagged = coords.reduce(v | 1 << (ncols + len(qbasis)))
            if tagged & columns:  # v is independent of S and qbasis
                coords.insert(tagged)
                qbasis.append(v)
        needed = 0
        for w in witnesses:
            comb = coords.reduce(w)
            if comb & columns:
                raise RuntimeError("witness outside the centralizer of the subspace")
            needed |= 1 << (comb >> ncols)
        sectors = []
        for coord_rows, span in table:
            if span & needed == needed:
                pairs = _hyperbolic_pairs([_combine(cr, qbasis) for cr in coord_rows], n)
                if pairs is not None:
                    sectors.append(pairs)
        return len(table), sectors


@lru_cache(maxsize=None)
def _gray_order(m: int) -> tuple[int | None, ...]:
    """None, then the step each later move of an m-step Gray-code walk flips."""
    return (None,) + tuple((i & -i).bit_length() - 1 for i in range(1, 1 << m))


@lru_cache(maxsize=None)
def _sector_table(q: int, dim: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every rank-``dim`` RREF basis over q columns with the mask of its span."""
    table = []
    for rows in _rref_bases(q, dim):
        span = 0
        for v in gf2.gray_walk(0, rows):
            span |= 1 << v
        table.append((rows, span))
    return tuple(table)


def _hyperbolic_pairs(basis: list[int], n: int) -> tuple[tuple[int, int], ...] | None:
    """Split the span of ``basis`` into anticommuting pairs; None if it is degenerate.

    Each step pairs the first vector with the first that anticommutes with
    it and makes the rest commute with both.  A first vector with no such
    partner commutes with the whole span, so the span has a radical.
    """
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
            return None
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
    return tuple(pairs)


def _sweep_chunk(ctx: _SweepContext, args):
    """Enumerate one (pivot profile, first row) prefix of the isotropic space.

    Later rows are built from the affine solutions of their commutation
    constraints against the earlier rows, so only isotropic bases are
    visited.  A level's constraint against a row is the row's swapped form
    on the level's free columns, with the parity it leaves for the pivot bit
    as a tag bit at column 2n.  A node's ``solve`` of its rows' constraints
    on the next level is the RREF start plus one kernel vector k_f per
    remaining free column f.  Each child adds one constraint row, reduced
    against that solve to r, which follows the children's Gray-code walk
    with one XOR per step.  r = 0 keeps the node's solutions; the tag bit
    alone (0 = 1) drops the child; otherwise r's lowest bit p becomes a
    pivot, and every k_f gains r_f·k_p, the start as the k of the tag
    column.  The free columns and the root's solve depend on the pivot
    profile alone; ``ctx.profile`` keeps them for the last profile swept.

    Each of those vectors v is held as v | anti(v) << 2n.  ``anti`` is
    linear, so the same XOR moves both parts and x & ``cols`` reads v.  A
    node is (rows, span, classes, u, steps): its rows (shared), their span
    (None at a leaf-parent, which holds s − 1 rows S′), the class mask, its
    children's start u and their Gray-walk steps.  Bit i of ``classes`` is
    set when low[i] commutes with every row and is the first low-weight
    vector of its nonzero class mod the span; a child that adds v clears
    anti(v) and ``dup`` of every new span element.  ``rec`` walks a
    leaf-parent's leaves in the loop that takes it from ``children`` (at
    s = 1, from the chunk): a leaf keeps reps = classes & ~anti(u).  A leaf
    with more reps than ``class_cap`` costs one AND and one popcount; the
    first other leaf makes S′, the rows as a tuple, and its span, and
    ``check_subspace`` takes both with u and reps alone.
    Returns (subspaces, sectors examined, the codes of the kept sectors).
    """
    pivots, row0_bits = args
    n, s = ctx.n, ctx.s
    ncols = 2 * n
    tag, cols = 1 << ncols, (1 << ncols) - 1
    anti_of, dup, stored_dup, cap = ctx.anti, ctx.dup, ctx.dups.get, ctx.class_cap

    subspaces = sectors_examined = 0
    codes: list[SubsystemCode] = []

    def constraint(level: int, v: int) -> int:
        sw = swap_halves(v & cols, n)
        return sw & free_masks[level] | ((sw >> pivots[level]) & 1) << ncols

    def solve(level, rows):
        """(elim, kernel, its values, start) of the rows' constraints on the next level."""
        elim = gf2.Eliminator(constraint(level + 1, v) for v in rows)
        if elim.pivots and elim.pivots[-1][0] == ncols:
            return None, None, None, None  # 0 = 1
        # k_f holds the pivots below its free column f, which is its top bit
        kernel = {k.bit_length() - 1: k | anti_of(k) << ncols for k in elim.kernel(frees[level + 1])}
        start = 1 << pivots[level + 1] | elim.solution(ncols)
        return elim, kernel, list(kernel.values()), start | anti_of(start) << ncols

    if ctx.profile[0] != pivots:  # a profile's chunks are consecutive jobs
        frees = _free_cols(pivots, ncols)
        free_masks = [sum(1 << c for c in free) for free in frees]
        ctx.profile = (pivots, frees, free_masks, [1 << c for c in frees[0]], solve(0, []) if s > 1 else None)
    _, frees, free_masks, row0_cols, root = ctx.profile
    row0 = (1 << pivots[0]) | _combine(row0_bits, row0_cols)

    def children(level, rows, span, classes, u, steps):
        """The children of a node holding ``level`` rows, as nodes for ``rec``."""
        elim, kernel, kept, start = solve(level, rows) if level else root
        if kernel is None:
            return  # the rows' constraints on the next level are 0 = 1
        carry = level + 2 < s  # the children are not leaf-parents
        r = elim.reduce(constraint(level + 1, u))
        r_steps = [elim.reduce(constraint(level + 1, v)) for v in steps]
        for b in _gray_order(len(steps)):
            if b is not None:
                u ^= steps[b]
                r ^= r_steps[b]
            if r == tag:
                continue  # the child's constraints reduce to 0 = 1
            child_start, child_steps = start, kept
            if r:  # the start is the k of the tag column
                p = (r & -r).bit_length() - 1
                kp = kernel[p]
                child_steps = [k ^ kp if r >> f & 1 else k for f, k in kernel.items() if f != p]
                child_start = start ^ kp if r & tag else start
            v = u & cols
            cleared = u >> ncols
            for g in span:
                m = stored_dup(g ^ v)
                cleared |= dup(g ^ v) if m is None else m
            rows.append(v)
            yield rows, span + [g ^ v for g in span] if carry else None, classes & ~cleared, child_start, child_steps
            rows.pop()

    def rec(level, nodes) -> None:
        """Descend into ``nodes``, which hold ``level`` rows; walk the leaves of leaf-parents."""
        nonlocal subspaces, sectors_examined
        for rows, span, classes, u, steps in nodes:
            if level < s - 1:
                rec(level + 1, children(level, rows, span, classes, u, steps))
                continue
            subspaces += 1 << len(steps)
            sprime = None  # S′ as a tuple, made at the first leaf past the class count
            for b in _gray_order(len(steps)):
                if b is not None:
                    u ^= steps[b]
                reps = classes & ~(u >> ncols)
                if reps.bit_count() > cap:
                    continue
                if sprime is None:
                    sprime = tuple(rows)
                    span = list(gf2.gray_walk(0, sprime))
                v = u & cols
                witnesses = ctx.check_subspace(sprime, span, v, reps)
                if witnesses is None:
                    continue
                full_rows = sprime + (v,)
                examined, sector_list = ctx.sectors(full_rows, witnesses)
                sectors_examined += examined
                codes.extend(_guarded_code(n, full_rows, pairs, ctx.d_min) for pairs in sector_list)

    # the root holds no rows; row0 is its one child (its one leaf at s = 1)
    rec(0, [([], [0], (1 << len(ctx.low)) - 1, row0 | anti_of(row0) << ncols, [])])
    return subspaces, sectors_examined, codes


def _sweep_chunks(spec: SweepSpec) -> list[tuple[tuple[int, ...], int]]:
    """(pivots, row0_bits) jobs; row 0 has 2n − s − pivots[0] free columns."""
    ncols = 2 * spec.n
    return [(pivots, bits) for pivots in combinations(range(ncols), spec.s)
            for bits in range(1 << (ncols - spec.s - pivots[0]))]


def sweep_nonexistence(
    spec: SweepSpec,
    workers: int = 1,
    progress: ProgressFn | None = None,
) -> SweepResult:
    """Every code at [[n, k, r]] with d >= d_min: a stabilizer and a gauge sector.

    A sector covering the stabilizer's witnesses holds every commuting Pauli
    of weight below d_min, so its code keeps d >= d_min; ``logical_weight``,
    checked in the job that builds it, is only a guard.  ``candidates`` == ``len(codes)``.

    Parameter points already excluded by the Singleton bound short-circuit to
    an exhausted empty result.  ``exhausted`` is False whenever the budget
    stopped the enumeration early, in which case an empty result is
    inconclusive.
    """
    start = time.monotonic()
    check_workers(workers)  # the spec has checked its budget
    fits = singleton_check(spec.n, spec.k, spec.d_min)  # else no jobs and no context
    return SweepResult(*_search(_sweep_chunk, _SweepContext(spec) if fits else None,
                                _sweep_chunks(spec) if fits else [], workers, spec.budget, progress, start))
