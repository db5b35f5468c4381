"""Exact outputs of ``gf2.Eliminator`` against the 0/1-list reference.

Every query here has one canonical answer: the RREF, the kernel basis
with one vector per free column, and the membership combination over the
greedily independent rows.  Random systems mix zero rows and dependent
rows.
"""

import random

from gaugeqec.gf2 import Eliminator
from naive_ops import kernel_lists, membership_combination, rref_lists

SYSTEMS = 2400


def tagged_combination(rows, ncols, v):
    """v's combination (bit i = rows[i]) of the greedily independent rows, or None.

    The tagged idiom of the library: row i rides as tag bit ncols + i and
    joins only if columns remain after reduction.
    """
    mask = (1 << ncols) - 1
    system = Eliminator()
    for i, row in enumerate(rows):
        tagged = system.reduce(row | 1 << (ncols + i))
        if tagged & mask:
            system.insert(tagged)
    rest = system.reduce(v)
    return None if rest & mask else rest >> ncols


def _bits(v, ncols):
    return [(v >> j) & 1 for j in range(ncols)]


def _int(bits):
    return sum(b << j for j, b in enumerate(bits))


def _random_rows(rng, ncols):
    """Rows with zero rows and XORs of earlier rows mixed in."""
    rows = []
    for _ in range(rng.randrange(0, min(ncols, 12) + 3)):
        kind = rng.random()
        if kind < 0.1:
            rows.append(0)
        elif kind < 0.35 and rows:
            rows.append(rows[rng.randrange(len(rows))] ^ rows[rng.randrange(len(rows))])
        else:
            rows.append(rng.randrange(1 << ncols))
    return rows


def _systems(seed):
    rng = random.Random(seed)
    for _ in range(SYSTEMS):
        ncols = rng.randrange(1, 25)
        yield rng, ncols, _random_rows(rng, ncols)


def test_rref_and_rank_match_reference():
    for _, ncols, rows in _systems(101):
        ref_rows, ref_pivots = rref_lists([_bits(v, ncols) for v in rows], ncols)
        elim = Eliminator(rows)
        assert [row for _, row in elim.pivots] == [_int(row) for row in ref_rows]
        assert [p for p, _ in elim.pivots] == ref_pivots
        assert elim.rank == len(ref_pivots)


def test_tagged_membership_matches_reference():
    absent = 0
    for rng, ncols, rows in _systems(104):
        kind = rng.random()
        if kind < 0.1:
            v = 0
        elif kind < 0.6:
            v = 0
            for row in rows:
                if rng.random() < 0.5:
                    v ^= row
        else:
            v = rng.randrange(1 << ncols)
        ref = membership_combination([_bits(row, ncols) for row in rows], _bits(v, ncols))
        got = tagged_combination(rows, ncols, v)
        if ref is None:
            absent += 1
            assert got is None
        else:
            assert got == _int(ref)
    assert absent > SYSTEMS // 10


def test_eliminator_solution_matches_reference():
    # A x = b with b riding as a tag bit: x with its free columns 0 holds
    # b's coefficients over the pivot columns of A, which are exactly the
    # columns independent of the columns before them
    inconsistent = 0
    for rng, ncols, rows in _systems(105):
        columns = [[(row >> c) & 1 for row in rows] for c in range(ncols)]
        rhs = [[rng.randrange(2) for _ in rows] for _ in range(rng.randrange(1, 4))]
        if rows and rng.random() < 0.5:  # a consistent right-hand side
            rhs[0] = [(row & rng.randrange(1 << ncols)).bit_count() & 1 for row in rows]
        elim = Eliminator(
            row | sum(b[i] << (ncols + t) for t, b in enumerate(rhs)) for i, row in enumerate(rows)
        )
        refs = [membership_combination(columns, b) for b in rhs]
        if None in refs:
            inconsistent += 1
            assert elim.pivots[-1][0] >= ncols  # some row reduced to 0 = 1
            continue
        for t, ref in enumerate(refs):
            assert elim.solution(ncols + t) == _int(ref)
    assert 0 < inconsistent < SYSTEMS


def test_eliminator_kernel_over_columns_matches_reference():
    for rng, ncols, rows in _systems(106):
        tags = [row | rng.randrange(8) << ncols for row in rows]  # tag bits are never columns
        ref = kernel_lists([_bits(v, ncols) for v in rows], ncols)
        free = [f for f in range(ncols) if f not in {p for p, _ in Eliminator(rows).pivots}]
        by_column = dict(zip(free, (_int(v) for v in ref)))
        elim = Eliminator(tags)
        assert list(elim.kernel(range(ncols))) == list(by_column.values())
        # a subset skipping pivots, in any order
        subset = rng.sample(range(ncols), rng.randrange(ncols + 1))
        assert list(elim.kernel(subset)) == [by_column[f] for f in subset if f in by_column]
