"""Bit-packed GF(2) linear algebra on integer row vectors.

Rows are Python ints with bit j holding column j.  Everything here is a
word-parallel XOR/AND/popcount operation, which keeps the enumeration-heavy
callers (distance, search) fast; ``ParityMap`` is the one parity table.

``Eliminator`` is the one elimination kernel.  It pivots each row on its
lowest set bit and keeps the pivots sorted and fully reduced, so ``pivots``
is the reduced row-echelon form and ``kernel(range(ncols))`` the null space.
What a caller solves for rides along as tag bits at and above column
``ncols``: one per right-hand side, or bit ncols + i on row i, inserted only
if columns remain after ``reduce``, so reducing v leaves v's combination of
the independent rows.  A tag bit never decides a reduction and turns into a
pivot only when a row's columns all cancel: a dependent row or 0 = 1.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, Iterator, Sequence


def parities(v: int, rows: Iterable[int]) -> int:
    """Bit i is the parity of v AND rows[i]."""
    return sum(((v & row).bit_count() & 1) << i for i, row in enumerate(rows))


class ParityMap:
    """v -> ``parities(v, rows)`` for v below bit ``nbits``, one lookup per byte of v.

    ``tables[b][x]`` holds the parities of byte value x at byte b of v; the
    map is linear, so each entry is the XOR of the entries of its bits.
    ``width`` is the number of rows, the bit length bound of every value.
    """

    __slots__ = ("tables", "width")

    def __init__(self, rows: Iterable[int], nbits: int) -> None:
        rows = tuple(rows)
        self.width = len(rows)
        self.tables: list[list[int]] = []
        for first in range(0, nbits, 8):
            table = [0]
            for c in range(first, first + 8):
                col = parities(1 << c, rows)
                table += [key ^ col for key in table]
            self.tables.append(table)

    def __call__(self, v: int) -> int:
        key = 0
        for table in self.tables:
            key ^= table[v & 0xFF]
            v >>= 8
        return key


def gray_walk(start: int, rows: Sequence[int]):
    """Yield start XOR every combination of rows, one row flip per step."""
    v = start
    yield v
    for i in range(1, 1 << len(rows)):
        v ^= rows[(i & -i).bit_length() - 1]
        yield v


class Eliminator:
    """Incremental RREF basis for fast rank and membership queries."""

    __slots__ = ("pivots",)

    def __init__(self, rows: Iterable[int] = ()) -> None:
        self.pivots: list[tuple[int, int]] = []  # (pivot, row), sorted
        for row in rows:
            self.add(row)

    def reduce(self, v: int) -> int:
        for p, row in self.pivots:
            if (v >> p) & 1:
                v ^= row
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def add(self, v: int) -> bool:
        """Insert v into the basis; True if the rank grew."""
        if v := self.reduce(v):
            self.insert(v)
        return v != 0

    def insert(self, v: int) -> None:
        """Insert a nonzero v that ``reduce`` already returned."""
        low = v & -v
        pivots = self.pivots
        for i, (q, row) in enumerate(pivots):
            if row & low:
                pivots[i] = q, row ^ v
        insort(pivots, (low.bit_length() - 1, v))

    def solution(self, tag: int) -> int:
        """The pivots whose rows carry bit ``tag``.

        For a right-hand side riding as tag bit ``tag``, this is the
        solution with every free column 0.
        """
        v = 0
        for p, row in self.pivots:
            if (row >> tag) & 1:
                v |= 1 << p
        return v

    def kernel(self, columns: Iterable[int]) -> Iterator[int]:
        """One vector per free column f among ``columns``, in their order, made lazily.

        The vector is bit f plus the pivots of the rows holding bit f, so
        over range(ncols) this is a basis of the vectors below bit ncols
        orthogonal to every row.  Bits outside ``columns`` (tags) are
        ignored.  A caller may stop early, and must not add rows meanwhile.
        """
        taken = {p for p, _ in self.pivots}
        return (self.solution(f) | 1 << f for f in columns if f not in taken)

    @property
    def rank(self) -> int:
        return len(self.pivots)
