"""Bit-packed GF(2) linear algebra on integer row vectors.

Rows are Python ints with bit j holding column j.  Everything here is a
word-parallel XOR/AND/popcount operation, which keeps the enumeration-heavy
callers (distance, search) fast.

``Eliminator`` is the one elimination kernel.  It pivots each row on its
lowest set bit and keeps the pivots sorted and fully reduced, so its basis
is the reduced row-echelon form; ``rref``, ``rank`` and ``kernel_basis``
read it off.  What a caller solves for rides along as tag bits at and
above column ``ncols``, one per input row (``solve_membership``) or per
right-hand side.  A tag bit sits above every column, so it never decides a
reduction and turns into a pivot only when a row's columns all cancel: a
dependent row (which ``solve_membership`` skips) or the contradiction 0 = 1.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Iterable


def parity(v: int) -> int:
    return v.bit_count() & 1


def parities(v: int, rows: Iterable[int]) -> int:
    """Bit i is the parity of v AND rows[i]."""
    return sum(((v & row).bit_count() & 1) << i for i, row in enumerate(rows))


@dataclass(frozen=True)
class BinMatrix:
    """GF(2) matrix; ``rows[i]`` packs row i with bit j = column j."""

    ncols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        mask = (1 << self.ncols) - 1
        for i, row in enumerate(self.rows):
            if row < 0 or row & ~mask:
                raise ValueError(f"row {i} has bits outside {self.ncols} columns")


def rref(m: BinMatrix) -> tuple[BinMatrix, int, tuple[int, ...]]:
    """Reduced row-echelon form: (reduced, rank, pivot columns).

    Pivot columns are strictly increasing and the result is canonical for a
    given row space.  Zero rows are dropped from the reduced matrix.
    """
    pivots = Eliminator(m.rows).pivots
    reduced = BinMatrix(m.ncols, tuple(row for _, row in pivots))
    return reduced, len(pivots), tuple(p for p, _ in pivots)


def rank(m: BinMatrix) -> int:
    return Eliminator(m.rows).rank


def solve_membership(m: BinMatrix, v: int) -> int | None:
    """Combination c (bit i = row i of ``m``) with c . m == v, or None.

    Only rows independent of the rows before them take part, so c is
    unique.  Returns 0 for v == 0 (the empty combination).
    """
    ncols = m.ncols
    mask = (1 << ncols) - 1
    if v < 0 or v & ~mask:
        raise ValueError(f"vector has bits outside {ncols} columns")
    elim = Eliminator()
    for i, row in enumerate(m.rows):
        tagged = elim.reduce(row | 1 << (ncols + i))
        if tagged & mask:
            elim.add(tagged)
    rest = elim.reduce(v)
    return None if rest & mask else rest >> ncols


def kernel_basis(m: BinMatrix) -> list[int]:
    """Basis of {v : parity(row & v) == 0 for every row}, canonically ordered."""
    return Eliminator(m.rows).kernel(m.ncols)


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
        v = self.reduce(v)
        if v == 0:
            return False
        p = (v & -v).bit_length() - 1
        self.pivots = [
            (q, row ^ v) if (row >> p) & 1 else (q, row) for q, row in self.pivots
        ]
        insort(self.pivots, (p, v))
        return True

    def kernel(self, ncols: int) -> list[int]:
        """Basis of the vectors below bit ncols orthogonal to every row.

        One vector per free column f < ncols, in ascending f: bit f plus
        the pivots of the rows holding bit f.  Bits at and above ncols
        (tags) are ignored.
        """
        taken = {p for p, _ in self.pivots}
        basis = []
        for f in range(ncols):
            if f in taken:
                continue
            v = 1 << f
            for p, row in self.pivots:
                if (row >> f) & 1:
                    v |= 1 << p
            basis.append(v)
        return basis

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def copy(self) -> "Eliminator":
        dup = Eliminator()
        dup.pivots = list(self.pivots)
        return dup
