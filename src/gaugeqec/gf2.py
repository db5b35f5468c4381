"""Bit-packed GF(2) linear algebra on integer row vectors.

Rows are Python ints with bit j holding column j.  Everything here is a
word-parallel XOR/AND/popcount operation, which keeps the enumeration-heavy
callers (distance, search) fast.
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

    @property
    def nrows(self) -> int:
        return len(self.rows)


def rref(m: BinMatrix) -> tuple[BinMatrix, int, tuple[int, ...]]:
    """Reduced row-echelon form: (reduced, rank, pivot columns).

    Columns are scanned in increasing bit order, so pivot columns are
    strictly increasing and the result is canonical for a given row space.
    Zero rows are dropped from the reduced matrix.
    """
    work = list(m.rows)
    pivots: list[int] = []
    rank_ = 0
    for col in range(m.ncols):
        sel = None
        for r in range(rank_, len(work)):
            if (work[r] >> col) & 1:
                sel = r
                break
        if sel is None:
            continue
        work[rank_], work[sel] = work[sel], work[rank_]
        for r in range(len(work)):
            if r != rank_ and (work[r] >> col) & 1:
                work[r] ^= work[rank_]
        pivots.append(col)
        rank_ += 1
        if rank_ == len(work):
            break
    return BinMatrix(m.ncols, tuple(work[:rank_])), rank_, tuple(pivots)


def rank(m: BinMatrix) -> int:
    return rref(m)[1]


def solve_membership(m: BinMatrix, v: int) -> int | None:
    """Combination c (bit i = row i of ``m``) with c . m == v, or None.

    Returns 0 for v == 0 (the empty combination).
    """
    mask = (1 << m.ncols) - 1
    if v < 0 or v & ~mask:
        raise ValueError(f"vector has bits outside {m.ncols} columns")
    # RREF while tracking which original rows combine into each basis row.
    basis: list[tuple[int, int, int]] = []  # (pivot, row, combination)
    for i, row in enumerate(m.rows):
        comb = 1 << i
        for p, brow, bcomb in basis:
            if (row >> p) & 1:
                row ^= brow
                comb ^= bcomb
        if row == 0:
            continue
        p = (row & -row).bit_length() - 1
        basis = [
            (q, brow ^ row, bcomb ^ comb) if (brow >> p) & 1 else (q, brow, bcomb)
            for q, brow, bcomb in basis
        ]
        insort(basis, (p, row, comb))
    comb = 0
    for p, brow, bcomb in basis:
        if (v >> p) & 1:
            v ^= brow
            comb ^= bcomb
    return comb if v == 0 else None


def kernel_basis(m: BinMatrix) -> list[int]:
    """Basis of {v : parity(row & v) == 0 for every row}, canonically ordered."""
    reduced, _, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.ncols):
        if f in pivot_set:
            continue
        v = 1 << f
        for row, p in zip(reduced.rows, pivots):
            if (row >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def solve_affine(rows: Iterable[tuple[int, int]], ncols: int) -> tuple[int, list[int]] | None:
    """Solve the system parity(u & mask_i) == b_i for u.

    Returns (particular solution, kernel basis) or None when inconsistent.
    """
    basis: list[tuple[int, int, int]] = []  # (pivot, mask, rhs)
    for mask, b in rows:
        for p, bm, bb in basis:
            if (mask >> p) & 1:
                mask ^= bm
                b ^= bb
        if mask == 0:
            if b:
                return None
            continue
        p = (mask & -mask).bit_length() - 1
        basis = [
            (q, bm ^ mask, bb ^ b) if (bm >> p) & 1 else (q, bm, bb)
            for q, bm, bb in basis
        ]
        insort(basis, (p, mask, b))
    particular = 0
    for p, _, b in basis:
        if b:
            particular |= 1 << p
    pivot_set = {p for p, _, _ in basis}
    kernel = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = 1 << f
        for p, bm, _ in basis:
            if (bm >> f) & 1:
                v |= 1 << p
        kernel.append(v)
    return particular, kernel


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

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def copy(self) -> "Eliminator":
        dup = Eliminator()
        dup.pivots = list(self.pivots)
        return dup
