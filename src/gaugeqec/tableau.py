"""Symplectic frames over the Pauli group: the pattern check and completion.

A frame is a choice of 2n operators behaving like single-qubit X and Z on n
virtual qubits: same-kind rows commute, and the x row of slot i anticommutes
with the z row of slot i only.  Frames are the scaffolding for splitting the
virtual qubits into stabilizer / gauge / logical sectors.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import gf2
from .pauli import PauliOp, swap_halves


def check_pattern(n: int, rows: Sequence[int]) -> None:
    """Raise unless (x|z) ``rows`` x_0..x_{n-1}, z_0..z_{n-1} have the frame pattern.

    x_i and z_j anticommute exactly when i == j and all other pairs commute;
    such rows have the nonsingular standard Gram matrix, so are independent.
    """
    mask = (1 << n) - 1
    swapped = [(v & mask) << n | v >> n for v in rows]  # swap_halves, inline
    for i in range(n):
        xi, zi = rows[i], rows[n + i]
        for j in range(n):
            if j > i and (xi & swapped[j]).bit_count() & 1:  # same kind: once per pair
                raise ValueError(f"x rows {i},{j} anticommute")
            if j > i and (zi & swapped[n + j]).bit_count() & 1:
                raise ValueError(f"z rows {i},{j} anticommute")
            if (xi & swapped[n + j]).bit_count() & 1 != (i == j):
                raise ValueError(f"x row {i} / z row {j} break the pairing")


def check_qubits(n: int, ops: Iterable[PauliOp]) -> None:
    """Raise ValueError, naming both counts, unless every operator is on n qubits."""
    for op in ops:
        if op.n != n:
            raise ValueError(f"operator is on {op.n} qubits, expected {n}")


class PartialFrame:
    """The known (x|z) rows of a frame, x_0..x_{n-1} then z_0..z_{n-1}, by index.

    One tagged system serves every query: each known row i joins swapped,
    tagged by bit 2n + i, so a vector lies in the span of the known rows
    exactly when its swap reduces to tags alone.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows: dict[int, int] = {}
        self.system = gf2.Eliminator()

    def add(self, i: int, vec: int) -> bool:
        """Make ``vec`` row i; False, leaving it out, if it depends on the known rows."""
        n = self.n
        tagged = (vec & ((1 << n) - 1)) << n | vec >> n | 1 << (2 * n + i)  # swap_halves, inline
        for p, row in self.system.pivots:  # Eliminator.reduce, inline
            if tagged >> p & 1:
                tagged ^= row
        if not tagged & ((1 << 2 * n) - 1):
            return False
        self.system.insert(tagged)
        self.rows[i] = vec
        return True

    def complete(self) -> list[int]:
        """All 2n rows of a frame around the known rows, which it leaves in place.

        Raises ValueError when the known rows do not keep the frame pattern
        among themselves: the finished frame must pass ``check_pattern``.
        """
        # A slot's missing x row, then z row, commutes with every known row
        # but its partner.  The particular solution is read off the partner's
        # tag: with the partner known it anticommutes with it, which no row of
        # the span does.  Otherwise it is 0 and the first kernel vector outside
        # the span is taken; if none is, every solution lies in the span.
        n, system, rows = self.n, self.system, self.rows
        ncols, mask, low = 2 * n, (1 << 2 * n) - 1, (1 << n) - 1
        pivots = system.pivots
        for slot in range(n):
            for i, partner in ((slot, n + slot), (n + slot, slot)):
                if i in rows:
                    continue
                vec = system.solution(ncols + partner)
                if not vec:
                    for k in system.kernel(range(ncols)):
                        if system.reduce(swap_halves(k, n)) & mask:
                            vec = k
                            break
                    else:
                        raise ValueError("no admissible completion vector")
                tagged = (vec & low) << n | vec >> n | 1 << (ncols + i)  # swap_halves, inline
                for p, row in pivots:  # Eliminator.reduce, inline
                    if tagged >> p & 1:
                        tagged ^= row
                system.insert(tagged)
                rows[i] = vec
        frame = [rows[i] for i in range(ncols)]
        check_pattern(n, frame)
        return frame
