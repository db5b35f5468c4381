"""Symplectic frames over the Pauli group: centralizers, completion, membership.

A frame is a choice of 2n operators behaving like single-qubit X and Z on n
virtual qubits: same-kind rows commute, and the x row of slot i anticommutes
with the z row of slot i only.  Frames are the scaffolding for splitting the
virtual qubits into stabilizer / gauge / logical sectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import gf2
from .pauli import PauliOp, from_vec, multiply, swap_halves, symplectic_inner


@dataclass(frozen=True)
class SymplecticFrame:
    """Full set of n (x, z) operator pairs generating the Pauli group mod phase."""

    n: int
    x_ops: tuple[PauliOp, ...]
    z_ops: tuple[PauliOp, ...]

    def check(self) -> None:
        """Verify the single-qubit commutation pattern (``check_pattern``)."""
        n, ops = self.n, self.x_ops + self.z_ops
        if len(self.x_ops) != n or len(self.z_ops) != n or any(op.n != n for op in ops):
            raise ValueError("frame must hold exactly n x-rows and n z-rows on n qubits")
        check_pattern(n, [op.vec for op in ops])


def check_pattern(n: int, rows: Sequence[int]) -> None:
    """Raise unless (x|z) ``rows`` x_0..x_{n-1}, z_0..z_{n-1} have the frame pattern.

    x_i and z_j anticommute exactly when i == j and all other pairs commute;
    such rows have the nonsingular standard Gram matrix, so are independent.
    """
    swapped = [swap_halves(v, n) for v in rows]
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


def centralizer_basis(n: int, gens: Sequence[PauliOp]) -> list[PauliOp]:
    """Basis (phase 0) of all Paulis commuting with every generator, mod phase.

    The null space of the swapped generator rows, read off their
    ``gf2.Eliminator`` one vector per free column, so it always has
    2n - rank(gens) elements.
    """
    check_qubits(n, gens)
    kernel = gf2.Eliminator(swap_halves(g.vec, n) for g in gens).kernel(range(2 * n))
    return [from_vec(n, v) for v in kernel]


def in_group_mod_phase(gens: Sequence[PauliOp], p: PauliOp) -> bool:
    """Whether p's (x|z) vector lies in the row space of the generators."""
    check_qubits(p.n, gens)
    elim = gf2.Eliminator(g.vec for g in gens)
    return elim.contains(p.vec)


def in_group_exact(gens: Sequence[PauliOp], p: PauliOp) -> int | None:
    """Phase offset of p against the reconstructed generator product.

    If p's vector is in the generator row space, rebuilds the product of the
    matching generators in ascending index order and returns d such that
    p == i**d * product; otherwise None.  Generator i rides as tag bit
    2n + i and joins only if it is independent of the ones before it, so the
    matching combination is unique.
    """
    check_qubits(p.n, gens)
    ncols = 2 * p.n
    mask = (1 << ncols) - 1
    system = gf2.Eliminator()
    for i, g in enumerate(gens):
        tagged = system.reduce(g.vec | 1 << (ncols + i))
        if tagged & mask:
            system.insert(tagged)
    comb = system.reduce(p.vec)
    if comb & mask:
        return None
    prod = PauliOp(p.n, 0, 0, 0)
    for i, g in enumerate(gens):
        if (comb >> (ncols + i)) & 1:
            prod = multiply(prod, g)
    return (p.phase_exp - prod.phase_exp) % 4


def symplectic_complete(
    n: int,
    z_ops: Mapping[int, PauliOp] | None = None,
    x_ops: Mapping[int, PauliOp] | None = None,
) -> SymplecticFrame:
    """Extend a partial slot assignment to a full symplectic frame.

    ``z_ops`` / ``x_ops`` map 0-based slot indices to supplied operators,
    which must be GF(2)-independent and satisfy the commutation pattern of
    their slots.  The missing rows come from ``PartialFrame.complete``: a
    symplectic Gram-Schmidt sweep taking a canonical admissible vector at
    every step.
    """
    z_given, x_given = dict(z_ops or {}), dict(x_ops or {})
    supplied = [("z", j, op) for j, op in sorted(z_given.items())]
    supplied += [("x", j, op) for j, op in sorted(x_given.items())]
    check_qubits(n, (op for _, _, op in supplied))
    for kind, j, _ in supplied:
        if not 0 <= j < n:
            raise ValueError(f"slot {j} outside 0..{n - 1}")
    for a, (ka, ja, opa) in enumerate(supplied):
        for kb, jb, opb in supplied[a + 1 :]:
            if symplectic_inner(opa, opb) != (ja == jb and ka != kb):
                raise ValueError(f"supplied {ka}'{ja} and {kb}'{jb} violate the slot pattern")
    frame = PartialFrame(n)
    for kind, j, op in supplied:
        if not frame.add(j if kind == "x" else n + j, op.vec):
            raise ValueError("supplied operators are GF(2)-dependent")
    rows = frame.complete()
    return SymplecticFrame(
        n,
        tuple(x_given[j] if j in x_given else from_vec(n, rows[j]) for j in range(n)),
        tuple(z_given[j] if j in z_given else from_vec(n, rows[n + j]) for j in range(n)),
    )


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
        tagged = self.system.reduce(swap_halves(vec, n) | 1 << (2 * n + i))
        if not tagged & ((1 << 2 * n) - 1):
            return False
        self.system.insert(tagged)
        self.rows[i] = vec
        return True

    def complete(self) -> list[int]:
        """All 2n rows of a frame around the known rows.

        The known rows must keep the frame pattern among themselves; the
        finished frame passes ``check_pattern``.
        """
        # A slot's missing x row, then z row, commutes with every known row
        # but its partner.  The particular solution is read off the partner's
        # tag: with the partner known it anticommutes with it, which no row of
        # the span does.  Otherwise it is 0 and the first kernel vector outside
        # the span is taken; if none is, every solution lies in the span.
        n, system = self.n, self.system
        ncols, mask = 2 * n, (1 << 2 * n) - 1
        for slot in range(n):
            for i, partner in ((slot, n + slot), (n + slot, slot)):
                if i in self.rows:
                    continue
                vec = system.solution(ncols + partner)
                if not vec:
                    kernel = system.kernel(range(ncols))
                    vec = next((k for k in kernel if system.reduce(swap_halves(k, n)) & mask), 0)
                if not vec:
                    raise ValueError("no admissible completion vector")
                system.add(swap_halves(vec, n) | 1 << (ncols + i))
                self.rows[i] = vec
        frame = [self.rows[i] for i in range(ncols)]
        check_pattern(n, frame)
        return frame
