"""Symplectic frames over the Pauli group: centralizers, completion, membership.

A frame is a choice of 2n operators behaving like single-qubit X and Z on n
virtual qubits: same-kind rows commute, and the x row of slot i anticommutes
with the z row of slot i only.  Frames are the scaffolding for splitting the
virtual qubits into stabilizer / gauge / logical sectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import gf2
from .pauli import PauliOp, from_vec, multiply, swap_halves, symplectic_inner


@dataclass(frozen=True)
class SymplecticFrame:
    """Full set of n (x, z) operator pairs generating the Pauli group mod phase."""

    n: int
    x_ops: tuple[PauliOp, ...]
    z_ops: tuple[PauliOp, ...]

    def check(self) -> None:
        """Verify the single-qubit commutation pattern.

        Rows in that pattern have the nonsingular standard Gram matrix, so
        they are GF(2)-independent.
        """
        n = self.n
        if len(self.x_ops) != n or len(self.z_ops) != n:
            raise ValueError("frame must hold exactly n x-rows and n z-rows")
        for i in range(n):
            for j in range(n):
                if symplectic_inner(self.x_ops[i], self.x_ops[j]) != 0:
                    raise ValueError(f"x rows {i},{j} anticommute")
                if symplectic_inner(self.z_ops[i], self.z_ops[j]) != 0:
                    raise ValueError(f"z rows {i},{j} anticommute")
                expected = 1 if i == j else 0
                if symplectic_inner(self.x_ops[i], self.z_ops[j]) != expected:
                    raise ValueError(f"x row {i} / z row {j} break the pairing")


def centralizer_basis(n: int, gens: Sequence[PauliOp]) -> list[PauliOp]:
    """Basis (phase 0) of all Paulis commuting with every generator, mod phase.

    Computed as the kernel of the symplectic-product map; the result always
    has 2n - rank(gens) elements.
    """
    for g in gens:
        if g.n != n:
            raise ValueError("generator qubit count mismatch")
    rows = tuple(swap_halves(g.vec, n) for g in gens)
    kernel = gf2.kernel_basis(gf2.BinMatrix(2 * n, rows))
    return [from_vec(n, v) for v in kernel]


def in_group_mod_phase(gens: Sequence[PauliOp], p: PauliOp) -> bool:
    """Whether p's (x|z) vector lies in the row space of the generators."""
    elim = gf2.Eliminator(g.vec for g in gens)
    return elim.contains(p.vec)


def in_group_exact(gens: Sequence[PauliOp], p: PauliOp) -> int | None:
    """Phase offset of p against the reconstructed generator product.

    If p's vector is in the generator row space, rebuilds the product of the
    matching generators in ascending index order and returns d such that
    p == i**d * product; otherwise None.
    """
    m = gf2.BinMatrix(2 * p.n, tuple(g.vec for g in gens))
    comb = gf2.solve_membership(m, p.vec)
    if comb is None:
        return None
    prod = PauliOp(p.n, 0, 0, 0)
    for i, g in enumerate(gens):
        if (comb >> i) & 1:
            prod = multiply(prod, g)
    return (p.phase_exp - prod.phase_exp) % 4


def symplectic_complete(
    n: int,
    z_ops: Mapping[int, PauliOp] | None = None,
    x_ops: Mapping[int, PauliOp] | None = None,
) -> SymplecticFrame:
    """Extend a partial slot assignment to a full symplectic frame.

    ``z_ops`` / ``x_ops`` map 0-based slot indices to supplied operators.  The
    supplied operators must be GF(2)-independent and already satisfy the
    commutation pattern their slots demand.  Missing rows are filled by a
    symplectic Gram-Schmidt sweep over the slots in ascending order, solved
    against one tagged elimination of the known rows and taking a canonical
    admissible vector at every step, so the completion is deterministic for
    a given input.
    """
    z_given = dict(z_ops or {})
    x_given = dict(x_ops or {})
    for op in list(z_given.values()) + list(x_given.values()):
        if op.n != n:
            raise ValueError("operator qubit count mismatch")
    supplied: list[tuple[str, int, PauliOp]] = [
        ("z", j, op) for j, op in sorted(z_given.items())
    ] + [("x", j, op) for j, op in sorted(x_given.items())]
    for kind, j, _ in supplied:
        if not 0 <= j < n:
            raise ValueError(f"slot {j} outside 0..{n - 1}")
    # Declared commutation pattern among the supplied operators.
    for a, (ka, ja, opa) in enumerate(supplied):
        for kb, jb, opb in supplied[a + 1 :]:
            expected = 1 if (ja == jb and ka != kb) else 0
            if symplectic_inner(opa, opb) != expected:
                raise ValueError(
                    f"supplied {ka}'{ja} and {kb}'{jb} violate the slot pattern"
                )
    # One tagged system serves every missing row: each known row joins
    # swapped, tagged by bit 2n + i (i = j for x_j, n + j for z_j).  A row
    # lies in the span of the known rows exactly when its swap reduces to
    # tags alone.
    ncols, mask = 2 * n, (1 << 2 * n) - 1
    system = gf2.Eliminator()
    for kind, j, op in supplied:
        system.add(swap_halves(op.vec, n) | 1 << (ncols + (j if kind == "x" else n + j)))
        if system.pivots[-1][0] >= ncols:
            raise ValueError("supplied operators are GF(2)-dependent")

    # A slot's missing x row, then its missing z row: commute with every
    # known row but the slot's other one, anticommute with that partner.
    # The known rows are independent, so the particular solution (0 on every
    # free column) holds the pivots whose row carries the partner's tag.
    for slot in range(n):
        for fill, i, partner in ((x_given, slot, n + slot), (z_given, n + slot, slot)):
            if slot in fill:
                continue
            particular = sum(1 << p for p, row in system.pivots if row >> (ncols + partner) & 1)
            # Any admissible vector differs from the particular solution by a
            # kernel element; if neither the particular solution nor one basis
            # shift leaves the span, the whole affine space is inside it.
            for vec in [particular] + [particular ^ k for k in system.kernel(ncols)]:
                if system.reduce(swap_halves(vec, n)) & mask:
                    break
            else:
                raise ValueError("no admissible completion vector")
            system.add(swap_halves(vec, n) | 1 << (ncols + i))
            fill[slot] = from_vec(n, vec)

    frame = SymplecticFrame(
        n, tuple(x_given[j] for j in range(n)), tuple(z_given[j] for j in range(n))
    )
    frame.check()
    return frame
