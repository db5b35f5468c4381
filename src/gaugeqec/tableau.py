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
        """Verify the single-qubit commutation pattern and full GF(2) rank."""
        n = self.n
        if len(self.x_ops) != n or len(self.z_ops) != n:
            raise ValueError("frame must hold exactly n x-rows and n z-rows")
        ops = list(self.x_ops) + list(self.z_ops)
        for i in range(n):
            for j in range(n):
                if symplectic_inner(self.x_ops[i], self.x_ops[j]) != 0:
                    raise ValueError(f"x rows {i},{j} anticommute")
                if symplectic_inner(self.z_ops[i], self.z_ops[j]) != 0:
                    raise ValueError(f"z rows {i},{j} anticommute")
                expected = 1 if i == j else 0
                if symplectic_inner(self.x_ops[i], self.z_ops[j]) != expected:
                    raise ValueError(f"x row {i} / z row {j} break the pairing")
        m = gf2.BinMatrix(2 * n, tuple(op.vec for op in ops))
        if gf2.rank(m) != 2 * n:
            raise ValueError("frame rows are GF(2)-dependent")


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
    symplectic Gram-Schmidt sweep over the slots in ascending order, taking
    a canonical admissible vector at every step, so the completion is
    deterministic for a given input.
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
    elim_all = gf2.Eliminator()
    for _, _, op in supplied:
        if not elim_all.add(op.vec):
            raise ValueError("supplied operators are GF(2)-dependent")

    def solve_vector(commute_with: list[int], anti_with: int | None) -> int:
        rows = [(swap_halves(w, n), 0) for w in commute_with]
        if anti_with is not None:
            rows.append((swap_halves(anti_with, n), 1))
        sol = gf2.solve_affine(rows, 2 * n)
        if sol is None:
            raise ValueError("inconsistent commutation constraints")
        particular, kernel = sol
        # Any admissible vector differs from the particular solution by a
        # kernel element; if neither the particular solution nor one basis
        # shift leaves span(elim_all), the whole affine space is inside it.
        for v in [particular] + [particular ^ k for k in kernel]:
            if v and not elim_all.contains(v):
                return v
        raise ValueError("no admissible completion vector")

    # A slot's missing x row, then its missing z row: commute with every
    # known row of the other slots, anticommute with the slot's other row.
    for slot in range(n):
        others = [op.vec for side in (x_given, z_given) for j, op in side.items() if j != slot]
        for fill, partner in ((x_given, z_given), (z_given, x_given)):
            if slot not in fill:
                vec = solve_vector(others, partner[slot].vec if slot in partner else None)
                elim_all.add(vec)
                fill[slot] = from_vec(n, vec)

    frame = SymplecticFrame(
        n, tuple(x_given[j] for j in range(n)), tuple(z_given[j] for j in range(n))
    )
    frame.check()
    return frame
