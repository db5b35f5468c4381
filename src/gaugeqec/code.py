"""Subsystem stabilizer codes: validation, parameters, gauge fixing.

A code is stored as its generating sets: s stabilizer generators, r gauge
pairs (x-type, z-type) and k logical pairs.  Validation checks the group
structure, completes the symplectic frame, and derives any missing pairs so
that s + r + k == n afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from . import gf2
from .pauli import PauliOp, hermitian, multiply, pauli_from_string, symplectic_inner
from .tableau import in_group_mod_phase, symplectic_complete

Pair = tuple[PauliOp, PauliOp]


@dataclass(frozen=True)
class SubsystemCode:
    """n qubits with stabilizer, gauge-pair and logical-pair generators."""

    n: int
    stabilizer: tuple[PauliOp, ...] = ()
    gauge_pairs: tuple[Pair, ...] = ()
    logical_pairs: tuple[Pair, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "stabilizer", tuple(self.stabilizer))
        object.__setattr__(self, "gauge_pairs", tuple(tuple(p) for p in self.gauge_pairs))
        object.__setattr__(self, "logical_pairs", tuple(tuple(p) for p in self.logical_pairs))

    @classmethod
    def from_strings(
        cls,
        stabilizer: Iterable[str] = (),
        gauge_x: Iterable[str] = (),
        gauge_z: Iterable[str] = (),
        logical_x: Iterable[str] = (),
        logical_z: Iterable[str] = (),
        n: int | None = None,
    ) -> "SubsystemCode":
        stab = tuple(pauli_from_string(s) for s in stabilizer)
        gx = tuple(pauli_from_string(s) for s in gauge_x)
        gz = tuple(pauli_from_string(s) for s in gauge_z)
        lx = tuple(pauli_from_string(s) for s in logical_x)
        lz = tuple(pauli_from_string(s) for s in logical_z)
        if len(gx) != len(gz):
            raise ValueError("gauge_x and gauge_z must pair up one-to-one")
        if len(lx) != len(lz):
            raise ValueError("logical_x and logical_z must pair up one-to-one")
        ops = stab + gx + gz + lx + lz
        if n is None:
            if not ops:
                raise ValueError("cannot infer qubit count from an empty code")
            n = ops[0].n
        return cls(n, stab, tuple(zip(gx, gz)), tuple(zip(lx, lz)))

    @property
    def s(self) -> int:
        return len(self.stabilizer)

    @property
    def r(self) -> int:
        return len(self.gauge_pairs)

    @property
    def k(self) -> int:
        return len(self.logical_pairs)

    def gauge_ops(self) -> list[PauliOp]:
        """All gauge generators, x then z within each pair."""
        return [op for pair in self.gauge_pairs for op in pair]

    def logical_ops(self) -> list[PauliOp]:
        return [op for pair in self.logical_pairs for op in pair]

    def group_generators(self) -> list[PauliOp]:
        """Generators of the gauge group (mod phase): stabilizer plus gauge."""
        return list(self.stabilizer) + self.gauge_ops()

    def normalizer_generators(self) -> list[PauliOp]:
        return self.group_generators() + self.logical_ops()


@dataclass(frozen=True)
class CodeParams:
    """The [[n, k, r, d]] parameter tuple; d stays None until computed."""

    n: int
    k: int
    r: int
    d: int | None = None


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    completed: SubsystemCode | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(code: SubsystemCode, derive_gauge: int = 0) -> ValidationReport:
    """Check every structural invariant and complete the frame on success.

    Violations are collected, not raised.  ``derive_gauge`` says how many of
    the pairs derived by frame completion (when s + r + k < n) become gauge
    pairs; the rest become logical pairs.
    """
    report = ValidationReport()
    bad = report.violations.append
    n = code.n
    everything = list(code.stabilizer) + code.gauge_ops() + code.logical_ops()
    for op in everything:
        if op.n != n:
            bad(f"operator {op} is on {op.n} qubits, code has {n}")
            return report

    s, r, k = code.s, code.r, code.k
    free = n - s - r - k
    if free < 0:
        bad(f"too many generators: s + r + k = {s + r + k} > n = {n}")
    if not 0 <= derive_gauge <= max(free, 0):
        bad(f"derive_gauge = {derive_gauge} exceeds the {free} free slots")

    for i, g in enumerate(code.stabilizer):
        if g.sign_exponent != 0:
            bad(
                f"stabilizer generator {i} has sign i^{g.sign_exponent}; "
                "the group would not fix the code space (contains -1)"
            )
    for i in range(s):
        for j in range(i + 1, s):
            if symplectic_inner(code.stabilizer[i], code.stabilizer[j]):
                bad(f"stabilizer generators {i} and {j} anticommute")
    elim = gf2.Eliminator()
    for i, g in enumerate(code.stabilizer):
        if not elim.add(g.vec):
            bad(f"stabilizer generator {i} depends on earlier generators")

    sector = code.gauge_ops() + code.logical_ops()
    names = [f"gauge {kind}{i}" for i in range(r) for kind in ("x", "z")] + [
        f"logical {kind}{i}" for i in range(k) for kind in ("x", "z")
    ]
    for a, op in enumerate(sector):
        for i, g in enumerate(code.stabilizer):
            if symplectic_inner(op, g):
                bad(f"{names[a]} anticommutes with stabilizer generator {i}")
    for a in range(len(sector)):
        for b in range(a + 1, len(sector)):
            # partners inside one pair anticommute; everything else commutes
            expected = 1 if (a // 2 == b // 2 and a % 2 != b % 2) else 0
            got = symplectic_inner(sector[a], sector[b])
            if got != expected:
                verb = "must anticommute" if expected else "must commute"
                bad(f"{names[a]} and {names[b]} {verb}")
    for a, op in enumerate(sector):
        if not elim.add(op.vec):
            bad(f"{names[a]} depends on earlier generators")

    if report.violations:
        return report

    try:
        z_slots = {i: g for i, g in enumerate(code.stabilizer)}
        x_slots = {}
        for i, (gx, gz) in enumerate(code.gauge_pairs):
            z_slots[s + i] = gz
            x_slots[s + i] = gx
        for i, (lx, lz) in enumerate(code.logical_pairs):
            z_slots[s + r + i] = lz
            x_slots[s + r + i] = lx
        frame = symplectic_complete(n, z_slots, x_slots)
    except ValueError as exc:
        bad(f"frame completion failed: {exc}")
        return report

    derived = [
        (frame.x_ops[j], frame.z_ops[j]) for j in range(s + r + k, n)
    ]
    completed = SubsystemCode(
        n,
        code.stabilizer,
        code.gauge_pairs + tuple(derived[:derive_gauge]),
        code.logical_pairs + tuple(derived[derive_gauge:]),
    )
    report.completed = completed
    return report


@lru_cache(maxsize=256)
def _validated(code: SubsystemCode, derive_gauge: int) -> SubsystemCode:
    report = validate(code, derive_gauge)
    if not report.ok:
        raise ValueError("invalid code: " + "; ".join(report.violations))
    if report.completed is None:
        raise RuntimeError("validation passed without completing the code")
    return report.completed


def validated(code: SubsystemCode, derive_gauge: int = 0) -> SubsystemCode:
    """The completed code, raising ValueError when validation fails."""
    return _validated(code, derive_gauge)


def parameters(code: SubsystemCode) -> CodeParams:
    c = validated(code)
    return CodeParams(c.n, c.k, c.r)


def gauge_fix(code: SubsystemCode) -> SubsystemCode:
    """Promote every gauge z generator to the stabilizer, dropping the pairs.

    Promoted generators are renormalized to their +1-signed representatives
    (the gauge group contains every phase, so the choice is free).  Logical
    pairs are untouched.
    """
    c = validated(code)
    promoted = tuple(hermitian(c.n, gz.x, gz.z) for _, gz in c.gauge_pairs)
    fixed = SubsystemCode(c.n, c.stabilizer + promoted, (), c.logical_pairs)
    return validated(fixed)


def singleton_check(n: int, k: int, d: int) -> bool:
    """Quantum Singleton bound n >= 2(d - 1) + k."""
    if n < 0 or k < 0 or d < 1:
        raise ValueError("need n, k >= 0 and d >= 1")
    return n >= 2 * (d - 1) + k


def logical_equivalent(code: SubsystemCode, p: PauliOp, q: PauliOp) -> bool:
    """Whether p and q act identically on the encoded qubits (p*q in the gauge group)."""
    c = validated(code)
    prod = multiply(p, q)
    return in_group_mod_phase(c.group_generators(), prod)
