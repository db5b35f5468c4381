"""Subsystem stabilizer codes: validation, parameters, gauge fixing.

A code is stored as its generating sets: s stabilizer generators, r gauge
pairs (x-type, z-type) and k logical pairs.  Validation checks the group
structure, completes the symplectic frame, and derives any missing pairs so
that s + r + k == n afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .pauli import PauliOp, hermitian, pauli_from_string, swap_halves, vec_hermitian
from .tableau import PartialFrame, check_qubits

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
        # hashed once for the caches keyed on codes; only ints go in, so the
        # value survives pickling to another process
        fields = (self.n, self.stabilizer, self.gauge_pairs, self.logical_pairs)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

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
    """The [[n, k, r]] parameters of a validated code."""

    n: int
    k: int
    r: int


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    completed: SubsystemCode | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


def frame_rows(n: int, stab: Sequence[int], sector: Sequence[int], r: int, derive_gauge: int = 0,
               signs: Sequence[int] = ()) -> tuple[list[str], list[int] | None]:
    """The checks of ``validate`` on (x|z) rows: (violations, the frame rows or None).

    ``sector`` holds the r gauge pairs, then the logical pairs, x row first;
    ``signs`` holds the stabilizer sign exponents.  Valid rows complete to a
    frame x_0..x_{n-1}, z_0..z_{n-1} in which stabilizer row i is z_i and
    sector pair j fills slot s + j.
    """
    violations: list[str] = []
    bad = violations.append
    s, free = len(stab), n - len(stab) - len(sector) // 2
    if free < 0:
        bad(f"too many generators: s + r + k = {n - free} > n = {n}")
    if not 0 <= derive_gauge <= max(free, 0):
        bad(f"derive_gauge = {derive_gauge} exceeds the {free} free slots")
    for i, e in enumerate(signs):
        if e:
            bad(f"stabilizer generator {i} has sign i^{e}; "
                "the group would not fix the code space (contains -1)")

    # u, v anticommute iff u AND swap(v) has odd weight
    stab_sw, sector_sw = [swap_halves(v, n) for v in stab], [swap_halves(v, n) for v in sector]
    for i in range(s):
        for j in range(i + 1, s):
            if (stab[i] & stab_sw[j]).bit_count() & 1:
                bad(f"stabilizer generators {i} and {j} anticommute")
    frame = PartialFrame(n)
    for i, v in enumerate(stab):
        if not frame.add(n + i, v):
            bad(f"stabilizer generator {i} depends on earlier generators")

    def name(a: int) -> str:
        kind = "xz"[a % 2]
        return f"gauge {kind}{a // 2}" if a < 2 * r else f"logical {kind}{a // 2 - r}"

    for a, v in enumerate(sector):
        for i, g in enumerate(stab_sw):
            if (v & g).bit_count() & 1:
                bad(f"{name(a)} anticommutes with stabilizer generator {i}")
    for a, v in enumerate(sector):
        for b in range(a + 1, len(sector)):
            # partners inside one pair anticommute; everything else commutes
            expected = b == a + 1 and a % 2 == 0
            if (v & sector_sw[b]).bit_count() & 1 != expected:
                verb = "must anticommute" if expected else "must commute"
                bad(f"{name(a)} and {name(b)} {verb}")
    for a, v in enumerate(sector):
        if not frame.add(s + a // 2 + n * (a % 2), v):
            bad(f"{name(a)} depends on earlier generators")
    if violations:
        return violations, None

    # the supplied rows passed the checks above; completion checks the whole frame
    try:
        return violations, frame.complete()
    except ValueError as exc:
        return [f"frame completion failed: {exc}"], None


def completed_code(n: int, stabilizer, gauge_pairs, logical_pairs, rows, derive_gauge: int = 0):
    """The tuples plus a pair of frame ``rows`` per free slot, the first ``derive_gauge`` gauge.

    Each derived row becomes the +1-signed Hermitian Pauli with its bits.
    """
    first = len(stabilizer) + len(gauge_pairs) + len(logical_pairs)
    derived = tuple([(vec_hermitian(n, rows[j]), vec_hermitian(n, rows[n + j])) for j in range(first, n)])
    return SubsystemCode(n, stabilizer, gauge_pairs + derived[:derive_gauge],
                         logical_pairs + derived[derive_gauge:])


def validate(code: SubsystemCode, derive_gauge: int = 0) -> ValidationReport:
    """Check every structural invariant and complete the frame on success.

    Violations are collected, not raised.  ``derive_gauge`` says how many of
    the pairs derived by frame completion (when s + r + k < n) become gauge
    pairs; the rest become logical pairs.  Qubit counts and signs are read
    here, and ``frame_rows`` checks the rows.
    """
    n, stab = code.n, code.stabilizer
    sector = code.gauge_ops() + code.logical_ops()
    for op in stab + tuple(sector):
        if op.n != n:
            return ValidationReport([f"operator {op} is on {op.n} qubits, code has {n}"])
    violations, rows = frame_rows(n, [g.vec for g in stab], [op.vec for op in sector], code.r,
                                  derive_gauge, [g.sign_exponent for g in stab])
    if rows is None:
        return ValidationReport(violations)
    completed = completed_code(n, stab, code.gauge_pairs, code.logical_pairs, rows, derive_gauge)
    return ValidationReport(violations, completed)


@lru_cache(maxsize=256)
def validated(code: SubsystemCode, derive_gauge: int = 0) -> SubsystemCode:
    """The completed code, raising ValueError when validation fails."""
    report = validate(code, derive_gauge)
    if not report.ok:
        raise ValueError("invalid code: " + "; ".join(report.violations))
    if report.completed is None:
        raise RuntimeError("validation passed without completing the code")
    return report.completed


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
    """Whether p and q act identically on the encoded qubits (p*q in the gauge group).

    p*q is in the gauge group exactly when it has no syndrome and no logical
    label, a key of 0 under the code's key map.
    """
    from .distance import _tables  # deferred: distance imports this module

    c = validated(code)
    check_qubits(c.n, (p, q))
    return not _tables(c).key(p.vec ^ q.vec)
