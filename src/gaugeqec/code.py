"""Subsystem stabilizer codes: validation, parameters, gauge fixing.

A code is stored as the (x|z) integer rows of its generating sets: s
stabilizer generators, then r gauge pairs and k logical pairs, x row first
in each pair.  Each row carries a sign exponent e, the operator being i^e
times the +1-signed Hermitian Pauli on its bits; e is 0 for every row the
library derives or searches.  Equality, hashing and pickling read only
these ints.  A code built from operators keeps only their rows and signs,
refusing an operator on another qubit count; the ``PauliOp`` tuples are
built from the rows on first access.  ``frame_rows`` is the one way from
rows to a valid code: it completes the symplectic frame around the rows,
deriving a row given as None and any missing pairs, so that s + r + k == n
afterwards, and reads the code off the completed frame, whose pattern
check is the verdict; only refused rows are checked item by item to name
each violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .gf2 import Eliminator
from .pauli import PauliOp, pauli_from_string, swap_halves
from .tableau import PartialFrame, check_qubits

Pair = tuple[PauliOp, PauliOp]

_ZERO_SIGNS: dict[int, tuple[int, ...]] = {}  # one all-zero signs tuple per row count


class SubsystemCode:
    """n qubits with stabilizer, gauge-pair and logical-pair generators.

    Stored as ``n``, ``s``, ``r``, ``rows`` and ``signs``; every operator it
    is built from must be on n qubits.
    """

    __slots__ = ("n", "s", "r", "rows", "signs", "_hash", "_ops")

    def __init__(
        self,
        n: int,
        stabilizer: Iterable[PauliOp] = (),
        gauge_pairs: Iterable[Pair] = (),
        logical_pairs: Iterable[Pair] = (),
    ) -> None:
        stabilizer, gauge_pairs = tuple(stabilizer), tuple(gauge_pairs)
        ops = stabilizer + tuple(op for pair in gauge_pairs + tuple(logical_pairs) for op in pair)
        for op in ops:
            if op.n != n:
                raise ValueError(f"operator {op} is on {op.n} qubits, code has {n}")
        self._store(n, len(stabilizer), len(gauge_pairs), tuple(op.vec for op in ops),
                    tuple(op.sign_exponent for op in ops))

    @classmethod
    def from_rows(cls, n: int, s: int, r: int, rows: Sequence[int],
                  signs: Sequence[int] = ()) -> "SubsystemCode":
        """The code of (x|z) ``rows``: s stabilizer rows, then r gauge and the logical pairs.

        ``signs`` holds the sign exponents of the first rows; the others are
        0.  Nothing is checked here; ``frame_rows`` checks.
        """
        code = cls.__new__(cls)
        code._store(n, s, r, tuple(rows), tuple(signs))
        return code

    def _store(self, n, s, r, rows, signs) -> None:
        """Set every field: the one place a code's state is made."""
        if any(signs):
            signs += (0,) * (len(rows) - len(signs))
        else:
            signs = _ZERO_SIGNS.setdefault(len(rows), (0,) * len(rows))
        put = object.__setattr__
        put(self, "n", n)
        put(self, "s", s)
        put(self, "r", r)
        put(self, "rows", rows)
        put(self, "signs", signs)
        # hashed once for the caches keyed on codes
        put(self, "_hash", hash((n, s, r, rows, signs)))
        put(self, "_ops", None)

    def __getstate__(self) -> tuple:
        return self.n, self.s, self.r, self.rows, self.signs

    def __setstate__(self, state: tuple) -> None:
        self._store(*state)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable SubsystemCode")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable SubsystemCode")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubsystemCode):
            return NotImplemented
        return self._hash == other._hash and self.__getstate__() == other.__getstate__()

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"SubsystemCode(n={self.n}, stabilizer={self.stabilizer!r}, "
                f"gauge_pairs={self.gauge_pairs!r}, logical_pairs={self.logical_pairs!r})")

    def _operators(self) -> tuple[tuple[PauliOp, ...], tuple[Pair, ...], tuple[Pair, ...]]:
        """(stabilizer, gauge_pairs, logical_pairs), built from the rows on first use."""
        ops = self._ops
        if ops is None:
            n, flat = self.n, []
            for v, e in zip(self.rows, self.signs):
                x, z = v & ((1 << n) - 1), v >> n
                flat.append(PauliOp(n, (e + (x & z).bit_count()) % 4, x, z))
            s, r = self.s, self.r
            pairs = tuple(zip(flat[s::2], flat[s + 1 :: 2]))
            ops = tuple(flat[:s]), pairs[:r], pairs[r:]
            object.__setattr__(self, "_ops", ops)
        return ops

    @property
    def stabilizer(self) -> tuple[PauliOp, ...]:
        return self._operators()[0]

    @property
    def gauge_pairs(self) -> tuple[Pair, ...]:
        return self._operators()[1]

    @property
    def logical_pairs(self) -> tuple[Pair, ...]:
        return self._operators()[2]

    @classmethod
    def from_strings(
        cls,
        stabilizer: Iterable[str] = (),
        gauge_x: Iterable[str] = (),
        gauge_z: Iterable[str] = (),
        logical_x: Iterable[str] = (),
        logical_z: Iterable[str] = (),
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
        if not ops:
            raise ValueError("cannot infer qubit count from an empty code")
        return cls(ops[0].n, stab, tuple(zip(gx, gz)), tuple(zip(lx, lz)))

    @property
    def k(self) -> int:
        return (len(self.rows) - self.s) // 2 - self.r

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


def frame_rows(n: int, stab: Sequence[int], sector: Sequence[int | None], r: int,
               derive_gauge: int = 0, signs: tuple[int, ...] = ()
               ) -> tuple[list[str], SubsystemCode | None]:
    """The checks of ``validate`` on (x|z) rows: (violations, the completed code or None).

    ``sector`` holds the r gauge pairs, then the logical pairs, x row first;
    ``signs`` holds the sign exponents of the stabilizer rows, then of the
    sector rows (0 past its end).  Valid rows complete to a frame
    x_0..x_{n-1}, z_0..z_{n-1}: gauge pair j in slot j, stabilizer row i as
    z_{r+i}, logical pair j in slot r + s + j, and a sector row given as None
    derived as the row that anticommutes with its partner alone.  The code is
    read off that frame: the first ``derive_gauge`` derived pairs join the
    gauge pairs, the others the logical pairs, each with sign exponent 0.

    The completed frame is the verdict: past the count and sign checks each
    row joins a ``PartialFrame`` in its slot, a dependent row failing there,
    and ``complete`` checks every commutation between supplied rows, which
    it leaves in place.  Only rows that fail this pass meet the itemised
    checks, which name each violation.
    """
    s, free = len(stab), n - len(stab) - len(sector) // 2
    failure = None
    if 0 <= derive_gauge <= free and not any(signs[:s]) and not any(e & 1 for e in signs[s:]):
        frame, g = PartialFrame(n), 2 * r
        if all(map(frame.add, range(n + r, n + r + s), stab)) and all(
                v is None or frame.add(a // 2 + n * (a % 2) + s * (a >= g), v)
                for a, v in enumerate(sector)):
            try:
                done = frame.complete()
            except ValueError as exc:
                failure = f"frame completion failed: {exc}"
            else:
                first = n - free  # the first derived slot
                slots = (*range(r), *range(first, first + derive_gauge),
                         *range(r + s, first), *range(first + derive_gauge, n))
                rows = (*done[n + r : n + r + s], *[v for j in slots for v in done[j::n]])
                if derive_gauge and any(signs):
                    signs = signs[: s + g] + (0,) * (2 * derive_gauge) + signs[s + g :]
                return [], SubsystemCode.from_rows(n, s, r + derive_gauge, rows, signs)
    # rows that pass every itemised check yet fail completion name the failure
    return _violations(n, stab, sector, r, derive_gauge, signs) or [failure], None


def _violations(n: int, stab: Sequence[int], sector: Sequence[int | None], r: int,
                derive_gauge: int, signs: Sequence[int]) -> list[str]:
    """Every violation of the rows ``frame_rows`` refused, in check order."""
    violations: list[str] = []
    bad = violations.append
    s, free = len(stab), n - len(stab) - len(sector) // 2
    if free < 0:
        bad(f"too many generators: s + r + k = {n - free} > n = {n}")
    if not 0 <= derive_gauge <= max(free, 0):
        bad(f"derive_gauge = {derive_gauge} exceeds the {free} free slots")

    def name(a: int) -> str:
        kind = "xz"[a % 2]
        return f"gauge {kind}{a // 2}" if a < 2 * r else f"logical {kind}{a // 2 - r}"

    for i, e in enumerate(signs[:s]):
        if e:
            bad(f"stabilizer generator {i} has sign i^{e}; "
                "the group would not fix the code space (contains -1)")
    for a, e in enumerate(signs[s:]):
        if e & 1:
            bad(f"{name(a)} has sign i^{e}; it is not Hermitian")

    # u, v anticommute iff u AND swap(v) has odd weight; a None row is left to the frame
    stab_sw = [swap_halves(v, n) for v in stab]
    known = [(a, v, swap_halves(v, n)) for a, v in enumerate(sector) if v is not None]
    for i in range(s):
        for j in range(i + 1, s):
            if (stab[i] & stab_sw[j]).bit_count() & 1:
                bad(f"stabilizer generators {i} and {j} anticommute")
    span = Eliminator()
    for i, v in enumerate(stab):
        if not span.add(v):
            bad(f"stabilizer generator {i} depends on earlier generators")
    for a, v, _ in known:
        for i, g in enumerate(stab_sw):
            if (v & g).bit_count() & 1:
                bad(f"{name(a)} anticommutes with stabilizer generator {i}")
    for x, (a, v, _) in enumerate(known):
        for b, _, w in known[x + 1 :]:
            # partners inside one pair anticommute; everything else commutes
            expected = b == a + 1 and a % 2 == 0
            if (v & w).bit_count() & 1 != expected:
                verb = "must anticommute" if expected else "must commute"
                bad(f"{name(a)} and {name(b)} {verb}")
    for a, v, _ in known:
        if not span.add(v):
            bad(f"{name(a)} depends on earlier generators")
    return violations


def validate(code: SubsystemCode, derive_gauge: int = 0) -> ValidationReport:
    """Check every structural invariant and complete the frame on success.

    Violations are collected, not raised.  ``derive_gauge`` says how many of
    the pairs derived by frame completion (when s + r + k < n) become gauge
    pairs; the rest become logical pairs.  The checks and the completed code
    are those of ``frame_rows`` on the code's rows and signs.
    """
    s = code.s
    return ValidationReport(*frame_rows(code.n, code.rows[:s], code.rows[s:], code.r, derive_gauge,
                                        code.signs))


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
    g = c.s + 2 * c.r
    rows = c.rows[: c.s] + c.rows[c.s + 1 : g : 2] + c.rows[g:]
    signs = c.signs[: c.s] + (0,) * c.r + c.signs[g:]
    return validated(SubsystemCode.from_rows(c.n, c.s + c.r, 0, rows, signs))


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
