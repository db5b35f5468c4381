"""Syndrome extraction and lookup-table recovery modulo the gauge group.

Recovery applies the stored coset representative for the measured syndrome;
success means the residual operator is a gauge transformation, failure means
it acts on the encoded qubits.  Syndromes outside the table are reported as
unrecoverable rather than silently mapped to identity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .code import SubsystemCode, validated
from .distance import Kind, OperatorClass, _tables
from .pauli import PauliOp, letter_vecs, multiply, pauli_to_string, vec_hermitian, weight_sums
from .tableau import check_qubits


@dataclass(frozen=True)
class Syndrome:
    """Stabilizer measurement outcomes; bit j set means generator j read -1."""

    width: int
    bits: int

    def __str__(self) -> str:
        return "".join("1" if (self.bits >> j) & 1 else "0" for j in range(self.width))

    def outcomes(self) -> tuple[int, ...]:
        return tuple(-1 if (self.bits >> j) & 1 else 1 for j in range(self.width))

    @property
    def trivial(self) -> bool:
        return self.bits == 0


class Outcome(enum.Enum):
    GAUGE_SUCCESS = "gauge_success"
    LOGICAL_FAILURE = "logical_failure"
    UNRECOVERABLE = "unrecoverable"


@dataclass(frozen=True)
class Recovery:
    outcome: Outcome
    logical_class: OperatorClass | None = None
    residual: PauliOp | None = None


@dataclass(frozen=True)
class DecodingTable:
    """Map from syndrome bits to a minimum-weight coset representative."""

    code: SubsystemCode
    t: int
    entries: dict[int, PauliOp]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", dict(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def dump(self) -> str:
        """One line per entry: '<syndrome bits> <pauli string>', sorted."""
        s = self.code.s
        lines = (f"{Syndrome(s, key)} {pauli_to_string(rep)}" for key, rep in self.entries.items())
        return "\n".join(sorted(lines)) + "\n"


def syndrome(code: SubsystemCode, e: PauliOp) -> Syndrome:
    """Commutation pattern of ``e`` against the stabilizer generators."""
    c = validated(code)
    check_qubits(c.n, (e,))
    return Syndrome(c.s, _tables(c).syndrome_bits(e.vec))


def build_table(code: SubsystemCode, t: int) -> DecodingTable:
    """Tabulate the first (minimum-weight) error seen for every syndrome.

    Errors are visited by weight, each weight in the order of ``weight_sums``,
    which fixes the representative chosen for each syndrome.  The lists are
    built first, so one over the cap of ``weight_sums`` stops the build at once.
    """
    c = validated(code)
    if t < 0:
        raise ValueError("max corrected weight must be >= 0")
    if t > c.n:
        raise ValueError(f"max corrected weight {t} exceeds {c.n} qubits")
    tables, letters, first = _tables(c), letter_vecs(c.n), {}
    for vec in (v for vecs in [weight_sums(letters, w) for w in range(t + 1)] for v in vecs):
        first.setdefault(tables.syndrome_bits(vec), vec)
    return DecodingTable(c, t, {bits: vec_hermitian(c.n, vec) for bits, vec in first.items()})


def recover_and_classify(
    code: SubsystemCode, table: DecodingTable, e: PauliOp
) -> Recovery:
    """Look up the syndrome, apply the representative, classify the residual."""
    c = validated(code)
    if table.code != c:
        raise ValueError("decoding table was built for a different code")
    check_qubits(c.n, (e,))
    tables = _tables(c)
    rep = table.entries.get(tables.syndrome_bits(e.vec))
    if rep is None:
        return Recovery(Outcome.UNRECOVERABLE)
    residual = multiply(rep, e)
    cls = tables.classify_vec(residual.vec)
    # equal syndromes force the residual back into the normalizer
    if cls.kind is Kind.OUTSIDE_N:
        raise RuntimeError(f"residual {residual} of a table entry has a nonzero syndrome")
    if cls.kind is Kind.GAUGE:
        return Recovery(Outcome.GAUGE_SUCCESS, residual=residual)
    return Recovery(Outcome.LOGICAL_FAILURE, logical_class=cls, residual=residual)
