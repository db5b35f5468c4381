"""Operator classification, code distance and correctability of error sets.

Any Pauli falls into exactly one of three classes against a valid code: it
anticommutes with some stabilizer generator, or it lies in the gauge group,
or it acts nontrivially on the encoded qubits.  The distance is the minimum
weight over the third class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import gf2
from .code import SubsystemCode, validated
from .pauli import BudgetExceededError, PauliOp, hermitian, key_layers, letter_keys, pauli_to_string, swap_halves
from .tableau import check_qubits

DEFAULT_BUDGET = 1 << 30


class Kind(enum.Enum):
    OUTSIDE_N = "outside_normalizer"
    GAUGE = "gauge"
    LOGICAL = "logical"


@dataclass(frozen=True)
class OperatorClass:
    kind: Kind
    # For logical operators: coefficients on (x1, z1, x2, z2, ...) mod gauge.
    label: tuple[int, ...] = ()

    def label_str(self) -> str:
        if self.kind is not Kind.LOGICAL:
            return self.kind.value
        k = len(self.label) // 2
        x, z = (sum(b << j for j, b in enumerate(self.label[i::2])) for i in (0, 1))
        word = pauli_to_string(hermitian(k, x, z))
        return "".join(c if k == 1 else f"{c}{j + 1}" for j, c in enumerate(word) if c != "I")


@dataclass(frozen=True)
class CorrectabilityResult:
    correctable: bool
    witness: tuple[PauliOp, PauliOp] | None = None
    witness_class: OperatorClass | None = None


class _Tables:
    """Per-code precomputation shared by the classify/decode hot paths.

    A validated code is a complete symplectic frame, so a commuting operator's
    coefficient on X̄_j is <v, Z̄_j> (label bit 2j) and on Z̄_j is <v, X̄_j>
    (bit 2j+1); it is in the gauge group exactly when all label bits vanish.
    ``key`` maps a vector to its syndrome in the low s bits and its label
    bits above them.
    """

    __slots__ = ("key", "s")

    def __init__(self, code: SubsystemCode):
        s, g = code.s, code.s + 2 * code.r
        lx, lz = code.rows[g::2], code.rows[g + 1 :: 2]
        rows = [*code.rows[:s], *[v for pair in zip(lz, lx) for v in pair]]
        self.key = gf2.ParityMap((swap_halves(v, code.n) for v in rows), 2 * code.n)
        self.s = s

    def syndrome_bits(self, vec: int) -> int:
        return self.key(vec) & ((1 << self.s) - 1)

    def class_of(self, key: int) -> OperatorClass:
        """The class of an operator with this key."""
        if key & ((1 << self.s) - 1):
            return OperatorClass(Kind.OUTSIDE_N)
        label = key >> self.s
        if not label:
            return OperatorClass(Kind.GAUGE)
        width = self.key.width - self.s
        return OperatorClass(Kind.LOGICAL, tuple((label >> i) & 1 for i in range(width)))

    def classify_vec(self, vec: int) -> OperatorClass:
        return self.class_of(self.key(vec))


@lru_cache(maxsize=256)
def _tables(code: SubsystemCode) -> _Tables:
    return _Tables(code)


def classify(code: SubsystemCode, p: PauliOp) -> OperatorClass:
    c = validated(code)
    check_qubits(c.n, (p,))
    return _tables(c).classify_vec(p.vec)


def logical_weight(n: int, stab_rows: Sequence[int], logical_rows: Sequence[int], limit: int,
                   budget: int | None = None) -> int:
    """Least weight below ``limit`` of a Pauli that commutes with S but not with L, else ``limit``.

    S and L are the stabilizer and logical rows.  Such a Pauli of weight d
    is a product A·B, weight(A) = ⌈d/2⌉ and weight(B) = ⌊d/2⌋, whose
    syndromes agree and whose labels differ.  So ``key_layers`` walks each
    key once, lightest first: a key of layer w that the syndrome → label map
    of the lighter keys (the identity's among them) contradicts gives
    d = 2w − 1, and one that contradicts the map as layer w joins it gives
    2w.  ``budget`` caps each layer's bound; a limit below 4 with no budget
    reads the letters alone.
    """
    s, seen = len(stab_rows), {0: 0}
    low, letters = (1 << s) - 1, letter_keys(n, [*stab_rows, *logical_rows])
    layers = [letters] if limit < 4 and budget is None else key_layers(letters, s + len(logical_rows), budget)
    for w, keys in zip(range(1, min(n, limit // 2) + 1), layers):  # 2w − 1 < limit
        for d, look in ((2 * w - 1, seen.get), (2 * w, seen.setdefault)):
            if d >= limit:
                break
            for key in keys:
                if look(key & low, key >> s) != key >> s:
                    return d
    return limit


def distance(code: SubsystemCode, method: str = "coset", budget: int = DEFAULT_BUDGET) -> int:
    """Minimum weight of a normalizer element outside the gauge group.

    ``coset`` is ``logical_weight`` with limit n, which bounds the weight of
    every logical row; ``budget`` caps the bound on each key layer it walks,
    min(|layer w − 1|·3n, 2^(s + 2k)), 3n at weight 1.
    ``exhaustive``, the independent reference, walks the whole centralizer
    row space in a Gray-code order, one XOR plus a popcount per step, and
    ``budget`` caps its 2^dim elements.
    """
    c = validated(code)
    if c.k == 0:
        raise ValueError("distance is undefined for a code with no logical qubits")
    n, low = c.n, (1 << c.n) - 1
    if method == "coset":  # the stabilizer and gauge rows come first
        return logical_weight(n, c.rows[: c.s], c.rows[c.s + 2 * c.r :], n, budget)
    if method != "exhaustive":
        raise ValueError(f"unknown method {method!r}; use 'exhaustive' or 'coset'")
    rows = list(gf2.Eliminator(swap_halves(v, n) for v in c.rows[: c.s]).kernel(range(2 * n)))
    if 1 << len(rows) > budget:
        raise BudgetExceededError(f"2^{len(rows)} centralizer elements exceed the budget {budget}")
    # centralizer elements have no syndrome: gauge iff the key is 0
    best, key = 2 * n, _tables(c).key
    for v in gf2.gray_walk(0, rows):
        w = ((v | v >> n) & low).bit_count()
        if w < best and key(v):
            best = w
            if best == 1:
                break
    return best


def is_correctable_set(
    code: SubsystemCode, errors: Sequence[PauliOp]
) -> CorrectabilityResult:
    """Pairwise product test: no product of two errors may act logically.

    Products landing outside the normalizer or inside the gauge group are
    harmless; the first pair whose product classifies as logical is returned
    as a witness.
    """
    c = validated(code)
    if not errors:
        raise ValueError("empty error set")
    check_qubits(c.n, errors)
    tables = _tables(c)
    for i in range(len(errors)):
        for j in range(i, len(errors)):
            # i == j gives the identity (mod phase), which is always gauge
            cls = tables.classify_vec(errors[i].vec ^ errors[j].vec)  # their product
            if cls.kind is Kind.LOGICAL:
                return CorrectabilityResult(False, (errors[i], errors[j]), cls)
    return CorrectabilityResult(True)
