"""Phased n-qubit Pauli operators in binary-symplectic form.

An operator is ``i**phase_exp * prod_j X_j**x_j * Z_j**z_j`` with the X
factor to the left of the Z factor on every qubit, so Y = iXZ contributes
x_j = z_j = 1 and +1 to the phase exponent.  ``x`` and ``z`` are packed
little-endian: bit j covers qubit j, matching the leftmost character of the
IXYZ string form.

Commutation, weight and group membership never look at the phase; the phase
exponent only matters for exact products and for stabilizer sign checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

_LETTER_BITS = {"I": (0, 0, 0), "X": (1, 0, 0), "Y": (1, 1, 1), "Z": (0, 1, 0)}
_BITS_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_SIGN_PREFIX = {0: "", 1: "+i", 2: "-", 3: "-i"}
# The longest list ``weight_sums`` builds: 2^24 ints take about 0.7 GB.
MAX_WEIGHT_SUMS = 1 << 24


class PauliFormatError(ValueError):
    """Bad Pauli string; ``position`` is the 1-based offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


@dataclass(frozen=True)
class PauliOp:
    """A phased Pauli operator on ``n`` qubits."""

    n: int
    phase_exp: int
    x: int
    z: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative qubit count")
        mask = (1 << self.n) - 1
        if not 0 <= self.phase_exp <= 3:
            raise ValueError("phase exponent must be in 0..3")
        if self.x < 0 or self.x & ~mask or self.z < 0 or self.z & ~mask:
            raise ValueError(f"x/z bits outside {self.n} qubits")

    @property
    def vec(self) -> int:
        """Symplectic (x|z) vector: x in bits 0..n-1, z in bits n..2n-1."""
        return self.x | (self.z << self.n)

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def sign_exponent(self) -> int:
        """k with self == i**k * (positive Hermitian Pauli on the same bits)."""
        return (self.phase_exp - (self.x & self.z).bit_count()) % 4

    def __str__(self) -> str:
        return pauli_to_string(self)


def identity(n: int) -> PauliOp:
    return PauliOp(n, 0, 0, 0)


def hermitian(n: int, x: int, z: int) -> PauliOp:
    """The +1-signed Hermitian Pauli with the given bit pattern."""
    return PauliOp(n, (x & z).bit_count() % 4, x, z)


def single(n: int, qubit: int, letter: str) -> PauliOp:
    """One-qubit X, Y or Z embedded at ``qubit`` (0-based), positive sign."""
    xb, zb, ph = _LETTER_BITS[letter]
    return PauliOp(n, ph, xb << qubit, zb << qubit)


def pauli_from_string(s: str) -> PauliOp:
    """Parse an optional sign prefix (+, -, +i, -i) and IXYZ letters."""
    if s.startswith(("+i", "-i")):
        phase, k = (1, 2) if s[0] == "+" else (3, 2)
    elif s.startswith(("+", "-")):
        phase, k = (0, 1) if s[0] == "+" else (2, 1)
    else:
        phase, k = 0, 0
    letters = s[k:]
    if not letters:
        raise PauliFormatError("empty Pauli string", k + 1)
    x = z = 0
    for i, ch in enumerate(letters):
        try:
            xb, zb, ph = _LETTER_BITS[ch]
        except KeyError:
            raise PauliFormatError(f"invalid character {ch!r}", k + i + 1) from None
        x |= xb << i
        z |= zb << i
        phase += ph
    return PauliOp(len(letters), phase % 4, x, z)


def pauli_to_string(p: PauliOp) -> str:
    """Inverse of :func:`pauli_from_string`; positive operators get no prefix."""
    letters = "".join(
        _BITS_LETTER[(p.x >> j) & 1, (p.z >> j) & 1] for j in range(p.n)
    )
    return _SIGN_PREFIX[p.sign_exponent] + letters


def multiply(p: PauliOp, q: PauliOp) -> PauliOp:
    """Group product p*q; the phase picks up 2*(p.z . q.x) from ZX reordering."""
    if p.n != q.n:
        raise ValueError(f"qubit count mismatch: {p.n} != {q.n}")
    phase = (p.phase_exp + q.phase_exp + 2 * ((p.z & q.x).bit_count() & 1)) % 4
    return PauliOp(p.n, phase, p.x ^ q.x, p.z ^ q.z)


def commutes(p: PauliOp, q: PauliOp) -> bool:
    """Whether p and q commute: their symplectic product is 0."""
    if p.n != q.n:
        raise ValueError(f"qubit count mismatch: {p.n} != {q.n}")
    return not ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) & 1


def weight(p: PauliOp) -> int:
    return p.weight


# -- raw (x|z) vector helpers used by the enumeration-heavy modules --------


def swap_halves(vec: int, n: int) -> int:
    """Swap the x and z halves; symplectic product = parity(v & swap(w))."""
    mask = (1 << n) - 1
    return ((vec & mask) << n) | (vec >> n)


def letter_vecs(n: int) -> list[int]:
    """The 3n letter table of (x|z) vectors: X, Y and Z of qubit q at 3q..3q+2."""
    return [v for q in range(n) for v in (1 << q, (1 | 1 << n) << q, 1 << n + q)]


def letter_keys(n: int, rows: Sequence[int]) -> list[int]:
    """``letter_vecs(n)`` as keys: bit i of a key is the symplectic product with rows[i]."""
    cols = [0] * (2 * n)  # bit i of cols[c] is bit c of rows[i]
    for i, v in enumerate(rows):
        while v:
            cols[(v & -v).bit_length() - 1] |= 1 << i
            v &= v - 1
    return [key for z, x in zip(cols[n:], cols[:n]) for key in (z, z ^ x, x)]


def weight_sums(letters: list[int], w: int) -> list[int]:
    """Every weight-w Pauli over a 3n letter table: the XOR of one letter from each of w qubits.

    Qubit sets come in lexicographic order, and within a set the letters run
    X < Y < Z with the first qubit slowest; the decoding table's
    representatives depend on this order.  ``w = 0`` gives [0], and
    ``w = 1`` returns ``letters`` itself.  A list of more than
    ``MAX_WEIGHT_SUMS`` Paulis raises ValueError before any is built.
    """
    if w < 2:
        return letters if w else [0]
    triples = [letters[j : j + 3] for j in range(0, len(letters), 3)]
    n, prefixes = len(triples), [([0], 0)]  # (sums over a set's first qubits, next qubit)
    if (size := comb(n, w) * 3**w) > MAX_WEIGHT_SUMS:
        raise ValueError(f"{size} Paulis of weight {w} on {n} qubits exceed {MAX_WEIGHT_SUMS}")
    for i in range(w - 1):
        prefixes = [([s ^ t for s in sums for t in triples[p]], p + 1)
                    for sums, q in prefixes for p in range(q, n - w + 1 + i)]
    return [s ^ t for sums, q in prefixes for trip in triples[q:] for s in sums for t in trip]


def vec_hermitian(n: int, vec: int) -> PauliOp:
    mask = (1 << n) - 1
    return hermitian(n, vec & mask, vec >> n)
