"""Slow string-based Pauli arithmetic used as an independent test oracle.

Everything here works on IXYZ strings and 0/1 lists, deliberately avoiding
the packed-integer representation and the library's elimination code.
"""

from itertools import combinations, product

# single-qubit products: (phase exponent of i, letter)
_TABLE = {
    ("I", "I"): (0, "I"), ("I", "X"): (0, "X"), ("I", "Y"): (0, "Y"), ("I", "Z"): (0, "Z"),
    ("X", "I"): (0, "X"), ("Y", "I"): (0, "Y"), ("Z", "I"): (0, "Z"),
    ("X", "X"): (0, "I"), ("Y", "Y"): (0, "I"), ("Z", "Z"): (0, "I"),
    ("X", "Y"): (1, "Z"), ("Y", "X"): (3, "Z"),
    ("Y", "Z"): (1, "X"), ("Z", "Y"): (3, "X"),
    ("Z", "X"): (1, "Y"), ("X", "Z"): (3, "Y"),
}


def mul(a: str, b: str) -> tuple[int, str]:
    """Product of two Pauli strings: (phase exponent of i, letters)."""
    phase = 0
    letters = []
    for ca, cb in zip(a, b):
        ph, letter = _TABLE[(ca, cb)]
        phase = (phase + ph) % 4
        letters.append(letter)
    return phase, "".join(letters)


_SIGNS = {"": 0, "+": 0, "+i": 1, "-": 2, "-i": 3}


def split_sign(s: str) -> tuple[int, str]:
    """A signed Pauli string such as '-iYIXZ' as (phase exponent of i, letters)."""
    letters = s.lstrip("+-i")
    return _SIGNS[s[: len(s) - len(letters)]], letters


def anticommute(a: str, b: str) -> bool:
    count = 0
    for ca, cb in zip(a, b):
        if ca != "I" and cb != "I" and ca != cb:
            count += 1
    return count % 2 == 1


def weight(a: str) -> int:
    return sum(1 for c in a if c != "I")


def to_bits(a: str) -> list[int]:
    xs = [1 if c in "XY" else 0 for c in a]
    zs = [1 if c in "ZY" else 0 for c in a]
    return xs + zs


def in_span(rows: list[list[int]], vec: list[int]) -> bool:
    """Membership by fresh Gaussian elimination on 0/1 lists."""
    work = [row[:] for row in rows]
    v = vec[:]
    ncols = len(v)
    used: list[list[int]] = []
    for col in range(ncols):
        pivot = None
        for row in work:
            if row[col] == 1:
                pivot = row
                break
        if pivot is None:
            continue
        work.remove(pivot)
        work = [
            [(x + y) % 2 for x, y in zip(row, pivot)] if row[col] else row
            for row in work
        ]
        if v[col]:
            v = [(x + y) % 2 for x, y in zip(v, pivot)]
        used.append(pivot)
    return all(x == 0 for x in v)


def rank(rows: list[list[int]]) -> int:
    work = [row[:] for row in rows]
    ncols = len(rows[0]) if rows else 0
    r = 0
    for col in range(ncols):
        pivot = None
        for row in work:
            if row[col] == 1:
                pivot = row
                break
        if pivot is None:
            continue
        work.remove(pivot)
        work = [
            [(x + y) % 2 for x, y in zip(row, pivot)] if row[col] else row
            for row in work
        ]
        r += 1
    return r


def all_paulis_up_to_weight(n: int, wmax: int, include_identity: bool = True):
    if include_identity:
        yield "I" * n
    for w in range(1, wmax + 1):
        for qubits in combinations(range(n), w):
            for letters in product("XYZ", repeat=w):
                s = ["I"] * n
                for q, letter in zip(qubits, letters):
                    s[q] = letter
                yield "".join(s)


def classify_string(stab: list[str], group: list[str], p: str) -> str:
    """'outside', 'gauge' or 'logical' by definition-level checks."""
    if any(anticommute(p, g) for g in stab):
        return "outside"
    rows = [to_bits(g) for g in group]
    if in_span(rows, to_bits(p)):
        return "gauge"
    return "logical"


def brute_distance(stab: list[str], group: list[str], n: int, wmax: int) -> int | None:
    """Minimum weight of a commuting operator outside the group span."""
    for w in range(1, wmax + 1):
        for p in all_paulis_up_to_weight(n, w, include_identity=False):
            if weight(p) != w:
                continue
            if classify_string(stab, group, p) == "logical":
                return w
    return None


def _add(a: list[int], b: list[int]) -> list[int]:
    return [(x + y) % 2 for x, y in zip(a, b)]


def rref_lists(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan by column scan: (nonzero reduced rows, pivot columns).

    Each row may carry extra entries past ``ncols``; they ride along with
    the eliminations but never hold a pivot.
    """
    work = [row[:] for row in rows]
    reduced: list[list[int]] = []
    pivots: list[int] = []
    for col in range(ncols):
        pivot = next((row for row in work if row[col]), None)
        if pivot is None:
            continue
        work.remove(pivot)
        work = [_add(row, pivot) if row[col] else row for row in work]
        reduced = [_add(row, pivot) if row[col] else row for row in reduced]
        reduced.append(pivot)
        pivots.append(col)
    return reduced, pivots


def kernel_lists(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """One null vector per free column f, ascending: bit f, no other free bit."""
    reduced, pivots = rref_lists(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for row, p in zip(reduced, pivots):
            if row[f]:
                v[p] = 1
        basis.append(v)
    return basis


def centralizer_lists(words: list[str], n: int) -> list[list[int]]:
    """A basis of the Paulis commuting with every word, as (x|z) 0/1 lists.

    v commutes with g exactly when v . (z|x of g) is even, so this is the
    null space of the words' swapped bit lists.
    """
    swapped = [bits[n:] + bits[:n] for bits in map(to_bits, words)]
    return kernel_lists(swapped, 2 * n)


def affine_particular(system: list[tuple[list[int], int]], ncols: int) -> list[int] | None:
    """The solution of mask . u = b with every free column 0, or None."""
    reduced, pivots = rref_lists([mask + [b] for mask, b in system], ncols + 1)
    if ncols in pivots:
        return None  # some row reduced to 0 = 1
    u = [0] * ncols
    for row, p in zip(reduced, pivots):
        u[p] = row[ncols]
    return u


def membership_combination(rows: list[list[int]], v: list[int]) -> list[int] | None:
    """Coefficients of v over the greedily independent rows, or None.

    A row is kept when it raises the rank of the rows kept before it; the
    coefficients of skipped rows are 0, which makes the answer unique.
    """
    ncols = len(v)
    kept: list[int] = []
    for i, row in enumerate(rows):
        if rank([rows[j] for j in kept] + [row]) > len(kept):
            kept.append(i)
    tagged = [rows[i] + [1 if j == i else 0 for j in range(len(rows))] for i in kept]
    reduced, pivots = rref_lists(tagged, ncols)
    w = v + [0] * len(rows)
    for row, p in zip(reduced, pivots):
        if w[p]:
            w = _add(w, row)
    if any(w[:ncols]):
        return None
    return w[ncols:]
