"""Dense-matrix ground truth for small qubit counts.

A Pauli operator is defined here by its explicit 2^n x 2^n matrix, the
Kronecker product of its single-qubit factors (``dense``).  The checks never
consult the symplectic machinery (no ``multiply``, ``commutes`` or GF(2)
algebra), so they cross-check the group-theoretic results independently.

They run in the code space's own m x m algebra, m = 2^(n-s).  Every Pauli
matrix is a signed permutation, b -> +-(b ^ X), so the projector P onto the
joint +1 eigenspace of the stabilizer, the average of its 2^s group
elements, is nonzero only on orbits of the group's X masks.  P's column at
an orbit's least index, normalised, is one basis vector, and the m orbits
give the orthonormal basis V (V V^dagger = P) with one nonzero per row of
its support.  A Pauli applied to V keeps that form, one (column, value) per
row, so every V^dagger Q V, and every (Ea V)^dagger (Eb V), is a scatter of
at most |support| terms into an m x m block, each block zero or monomial.
For an operator L write L_c = V^dagger L V and D = L V - V L_c, with
reduced QR D = Q R.  Since V^dagger D = 0, the dense norm of an m x m
block C splits orthogonally into m x m terms,

    ||[V C V^dagger, L V V^dagger]||_F = ||V C L_c - (L V) C||_F
                                        = hypot(||[C, L_c]||_F, ||R C||_F),

which assumes nothing about how L commutes with the stabilizer and is 0,
uncomputed, for a zero block C.  Matrices are capped at n = 10; beyond that
the functions refuse instead of degrading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .code import SubsystemCode, validated
from .pauli import PauliOp

MAX_QUBITS = 10
TOL = 1e-10
# verify_correctability takes _BLOCK_BYTES // V.nbytes errors per block; one
# row's pair blocks against a block, block x m x m complex, stay below it
_BLOCK_BYTES = 1 << 23

_FACTORS = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),  # X @ Z
}


def dense(p: PauliOp) -> np.ndarray:
    """Kronecker product of the single-qubit factors times i**phase_exp.

    Qubit 0 is the leftmost tensor factor.  The map is a multiplicative
    homomorphism: dense(multiply(p, q)) == dense(p) @ dense(q).
    """
    if p.n > MAX_QUBITS:
        raise ValueError(f"dense matrices are limited to {MAX_QUBITS} qubits")
    m = np.ones((1, 1), dtype=complex)
    for j in range(p.n):
        m = np.kron(m, _FACTORS[(p.x >> j) & 1, (p.z >> j) & 1])
    return (1j ** p.phase_exp) * m


@lru_cache(maxsize=None)
def _index_mask(bits: int, n: int) -> int:
    """Qubit bits as a dense-index mask: qubit 0 is the most significant bit."""
    return int(f"{bits:0{n}b}"[::-1], 2)


def _signed_permutation(p: PauliOp, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(src, sign): row rows[k] of dense(p) is sign[k] at column src[k], else 0.

    With X and Z the index masks of ``p.x`` and ``p.z``, qubit j's factor
    X**x_j Z**z_j makes dense(p)|b> = i**phase_exp (-1)**popcount(b & Z) |b ^ X>.
    """
    src = rows ^ _index_mask(p.x, p.n)
    odd = (np.bitwise_count(src & _index_mask(p.z, p.n)) & 1).astype(bool)
    phase = 1j ** p.phase_exp
    return src, np.where(odd, -phase, phase)


def _apply(p: PauliOp, m: np.ndarray) -> np.ndarray:
    """``dense(p) @ m`` computed as the signed row permutation it is."""
    if m.ndim != 2 or m.shape[0] != 1 << p.n:
        raise ValueError(f"a {p.n}-qubit operator needs {1 << p.n} matrix rows")
    src, sign = _signed_permutation(p, np.arange(m.shape[0]))
    return sign[:, None] * m[src]


@dataclass(frozen=True, eq=False)
class CodeProjector:
    code: SubsystemCode
    matrix: np.ndarray  # P, 2^n x 2^n
    basis: np.ndarray  # V, 2^n x 2^(n-s): normalised orbit columns of P, V V^dagger = P
    support: np.ndarray  # indices of the nonzero rows of V, which every V^dagger X sums over
    column: np.ndarray  # per row of V, the column of its one nonzero, or -1 off the support
    entry: np.ndarray  # per row of V, that nonzero, or 0 off the support


@lru_cache(maxsize=8)
def code_projector(code: SubsystemCode) -> CodeProjector:
    """Projector onto the joint +1 eigenspace of the stabilizer generators.

    P = prod (I + g)/2 is the average of the 2^s stabilizer group elements,
    signed permutations composed from the generators' and scattered once.
    Each entry is a sum of +-1 or +-i over 2^s, so P is exact and bit for bit
    the Kronecker-built product.  Element e maps row b to column b ^ X_e, so
    P is nonzero only within the X-orbits of its support, the rows where its
    diagonal is nonzero.  P's column at an orbit's least index, over the
    square root of its diagonal entry, is the orbit's basis vector; V takes
    the m orbits' vectors ordered by that index.
    """
    c = validated(code)
    if c.n > MAX_QUBITS:
        raise ValueError(f"dense matrices are limited to {MAX_QUBITS} qubits")
    rows = np.arange(1 << c.n)
    cols, signs = rows[None, :], np.ones((1, 1 << c.n), dtype=complex)
    for g in c.stabilizer:  # element e is signs[r] at (r, cols[r]), and so is g e
        src, sign = _signed_permutation(g, rows)
        cols, signs = np.vstack([cols, cols[:, src]]), np.vstack([signs, sign * signs[:, src]])
    proj = np.zeros((1 << c.n, 1 << c.n), dtype=complex)
    np.add.at(proj, (rows, cols), signs / (1 << c.s))
    support = np.flatnonzero(proj.diagonal())
    # cols[:, b] is b's X-orbit, so its least entry names b's basis vector
    least, orbit = np.unique(cols[:, support].min(axis=0), return_inverse=True)
    basis = proj[:, least] / np.sqrt(proj.diagonal()[least].real)
    column = np.full(1 << c.n, -1)
    column[support] = orbit
    entry = np.zeros(1 << c.n, dtype=complex)
    entry[support] = basis[support, orbit]
    return CodeProjector(c, proj, basis, support, column, entry)


def verify_projector(proj: CodeProjector) -> bool:
    """Check V against the code space without forming a 2^n x 2^n product.

    V has m = 2^(n-s) orthonormal columns, V V^dagger = P and g V = V for
    every stabilizer generator g; together these give P^2 = P = P^dagger,
    trace(P) = m, and P's range the joint +1 eigenspace at full dimension.
    """
    c, v = proj.code, proj.basis
    return bool(
        v.shape[1] == 1 << (c.n - c.s)
        and np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])) < TOL
        and np.linalg.norm(v @ v.conj().T - proj.matrix) < TOL
        and all(np.linalg.norm(_apply(g, v) - v) < TOL for g in c.stabilizer)
    )


@dataclass
class OracleReport:
    ok: bool
    failures: list[str] = field(default_factory=list)
    max_residual: float = 0.0
    failing_pair: tuple[PauliOp, PauliOp] | None = None


def _applied(proj: CodeProjector, ops: list[PauliOp], rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` of ops[0] ... ops[-1] V, each a signed row of V, as the
    (column, value) of its one nonzero: -1 and 0 where that row of V is zero."""
    sign = 1
    for p in ops:
        rows, step = _signed_permutation(p, rows)
        sign = sign * step
    return proj.column[rows], sign * proj.entry[rows]


def _gram(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray], m: int) -> np.ndarray:
    """A^dagger B, one m x m block per B, for ``_applied`` rows: ``a`` over some
    rows and ``b`` a stack over the same rows.  Each row where both are nonzero
    adds conj(A's value) B's value at (A's column, B's column): a scatter."""
    (ca, va), (cb, vb) = a, b
    hit = (ca >= 0) & (cb >= 0)
    at = (np.arange(len(cb))[:, None] * m + ca) * m + cb
    out = np.zeros(len(cb) * m * m, dtype=complex)
    np.add.at(out, at[hit], (va.conj() * vb)[hit])
    return out.reshape(len(cb), m, m)


def _action(proj: CodeProjector, p: PauliOp) -> np.ndarray:
    """V^dagger p V, P p P in the code-space basis, over V's row support."""
    rows = proj.support
    return _gram(_applied(proj, [], rows), _applied(proj, [p], rows[None]), proj.basis.shape[1])[0]


def _stacked(proj: CodeProjector, errors: list[PauliOp]) -> tuple[np.ndarray, np.ndarray]:
    """Each error applied to the code-space basis, E V as ``_applied`` rows, stacked."""
    rows = np.arange(len(proj.column))
    cols, vals = zip(*(_applied(proj, [e], rows) for e in errors))
    return np.array(cols), np.array(vals)


def _blocks(proj: CodeProjector, ops: list[PauliOp]) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (L_c, R) over ops: L_c = V^dagger L V and (L V - V L_c) = Q R."""
    v = proj.basis
    lcs = np.empty((len(ops), v.shape[1], v.shape[1]), dtype=complex)
    rs = np.empty_like(lcs)
    for i, op in enumerate(ops):
        lcs[i] = _action(proj, op)
        rs[i] = np.linalg.qr(_apply(op, v) - v @ lcs[i], mode="r")
    return lcs, rs


def _comm_norm(c: np.ndarray, lcs: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """||[V c V^dagger, L P]||_F for every stacked (L_c, R) of ``_blocks``.

    c is one m x m block or a stack of them; the result has c's leading axes
    followed by one axis over the operators.
    """
    c = c[..., None, :, :]
    comm = np.linalg.norm(c @ lcs - lcs @ c, axis=(-2, -1))
    return np.hypot(comm, np.linalg.norm(rs @ c, axis=(-2, -1)))


def _pair_residuals(grams: np.ndarray, lcs: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """``_comm_norm`` of a stack of blocks; [0, L_c] and R 0 are exactly 0, unbuilt."""
    resid = np.zeros((len(grams), len(lcs)))
    live = grams.any(axis=(1, 2))
    resid[live] = _comm_norm(grams[live], lcs, rs)
    return resid


@lru_cache(maxsize=8)
def _logical_actions(code: SubsystemCode) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (L_c, R) for every logical generator L."""
    return _blocks(code_projector(code), code.logical_ops())


def _is_hermitian(p: PauliOp) -> bool:
    """dense(p) = dense(p)^dagger: row r holds sign[r] at column src[r], and
    src is an involution, so the conjugate transpose holds conj(sign[src[r]])."""
    src, sign = _signed_permutation(p, np.arange(1 << p.n))
    return bool(np.array_equal(sign, sign[src].conj()))


def verify_subsystem_structure(code: SubsystemCode) -> OracleReport:
    """Check that gauge and logical actions factorize over the code space.

    Every gauge and logical generator must be Hermitian, every compressed
    gauge action must commute with every logical action and vice versa, and
    each logical pair must anticommute on the code space.
    """
    proj = code_projector(validated(code))
    c, rows, m = proj.code, proj.support, proj.basis.shape[1]
    at_v = _applied(proj, [], rows)
    logical = _logical_actions(c)
    gauge = _blocks(proj, c.gauge_ops())
    report = OracleReport(ok=True)

    for kind, ops in (("gauge", c.gauge_ops()), ("logical", c.logical_ops())):
        for i, p in enumerate(ops):
            if not _is_hermitian(p):
                report.ok = False
                report.failures.append(f"{kind} op {i} ({p}) is not Hermitian")
    for first, second, resid in (
        ("gauge", "logical", _comm_norm(gauge[0], *logical)),
        ("logical", "gauge", _comm_norm(logical[0], *gauge)),
    ):
        report.max_residual = max(report.max_residual, float(resid.max(initial=0.0)))
        for i, j in zip(*np.nonzero(resid > TOL)):
            report.ok = False
            report.failures.append(
                f"{first} op {i} does not commute with {second} op {j} on the code space"
            )
    for j, (lx, lz) in enumerate(c.logical_pairs):
        anti = sum(_gram(at_v, _applied(proj, ops, rows[None]), m)[0] for ops in ([lx, lz], [lz, lx]))
        resid = float(np.linalg.norm(anti))
        report.max_residual = max(report.max_residual, resid)
        if resid > TOL:
            report.ok = False
            report.failures.append(f"logical pair {j} fails to anticommute on the code space")
    return report


def verify_correctability(code: SubsystemCode, errors: list[PauliOp]) -> OracleReport:
    """Check the compressed pair products against the logical algebra.

    For every pair the operator P Ea' Eb P must commute with every logical
    action on the code space; the commutant of the logical algebra there is
    exactly the gauge side, so commuting means the pair is harmless.  Pairs
    are scanned as (a, b) with b >= a and stop at the first witness.
    """
    if not errors:
        raise ValueError("empty error set")
    proj = code_projector(validated(code))
    c, v = proj.code, proj.basis
    lcs, rs = _logical_actions(c)
    m = v.shape[1]
    block = max(1, _BLOCK_BYTES // v.nbytes)  # errors per stack of E V
    report = OracleReport(ok=True)
    for home in range(0, len(errors), block):
        here = _stacked(proj, errors[home : home + block])
        # rows home + i, i < stop, are scanned on; row stop holds the first
        # witness yet, and seen[i] is row i's largest residual up to a witness
        stop, witness = len(here[0]), None
        seen = np.zeros(stop)
        for start in range(home, len(errors), block):
            wide = here if start == home else _stacked(proj, errors[start : start + block])
            for i in range(stop):
                lo = max(home + i, start)
                # V' Ea' Eb V for every b >= lo, over the rows where Ea V is nonzero
                rows = proj.support ^ _index_mask(errors[home + i].x, c.n)
                ea = (here[0][i, rows], here[1][i, rows])
                eb = (wide[0][lo - start :, rows], wide[1][lo - start :, rows])
                resid = _pair_residuals(_gram(ea, eb, m), lcs, rs).ravel()
                # residuals come in scan order (b, then logical op); stop at a witness
                bad = np.flatnonzero(resid > TOL)[:1]
                seen[i] = max(seen[i], resid[: bad[0] + 1 if bad.size else None].max(initial=0.0))
                if bad.size:
                    stop, witness = i, (errors[home + i], errors[lo + int(bad[0]) // len(lcs)])
                    break
        report.max_residual = max(report.max_residual, float(seen[: stop + 1].max()))
        if witness:
            report.ok, report.failing_pair = False, witness
            report.failures.append(f"pair ({witness[0]}, {witness[1]}) acts on the encoded qubits")
            return report
    return report


def acts_as_gauge(code: SubsystemCode, p: PauliOp) -> bool:
    """Dense test: nonzero on the code space and in the logical commutant."""
    proj = code_projector(validated(code))
    compressed = _action(proj, p)
    if float(np.linalg.norm(compressed)) <= TOL:
        return False
    return bool(np.all(_comm_norm(compressed, *_logical_actions(proj.code)) <= TOL))


def vanishes_on_code_space(code: SubsystemCode, p: PauliOp) -> bool:
    proj = code_projector(validated(code))
    return float(np.linalg.norm(_action(proj, p))) <= TOL
