"""Dense-matrix ground truth for small qubit counts.

A Pauli operator is defined here by its explicit 2^n x 2^n matrix, the
Kronecker product of its single-qubit factors (``dense``).  The checks never
consult the symplectic machinery (no ``multiply``, ``commutes`` or GF(2)
algebra), so they cross-check the group-theoretic results independently.

They run in the code space's own m x m algebra, m = 2^(n-s).  The projector
P onto the joint +1 eigenspace of the stabilizer generators is built from
its defining product, and an orthonormal basis V of its range
(V V^dagger = P) comes from a pivoted Cholesky factor of P, trace(P)
columns long, and one QR.  A Pauli is applied to V as the signed row
permutation its matrix is, at O(2^n) cost per column.  For an operator L
write L_c = V^dagger L V and D = L V - V L_c, with reduced QR D = Q R.
Since V^dagger D = 0, the dense norm of an m x m block C splits
orthogonally into m x m terms,

    ||[V C V^dagger, L V V^dagger]||_F = ||V C L_c - (L V) C||_F
                                        = hypot(||[C, L_c]||_F, ||R C||_F),

which assumes nothing about how L commutes with the stabilizer.  Matrices
are capped at n = 10; beyond that the functions refuse instead of degrading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .code import SubsystemCode, validated
from .pauli import PauliOp

MAX_QUBITS = 10
TOL = 1e-10
_BLOCK_BYTES = 1 << 23  # the E V stacks verify_correctability holds at once

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


def _index_mask(bits: int, n: int) -> int:
    """Qubit bits as a dense-index mask: qubit 0 is the most significant bit."""
    return int(f"{bits:0{n}b}"[::-1], 2)


def _apply(p: PauliOp, m: np.ndarray) -> np.ndarray:
    """``dense(p) @ m`` computed as the signed row permutation it is.

    The factor of qubit j is X**x_j Z**z_j, so with X and Z the index masks
    of ``p.x`` and ``p.z``, dense(p)|b> = i**phase_exp (-1)**popcount(b & Z)
    |b ^ X>: row r of the product is row r ^ X of m, signed by that source
    index.
    """
    if m.ndim != 2 or m.shape[0] != 1 << p.n:
        raise ValueError(f"a {p.n}-qubit operator needs {1 << p.n} matrix rows")
    src = np.arange(m.shape[0]) ^ _index_mask(p.x, p.n)
    odd = (np.bitwise_count(src & _index_mask(p.z, p.n)) & 1).astype(bool)
    phase = 1j ** p.phase_exp
    return np.where(odd, -phase, phase)[:, None] * m[src]


@dataclass(frozen=True, eq=False)
class CodeProjector:
    code: SubsystemCode
    matrix: np.ndarray  # P, 2^n x 2^n
    basis: np.ndarray  # V, 2^n x 2^(n-s) with orthonormal columns and V V^dagger = P


@lru_cache(maxsize=8)
def code_projector(code: SubsystemCode) -> CodeProjector:
    """Projector onto the joint +1 eigenspace of the stabilizer generators.

    P is the product of the (I + g)/2, accumulated as P <- (P + g P)/2.
    Every entry stays a dyadic rational, so the result is exact and equal
    bit for bit to the Kronecker-built product.  Its range is spanned by the
    trace(P) columns of a pivoted Cholesky factor F (F F^dagger = P), whose
    QR gives the orthonormal basis V.
    """
    c = validated(code)
    if c.n > MAX_QUBITS:
        raise ValueError(f"dense matrices are limited to {MAX_QUBITS} qubits")
    proj = np.eye(1 << c.n, dtype=complex)
    for g in c.stabilizer:
        proj = (proj + _apply(g, proj)) / 2
    rank = round(proj.trace().real)
    factor = np.zeros((proj.shape[0], rank), dtype=complex)
    residual = proj.diagonal().real.copy()  # diagonal of P - F F^dagger
    for k in range(rank):
        i = int(np.argmax(residual))
        if residual[i] <= TOL:
            raise ValueError(f"projector has rank {k}, not its trace {rank}")
        col = proj[:, i] - factor[:, :k] @ factor[i, :k].conj()
        factor[:, k] = col / np.sqrt(residual[i])
        residual -= np.abs(factor[:, k]) ** 2
    return CodeProjector(c, proj, np.linalg.qr(factor)[0])


@dataclass
class OracleReport:
    ok: bool
    failures: list[str] = field(default_factory=list)
    max_residual: float = 0.0
    failing_pair: tuple[PauliOp, PauliOp] | None = None


def _action(v: np.ndarray, p: PauliOp) -> tuple[np.ndarray, np.ndarray]:
    """(p V, V^dagger p V): p on the code-space basis, and P p P in that basis."""
    pv = _apply(p, v)
    return pv, v.conj().T @ pv


def _stacked(v: np.ndarray, errors: list[PauliOp]) -> np.ndarray:
    """[E0 V | E1 V | ...]: each error applied to the code-space basis."""
    wide = np.empty((v.shape[0], len(errors), v.shape[1]), dtype=complex)
    for a, e in enumerate(errors):
        wide[:, a] = _apply(e, v)
    return wide.reshape(v.shape[0], -1)


def _blocks(v: np.ndarray, ops: list[PauliOp]) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (L_c, R) over ops: L_c = V^dagger L V and (L V - V L_c) = Q R."""
    lcs = np.empty((len(ops), v.shape[1], v.shape[1]), dtype=complex)
    rs = np.empty_like(lcs)
    for i, op in enumerate(ops):
        lv, lcs[i] = _action(v, op)
        rs[i] = np.linalg.qr(lv - v @ lcs[i], mode="r")
    return lcs, rs


def _comm_norm(c: np.ndarray, lcs: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """||[V c V^dagger, L P]||_F for every stacked (L_c, R) of ``_blocks``.

    c is one m x m block or a stack of them; the result has c's leading axes
    followed by one axis over the operators.
    """
    c = c[..., None, :, :]
    comm = np.linalg.norm(c @ lcs - lcs @ c, axis=(-2, -1))
    return np.hypot(comm, np.linalg.norm(rs @ c, axis=(-2, -1)))


@lru_cache(maxsize=8)
def _logical_actions(code: SubsystemCode) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (L_c, R) for every logical generator L."""
    return _blocks(code_projector(code).basis, code.logical_ops())


def verify_subsystem_structure(code: SubsystemCode) -> OracleReport:
    """Check that gauge and logical actions factorize over the code space.

    Every compressed gauge action must commute with every logical action and
    vice versa, and each logical pair must anticommute on the code space.
    """
    c = validated(code)
    v = code_projector(c).basis
    logical = _logical_actions(c)
    gauge = _blocks(v, c.gauge_ops())
    report = OracleReport(ok=True)

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
        anti = _apply(lx, _apply(lz, v)) + _apply(lz, _apply(lx, v))
        resid = float(np.linalg.norm(v.conj().T @ anti))
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
    c = validated(code)
    v = code_projector(c).basis
    lcs, rs = _logical_actions(c)
    m = v.shape[1]
    block = max(1, _BLOCK_BYTES // v.nbytes)  # errors per stack of E V
    report = OracleReport(ok=True)
    for a in range(len(errors)):
        home = a - a % block
        if a == home:
            here = _stacked(v, errors[home : home + block])
        ea = here[:, (a - home) * m : (a - home + 1) * m].conj().T
        # V' Ea' Eb V for every b >= a as stacks of m x m blocks, one block of
        # errors at a time; the E V of a block after a's own is rebuilt per a
        for start in range(home, len(errors), block):
            wide = here if start == home else _stacked(v, errors[start : start + block])
            lo = max(a, start)
            gram = ea @ wide[:, (lo - start) * m :]
            resid = _comm_norm(gram.reshape(m, -1, m).transpose(1, 0, 2), lcs, rs).ravel()
            bad = np.flatnonzero(resid > TOL)[:1]
            # residuals come in scan order (b, then logical op); stop at a witness
            seen = resid[: bad[0] + 1] if bad.size else resid
            report.max_residual = max(report.max_residual, float(seen.max(initial=0.0)))
            if bad.size:
                pair = (errors[a], errors[lo + int(bad[0]) // len(lcs)])
                report.ok, report.failing_pair = False, pair
                report.failures.append(f"pair ({pair[0]}, {pair[1]}) acts on the encoded qubits")
                return report
    return report


def acts_as_gauge(code: SubsystemCode, p: PauliOp) -> bool:
    """Dense test: nonzero on the code space and in the logical commutant."""
    c = validated(code)
    v = code_projector(c).basis
    _, compressed = _action(v, p)
    if float(np.linalg.norm(compressed)) <= TOL:
        return False
    return bool(np.all(_comm_norm(compressed, *_logical_actions(c)) <= TOL))


def vanishes_on_code_space(code: SubsystemCode, p: PauliOp) -> bool:
    c = validated(code)
    v = code_projector(c).basis
    _, compressed = _action(v, p)
    return float(np.linalg.norm(compressed)) <= TOL
