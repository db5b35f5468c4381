"""Dense-matrix ground truth for small qubit counts.

A Pauli operator is defined here by its explicit 2^n x 2^n matrix, the
Kronecker product of its single-qubit factors (``dense``).  The checks never
consult the symplectic machinery (no ``multiply``, ``commutes`` or GF(2)
algebra), so they cross-check the group-theoretic results independently.

They run on the code space rather than on the full 2^n-dimensional space.
The projector P onto the joint +1 eigenspace of the stabilizer generators
is built from its defining product, and an orthonormal basis V of its range
(V V^dagger = P) comes from one Hermitian eigendecomposition per code.  A
Pauli is applied to V as the signed row permutation its matrix is, at
O(2^n) cost per column, and every dense norm is rewritten exactly in terms
of 2^n x 2^(n-s) products: for an m x m block C and an operator L,

    ||[V C V^dagger, L V V^dagger]||_F = ||V C (V^dagger L V) - (L V) C||_F,

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
    bit for bit to the Kronecker-built product.
    """
    c = validated(code)
    if c.n > MAX_QUBITS:
        raise ValueError(f"dense matrices are limited to {MAX_QUBITS} qubits")
    proj = np.eye(1 << c.n, dtype=complex)
    for g in c.stabilizer:
        proj = (proj + _apply(g, proj)) / 2
    eigvals, eigvecs = np.linalg.eigh(proj)
    return CodeProjector(c, proj, eigvecs[:, eigvals > 0.5])


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


def _comm_norm(v: np.ndarray, c: np.ndarray, lv: np.ndarray, lc: np.ndarray) -> float:
    """||[V c V^dagger, L P]||_F, given lv = L V and lc = V^dagger L V."""
    return float(np.linalg.norm(v @ (c @ lc) - lv @ c))


@lru_cache(maxsize=8)
def _logical_actions(code: SubsystemCode) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(L V, V^dagger L V) for every logical generator L."""
    v = code_projector(code).basis
    return tuple(_action(v, op) for op in code.logical_ops())


def verify_subsystem_structure(code: SubsystemCode, tol: float = TOL) -> OracleReport:
    """Check that gauge and logical actions factorize over the code space.

    Every compressed gauge action must commute with every logical action and
    vice versa, and each logical pair must anticommute on the code space.
    """
    c = validated(code)
    v = code_projector(c).basis
    logical_actions = _logical_actions(c)
    gauge_actions = [_action(v, g) for g in c.gauge_ops()]
    report = OracleReport(ok=True)

    for gi, (_, gc) in enumerate(gauge_actions):
        for li, (lv, lc) in enumerate(logical_actions):
            resid = _comm_norm(v, gc, lv, lc)
            report.max_residual = max(report.max_residual, resid)
            if resid > tol:
                report.ok = False
                report.failures.append(
                    f"gauge op {gi} does not commute with logical op {li} on the code space"
                )
    for li, (_, lc) in enumerate(logical_actions):
        for gi, (gv, gc) in enumerate(gauge_actions):
            resid = _comm_norm(v, lc, gv, gc)
            report.max_residual = max(report.max_residual, resid)
            if resid > tol:
                report.ok = False
                report.failures.append(
                    f"logical op {li} does not commute with gauge op {gi} on the code space"
                )
    for j, (lx, lz) in enumerate(c.logical_pairs):
        anti = _apply(lx, _apply(lz, v)) + _apply(lz, _apply(lx, v))
        resid = float(np.linalg.norm(v.conj().T @ anti))
        report.max_residual = max(report.max_residual, resid)
        if resid > tol:
            report.ok = False
            report.failures.append(f"logical pair {j} fails to anticommute on the code space")
    return report


def verify_correctability(
    code: SubsystemCode, errors: list[PauliOp], tol: float = TOL
) -> OracleReport:
    """Check the compressed pair products against the logical algebra.

    For every pair the operator P Ea' Eb P must commute with every logical
    action on the code space; the commutant of the logical algebra there is
    exactly the gauge side, so commuting means the pair is harmless.
    """
    c = validated(code)
    v = code_projector(c).basis
    logical_actions = _logical_actions(c)
    compressed = [_apply(e, v) for e in errors]  # Ea V
    report = OracleReport(ok=True)
    for a in range(len(errors)):
        left = compressed[a].conj().T  # = V' Ea'
        for b in range(a, len(errors)):
            m = left @ compressed[b]
            for lv, lc in logical_actions:
                resid = _comm_norm(v, m, lv, lc)
                report.max_residual = max(report.max_residual, resid)
                if resid > tol:
                    report.ok = False
                    if report.failing_pair is None:
                        report.failing_pair = (errors[a], errors[b])
                    report.failures.append(
                        f"pair ({errors[a]}, {errors[b]}) acts on the encoded qubits"
                    )
                    break
            if not report.ok and report.failing_pair is not None:
                # keep scanning pairs only until the first witness
                return report
    return report


def acts_as_gauge(code: SubsystemCode, p: PauliOp, tol: float = TOL) -> bool:
    """Dense test: nonzero on the code space and in the logical commutant."""
    c = validated(code)
    v = code_projector(c).basis
    _, compressed = _action(v, p)
    if float(np.linalg.norm(compressed)) <= tol:
        return False
    return all(
        _comm_norm(v, compressed, lv, lc) <= tol for lv, lc in _logical_actions(c)
    )


def vanishes_on_code_space(code: SubsystemCode, p: PauliOp, tol: float = TOL) -> bool:
    c = validated(code)
    v = code_projector(c).basis
    _, compressed = _action(v, p)
    return float(np.linalg.norm(compressed)) <= tol
