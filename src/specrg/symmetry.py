"""Unitary/antiunitary symmetry algebra and the scalarization machinery.

An antiunitary operator is stored as (matrix, flag) and acts as
psi -> U conj(psi); it is never collapsed to a bare matrix, so all
conjugation code branches on the flag explicitly.  Kato's frame for a
moving eigenprojection, ``model.hyp5_frame``, is a polynomial in two
projections, so it commutes with every unitary symmetry of the family.
``schur_scalar`` measures how far the vacuum block of an operator, which its
extraction of w_{0,0} holds as node 0, is from the scalar E^(n)(z) that
``rg.run_ladder`` reads off that node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_UNITARITY_TOL = 1e-12


@dataclass
class SymmetryOp:
    """A unitary or antiunitary operator.

    Action: psi -> U psi (unitary) or psi -> U conj(psi) (antiunitary).
    """

    matrix: np.ndarray
    antiunitary: bool = False

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        n = self.matrix.shape[0]
        if self.matrix.shape != (n, n):
            raise ValueError("symmetry matrix must be square")
        dev = np.linalg.norm(self.matrix @ self.matrix.conj().T - np.eye(n))
        if dev > _UNITARITY_TOL * max(1.0, n):
            raise ValueError(f"matrix part is not unitary (deviation {dev:g})")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def restricted(self, frame: np.ndarray) -> "SymmetryOp":
        """Restriction to the subspace spanned by the orthonormal columns of
        frame.  Raises if the subspace is not invariant (residual > 1e-10)."""
        img = self.matrix @ (np.conj(frame) if self.antiunitary else frame)
        leak = np.linalg.norm(img - frame @ (frame.conj().T @ img))
        if leak > 1e-10:
            raise ValueError(f"subspace not invariant under symmetry (leak {leak:g})")
        return SymmetryOp(frame.conj().T @ img, self.antiunitary)


def conjugate(s: SymmetryOp, t: np.ndarray) -> np.ndarray:
    """S T S^* as a matrix: U T U^dag, or U conj(T) U^dag when antiunitary.
    On a space k times S's dimension, in atomic-major layout, S acts as
    S (x) 1_k: U multiplies the d x d grid of k x k blocks from the left and
    U^dag from the right, as ``feshbach._conjugate_atomic`` does, with no
    dk x dk matrix formed; at k = 1 these are the two products U T U^dag."""
    t = np.asarray(t, dtype=complex)
    n, d = t.shape[0], s.dim
    if n % d:
        raise ValueError("dimension mismatch between symmetry and operator")
    u, k = s.matrix, n // d
    if s.antiunitary:
        t = np.conj(t)
    rows = (u @ t.reshape(d, -1)).reshape(n, d, k).transpose(0, 2, 1)   # (U (x) 1) T
    return (rows.reshape(-1, d) @ u.conj().T).reshape(n, k, d).transpose(0, 2, 1).reshape(n, n)


def is_symmetry_of(s: SymmetryOp, t: np.ndarray):
    """True iff S T S^* equals T (unitary) resp. T^* (antiunitary), within a
    relative residual of 1e-12.

    Returns (flag, relative residual)."""
    t = np.asarray(t, dtype=complex)
    target = t.conj().T if s.antiunitary else t
    res = np.linalg.norm(conjugate(s, t) - target) / max(1.0, np.linalg.norm(t))
    return bool(res <= 1e-12), float(res)


#: relative rank threshold of the commutant and of a scalar Hermitian element
_COMMUTANT_TOL = 1e-10


def _commutant_nullspace(ops, dim: int):
    """Real-linear solution space of S M = M S (unitary) and
    U conj(M) = M U (antiunitary), returned as a list of d x d matrices."""
    n2 = dim * dim
    rows = []
    eye = np.eye(dim)
    # row-major vec: vec(U M) = (U (x) I) m, vec(M U) = (I (x) U^T) m
    for op in ops:
        u = op.matrix
        a = np.kron(u, eye)
        b = np.kron(eye, u.T)
        if op.antiunitary:
            # U conj(M) - M U = 0, real-linear in m = x + i y
            top = np.hstack([np.real(a) - np.real(b), np.imag(a) + np.imag(b)])
            bot = np.hstack([np.imag(a) - np.imag(b), -np.real(a) - np.real(b)])
        else:
            c = a - b  # U M - M U = 0, complex-linear
            top = np.hstack([np.real(c), -np.imag(c)])
            bot = np.hstack([np.imag(c), np.real(c)])
        rows.append(top)
        rows.append(bot)
    if not rows:
        system = np.zeros((1, 2 * n2))
    else:
        system = np.vstack(rows)
    _, sv, vt = np.linalg.svd(system)
    scale = sv[0] if sv.size and sv[0] > 0 else 1.0
    null = [vt[i] for i in range(vt.shape[0]) if i >= len(sv) or sv[i] <= _COMMUTANT_TOL * scale]
    mats = []
    for v in null:
        m = v[:n2].reshape(dim, dim) + 1j * v[n2:].reshape(dim, dim)
        mats.append(m)
    return mats


def is_irreducible(ops, dim: int | None = None) -> bool:
    """Whether the (anti)unitary set acts with no proper invariant subspace.

    Decision: an invariant subspace exists iff the real-linear commutant of
    the set contains a non-scalar Hermitian element (its spectral projections
    are invariant).  The commutant is computed as a nullspace; each basis
    element is Hermitized and compared against the identity.  This remains
    correct for antiunitary-containing sets, where the raw commutant can be
    quaternionic without any invariant subspace existing.
    """
    ops = list(ops)
    if dim is None:
        if not ops:
            raise ValueError("need ops or an explicit dimension")
        dim = ops[0].dim
    if dim == 1:
        return True
    for m in _commutant_nullspace(ops, dim):
        h = m + m.conj().T
        dev = np.linalg.norm(h - (np.trace(h) / dim) * np.eye(dim))
        if dev > _COMMUTANT_TOL * max(1.0, np.linalg.norm(h)):
            return False
    return True


def schur_scalar(block: np.ndarray):
    """Scalarize a d x d vacuum block <T>_Omega = <e_a (x) Omega, T e_b (x)
    Omega>, such as node 0 of an extraction of w_{0,0}: c = tr<T>_Omega /
    d, the E^(n)(z) that a ladder level reads off that node.

    Returns (c, deviation) with deviation = ||<T>_Omega - c 1||; a large
    deviation signals broken symmetry upstream and is data, not an error.
    """
    d = block.shape[-1]
    c = complex(np.trace(block) / d)
    return c, float(np.linalg.norm(block - c * np.eye(d), 2))
