"""Brute-force ground truth by dense diagonalization of the truncated model,
and the principal angles that compare an eigenspace with it, both on numpy.

A self-adjoint H whose imaginary part is exactly zero, as at a real s of
every shipped fixture, is decomposed in real arithmetic, at about half
the cost of the complex Hermitian decomposition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import OperatorMatrix

DIM_BUDGET = 20000
CLUSTER_TOL_FACTOR = 1e-8


@dataclass
class OracleReport:
    eigenvalues: np.ndarray       # sorted by real part
    eigenvectors: np.ndarray      # columns, same order
    lowest: complex
    multiplicity: int
    gap: float                    # distance from the lowest cluster to the next
    cluster_tol: float

    def cluster_vectors(self) -> np.ndarray:
        return self.eigenvectors[:, : self.multiplicity]


def dense_spectrum(h: OperatorMatrix) -> OracleReport:
    """Full eigen-decomposition; Hermitian fast path when h is flagged
    self-adjoint, in real arithmetic (``eigh`` of the real part, real
    eigenvectors) when the imaginary part of its matrix is exactly zero.

    Multiplicity of the lowest eigenvalue is the number of eigenvalues
    within CLUSTER_TOL_FACTOR * max(1, |lowest|); that tolerance only
    absorbs floating-point scatter of an exact symmetry degeneracy.
    """
    mat = h.mat
    n = mat.shape[0]
    if n > DIM_BUDGET:
        raise ValueError(f"dimension {n} exceeds the dense budget {DIM_BUDGET}")
    if h.selfadjoint_known:
        vals, vecs = np.linalg.eigh(mat if np.imag(mat).any() else mat.real)
        vals = vals.astype(complex)
    else:
        vals, vecs = np.linalg.eig(mat)
    order = np.argsort(vals.real)
    vals, vecs = vals[order], vecs[:, order]
    lowest = complex(vals[0])
    tol = CLUSTER_TOL_FACTOR * max(1.0, abs(lowest))
    mult = int(np.sum(np.abs(vals - lowest) <= tol))
    gap = float(np.abs(vals[mult] - lowest)) if mult < n else np.inf
    return OracleReport(vals, vecs, lowest, mult, gap, tol)


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles between the column ranges of a and b, largest first
    (Knyazev & Argentati, SIAM J. Sci. Comput. 23, 2002).

    Both ranges get orthonormal bases Q_a, Q_b from the left singular vectors
    above eps * max(shape) * sigma_max.  The cosines are the singular values
    of Q_a* Q_b.  An angle whose cosine^2 is at least 1/2 is read instead from
    the sines, the singular values of the part of the basis with fewer
    columns that is orthogonal to the other range: arccos of a cosine near 1
    would leave only sqrt(eps) ~ 1e-8 of a small angle.
    """
    bases = []
    for m in (a, b):
        u, sv, _ = np.linalg.svd(m, full_matrices=False)
        bases.append(u[:, sv > sv.max(initial=0.0) * np.finfo(float).eps * max(m.shape)])
    qa, qb = bases
    cross = qa.conj().T @ qb
    cos = np.linalg.svd(cross, compute_uv=False)[::-1]
    angles = np.arccos(np.clip(cos, -1.0, 1.0))
    small = cos**2 >= 0.5
    if small.any():
        rest = qb - qa @ cross if qa.shape[1] >= qb.shape[1] else qa - qb @ cross.conj().T
        sin = np.linalg.svd(rest, compute_uv=False)
        angles[small] = np.arcsin(np.clip(sin[small], -1.0, 1.0))
    return angles


@dataclass
class ComparisonReport:
    eigenvalue_error: float       # |z_inf - nearest oracle eigenvalue|
    max_angle: float
    ground_state_error: float | None  # |z_inf - min| for self-adjoint real runs


def compare(z_inf: complex, psis, oracle: OracleReport,
            ground_state_expected: bool = False) -> ComparisonReport:
    """Distance of the flow output to the dense ground truth."""
    errs = np.abs(oracle.eigenvalues - z_inf)
    k = int(np.argmin(errs))
    angles = np.array([])
    if psis:
        a = np.column_stack([p / np.linalg.norm(p) for p in psis])
        b = oracle.cluster_vectors()
        angles = principal_angles(a, b)
    gs_err = abs(z_inf - oracle.lowest) if ground_state_expected else None
    return ComparisonReport(float(errs[k]),
                            float(np.max(angles)) if angles.size else 0.0,
                            gs_err)


@dataclass
class ScalingReport:
    g_values: np.ndarray
    energy_errors: np.ndarray     # |E_g - E_at|
    exponent: float
    vector_distances: np.ndarray  # subspace distance to the decoupled limit
    distances_decreasing: bool
    spectra: list                 # eigenvalues of H_g at each g_values entry


def perturbation_scaling(spec, s: complex, g_values, hamiltonian) -> ScalingReport:
    """Weak-coupling scaling of the ground cluster, by dense diagonalization
    of ``hamiltonian(g)``, the truncated H_g(s) at each coupling g.

    Fits the log-log slope of |E_g - E_at| against g (second-order
    perturbation theory predicts 2) and tracks the subspace distance between
    the ground cluster and (eigenspace) (x) vacuum, which must shrink
    monotonically as g decreases.
    """
    g_values = np.asarray(sorted(g_values), dtype=float)
    if g_values.size < 4:
        raise ValueError("need at least 4 coupling values in the sweep")
    if np.any(g_values <= 0):
        raise ValueError("sweep couplings must be positive")
    e_at = spec.e_at(s)
    frame = spec.atomic_frame()
    vac = spec.full_basis().vacuum_vector()
    limit = np.column_stack([np.kron(frame[:, j], vac) for j in range(spec.d)])
    errs = np.empty(g_values.size)
    dists = np.empty(g_values.size)
    spectra = []
    for i, g in enumerate(g_values):
        rep = dense_spectrum(hamiltonian(g))
        spectra.append(rep.eigenvalues)
        errs[i] = abs(rep.lowest - e_at)
        angles = principal_angles(limit, rep.cluster_vectors()
                                  if rep.multiplicity >= spec.d
                                  else rep.eigenvectors[:, : spec.d])
        dists[i] = np.sin(np.max(angles))
    slope = float(np.polyfit(np.log(g_values), np.log(errs), 1)[0])
    decreasing = bool(np.all(np.diff(dists) > 0))  # dists indexed by growing g
    return ScalingReport(g_values, errs, slope, dists, decreasing, spectra)
