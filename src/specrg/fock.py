"""Truncated bosonic Fock space on a geometric photon-mode grid.

The single-particle modes are radial shells [rho^(j+1), rho^j] of the unit
ball, one effective angular/polarization channel per shell, with mode energy
omega_j = rho^j.  The grid is geometric so that the dilation that rescales
field energies by 1/rho is an exact shell shift (no interpolation): a map of
coordinates.  ``DilationMap.rows`` holds it, so Gamma M Gamma* is a principal
submatrix of M and Gamma* v is a scatter of v.

All operators are dense complex matrices on C^d_at (x) span(occupation
states); the atomic index is the major (slowest) index, i.e. kron(atomic,
fock) ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FOUR_PI = 4.0 * np.pi

#: inclusive-boundary slack for energy-cutoff comparisons
_ENERGY_TOL = 1e-12
#: seeded random states per ``relative_bound_check``
BOUND_SAMPLES = 100


class TruncationError(ValueError):
    """Raised when a requested truncation is empty or inconsistent."""


@dataclass(frozen=True)
class ModeGrid:
    """Geometric shell discretization of the photon momentum ball.

    omega[j] = rho^j is built by cumulative multiplication so that
    omega[j+1] == rho * omega[j] holds exactly in floating point.
    """

    ratio: float
    levels: int
    channel_weight: float = 1.0
    omega: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise ValueError(f"grid ratio must be in (0,1), got {self.ratio}")
        if self.levels < 0:
            raise ValueError("levels must be >= 0")
        if self.channel_weight <= 0.0:
            raise ValueError("channel_weight must be positive")
        omega = np.empty(self.levels)
        w = 1.0
        for j in range(self.levels):
            omega[j] = w
            w = w * self.ratio
        object.__setattr__(self, "omega", omega)
        self.omega.flags.writeable = False

    def drop_lowest_shell(self) -> "ModeGrid":
        """Grid with the finest (lowest-energy) shell removed."""
        return ModeGrid(self.ratio, self.levels - 1, self.channel_weight)


class FockBasis:
    """Occupation-number basis of the truncated Fock space, tensored with
    a d_at-dimensional atomic factor.

    States (n_0, ..., n_{J-1}) satisfy sum n_j <= n_max and
    sum n_j omega_j <= e_cut; the vacuum is index 0 and the ordering is
    ascending lexicographic, hence deterministic.
    """

    def __init__(self, grid: ModeGrid, n_max: int, e_cut: float, d_at: int = 1):
        if n_max < 0:
            raise TruncationError("n_max must be >= 0")
        if e_cut <= 0.0:
            raise TruncationError("e_cut must be > 0")
        if d_at < 1:
            raise TruncationError("atomic dimension must be >= 1")
        self.grid = grid
        self.n_max = int(n_max)
        self.e_cut = float(e_cut)
        self.d_at = int(d_at)
        self.states = _enumerate_occupations(grid, self.n_max, self.e_cut)
        if not self.states:
            raise TruncationError("truncation produced an empty basis")
        self.size = len(self.states)
        self.index = {s: i for i, s in enumerate(self.states)}
        occ = np.array(self.states, dtype=np.int64).reshape(self.size, grid.levels)
        self.occupations = occ
        self.hf_values = occ @ grid.omega if grid.levels else np.zeros(self.size)
        self.hf_values.flags.writeable = False
        self.occupations.flags.writeable = False

    @property
    def dim(self) -> int:
        """Total matrix dimension d_at * size."""
        return self.d_at * self.size

    def vacuum_vector(self) -> np.ndarray:
        v = np.zeros(self.size, dtype=complex)
        v[0] = 1.0
        return v

    def __repr__(self):
        return (
            f"FockBasis(J={self.grid.levels}, rho={self.grid.ratio}, "
            f"n_max={self.n_max}, e_cut={self.e_cut}, size={self.size}, "
            f"d_at={self.d_at})"
        )


def _enumerate_occupations(grid: ModeGrid, n_max: int, e_cut: float):
    """All occupation tuples within both truncations, lexicographic order."""
    out = []
    cut = e_cut * (1.0 + _ENERGY_TOL) + _ENERGY_TOL
    state = [0] * grid.levels

    def rec(j, photons, energy):
        if j == grid.levels:
            out.append(tuple(state))
            return
        w = grid.omega[j]
        n = 0
        while photons + n <= n_max and energy + n * w <= cut:
            state[j] = n
            rec(j + 1, photons + n, energy + n * w)
            n += 1
        state[j] = 0

    rec(0, 0, 0.0)
    out.sort()
    return out


def build_fock_basis(grid: ModeGrid, n_max: int, e_cut: float, d_at: int = 1) -> FockBasis:
    """Enumerate the truncated occupation basis (vacuum first).

    Rejects J = 0 grids and truncations that would leave no state.
    """
    if grid.levels == 0:
        raise TruncationError("grid must have at least one shell")
    return FockBasis(grid, n_max, e_cut, d_at)


@dataclass
class OperatorMatrix:
    """Dense complex matrix on (atomic space) (x) (truncated Fock space), or a
    stack of them along leading axes (one per z of a stacked ladder)."""

    mat: np.ndarray
    basis: FockBasis
    selfadjoint_known: bool = False

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        n = self.basis.dim
        if self.mat.shape[-2:] != (n, n):
            raise ValueError(
                f"matrix shape {self.mat.shape} does not match basis dim {n}"
            )
        if self.selfadjoint_known:
            dev = np.linalg.norm(self.mat - self.mat.conj().T)
            if dev > 1e-12 * max(1.0, np.linalg.norm(self.mat)):
                raise ValueError(f"selfadjoint_known set but adjoint deviates by {dev:g}")
        self.mat.flags.writeable = False


def _mode_raising(basis: FockBasis, j: int) -> np.ndarray:
    """Matrix of a*_j on the Fock factor; transitions leaving the truncation
    are clipped (equivalently the operator is P a* P)."""
    n = basis.size
    op = np.zeros((n, n), dtype=complex)
    for i, s in enumerate(basis.states):
        t = list(s)
        t[j] += 1
        k = basis.index.get(tuple(t))
        if k is not None:
            op[k, i] = np.sqrt(s[j] + 1.0)
    return op


def _coeff_matrices(basis: FockBasis, coeffs) -> list[np.ndarray]:
    J = basis.grid.levels
    if len(coeffs) != J:
        raise ValueError(f"need one coefficient per mode: got {len(coeffs)}, grid has {J}")
    d = basis.d_at
    out = []
    for c in coeffs:
        m = np.asarray(c, dtype=complex)
        if m.ndim == 0:
            m = m * np.eye(d)
        if m.shape != (d, d):
            raise ValueError(f"mode coefficient must be scalar or {d}x{d}, got {m.shape}")
        out.append(m)
    return out


def creation_op(basis: FockBasis, coeffs) -> OperatorMatrix:
    """a*(G) = sum_j G_j (x) a*_j for per-mode atomic matrices G_j.

    For a rotation-invariant continuum coupling g(|k|) B the per-mode matrix
    is G_j = (int_shell |g|^2 dmu)^(1/2) B.
    """
    G = _coeff_matrices(basis, coeffs)
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for j, Gj in enumerate(G):
        mat += np.kron(Gj, _mode_raising(basis, j))
    return OperatorMatrix(mat, basis)


def annihilation_op(basis: FockBasis, coeffs) -> OperatorMatrix:
    """a(G): the exact matrix adjoint of creation_op(basis, coeffs)."""
    return OperatorMatrix(creation_op(basis, coeffs).mat.conj().T, basis)


def field_energy(basis: FockBasis) -> OperatorMatrix:
    """H_f: diagonal with entries sum_j n_j omega_j."""
    mat = np.kron(np.eye(basis.d_at), np.diag(basis.hf_values.astype(complex)))
    return OperatorMatrix(mat, basis, selfadjoint_known=True)


def number_op(basis: FockBasis) -> OperatorMatrix:
    """Total photon number operator."""
    totals = basis.occupations.sum(axis=1).astype(complex)
    return OperatorMatrix(np.kron(np.eye(basis.d_at), np.diag(totals)), basis,
                          selfadjoint_known=True)


class DilationMap:
    """The dilation Gamma_rho as a map of coordinates: it sends the
    H_f <= rho sector of ``source`` onto ``target``, the basis of the grid
    with the lowest shell dropped (shell index j -> j-1, so the occupation
    (0,) + m goes to m), and rescales H_f by 1/rho.

    ``rows`` holds the atomic-major coordinates of that sector in ``source``,
    in target order.  Gamma M Gamma* is the principal submatrix
    M[rows, rows], and Gamma* v is the vector with v at the coordinates
    ``rows`` and zeros elsewhere.
    """

    def __init__(self, basis: FockBasis, rho: float):
        if abs(rho - basis.grid.ratio) > 1e-15:
            raise ValueError(
                f"dilation scale {rho} does not match grid ratio {basis.grid.ratio}"
            )
        self.source = basis
        target_grid = basis.grid.drop_lowest_shell()
        self.target = FockBasis(target_grid, basis.n_max,
                                min(1.0, basis.e_cut), basis.d_at)
        fock = np.array([basis.index[(0,) + m] for m in self.target.states])
        self.rows = (np.arange(basis.d_at)[:, None] * basis.size + fock).ravel()


def dilation(basis: FockBasis, rho: float) -> DilationMap:
    """The field-energy rescaling by 1/rho on ``basis``, as a coordinate map."""
    return DilationMap(basis, rho)


def verify_pull_through(basis: FockBasis, f, j: int) -> float:
    """Max entrywise residual of a_j f(H_f) - f(H_f + omega_j) a_j.

    Exact on the truncated space (annihilation never leaves the basis), so
    the residual is pure floating-point noise; contract: <= 1e-12.
    """
    hf = basis.hf_values
    wj = basis.grid.omega[j]
    aj = _mode_raising(basis, j).conj().T
    lhs = aj * f(hf)[None, :]
    rhs = f(hf + wj)[:, None] * aj
    return float(np.max(np.abs(lhs - rhs)))


def relative_bound_check(basis: FockBasis, coeffs, seed: int = 0) -> bool:
    """Whether ||a(G)psi|| <= ||omega^(-1/2)G|| ||H_f^(1/2)psi|| and the
    creation analog with (omega^(-1)+1)^(1/2) hold on BOUND_SAMPLES seeded
    random states, each within a relative excess of 1e-12 over its bound.

    Violations are reported, not raised.
    """
    G = _coeff_matrices(basis, coeffs)
    omega = basis.grid.omega
    gnorms = np.array([np.linalg.norm(g, 2) for g in G])
    c_ann = float(np.sqrt(np.sum(gnorms**2 / omega)))
    c_cre = float(np.sqrt(np.sum((1.0 / omega + 1.0) * gnorms**2)))
    a_mat = annihilation_op(basis, coeffs).mat
    astar = creation_op(basis, coeffs).mat
    hf = np.kron(np.ones(basis.d_at), basis.hf_values)
    rng = np.random.default_rng(seed)
    exc_a = 0.0
    exc_c = 0.0
    for _ in range(BOUND_SAMPLES):
        psi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        psi /= np.linalg.norm(psi)
        rhs_a = c_ann * np.linalg.norm(np.sqrt(hf) * psi)
        rhs_c = c_cre * np.linalg.norm(np.sqrt(hf + 1.0) * psi)
        lhs_a = np.linalg.norm(a_mat @ psi)
        lhs_c = np.linalg.norm(astar @ psi)
        if rhs_a > 0:
            exc_a = max(exc_a, (lhs_a - rhs_a) / rhs_a)
        elif lhs_a > 0:
            exc_a = max(exc_a, np.inf)
        exc_c = max(exc_c, (lhs_c - rhs_c) / rhs_c)
    return bool(exc_a <= 1e-12 and exc_c <= 1e-12)
