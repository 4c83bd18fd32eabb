"""Truncated bosonic Fock space on a geometric photon-mode grid.

The single-particle modes are radial shells [rho^(j+1), rho^j] of the unit
ball, one effective angular/polarization channel per shell, with mode energy
omega_j = rho^j.  The grid is geometric so that the dilation that rescales
field energies by 1/rho is an exact shell shift (no interpolation): a map of
coordinates.  ``DilationMap.rows`` holds it, so Gamma M Gamma* is a principal
submatrix of M and Gamma* v is a scatter of v.

All operators are dense matrices on C^d_at (x) span(occupation states),
real (float64) where the model and z are real and complex otherwise; the
atomic index is the major (slowest) index, i.e. kron(atomic, fock)
ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

FOUR_PI = 4.0 * np.pi

#: inclusive-boundary slack for energy-cutoff comparisons
_ENERGY_TOL = 1e-12


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
    ascending lexicographic, hence deterministic.  ``occupations`` holds them
    as rows, enumerated or, from ``DilationMap``, selected from another
    basis' states.  ``node_energies`` and ``node_rows`` hold the H_f values
    and the atomic-major coordinates of the vacuum and the one-photon
    states, the nodes of ``kernels.extract_w00``.
    """

    def __init__(self, grid: ModeGrid, n_max: int, e_cut: float, d_at: int = 1,
                 occupations: np.ndarray | None = None):
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
        if occupations is None:
            occupations = _enumerate_occupations(grid, self.n_max, self.e_cut)
        if not len(occupations):
            raise TruncationError("truncation produced an empty basis")
        self.size = len(occupations)
        self.occupations = occ = occupations
        self.hf_values = occ @ grid.omega if grid.levels else np.zeros(self.size)
        # lexicographic: the vacuum, then one photon by increasing energy
        fock = np.flatnonzero(occ.sum(axis=1) <= 1)
        self.node_energies = self.hf_values[fock]
        self.node_rows = fock[:, None] + np.arange(self.d_at) * self.size
        for a in (self.hf_values, self.occupations, self.node_energies, self.node_rows):
            a.flags.writeable = False

    def find(self, occupations) -> np.ndarray:
        """The index of each row of ``occupations`` among the states, -1 where
        the row is not a state: one lexicographic sort of the states and the
        rows together, in which equal rows are neighbours."""
        J, occ = self.grid.levels, self.occupations
        rows = np.vstack([occ, np.reshape(occupations, (-1, J))])
        order = np.lexsort(rows.T[::-1])   # lexicographic, as the states are
        ordered = rows[order]
        group = np.empty(len(rows), dtype=np.intp)   # equal rows share a group
        group[order] = np.cumsum(np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)]) - 1
        state = np.full(len(rows), -1, dtype=np.intp)
        state[group[:self.size]] = np.arange(self.size)
        return state[group[self.size:]]

    @cached_property
    def raised(self) -> np.ndarray:
        """(size, J) index of the state with one more photon in mode j, -1
        where that state leaves the truncation; built on first use, as int32
        since a basis that a spec keeps carries it."""
        J, occ = self.grid.levels, self.occupations
        up = self.find(occ[:, None, :] + np.eye(J, dtype=occ.dtype))
        return up.astype(np.int32).reshape(self.size, J)

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


def _energy_cut(e_cut: float) -> float:
    """The largest H_f inside the truncation e_cut, with its slack."""
    return e_cut * (1.0 + _ENERGY_TOL) + _ENERGY_TOL


def _enumerate_occupations(grid: ModeGrid, n_max: int, e_cut: float) -> np.ndarray:
    """All occupation tuples within both truncations, lexicographic order,
    as the rows of an int64 array."""
    out = []
    cut = _energy_cut(e_cut)
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
    return np.array(out, dtype=np.int64).reshape(len(out), grid.levels)


def build_fock_basis(grid: ModeGrid, n_max: int, e_cut: float, d_at: int = 1) -> FockBasis:
    """Enumerate the truncated occupation basis (vacuum first).

    Rejects J = 0 grids and truncations that would leave no state.
    """
    if grid.levels == 0:
        raise TruncationError("grid must have at least one shell")
    return FockBasis(grid, n_max, e_cut, d_at)


@dataclass
class OperatorMatrix:
    """Dense matrix on (atomic space) (x) (truncated Fock space), or a stack
    of them along leading axes (one per z of a stacked ladder).  A float64
    matrix is kept as it is, as the flow of a real model at a real z makes
    it; any other dtype is cast to complex.  ``selfadjoint_known`` is the
    builder's word, not checked here: H_f is real diagonal, and
    ``model.build_hamiltonian`` measures ||H - H*||."""

    mat: np.ndarray
    basis: FockBasis
    selfadjoint_known: bool = False

    def __post_init__(self):
        mat = np.asarray(self.mat)
        self.mat = mat if mat.dtype == np.float64 else mat.astype(complex, copy=False)
        n = self.basis.dim
        if self.mat.shape[-2:] != (n, n):
            raise ValueError(
                f"matrix shape {self.mat.shape} does not match basis dim {n}"
            )
        self.mat.flags.writeable = False


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
    """a*(G) = sum_j G_j (x) a*_j for per-mode atomic matrices G_j, with
    a*_j clipped to the truncation (the operator is P a* P).

    For a rotation-invariant continuum coupling g(|k|) B the per-mode matrix
    is G_j = (int_shell |g|^2 dmu)^(1/2) B.  a*_j sends Fock state i to
    ``basis.raised[i, j]`` with amplitude sqrt(n_j + 1), so each mode fills
    its entries by one scatter; no entry is reached by two modes, and each
    is 0 + G_j[a, b] sqrt(n_j + 1), as in the sum of the Kronecker products.
    """
    G = _coeff_matrices(basis, coeffs)
    atoms = np.arange(basis.d_at)[:, None] * basis.size   # row a: atom a's first coordinate
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for j, Gj in enumerate(G):
        src = np.flatnonzero(basis.raised[:, j] >= 0)
        amp = np.sqrt(basis.occupations[src, j] + 1.0)
        rows = atoms + basis.raised[src, j]   # (a, m): atom a, m-th raised state
        cols = atoms + src
        mat[rows[:, :, None], cols.T[None]] += Gj[:, None, :] * amp[:, None]
    return OperatorMatrix(mat, basis)


def field_energy(basis: FockBasis) -> OperatorMatrix:
    """H_f: diagonal with entries sum_j n_j omega_j."""
    mat = np.kron(np.eye(basis.d_at), np.diag(basis.hf_values.astype(complex)))
    return OperatorMatrix(mat, basis, selfadjoint_known=True)


class DilationMap:
    """The dilation Gamma_rho as a map of coordinates: it sends the
    H_f <= rho sector of the basis it is built on onto ``target``, the basis
    of the grid with the lowest shell dropped (shell index j -> j-1, so the
    occupation (0,) + m goes to m), and rescales H_f by 1/rho.

    The target's states are the source's with no photon in the lowest
    shell and an energy on the target grid within min(1, e_cut): one mask
    over the source's occupations, whose order stays lexicographic when the
    first column is dropped (the photon count holds already).
    ``rows`` holds the atomic-major coordinates of that sector in the source,
    in target order.  Gamma M Gamma* is the principal submatrix
    M[rows, rows], and Gamma* v is the vector with v at the coordinates
    ``rows`` and zeros elsewhere.
    """

    def __init__(self, basis: FockBasis, rho: float):
        if abs(rho - basis.grid.ratio) > 1e-15:
            raise ValueError(
                f"dilation scale {rho} does not match grid ratio {basis.grid.ratio}"
            )
        target_grid = basis.grid.drop_lowest_shell()
        e_cut = min(1.0, basis.e_cut)
        occ = basis.occupations
        sector = (occ[:, 0] == 0) & (occ[:, 1:] @ target_grid.omega <= _energy_cut(e_cut))
        fock = np.flatnonzero(sector)
        self.target = FockBasis(target_grid, basis.n_max, e_cut, basis.d_at, occ[fock, 1:])
        self.rows = (np.arange(basis.d_at)[:, None] * basis.size + fock).ravel()


def dilation(basis: FockBasis, rho: float) -> DilationMap:
    """The field-energy rescaling by 1/rho on ``basis``, as a coordinate map."""
    return DilationMap(basis, rho)
