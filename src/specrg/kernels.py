"""Discretized matrix-valued integral kernels and their norms.

Kernel samples are continuum amplitudes: a rotation-invariant coupling
g(|k|) B is stored per shell as g(omega_j) B, and the operator constructor
multiplies each creation/annihilation leg by sqrt(shell measure).  Norm
quadratures use the exact per-shell integrals of the singular weights, so
closed-form radial integrals are reproduced to quadrature tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from .fock import FOUR_PI, FockBasis, OperatorMatrix, _mode_raising


def _opnorms(mats: np.ndarray) -> np.ndarray:
    """Spectral norms along the leading axes of an (..., d, d) array."""
    return np.linalg.norm(mats, ord=2, axis=(-2, -1)) if mats.shape[-1] > 1 \
        else np.abs(mats[..., 0, 0])


@dataclass
class KernelC1:
    """C^1 diagonal kernel w_{0,0}: [0,1] -> d x d, sampled with derivatives
    on a uniform r-grid; evaluation is piecewise cubic Hermite."""

    r_grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray

    def __post_init__(self):
        self.r_grid = np.asarray(self.r_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        self.derivs = np.asarray(self.derivs, dtype=complex)
        n = self.r_grid.size
        if n < 1 or self.values.shape[0] != n or self.derivs.shape != self.values.shape:
            raise ValueError("inconsistent kernel sample shapes")
        if n > 1:
            steps = np.diff(self.r_grid)
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-15):
                raise ValueError("r-grid must be uniform")

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    def eval(self, r) -> np.ndarray:
        """Values at r (scalar or array), shape (..., d, d)."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if self.r_grid.size == 1:
            out = np.broadcast_to(self.values[0], r.shape + self.values.shape[1:])
            return out.copy()
        h = self.r_grid[1] - self.r_grid[0]
        idx = np.clip(((r - self.r_grid[0]) / h).astype(int), 0, self.r_grid.size - 2)
        t = ((r - self.r_grid[idx]) / h)[:, None, None]
        v0, v1 = self.values[idx], self.values[idx + 1]
        d0, d1 = self.derivs[idx], self.derivs[idx + 1]
        h00 = 2 * t**3 - 3 * t**2 + 1
        h10 = t**3 - 2 * t**2 + t
        h01 = -2 * t**3 + 3 * t**2
        h11 = t**3 - t**2
        return h00 * v0 + h * h10 * d0 + h01 * v1 + h * h11 * d1

    def eval_deriv(self, r) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if self.r_grid.size == 1:
            return np.zeros(r.shape + self.values.shape[1:], dtype=complex)
        h = self.r_grid[1] - self.r_grid[0]
        idx = np.clip(((r - self.r_grid[0]) / h).astype(int), 0, self.r_grid.size - 2)
        t = ((r - self.r_grid[idx]) / h)[:, None, None]
        v0, v1 = self.values[idx], self.values[idx + 1]
        d0, d1 = self.derivs[idx], self.derivs[idx + 1]
        g00 = (6 * t**2 - 6 * t) / h
        g10 = 3 * t**2 - 4 * t + 1
        g01 = (-6 * t**2 + 6 * t) / h
        g11 = 3 * t**2 - 2 * t
        return g00 * v0 + g10 * d0 + g01 * v1 + g11 * d1

    def consistency_residual(self) -> float:
        """Max deviation of central differences from the stored derivative;
        O(h^2) for samples of a genuine C^1 (piecewise C^3) function."""
        if self.r_grid.size < 3:
            return 0.0
        h = self.r_grid[1] - self.r_grid[0]
        cd = (self.values[2:] - self.values[:-2]) / (2 * h)
        return float(np.max(_opnorms(cd - self.derivs[1:-1])))


def constant_kernel_c1(mat: np.ndarray, n_r: int = 65) -> KernelC1:
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    grid = np.linspace(0.0, 1.0, n_r)
    vals = np.repeat(mat[None, :, :], n_r, axis=0)
    return KernelC1(grid, vals, np.zeros_like(vals))


def linear_kernel_c1(const: np.ndarray, slope: np.ndarray, n_r: int = 65) -> KernelC1:
    """w(r) = const + r * slope."""
    const = np.atleast_2d(np.asarray(const, dtype=complex))
    slope = np.atleast_2d(np.asarray(slope, dtype=complex))
    grid = np.linspace(0.0, 1.0, n_r)
    vals = const[None] + grid[:, None, None] * slope[None]
    return KernelC1(grid, vals, np.repeat(slope[None], n_r, axis=0))


@dataclass
class KernelMN:
    """Interaction kernel of order (m, n), 1 <= m+n <= 2: per shell tuple a
    C^1 function of r, stored as samples of shape (J,)*(m+n) + (N_r, d, d).

    Must be symmetric under permutations within the m and the n groups."""

    orders: tuple
    grid: object
    r_grid: np.ndarray
    samples: np.ndarray
    symmetrized: bool = True

    def __post_init__(self):
        m, n = self.orders
        if not (1 <= m + n <= 2) or m < 0 or n < 0:
            raise ValueError("orders must satisfy 1 <= m+n <= 2")
        self.samples = np.asarray(self.samples, dtype=complex)
        J = self.grid.levels
        expected = (J,) * (m + n) + (self.r_grid.size,)
        if self.samples.shape[: m + n + 1] != expected:
            raise ValueError(
                f"sample array shape {self.samples.shape} does not match "
                f"(J,)*{m+n} + (N_r,) = {expected}"
            )
        if m == 2 or n == 2:
            if np.abs(self.samples - np.swapaxes(self.samples, 0, 1)).max() > 1e-12:
                raise ValueError("kernel must be symmetric within its argument group")

    @property
    def dim(self) -> int:
        return self.samples.shape[-1]


def norm_c1(w00: KernelC1) -> float:
    """||w||_(1,inf) = sup ||w|| + sup ||w'|| over the grid."""
    return float(np.max(_opnorms(w00.values)) + np.max(_opnorms(w00.derivs)))


def _c1_norms_per_tuple(wmn: KernelMN) -> np.ndarray:
    """sup_r ||.|| + sup_r ||d/dr .|| for each shell tuple (finite differences
    in r when more than one node is stored)."""
    vals = wmn.samples
    sup_v = np.max(_opnorms(vals), axis=-1)
    if wmn.r_grid.size > 1:
        dr = np.gradient(vals, wmn.r_grid, axis=-3)
        sup_d = np.max(_opnorms(dr), axis=-1)
    else:
        sup_d = np.zeros_like(sup_v)
    return sup_v + sup_d


def shell_weight_mu(grid, mu: float) -> np.ndarray:
    """Exact per-shell integrals int_shell dk / |k|^(2+2mu)."""
    hi = grid.omega
    lo = grid.ratio * grid.omega
    cw = grid.channel_weight
    if abs(1.0 - 2.0 * mu) < 1e-14:
        return FOUR_PI * cw * np.log(hi / lo)
    p = 1.0 - 2.0 * mu
    return FOUR_PI * cw * (hi**p - lo**p) / p


def shell_weight_inv(grid) -> np.ndarray:
    """Exact per-shell integrals int_shell dk / |k|."""
    hi = grid.omega
    lo = grid.ratio * grid.omega
    return FOUR_PI * grid.channel_weight * (hi**2 - lo**2) / 2.0


def norm_mu(wmn: KernelMN, mu: float) -> float:
    """Discrete (int ||w(K)||_(1,inf)^2 dK/|K|^(2+2mu))^(1/2)."""
    m, n = wmn.orders
    norms = _c1_norms_per_tuple(wmn)
    v = shell_weight_mu(wmn.grid, mu)
    total = 0.0
    for tup in product(range(wmn.grid.levels), repeat=m + n):
        wgt = np.prod([v[j] for j in tup])
        total += norms[tup] ** 2 * wgt
    return float(np.sqrt(total))


def norm_mu_xi(kernels: dict, mu: float, xi: float) -> float:
    """||w||_{mu,xi} = sum over stored orders of xi^-(m+n) ||w_{m,n}||_mu,
    with the (0,0) part entering through its C^1 norm."""
    total = 0.0
    for key, ker in kernels.items():
        if key == (0, 0):
            total += norm_c1(ker)
        else:
            m, n = key
            total += xi ** (-(m + n)) * norm_mu(ker, mu)
    return float(total)


def sharp_norm(wmn: KernelMN) -> float:
    """Discrete pull-through norm whose square integrates
    sup_r ||w(r,K)||^2 prod(r + cumulative |k|) over dK/|K|."""
    m, n = wmn.orders
    grid = wmn.grid
    u = shell_weight_inv(grid)
    r = wmn.r_grid
    norms_r = _opnorms(wmn.samples)  # (...,N_r)
    total = 0.0
    for tup in product(range(grid.levels), repeat=m + n):
        ks = [grid.omega[j] for j in tup]
        fac = np.ones_like(r)
        for l in range(1, m + 1):
            fac = fac * (r + sum(ks[:l]))
        for l in range(1, n + 1):
            fac = fac * (r + sum(ks[m:m + l]))
        integrand = np.max(norms_r[tup] ** 2 * fac)
        total += integrand * np.prod([u[j] for j in tup])
    return float(np.sqrt(total))


def _diagonal_block_matrix(blocks: np.ndarray, d: int, n_fock: int) -> np.ndarray:
    """Operator sum_i blocks[i] (x) |i><i| in atomic-major layout."""
    out = np.zeros((d * n_fock, d * n_fock), dtype=complex)
    for a in range(d):
        for b in range(d):
            out[a * n_fock:(a + 1) * n_fock, b * n_fock:(b + 1) * n_fock][
                np.diag_indices(n_fock)] = blocks[:, a, b]
    return out


def kernel_c1_of_hf(w00: KernelC1, basis: FockBasis) -> np.ndarray:
    """w_{0,0}(H_f) as a matrix on the reduced space."""
    blocks = w00.eval(basis.hf_values)
    return _diagonal_block_matrix(blocks, basis.d_at, basis.size)


def build_H_of_w(kernels: dict, basis: FockBasis) -> OperatorMatrix:
    """Assemble H(w) = w_{0,0}(H_f) + sum_{m+n>=1} H_{m,n}(w).

    H_{m,n} places the creation legs left of the H_f-dependent kernel and the
    annihilation legs right, one sqrt(shell measure) per leg.  Transitions
    leaving the truncation are clipped, which realizes the reduced-space
    sandwich.
    """
    d, nF = basis.d_at, basis.size
    mat = np.zeros((d * nF, d * nF), dtype=complex)
    sqw = np.sqrt(basis.grid.weights)
    raising = [np.kron(np.eye(d), _mode_raising(basis, j))
               for j in range(basis.grid.levels)]
    lowering = [a.conj().T for a in raising]

    for key, ker in kernels.items():
        m, n = key if key != (0, 0) else (0, 0)
        if key == (0, 0):
            mat += kernel_c1_of_hf(ker, basis)
            continue
        if ker.grid.levels != basis.grid.levels or \
                abs(ker.grid.ratio - basis.grid.ratio) > 1e-15:
            raise ValueError("kernel grid does not match basis grid")
        r_grid = ker.r_grid
        for tup in product(range(basis.grid.levels), repeat=m + n):
            samples = ker.samples[tup]
            interp = KernelC1(r_grid, samples, _fd_derivs(samples, r_grid))
            mid = _diagonal_block_matrix(interp.eval(basis.hf_values), d, nF)
            left = np.eye(d * nF)
            for j in tup[:m]:
                left = left @ raising[j]
            right = np.eye(d * nF)
            for j in tup[m:]:
                right = right @ lowering[j]
            wgt = np.prod([sqw[j] for j in tup])
            mat += wgt * (left @ mid @ right)
    return OperatorMatrix(mat, basis)


def _fd_derivs(samples: np.ndarray, r_grid: np.ndarray) -> np.ndarray:
    if r_grid.size == 1:
        return np.zeros_like(samples)
    return np.gradient(samples, r_grid, axis=0)


@dataclass
class ExtractionResult:
    kernel: KernelC1
    nodes: np.ndarray
    node_values: np.ndarray
    source: OperatorMatrix = field(repr=False)

    @cached_property
    def contamination(self) -> np.ndarray:
        """Per-node bound mu_j * ||H - w00(0) (x) 1|| on the (1,1) admixture
        of the one-photon blocks (0 at the vacuum node).  It costs a full
        SVD, so it is computed on first access."""
        basis = self.source.basis
        d, nF = basis.d_at, basis.size
        diag_guess = _diagonal_block_matrix(
            np.array([self.node_values[0]] * nF), d, nF)
        off_scale = np.linalg.norm(self.source.mat - diag_guess, 2)
        return np.concatenate([[0.0], basis.grid.weights[::-1]]) * off_scale


def extract_w00(h: OperatorMatrix, n_r: int = 65) -> ExtractionResult:
    """Recover the diagonal kernel from vacuum and one-photon blocks.

    w00(0) is the exact vacuum block; w00(omega_j) is read off the one-photon
    diagonal block of shell j, which carries an O(shell measure) additive
    contamination from any (1,1) kernel component; the per-node bound
    mu_j * ||offdiagonal part|| is available as ``contamination``.  The
    nodes are interpolated onto a uniform r-grid with a monotone cubic
    (PCHIP, Fritsch & Carlson 1980): one vector fit over the stacked
    real/imaginary parts of all d x d entries, which gives each entry the
    same values as its own scalar fit.  The derivative samples come from the
    interpolant.
    """
    from scipy.interpolate import PchipInterpolator

    basis = h.basis
    d, nF = basis.d_at, basis.size
    mat = h.mat
    J = basis.grid.levels
    nodes = [0.0]
    fock_idx = [0]
    for j in range(J - 1, -1, -1):
        occ = tuple(1 if k == j else 0 for k in range(J))
        i = basis.index.get(occ)
        if i is None:
            continue
        nodes.append(basis.grid.omega[j])
        fock_idx.append(i)
    nodes = np.array(nodes)
    node_vals = np.empty((nodes.size, d, d), dtype=complex)
    for t, i in enumerate(fock_idx):
        rows = np.arange(d) * nF + i
        node_vals[t] = mat[np.ix_(rows, rows)]

    if nodes.size == 1:
        ker = KernelC1(np.array([0.0]), node_vals[:1], np.zeros_like(node_vals[:1]))
        return ExtractionResult(ker, nodes, node_vals, h)
    grid = np.linspace(0.0, 1.0, n_r)
    f = PchipInterpolator(nodes, np.stack([node_vals.real, node_vals.imag], axis=1),
                          axis=0)
    y, dy = f(grid), f.derivative()(grid)
    ker = KernelC1(grid, y[:, 0] + 1j * y[:, 1], dy[:, 0] + 1j * dy[:, 1])
    return ExtractionResult(ker, nodes, node_vals, h)


@dataclass
class PolydiscParams:
    """Polydisc radii (alpha, beta, gamma) of the flow's membership gate."""

    alpha: float
    beta: float
    gamma: float


@dataclass
class PolydiscCheck:
    alpha_hat: float
    beta_hat: float
    gamma_hat: float
    member: bool
    note: str = ("gamma_hat is the operator-norm surrogate ||H - w00(H_f)||, "
                 "a lower bound for the kernel norm; membership via the "
                 "surrogate is necessary, not sufficient")


def polydisc_check(ext: ExtractionResult, params: PolydiscParams) -> PolydiscCheck:
    """Measure (alpha_hat, beta_hat, gamma_hat) of the extracted operator H
    against the polydisc.

    alpha_hat = ||w00(0)||, beta_hat = sup ||w00' - 1||, and gamma_hat is the
    operator-norm surrogate for the interaction size (see note).
    """
    h = ext.source
    d = h.basis.d_at
    alpha_hat = float(np.linalg.norm(ext.node_values[0], 2))
    if ext.kernel.r_grid.size > 1:
        dev = ext.kernel.derivs - np.eye(d)[None]
        beta_hat = float(np.max(_opnorms(dev)))
    else:
        beta_hat = 1.0  # vacuum-only space: w00' has no content, slope 0
    gamma_hat = float(np.linalg.norm(h.mat - kernel_c1_of_hf(ext.kernel, h.basis), 2))
    member = (alpha_hat <= params.alpha + 1e-12
              and beta_hat <= params.beta + 1e-12
              and gamma_hat <= params.gamma + 1e-12)
    return PolydiscCheck(alpha_hat, beta_hat, gamma_hat, member)
