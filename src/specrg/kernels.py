"""The diagonal kernel w_{0,0} of an operator and the flow's polydisc gate.

``extract_w00`` reads w_{0,0} off the vacuum and one-photon diagonal blocks
of an operator on a reduced space and interpolates it to a ``KernelC1`` on
r in [0, 1]; ``kernel_c1_of_hf`` turns it back into the matrix w_{0,0}(H_f),
the unperturbed part of the next Feshbach pair.  ``polydisc_check`` measures
the operator against the polydisc radii (alpha, beta, gamma).  Only w_{0,0}
is extracted, so the size of the interaction is the operator norm of
H - w_{0,0}(H_f), not a kernel norm of the higher-order parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import FockBasis, OperatorMatrix


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


@dataclass
class ExtractionResult:
    kernel: KernelC1
    nodes: np.ndarray
    node_values: np.ndarray
    source: OperatorMatrix = field(repr=False)


def extract_w00(h: OperatorMatrix, n_r: int = 65) -> ExtractionResult:
    """Recover the diagonal kernel from vacuum and one-photon blocks.

    w00(0) is the exact vacuum block; w00(omega_j) is read off the one-photon
    diagonal block of shell j, which carries an O(shell measure) additive
    contamination from any (1,1) kernel component, at most
    mu_j * ||H - w00(0) (x) 1|| with mu_j the shell measure.  The nodes are
    interpolated onto a uniform r-grid with a monotone cubic (PCHIP,
    Fritsch & Carlson 1980): one vector fit over the stacked
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
