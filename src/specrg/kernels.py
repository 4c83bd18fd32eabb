"""The diagonal kernel w_{0,0} of an operator and its polydisc radii.

``extract_w00`` reads the nodes of w_{0,0} off the vacuum and one-photon
diagonal blocks of an operator, in one gather at the coordinates its basis
keeps (``FockBasis.node_rows``); between the nodes w_{0,0} is the monotone
cubic (PCHIP) of Fritsch & Carlson, fitted once to the real view of the
complex node values.  A flow step reads w_{0,0}(H_f), the unperturbed part
of the next Feshbach pair, evaluated directly at the basis' H_f values; the
65-point ``KernelC1`` on r in [0, 1] is built only for beta_hat and
``kernel.txt``.  ``polydisc_check`` measures the operator's polydisc radii
beta and gamma for the trace; only w_{0,0} is extracted, so the interaction
size is the operator norm of H - w_{0,0}(H_f).

A step of a stacked ladder extracts the kernels of its K operators at once:
the node values carry the stack axes after the node axis, which the PCHIP
slopes and the Hermite evaluation treat like the d x d entry axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fock import FockBasis, OperatorMatrix


def _opnorms(mats: np.ndarray) -> np.ndarray:
    """Spectral norms along the leading axes of an (..., d, d) array."""
    return np.linalg.norm(mats, ord=2, axis=(-2, -1)) if mats.shape[-1] > 1 \
        else np.abs(mats[..., 0, 0])


def _pchip_end_slope(h0, h1, m0, m1):
    """Shape-preserving one-sided slope at an end node (Moler's pchiptx)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    keep = np.sign(d) == np.sign(m0)
    big = keep & (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    d[~keep] = 0.0
    d[big] = 3.0 * m0[big]
    return d


def pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson slopes at the increasing nodes x of real samples y,
    shape (nodes, ...) with at least one trailing axis, as scipy's
    ``PchipInterpolator`` takes them: zero at an extremum or flat segment,
    else a weighted harmonic mean of the neighbouring secants."""
    if x.size == 1:
        return np.zeros_like(y)
    hk = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    mk = np.diff(y, axis=0) / hk
    if x.size == 2:
        return np.concatenate([mk, mk])
    flat = (np.sign(mk[1:]) != np.sign(mk[:-1])) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2 * hk[1:] + hk[:-1]
    w2 = hk[1:] + 2 * hk[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
    dk = np.zeros_like(y)
    dk[1:-1][~flat] = 1.0 / whmean[~flat]
    dk[0] = _pchip_end_slope(hk[0], hk[1], mk[0], mk[1])
    dk[-1] = _pchip_end_slope(hk[-1], hk[-2], mk[-1], mk[-2])
    return dk


def hermite(x: np.ndarray, y: np.ndarray, dy: np.ndarray, r):
    """Values and derivatives at r of the cubic Hermite spline through (x, y)
    with node slopes dy, in scipy's power form; the end pieces extrapolate."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if x.size == 1:
        return np.repeat(y[:1], r.size, axis=0), np.zeros((r.size,) + y.shape[1:], y.dtype)
    i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, x.size - 2)
    pad = (1,) * (y.ndim - 1)
    hk = np.diff(x).reshape((-1,) + pad)
    secant = np.diff(y, axis=0) / hk
    t = (dy[:-1] + dy[1:] - 2 * secant) / hk
    c0, c1, c2, c3 = (c[i] for c in (t / hk, (secant - dy[:-1]) / hk - t, dy[:-1], y[:-1]))
    s = (r - x[i]).reshape((-1,) + pad)
    values = c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)
    derivs = c2 + (2 * c1) * s + (3 * c0) * (s * s)
    return values, derivs


@dataclass
class KernelC1:
    """w_{0,0} sampled with its derivative on the uniform 65-point r-grid of
    [0, 1] (one point on the vacuum-only space): the form that beta_hat and
    ``kernel.txt`` read."""

    r_grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray


def w00_matrix(nodes: np.ndarray, node_values: np.ndarray, slopes: np.ndarray,
               basis: FockBasis) -> np.ndarray:
    """w_{0,0}(H_f) = sum_i w_{0,0}(hf_i) (x) |i><i| on a reduced basis, in
    atomic-major layout, for the cubic through the nodes with these slopes.
    node_values has shape (nodes, ..., d, d); the axes between are a stack,
    and the result carries them in front."""
    d, n = basis.d_at, basis.size
    lead = node_values.shape[1:-2]
    out = np.zeros(lead + (d, n, d, n), dtype=complex)
    out[..., :, np.arange(n), :, np.arange(n)] = hermite(nodes, node_values, slopes,
                                                         basis.hf_values)[0]
    return out.reshape(lead + (d * n, d * n))


@dataclass
class ExtractionResult:
    """The nodes and d x d node values of w_{0,0} read off ``source``, shape
    (nodes, ..., d, d) with the source's stack axes between."""

    nodes: np.ndarray
    node_values: np.ndarray
    source: OperatorMatrix = field(repr=False)

    @cached_property
    def slopes(self) -> np.ndarray:
        """PCHIP slopes of the real and imaginary part of every entry, from
        one fit of the interleaved real view: every PCHIP operation acts
        entry by entry."""
        return pchip_slopes(self.nodes, self.node_values.view(float)).view(complex)

    def hf_matrix(self) -> np.ndarray:
        """w_{0,0}(H_f) on the source's basis, one per operator of the stack."""
        return w00_matrix(self.nodes, self.node_values, self.slopes, self.source.basis)

    @cached_property
    def kernel(self) -> KernelC1:
        grid = np.linspace(0.0, 1.0, 65) if self.nodes.size > 1 else np.array([0.0])
        return KernelC1(grid, *hermite(self.nodes, self.node_values, self.slopes, grid))


def extract_w00(h: OperatorMatrix) -> ExtractionResult:
    """Read the nodes of w_{0,0} off the vacuum and one-photon blocks.

    w00(0) is the exact vacuum block; w00(omega_j) is read off the one-photon
    diagonal block of shell j, which carries an O(shell measure) additive
    contamination from any (1,1) kernel component, at most
    mu_j * ||H - w00(0) (x) 1|| with mu_j the shell measure.  The d x d
    blocks of every node and every operator of a stack come from one
    gather at the basis' ``node_rows``.  A step reads w00(H_f) at the
    basis' H_f values from the PCHIP slopes (Fritsch & Carlson 1980); the
    65-point ``KernelC1`` is sampled only when beta_hat or ``kernel.txt``
    reads it.  A stack of operators gives a stack of kernels: every node
    value carries the stack's leading axes.
    """
    basis = h.basis
    mats = h.mat.reshape((-1,) + h.mat.shape[-2:])
    rows = basis.node_rows[:, None]   # (nodes, 1, d): broadcast over the stack
    vals = mats[np.arange(len(mats))[:, None, None], rows[..., None], rows[..., None, :]]
    return ExtractionResult(basis.node_energies,
                            vals.reshape(rows.shape[:1] + h.mat.shape[:-2] + vals.shape[-2:]), h)


@dataclass
class PolydiscCheck:
    """Measured polydisc radii.  gamma_hat is the operator-norm surrogate
    ||H - w00(H_f)||, a lower bound for the kernel norm."""

    beta_hat: float
    gamma_hat: float


def polydisc_check(ext: ExtractionResult) -> PolydiscCheck:
    """Measure the polydisc radii (beta_hat, gamma_hat) of the extracted
    operator H.

    beta_hat = sup ||w00' - 1||, and gamma_hat is the operator-norm surrogate
    for the interaction size (see ``PolydiscCheck``).
    """
    h = ext.source
    d = h.basis.d_at
    if ext.nodes.size > 1:
        dev = ext.kernel.derivs - np.eye(d)[None]
        beta_hat = float(np.max(_opnorms(dev)))
    else:
        beta_hat = 1.0  # vacuum-only space: w00' has no content, slope 0
    gamma_hat = float(np.linalg.norm(h.mat - ext.hf_matrix(), 2))
    return PolydiscCheck(beta_hat, gamma_hat)
