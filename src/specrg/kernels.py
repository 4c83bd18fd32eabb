"""The diagonal kernel w_{0,0} of an operator and its polydisc radii.

``extract_w00`` reads the nodes of w_{0,0} off the vacuum and one-photon
diagonal blocks of an operator, in one gather at the coordinates its basis
keeps (``FockBasis.node_rows``); between the nodes w_{0,0} is the monotone
cubic (PCHIP) of Fritsch & Carlson, fitted once to the node values as they
are when real, and to their interleaved real view when complex.  A flow
step reads w_{0,0}(H_f), the unperturbed part of the next Feshbach pair,
at the basis' H_f values; the 65-point
``KernelC1`` on r in [0, 1] is built only for beta_hat and ``kernel.txt``,
by ``hermite``.  ``polydisc_check`` measures the operator's polydisc radii
beta and gamma for the trace; only w_{0,0} is extracted, so the interaction
size is the operator norm of H - w_{0,0}(H_f).

What of this the basis fixes is one ``BasisSpline``, built once per basis:
the PCHIP constants of the node spacings (``PchipNodes``), the Hermite
weights W at the H_f values, with w_{0,0}(H_f) on the diagonal = W @
[values; slopes] since the cubic is linear in both, and the scatter index
of the diagonal blocks.  The flow keeps one per depth in its ``rg.Depth``,
in ``spec.built``, which a command clears when it ends.  A step then
computes only what depends on the node values: the slopes, in a fixed
short sequence of array operations with scipy's arithmetic, and one
product.

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


class PchipNodes:
    """What the Fritsch-Carlson slopes on fixed increasing nodes x take from
    x alone: the spacings h_k, the interior weights w1 = 2 h_{k+1} + h_k,
    w2 = h_{k+1} + 2 h_k and w1 + w2, and per end node the coefficients
    (2 h0 + h1, h0, h0 + h1) of its one-sided slope (Moler's pchiptx), the
    left end first, with h0 the spacing at that end."""

    def __init__(self, x: np.ndarray):
        self.size = n = x.size
        self.hk = hk = np.diff(x)[:, None]
        if n > 2:
            self.w1 = 2 * hk[1:] + hk[:-1]
            self.w2 = hk[1:] + 2 * hk[:-1]
            self.w12 = self.w1 + self.w2
            # the secants at the two ends, then their neighbours
            self.end_rows = np.array([0, n - 2, 1, n - 3])
            h0, h1 = hk[self.end_rows[:2]], hk[self.end_rows[2:]]
            self.end = (2 * h0 + h1, h0, h0 + h1)

    def slopes(self, y: np.ndarray) -> np.ndarray:
        """Slopes at the nodes of real samples y, shape (nodes, ...), as
        scipy's ``PchipInterpolator`` takes them, with its arithmetic: zero at
        an extremum or flat segment, else a weighted harmonic mean of the
        neighbouring secants; at an end node the one-sided slope, zeroed
        when its sign differs from the end secant's and clipped to three
        times that secant across a sign change."""
        if self.size == 1:
            return np.zeros_like(y)
        y2 = y.reshape(self.size, -1)
        m = (y2[1:] - y2[:-1]) / self.hk
        if self.size == 2:
            return np.concatenate((m, m)).reshape(y.shape)
        sign = np.sign(m)   # NaN on a NaN secant, which makes its slopes 0
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(sign[:-1] * sign[1:] > 0,
                             1.0 / ((self.w1 / m[:-1] + self.w2 / m[1:]) / self.w12), 0.0)
        ends, end_signs = m[self.end_rows], sign[self.end_rows]
        me, mn, se, sn = ends[:2], ends[2:], end_signs[:2], end_signs[2:]
        a, b, c = self.end
        d = (a * me - b * mn) / c
        clip = 3.0 * me
        d = np.where(np.sign(d) != se, 0.0,
                     np.where((se != sn) & (np.abs(d) > np.abs(clip)), clip, d))
        return np.concatenate((d[:1], inner, d[1:])).reshape(y.shape)


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


def hermite_weights(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The (r.size, 2 x.size) matrix W with W @ [y; dy] the cubic Hermite
    spline through (x, y) with node slopes dy at the points r, on the piece
    ``hermite`` evaluates there: the basis cubics of u = (r - x_i) / h_i in
    a form exact at u = 0 and u = 1.  On one node it is the constant."""
    n = x.size
    w = np.zeros((r.size, 2 * n))
    if n == 1:
        w[:, 0] = 1.0
        return w
    i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, n - 2)
    s = r - x[i]
    u = s / np.diff(x)[i]
    p = np.arange(r.size)
    w[p, i] = (1 + 2 * u) * (1 - u) ** 2
    w[p, i + 1] = u * u * (3 - 2 * u)
    w[p, n + i] = s * (1 - u) ** 2
    w[p, n + i + 1] = s * u * (u - 1)
    return w


class BasisSpline:
    """What w_{0,0}(H_f) takes from a basis alone, built once per basis: the
    PCHIP node constants of its ``node_energies``, the Hermite weights at its
    ``hf_values`` and the flat indices in a d_at n x d_at n matrix of the
    d_at x d_at diagonal block of every Fock state."""

    def __init__(self, basis: FockBasis):
        self.basis = basis
        self.pchip = PchipNodes(basis.node_energies)
        self.weights = hermite_weights(basis.node_energies, basis.hf_values)
        d, n = basis.d_at, basis.size
        p, a, c = np.ix_(np.arange(n), np.arange(d), np.arange(d))
        self.diagonal = ((a * n + p) * (d * n) + c * n + p).reshape(n, d * d)

    def hf_matrix(self, values: np.ndarray, slopes: np.ndarray) -> np.ndarray:
        """w_{0,0}(H_f) = sum_i w_{0,0}(hf_i) (x) |i><i| in atomic-major layout,
        for the cubic through the basis' nodes with these values and slopes,
        shape (nodes, ..., d, d); the axes between are a stack, and the
        result carries them in front, in their dtype.  The diagonal blocks
        are one real product of the weights with the stacked values and
        slopes: as they are when real, else their interleaved real view."""
        lead, dim = values.shape[1:-2], self.basis.dim
        y = np.concatenate((values, slopes)).reshape(self.weights.shape[1], -1)
        blocks = (self.weights @ y.view(float)).view(y.dtype)   # (n, stack * d * d)
        n, dd = self.diagonal.shape
        out = np.zeros((blocks.shape[1] // dd, dim * dim), dtype=y.dtype)
        out[:, self.diagonal] = blocks.reshape(n, -1, dd).swapaxes(0, 1)
        return out.reshape(lead + (dim, dim))


@dataclass
class ExtractionResult:
    """The nodes and d x d node values of w_{0,0} read off ``source``, shape
    (nodes, ..., d, d) with the source's stack axes between, and the
    ``BasisSpline`` of the source's basis."""

    nodes: np.ndarray
    node_values: np.ndarray
    source: OperatorMatrix = field(repr=False)
    spline: BasisSpline = field(repr=False)

    @cached_property
    def slopes(self) -> np.ndarray:
        """PCHIP slopes of every entry, from one fit: of the node values as
        they are when real, else of their interleaved real view, which fits
        the real and imaginary parts at once since every PCHIP operation acts
        entry by entry.  The view of a float64 array is the array."""
        values = self.node_values
        return self.spline.pchip.slopes(values.view(float)).view(values.dtype)

    def hf_matrix(self) -> np.ndarray:
        """w_{0,0}(H_f) on the source's basis, one per operator of the stack."""
        return self.spline.hf_matrix(self.node_values, self.slopes)

    @cached_property
    def kernel(self) -> KernelC1:
        grid = np.linspace(0.0, 1.0, 65) if self.nodes.size > 1 else np.array([0.0])
        return KernelC1(grid, *hermite(self.nodes, self.node_values, self.slopes, grid))


def extract_w00(h: OperatorMatrix, spline: BasisSpline) -> ExtractionResult:
    """Read the nodes of w_{0,0} off the vacuum and one-photon blocks.

    w00(0) is the exact vacuum block; w00(omega_j) is read off the one-photon
    diagonal block of shell j, which carries an O(shell measure) additive
    contamination from any (1,1) kernel component, at most
    mu_j * ||H - w00(0) (x) 1|| with mu_j the shell measure.  The d x d
    blocks of every node and every operator of a stack come from one
    gather at the basis' ``node_rows``.  A step reads w00(H_f) at the
    basis' H_f values from the PCHIP slopes (Fritsch & Carlson 1980) and
    the Hermite weights of ``spline``, the ``BasisSpline`` of h's basis
    (ValueError when it was built for another basis); the 65-point
    ``KernelC1`` is sampled only when beta_hat or ``kernel.txt`` reads it.
    A stack of operators gives a stack of kernels: every node value
    carries the stack's leading axes.
    """
    basis = h.basis
    if spline.basis is not basis:
        raise ValueError("the spline was built for another basis")
    mats = h.mat.reshape((-1,) + h.mat.shape[-2:])
    rows = basis.node_rows[:, None]   # (nodes, 1, d): broadcast over the stack
    vals = mats[np.arange(len(mats))[:, None, None], rows[..., None], rows[..., None, :]]
    return ExtractionResult(basis.node_energies,
                            vals.reshape(rows.shape[:1] + h.mat.shape[:-2] + vals.shape[-2:]), h,
                            spline)


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
