"""Smooth Feshbach-Schur map and the first decimation step.

The map F(H, T) = H_chi - chi W chibar (H_chibar|_Ran chibar)^-1 chibar W chi
with W = H - T, chi^2 + chibar^2 = 1, preserves kernel dimension and bounded
invertibility.  Restricted inverses are computed on an orthonormal basis of
Ran chibar obtained from a rank-revealing SVD.  Each decimation builds one
``FeshbachPair``, so that factorization is made once per pair and read by
``verify_pair``, ``feshbach_map`` and ``q_ops``.

The first decimation's z-independent data (H_g(s), H_0(s), the cutoffs, the
bases and the frame) is a ``FirstDecimation``, built once per (model, s);
``FirstDecimation.pair(z)`` is the only work left per z.  ``first_feshbach``
maps that pair to the reduced space, and ``neumann_check`` cross-checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .fock import FockBasis, OperatorMatrix
from .model import ModelSpec, WindowError, build_h0, build_hamiltonian, hyp5_frame

RANK_THRESHOLD = 1e-10


def smoothstep(t):
    """Quintic smoothstep: C^2 ramp with vanishing endpoint derivatives."""
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t * t)


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth cutoff pair at scale rho: chi = 1 below 3 rho/4, 0 above rho,
    a cosine-of-smoothstep ramp in between; chibar = sqrt(1 - chi^2) so the
    partition identity is exact in floating point.

    The ramp is C^2 rather than C^infinity; only finitely many derivative
    orders matter numerically.
    """

    rho: float = 1.0

    def chi(self, r):
        r = np.asarray(r, dtype=float) / self.rho
        out = np.where(r <= 0.75, 1.0,
                       np.where(r >= 1.0, 0.0,
                                np.cos(0.5 * np.pi * smoothstep(4.0 * r - 3.0))))
        return out

    def chibar(self, r):
        c = self.chi(r)
        return np.sqrt(1.0 - c * c)

    def matrices(self, basis: FockBasis):
        """chi(H_f) and chibar(H_f) as diagonal matrices on the full product
        basis (identity on the atomic factor)."""
        ones = np.ones(basis.d_at)
        chi = np.kron(ones, self.chi(basis.hf_values))
        cbar = np.kron(ones, self.chibar(basis.hf_values))
        return np.diag(chi.astype(complex)), np.diag(cbar.astype(complex))


@dataclass
class FeshbachPairReport:
    """Quantitative pair-condition check: commutation residuals, the
    invertibility margin of T (and H_chibar) on Ran chibar, and the two
    contraction norms whose smallness certifies the Neumann expansion."""

    comm_chi: float
    comm_chibar: float
    t_margin: float
    h_margin: float
    contraction_left: float
    contraction_right: float
    rank_chibar: int
    conditioning_warning: bool = False

    @property
    def contractions_ok(self) -> bool:
        return self.contraction_left < 1.0 and self.contraction_right < 1.0

    @property
    def passed(self) -> bool:
        return self.t_margin > 0.0 and self.h_margin > 0.0 and self.contractions_ok


class FeshbachPair:
    """One (H, T, chi, chibar) quadruple and its one factorization: an
    orthonormal basis V of Ran chibar from a rank-revealing SVD, and the
    restrictions of H_chibar and T to it.  ``verify_pair``, ``feshbach_map``
    and ``q_ops`` all read the same pair."""

    def __init__(self, h, t, chi, chibar):
        self.h = np.asarray(h, dtype=complex)
        self.t = np.asarray(t, dtype=complex)
        self.chi = np.asarray(chi, dtype=complex)
        self.chibar = np.asarray(chibar, dtype=complex)
        self.w = self.h - self.t
        u, sv, _ = np.linalg.svd(self.chibar)
        scale = sv[0] if sv.size and sv[0] > 0 else 1.0
        self.rank = int(np.sum(sv > RANK_THRESHOLD * scale))
        self.near_threshold = bool(np.any((sv > 0.1 * RANK_THRESHOLD * scale)
                                          & (sv <= 10 * RANK_THRESHOLD * scale)))
        self.v = u[:, : self.rank]
        self.w_bar = self.chibar @ self.w @ self.chibar   # chibar W chibar
        self.h_bar = self.t + self.w_bar
        self.m_h = self.v.conj().T @ self.h_bar @ self.v
        self.m_t = self.v.conj().T @ self.t @ self.v

    def _restricted_inverse(self, m) -> np.ndarray:
        if self.rank == 0:
            return np.zeros_like(self.h)
        return self.v @ np.linalg.solve(m, self.v.conj().T)

    @cached_property
    def inverse_h(self) -> np.ndarray:
        """(H_chibar|_Ran chibar)^-1 as a full-space matrix V M^-1 V^dag."""
        return self._restricted_inverse(self.m_h)

    @cached_property
    def inverse_t(self) -> np.ndarray:
        """(T|_Ran chibar)^-1 as a full-space matrix."""
        return self._restricted_inverse(self.m_t)


def verify_pair(pair: FeshbachPair) -> FeshbachPairReport:
    """Check the sufficient pair conditions and report margins.

    Margins are smallest singular values of the restrictions to Ran chibar;
    contraction norms are ||T^-1 chibar W chibar|| and ||chibar W T^-1 chibar||.
    """
    p = pair
    comm_chi = float(np.linalg.norm(p.chi @ p.t - p.t @ p.chi))
    comm_chibar = float(np.linalg.norm(p.chibar @ p.t - p.t @ p.chibar))
    if p.rank == 0:
        return FeshbachPairReport(comm_chi, comm_chibar, np.inf, np.inf,
                                  0.0, 0.0, 0, p.near_threshold)
    t_margin = float(np.linalg.svd(p.m_t, compute_uv=False)[-1])
    h_margin = float(np.linalg.svd(p.m_h, compute_uv=False)[-1])
    if t_margin > 0:
        left = float(np.linalg.norm(p.inverse_t @ p.w_bar, 2))
        right = float(np.linalg.norm(p.w_bar @ p.inverse_t, 2))
    else:
        left = right = np.inf
    return FeshbachPairReport(comm_chi, comm_chibar, t_margin, h_margin,
                              left, right, p.rank, p.near_threshold)


class FeshbachPairError(ArithmeticError):
    def __init__(self, report: FeshbachPairReport, msg=""):
        self.report = report
        super().__init__(msg or f"Feshbach pair conditions failed: {report}")


def feshbach_map(pair: FeshbachPair) -> np.ndarray:
    """F(H, T) = T + chi W chi - chi W chibar (H_chibar|)^-1 chibar W chi."""
    p = pair
    return (p.t + p.chi @ p.w @ p.chi
            - p.chi @ p.w @ p.chibar @ p.inverse_h @ p.chibar @ p.w @ p.chi)


def q_ops(pair: FeshbachPair):
    """Auxiliary operators mapping ker F -> ker H and back:
    Q = chi - chibar H_chibar^-1 chibar W chi and its sharp partner."""
    p = pair
    q = p.chi - p.chibar @ p.inverse_h @ p.chibar @ p.w @ p.chi
    q_sharp = p.chi - p.chi @ p.w @ p.chibar @ p.inverse_h @ p.chibar
    return q, q_sharp


def kernel_dim(mat) -> int:
    sv = np.linalg.svd(np.asarray(mat), compute_uv=False)
    scale = sv[0] if sv.size and sv[0] > 0 else 1.0
    return int(np.sum(sv <= RANK_THRESHOLD * scale))


@dataclass
class IsospectralityReport:
    inverse_identity_h: float
    inverse_identity_f: float
    kernel_dim_h: int
    kernel_dim_f: int
    invertibility_consistent: bool

    @property
    def kernel_dims_match(self) -> bool:
        return self.kernel_dim_h == self.kernel_dim_f


def isospectrality_suite(h, t, chi, chibar, probe_shifts=(0.0,)):
    """Exercise the two inverse identities and the kernel-dimension equality
    for each probe shift z (the pair becomes (H - z, T - z)).

    Identities, in the full-matrix embedding (F (+) T on the chi-null
    coordinates):  H^-1 = Q F^-1 Q# + chibar H_chibar^-1 chibar   and
    F^-1 = chi H^-1 chi + chibar T^-1 chibar.
    """
    h = np.asarray(h, dtype=complex)
    t = np.asarray(t, dtype=complex)
    eye = np.eye(h.shape[0])
    reports = []
    for z in probe_shifts:
        hz = h - z * eye
        p = FeshbachPair(hz, t - z * eye, chi, chibar)
        f = feshbach_map(p)
        q, q_sharp = q_ops(p)
        kd_h = kernel_dim(hz)
        kd_f = kernel_dim(f)
        res_h = res_f = np.nan
        if kd_h == 0 and kd_f == 0:
            hinv = np.linalg.inv(hz)
            finv = np.linalg.inv(f)
            rhs = q @ finv @ q_sharp + p.chibar @ p.inverse_h @ p.chibar
            res_h = float(np.linalg.norm(hinv - rhs) / np.linalg.norm(hinv))
            rhs2 = p.chi @ hinv @ p.chi + p.chibar @ p.inverse_t @ p.chibar
            res_f = float(np.linalg.norm(finv - rhs2) / np.linalg.norm(finv))
        reports.append(IsospectralityReport(
            res_h, res_f, kd_h, kd_f, (kd_h == 0) == (kd_f == 0)))
    return reports


class FirstDecimation:
    """z-independent data of the first decimation at (model, s, g): the
    truncated H_g(s) as built (``hamiltonian``); the operators H_g(s) and
    H_0(s) on the full space (``h``, ``t``), conjugated by the Hypothesis-5
    frame U(s) when P_at(s) differs from P_at(s0) (``hyp5_u``; else None and
    ``h`` is ``hamiltonian.mat``); the cutoff P_at(s0) (x) chi_1(H_f) and its
    partner; the full and reduced bases and the isometry ``frame`` from
    C^d (x) (reduced Fock states) into the full space."""

    def __init__(self, spec: ModelSpec, s: complex, g: float | None = None):
        self.spec = spec
        self.s = s
        self.basis = basis = spec.full_basis()
        self.reduced_basis = spec.reduced_fock_basis()

        p0 = spec.p_at(spec.s0)
        self.hamiltonian = build_hamiltonian(spec, s, g, basis)
        h = self.hamiltonian.mat
        t = build_h0(spec, s, basis)
        self.hyp5_u = None
        if np.linalg.norm(spec.p_at(s) - p0) > 1e-12:
            u = self.hyp5_u = hyp5_frame(spec, s)
            uf = np.kron(u, np.eye(basis.size))
            ufinv = np.kron(np.linalg.inv(u), np.eye(basis.size))
            h, t = ufinv @ h @ uf, ufinv @ t @ uf
        self.h, self.t = h, t

        cut = CutoffSpec(1.0)
        chi_f = cut.chi(basis.hf_values)
        cbar_f = cut.chibar(basis.hf_values)
        pbar0 = np.eye(spec.d_at) - p0
        self.chi = np.kron(p0, np.diag(chi_f.astype(complex)))
        self.chibar = (np.kron(pbar0, np.eye(basis.size))
                       + np.kron(p0, np.diag(cbar_f.astype(complex))))

        inject = np.zeros((basis.size, self.reduced_basis.size))
        for i, occ in enumerate(self.reduced_basis.states):
            inject[basis.index[occ], i] = 1.0
        self.frame = np.kron(spec.atomic_frame(), inject)

    def pair(self, z: complex) -> FeshbachPair:
        """The pair (H_g(s) - z, H_0(s) - z) with the first cutoffs."""
        if not self.spec.in_window(self.s, z):
            raise WindowError(f"(s, z) = ({self.s}, {z}) outside the declared window")
        eye = np.eye(self.basis.dim)
        return FeshbachPair(self.h - z * eye, self.t - z * eye, self.chi, self.chibar)


class FirstFeshbachResult(NamedTuple):
    """First decimation at one z: the reduced operator, its pair and the
    pair's report."""

    h0: OperatorMatrix
    pair: FeshbachPair
    pair_report: FeshbachPairReport


def first_feshbach(first: FirstDecimation, z: complex) -> FirstFeshbachResult:
    """Decimate (H_g(s) - z, H_0(s) - z) with the projection-weighted cutoff
    P_at (x) chi_1(H_f) by direct block inversion, and restrict the result to
    the reduced space Ran(P_at (x) 1_{H_f <= 1})."""
    pair = first.pair(z)
    report = verify_pair(pair)
    if not (report.t_margin > 0 and report.h_margin > 0):
        raise FeshbachPairError(report)
    f_direct = feshbach_map(pair)
    h0 = first.frame.conj().T @ f_direct @ first.frame
    return FirstFeshbachResult(OperatorMatrix(h0, first.reduced_basis), pair, report)


@dataclass
class NeumannCheck:
    """Direct first decimation against its truncated Neumann expansion."""

    discrepancy: float     # ||F_direct - F_Neumann|| / max(1, ||F_direct||)
    terms: int
    tail_bound: float      # a-posteriori bound from the contraction norm


NEUMANN_MAX_TERMS = 30
NEUMANN_TOL = 1e-13       # stop when a term falls below this, relative to ||F||


def neumann_check(pair: FeshbachPair) -> NeumannCheck:
    """Cross-check the Feshbach map of a pair against the truncated Neumann
    expansion of the same Schur complement, with an a-posteriori tail bound
    from the measured contraction norm."""
    f_direct = feshbach_map(pair)

    # F = T + chi W chi - sum_{L>=1} (-1)^(L-1) chi W chibar (R0 chibar W chibar)^(L-1) R0 chibar W chi
    # with R0 the restricted inverse of T on Ran chibar and W = g W(s).
    chi, chibar, w, r0 = pair.chi, pair.chibar, pair.w, pair.inverse_t
    lead = chi @ w @ chibar
    contraction = float(np.linalg.norm(r0 @ pair.w_bar, 2))
    scale = max(1.0, float(np.linalg.norm(f_direct)))
    series = np.zeros_like(f_direct)
    cur = r0 @ (chibar @ w @ chi)
    n_terms = 0
    last_norm = 0.0
    for L in range(1, NEUMANN_MAX_TERMS + 1):
        term = lead @ cur
        series += ((-1) ** (L - 1)) * term
        n_terms = L
        last_norm = float(np.linalg.norm(term, 2))
        if last_norm < NEUMANN_TOL * scale:
            break
        cur = r0 @ (pair.w_bar @ cur)
    if contraction < 1.0:
        tail_bound = last_norm * contraction / (1.0 - contraction)
    else:
        tail_bound = np.inf
    f_neumann = pair.t + chi @ w @ chi - series
    discrepancy = float(np.linalg.norm(f_direct - f_neumann) / scale)
    return NeumannCheck(discrepancy, n_terms, tail_bound)

