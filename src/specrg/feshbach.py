"""Smooth Feshbach-Schur map and the first decimation step.

The map F(H, T) = H_chi - chi W chibar (H_chibar|_Ran chibar)^-1 chibar W chi
with W = H - T, chi^2 + chibar^2 = 1, preserves kernel dimension and bounded
invertibility.  The cutoffs are functions of H_f, so in the occupation basis
they are diagonal and a pair takes them as 1-D arrays: Ran chibar is the set
``on`` of coordinates where chibar is not negligible, a restricted inverse is
the inverse of a principal submatrix, and multiplying by a cutoff scales rows
or columns.  Each decimation builds one ``FeshbachPair``, read by
``feshbach_map`` and ``q_ops``.  A step needs only the pair's ``margins``;
``verify_pair`` adds the contraction norms where a report is read.

H and T may carry leading axes, one stack of K matrices per z of a stacked
ladder: every block, inverse and map then carries them too, the cutoffs and
``on`` are shared, and the margins and the report are the worst over the
stack.

The first cutoff P_at(s0) (x) chi_1(H_f) is diagonal in the atomic frame
u = [basis of Ran P_at(s0) | basis of Ran(1 - P_at(s0))], times Kato's
U(s) = P_at(s) P_at(s0) + (1 - P_at(s))(1 - P_at(s0)) (``model.hyp5_frame``)
when P_at(s) varies.  A ``FirstDecimation`` conjugates H_g(s) and H_0(s) by
u (x) 1 once per (model, s, g), and ``first_decimation`` keeps it in
``spec.built`` for every caller of the command; ``FirstDecimation.pair(z)``
is the only work left per z, or per stack of z values.  The frame is unitary
only when P_at(s0) is an orthogonal projection and P_at(s) = P_at(s0); in an
oblique frame the first pair's margins are measured in that frame.
``first_feshbach`` maps the pair to the reduced space, and ``neumann_check``
cross-checks it with the contraction norm that ``verify_pair`` measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .fock import FockBasis, OperatorMatrix
from .model import ModelSpec, WindowError, build_h0, build_hamiltonian, hyp5_frame, projection_frame

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

    def diagonals(self, basis: FockBasis):
        """The diagonals of chi(H_f) and chibar(H_f) on the full product
        basis (identity on the atomic factor)."""
        ones = np.ones(basis.d_at)
        return (np.kron(ones, self.chi(basis.hf_values)),
                np.kron(ones, self.chibar(basis.hf_values)))


@dataclass
class FeshbachPairReport:
    """Quantitative pair-condition check: the invertibility margin of T (and
    H_chibar) on Ran chibar, and the two contraction norms whose smallness
    certifies the Neumann expansion."""

    t_margin: float
    h_margin: float
    contraction_left: float
    contraction_right: float

    @property
    def contractions_ok(self) -> bool:
        return self.contraction_left < 1.0 and self.contraction_right < 1.0

    @property
    def passed(self) -> bool:
        return self.t_margin > 0.0 and self.h_margin > 0.0 and self.contractions_ok


class FeshbachPair:
    """One (H, T, chi, chibar) quadruple with the cutoffs given by their
    diagonals.  Ran chibar is the coordinate set ``on`` (chibar above
    RANK_THRESHOLD times its largest entry, the rank decision of an SVD of
    the diagonal matrix); ``m_h`` and ``m_t`` are the restrictions of
    H_chibar and T to it, and ``left``, ``right``, ``w_bar`` the blocks of
    chi W chibar, chibar W chi and chibar W chibar that meet it.
    ``verify_pair``, ``feshbach_map`` and ``q_ops`` all read the same pair."""

    def __init__(self, h, t, chi, chibar):
        self.t = np.asarray(t, dtype=complex)
        self.chi = np.asarray(chi, dtype=float)
        self.chibar = np.asarray(chibar, dtype=float)
        self.w = np.asarray(h, dtype=complex) - self.t
        self.on = on = self.chibar > RANK_THRESHOLD * self.chibar.max(initial=0.0)
        cb = self.chibar[on]
        block = (..., *np.ix_(on, on))
        self.left = self.chi[:, None] * self.w[..., :, on] * cb     # chi W chibar
        self.right = cb[:, None] * self.w[..., on, :] * self.chi    # chibar W chi
        self.m_t = self.t[block]
        self.w_bar = cb[:, None] * self.w[block] * cb              # chibar W chibar
        self.m_h = self.m_t + self.w_bar

    @cached_property
    def margins(self) -> tuple[float, float]:
        """(t_margin, h_margin): the smallest singular values of T and
        H_chibar restricted to Ran chibar, the least over a stack; inf when
        Ran chibar is empty."""
        if not self.on.any():
            return np.inf, np.inf
        return (float(np.linalg.svd(self.m_t, compute_uv=False)[..., -1].min()),
                float(np.linalg.svd(self.m_h, compute_uv=False)[..., -1].min()))

    def require_margins(self):
        """Raise FeshbachPairError unless both margins are positive."""
        t_margin, h_margin = self.margins
        if not (t_margin > 0 and h_margin > 0):
            raise FeshbachPairError(verify_pair(self))

    @cached_property
    def inverse_h(self) -> np.ndarray:
        """(H_chibar|_Ran chibar)^-1 on the coordinates ``on``."""
        return np.linalg.inv(self.m_h)

    @cached_property
    def inverse_t(self) -> np.ndarray:
        """(T|_Ran chibar)^-1 on the coordinates ``on``."""
        return np.linalg.inv(self.m_t)


def verify_pair(pair: FeshbachPair) -> FeshbachPairReport:
    """Check the sufficient pair conditions and report margins.

    The margins are the pair's ``margins``, which gate every step; the
    contraction norms ||T^-1 chibar W chibar||, ||chibar W T^-1 chibar|| are
    computed here, the largest over a stack.
    """
    p = pair
    t_margin, h_margin = p.margins
    if not p.on.any():
        return FeshbachPairReport(t_margin, h_margin, 0.0, 0.0)
    if t_margin > 0:
        left = float(np.linalg.norm(p.inverse_t @ p.w_bar, 2, axis=(-2, -1)).max())
        right = float(np.linalg.norm(p.w_bar @ p.inverse_t, 2, axis=(-2, -1)).max())
    else:
        left = right = np.inf
    return FeshbachPairReport(t_margin, h_margin, left, right)


class FeshbachPairError(ArithmeticError):
    def __init__(self, report: FeshbachPairReport):
        self.report = report
        super().__init__(f"Feshbach pair conditions failed: {report}")


def feshbach_map(pair: FeshbachPair) -> np.ndarray:
    """F(H, T) = T + chi W chi - chi W chibar (H_chibar|)^-1 chibar W chi."""
    p = pair
    return p.t + p.chi[:, None] * p.w * p.chi - p.left @ (p.inverse_h @ p.right)


def q_ops(pair: FeshbachPair):
    """Auxiliary operators mapping ker F -> ker H and back:
    Q = chi - chibar H_chibar^-1 chibar W chi and its sharp partner."""
    p = pair
    cb = p.chibar[p.on]
    chi = np.broadcast_to(np.diag(p.chi.astype(complex)), p.w.shape)
    q = chi.copy()
    q[..., p.on, :] -= cb[:, None] * (p.inverse_h @ p.right)
    q_sharp = chi.copy()
    q_sharp[..., :, p.on] -= (p.left @ p.inverse_h) * cb
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

    @property
    def kernel_dims_match(self) -> bool:
        return self.kernel_dim_h == self.kernel_dim_f


def isospectrality_suite(h, t, chi, chibar, probe_shifts=(0.0,)):
    """Exercise the two inverse identities and the kernel-dimension equality
    for each probe shift z (the pair becomes (H - z, T - z)); chi and chibar
    are the diagonals of the cutoffs.

    Identities, in the full-matrix embedding (F (+) T on the chi-null
    coordinates):  H^-1 = Q F^-1 Q# + chibar H_chibar^-1 chibar   and
    F^-1 = chi H^-1 chi + chibar T^-1 chibar.
    """
    h = np.asarray(h, dtype=complex)
    t = np.asarray(t, dtype=complex)
    eye = np.eye(h.shape[0])

    def chibar_sandwich(p, inv):   # chibar (.|_Ran chibar)^-1 chibar, full size
        out = np.zeros_like(h)
        out[np.ix_(p.on, p.on)] = p.chibar[p.on, None] * inv * p.chibar[p.on]
        return out

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
            rhs = q @ finv @ q_sharp + chibar_sandwich(p, p.inverse_h)
            res_h = float(np.linalg.norm(hinv - rhs) / np.linalg.norm(hinv))
            rhs2 = p.chi[:, None] * hinv * p.chi + chibar_sandwich(p, p.inverse_t)
            res_f = float(np.linalg.norm(finv - rhs2) / np.linalg.norm(finv))
        reports.append(IsospectralityReport(res_h, res_f, kd_h, kd_f))
    return reports


def _conjugate_atomic(uinv: np.ndarray, mat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(u^-1 (x) 1) mat (u (x) 1) in atomic-major layout, block by block."""
    d = u.shape[0]
    blocks = mat.reshape(d, mat.shape[0] // d, d, -1)
    return np.einsum("ac,cidj,db->aibj", uinv, blocks, u).reshape(mat.shape)


class FirstDecimation:
    """z-independent data of the first decimation at (model, s, g):
    ``hamiltonian``, the truncated H_g(s) as built; ``h`` and ``t``, H_g(s)
    and H_0(s) conjugated by u (x) 1 with the atomic frame ``u`` of the
    module docstring (``atomic_frame()`` first, times Kato's frame U(s) of
    ``hyp5_frame`` when P_at(s) differs from P_at(s0) by more than 1e-12);
    ``chi`` and ``chibar``, the diagonals of the cutoff P_at(s0) (x)
    chi_1(H_f) and its partner in that frame; the full and reduced bases, and
    ``reduced_index``, the coordinates of the reduced space
    Ran(P_at(s0) (x) 1_{H_f <= 1}).  ``u`` is unitary only when P_at is
    orthogonal and P_at(s) = P_at(s0)."""

    def __init__(self, spec: ModelSpec, s: complex, g: float | None):
        self.spec = spec
        self.s = s
        self.basis = basis = spec.full_basis()
        self.reduced_basis = spec.reduced_fock_basis()

        p0 = spec.p_at(spec.s0)
        u = np.hstack([spec.atomic_frame(),
                       projection_frame(np.eye(spec.d_at) - p0, spec.d_at - spec.d)])
        if np.linalg.norm(spec.p_at(s) - p0) > 1e-12:
            u = hyp5_frame(spec, s) @ u
        self.u = u
        uinv = np.linalg.inv(u)
        self.hamiltonian = build_hamiltonian(spec, s, g, basis)
        self.h = _conjugate_atomic(uinv, self.hamiltonian.mat, u)
        self.t = _conjugate_atomic(uinv, build_h0(spec, s, basis), u)

        cut = CutoffSpec(1.0)
        on_d = np.arange(spec.d_at) < spec.d   # Ran P_at(s0) in the frame u
        self.chi = np.kron(on_d, cut.chi(basis.hf_values))
        self.chibar = (np.kron(~on_d, np.ones(basis.size))
                       + np.kron(on_d, cut.chibar(basis.hf_values)))
        fock = np.array([basis.index[occ] for occ in self.reduced_basis.states])
        self.reduced_index = (np.arange(spec.d)[:, None] * basis.size + fock).ravel()

    def pair(self, z) -> FeshbachPair:
        """The pair (H_g(s) - z, H_0(s) - z) with the first cutoffs, for one
        z or, with a leading axis, for each z of an array."""
        for zk in np.ravel(z):
            if not self.spec.in_window(self.s, zk):
                raise WindowError(f"(s, z) = ({self.s}, {complex(zk)}) outside the "
                                  "declared window")
        shift = np.asarray(z)[..., None, None] * np.eye(self.basis.dim)
        return FeshbachPair(self.h - shift, self.t - shift, self.chi, self.chibar)


def first_decimation(spec: ModelSpec, s: complex, g: float | None) -> FirstDecimation:
    """The ``FirstDecimation`` at (model, s, g), built once and kept in
    ``spec.built``: the first-decimation report, the dense oracles and the
    flow of one command share it."""
    key = ("first", complex(s), g)
    if key not in spec.built:
        spec.built.setdefault(key, FirstDecimation(spec, s, g))
    return spec.built[key]   # threads that both build keep the first


def first_feshbach(first: FirstDecimation, z) -> tuple[OperatorMatrix, FeshbachPair]:
    """Decimate (H_g(s) - z, H_0(s) - z) with the projection-weighted cutoff
    P_at (x) chi_1(H_f) by direct block inversion, and restrict the result to
    the reduced space: its principal submatrix on ``reduced_index``, which
    the map leaves invariant.  Returns the reduced operator and the pair,
    both stacked like z."""
    pair = first.pair(z)
    pair.require_margins()
    idx = first.reduced_index
    h0 = feshbach_map(pair)[(..., *np.ix_(idx, idx))]
    return OperatorMatrix(h0, first.reduced_basis), pair


@dataclass
class NeumannCheck:
    """Direct first decimation against its truncated Neumann expansion."""

    discrepancy: float     # ||F_direct - F_Neumann|| / max(1, ||F_direct||)
    terms: int
    tail_bound: float      # a-posteriori bound from the contraction norm


NEUMANN_MAX_TERMS = 30
NEUMANN_TOL = 1e-13       # stop when a term falls below this, relative to ||F||


def neumann_check(pair: FeshbachPair, contraction: float) -> NeumannCheck:
    """Cross-check the Feshbach map of a pair against the truncated Neumann
    expansion of the same Schur complement, with an a-posteriori tail bound
    from the contraction norm ||(T|_Ran chibar)^-1 chibar W chibar||, the
    ``contraction_left`` that ``verify_pair`` measured."""
    f_direct = feshbach_map(pair)

    # F = T + chi W chi - sum_{L>=1} (-1)^(L-1) chi W chibar (R0 chibar W chibar)^(L-1) R0 chibar W chi
    # with R0 the restricted inverse of T on Ran chibar and W = g W(s); the
    # factors between chi W chibar and chibar W chi act on Ran chibar.
    r0 = pair.inverse_t
    scale = max(1.0, float(np.linalg.norm(f_direct)))
    series = np.zeros_like(f_direct)
    cur = r0 @ pair.right
    n_terms = 0
    last_norm = 0.0
    # ||term||_2 >= ||term||_F / sqrt(N): a term with a Frobenius norm this far
    # above the tolerance cannot end the series, and its 2-norm is not taken
    certain = 2 * NEUMANN_TOL * scale * np.sqrt(f_direct.shape[-1])
    for L in range(1, NEUMANN_MAX_TERMS + 1):
        term = pair.left @ cur
        series += ((-1) ** (L - 1)) * term
        n_terms = L
        if L == NEUMANN_MAX_TERMS or np.linalg.norm(term) < certain:
            last_norm = float(np.linalg.norm(term, 2))
            if last_norm < NEUMANN_TOL * scale:
                break
        cur = r0 @ (pair.w_bar @ cur)
    if contraction < 1.0:
        tail_bound = last_norm * contraction / (1.0 - contraction)
    else:
        tail_bound = np.inf
    f_neumann = pair.t + pair.chi[:, None] * pair.w * pair.chi - series
    discrepancy = float(np.linalg.norm(f_direct - f_neumann) / scale)
    return NeumannCheck(discrepancy, n_terms, tail_bound)
