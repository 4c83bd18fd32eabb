"""Smooth Feshbach-Schur map and the first decimation step.

The map F(H, T) = H_chi - chi W chibar (H_chibar|_Ran chibar)^-1 chibar W chi
with W = H - T, chi^2 + chibar^2 = 1, preserves kernel dimension and bounded
invertibility.  The cutoffs are functions of H_f, so in the occupation basis
they are diagonal and a pair takes them as 1-D arrays (``Cutoffs``): Ran
chibar is the set ``on`` of coordinates where chibar is not negligible, a
restricted inverse is the inverse of a principal submatrix, and multiplying
by a cutoff scales rows or columns.

A flow keeps only a principal submatrix of each map, on the coordinates
``keep`` of the next space, so ``feshbach_map`` computes only that block:
(T - z + chi W chi)[keep, keep] minus the rows ``keep`` of chi W chibar
times one LU solve of H_chibar| against the columns ``keep`` of chibar W
chi.  What of this does not depend on z (T, and the blocks of W = H - T on
Ran chibar and on ``keep``) is one ``AffinePair``; a ``FeshbachPair`` reads
it at one z, subtracting z in one place (``minus_z``), and holds that one
solve (``solved``), which ``feshbach_map``, ``q_ops`` and ``neumann_check``
read.  The pair's arithmetic follows its data: an ``AffinePair`` keeps the
dtype of H and T, real for a real model at a real s, and ``minus_z`` the
dtype of the block and z, so a real z keeps a real pair real and a complex
z makes it complex.
T is block-diagonal, one d_at x d_at block per Fock state, so a step is
gated by the smallest singular value of those blocks on Ran chibar (a
batched SVD of d_at x d_at matrices) and by that LU solve; a singular block
raises FeshbachPairError with ``verify_pair``'s report, four floats: the
same block margin, H_chibar's full-SVD margin and the two contraction norms
(``contraction_norm``).

H and T may carry leading axes, one stack of K matrices per z of a stacked
ladder: every block, inverse and map then carries them too, the cutoffs and
``on`` are shared, and the margins and the report are the worst over the
stack.

The first cutoff P_at(s0) (x) chi_1(H_f) is diagonal in the atomic frame
u = [basis of Ran P_at(s0) | basis of Ran(1 - P_at(s0))], times Kato's
U(s) = P_at(s) P_at(s0) + (1 - P_at(s))(1 - P_at(s0)) (``model.hyp5_frame``)
when P_at(s) varies.  What no s changes (the bases, that cutoff, the
reduced coordinates, and u at s0 with its inverse) is one ``FirstFrame``
per model.  A ``FirstDecimation`` reads it and conjugates H_g(s) and H_0(s)
by u (x) 1 once per (model, s, g), and ``first_decimation`` keeps it in
``spec.built`` for every caller of the command.  Its pair (H_g(s) - z,
H_0(s) - z) is affine in z and W does not depend on z: its ``AffinePair``
on the reduced space is formed once, from the real parts of H_g(s) and
H_0(s) when both conjugated imaginary parts are exactly 0, and
``FirstDecimation.pair(z)`` only moves the diagonals of the restricted
blocks and of the kept block by -z, for one z or a stack of z values.
Where the pair's h_on = H_chibar|_on + z is exactly Hermitian, as at a real
s, its map is taken in spectral form (``SpectralForm``): one ``eigh`` of
h_on per (model, s, g) turns (h_on - z)^-1 into a diagonal scaling for
every z, and only the rows and columns that chi W chibar reaches are
updated, with no LU solve per z (Laub, IEEE TAC 26, 1981: one
factorization for all shifts); elsewhere, as at a complex s whose H
depends on s, the map is the LU solve.  ``pair_map`` is the map the flow
uses.  The frame is unitary only when P_at(s0) is an orthogonal projection
and P_at(s) = P_at(s0); in an oblique frame the first pair's margins are
measured in that frame.
``first_feshbach`` maps the pair to the reduced space, and ``neumann_check``
cross-checks that map on the same block and measures the contraction norm
of its expansion, ``verify_pair``'s ``contraction_left``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .fock import FockBasis, OperatorMatrix, TruncationError
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
        c = self.chi(basis.hf_values)
        return np.tile(c, basis.d_at), np.tile(np.sqrt(1.0 - c * c), basis.d_at)   # chibar from c


class Cutoffs:
    """The diagonals ``chi`` and ``chibar`` of one cutoff pair on a space of
    d_at x n coordinates in atomic-major layout, and what every pair reads
    of them, fixed once per flow depth and per first decimation: ``on``, the
    coordinates of Ran chibar (chibar above RANK_THRESHOLD times its largest
    entry, the rank decision of an SVD of the diagonal matrix) as a mask and
    as ``on_index``; ``cb`` = chibar[on]; and ``t_blocks``, one index tuple
    per pattern of on atoms that gathers from T|_on the d_at x d_at blocks
    of T (one per Fock state) restricted to ``on``, in the lexicographic
    order of the patterns.  A pattern is found by its integer code, the on
    atoms as the bits of one int64, most significant first, so the codes
    sort as the patterns do; d_at is at most 63.  A T that is not
    block-diagonal is one block: d_at = the number of coordinates."""

    def __init__(self, chi, chibar, d_at: int):
        if d_at > 63:
            raise ValueError(f"an on-atom pattern of {d_at} atoms has no int64 code")
        self.chi = np.asarray(chi, dtype=float)
        self.chibar = np.asarray(chibar, dtype=float)
        self.on = on = self.chibar > RANK_THRESHOLD * self.chibar.max(initial=0.0)
        self.cb = self.chibar[on]
        self.on_index = np.flatnonzero(on)
        place = (np.cumsum(on) - 1).reshape(d_at, -1).T   # row i: block of Fock state i in T|_on
        atoms = on.reshape(d_at, -1).T
        codes = atoms @ (1 << np.arange(d_at, dtype=np.int64)[::-1])
        self.t_blocks = []
        for code in np.unique(codes[codes > 0]):
            states = codes == code
            rows = place[states][:, atoms[states.argmax()]]
            self.t_blocks.append((..., rows[:, :, None], rows[:, None, :]))


@dataclass(frozen=True)
class FeshbachPairReport:
    """Quantitative pair-condition check of a pair: the invertibility margin
    of T (and H_chibar) on Ran chibar, and the two contraction norms whose
    smallness certifies the Neumann expansion."""

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


class AffinePair:
    """What the pairs (H - z, T - z) share for every z, from H and T at z = 0,
    the cutoffs ``cut`` and the coordinates ``keep`` on which the map is
    computed: T; with W = H - T, on Ran chibar, ``w_bar`` = chibar W chibar,
    ``t_on`` = T|_on and ``h_on`` = t_on + w_bar; and on ``keep``, ``base``
    = (T + chi W chi)[keep, keep], ``left`` = chi W chibar on the rows
    ``keep`` and ``right`` = chibar W chi on the columns ``keep``.  Every
    block has the dtype of H and T together, real when both are.  A
    ``FeshbachPair`` reads it at one z or a stack of z values."""

    def __init__(self, h, t, cut: Cutoffs, keep):
        dtype = np.result_type(h, t)
        self.t = np.asarray(t, dtype=dtype)
        w = np.asarray(h, dtype=dtype) - self.t
        self.cut, self.keep = cut, keep
        on, cb, c = cut.on_index, cut.cb, cut.chi[keep]
        self.w_bar = cb[:, None] * w.take(on, -2).take(on, -1) * cb
        self.t_on = self.t.take(on, -2).take(on, -1)
        self.h_on = self.t_on + self.w_bar
        w_rows = w.take(keep, -2)
        self.base = self.t.take(keep, -2).take(keep, -1) + c[:, None] * w_rows.take(keep, -1) * c
        self.left = c[:, None] * w_rows.take(on, -1) * cb
        self.right = cb[:, None] * w.take(keep, -1).take(on, -2) * c


class FeshbachPair:
    """The pair (H - z, T - z) of the ``AffinePair`` ``fixed`` at one z or,
    with a leading axis, at each z of an array.  ``minus_z`` is the one place
    z is subtracted; the pair forms with it the two restricted blocks that
    move with z, ``m_t`` = (T - z)|_on and, when first read, ``m_h`` =
    H_chibar|_on.  ``t_margin`` gates a step from T's d_at x d_at blocks,
    ``solved`` gates H_chibar by the one LU solve of the pair, and
    ``verify_pair`` reports the margins.  ``feshbach_map``, ``q_ops`` and
    ``neumann_check`` all read that solve.  ``spectral`` is the
    ``SpectralForm`` of ``fixed``'s h_on, which the first decimation passes
    where it is exact, and ``pair_map`` then reads in place of the solve.
    ``reportable`` is the part of the pair that ``verify_pair`` reads, which
    a flow keeps of each depth."""

    def __init__(self, fixed: AffinePair, z, spectral: SpectralForm | None = None):
        self.fixed = fixed
        self.z = np.asarray(z)
        self.spectral = spectral
        self.m_t = self.minus_z(fixed.t_on)

    @cached_property
    def m_h(self) -> np.ndarray:
        return self.minus_z(self.fixed.h_on)

    def minus_z(self, m) -> np.ndarray:
        """m - z on the diagonal of its last two axes, stacked like z: m
        itself when every z is 0, as at every flow step, else a copy.  The
        result may be m, so no caller writes it."""
        if not self.z.any():
            return m
        shape = np.broadcast_shapes(m.shape, self.z.shape + (1, 1))
        out = np.empty(shape, dtype=np.result_type(m, self.z))
        out[...] = m
        diagonal = out.reshape(shape[:-2] + (-1,))[..., :: m.shape[-1] + 1]   # a view
        diagonal -= self.z[..., None]
        return out

    @cached_property
    def t_margin(self) -> float:
        """The smallest singular value of (T - z)|_Ran chibar, the least over
        a stack; inf when Ran chibar is empty.  T is block-diagonal, so these
        are the singular values of the d_at x d_at blocks of ``m_t``: one
        batched SVD per pattern of on atoms, and the moduli of 1 x 1
        blocks."""
        margins = []
        for block in self.fixed.cut.t_blocks:
            m = self.m_t[block]
            sv = np.abs(m[..., 0]) if m.shape[-1] == 1 else np.linalg.svd(m, compute_uv=False)
            margins.append(sv[..., -1].min())
        return float(np.min(margins, initial=np.inf))   # NaN propagates

    def require_margins(self):
        """Raise FeshbachPairError unless ``t_margin`` is positive.  H_chibar
        is gated where it is solved (``solved``)."""
        if not self.t_margin > 0:
            raise FeshbachPairError(verify_pair(self))

    @cached_property
    def solved(self) -> np.ndarray:
        """(H_chibar|_Ran chibar)^-1 chibar W chi on the columns ``keep``, by
        one LU solve against the ``AffinePair``'s ``right``.  Raise
        FeshbachPairError with the pair's report when the LU finds the block
        singular or the solution is not finite."""
        try:
            x = np.linalg.solve(self.m_h, self.fixed.right)
        except np.linalg.LinAlgError:
            raise FeshbachPairError(verify_pair(self)) from None
        if not np.isfinite(x).all():
            raise FeshbachPairError(verify_pair(self))
        return x

    def reportable(self) -> FeshbachPair:
        """This pair as ``verify_pair`` reads it: a pair at the same z whose
        ``AffinePair`` holds only the cutoffs and the blocks on Ran chibar,
        with no solve, no T and no block on ``keep``, so a record can keep
        it and not the rest of the ladder the pair stepped into."""
        fixed = copy.copy(self.fixed)
        del fixed.t, fixed.base, fixed.left, fixed.right
        return FeshbachPair(fixed, self.z)

    @cached_property
    def inverse_t(self) -> np.ndarray | None:
        """((T - z)|_Ran chibar)^-1 on the coordinates ``on``, or None where
        the LU finds the block singular or the inverse is not finite."""
        try:
            inv = np.linalg.inv(self.m_t)
        except np.linalg.LinAlgError:
            return None
        return inv if np.isfinite(inv).all() else None


def contraction_norm(pair: FeshbachPair, left: bool) -> float:
    """||T^-1 chibar W chibar|| (left) or ||chibar W chibar T^-1|| (right)
    on Ran chibar, the largest over a stack: 0 when Ran chibar is empty, inf
    when T|_Ran chibar is singular."""
    if not pair.fixed.cut.on.any():
        return 0.0
    r0 = pair.inverse_t if pair.t_margin > 0 else None
    if r0 is None:
        return np.inf
    w_bar = pair.fixed.w_bar
    k = r0 @ w_bar if left else w_bar @ r0
    return float(np.linalg.norm(k, 2, axis=(-2, -1)).max())


def verify_pair(pair: FeshbachPair) -> FeshbachPairReport:
    """Check the sufficient pair conditions and report margins.

    The margins are the gate's ``t_margin`` of (T - z)|_Ran chibar and the
    smallest singular value of H_chibar|_Ran chibar from a full SVD, the
    least over a stack, and inf when Ran chibar is empty; the contraction
    norms are ``contraction_norm``'s.
    """
    h_margin = np.inf
    if pair.fixed.cut.on.any():
        h_margin = float(np.linalg.svd(pair.m_h, compute_uv=False)[..., -1].min())
    return FeshbachPairReport(pair.t_margin, h_margin, contraction_norm(pair, True),
                              contraction_norm(pair, False))


class FeshbachPairError(ArithmeticError):
    def __init__(self, report: FeshbachPairReport):
        self.report = report
        super().__init__(f"Feshbach pair conditions failed: {report}")


def feshbach_map(pair: FeshbachPair) -> np.ndarray:
    """The principal submatrix on the pair's coordinates ``keep`` of
    F(H - z, T - z) = T - z + chi W chi - chi W chibar (H_chibar|)^-1 chibar W chi:
    the ``AffinePair``'s ``base`` less z, and its ``left`` times the pair's
    one solve (``solved``)."""
    return pair.minus_z(pair.fixed.base) - pair.fixed.left @ pair.solved


class SpectralForm:
    """The map of every pair of an ``AffinePair`` whose h_on is exactly
    Hermitian, from one ``eigh``: h_on = V diag(lam) V*, so (h_on - z)^-1 =
    V diag(1/(lam - z)) V* for every z.  Only the rows ``rows`` of ``left``
    and the columns ``cols`` of ``right`` that are not exactly zero enter
    the Schur correction, and L = left[rows] V and Rm = V* right[:, cols]
    are formed once, so a z costs one diagonal scaling and one product on
    rows x cols.  V is real when h_on is, and a complex z then takes the
    correction's real and imaginary parts as two real products."""

    def __init__(self, fixed: AffinePair):
        self.lam, v = np.linalg.eigh(fixed.h_on)
        self.rows = np.flatnonzero(fixed.left.any(axis=-1))
        self.cols = np.flatnonzero(fixed.right.any(axis=-2))
        self.l = fixed.left[self.rows] @ v
        self.rm = v.conj().T @ fixed.right[:, self.cols]

    def map(self, pair: FeshbachPair) -> np.ndarray:
        """``feshbach_map`` of ``pair``, a pair of the ``AffinePair`` this
        form was taken of, stacked like its z: base - z less L diag(1/(lam -
        z)) Rm on rows x cols.  Raise FeshbachPairError with the pair's
        report when a 1/(lam - z) is not finite, as at an eigenvalue of
        h_on."""
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / (self.lam - pair.z[..., None])
        if not np.isfinite(inv).all():
            raise FeshbachPairError(verify_pair(pair))
        if np.isrealobj(self.l) and np.iscomplexobj(inv):
            # a real form at a complex z: two real products, with no complex copy of L
            correction = np.empty(inv.shape[:-1] + (self.rows.size, self.cols.size), complex)
            correction.real = self.l @ (inv.real[..., :, None] * self.rm)
            correction.imag = self.l @ (inv.imag[..., :, None] * self.rm)
        else:
            correction = self.l @ (inv[..., :, None] * self.rm)
        base = pair.fixed.base
        out = pair.minus_z(base)
        out = out.astype(np.result_type(out, correction), copy=out is base)
        out[..., self.rows[:, None], self.cols] -= correction
        return out


def pair_map(pair: FeshbachPair) -> np.ndarray:
    """The kept block of the pair's map as the flow computes it: from the
    pair's ``spectral`` form where it carries one, else ``feshbach_map``."""
    return feshbach_map(pair) if pair.spectral is None else pair.spectral.map(pair)


def q_ops(pair: FeshbachPair) -> np.ndarray:
    """Q Gamma*, the columns ``keep`` of the auxiliary operator
    Q = chi - chibar H_chibar^-1 chibar W chi, which maps ker F into ker H,
    stacked like the pair: chi on (keep, keep) less chibar times the pair's
    solve on the rows of Ran chibar."""
    cut, keep = pair.fixed.cut, pair.fixed.keep
    q = np.zeros(pair.m_h.shape[:-2] + (cut.chi.size, len(keep)), dtype=complex)
    q[..., keep, np.arange(len(keep))] = cut.chi[keep]
    q[..., cut.on, :] -= cut.cb[:, None] * pair.solved
    return q


def _conjugate_atomic(uinv: np.ndarray, mat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(u^-1 (x) 1) mat (u (x) 1) in atomic-major layout, block by block."""
    d = u.shape[0]
    blocks = mat.reshape(d, mat.shape[0] // d, d, -1)
    return np.einsum("ac,cidj,db->aibj", uinv, blocks, u).reshape(mat.shape)


class FirstFrame:
    """What every first decimation of a model shares, for every (s, g): the
    full and reduced bases; ``cut``, the cutoff P_at(s0) (x) chi_1(H_f) and
    its partner, diagonal in the frame ``u0`` = [``atomic_frame()`` | frame
    of Ran(1 - P_at(s0))], and ``u0inv``; and ``reduced_index``, the
    coordinates of the reduced space Ran(P_at(s0) (x) 1_{H_f <= 1})."""

    def __init__(self, spec: ModelSpec):
        self.basis = basis = spec.full_basis()
        self.reduced_basis = spec.reduced_fock_basis()
        p0 = spec.p_at(spec.s0)
        self.u0 = np.hstack([spec.atomic_frame(),
                             projection_frame(np.eye(spec.d_at) - p0, spec.d_at - spec.d)])
        self.u0inv = np.linalg.inv(self.u0)
        cut = CutoffSpec(1.0)
        on_d = np.arange(spec.d_at) < spec.d   # Ran P_at(s0) in the frame u0
        self.cut = Cutoffs(np.kron(on_d, cut.chi(basis.hf_values)),
                           np.kron(~on_d, np.ones(basis.size))
                           + np.kron(on_d, cut.chibar(basis.hf_values)), spec.d_at)
        fock = basis.find(self.reduced_basis.occupations)
        if (fock < 0).any():
            raise TruncationError("the reduced space H_f <= 1 leaves the truncation: "
                                  f"energy cutoff {basis.e_cut} is below 1")
        self.reduced_index = (np.arange(spec.d)[:, None] * basis.size + fock).ravel()


class FirstDecimation:
    """The first decimation at (model, s, g): the model's ``FirstFrame``
    (its bases, ``cut`` and ``reduced_index`` are read here), and what
    depends on s: ``hamiltonian``, the truncated H_g(s) as built; ``e_at``
    = E_at(s), the centre of the window every ``pair(z)`` checks; the frame
    ``u``, the shared u0 times Kato's U(s) of ``hyp5_frame`` when P_at(s)
    differs from P_at(s0) by more than 1e-12; and ``affine``, the
    ``AffinePair`` of H_g(s) and T = H_0(s), both conjugated by u (x) 1, on
    ``reduced_index``, of their real parts when both imaginary parts are
    exactly 0 (the oracle's rule); ``spectral``, its ``SpectralForm``
    where its h_on is exactly Hermitian, else None; and ``z_start``, the z
    the flow and the first-decimation report start from: E_at(s), as a
    float where it and the pair are real, so that the flow of a real model
    at a real s runs in real arithmetic.  T is block-diagonal:
    u^-1 H_at(s) u + hf_i on Fock state i.  ``u`` is unitary only when P_at
    is orthogonal and P_at(s) = P_at(s0)."""

    def __init__(self, spec: ModelSpec, s: complex, g: float | None):
        self.spec = spec
        self.s = s
        frame = spec.memo(("first frame",), lambda: FirstFrame(spec))
        self.basis, self.reduced_basis = frame.basis, frame.reduced_basis
        self.cut, self.reduced_index = frame.cut, frame.reduced_index

        u, uinv = frame.u0, frame.u0inv
        if np.linalg.norm(spec.p_at(s) - spec.p_at(spec.s0)) > 1e-12:
            u = hyp5_frame(spec, s) @ u
            uinv = np.linalg.inv(u)
        self.u = u
        self.e_at = spec.e_at(s)
        h0 = build_h0(spec, s, self.basis)
        self.hamiltonian = build_hamiltonian(spec, s, g, self.basis, h0)
        h = _conjugate_atomic(uinv, self.hamiltonian.mat, u)
        t = _conjugate_atomic(uinv, h0, u)
        if not (h.imag.any() or t.imag.any()):
            h, t = np.ascontiguousarray(h.real), np.ascontiguousarray(t.real)
        self.affine = AffinePair(h, t, self.cut, self.reduced_index)
        h_on = self.affine.h_on
        self.spectral = SpectralForm(self.affine) if np.array_equal(h_on, h_on.conj().T) else None
        real = self.e_at.imag == 0 and np.isrealobj(self.affine.base)
        self.z_start = self.e_at.real if real else self.e_at

    def pair(self, z) -> FeshbachPair:
        """The pair (H_g(s) - z, H_0(s) - z) with the first cutoffs, for one
        z or, with a leading axis, for each z of an array, after a check
        that every z lies in the declared window about ``e_at``."""
        for zk in np.ravel(z):
            if not self.spec.in_z_window(self.e_at, zk):
                raise WindowError(f"(s, z) = ({self.s}, {complex(zk)}) outside the "
                                  "declared window")
        return FeshbachPair(self.affine, z, self.spectral)


def first_decimation(spec: ModelSpec, s: complex, g: float | None) -> FirstDecimation:
    """The ``FirstDecimation`` at (model, s, g), built once and kept in
    ``spec.built``: the first-decimation report, the dense oracles and the
    flow of one command share it."""
    return spec.memo(("first", complex(s), g), lambda: FirstDecimation(spec, s, g))


def first_feshbach(first: FirstDecimation, z) -> tuple[OperatorMatrix, FeshbachPair]:
    """Decimate (H_g(s) - z, H_0(s) - z) with the projection-weighted cutoff
    P_at (x) chi_1(H_f), on the reduced space only: the map's principal
    submatrix on ``reduced_index``, which the map leaves invariant, by
    ``pair_map``: in spectral form where the pair's h_on is exactly
    Hermitian, else by one LU solve.  Returns the reduced operator and the
    pair, both stacked like z."""
    pair = first.pair(z)
    pair.require_margins()
    return OperatorMatrix(pair_map(pair), first.reduced_basis), pair


@dataclass
class NeumannCheck:
    """Direct first decimation against its truncated Neumann expansion."""

    discrepancy: float     # ||F_direct - F_Neumann|| / max(1, ||F_direct||)
    terms: int
    tail_bound: float      # a-posteriori bound from the contraction norm
    contraction: float     # ||(T|_Ran chibar)^-1 chibar W chibar||, the largest over a stack


NEUMANN_MAX_TERMS = 30
NEUMANN_TOL = 1e-13       # stop when a term falls below this, relative to ||F||


def neumann_check(pair: FeshbachPair) -> NeumannCheck:
    """Cross-check the Feshbach map of a pair, as the flow computes it
    (``pair_map``), against the truncated Neumann expansion of the same
    Schur complement, with an a-posteriori tail bound from the contraction
    norm ||K|| of K = (T|_Ran chibar)^-1 chibar W chibar, which the
    expansion forms: the ``contraction_left`` of ``verify_pair``, returned
    with the check.

    chi vanishes outside the pair's ``keep``, so there both maps equal T on
    every row and column, and T's entries outside keep x keep enter only
    the scale ||F||_F.  Every term is ``left`` times a factor on Ran chibar
    x keep, cur_L = K^(L-1) R0 chibar W chi with K = R0 chibar W chibar
    formed once: the factors are summed there and multiplied by ``left``
    once.  The stop rule reads each term's Frobenius and 2-norms from R
    cur_L, with left = QR factored once; Q has orthonormal columns, so the
    norms are the term's.
    """
    fixed = pair.fixed
    if np.delete(fixed.cut.chi, fixed.keep).any():
        raise ValueError("chi does not vanish outside the kept coordinates")
    n = fixed.cut.chi.size
    outside = np.ones((n, n), dtype=bool)
    outside[np.ix_(fixed.keep, fixed.keep)] = False
    f_direct = pair_map(pair)

    # F = T + chi W chi - sum_{L>=1} (-1)^(L-1) chi W chibar (R0 chibar W chibar)^(L-1) R0 chibar W chi
    # with R0 the restricted inverse of T on Ran chibar and W = g W(s); the
    # factors between chi W chibar and chibar W chi act on Ran chibar.
    r0 = pair.inverse_t
    if r0 is None:
        raise FeshbachPairError(verify_pair(pair))
    t_outside = pair.minus_z(fixed.t)[..., outside]
    scale = max(1.0, float(np.hypot(np.linalg.norm(f_direct),
                                    np.linalg.norm(t_outside))))   # ||F||_F
    r_left = np.linalg.qr(fixed.left, mode="r")
    k_op = r0 @ fixed.w_bar
    cur = r0 @ fixed.right
    factors = np.zeros_like(cur)
    n_terms = 0
    last_norm = 0.0
    # ||term||_2 >= ||term||_F / sqrt(N): a term with a Frobenius norm this far
    # above the tolerance cannot end the series, and its 2-norm is not taken
    certain = 2 * NEUMANN_TOL * scale * np.sqrt(n)
    for L in range(1, NEUMANN_MAX_TERMS + 1):
        factors += ((-1) ** (L - 1)) * cur
        n_terms = L
        term = r_left @ cur   # left @ cur = Q term, with the same norms
        if L == NEUMANN_MAX_TERMS or np.linalg.norm(term) < certain:
            last_norm = float(np.linalg.norm(term, 2))
            if last_norm < NEUMANN_TOL * scale:
                break
        cur = k_op @ cur
    contraction = float(np.linalg.norm(k_op, 2, axis=(-2, -1)).max())
    if contraction < 1.0:
        tail_bound = last_norm * contraction / (1.0 - contraction)
    else:
        tail_bound = np.inf
    f_neumann = pair.minus_z(fixed.base) - fixed.left @ factors
    discrepancy = float(np.linalg.norm(f_direct - f_neumann) / scale)
    return NeumannCheck(discrepancy, n_terms, tail_bound, contraction)
