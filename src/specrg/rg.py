"""Renormalization flow: decimate below scale rho, rescale, repeat.

One step maps an operator on the reduced space of a J-shell grid to one on
the (J-1)-shell grid: Feshbach map at cutoff scale rho with the extracted
diagonal part as the unperturbed operator, then the exact shell-shift
dilation and division by rho.  On a truncated grid the flow terminates: after
J steps only the bare degenerate subspace is left and the energy function's
zero is an exact eigenvalue of the truncated Hamiltonian (every step is
kernel-preserving at the matrix level).

Only H - z changes from one evaluation of E^(n)(z) to the next.  A ``Flow``
holds what does not: the first decimation, once per (model, s, g), and per
depth the cutoffs, dilation and the basis' ``kernels.BasisSpline`` (the
basis, the PCHIP node constants and the Hermite weights at the H_f values),
every depth at once on first use, once per model, in ``spec.built`` until
the command ends.  No depth enumerates its basis: the dilation selects the
next depth's states from its own by one mask, so only the model's full and
reduced bases are enumerated.  The symmetry generators are restricted to
d x d once per model and act on every depth as that restriction (x) 1.
``run_ladder(flow, z, n)`` computes on every level its operator and reads it
once: one ``extract_w00`` per level, with its depth's spline, gives E^(n)(z)
= tr w_{0,0}(0) / d, and below the top the next step's T = w_{0,0}(H_f) (the
slopes, then one product with the spline's weights), whose window the step
checks.  Each level's operator is only the block of a Feshbach map that the
next space keeps: the first decimation's pair is affine in z, so its level
costs, where its h_on is exactly Hermitian, one diagonal scaling and one
product in the spectral form the first decimation takes once, else one LU
solve on Ran chibar, and products on the reduced space; a step maps only
the dilation's rows.  A pair is gated by the smallest singular value of
T's d_at x d_at blocks and by that LU solve, with no full-size SVD.  A
level depends only on the level below it, so a ``Ladder`` is its top
level: its extraction, E^(n)(z), the pair of the step into it and, when
asked, each pair's ``q_ops``; ``kernel.txt`` runs its own ladder of level
0 at z_inf.  z is one value or an array of K values: a stacked
ladder carries a leading axis of K on every operator, pair, kernel and
E^(n), and is the same code as the ladder at one z, whose operators have no
leading axis.  z's dtype sets the ladder's arithmetic: a float z on a
first decimation whose pair is real keeps every operator, kernel and E^(n)
real (float64), and a complex z, such as a winding node or a caller's z,
runs in complex arithmetic even when its imaginary part is 0.  The secant
and the eigenvectors run a ladder at one z; the winding check runs one
stacked ladder per round of nodes.  H^(n)(z) = R_rho(H^(n-1)(z)), so a
ladder at z is the ladder one level shorter at z plus one step: depth n's
secant starts at z_{n-1}, and its first evaluation is the ladder depth n-1
converged on (``run_ladder``'s ``start``) plus one step, not a fresh first
decimation and n steps.

The secant's first step from z_{n-1} divides by a scaled slope sigma =
rho^n dE^(n)/dz.  R_rho divides by rho, so dE^(n)/dz is about rho^-1
dE^(n-1)/dz and sigma barely moves from one depth to the next (-1.0247,
-1.0277, -1.0281, ... on m_triv at max_photons 3, settling to a relative
1e-7).  Depth 0 takes the prior -1; every later depth takes the chord of
E^(n-1) from the previous depth's start to its root, which is nearer its
own root's slope than the prior, so most first iterates already meet
TOL_Z.  |E^(n)| < TOL_Z bounds the root's z error only by TOL_Z rho^n /
|sigma|, up to 1e-13 on a flow that stops at depth 3.  A later depth's
secant corrects an earlier root's error, but the last root is z_inf: a root
within TOL_FIXED_POINT of its start, the one the flow stops on, takes one
more step from sigma when its error |E^(n)| rho^n / |sigma| is TOL_Z_INF or
more, which brings z_inf to the rounding level for one ladder.

``iterate_to_fixed_point`` keeps one ``DepthResult`` per depth: its root,
what ``verify_pair`` reads of the pair into the root ladder's top (its
cutoffs and blocks on Ran chibar), the top's extraction and the model's
restricted generators; no ladder outlives the flow.  A depth's diagnostics
are computed only when read: the pair's report where the convergence test
reads its margins, at a depth whose root moved less than TOL_FIXED_POINT,
so H_chibar's SVD and the right contraction are taken only where the flow
stops (a trace line prints the pair's ``t_margin`` and left
``contraction_norm`` and takes no report); the Schur deviation of the
extraction's vacuum block and the symmetry residual once per depth; and
the polydisc radii, which only trace.txt prints, when a trace line is
formed.  The analyticity probe and the coupling sweep read only z_inf and
the report of the depth the flow stops on.

Each root's uniqueness is certified by the argument principle: the winding of
E^(n) around 0 along a small circle about the root must be 1.  The count
starts from 4 nodes on the circle and accepts a round only when every phase
step arg(E_{k+1}/E_k) lies within pi/4 of 2 pi/K, so that no step can alias;
otherwise the nodes double, up to 64, evaluating only the new ones (the
refinement of Delves & Lyness, Math. Comp. 21, 1967, and Ying & Katz, Numer.
Math. 53, 1988).  A window exit or a zero sample halves the radius.  A
secant iterate or a winding node outside a window backtracks, whether it
left a flow depth's window (WindowExitError) or the model's declared window
about E_at(s), which the first decimation checks (WindowError).

The map is iterated with the fixed constants below.  The model fixes the
scale: rho is its mode-grid ratio, which makes the dilation an exact shell
shift, and mu is its infrared exponent, which enters only the construction's
contraction factor C_gamma rho^mu.  Whether each root's uniqueness is checked
by the winding of E^(n) is the flow's one option.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .feshbach import (
    AffinePair,
    Cutoffs,
    CutoffSpec,
    FeshbachPair,
    FeshbachPairReport,
    contraction_norm,
    feshbach_map,
    first_decimation,
    first_feshbach,
    q_ops,
    verify_pair,
)
from .fock import DilationMap, OperatorMatrix, dilation
from .kernels import BasisSpline, ExtractionResult, PolydiscCheck, extract_w00, polydisc_check
from .model import ModelSpec, WindowError
from .symmetry import is_symmetry_of, schur_scalar

C_CHI = 1.0              # cutoff constant, sets xi and C_gamma
C_GAMMA = 128.0 * C_CHI**2
N_ITER_MAX = 24          # deepest flow depth
TOL_Z = 1e-12            # secant target for |E^(n)(z_n)|
TOL_FIXED_POINT = 1e-9   # stop when |z_n - z_{n-1}| is below
TOL_Z_INF = 1e-16        # the last root's z error |E^(n)| rho^n / |sigma| is refined below this
WINDOW_FACTOR = 0.125    # window threshold = WINDOW_FACTOR * rho (the construction's 1/8)
SCHUR_TOL = 1e-9         # relative Schur deviation accepted as scalar
SECANT_MAX_ITER = 50     # evaluations of E^(n) per secant root
WINDING_NODES = 4        # nodes of the first winding round
WINDING_MAX_NODES = 64   # the winding check fails when no round up to this is accepted
WINDING_HALVINGS = 5     # radii the winding check tries, each half the last
SLOPE_PRIOR = -1.0       # rho^n dE^(n)/dz assumed by depth 0's first secant step


def flow_scale(spec: ModelSpec) -> float:
    """rho of the flow: the model's grid ratio, which must lie in (0, 4/5)."""
    rho = spec.grid.ratio
    if not 0.0 < rho < 0.8:
        raise ValueError(f"rho must lie in (0, 4/5), got {rho}")
    return rho


def window_threshold(spec: ModelSpec) -> float:
    """The bound |E^(n)(z)| must keep at every depth: WINDOW_FACTOR rho."""
    return WINDOW_FACTOR * flow_scale(spec)


def contraction_factor(spec: ModelSpec) -> float:
    """The construction's contraction factor C_gamma rho^mu; the flow is
    admissible in the paper's sense when it is below 1."""
    return C_GAMMA * spec.grid.ratio**spec.mu


class WindowExitError(ValueError):
    """z left the admissible window at some flow depth."""

    def __init__(self, level: int, value: complex, threshold: float):
        self.level = level
        self.value = value
        self.threshold = threshold
        super().__init__(
            f"|E^({level})(z)| = {abs(value):.3e} exceeds window threshold "
            f"{threshold:.3e}")


# what a z outside a window raises; the secant and the winding check back off
WINDOW_ERRORS = (WindowExitError, WindowError)


@dataclass(frozen=True)
class Depth:
    """z-independent data of one flow depth: the cutoffs chi_rho(H_f) and
    chibar_rho(H_f) with their Ran chibar and T-block index sets, the
    dilation to the next depth, whose target is the next depth's basis
    (``cut`` and ``dilation`` are None on the vacuum-only terminal space,
    where a step is division by rho), and the basis' ``BasisSpline``
    (``spline.basis`` is the basis), which every extraction at this depth
    reads.  It depends on the model, not on s."""

    cut: Cutoffs | None
    dilation: DilationMap | None
    spline: BasisSpline


class Flow:
    """Everything of the flow at one (model, s) that does not depend on z:
    the first decimation's operators and cutoffs, and one ``Depth`` per
    flow depth.  A ladder is then only the work that depends on z."""

    def __init__(self, spec: ModelSpec, s: complex, check_winding: bool,
                 g: float | None = None):
        self.spec = spec
        self.rho = flow_scale(spec)
        self.window_threshold = window_threshold(spec)
        self.check_winding = check_winding
        self.first = first_decimation(spec, s, g)

    def depth(self, n: int) -> Depth:
        """Data of depth n; every depth past the vacuum-only terminal space
        is that space.  The model's depths are built together on first use,
        from the reduced space down to the terminal one, one dilation's
        target after another, and kept in ``spec.built`` for every flow of
        the model."""
        depths = self.spec.memo(("depths",), self._build_depths)
        return depths[min(n, len(depths) - 1)]

    def _build_depths(self) -> list:
        rho, basis, depths = self.rho, self.spec.reduced_fock_basis(), []
        while basis.grid.levels:
            depths.append(Depth(Cutoffs(*CutoffSpec(rho).diagonals(basis), basis.d_at),
                                dilation(basis, rho), BasisSpline(basis)))
            basis = depths[-1].dilation.target
        return depths + [Depth(None, None, BasisSpline(basis))]


def rg_step(ext: ExtractionResult, depth: Depth, rho: float):
    """One renormalization step from h = ``ext.source`` at the given depth,
    with ``ext`` its level's extraction; returns (next operator, pair).

    The unperturbed part is w_{0,0}(H_f) of that extraction, so the pair is
    valid independently of extraction error.  The next operator is
    Gamma F Gamma* / rho, with Gamma F Gamma* the principal submatrix of the
    Feshbach map F on the dilation's ``rows``, the only block of F that is
    computed; the pair is (h, T) at z = 0, since h already holds z.  On the
    vacuum-only terminal space the step is division by rho, with pair None.
    The step is gated by the smallest singular value of T's d_at x d_at
    blocks on Ran chibar and by the LU solve of H_chibar; a pair that fails
    either raises FeshbachPairError with the full report.  A stack h steps
    each of its operators.
    """
    h = ext.source
    if depth.dilation is None:
        return OperatorMatrix(h.mat / rho, h.basis), None

    pair = FeshbachPair(AffinePair(h.mat, ext.hf_matrix(), depth.cut, depth.dilation.rows), 0.0)
    pair.require_margins()
    return OperatorMatrix(feshbach_map(pair) / rho,
                          depth.dilation.target), pair


@dataclass
class Ladder:
    """A ladder at z is its top level n: every level depends only on the one
    below it, and no reader reads a lower level again.  The level is the one
    extraction of w_{0,0} from its operator ``h``, read by the next step and
    the trace, and E^(n)(z) = tr w_{0,0}(0) / d read off its node 0, all
    stacked like z."""

    z: float | complex | np.ndarray   # the z of every level, as run_ladder was given it
    n: int
    ext: ExtractionResult
    e_value: float | complex | np.ndarray   # in the dtype of the ladder's operators
    pair: FeshbachPair | None = None   # of the step into level n, if it has one
    qs: list | None = None   # q_ops of the first decimation, then of each step with a pair

    @property
    def h(self) -> OperatorMatrix:
        return self.ext.source


def run_ladder(flow: Flow, z, n_levels: int, check_windows: bool = True,
               collect_q: bool = False, start: Ladder | None = None) -> Ladder:
    """First decimation followed by n_levels flow steps at fixed z: one
    value, or an array of K values evaluated as one stack; a float z runs
    in real arithmetic where the first decimation's pair is real.  Only the
    current level is kept; the ladder returned is level n_levels, with the
    pair of the step into it, which is None at level 0 and for a step from
    the vacuum-only terminal space.

    Windows gate the descent: going from depth k to k+1 requires
    |E^(k)(z)| <= threshold at every z of the stack; a violation at any
    one raises WindowExitError(k) with its value, for the whole stack.

    ``start`` is a ladder at the same z to climb from: only the steps above
    it are run, so a depth's secant starts from the ladder the previous
    depth converged on with one new step, and ``start`` itself is returned
    when it is at level n_levels.  The window of ``start`` is checked before
    the step from it; its lower levels were checked when it was built.
    Raises ValueError when ``start.z`` is not exactly z, in dtype and in
    value, when ``start`` is above level n_levels, or when it is combined
    with ``collect_q``.
    ``collect_q`` keeps ``q_ops`` of each pair, the first decimation's and
    each step's; the terminal step has no pair.
    """
    if start is None:
        h, pair = first_feshbach(flow.first, z)
        qs = [q_ops(pair)] if collect_q else None
        pair = None   # the steps do not read it; its AffinePair stays with flow.first
        lad = _make_level(flow, z, 0, h, None, qs)
    else:
        if collect_q:
            raise ValueError("a ladder grown from start collects no auxiliary operators")
        # no cast: a float z and the same complex z differ in their bytes
        here, there = np.asarray(z), np.asarray(start.z)
        if here.shape != there.shape or here.tobytes() != there.tobytes():
            raise ValueError(f"start ladder is at z = {start.z}, not at {z}")
        if start.n > n_levels:
            raise ValueError(f"start ladder has {start.n} levels, "
                             f"more than the {n_levels} asked for")
        qs = None
        lad = start

    while lad.n < n_levels:
        n, ext = lad.n, lad.ext
        if check_windows:
            for e in np.ravel(lad.e_value):
                if abs(e) > flow.window_threshold:
                    raise WindowExitError(n, complex(e), flow.window_threshold)
        # the ladder below and its pair hold that level's operator: free them first
        lad = pair = None
        h, pair = rg_step(ext, flow.depth(n), flow.rho)
        if collect_q and pair is not None:
            qs.append(q_ops(pair))
        lad = _make_level(flow, z, n + 1, h, pair, qs)
    return lad


def _make_level(flow: Flow, z, n: int, h: OperatorMatrix, pair: FeshbachPair | None,
                qs: list | None) -> Ladder:
    """The ladder at z whose top is level n with operator h, reached by
    ``pair``: one extraction with its depth's spline, and E^(n)(z) off its
    node 0."""
    ext = extract_w00(h, flow.depth(n).spline)
    c = np.trace(ext.node_values[0], axis1=-2, axis2=-1) / h.basis.d_at
    return Ladder(z, n, ext, c, pair, qs)


@dataclass
class RootResult:
    """A depth's root: the ladder at it (``ladder.z`` is the root, and
    ``ladder.e_value`` its E^(n)), the winding of E^(n) about it, when
    checked, and rho^n dE^(n)/dz measured as the chord from z_start to the
    root; the slope find_zn was given when that chord is undefined, zero or
    not finite."""

    ladder: Ladder
    winding: int | None
    slope: float | complex


def find_zn(flow: Flow, n: int, z_start: float | complex, start: Ladder | None = None,
            slope: float | complex = SLOPE_PRIOR) -> RootResult:
    """Secant root of E^(n) from z_start, with a first step from the scaled
    slope ``slope`` = rho^n dE^(n)/dz (z_1 = z_start - E^(n)(z_start)
    rho^n / slope; the prior -1 at depth 0, the slope depth n-1 measured
    after it) and window-violation backtracking (an iterate that raises one
    of WINDOW_ERRORS is halved back toward the last good one); uniqueness is
    cross-checked by the image winding of E^(n) on a small circle.

    ``start``, a ladder at z_start (the one depth n-1 converged on), makes
    the first evaluation one step above it; every other evaluation, the
    winding check's included, runs a fresh ladder.  The result's ``slope``
    is the chord rho^n (E(z_root) - E(z_start)) / (z_root - z_start), not
    the last secant slope, whose two values of E differ by rounding only.
    E^(n) is taken in the ladder's dtype, so from a float z_start the
    iterates, the chord and the root stay float.

    At n >= 1 a root within TOL_FIXED_POINT of z_start, where the flow
    stops when the margins hold, is refined by one step z - E rho^n / slope
    when its z error |E| rho^n / |slope| is TOL_Z_INF or more; the step is
    kept when it lowers |E| and stays in the windows, and does not change
    ``slope``."""

    last = None   # ladder of the latest successful evaluation

    def e_val(z, start=None):
        nonlocal last
        last = run_ladder(flow, z, n, start=start)
        return last.e_value

    z0 = z_start
    e0 = e_val(z0, start)
    z_cur, e_cur = z0, e0   # the root, once the secant below has run
    iters = 1
    if abs(e0) >= TOL_Z:
        z_prev, e_prev = z0, e0
        z_cur = z0 + e0 * (flow.rho**n / -slope)   # the prior -1 gives z0 + e0 rho^n exactly
        while True:
            try:
                e_cur = e_val(z_cur)
            except WINDOW_ERRORS:
                z_cur = 0.5 * (z_cur + z_prev)   # backtrack toward last good
                iters += 1
                if iters > SECANT_MAX_ITER:
                    raise ArithmeticError(
                        f"secant failed to stay inside the window at depth {n}")
                continue
            iters += 1
            if abs(e_cur) < TOL_Z:
                break
            if iters > SECANT_MAX_ITER:
                raise ArithmeticError(
                    f"secant did not converge in {SECANT_MAX_ITER} "
                    f"evaluations at depth {n} (|E| = {abs(e_cur):.3e})")
            denom = e_cur - e_prev
            if denom == 0:
                raise ArithmeticError(f"secant stalled at depth {n}")
            z_next = z_cur - e_cur * (z_cur - z_prev) / denom
            z_prev, e_prev = z_cur, e_cur
            z_cur = z_next
        # z_cur != z0, since |E(z_cur)| < TOL_Z <= |E(z0)|
        chord = flow.rho**n * (e_cur - e0) / (z_cur - z0)
        if chord != 0 and np.isfinite(chord):
            slope = chord

    if (n >= 1 and abs(z_cur - z0) < TOL_FIXED_POINT
            and abs(e_cur) * flow.rho**n >= TOL_Z_INF * abs(slope)):
        root_ladder = last
        z_step = z_cur - e_cur * (flow.rho**n / slope)
        try:
            e_step = e_val(z_step)
        except WINDOW_ERRORS:
            e_step = None
        if e_step is not None and abs(e_step) < abs(e_cur):
            z_cur, e_cur = z_step, e_step
        else:
            last = root_ladder

    winding = None
    if flow.check_winding:
        winding = _winding_count(flow, n, z_cur)
        if winding != 1:
            raise ArithmeticError(
                f"argument-principle count at depth {n} gave winding "
                f"{winding}, expected a unique simple zero")
    return RootResult(last, winding, slope)


def circle_winding(sample, where: str) -> int | None:
    """Winding number around 0 of a function on a circle, from its values at
    K equally spaced nodes, counterclockwise from angle 0.

    ``sample(t)`` returns the values at the angles 2 pi t, for an array t of
    fractions of a turn, in one call.  The first round samples
    WINDING_NODES nodes.  A round is accepted when every phase step
    arg(E_{k+1}/E_k) lies within pi/4 of 2 pi/K; the steps then sum to
    2 pi times the winding.  Otherwise the node count doubles and only the
    K new nodes, halfway between the old ones, are sampled.  Returns None
    when a sample is exactly 0.  Raises ArithmeticError, naming ``where``
    and the node count, when no round up to WINDING_MAX_NODES is accepted.
    """
    vals = sample(np.arange(WINDING_NODES) / WINDING_NODES)
    while True:
        k = vals.size
        if np.any(vals == 0):
            return None
        steps = np.angle(np.roll(vals, -1) / vals)
        if np.all(np.abs(steps - 2 * np.pi / k) < np.pi / 4):
            return int(round(float(np.sum(steps)) / (2 * np.pi)))
        if k >= WINDING_MAX_NODES:
            raise ArithmeticError(f"winding check {where} did not settle at {k} nodes")
        new = sample((np.arange(k) + 0.5) / k)
        vals = np.column_stack([vals, new]).ravel()   # the nodes in turn order


def _winding_count(flow: Flow, n: int, z_center: complex) -> int:
    """Winding of E^(n) around 0 along a small circle inside the window, by
    ``circle_winding``: start at 4 nodes, accept a round only when every
    phase step lies within pi/4 of 2 pi/K, else double the nodes up to 64
    and evaluate only the new ones.  Each round of nodes is one stacked
    ladder.  A window exit (one of WINDOW_ERRORS) or a zero sample halves
    the radius and starts again from WINDING_NODES nodes.  Every
    ArithmeticError raised here names the depth, the node count of the last
    round and its radius."""
    for radius in flow.rho ** (n + 1) / 16.0 * 0.5 ** np.arange(WINDING_HALVINGS):
        sampled = []   # node counts sent at this radius

        def sample(t):
            sampled.append(t.size)
            return run_ladder(flow, z_center + radius * np.exp(2j * np.pi * t), n).e_value

        try:
            winding = circle_winding(sample, f"at depth {n} on radius {radius:.3e}")
        except WINDOW_ERRORS:
            winding = None
        if winding is not None:
            return winding
    raise ArithmeticError(
        f"winding check at depth {n} could not stay inside the window: last round "
        f"{sum(sampled)} nodes on radius {radius:.3e}")


def fitted_rate(depths) -> float:
    """Geometric rate of |z_n - z_{n-1}| over n in [2, 6] from the depths'
    records, read off the steps of at least TOL_FIXED_POINT: the step the
    flow stops on is below it and may be only the rounding of the roots' z."""
    pts = [(r.n, r.dz) for r in depths if 2 <= r.n <= 6 and r.dz >= TOL_FIXED_POINT]
    if len(pts) < 2:
        return 0.0
    ns = np.array([p[0] for p in pts], dtype=float)
    ys = np.log(np.array([p[1] for p in pts]))
    slope = np.polyfit(ns, ys, 1)[0]
    return float(np.exp(slope))


@dataclass
class DepthResult:
    """What ``iterate_to_fixed_point`` keeps of depth n: its root (z, |E|,
    winding), the step dz from the previous root (0 at depth 0), ``pair``,
    the pair into the root ladder's top as ``verify_pair`` reads it (None
    at depth 0 and past the terminal space), the top's extraction ``ext``
    and the model's d x d generators.  Its diagnostics are computed when
    first read, and kept: the pair's report, whose margins the convergence
    test reads where the root moved less than TOL_FIXED_POINT; from
    ``ext``, the Schur deviation of the vacuum block, which is ``ext``'s
    node 0, and the symmetry residual of each generator (x) 1; and the
    polydisc radii, which only a trace line prints, with the pair's
    ``t_margin`` and left ``contraction_norm``."""

    n: int
    z: complex
    dz: float
    e_abs: float
    winding: int | None
    pair: FeshbachPair | None
    ext: ExtractionResult
    generators: list

    @cached_property
    def pair_report(self) -> FeshbachPairReport | None:
        return None if self.pair is None else verify_pair(self.pair)

    @cached_property
    def schur_deviation(self) -> float:
        return schur_scalar(self.ext.node_values[0])[1]

    @cached_property
    def symmetry_residual(self) -> float:
        return max([0.0] + [is_symmetry_of(gen, self.ext.source.mat)[1]
                             for gen in self.generators])

    @cached_property
    def polydisc(self) -> PolydiscCheck:
        return polydisc_check(self.ext)

    def line(self, prev_gamma: float = 0.0) -> str:
        """The trace.txt line of this depth; gamma_ratio is gamma_hat over
        ``prev_gamma``, the depth before's, and 0 when that is not positive."""
        w = "-" if self.winding is None else str(self.winding)
        pair, radii = self.pair, self.polydisc
        t_margin, contraction = ((np.inf, 0.0) if pair is None
                                 else (pair.t_margin, contraction_norm(pair, True)))
        gamma_ratio = radii.gamma_hat / prev_gamma if prev_gamma > 0 else 0.0
        return (f"n={self.n} z_re={self.z.real:.16e} z_im={self.z.imag:.16e} "
                f"dz={self.dz:.3e} e_abs={self.e_abs:.3e} "
                f"beta_hat={radii.beta_hat:.6e} gamma_hat={radii.gamma_hat:.6e} "
                f"schur_dev={self.schur_deviation:.3e} "
                f"sym_res={self.symmetry_residual:.3e} "
                f"t_margin={t_margin:.6e} contraction={contraction:.6e} "
                f"gamma_ratio={gamma_ratio:.6e} winding={w}")


@dataclass
class PipelineResult:
    """The flow's fixed point z_inf, the flow (its z-independent data, for
    the eigenvectors, ``kernel.txt`` and the oracle) and one ``DepthResult``
    per depth; no ladder is kept."""

    z_inf: complex
    converged: bool
    flow: Flow
    depths: list

    @property
    def n_levels(self) -> int:
        """The deepest depth the flow reached."""
        return len(self.depths) - 1

    def trace_lines(self) -> list:
        """The lines of trace.txt: the window threshold and the theoretical
        contraction, then one line per depth, each with gamma_hat's ratio to
        the depth before."""
        factor = contraction_factor(self.flow.spec)
        word = ("admissible" if factor < 1.0
                else "inadmissible; running on measured contraction")
        lines = [f"# window_threshold={self.flow.window_threshold:.6e}",
                 f"# theoretical contraction C_gamma rho^mu = {factor:.4g} ({word})"]
        prev_gamma = 0.0
        for depth in self.depths:
            lines.append(depth.line(prev_gamma))
            prev_gamma = depth.polydisc.gamma_hat
        return lines


def iterate_to_fixed_point(spec: ModelSpec, s: complex, check_winding: bool,
                           g: float | None = None) -> PipelineResult:
    """Cascade the per-depth roots z_n until |z_n - z_{n-1}| < tolerance
    with healthy pair margins; z_inf is the last root.  Per depth it keeps a
    ``DepthResult``, whose diagnostics are left to their first read.  The
    secant starts from the first decimation's ``z_start``, E_at(s) as a
    float when it is real and the first decimation's pair is real, so that
    a real model at a real s flows in real arithmetic; z_inf and every
    depth's z are reported as complex."""
    flow = Flow(spec, s, check_winding, g)
    gens = spec.reduced_generators()
    z = flow.first.z_start
    depths = []
    converged = False
    root = None
    slope = SLOPE_PRIOR
    for n in range(N_ITER_MAX + 1):
        # depth n's secant starts from the ladder depth n-1 converged on, at
        # z, with the scaled slope depth n-1 measured
        root = find_zn(flow, n, z_start=z, start=None if root is None else root.ladder,
                       slope=slope)
        lad, slope = root.ladder, root.slope
        dz = abs(lad.z - z) if n > 0 else 0.0
        depth = DepthResult(n, complex(lad.z), dz, abs(complex(lad.e_value)), root.winding,
                            None if lad.pair is None else lad.pair.reportable(), lad.ext, gens)
        depths.append(depth)
        z = lad.z
        # the report is taken only where the flow would stop on its margins
        if n >= 1 and dz < TOL_FIXED_POINT and (depth.pair is None or depth.pair_report.passed):
            converged = True
            break
    return PipelineResult(complex(z), converged, flow, depths)


@dataclass
class EigenvectorResult:
    vectors: list                 # eigenvectors of the truncated H_g(s)
    residuals: list
    gram_smallest_sv: float
    gram_largest_sv: float
    depth: int

    @property
    def independent(self) -> bool:
        return self.gram_smallest_sv > 1e-3 * self.gram_largest_sv


def build_eigenvectors(flow: Flow, z_inf: complex) -> EigenvectorResult:
    """Assemble d eigenvectors of the flow's truncated H_g(s) as
    (u (x) 1) Q_0 E* Q_1 Gamma* ... Q_n Gamma* (v (x) Omega), one per
    coordinate vector v of C^d, with Omega the terminal space's vacuum and
    E* the embedding of the reduced space: each Q_k Gamma* is one ``q_ops``
    block of the ladder at z_inf, which on a truncated grid ends there."""
    depth = flow.spec.grid.levels + 1
    lad = run_ladder(flow, z_inf, depth, check_windows=False, collect_q=True)
    first = flow.first
    vacuum = lad.h.basis.vacuum_vector()

    h_full = first.hamiltonian.mat
    vectors = []
    residuals = []
    for v in np.eye(flow.spec.d):
        psi = np.kron(v, vacuum)
        for q in reversed(lad.qs):
            psi = q @ psi
        psi = (first.u @ psi.reshape(first.u.shape[0], -1)).ravel()   # (u (x) 1)
        nrm = np.linalg.norm(psi)
        residuals.append(float(np.linalg.norm(h_full @ psi - z_inf * psi)
                               / max(nrm, 1e-300)))
        vectors.append(psi)
    gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
    sv = np.linalg.svd(gram, compute_uv=False)
    return EigenvectorResult(vectors, residuals, float(sv[-1]), float(sv[0]), depth)


@dataclass
class ProjectionResult:
    idempotency: float
    rank: int
    eigen_residual: float


def build_eigenprojection(psis, duals, h_full: np.ndarray, z: complex) -> ProjectionResult:
    """Rank-d spectral projection P = Psi M^-1 D* = sum_ab (M^-1)_ab
    |psi_a><dual_b| from eigenvectors psis and their duals, with M_ab =
    <dual_a, psi_b>: the eigenvectors at the conjugate parameter for the
    reflection pairing, J psi_a for the conjugation pairing with the
    antiunitary J.

    P is never formed.  Each Frobenius norm ||Psi X D*||_F is read from the
    d x d Gram matrices Psi* Psi and D* D, with P^2 - P = Psi M^-1 (D* Psi -
    M) M^-1 D* and HP - zP = (H Psi - z Psi) M^-1 D*; the rank is tr P =
    tr M^-1 D* Psi, rounded.  D* Psi is the product of the two column
    matrices, not M, so the idempotency measures how far M's entries are
    from it."""
    k = len(psis)
    m = np.array([[np.vdot(duals[a], psis[b]) for b in range(k)]
                  for a in range(k)])
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise np.linalg.LinAlgError(
            "degenerate pairing matrix; the bilinear form is singular on the "
            "eigenspace")
    minv = np.linalg.inv(m)
    psi = np.column_stack(psis)
    dual = np.column_stack(duals)
    dual_psi = dual.conj().T @ psi
    gram_dual = dual.conj().T @ dual
    gram_psi = psi.conj().T @ psi
    resid_cols = h_full @ psi - z * psi

    def frobenius(gram, x):
        """||A X D*||_F from gram = A* A."""
        return float(np.sqrt(max(0.0, np.trace(x.conj().T @ gram @ x @ gram_dual).real)))

    p_norm = max(1.0, frobenius(gram_psi, minv))
    idem = frobenius(gram_psi, minv @ (dual_psi - m) @ minv) / p_norm
    rank = int(round(float(np.trace(minv @ dual_psi).real)))
    resid = frobenius(resid_cols.conj().T @ resid_cols, minv) / p_norm
    return ProjectionResult(idem, rank, resid)
