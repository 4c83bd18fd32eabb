import dataclasses

import numpy as np
import pytest

from specrg import fock
from specrg.config import load_model
from specrg.feshbach import (
    NEUMANN_MAX_TERMS,
    NEUMANN_TOL,
    RANK_THRESHOLD,
    AffinePair,
    Cutoffs,
    CutoffSpec,
    FeshbachPair,
    FeshbachPairError,
    SpectralForm,
    feshbach_map,
    first_decimation,
    first_feshbach,
    neumann_check,
    pair_map,
    q_ops,
    verify_pair,
)
from specrg.model import build_h0
from specrg.rg import Flow, run_ladder


def random_feshbach_pair(rng):
    """(H, T, chi, chibar) with 6 to 19 rows, in the frame where T and the
    cutoffs are diagonal: H = T + W with W a random unitary conjugate of a
    draw with ||W|| = 0.1; chi and chibar are given by their diagonals."""
    n = int(rng.integers(6, 20))
    frame, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
    hfvals = np.sort(rng.uniform(0, 2, n))
    cut = CutoffSpec(1.0)
    tvals = hfvals + 0.3 + 0.1j * rng.standard_normal(n)
    t = np.diag(tvals.astype(complex))
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w *= 0.1 / np.linalg.norm(w, 2)
    return t + frame.conj().T @ w @ frame, t, cut.chi(hfvals), cut.chibar(hfvals)


def pair_of(h, t, c, cb, d_at=1, keep=None):
    """The pair (H, T) at z = 0 with the cutoff diagonals c and cb, mapped on
    ``keep``, every coordinate by default."""
    keep = np.arange(h.shape[-1]) if keep is None else keep
    return FeshbachPair(AffinePair(h, t, Cutoffs(c, cb, d_at), keep), 0.0)


def kernel_dim(mat) -> int:
    sv = np.linalg.svd(np.asarray(mat), compute_uv=False)
    scale = sv[0] if sv.size and sv[0] > 0 else 1.0
    return int(np.sum(sv <= RANK_THRESHOLD * scale))


@dataclasses.dataclass
class IsospectralityReport:
    inverse_identity_h: float
    inverse_identity_f: float
    kernel_dim_h: int
    kernel_dim_f: int

    @property
    def kernel_dims_match(self) -> bool:
        return self.kernel_dim_h == self.kernel_dim_f


def isospectrality_suite(h, t, chi, chibar) -> IsospectralityReport:
    """Exercise the two inverse identities and the kernel-dimension equality
    of the pair (H, T); chi and chibar are the diagonals of the cutoffs.

    Identities, in the full-matrix embedding (F (+) T on the chi-null
    coordinates):  H^-1 = Q F^-1 Q# + chibar H_chibar^-1 chibar   and
    F^-1 = chi H^-1 chi + chibar T^-1 chibar.
    """
    h = np.asarray(h, dtype=complex)
    p = pair_of(h, t, chi, chibar, d_at=h.shape[-1])   # T as one block
    cut = p.fixed.cut

    def chibar_sandwich(inv):   # chibar (.|_Ran chibar)^-1 chibar, full size
        out = np.zeros_like(h)
        out[np.ix_(cut.on, cut.on)] = cut.cb[:, None] * inv * cut.cb
        return out

    f = feshbach_map(p)
    q = q_ops(p)   # every column is kept
    h_bar_inv = np.linalg.inv(p.m_h)
    # the sharp partner Q# = chi - chi W chibar H_chibar^-1 chibar
    left = cut.chi[:, None] * (h - t)[:, cut.on] * cut.cb
    q_sharp = np.diag(cut.chi).astype(complex)
    q_sharp[:, cut.on] -= (left @ h_bar_inv) * cut.cb
    kd_h = kernel_dim(h)
    kd_f = kernel_dim(f)
    res_h = res_f = np.nan
    if kd_h == 0 and kd_f == 0:
        hinv = np.linalg.inv(h)
        finv = np.linalg.inv(f)
        rhs = q @ finv @ q_sharp + chibar_sandwich(h_bar_inv)
        res_h = float(np.linalg.norm(hinv - rhs) / np.linalg.norm(hinv))
        rhs2 = cut.chi[:, None] * hinv * cut.chi + chibar_sandwich(p.inverse_t)
        res_f = float(np.linalg.norm(finv - rhs2) / np.linalg.norm(finv))
    return IsospectralityReport(res_h, res_f, kd_h, kd_f)


RNG = np.random.default_rng(0)
PAIRS = [random_feshbach_pair(RNG) for _ in range(20)]


class TestIsospectrality:
    @pytest.mark.parametrize("k", range(len(PAIRS)))
    def test_inverse_identities_at_shift_zero(self, k):
        rep = isospectrality_suite(*PAIRS[k])
        assert rep.inverse_identity_h <= 1e-9
        assert rep.inverse_identity_f <= 1e-9
        assert rep.kernel_dim_h == rep.kernel_dim_f == 0

    @pytest.mark.parametrize("k", range(len(PAIRS)))
    def test_kernel_dims_at_an_eigenvalue(self, k):
        h, t, chi, cbar = PAIRS[k]
        ev = np.linalg.eigvals(h)
        z = ev[np.argmin(np.abs(ev - 0.3))]
        shift = z * np.eye(h.shape[0])
        rep = isospectrality_suite(h - shift, t - shift, chi, cbar)
        assert rep.kernel_dim_h == rep.kernel_dim_f == 1
        assert rep.kernel_dims_match


def diagonal_pair(n=12, seed=3):
    """Pair with diagonal cutoffs: chibar vanishes exactly on the first
    coordinates, chi on the last, and both are nonzero on the ramp."""
    rng = np.random.default_rng(seed)
    hf = np.linspace(0.0, 2.0, n)
    cut = CutoffSpec(1.0)
    t = np.diag(hf + 0.3 + 0.1j * rng.standard_normal(n))
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w *= 0.1 / np.linalg.norm(w, 2)
    return t + w, t, cut.chi(hf), cut.chibar(hf)


class TestFeshbachPair:
    def test_map_is_the_schur_complement_on_ran_chibar(self):
        h, t, c, cb = diagonal_pair()
        on = cb > 0
        assert 0 < on.sum() < on.size and np.any((c > 0) & on)
        f = feshbach_map(pair_of(h, t, c, cb))
        w = h - t
        h_bar = t + cb[:, None] * w * cb[None, :]
        left = (c[:, None] * w * cb[None, :])[:, on]
        right = (cb[:, None] * w * c[None, :])[on, :]
        want = (t + c[:, None] * w * c[None, :]
                - left @ np.linalg.solve(h_bar[np.ix_(on, on)], right))
        assert np.max(np.abs(f - want)) <= 1e-12

    def test_minus_z_subtracts_on_the_diagonal_without_writing_its_block(self):
        h, t, c, cb = diagonal_pair()
        fixed = pair_of(h, t, c, cb).fixed
        m, stack = fixed.base, np.stack([fixed.base, 2 * fixed.base])
        before = m.copy()
        assert FeshbachPair(fixed, 0.0).minus_z(m) is m   # every flow step's pair
        assert FeshbachPair(fixed, np.zeros(3)).minus_z(m) is m
        eye = np.eye(m.shape[-1])
        for z, block in ((0.3 - 0.2j, m), (np.array([0.3, -0.1j]), m),
                         (np.array([0.3, -0.1j]), stack), (0.3 - 0.2j, stack)):
            got = FeshbachPair(fixed, z).minus_z(block)
            want = block - np.asarray(z)[..., None, None] * eye
            assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(m, before)

    def test_a_singular_t_raises_with_the_pair_report(self):
        h, t, c, cb = diagonal_pair()
        t = t.copy()
        t[-1, -1] = 0.0   # chibar is nonzero on the last coordinate
        pair = pair_of(h, t, c, cb)
        with pytest.raises(FeshbachPairError) as exc:
            pair.require_margins()
        assert exc.value.report == verify_pair(pair)
        assert exc.value.report.t_margin == 0.0

    def test_one_factorization_per_pair(self, monkeypatch):
        h, t, c, cb = diagonal_pair()
        pair = pair_of(h, t, c, cb)
        full, solves, h_inverses = [], [], []
        svd, solve, inv = np.linalg.svd, np.linalg.solve, np.linalg.inv

        def counting_svd(a, *args, **kwargs):
            if kwargs.get("compute_uv", True):
                full.append(a.shape)
            return svd(a, *args, **kwargs)

        def counting_solve(a, b):
            solves.append(a.shape)
            return solve(a, b)

        def counting_inv(a):
            if np.array_equal(a, pair.m_h):
                h_inverses.append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        verify_pair(pair)
        feshbach_map(pair)
        q_ops(pair)
        neumann_check(pair)
        assert full == []
        assert solves == [pair.m_h.shape] and h_inverses == []


def dense_map(h, t, chi, chibar):
    """The full Feshbach map by its formula, with a dense inverse of
    H_chibar on Ran chibar; h and t may carry a leading stack axis."""
    w = h - t
    on = chibar > RANK_THRESHOLD * chibar.max()
    h_bar = (t + chibar[:, None] * w * chibar)[(..., *np.ix_(on, on))]
    left = (chi[:, None] * w * chibar)[..., :, on]
    right = (chibar[:, None] * w * chi)[..., on, :]
    return t + chi[:, None] * w * chi - left @ np.linalg.inv(h_bar) @ right


def random_keep(rng, n):
    return np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))


def first_h_t(first, z):
    """H_g(s) - z and H_0(s) - z in the first decimation's frame, conjugated
    by the dense u (x) 1."""
    spec, basis = first.spec, first.basis
    frame = np.kron(first.u, np.eye(basis.size))
    inv = np.linalg.inv(frame)
    shift = np.asarray(z)[..., None, None] * np.eye(basis.dim)
    return (inv @ first.hamiltonian.mat @ frame - shift,
            inv @ build_h0(spec, first.s, basis) @ frame - shift)


def cut_spec(name):
    """Shipped fixture with its mode grid cut to 3 shells."""
    spec = load_model(name)
    return dataclasses.replace(spec, grid=fock.ModeGrid(spec.grid.ratio, 3,
                                                        spec.grid.channel_weight))


def fixture_cases():
    """(label, pair, H, T, chi, chibar, keep, d_at) of every pair a ladder at
    E_at(s0) builds on m_triv, m_kramers and m_pauli cut to 3 grid levels:
    the first decimation and one pair per depth above the vacuum-only
    space."""
    cases = []
    for name in ("m_triv", "m_kramers", "m_pauli"):
        spec = cut_spec(name)
        flow = Flow(spec, spec.s0, False)
        z = spec.e_at(spec.s0)
        first, cut = flow.first, flow.first.cut
        cases.append((f"{name}-first", first.pair(z), *first_h_t(first, z), cut.chi,
                      cut.chibar, first.reduced_index, spec.d_at))
        for n in range(spec.grid.levels + 2):
            level = run_ladder(flow, z, n, check_windows=False)
            depth = flow.depth(level.n)
            if depth.dilation is None:
                continue
            h, t = level.h.mat, level.ext.hf_matrix()
            keep = depth.dilation.rows
            cases.append((f"{name}-depth{level.n}",
                          FeshbachPair(AffinePair(h, t, depth.cut, keep), 0.0), h, t,
                          depth.cut.chi, depth.cut.chibar, keep, level.h.basis.d_at))
    return cases


FIXTURE_CASES = fixture_cases()
CASE_IDS = [case[0] for case in FIXTURE_CASES]


class TestKeptBlock:
    @pytest.mark.parametrize("k", range(len(PAIRS)))
    def test_the_map_on_a_kept_set_is_a_principal_submatrix(self, k):
        h, t, c, cb = PAIRS[k]
        keep = random_keep(np.random.default_rng(k), h.shape[0])
        full = dense_map(h, t, c, cb)
        f = feshbach_map(pair_of(h, t, c, cb, keep=keep))
        assert np.abs(f - full[np.ix_(keep, keep)]).max() <= 1e-13 * np.abs(full).max()

    @pytest.mark.parametrize("case", FIXTURE_CASES, ids=CASE_IDS)
    def test_every_ladder_pair_maps_its_kept_block(self, case):
        _, pair, h, t, c, cb, keep, _ = case
        full = dense_map(h, t, c, cb)
        f = feshbach_map(pair)
        assert np.abs(f - full[(..., *np.ix_(keep, keep))]).max() <= 1e-13 * np.abs(full).max()

    @pytest.mark.parametrize("name", ["m_triv", "m_kramers", "m_pauli"])
    @pytest.mark.parametrize("stack", [False, True])
    def test_a_first_decimation_pair_is_the_shifted_dense_pair(self, name, stack):
        spec = cut_spec(name)
        first = Flow(spec, spec.s0, False).first
        z = spec.e_at(spec.s0)
        if stack:
            z = z + 1e-3 * np.exp(0.5j * np.pi * np.arange(4))
        h, t = first_h_t(first, z)
        pair = first.pair(z)
        dense = FeshbachPair(AffinePair(h, t, first.cut, first.reduced_index), 0.0)
        tol = 1e-14 * max(1.0, np.linalg.norm(first.hamiltonian.mat, 2))
        got_fixed, want_fixed = pair.fixed, dense.fixed
        for got, want in ((pair.m_t, dense.m_t), (pair.m_h, dense.m_h),
                          (got_fixed.w_bar, want_fixed.w_bar),
                          (pair.minus_z(got_fixed.base), want_fixed.base),
                          (got_fixed.left, want_fixed.left), (got_fixed.right, want_fixed.right)):
            assert np.broadcast_shapes(got.shape, want.shape) == want.shape
            assert np.abs(got - want).max() <= tol


def dense_q(h, t, chi, chibar):
    """The full auxiliary operator Q = chi - chibar (H_chibar|)^-1 chibar W chi
    by its formula, with a dense inverse of H_chibar on Ran chibar."""
    w = h - t
    on = chibar > RANK_THRESHOLD * chibar.max()
    h_bar = (t + chibar[:, None] * w * chibar)[np.ix_(on, on)]
    q = np.diag(chi).astype(complex)
    q[on, :] -= chibar[on, None] * (np.linalg.inv(h_bar) @ (chibar[:, None] * w * chi)[on, :])
    return q


class TestAuxiliaryOperator:
    @pytest.mark.parametrize("k", range(len(PAIRS)))
    def test_q_ops_is_the_dense_q_on_the_kept_columns_of_random_pairs(self, k):
        h, t, c, cb = PAIRS[k]
        keep = random_keep(np.random.default_rng(k), h.shape[0])
        q = q_ops(pair_of(h, t, c, cb, keep=keep))
        tol = 1e-14 * max(1.0, np.linalg.norm(h, 2))
        assert np.abs(q - dense_q(h, t, c, cb)[:, keep]).max() <= tol

    @pytest.mark.parametrize("case", FIXTURE_CASES, ids=CASE_IDS)
    def test_q_ops_is_the_dense_q_on_the_kept_columns_of_ladder_pairs(self, case):
        _, pair, h, t, c, cb, keep, _ = case
        tol = 1e-14 * max(1.0, np.linalg.norm(h, 2))
        assert np.abs(q_ops(pair) - dense_q(h, t, c, cb)[:, keep]).max() <= tol


class TestGate:
    @pytest.mark.parametrize("k", range(len(PAIRS)))
    def test_the_block_t_margin_is_the_full_svd_margin_on_random_pairs(self, k):
        h, t, c, cb = PAIRS[k]
        pair = pair_of(h, t, c, cb)
        full = np.linalg.svd(pair.m_t, compute_uv=False)[..., -1].min()
        assert abs(pair.t_margin - full) <= 1e-13 * full

    @pytest.mark.parametrize("case", FIXTURE_CASES, ids=CASE_IDS)
    def test_the_block_t_margin_is_the_full_svd_margin_on_ladder_pairs(self, case):
        pair = case[1]
        full = np.linalg.svd(pair.m_t, compute_uv=False)[..., -1].min()
        assert abs(pair.t_margin - full) <= 1e-13 * full
        assert verify_pair(pair).t_margin == pair.t_margin

    def test_the_cases_cover_blocks_and_mixed_on_patterns(self):
        d_ats = {label: d_at for label, *_, d_at in FIXTURE_CASES}
        assert d_ats["m_kramers-depth0"] == 2 and d_ats["m_pauli-first"] == 3
        pauli_first = next(case[1] for case in FIXTURE_CASES if case[0] == "m_pauli-first")
        shapes = sorted(block[-1].shape[-1] for block in pauli_first.fixed.cut.t_blocks)
        assert shapes == [1, 3]   # Fock states below the ramp keep only the excited atom

    @pytest.mark.parametrize("name", ["m_triv", "m_kramers", "m_pauli"])
    def test_a_step_gate_takes_no_svd_larger_than_an_atomic_block(self, monkeypatch, name):
        spec = cut_spec(name)
        flow = Flow(spec, spec.s0, False)
        shapes = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a)[-2:])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(np.linalg._linalg, "svd", recording_svd)
        lad = run_ladder(flow, spec.e_at(spec.s0), spec.grid.levels + 1, check_windows=False)
        assert lad.n == spec.grid.levels + 1
        assert all(max(shape) <= spec.d_at for shape in shapes)
        if spec.d_at == 1:
            assert shapes == []   # 1 x 1 blocks: the margin is a modulus


def singular_h_pair():
    """Pair whose H_chibar block on Ran chibar is the exactly singular
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]] (its SVD reads about 4e-16), with a
    diagonal, invertible T."""
    rng = np.random.default_rng(5)
    chi = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    chibar = np.sqrt(1.0 - chi**2)
    t = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(complex)
    w = 0.1 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    w[2:, 2:] = np.arange(1.0, 10.0).reshape(3, 3) - t[2:, 2:]
    return t + w, t, chi, chibar


class TestSingularBlocks:
    def test_a_singular_t_block_raises_with_the_pair_report(self):
        h, t, c, cb = diagonal_pair()
        c, cb = np.repeat(c, 2), np.repeat(cb, 2)   # atomic-major: atom a, Fock state i at a*n + i
        n = c.size // 2
        t = np.kron(np.diag([1.0, 1.5]), t)
        t[[n - 1, 2 * n - 1], n - 1] = [1.0, 2.0]   # last Fock state's block [[1, 0], [2, 0]]
        t[[n - 1, 2 * n - 1], 2 * n - 1] = 0.0
        h = t + 0.01 * np.kron(np.ones((2, 2)), h - np.diag(np.diag(h)))
        pair = pair_of(h, t, c, cb, 2)
        assert pair.t_margin == 0.0
        with pytest.raises(FeshbachPairError) as exc:
            pair.require_margins()
        assert exc.value.report == verify_pair(pair)
        assert exc.value.report.t_margin == 0.0

    def test_a_singular_h_chibar_block_raises_with_the_pair_report(self):
        h, t, c, cb = singular_h_pair()
        pair = pair_of(h, t, c, cb)
        pair.require_margins()   # T is invertible on Ran chibar
        assert verify_pair(pair).h_margin > 0.0   # the SVD misses the singularity
        for use in (lambda: feshbach_map(pair), lambda: q_ops(pair)):
            with pytest.raises(FeshbachPairError) as exc:
                use()
            assert exc.value.report == verify_pair(pair)

    def test_a_singular_t_reports_infinite_contractions(self):
        h, t, c, cb = singular_h_pair()
        t = h.copy()   # T|_Ran chibar is now the singular block, H_chibar too
        pair = pair_of(h, t, c, cb, 5)
        report = verify_pair(pair)
        assert report.t_margin > 0.0   # the SVD misses the singularity
        assert report.contraction_left == report.contraction_right == np.inf
        assert not report.passed
        with pytest.raises(FeshbachPairError):
            pair.inverse_t

    def test_a_pair_error_keeps_no_solve_and_no_block_on_keep(self):
        h, t, c, cb = singular_h_pair()
        singular_t = pair_of(h, h.copy(), c, cb, 5)
        for raises, pair in ((lambda p: p.require_margins(), spoiled_pair("t-zero-row")),
                             (feshbach_map, pair_of(h, t, c, cb)),
                             (lambda p: p.inverse_t, singular_t)):
            with pytest.raises(FeshbachPairError) as exc:
                raises(pair)
            assert exc.value.report == verify_pair(pair)
            kept = vars(exc.value.report.pair)
            assert "solved" not in kept
            assert not {"t", "base", "left", "right"} & set(vars(kept["fixed"]))


def spoiled_pair(spoil):
    """``diagonal_pair`` with one coordinate i of Ran chibar, where chibar =
    1, spoiled: a zero row of T, or a zero row or column of H_chibar, or a
    NaN on the diagonal of either."""
    h, t, c, cb = diagonal_pair(seed=7)
    on = np.flatnonzero(cb > 0)
    i = on[-2]
    assert cb[i] == 1.0
    if spoil == "t-zero-row":
        h[i, i] -= t[i, i]
        t[i, i] = 0.0
    elif spoil == "t-nan":
        t[i, i] = np.nan
    elif spoil == "h-zero-column":
        h[on, i] = t[on, i]   # W's column i vanishes on Ran chibar, and T's off i
        h[i, i] = 0.0
    else:
        # H_chibar = T + chibar W chibar with T diagonal: its row i on Ran
        # chibar is t + (h - t) * cb there
        hbar = t + cb[:, None] * (h - t) * cb
        row = {"h-zero-row": np.zeros(on.size),
               "h-nan": np.where(on == i, np.nan, hbar[i, on])}[spoil]
        h[i, on] = t[i, on] + (row - t[i, on]) / cb[on]
    return pair_of(h, t, c, cb)


class TestSpoiledBlocks:
    # a full SVD reads about 1e-18 for H_chibar with a zero row or column, so
    # the full-SVD gate let those pass, to a LinAlgError in the inverse
    @pytest.mark.parametrize("spoil", ["t-zero-row", "h-zero-row", "h-zero-column"])
    def test_the_gate_refuses_singular_blocks_with_the_pair_report(self, spoil):
        pair = spoiled_pair(spoil)
        with pytest.raises(FeshbachPairError) as exc:
            pair.require_margins()
            feshbach_map(pair)
        assert exc.value.report == verify_pair(pair)

    # the report's full SVD does not converge on NaN, as it did not in the
    # full-SVD gate
    @pytest.mark.parametrize("spoil", ["t-nan", "h-nan"])
    def test_the_gate_refuses_non_finite_blocks(self, spoil):
        pair = spoiled_pair(spoil)
        with pytest.raises((FeshbachPairError, np.linalg.LinAlgError)):
            pair.require_margins()
            feshbach_map(pair)


def full_term_neumann(pair, contraction):
    """The Neumann cross-check with every series term formed on keep x
    keep: the term left @ cur_L, its norms taken from it, and cur_{L+1} =
    R0 (W_bar cur_L); returns (discrepancy, terms, tail_bound)."""
    fixed = pair.fixed
    n = fixed.cut.chi.size
    outside = np.ones((n, n), dtype=bool)
    outside[np.ix_(fixed.keep, fixed.keep)] = False
    f_direct = feshbach_map(pair)
    r0 = pair.inverse_t
    t_outside = pair.minus_z(fixed.t)[..., outside]
    scale = max(1.0, float(np.hypot(np.linalg.norm(f_direct), np.linalg.norm(t_outside))))
    series = np.zeros_like(f_direct)
    cur = r0 @ fixed.right
    certain = 2 * NEUMANN_TOL * scale * np.sqrt(n)
    last_norm = 0.0
    for L in range(1, NEUMANN_MAX_TERMS + 1):
        term = fixed.left @ cur
        series += ((-1) ** (L - 1)) * term
        n_terms = L
        if L == NEUMANN_MAX_TERMS or np.linalg.norm(term) < certain:
            last_norm = float(np.linalg.norm(term, 2))
            if last_norm < NEUMANN_TOL * scale:
                break
        cur = r0 @ (fixed.w_bar @ cur)
    tail = last_norm * contraction / (1.0 - contraction) if contraction < 1.0 else np.inf
    f_neumann = pair.minus_z(fixed.base) - series
    return float(np.linalg.norm(f_direct - f_neumann) / scale), n_terms, tail


def first_pair_at_e_at(spec, g=None):
    """The first decimation's pair at (s0, E_at(s0)), as ``run`` checks it
    (at the z the flow starts from), at the coupling g (the model's when
    None)."""
    first = first_decimation(spec, spec.s0, g)
    pair = first.pair(first.z_start)
    pair.require_margins()
    return pair


def large_fock_spec():
    """m_triv at max_photons 3: dim 157."""
    return dataclasses.replace(load_model("m_triv"), n_max=3)


class TestNeumannCheck:
    @pytest.mark.parametrize("name", ["m_triv", "m_kramers", "m_pauli", "m_exact", "dim157"])
    def test_the_sum_on_ran_chibar_is_the_full_term_series(self, name):
        spec = large_fock_spec() if name == "dim157" else cut_spec(name)
        pair = first_pair_at_e_at(spec)
        contraction = verify_pair(pair).contraction_left
        assert 0 < contraction < 1
        got = neumann_check(pair)
        assert got.contraction == contraction   # read off the expansion's K
        discrepancy, terms, tail = full_term_neumann(pair, contraction)
        assert got.terms == terms >= 2
        assert abs(got.discrepancy - discrepancy) <= 1e-15
        assert abs(got.tail_bound - tail) <= 1e-15
        assert got.discrepancy < 1e-10

    def test_a_contraction_of_one_or_more_has_no_tail_bound(self):
        spec = cut_spec("m_triv")
        # K scales with the coupling g: at g = 1 and 3 it is no contraction
        for g in (1.0, 3.0):
            pair = first_pair_at_e_at(spec, g)
            got = neumann_check(pair)
            assert got.contraction == verify_pair(pair).contraction_left >= 1.0
            assert got.tail_bound == np.inf
            assert got.terms == NEUMANN_MAX_TERMS


def spectral_first(name):
    """The first decimation at s0 of a shipped fixture, or of large-fock-run's
    input (dim 157)."""
    spec = large_fock_spec() if name == "dim157" else load_model(name)
    return first_decimation(spec, spec.s0, None)


def count_linalg(monkeypatch, name):
    """List that grows by the shape of the first argument of each call of
    ``np.linalg.<name>``."""
    fn = getattr(np.linalg, name)
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return shapes


SPECTRAL_NAMES = ["m_triv", "m_exact", "m_kramers", "m_pauli", "dim157"]


class TestSpectralForm:
    """The first decimation's map from one eigh of its h_on, where h_on is
    exactly Hermitian: base - z less L diag(1/(lam - z)) Rm on the rows and
    columns that chi W chibar reaches."""

    @pytest.mark.parametrize("name", SPECTRAL_NAMES)
    @pytest.mark.parametrize("kind", ["real", "complex", "stack"])
    def test_the_spectral_map_is_the_lu_map(self, name, kind):
        first = spectral_first(name)
        e = first.e_at
        assert e.imag == 0 and first.affine.base.dtype == np.float64
        z = {"real": e.real + 2e-3, "complex": e + (1e-3 + 2e-3j),
             "stack": e + 1e-3 * np.exp(0.5j * np.pi * np.arange(4))}[kind]
        pair = first.pair(z)
        assert first.spectral is not None and pair.spectral is first.spectral
        lu = feshbach_map(pair)
        got = pair_map(pair)
        assert got.shape == lu.shape and got.dtype == lu.dtype
        assert got.dtype == (np.float64 if kind == "real" else np.complex128)
        scale = max(1.0, float(np.linalg.norm(lu, 2, axis=(-2, -1)).max()))
        assert np.abs(got - lu).max() <= 1e-14 * scale

    @pytest.mark.parametrize("name", SPECTRAL_NAMES)
    def test_the_rows_and_columns_are_those_that_are_not_zero(self, name):
        first = spectral_first(name)
        left, right, form = first.affine.left, first.affine.right, first.spectral
        assert left[form.rows].any(axis=1).all() and not np.delete(left, form.rows, 0).any()
        assert right[:, form.cols].any(axis=0).all() and not np.delete(right, form.cols, 1).any()
        if name == "dim157":
            assert first.affine.h_on.shape == (51, 51)
            assert (len(form.rows), len(form.cols), left.shape[0]) == (35, 35, 114)

    @pytest.mark.parametrize("name", ["m_triv", "dim157"])
    def test_a_hermitian_h_on_takes_one_eigh_and_no_solve(self, name, monkeypatch):
        first = spectral_first(name)
        eighs = count_linalg(monkeypatch, "eigh")
        solves = count_linalg(monkeypatch, "solve")
        again = SpectralForm(first.affine)
        for z in (first.e_at.real, first.e_at + 1e-3j):
            first_feshbach(first, z)
        assert eighs == [first.affine.h_on.shape] and solves == []
        assert np.array_equal(again.lam, first.spectral.lam)

    def test_a_h_on_that_is_not_hermitian_runs_one_lu_solve(self, monkeypatch):
        # m_pauli's H depends on s: at a complex s h_on is not Hermitian
        spec = load_model("m_pauli")
        first = first_decimation(spec, spec.s0 + 0.05j, None)
        h_on = first.affine.h_on
        assert not np.array_equal(h_on, h_on.conj().T) and first.spectral is None
        solves = count_linalg(monkeypatch, "solve")
        h, pair = first_feshbach(first, first.e_at)
        assert solves == [h_on.shape] and pair.spectral is None
        assert np.array_equal(h.mat, feshbach_map(pair))

    @pytest.mark.parametrize("name", ["m_triv", "m_pauli"])
    def test_a_z_at_an_eigenvalue_of_h_on_raises(self, name):
        first = spectral_first(name)
        for lam in (first.spectral.lam[0], first.spectral.lam[[0, -1]]):
            pair = FeshbachPair(first.affine, lam, first.spectral)
            with pytest.raises(FeshbachPairError) as exc:
                pair_map(pair)
            assert exc.value.report == verify_pair(pair)

    def test_the_neumann_check_reads_the_map_the_flow_uses(self, monkeypatch):
        first = spectral_first("m_triv")
        solves = count_linalg(monkeypatch, "solve")
        got = neumann_check(first.pair(first.e_at))
        assert solves == [] and got.discrepancy < 1e-10
