import numpy as np
import pytest

from specrg.cli import random_feshbach_pair
from specrg.feshbach import (
    CutoffSpec,
    FeshbachPair,
    FeshbachPairError,
    feshbach_map,
    isospectrality_suite,
    q_ops,
    verify_pair,
)


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
        f = feshbach_map(FeshbachPair(h, t, c, cb))
        w = h - t
        h_bar = t + cb[:, None] * w * cb[None, :]
        left = (c[:, None] * w * cb[None, :])[:, on]
        right = (cb[:, None] * w * c[None, :])[on, :]
        want = (t + c[:, None] * w * c[None, :]
                - left @ np.linalg.solve(h_bar[np.ix_(on, on)], right))
        assert np.max(np.abs(f - want)) <= 1e-12

    def test_a_singular_t_raises_with_the_pair_report(self):
        h, t, c, cb = diagonal_pair()
        t = t.copy()
        t[-1, -1] = 0.0   # chibar is nonzero on the last coordinate
        pair = FeshbachPair(h, t, c, cb)
        with pytest.raises(FeshbachPairError) as exc:
            pair.require_margins()
        assert exc.value.report == verify_pair(pair)
        assert exc.value.report.t_margin == 0.0

    def test_one_factorization_per_pair(self, monkeypatch):
        h, t, c, cb = diagonal_pair()
        full = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            if kwargs.get("compute_uv", True):
                full.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        pair = FeshbachPair(h, t, c, cb)
        verify_pair(pair)
        feshbach_map(pair)
        q_ops(pair)
        assert full == []
