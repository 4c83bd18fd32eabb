import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from specrg.fock import (
    FockBasis,
    ModeGrid,
    OperatorMatrix,
    annihilation_op,
    build_fock_basis,
    creation_op,
    field_energy,
)
from specrg.kernels import (
    extract_w00,
    hermite,
    pchip_slopes,
    polydisc_check,
    w00_matrix,
)
from specrg.config import load_model
from specrg.model import PROFILES
from specrg.rg import C_BETA, C_CHI, C_GAMMA, contraction_factor, flow_scale


def make_basis(J=4, rho=0.5, d=2, n_max=2, e_cut=1.0):
    return build_fock_basis(ModeGrid(rho, J), n_max, e_cut, d_at=d)


def linear_w00(const, slope):
    """Nodes, values and slopes of w(r) = const + r * slope: on two nodes
    the monotone cubic is the line."""
    const = np.atleast_2d(np.asarray(const, dtype=complex))
    slope = np.atleast_2d(np.asarray(slope, dtype=complex))
    return np.array([0.0, 1.0]), np.stack([const, const + slope]), np.stack([slope, slope])


def h_of_w00(w00, basis) -> OperatorMatrix:
    """H(w) with only the diagonal kernel: w00(H_f)."""
    return OperatorMatrix(w00_matrix(*w00, basis), basis)


def line_at(w00, r):
    nodes, values, _ = w00
    return values[0][None] + np.asarray(r)[:, None, None] * (values[1] - values[0])[None]


def shell_coeffs(basis, amp):
    """Per-shell matrices sqrt(shell measure) amp(omega_j) 1 of a
    rotation-invariant kernel for ``creation_op`` and ``annihilation_op``."""
    c = PROFILES["one"].shell_coeffs(basis.grid)
    return [c[j] * amp(basis.grid.omega[j]) * np.eye(basis.d_at)
            for j in range(basis.grid.levels)]


def scipy_fit(x, y):
    """Values and slopes at x, plus values and derivatives on 101 points of
    [x[0], x[-1]], from scipy's PchipInterpolator."""
    f = PchipInterpolator(x, y, axis=0)
    r = np.linspace(x[0], x[-1], 101)
    return f.derivative()(x), f(r), f.derivative()(r), r


class TestPchip:
    def test_matches_scipy_on_random_node_sets(self):
        rng = np.random.default_rng(8)
        for k in range(300):
            n = int(rng.integers(2, 11))
            x = np.sort(rng.uniform(0.0, 1.0, n))
            x[0] = 0.0
            y = rng.standard_normal((n, 2, 2))
            if k % 3 == 0:   # flat segments and repeated values
                y[1:3] = y[1]
            slopes = pchip_slopes(x, y)
            want_slopes, want_v, want_dv, r = scipy_fit(x, y)
            v, dv = hermite(x, y, slopes, r)
            assert np.abs(slopes - want_slopes).max() <= 1e-14 * max(1.0, np.abs(want_slopes).max())
            assert np.abs(v - want_v).max() <= 1e-14
            assert np.abs(dv - want_dv).max() <= 1e-14 * max(1.0, np.abs(want_dv).max())

    def test_two_nodes_give_the_line(self):
        x = np.array([0.0, 0.5])
        y = np.array([[1.0], [2.0]])
        slopes = pchip_slopes(x, y)
        assert np.array_equal(slopes, [[2.0], [2.0]])
        v, dv = hermite(x, y, slopes, np.array([0.0, 0.25, 0.5, 0.75]))
        assert np.abs(v[:, 0] - [1.0, 1.5, 2.0, 2.5]).max() <= 1e-15
        assert np.abs(dv - 2.0).max() <= 1e-15

    def test_flat_segment_and_sign_change_have_zero_slope(self):
        x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        y = np.array([[0.0], [1.0], [1.0], [0.0], [2.0]])   # flat, then down, then up
        slopes = pchip_slopes(x, y)
        assert slopes[1, 0] == 0.0 and slopes[2, 0] == 0.0 and slopes[3, 0] == 0.0
        assert np.allclose(slopes, scipy_fit(x, y)[0], rtol=0, atol=1e-14)
        v, _ = hermite(x, y, slopes, np.linspace(0.25, 0.5, 7))
        assert np.array_equal(v[:, 0], np.ones(7))   # no overshoot on the flat piece

    def test_one_node_is_a_constant(self):
        x = np.array([0.0])
        y = np.array([[[1.0 + 2.0j, 0.5]]])
        slopes = pchip_slopes(x, y)
        assert np.array_equal(slopes, np.zeros_like(y))
        v, dv = hermite(x, y, slopes, np.array([0.0, 0.3]))
        assert np.array_equal(v, np.repeat(y, 2, axis=0))
        assert np.array_equal(dv, np.zeros_like(v))


class TestKernelC1:
    """The cubic Hermite evaluator that every w00 goes through."""

    def test_hermite_eval_exact_on_cubics(self):
        x = np.linspace(0, 1, 11)
        y = (x**3 - x)[:, None]
        r = np.array([0.123, 0.5, 0.87])
        v, dv = hermite(x, y, (3 * x**2 - 1)[:, None], r)
        assert np.allclose(v[:, 0], r**3 - r, atol=1e-14)
        assert np.allclose(dv[:, 0], 3 * r**2 - 1, atol=1e-13)

    def test_w00_of_hf_is_field_energy(self):
        b = make_basis()
        w00 = linear_w00(np.zeros((2, 2)), np.eye(2))
        assert np.linalg.norm(h_of_w00(w00, b).mat - field_energy(b).mat) < 1e-12


class TestExtraction:
    def test_roundtrip_on_known_function(self):
        b = make_basis(J=5, d=2)
        w00 = linear_w00(0.3 * np.eye(2), 1.2 * np.eye(2))
        h = h_of_w00(w00, b)
        ext = extract_w00(h)
        r = ext.kernel.r_grid
        assert r.size == 65
        assert np.abs(ext.kernel.values - line_at(w00, r)).max() < 1e-10
        assert np.abs(ext.hf_matrix() - h.mat).max() < 1e-12

    def test_g0_first_level_shape(self):
        b = make_basis(J=4, d=2)
        e_at, z = 0.0, -0.05
        w00 = linear_w00((e_at - z) * np.eye(2), np.eye(2))
        h = h_of_w00(w00, b)
        ext = extract_w00(h)
        assert np.abs(ext.node_values[0] - (e_at - z) * np.eye(2)).max() < 1e-12
        r = ext.kernel.r_grid
        assert np.abs(ext.kernel.values - line_at(w00, r)).max() < 1e-12

    def test_planted_11_contamination_bounded(self):
        b = make_basis(J=4, d=1, n_max=2)
        coeffs = shell_coeffs(b, lambda w: 1.0)
        h = OperatorMatrix(creation_op(b, coeffs).mat @ annihilation_op(b, coeffs).mat, b)
        ext = extract_w00(h)
        # pure (1,1) kernel: vacuum block 0; one-photon blocks are the
        # contamination mu_j * w11, within mu_j * ||H - w00(0) (x) 1||
        assert np.abs(ext.node_values[0]).max() == 0.0
        off_scale = np.linalg.norm(h.mat - ext.node_values[0][0, 0] * np.eye(b.dim), 2)
        measure = PROFILES["one"].shell_coeffs(b.grid) ** 2
        bound = np.concatenate([[0.0], measure[::-1]]) * off_scale
        for t in range(1, ext.nodes.size):
            got = np.abs(ext.node_values[t]).max()
            assert got <= bound[t] * (1 + 1e-9) + 1e-15

    def test_vector_fit_matches_scalar_fits(self):
        b = make_basis(J=5, d=2)
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((b.dim, b.dim)) + 1j * rng.standard_normal((b.dim, b.dim))
        ext = extract_w00(OperatorMatrix(mat, b))
        r = ext.kernel.r_grid
        for a in range(2):
            for c in range(2):
                col = ext.node_values[:, a, c]
                fr = PchipInterpolator(ext.nodes, col.real)
                fi = PchipInterpolator(ext.nodes, col.imag)
                vals = fr(r) + 1j * fi(r)
                ders = fr.derivative()(r) + 1j * fi.derivative()(r)
                assert np.abs(ext.kernel.values[:, a, c] - vals).max() <= 1e-15
                assert np.abs(ext.kernel.derivs[:, a, c] - ders).max() <= 1e-15
                block = ext.hf_matrix()[a * b.size:(a + 1) * b.size, c * b.size:(c + 1) * b.size]
                t = fr(b.hf_values) + 1j * fi(b.hf_values)
                assert np.abs(np.diag(block) - t).max() <= 1e-15

    def test_vacuum_only_space(self):
        b = FockBasis(ModeGrid(0.5, 0), 2, 1.0, d_at=2)   # a flow's terminal space
        mat = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        ext = extract_w00(OperatorMatrix(mat, b))
        assert ext.nodes.tolist() == [0.0]
        assert np.array_equal(ext.hf_matrix(), mat)
        assert ext.kernel.r_grid.tolist() == [0.0]
        assert np.array_equal(ext.kernel.derivs, np.zeros((1, 2, 2)))

    def test_interpolation_derivative(self):
        b = make_basis(J=5, d=1)
        w00 = linear_w00(np.array([[0.5]]), np.array([[2.0]]))
        h = h_of_w00(w00, b)
        ext = extract_w00(h)
        assert np.abs(ext.kernel.derivs - 2.0).max() < 1e-9


class TestPolydisc:
    def test_field_energy_in_every_disc(self):
        b = make_basis()
        h = h_of_w00(linear_w00(np.zeros((2, 2)), np.eye(2)), b)
        ext = extract_w00(h)
        chk = polydisc_check(ext)
        assert np.abs(ext.node_values[0]).max() == 0.0
        assert chk.beta_hat < 1e-12 and chk.gamma_hat < 1e-12

    def test_measures_shift_and_slope(self):
        b = make_basis(d=1)
        w00 = linear_w00(np.array([[0.2]]), np.array([[1.3]]))
        h = h_of_w00(w00, b)
        ext = extract_w00(h)
        chk = polydisc_check(ext)
        assert ext.node_values[0, 0, 0] == pytest.approx(0.2, abs=1e-10)
        assert chk.beta_hat == pytest.approx(0.3, abs=1e-8)

    def test_interaction_shows_in_gamma(self):
        b = make_basis(d=1)
        w00 = linear_w00(np.array([[0.0]]), np.array([[1.0]]))
        h10 = creation_op(b, shell_coeffs(b, lambda w: 0.1 * w))
        h = OperatorMatrix(h_of_w00(w00, b).mat + h10.mat, b)
        chk = polydisc_check(extract_w00(h))
        assert chk.gamma_hat > 1e-3

    def test_recursion_constants(self):
        assert (C_CHI, C_BETA, C_GAMMA) == (1.0, 1.5, 128.0)
        # rho and mu come from the model: its grid ratio and infrared exponent
        spec = load_model("m_triv")
        assert (spec.grid.ratio, spec.mu) == (0.5, 0.5)
        assert flow_scale(spec) == 0.5
        assert contraction_factor(spec) == pytest.approx(128.0 * np.sqrt(0.5))
        assert round(contraction_factor(spec), 1) == 90.5   # > 1: inadmissible
