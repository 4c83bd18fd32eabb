import numpy as np
import pytest

from specrg.fock import ModeGrid, OperatorMatrix, build_fock_basis, creation_op, field_energy
from specrg.kernels import (
    KernelC1,
    KernelMN,
    PolydiscParams,
    build_H_of_w,
    constant_kernel_c1,
    extract_w00,
    kernel_c1_of_hf,
    linear_kernel_c1,
    norm_c1,
    norm_mu,
    norm_mu_xi,
    polydisc_check,
    sharp_norm,
    shell_weight_mu,
)
from specrg.rg import RGConfig


def make_basis(J=4, rho=0.5, d=2, n_max=2, e_cut=1.0):
    return build_fock_basis(ModeGrid(rho, J), n_max, e_cut, d_at=d)


def separable_kernel(basis, order, amp, n_r=33):
    """w(k_1..k_p, r) = prod amp(omega_j) * identity, with amp(w) = w."""
    J = basis.grid.levels
    d = basis.d_at
    r_grid = np.linspace(0, 1, n_r)
    p = sum(order)
    shape = (J,) * p + (n_r, d, d)
    samples = np.zeros(shape, dtype=complex)
    for tup in np.ndindex(*(J,) * p):
        val = np.prod([amp(basis.grid.omega[j]) for j in tup])
        samples[tup] = val * np.eye(d)[None]
    return KernelMN(order, basis.grid, r_grid, samples)


class TestNormC1:
    def test_linear_identity_kernel(self):
        k = linear_kernel_c1(np.zeros((2, 2)), np.eye(2), n_r=101)
        assert norm_c1(k) == pytest.approx(2.0)

    def test_zero(self):
        k = constant_kernel_c1(np.zeros((2, 2)))
        assert norm_c1(k) == 0.0

    def test_quadratic_within_grid_resolution(self):
        grid = np.linspace(0, 1, 101)
        vals = (grid**2)[:, None, None] * np.eye(1)[None]
        ders = (2 * grid)[:, None, None] * np.eye(1)[None]
        k = KernelC1(grid, vals, ders)
        assert norm_c1(k) == pytest.approx(3.0, abs=1e-12)
        assert k.consistency_residual() < 1e-3  # O(h^2) for smooth samples

    def test_hermite_eval_exact_on_cubics(self):
        grid = np.linspace(0, 1, 11)
        vals = (grid**3 - grid)[:, None, None] * np.eye(1)
        ders = (3 * grid**2 - 1)[:, None, None] * np.eye(1)
        k = KernelC1(grid, vals, ders)
        r = np.array([0.123, 0.5, 0.87])
        assert np.allclose(k.eval(r)[:, 0, 0], r**3 - r, atol=1e-14)
        assert np.allclose(k.eval_deriv(r)[:, 0, 0], 3 * r**2 - 1, atol=1e-13)


class TestNormMu:
    def test_zero_kernel(self):
        b = make_basis()
        k = separable_kernel(b, (1, 0), lambda w: 0.0)
        assert norm_mu(k, 0.5) == 0.0

    def test_separable_matches_radial_integral(self):
        """amp(|k|)=|k| on the unit ball: ||G||_mu^2 = 4 pi/(3-2 mu).  The
        singular weight is integrated exactly per shell; the amplitude is
        sampled at the geometric shell midpoint, so the error is set by the
        shell width and vanishes as rho -> 1."""
        mu = 0.5
        exact = np.sqrt(4 * np.pi / (3 - 2 * mu))
        errs = []
        for rho, J in ((0.5, 14), (0.8, 42), (0.95, 180)):
            b = build_fock_basis(ModeGrid(rho, J), 1, 1.0, d_at=1)
            k = separable_kernel(b, (1, 0), lambda w: np.sqrt(rho) * w)
            errs.append(abs(norm_mu(k, mu) - exact))
        assert errs[-1] < 0.01 * exact
        assert errs[2] < errs[1] < errs[0]

    def test_homogeneity(self):
        b = make_basis()
        k1 = separable_kernel(b, (1, 1), lambda w: w)
        k2 = KernelMN(k1.orders, k1.grid, k1.r_grid, 3.5 * k1.samples)
        assert norm_mu(k2, 0.5) == pytest.approx(3.5 * norm_mu(k1, 0.5), rel=1e-12)

    def test_triangle_inequality_random(self):
        b = make_basis(J=3, d=1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            s1 = rng.standard_normal((3, 5, 1, 1)) + 1j * rng.standard_normal((3, 5, 1, 1))
            s2 = rng.standard_normal((3, 5, 1, 1)) + 1j * rng.standard_normal((3, 5, 1, 1))
            r_grid = np.linspace(0, 1, 5)
            ka = KernelMN((1, 0), b.grid, r_grid, s1)
            kb = KernelMN((1, 0), b.grid, r_grid, s2)
            kab = KernelMN((1, 0), b.grid, r_grid, s1 + s2)
            assert norm_mu(kab, 0.5) <= norm_mu(ka, 0.5) + norm_mu(kb, 0.5) + 1e-12


class TestNormMuXi:
    def test_zero(self):
        b = make_basis()
        assert norm_mu_xi({(0, 0): constant_kernel_c1(np.zeros((2, 2)))}, 0.5, 0.3) == 0.0

    def test_single_order_weighting(self):
        b = make_basis()
        k = separable_kernel(b, (1, 0), lambda w: w)
        xi = 0.25
        assert norm_mu_xi({(1, 0): k}, 0.5, xi) == pytest.approx(
            norm_mu(k, 0.5) / xi)

    def test_sum_of_terms(self):
        b = make_basis()
        k10 = separable_kernel(b, (1, 0), lambda w: w)
        k11 = separable_kernel(b, (1, 1), lambda w: w)
        w00 = linear_kernel_c1(0.1 * np.eye(2), np.eye(2))
        xi = 0.25
        got = norm_mu_xi({(0, 0): w00, (1, 0): k10, (1, 1): k11}, 0.5, xi)
        want = norm_c1(w00) + norm_mu(k10, 0.5) / xi + norm_mu(k11, 0.5) / xi**2
        assert got == pytest.approx(want, rel=1e-12)


class TestBuildH:
    def test_w00_only_reproduces_field_energy(self):
        b = make_basis()
        w00 = linear_kernel_c1(np.zeros((2, 2)), np.eye(2))
        h = build_H_of_w({(0, 0): w00}, b)
        assert np.linalg.norm(h.mat - field_energy(b).mat) < 1e-12

    def test_separable_10_matches_fock_construction(self):
        b = make_basis()
        k = separable_kernel(b, (1, 0), lambda w: w)
        h = build_H_of_w({(1, 0): k}, b)
        coeffs = [np.sqrt(b.grid.weights[j]) * b.grid.omega[j] * np.eye(2)
                  for j in range(b.grid.levels)]
        ref = creation_op(b, coeffs).mat
        assert np.linalg.norm(h.mat - ref) < 1e-12

    def test_norm_bounds_on_random_kernels(self):
        """||H_{m,n}(w)|| <= min(sharp, mu-norm / sqrt(m^m n^n)) and the
        xi-weighted total bounds ||H(w)||, on 50 seeded kernels."""
        rng = np.random.default_rng(42)
        b = make_basis(J=3, d=1, n_max=2, e_cut=1.0)
        xi, mu = 0.25, 0.5
        orders = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
        for trial in range(50):
            m, n = orders[trial % len(orders)]
            J = b.grid.levels
            shape = (J,) * (m + n) + (5, 1, 1)
            s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            if m + n == 2:
                s = 0.5 * (s + np.swapaxes(s, 0, 1))
            k = KernelMN((m, n), b.grid, np.linspace(0, 1, 5), s)
            h = build_H_of_w({(m, n): k}, b)
            hn = np.linalg.norm(h.mat, 2)
            bound_mu = norm_mu(k, mu) / np.sqrt(m**m * n**n)
            bound_sharp = sharp_norm(k)
            assert hn <= bound_mu * (1 + 1e-12), (m, n, hn, bound_mu)
            assert hn <= bound_sharp * (1 + 1e-12), (m, n, hn, bound_sharp)
            assert hn <= norm_mu_xi({(m, n): k}, mu, xi) * (1 + 1e-12)

    def test_grid_mismatch_rejected(self):
        b = make_basis(J=4)
        other = build_fock_basis(ModeGrid(0.5, 3), 2, 1.0, d_at=2)
        k = separable_kernel(other, (1, 0), lambda w: w)
        with pytest.raises(ValueError):
            build_H_of_w({(1, 0): k}, b)


class TestExtraction:
    def test_roundtrip_on_known_function(self):
        b = make_basis(J=5, d=2)
        w00 = linear_kernel_c1(0.3 * np.eye(2), 1.2 * np.eye(2))
        h = build_H_of_w({(0, 0): w00}, b)
        ext = extract_w00(h)
        r = np.linspace(0, 1, 7)
        assert np.abs(ext.kernel.eval(r) - w00.eval(r)).max() < 1e-10

    def test_g0_first_level_shape(self):
        b = make_basis(J=4, d=2)
        e_at, z = 0.0, -0.05
        w00 = linear_kernel_c1((e_at - z) * np.eye(2), np.eye(2))
        h = build_H_of_w({(0, 0): w00}, b)
        ext = extract_w00(h)
        assert np.abs(ext.node_values[0] - (e_at - z) * np.eye(2)).max() < 1e-12
        r = np.linspace(0, 1, 5)
        assert np.abs(ext.kernel.eval(r) - w00.eval(r)).max() < 1e-12

    def test_planted_11_contamination_bounded(self):
        b = make_basis(J=4, d=1, n_max=2)
        k11 = separable_kernel(b, (1, 1), lambda w: 1.0)
        h = build_H_of_w({(1, 1): k11}, b)
        ext = extract_w00(h)
        # pure (1,1) kernel: vacuum block 0; one-photon blocks are the
        # contamination mu_j * w11; declared bound must cover them
        assert np.abs(ext.node_values[0]).max() == 0.0
        for t in range(1, ext.nodes.size):
            got = np.abs(ext.node_values[t]).max()
            assert got <= ext.contamination[t] * (1 + 1e-9) + 1e-15

    def test_vector_fit_matches_scalar_fits(self):
        from scipy.interpolate import PchipInterpolator

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

    def test_interpolation_derivative(self):
        b = make_basis(J=5, d=1)
        w00 = linear_kernel_c1(np.array([[0.5]]), np.array([[2.0]]))
        h = build_H_of_w({(0, 0): w00}, b)
        ext = extract_w00(h)
        assert np.abs(ext.kernel.eval_deriv(np.linspace(0, 1, 9)) - 2.0).max() < 1e-9


class TestPolydisc:
    def test_field_energy_in_every_disc(self):
        b = make_basis()
        h = build_H_of_w({(0, 0): linear_kernel_c1(np.zeros((2, 2)), np.eye(2))}, b)
        chk = polydisc_check(extract_w00(h), PolydiscParams(0.0, 0.0, 0.0))
        assert chk.member
        assert chk.alpha_hat == 0.0 and chk.beta_hat < 1e-12 and chk.gamma_hat < 1e-12

    def test_measures_shift_and_slope(self):
        b = make_basis(d=1)
        w00 = linear_kernel_c1(np.array([[0.2]]), np.array([[1.3]]))
        h = build_H_of_w({(0, 0): w00}, b)
        chk = polydisc_check(extract_w00(h), PolydiscParams(0.25, 0.35, 0.1))
        assert chk.alpha_hat == pytest.approx(0.2, abs=1e-10)
        assert chk.beta_hat == pytest.approx(0.3, abs=1e-8)
        assert chk.member

    def test_interaction_shows_in_gamma(self):
        b = make_basis(d=1)
        k = separable_kernel(b, (1, 0), lambda w: 0.1 * w)
        h = build_H_of_w({
            (0, 0): linear_kernel_c1(np.array([[0.0]]), np.array([[1.0]])),
            (1, 0): k}, b)
        chk = polydisc_check(extract_w00(h), PolydiscParams(0.1, 0.1, 1e-6))
        assert chk.gamma_hat > 1e-3
        assert not chk.member

    def test_recursion_constants(self):
        p = RGConfig(rho=0.5, mu=0.5, c_chi=1.0)
        assert p.c_beta == 1.5
        assert p.c_gamma == 128.0
        assert p.xi == pytest.approx(np.sqrt(0.5) / 4.0)
        assert not p.contraction_admissible  # 128 * 0.5^0.5 = 90.5 > 1


class TestSharpNorm:
    def test_zero_and_homogeneity(self):
        b = make_basis(J=3, d=1)
        k = separable_kernel(b, (1, 0), lambda w: w)
        z = KernelMN(k.orders, k.grid, k.r_grid, 0 * k.samples)
        assert sharp_norm(z) == 0.0
        k2 = KernelMN(k.orders, k.grid, k.r_grid, 2.0 * k.samples)
        assert sharp_norm(k2) == pytest.approx(2 * sharp_norm(k), rel=1e-12)


class TestMuWeights:
    def test_shell_weights_reproduce_closed_form(self):
        """sum_j v_j(mu) telescopes to the integral over (rho^J, 1]."""
        g = ModeGrid(0.5, 30)
        mu = 0.3
        got = np.sum(shell_weight_mu(g, mu))
        want = 4 * np.pi * (1 - 0.5**30) ** 0 * (1 - (0.5**30) ** (1 - 2 * mu)) / (1 - 2 * mu)
        assert got == pytest.approx(want, rel=1e-12)

    def test_log_case(self):
        g = ModeGrid(0.5, 10)
        got = np.sum(shell_weight_mu(g, 0.5))
        assert got == pytest.approx(4 * np.pi * 10 * np.log(2), rel=1e-12)
