import numpy as np
import pytest

from specrg.fock import (
    ModeGrid,
    OperatorMatrix,
    annihilation_op,
    build_fock_basis,
    creation_op,
    field_energy,
)
from specrg.kernels import (
    KernelC1,
    PolydiscParams,
    extract_w00,
    kernel_c1_of_hf,
    polydisc_check,
)
from specrg.rg import RGConfig


def make_basis(J=4, rho=0.5, d=2, n_max=2, e_cut=1.0):
    return build_fock_basis(ModeGrid(rho, J), n_max, e_cut, d_at=d)


def linear_kernel_c1(const: np.ndarray, slope: np.ndarray, n_r: int = 65) -> KernelC1:
    """w(r) = const + r * slope."""
    const = np.atleast_2d(np.asarray(const, dtype=complex))
    slope = np.atleast_2d(np.asarray(slope, dtype=complex))
    grid = np.linspace(0.0, 1.0, n_r)
    vals = const[None] + grid[:, None, None] * slope[None]
    return KernelC1(grid, vals, np.repeat(slope[None], n_r, axis=0))


def h_of_w00(w00: KernelC1, basis) -> OperatorMatrix:
    """H(w) with only the diagonal kernel: w00(H_f)."""
    return OperatorMatrix(kernel_c1_of_hf(w00, basis), basis)


def shell_coeffs(basis, amp):
    """Per-shell matrices sqrt(shell measure) amp(omega_j) 1 of a
    rotation-invariant kernel for ``creation_op`` and ``annihilation_op``."""
    return [np.sqrt(basis.grid.weights[j]) * amp(basis.grid.omega[j]) * np.eye(basis.d_at)
            for j in range(basis.grid.levels)]


class TestKernelC1:
    def test_hermite_eval_exact_on_cubics(self):
        grid = np.linspace(0, 1, 11)
        vals = (grid**3 - grid)[:, None, None] * np.eye(1)
        ders = (3 * grid**2 - 1)[:, None, None] * np.eye(1)
        k = KernelC1(grid, vals, ders)
        r = np.array([0.123, 0.5, 0.87])
        assert np.allclose(k.eval(r)[:, 0, 0], r**3 - r, atol=1e-14)

    def test_w00_of_hf_is_field_energy(self):
        b = make_basis()
        w00 = linear_kernel_c1(np.zeros((2, 2)), np.eye(2))
        assert np.linalg.norm(h_of_w00(w00, b).mat - field_energy(b).mat) < 1e-12


class TestExtraction:
    def test_roundtrip_on_known_function(self):
        b = make_basis(J=5, d=2)
        w00 = linear_kernel_c1(0.3 * np.eye(2), 1.2 * np.eye(2))
        h = h_of_w00(w00, b)
        ext = extract_w00(h)
        r = np.linspace(0, 1, 7)
        assert np.abs(ext.kernel.eval(r) - w00.eval(r)).max() < 1e-10

    def test_g0_first_level_shape(self):
        b = make_basis(J=4, d=2)
        e_at, z = 0.0, -0.05
        w00 = linear_kernel_c1((e_at - z) * np.eye(2), np.eye(2))
        h = h_of_w00(w00, b)
        ext = extract_w00(h)
        assert np.abs(ext.node_values[0] - (e_at - z) * np.eye(2)).max() < 1e-12
        r = np.linspace(0, 1, 5)
        assert np.abs(ext.kernel.eval(r) - w00.eval(r)).max() < 1e-12

    def test_planted_11_contamination_bounded(self):
        b = make_basis(J=4, d=1, n_max=2)
        coeffs = shell_coeffs(b, lambda w: 1.0)
        h = OperatorMatrix(creation_op(b, coeffs).mat @ annihilation_op(b, coeffs).mat, b)
        ext = extract_w00(h)
        # pure (1,1) kernel: vacuum block 0; one-photon blocks are the
        # contamination mu_j * w11, within mu_j * ||H - w00(0) (x) 1||
        assert np.abs(ext.node_values[0]).max() == 0.0
        off_scale = np.linalg.norm(h.mat - ext.node_values[0][0, 0] * np.eye(b.dim), 2)
        bound = np.concatenate([[0.0], b.grid.weights[::-1]]) * off_scale
        for t in range(1, ext.nodes.size):
            got = np.abs(ext.node_values[t]).max()
            assert got <= bound[t] * (1 + 1e-9) + 1e-15

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
        h = h_of_w00(w00, b)
        ext = extract_w00(h)
        assert np.abs(ext.kernel.derivs - 2.0).max() < 1e-9


class TestPolydisc:
    def test_field_energy_in_every_disc(self):
        b = make_basis()
        h = h_of_w00(linear_kernel_c1(np.zeros((2, 2)), np.eye(2)), b)
        chk = polydisc_check(extract_w00(h), PolydiscParams(0.0, 0.0, 0.0))
        assert chk.member
        assert chk.alpha_hat == 0.0 and chk.beta_hat < 1e-12 and chk.gamma_hat < 1e-12

    def test_measures_shift_and_slope(self):
        b = make_basis(d=1)
        w00 = linear_kernel_c1(np.array([[0.2]]), np.array([[1.3]]))
        h = h_of_w00(w00, b)
        chk = polydisc_check(extract_w00(h), PolydiscParams(0.25, 0.35, 0.1))
        assert chk.alpha_hat == pytest.approx(0.2, abs=1e-10)
        assert chk.beta_hat == pytest.approx(0.3, abs=1e-8)
        assert chk.member

    def test_interaction_shows_in_gamma(self):
        b = make_basis(d=1)
        w00 = linear_kernel_c1(np.array([[0.0]]), np.array([[1.0]]))
        h10 = creation_op(b, shell_coeffs(b, lambda w: 0.1 * w))
        h = OperatorMatrix(h_of_w00(w00, b).mat + h10.mat, b)
        chk = polydisc_check(extract_w00(h), PolydiscParams(0.1, 0.1, 1e-6))
        assert chk.gamma_hat > 1e-3
        assert not chk.member

    def test_recursion_constants(self):
        p = RGConfig(rho=0.5, mu=0.5, c_chi=1.0)
        assert p.c_beta == 1.5
        assert p.c_gamma == 128.0
        assert p.xi == pytest.approx(np.sqrt(0.5) / 4.0)
        assert not p.contraction_admissible  # 128 * 0.5^0.5 = 90.5 > 1
