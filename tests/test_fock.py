import itertools

import numpy as np
import pytest

from specrg.fock import (
    FockBasis,
    ModeGrid,
    TruncationError,
    annihilation_op,
    build_fock_basis,
    creation_op,
    dilation,
    field_energy,
    number_op,
    relative_bound_check,
    verify_pull_through,
)
from specrg.model import PROFILES


def brute_force_states(J, rho, n_max, e_cut):
    """Independent enumeration oracle: filter the full product set."""
    omega = [rho**j for j in range(J)]
    out = []
    for occ in itertools.product(range(n_max + 1), repeat=J):
        if sum(occ) <= n_max and sum(n * w for n, w in zip(occ, omega)) <= e_cut + 1e-12:
            out.append(occ)
    return sorted(out)


class TestModeGrid:
    def test_geometric_exact(self):
        g = ModeGrid(0.3, 9)
        for j in range(8):
            assert g.omega[j + 1] == 0.3 * g.omega[j]  # exact by construction
        assert g.omega[0] == 1.0
        assert np.all(PROFILES["one"].shell_coeffs(g) > 0)

    def test_shell_weights_sum_to_ball_volume(self):
        g = ModeGrid(0.5, 40)
        # shells tile (rho^J, 1]; c_j^2 of the flat profile is the shell
        # measure, and the total measure -> 4pi/3
        c = PROFILES["one"].shell_coeffs(g)
        assert np.sum(c**2) == pytest.approx(4 * np.pi / 3, rel=1e-10)

    def test_closed_under_shift(self):
        g = ModeGrid(0.7, 6)
        sub = g.drop_lowest_shell()
        assert np.allclose(g.omega[:5], sub.omega)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            ModeGrid(1.0, 3)
        with pytest.raises(ValueError):
            ModeGrid(0.0, 3)


class TestBasisEnumeration:
    def test_vacuum_only(self):
        b = build_fock_basis(ModeGrid(0.5, 2), n_max=0, e_cut=1.0)
        assert b.size == 1
        assert b.states[0] == (0, 0)

    def test_one_particle_states(self):
        b = build_fock_basis(ModeGrid(0.5, 2), n_max=1, e_cut=1.0)
        assert b.states == [(0, 0), (0, 1), (1, 0)]
        assert b.size == 3

    def test_vacuum_first_always(self):
        b = build_fock_basis(ModeGrid(0.5, 3), n_max=2, e_cut=1.0)
        assert b.states[0] == (0, 0, 0)
        assert b.hf_values[0] == 0.0

    @pytest.mark.parametrize("J,rho,n_max,e_cut", [
        (3, 0.5, 2, 1.0),
        (5, 0.5, 2, 2.0),
        (4, 0.3, 3, 1.5),
        (8, 0.5, 2, 2.0),
    ])
    def test_matches_brute_force(self, J, rho, n_max, e_cut):
        b = build_fock_basis(ModeGrid(rho, J), n_max, e_cut)
        assert list(b.states) == brute_force_states(J, rho, n_max, e_cut)

    def test_rejects_empty_or_degenerate(self):
        with pytest.raises(TruncationError):
            build_fock_basis(ModeGrid(0.5, 0), 2, 1.0)
        with pytest.raises(TruncationError):
            build_fock_basis(ModeGrid(0.5, 2), -1, 1.0)
        with pytest.raises(TruncationError):
            build_fock_basis(ModeGrid(0.5, 2), 2, 0.0)


@pytest.fixture
def basis():
    return build_fock_basis(ModeGrid(0.5, 3), n_max=2, e_cut=2.0, d_at=2)


@pytest.fixture
def coeffs(basis):
    rng = np.random.default_rng(7)
    J = basis.grid.levels
    return [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(J)]


class TestFieldOperators:
    def test_annihilator_kills_vacuum(self, basis, coeffs):
        a = annihilation_op(basis, coeffs).mat
        for v in np.eye(2):
            psi = np.kron(v, basis.vacuum_vector())
            assert np.linalg.norm(a @ psi) == 0.0

    def test_one_photon_matrix_element(self, basis, coeffs):
        astar = creation_op(basis, coeffs).mat
        for j in range(basis.grid.levels):
            occ = tuple(1 if k == j else 0 for k in range(basis.grid.levels))
            one = np.zeros(basis.size)
            one[basis.index[occ]] = 1.0
            for a in range(2):
                for b in range(2):
                    bra = np.kron(np.eye(2)[a], one)
                    ket = np.kron(np.eye(2)[b], basis.vacuum_vector())
                    got = np.vdot(bra, astar @ ket)
                    assert got == pytest.approx(coeffs[j][a, b], abs=1e-14)

    def test_adjoint_exact(self, basis, coeffs):
        astar = creation_op(basis, coeffs).mat
        a = annihilation_op(basis, coeffs).mat
        assert np.linalg.norm(a - astar.conj().T) <= 1e-14

    def test_commutator_closed_form(self, basis):
        """[a(F), a*(G)] = sum_j F_j^dag G_j (x) 1 below the truncation, for
        rotation-invariant couplings f_j B, g_j B with common normal B (the
        cross-mode terms vanish only when the atomic parts commute)."""
        rng = np.random.default_rng(11)
        B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        B = B + B.conj().T
        fs = rng.standard_normal(basis.grid.levels)
        gs = rng.standard_normal(basis.grid.levels)
        F = [f * B for f in fs]
        G = [g * B for g in gs]
        aF = annihilation_op(basis, F).mat
        cG = creation_op(basis, G).mat
        comm = aF @ cG - cG @ aF
        closed = np.kron(
            sum(f.conj().T @ g for f, g in zip(F, G)), np.eye(basis.size)
        )
        # valid on states whose creation image stays inside the truncation
        safe = [i for i, s in enumerate(basis.states)
                if sum(s) <= basis.n_max - 1
                and basis.hf_values[i] + 1.0 <= basis.e_cut + 1e-12]
        cols = np.concatenate([np.arange(2) * basis.size + i for i in safe])
        resid = np.abs(comm[:, cols] - closed[:, cols]).max()
        assert resid < 1e-12

    def test_field_energy_diagonal(self, basis):
        hf = field_energy(basis).mat
        vac = np.kron(np.eye(2)[0], basis.vacuum_vector())
        assert np.vdot(vac, hf @ vac) == 0.0
        state = tuple(1 if k == 0 else 0 for k in range(basis.grid.levels))
        one = np.zeros(basis.size)
        one[basis.index[state]] = 1.0
        psi = np.kron(np.eye(2)[0], one)
        assert np.vdot(psi, hf @ psi) == pytest.approx(1.0)

    def test_two_photon_additivity(self):
        b = build_fock_basis(ModeGrid(0.5, 2), 2, 2.0)
        hf = field_energy(b).mat
        i = b.index[(1, 1)]
        assert hf[i, i] == pytest.approx(1.5)

    def test_hf_nonneg_commutes_with_number(self, basis):
        hf = field_energy(basis).mat
        n = number_op(basis).mat
        assert np.min(np.real(np.diag(hf))) >= 0.0
        assert np.linalg.norm(hf @ n - n @ hf) == 0.0

    def test_mode_count_mismatch(self, basis):
        with pytest.raises(ValueError):
            creation_op(basis, [np.eye(2)] * (basis.grid.levels + 1))


def dense_gamma(d):
    """Gamma as a dense 0/1 matrix, built from the states alone: row
    (a, m) of the target has its 1 at column (a, (0,) + m) of the source."""
    src, tgt = d.source, d.target
    gamma = np.zeros((tgt.dim, src.dim))
    for a in range(src.d_at):
        for i, m in enumerate(tgt.states):
            gamma[a * tgt.size + i, a * src.size + src.index[(0,) + m]] = 1.0
    return gamma


class TestDilation:
    def test_vacuum_fixed(self):
        b = build_fock_basis(ModeGrid(0.5, 4), 2, 1.0)
        d = dilation(b, 0.5)
        assert d.target.states[0] == (0, 0, 0)
        assert d.rows[0] == 0   # target vacuum <- source vacuum

    def test_shell_shift(self):
        # (0,) + m goes to m, on every atomic block
        b = build_fock_basis(ModeGrid(0.5, 4), 2, 1.0, d_at=2)
        d = dilation(b, 0.5)
        assert d.target.d_at == 2
        assert d.rows[d.target.index[(0, 0, 1)]] == b.index[(0, 0, 0, 1)]
        for a in range(2):
            for i, m in enumerate(d.target.states):
                assert d.rows[a * d.target.size + i] == a * b.size + b.index[(0,) + m]

    def test_isometry_on_low_sector(self):
        # rows is injective and is exactly the H_f <= rho sector, so Gamma* is
        # an isometry onto it and Gamma M Gamma* is a principal submatrix
        for rho in (0.5, 0.3):
            b = build_fock_basis(ModeGrid(rho, 5), 2, 1.0, d_at=2)
            d = dilation(b, rho)
            hf = np.kron(np.ones(2), b.hf_values)
            assert np.unique(d.rows).size == d.rows.size == d.target.dim
            assert set(d.rows) == set(np.flatnonzero(hf <= rho * (1 + 1e-12)))
            rng = np.random.default_rng(3)
            m = rng.standard_normal((b.dim, b.dim)) + 1j * rng.standard_normal((b.dim, b.dim))
            gamma = dense_gamma(d)
            assert np.array_equal(gamma @ m @ gamma.T, m[np.ix_(d.rows, d.rows)])

    def test_intertwines_field_energy(self):
        for rho in (0.5, 0.3):
            b = build_fock_basis(ModeGrid(rho, 5), 2, 1.0, d_at=2)
            d = dilation(b, rho)
            hf_s = np.diag(field_energy(b).mat)
            hf_t = np.diag(field_energy(d.target).mat)
            assert np.abs(hf_t - hf_s[d.rows] / rho).max() < 1e-12

    def test_unitary_onto_target(self):
        # Gamma Gamma* = 1 on the target: the scatter Gamma* v puts v back
        b = build_fock_basis(ModeGrid(0.5, 5), 2, 1.0)
        d = dilation(b, 0.5)
        v = np.random.default_rng(4).standard_normal(d.target.dim)
        up = np.zeros(b.dim)
        up[d.rows] = v
        assert np.array_equal(up, dense_gamma(d).T @ v)
        assert np.array_equal(up[d.rows], v)
        assert np.count_nonzero(up) == d.target.dim

    def test_scale_mismatch_rejected(self):
        b = build_fock_basis(ModeGrid(0.5, 4), 2, 1.0)
        with pytest.raises(ValueError):
            dilation(b, 0.4)


class TestPullThrough:
    def test_constant_function(self):
        b = build_fock_basis(ModeGrid(0.5, 3), 2, 2.0)
        assert verify_pull_through(b, lambda r: np.ones_like(r), 1) == 0.0

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_identity_function(self, j):
        b = build_fock_basis(ModeGrid(0.5, 3), 2, 2.0)
        assert verify_pull_through(b, lambda r: r, j) < 1e-12

    def test_resolvent_function(self):
        b = build_fock_basis(ModeGrid(0.5, 3), 2, 2.0)
        assert verify_pull_through(b, lambda r: 1.0 / (r + 2.0), 1) < 1e-12


class TestRelativeBounds:
    def test_seeded_samples_pass(self):
        b = build_fock_basis(ModeGrid(0.5, 4), 2, 2.0, d_at=2)
        rng = np.random.default_rng(5)
        G = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
             for _ in range(4)]
        # both relative excesses are within 1e-12 of their bounds
        assert relative_bound_check(b, G, seed=0) is True

    def test_one_photon_aligned_explicit(self):
        """Single mode, scalar coupling: ||a(G) (1-photon)|| = |g| exactly,
        bound gives |g| omega^{-1/2} sqrt(omega): equality."""
        b = build_fock_basis(ModeGrid(0.5, 1), 2, 2.0)
        g = 0.7
        a = annihilation_op(b, [g]).mat
        one = np.zeros(b.size)
        one[b.index[(1,)]] = 1.0
        lhs = np.linalg.norm(a @ one)
        bound = (g / np.sqrt(1.0)) * np.sqrt(1.0)
        assert lhs == pytest.approx(bound)
