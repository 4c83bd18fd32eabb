import dataclasses
import itertools

import numpy as np
import pytest

from specrg.config import load_model
from specrg.feshbach import Cutoffs, CutoffSpec, FirstFrame
from specrg.fock import (
    FockBasis,
    ModeGrid,
    TruncationError,
    build_fock_basis,
    creation_op,
    dilation,
    field_energy,
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


def states(basis):
    """The basis' states as occupation tuples, in its order."""
    return [tuple(int(n) for n in occ) for occ in basis.occupations]


def index_map(basis):
    """Occupation tuple -> state index, from the states alone."""
    return {s: i for i, s in enumerate(states(basis))}


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
        assert states(b)[0] == (0, 0)

    def test_one_particle_states(self):
        b = build_fock_basis(ModeGrid(0.5, 2), n_max=1, e_cut=1.0)
        assert states(b) == [(0, 0), (0, 1), (1, 0)]
        assert b.size == 3

    def test_vacuum_first_always(self):
        b = build_fock_basis(ModeGrid(0.5, 3), n_max=2, e_cut=1.0)
        assert states(b)[0] == (0, 0, 0)
        assert b.hf_values[0] == 0.0

    @pytest.mark.parametrize("J,rho,n_max,e_cut", [
        (3, 0.5, 2, 1.0),
        (5, 0.5, 2, 2.0),
        (4, 0.3, 3, 1.5),
        (8, 0.5, 2, 2.0),
    ])
    def test_matches_brute_force(self, J, rho, n_max, e_cut):
        b = build_fock_basis(ModeGrid(rho, J), n_max, e_cut)
        assert states(b) == brute_force_states(J, rho, n_max, e_cut)

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
        a = creation_op(basis, coeffs).mat.conj().T
        for v in np.eye(2):
            psi = np.kron(v, basis.vacuum_vector())
            assert np.linalg.norm(a @ psi) == 0.0

    def test_one_photon_matrix_element(self, basis, coeffs):
        astar = creation_op(basis, coeffs).mat
        for j in range(basis.grid.levels):
            occ = tuple(1 if k == j else 0 for k in range(basis.grid.levels))
            one = np.zeros(basis.size)
            one[index_map(basis)[occ]] = 1.0
            for a in range(2):
                for b in range(2):
                    bra = np.kron(np.eye(2)[a], one)
                    ket = np.kron(np.eye(2)[b], basis.vacuum_vector())
                    got = np.vdot(bra, astar @ ket)
                    assert got == pytest.approx(coeffs[j][a, b], abs=1e-14)

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
        aF = creation_op(basis, F).mat.conj().T
        cG = creation_op(basis, G).mat
        comm = aF @ cG - cG @ aF
        closed = np.kron(
            sum(f.conj().T @ g for f, g in zip(F, G)), np.eye(basis.size)
        )
        # valid on states whose creation image stays inside the truncation
        safe = [i for i, s in enumerate(states(basis))
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
        one[index_map(basis)[state]] = 1.0
        psi = np.kron(np.eye(2)[0], one)
        assert np.vdot(psi, hf @ psi) == pytest.approx(1.0)

    def test_two_photon_additivity(self):
        b = build_fock_basis(ModeGrid(0.5, 2), 2, 2.0)
        hf = field_energy(b).mat
        i = index_map(b)[(1, 1)]
        assert hf[i, i] == pytest.approx(1.5)

    def test_hf_nonneg_commutes_with_number(self, basis):
        hf = field_energy(basis).mat
        n = np.kron(np.eye(basis.d_at), np.diag(basis.occupations.sum(axis=1)))
        assert np.min(np.real(np.diag(hf))) >= 0.0
        assert np.linalg.norm(hf @ n - n @ hf) == 0.0

    def test_mode_count_mismatch(self, basis):
        with pytest.raises(ValueError):
            creation_op(basis, [np.eye(2)] * (basis.grid.levels + 1))


def dense_gamma(src, d):
    """Gamma of the dilation d of the basis src as a dense 0/1 matrix, built
    from the states alone: row (a, m) of the target has its 1 at column
    (a, (0,) + m) of the source."""
    tgt, index = d.target, index_map(src)
    gamma = np.zeros((tgt.dim, src.dim))
    for a in range(src.d_at):
        for i, m in enumerate(states(tgt)):
            gamma[a * tgt.size + i, a * src.size + index[(0,) + m]] = 1.0
    return gamma


class TestDilation:
    def test_vacuum_fixed(self):
        b = build_fock_basis(ModeGrid(0.5, 4), 2, 1.0)
        d = dilation(b, 0.5)
        assert states(d.target)[0] == (0, 0, 0)
        assert d.rows[0] == 0   # target vacuum <- source vacuum

    def test_shell_shift(self):
        # (0,) + m goes to m, on every atomic block
        b = build_fock_basis(ModeGrid(0.5, 4), 2, 1.0, d_at=2)
        d = dilation(b, 0.5)
        assert d.target.d_at == 2
        index = index_map(b)
        assert d.rows[index_map(d.target)[(0, 0, 1)]] == index[(0, 0, 0, 1)]
        for a in range(2):
            for i, m in enumerate(states(d.target)):
                assert d.rows[a * d.target.size + i] == a * b.size + index[(0,) + m]

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
            gamma = dense_gamma(b, d)
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
        assert np.array_equal(up, dense_gamma(b, d).T @ v)
        assert np.array_equal(up[d.rows], v)
        assert np.count_nonzero(up) == d.target.dim

    def test_scale_mismatch_rejected(self):
        b = build_fock_basis(ModeGrid(0.5, 4), 2, 1.0)
        with pytest.raises(ValueError):
            dilation(b, 0.4)


def verify_pull_through(basis: FockBasis, f, j: int) -> float:
    """Max entrywise residual of a_j f(H_f) - f(H_f + omega_j) a_j on a basis
    with one atomic level.

    Exact on the truncated space (annihilation never leaves the basis), so
    the residual is pure floating-point noise; contract: <= 1e-12.
    """
    unit = [float(k == j) for k in range(basis.grid.levels)]
    aj = creation_op(basis, unit).mat.conj().T
    hf = basis.hf_values
    lhs = aj * f(hf)[None, :]
    rhs = f(hf + basis.grid.omega[j])[:, None] * aj
    return float(np.max(np.abs(lhs - rhs)))


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
        # ||a(G)psi|| <= ||omega^(-1/2)G|| ||H_f^(1/2)psi|| and the creation
        # analog with (omega^(-1)+1)^(1/2) hold on 100 seeded random states,
        # each within a relative excess of 1e-12 over its bound
        gnorms = np.array([np.linalg.norm(g, 2) for g in G])
        c_ann = np.sqrt(np.sum(gnorms**2 / b.grid.omega))
        c_cre = np.sqrt(np.sum((1.0 / b.grid.omega + 1.0) * gnorms**2))
        astar = creation_op(b, G).mat
        hf = np.kron(np.ones(b.d_at), b.hf_values)
        samples = np.random.default_rng(0)
        for _ in range(100):
            psi = samples.standard_normal(b.dim) + 1j * samples.standard_normal(b.dim)
            psi /= np.linalg.norm(psi)
            bound_a = c_ann * np.linalg.norm(np.sqrt(hf) * psi)
            bound_c = c_cre * np.linalg.norm(np.sqrt(hf + 1.0) * psi)
            assert np.linalg.norm(astar.conj().T @ psi) <= (1 + 1e-12) * bound_a
            assert np.linalg.norm(astar @ psi) <= (1 + 1e-12) * bound_c

    def test_one_photon_aligned_explicit(self):
        """Single mode, scalar coupling: ||a(G) (1-photon)|| = |g| exactly,
        bound gives |g| omega^{-1/2} sqrt(omega): equality."""
        b = build_fock_basis(ModeGrid(0.5, 1), 2, 2.0)
        g = 0.7
        a = creation_op(b, [g]).mat.conj().T
        one = np.zeros(b.size)
        one[index_map(b)[(1,)]] = 1.0
        lhs = np.linalg.norm(a @ one)
        bound = (g / np.sqrt(1.0)) * np.sqrt(1.0)
        assert lhs == pytest.approx(bound)


def chain_start(name, levels=None, max_photons=None):
    """The reduced basis of a shipped fixture, its grid or photon cut changed."""
    spec = load_model(name)
    if levels is not None:
        spec = dataclasses.replace(spec, grid=ModeGrid(spec.grid.ratio, levels,
                                                       spec.grid.channel_weight))
    if max_photons is not None:
        spec = dataclasses.replace(spec, n_max=max_photons)
    return spec.reduced_fock_basis()


# the reduced bases the flow starts from, down to the vacuum-only space: the
# fixtures, large-fock-run's input (max_photons 3), 12 levels at max_photons 3
# and 4; and two non-dyadic grids from a basis with e_cut above 1
CHAINS = {
    **{name: (lambda name=name: chain_start(name))
       for name in ("m_triv", "m_exact", "m_pauli", "m_kramers")},
    "large-fock": lambda: chain_start("m_triv", max_photons=3),
    "J12-n3": lambda: chain_start("m_triv", levels=12, max_photons=3),
    "J12-n4": lambda: chain_start("m_triv", levels=12, max_photons=4),
    "rho0.3": lambda: build_fock_basis(ModeGrid(0.3, 7), 3, 2.0, d_at=2),
    "rho0.7": lambda: build_fock_basis(ModeGrid(0.7, 8), 3, 1.5, d_at=3),
}


def t_blocks_by_rows(on, d_at):
    """The row sets of the T blocks of ``Cutoffs``, one per pattern of on
    atoms, the patterns found as unique boolean rows."""
    place = (np.cumsum(on) - 1).reshape(d_at, -1).T
    atoms = on.reshape(d_at, -1).T
    return [place[(atoms == pattern).all(axis=1)][:, pattern]
            for pattern in np.unique(atoms[atoms.any(axis=1)], axis=0)]


def assert_t_blocks(cut, d_at):
    want = t_blocks_by_rows(cut.on, d_at)
    assert len(cut.t_blocks) == len(want)
    for block, rows in zip(cut.t_blocks, want):
        assert block[0] is Ellipsis
        assert np.array_equal(block[1], rows[:, :, None])
        assert np.array_equal(block[2], rows[:, None, :])


class TestDerivedChain:
    @pytest.mark.parametrize("label", CHAINS)
    def test_each_depth_is_the_enumerated_basis(self, label):
        basis = CHAINS[label]()
        depths = 0
        while basis.grid.levels:
            rho = basis.grid.ratio
            d = dilation(basis, rho)
            tgt = d.target
            ref = FockBasis(tgt.grid, basis.n_max, min(1.0, basis.e_cut), basis.d_at)
            for name in ("occupations", "hf_values", "node_energies", "node_rows"):
                got, want = getattr(tgt, name), getattr(ref, name)
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name
            assert (tgt.grid, tgt.n_max, tgt.e_cut, tgt.d_at, tgt.size) \
                == (ref.grid, ref.n_max, ref.e_cut, ref.d_at, ref.size)
            index = index_map(basis)   # the map from occupations to source states
            rows = [a * basis.size + index[(0,) + m]
                    for a in range(basis.d_at) for m in states(ref)]
            assert d.rows.tolist() == rows
            assert_t_blocks(Cutoffs(*CutoffSpec(rho).diagonals(basis), basis.d_at),
                            basis.d_at)
            basis, depths = tgt, depths + 1
        assert depths >= 3

    @pytest.mark.parametrize("name", ["m_triv", "m_exact", "m_pauli", "m_kramers"])
    def test_first_cutoffs_and_reduced_coordinates(self, name):
        spec = load_model(name)
        frame = FirstFrame(spec)
        assert_t_blocks(frame.cut, spec.d_at)
        index = index_map(frame.basis)
        want = [a * frame.basis.size + index[occ]
                for a in range(spec.d) for occ in states(frame.reduced_basis)]
        assert frame.reduced_index.tolist() == want

    @pytest.mark.parametrize("d_at", [1, 2, 3, 4])
    def test_t_blocks_of_random_on_patterns(self, d_at):
        rng = np.random.default_rng(d_at)
        chibar = rng.choice([0.0, 0.5, 1.0], size=d_at * 40, p=[0.4, 0.3, 0.3])
        cut = Cutoffs(np.sqrt(1.0 - chibar**2), chibar, d_at)
        assert_t_blocks(cut, d_at)
        assert len(cut.t_blocks) >= min(2**d_at - 1, 14)   # nearly every pattern occurs

    def test_find_locates_states(self):
        b = build_fock_basis(ModeGrid(0.5, 4), 2, 1.5, d_at=2)
        index = index_map(b)
        assert b.find(b.occupations).tolist() == list(range(b.size))
        assert b.find([(0, 1, 0, 1), (2, 0, 0, 0), (0, 0, 3, 0)]).tolist() \
            == [index[(0, 1, 0, 1)], -1, -1]
