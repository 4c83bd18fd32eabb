import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from specrg.fock import (
    FockBasis,
    ModeGrid,
    OperatorMatrix,
    build_fock_basis,
    creation_op,
    field_energy,
)
from specrg.kernels import (
    BasisSpline,
    PchipNodes,
    extract_w00,
    hermite,
    polydisc_check,
)
from specrg.config import load_model
from specrg.model import PROFILES
from specrg.rg import C_CHI, C_GAMMA, Flow, contraction_factor, flow_scale, run_ladder


def make_basis(J=4, rho=0.5, d=2, n_max=2, e_cut=1.0):
    return build_fock_basis(ModeGrid(rho, J), n_max, e_cut, d_at=d)


def linear_w00(const, slope):
    """Nodes, values and slopes of w(r) = const + r * slope: on two nodes
    the monotone cubic is the line."""
    const = np.atleast_2d(np.asarray(const, dtype=complex))
    slope = np.atleast_2d(np.asarray(slope, dtype=complex))
    return np.array([0.0, 1.0]), np.stack([const, const + slope]), np.stack([slope, slope])


def diagonal_blocks(blocks, basis) -> np.ndarray:
    """sum_i blocks[i] (x) |i><i| in atomic-major layout, for d x d blocks
    one per Fock state, shape (size, ..., d, d); the axes between are a
    stack, and the result carries them in front."""
    mat = np.einsum("i...ac,ij->...aicj", blocks, np.eye(basis.size))
    return mat.reshape(blocks.shape[1:-2] + (basis.dim, basis.dim))


def assert_t_is_hermite(ext):
    """The extraction's w00(H_f) against ``hermite`` at the basis' H_f
    values, entry by entry: within 1e-15 where T's entries are at most 1,
    and relative to the largest entry where the end piece extrapolates to
    larger values (there both evaluations round at its scale)."""
    basis = ext.source.basis
    want = diagonal_blocks(hermite(ext.nodes, ext.node_values, ext.slopes,
                                   basis.hf_values)[0], basis)
    got = ext.hf_matrix()
    assert got.shape == want.shape == ext.source.mat.shape
    assert np.abs(got - want).max() <= 1e-15 * max(1.0, np.abs(want).max())


def h_of_w00(w00, basis) -> OperatorMatrix:
    """H(w) with only the diagonal kernel: w00(H_f)."""
    return OperatorMatrix(diagonal_blocks(hermite(*w00, basis.hf_values)[0], basis), basis)


def line_at(w00, r):
    nodes, values, _ = w00
    return values[0][None] + np.asarray(r)[:, None, None] * (values[1] - values[0])[None]


def shell_coeffs(basis, amp):
    """Per-shell matrices sqrt(shell measure) amp(omega_j) 1 of a
    rotation-invariant kernel for ``creation_op``."""
    c = PROFILES["one"].shell_coeffs(basis.grid)
    return [c[j] * amp(basis.grid.omega[j]) * np.eye(basis.d_at)
            for j in range(basis.grid.levels)]


def index_map(basis: FockBasis) -> dict:
    """Occupation tuple -> Fock index, from the basis' occupation rows."""
    return {tuple(int(n) for n in occ): i for i, occ in enumerate(basis.occupations)}


def one_photon_states(basis: FockBasis) -> list[int]:
    """Fock indices of the vacuum and the one-photon states, by increasing
    energy, from the occupation tuples."""
    J, index = basis.grid.levels, index_map(basis)
    return [0] + [index[occ] for j in range(J - 1, -1, -1)
                  if (occ := tuple(int(k == j) for k in range(J))) in index]


def blocks_node_by_node(h: OperatorMatrix) -> np.ndarray:
    """The vacuum and one-photon diagonal blocks of h, gathered one node at
    a time."""
    fock, d = one_photon_states(h.basis), h.basis.d_at
    out = np.empty((len(fock),) + h.mat.shape[:-2] + (d, d), dtype=complex)
    for t, i in enumerate(fock):
        rows = np.arange(d) * h.basis.size + i
        out[t] = h.mat[(..., *np.ix_(rows, rows))]
    return out


# e_cut 0.3 keeps the one-photon states of the two lowest of four shells;
# e_cut 1.6 keeps H_f values up to 1.5, past the last node at 1
BASES = [make_basis(J=4, d=1), make_basis(J=5, d=2), make_basis(J=3, d=3, n_max=3),
         make_basis(J=4, d=2, e_cut=0.3), make_basis(J=3, d=1, e_cut=1.6),
         FockBasis(ModeGrid(0.5, 0), 2, 1.0, d_at=2)]
BASIS_IDS = ["J4-d1", "J5-d2", "J3-d3", "J4-cut", "J3-past-last-node", "vacuum-only"]


def random_stack(basis, seed=5) -> OperatorMatrix:
    """A stack of K = 4 random complex operators on the basis."""
    rng = np.random.default_rng(seed)
    shape = (4, basis.dim, basis.dim)
    return OperatorMatrix(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), basis)


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def scipy_fit(x, y):
    """Values and slopes at x, plus values and derivatives on 101 points of
    [x[0], x[-1]], from scipy's PchipInterpolator."""
    f = PchipInterpolator(x, y, axis=0)
    r = np.linspace(x[0], x[-1], 101)
    return f.derivative()(x), f(r), f.derivative()(r), r


def creation_by_kron(basis: FockBasis, coeffs) -> np.ndarray:
    """sum_j G_j (x) a*_j, with a*_j filled state by state from the basis'
    occupation tuples and added as a Kronecker product per mode."""
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for j, c in enumerate(coeffs):
        g = np.asarray(c, dtype=complex)
        if g.ndim == 0:
            g = g * np.eye(basis.d_at)
        raise_j = np.zeros((basis.size, basis.size), dtype=complex)
        index = index_map(basis)
        for occ, i in index.items():
            k = index.get(occ[:j] + (occ[j] + 1,) + occ[j + 1:])
            if k is not None:
                raise_j[k, i] = np.sqrt(occ[j] + 1.0)
        mat += np.kron(g, raise_j)
    return mat


class TestCreationOp:
    @pytest.mark.parametrize("basis", BASES, ids=BASIS_IDS)
    def test_equals_the_kron_sum_bit_for_bit(self, basis):
        rng = np.random.default_rng(3)
        J, d = basis.grid.levels, basis.d_at
        scalars = list(rng.standard_normal(J) + 1j * rng.standard_normal(J))
        blocks = list(rng.standard_normal((J, d, d)) + 1j * rng.standard_normal((J, d, d)))
        real = list(rng.standard_normal((J, d, d)))
        if J:
            scalars[0] = -0.0
            blocks[0][0, 0] = complex(-0.0, 0.0)
            blocks[-1][-1, -1] = complex(0.0, -0.0)
            blocks[-1][0, -1] = complex(-0.0, -0.0)
            real[0][-1, 0] = -0.0
        for coeffs in (scalars, blocks, real):
            assert bits(creation_op(basis, coeffs).mat) == bits(creation_by_kron(basis, coeffs))


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
            slopes = PchipNodes(x).slopes(y)
            want_slopes, want_v, want_dv, r = scipy_fit(x, y)
            v, dv = hermite(x, y, slopes, r)
            assert np.abs(slopes - want_slopes).max() <= 1e-14 * max(1.0, np.abs(want_slopes).max())
            assert np.abs(v - want_v).max() <= 1e-14
            assert np.abs(dv - want_dv).max() <= 1e-14 * max(1.0, np.abs(want_dv).max())

    def test_two_nodes_give_the_line(self):
        x = np.array([0.0, 0.5])
        y = np.array([[1.0], [2.0]])
        slopes = PchipNodes(x).slopes(y)
        assert np.array_equal(slopes, [[2.0], [2.0]])
        v, dv = hermite(x, y, slopes, np.array([0.0, 0.25, 0.5, 0.75]))
        assert np.abs(v[:, 0] - [1.0, 1.5, 2.0, 2.5]).max() <= 1e-15
        assert np.abs(dv - 2.0).max() <= 1e-15

    def test_flat_segment_and_sign_change_have_zero_slope(self):
        x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        y = np.array([[0.0], [1.0], [1.0], [0.0], [2.0]])   # flat, then down, then up
        slopes = PchipNodes(x).slopes(y)
        assert slopes[1, 0] == 0.0 and slopes[2, 0] == 0.0 and slopes[3, 0] == 0.0
        assert np.allclose(slopes, scipy_fit(x, y)[0], rtol=0, atol=1e-14)
        v, _ = hermite(x, y, slopes, np.linspace(0.25, 0.5, 7))
        assert np.array_equal(v[:, 0], np.ones(7))   # no overshoot on the flat piece

    def test_one_node_is_a_constant(self):
        x = np.array([0.0])
        y = np.array([[[1.0 + 2.0j, 0.5]]])
        slopes = PchipNodes(x).slopes(y)
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
        ext = extract_w00(h, BasisSpline(h.basis))
        r = ext.kernel.r_grid
        assert r.size == 65
        assert np.abs(ext.kernel.values - line_at(w00, r)).max() < 1e-10
        assert np.abs(ext.hf_matrix() - h.mat).max() < 1e-12

    def test_g0_first_level_shape(self):
        b = make_basis(J=4, d=2)
        e_at, z = 0.0, -0.05
        w00 = linear_w00((e_at - z) * np.eye(2), np.eye(2))
        h = h_of_w00(w00, b)
        ext = extract_w00(h, BasisSpline(h.basis))
        assert np.abs(ext.node_values[0] - (e_at - z) * np.eye(2)).max() < 1e-12
        r = ext.kernel.r_grid
        assert np.abs(ext.kernel.values - line_at(w00, r)).max() < 1e-12

    def test_planted_11_contamination_bounded(self):
        b = make_basis(J=4, d=1, n_max=2)
        coeffs = shell_coeffs(b, lambda w: 1.0)
        astar = creation_op(b, coeffs).mat
        h = OperatorMatrix(astar @ astar.conj().T, b)
        ext = extract_w00(h, BasisSpline(h.basis))
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
        ext = extract_w00(OperatorMatrix(mat, b), BasisSpline(b))
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
        # the one fit of the real view is the two fits of .real and .imag, bit
        # for bit, also where a slope is a signed zero: here the real part of
        # entry (0, 0) is +0 on the vacuum and -0 on every photon node, which
        # makes its first slope -0, and its imaginary part increases
        signed = mat.copy()
        for t, (row, *_) in enumerate(b.node_rows):
            signed[row, row] = complex(0.0 if t == 0 else -0.0, t)
        for m in (mat, signed):
            ext = extract_w00(OperatorMatrix(m, b), BasisSpline(b))
            v = ext.node_values
            assert bits(ext.slopes.real) == bits(PchipNodes(ext.nodes).slopes(v.real))
            assert bits(ext.slopes.imag) == bits(PchipNodes(ext.nodes).slopes(v.imag))
        assert np.signbit(ext.slopes[0, 0, 0].real)

    @pytest.mark.parametrize("basis", BASES, ids=BASIS_IDS)
    def test_one_gather_equals_the_node_loop(self, basis):
        stack = random_stack(basis)
        fock = one_photon_states(basis)
        assert basis.node_rows.tolist() == [[i + a * basis.size for a in range(basis.d_at)]
                                            for i in fock]
        assert basis.node_energies.tolist() == basis.hf_values[fock].tolist()
        for h in (stack, OperatorMatrix(stack.mat[2], basis)):
            ext = extract_w00(h, BasisSpline(h.basis))
            want = blocks_node_by_node(h)
            assert ext.node_values.shape == want.shape
            assert bits(ext.node_values) == bits(want)

    @pytest.mark.parametrize("basis", BASES, ids=BASIS_IDS)
    def test_t_is_hermite_at_the_hf_values(self, basis):
        stack = random_stack(basis)
        spline = BasisSpline(basis)
        for h in (stack, OperatorMatrix(stack.mat[1], basis)):
            ext = extract_w00(h, spline)
            assert ext.spline is spline
            assert_t_is_hermite(ext)

    @pytest.mark.parametrize("name", ["m_triv", "m_kramers", "m_pauli", "m_exact"])
    def test_t_is_hermite_on_every_depth_basis(self, name):
        spec = load_model(name)
        flow = Flow(spec, spec.s0, False)
        z = spec.e_at(spec.s0)
        zs = z + 1e-3 * np.exp(0.5j * np.pi * np.arange(4))
        for n in range(spec.grid.levels + 2):   # down to the vacuum-only space
            for at in (z, zs):
                level = run_ladder(flow, at, n, check_windows=False)
                assert level.ext.spline is flow.depth(level.n).spline
                assert_t_is_hermite(level.ext)

    def test_a_spline_serves_only_its_basis(self):
        b = make_basis(J=4, d=1)
        h = OperatorMatrix(np.eye(b.dim, dtype=complex), b)
        with pytest.raises(ValueError, match="another basis"):
            extract_w00(h, BasisSpline(make_basis(J=4, d=1)))

    def test_vacuum_only_space(self):
        b = FockBasis(ModeGrid(0.5, 0), 2, 1.0, d_at=2)   # a flow's terminal space
        mat = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        ext = extract_w00(OperatorMatrix(mat, b), BasisSpline(b))
        assert ext.nodes.tolist() == [0.0]
        assert np.array_equal(ext.hf_matrix(), mat)
        assert ext.kernel.r_grid.tolist() == [0.0]
        assert np.array_equal(ext.kernel.derivs, np.zeros((1, 2, 2)))

    def test_interpolation_derivative(self):
        b = make_basis(J=5, d=1)
        w00 = linear_w00(np.array([[0.5]]), np.array([[2.0]]))
        h = h_of_w00(w00, b)
        ext = extract_w00(h, BasisSpline(h.basis))
        assert np.abs(ext.kernel.derivs - 2.0).max() < 1e-9


class TestPolydisc:
    def test_field_energy_in_every_disc(self):
        b = make_basis()
        h = h_of_w00(linear_w00(np.zeros((2, 2)), np.eye(2)), b)
        ext = extract_w00(h, BasisSpline(h.basis))
        chk = polydisc_check(ext)
        assert np.abs(ext.node_values[0]).max() == 0.0
        assert chk.beta_hat < 1e-12 and chk.gamma_hat < 1e-12

    def test_measures_shift_and_slope(self):
        b = make_basis(d=1)
        w00 = linear_w00(np.array([[0.2]]), np.array([[1.3]]))
        h = h_of_w00(w00, b)
        ext = extract_w00(h, BasisSpline(h.basis))
        chk = polydisc_check(ext)
        assert ext.node_values[0, 0, 0] == pytest.approx(0.2, abs=1e-10)
        assert chk.beta_hat == pytest.approx(0.3, abs=1e-8)

    def test_interaction_shows_in_gamma(self):
        b = make_basis(d=1)
        w00 = linear_w00(np.array([[0.0]]), np.array([[1.0]]))
        h10 = creation_op(b, shell_coeffs(b, lambda w: 0.1 * w))
        h = OperatorMatrix(h_of_w00(w00, b).mat + h10.mat, b)
        chk = polydisc_check(extract_w00(h, BasisSpline(h.basis)))
        assert chk.gamma_hat > 1e-3

    def test_recursion_constants(self):
        assert (C_CHI, C_GAMMA) == (1.0, 128.0)
        # rho and mu come from the model: its grid ratio and infrared exponent
        spec = load_model("m_triv")
        assert (spec.grid.ratio, spec.mu) == (0.5, 0.5)
        assert flow_scale(spec) == 0.5
        assert contraction_factor(spec) == pytest.approx(128.0 * np.sqrt(0.5))
        assert round(contraction_factor(spec), 1) == 90.5   # > 1: inadmissible
