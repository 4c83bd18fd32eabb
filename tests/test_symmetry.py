from types import SimpleNamespace

import numpy as np
import pytest

from specrg.model import hyp5_frame

from specrg.symmetry import (
    SymmetryOp,
    conjugate,
    is_irreducible,
    is_symmetry_of,
    schur_scalar,
    vacuum_expectation,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def pauli_plus_one(p):
    """3x3 block p (+) 1."""
    m = np.eye(3, dtype=complex)
    m[:2, :2] = p
    return m


class TestConjugation:
    def test_identity_fixes(self):
        t = np.arange(9).reshape(3, 3).astype(complex)
        s = SymmetryOp(np.eye(3))
        assert np.array_equal(conjugate(s, t), t)

    def test_pure_conjugation_fixes_real_symmetric(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((4, 4))
        t = t + t.T
        s = SymmetryOp(np.eye(4), antiunitary=True)
        assert np.linalg.norm(conjugate(s, t) - t) == 0.0

    def test_block_swap_permutation(self):
        s = SymmetryOp(pauli_plus_one(SX))
        t = np.diag([1.0, 2.0, 3.0]).astype(complex)
        got = conjugate(s, t)
        assert np.allclose(got, np.diag([2.0, 1.0, 3.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            conjugate(SymmetryOp(np.eye(2)), np.eye(3))


class TestIsSymmetryOf:
    def test_identity_operator(self):
        for anti in (False, True):
            ok, res = is_symmetry_of(SymmetryOp(SX, antiunitary=anti), np.eye(2))
            assert ok and res == 0.0

    def test_pauli_anticommute(self):
        ok, res = is_symmetry_of(SymmetryOp(SZ), SX)
        assert not ok
        assert res == pytest.approx(np.sqrt(2) * 2 / np.sqrt(2), rel=1e-12) or res > 0.5

    def test_antiunitary_condition(self):
        # T = (i sy (x) 1) K is a symmetry of a real self-adjoint operator
        # whose atomic parts commute with sy (time-reversal invariance);
        # note T sy T^-1 = -sy, so sy itself is *not* T-symmetric.
        B = np.array([[1.0, 0.3], [-0.3, 1.0]], dtype=complex)  # 1 + 0.3i*sy
        C = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        t = np.kron(B, C) + np.kron(B.conj().T, C.conj().T)
        s = SymmetryOp(np.kron(1j * SY, np.eye(2)), antiunitary=True)
        ok, res = is_symmetry_of(s, t)
        assert ok, res
        ok_sy, _ = is_symmetry_of(SymmetryOp(1j * SY, antiunitary=True), SY)
        assert not ok_sy


def invariant_subspace_search(ops, n_grid=60):
    """Projective-grid oracle for d=2: does a 1-dim invariant subspace exist?

    Coarse scan over the Bloch sphere followed by two grid refinements
    around the best candidate."""

    def residual(a, b):
        v = np.array([np.cos(a), np.sin(a) * np.exp(1j * b)])
        worst = 0.0
        for op in ops:
            w = op.matrix @ (np.conj(v) if op.antiunitary else v)
            worst = max(worst, np.linalg.norm(w - np.vdot(v, w) * v))
        return worst

    a_lo, a_hi = 0.0, np.pi / 2
    b_lo, b_hi = 0.0, 2 * np.pi
    best = (np.inf, 0.0, 0.0)
    for _ in range(3):
        for a in np.linspace(a_lo, a_hi, n_grid):
            for b in np.linspace(b_lo, b_hi, 2 * n_grid, endpoint=False):
                r = residual(a, b)
                if r < best[0]:
                    best = (r, a, b)
        da = (a_hi - a_lo) / n_grid
        db = (b_hi - b_lo) / (2 * n_grid)
        a_lo, a_hi = best[1] - 2 * da, best[1] + 2 * da
        b_lo, b_hi = best[2] - 2 * db, best[2] + 2 * db
    return best[0] < 1e-3


class TestIrreducibility:
    def test_trivial_group_reducible(self):
        assert not is_irreducible([SymmetryOp(np.eye(2))])

    def test_pauli_pair_irreducible(self):
        assert is_irreducible([SymmetryOp(SX), SymmetryOp(SZ)])

    def test_single_antiunitary_kramers(self):
        ops = [SymmetryOp(1j * SY, antiunitary=True)]
        assert is_irreducible(ops)
        assert not invariant_subspace_search(ops)

    def test_diagonal_with_conjugation_reducible(self):
        ops = [SymmetryOp(SZ), SymmetryOp(np.eye(2), antiunitary=True)]
        assert not is_irreducible(ops)
        assert invariant_subspace_search(ops)

    def test_matches_projective_search(self):
        cases = [
            [SymmetryOp(SX)],
            [SymmetryOp(SX), SymmetryOp(SZ)],
            [SymmetryOp(SX), SymmetryOp(1j * SY, antiunitary=True)],
            [SymmetryOp(np.eye(2), antiunitary=True)],
        ]
        for ops in cases:
            assert is_irreducible(ops) == (not invariant_subspace_search(ops))

    def test_restriction_guards_invariance(self):
        s = SymmetryOp(pauli_plus_one(SX))
        frame = np.zeros((3, 2), dtype=complex)
        frame[0, 0] = frame[1, 1] = 1.0
        r = s.restricted(frame)
        assert np.allclose(r.matrix, SX)
        bad_frame = np.zeros((3, 2), dtype=complex)
        bad_frame[0, 0] = bad_frame[2, 1] = 1.0
        with pytest.raises(ValueError):
            s.restricted(bad_frame)


class TestVacuumExpectation:
    def test_identity(self):
        t = np.eye(6, dtype=complex)
        assert np.allclose(vacuum_expectation(t, 2, 3), np.eye(2))

    def test_creation_vanishes(self):
        from specrg.fock import ModeGrid, build_fock_basis, creation_op
        b = build_fock_basis(ModeGrid(0.5, 2), 2, 2.0, d_at=2)
        t = creation_op(b, [np.eye(2), np.eye(2)]).mat
        assert np.linalg.norm(vacuum_expectation(t, 2, b.size)) == 0.0

    def test_shifted_field_energy(self):
        from specrg.fock import ModeGrid, build_fock_basis, field_energy
        b = build_fock_basis(ModeGrid(0.5, 2), 2, 2.0, d_at=2)
        t = field_energy(b).mat + 3.7 * np.eye(b.dim)
        assert np.allclose(vacuum_expectation(t, 2, b.size), 3.7 * np.eye(2))

    def test_adjoint_identity_random(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            t = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            lhs = vacuum_expectation(t.conj().T, 2, 4)
            rhs = vacuum_expectation(t, 2, 4).conj().T
            assert np.linalg.norm(lhs - rhs) == 0.0


class TestSchurScalar:
    def test_scalar_input(self):
        t = 5.0 * np.eye(8, dtype=complex)
        c, dev = schur_scalar(t, 2, 4)
        assert c == pytest.approx(5.0)
        assert dev == 0.0

    def test_no_symmetry_fails_as_expected(self):
        t = np.kron(np.diag([1.0, 2.0]), np.eye(4)).astype(complex)
        c, dev = schur_scalar(t, 2, 4)
        assert c == pytest.approx(1.5)
        assert dev == pytest.approx(0.5)


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]], dtype=complex)


def rotated_projection(s):
    """P(s) = R(s) P0 R(s)^-1 for the rotation R(s) by angle s and
    P0 = diag(1, 0); Kato's U(s) = P(s) P0 + (1 - P(s))(1 - P0) is then
    cos(s) R(s)."""
    c, sn = np.cos(s), np.sin(s)
    r = np.array([[c, -sn], [sn, c]], dtype=complex)
    return r @ np.diag([1.0, 0.0]) @ np.linalg.inv(r)


def family(p, s0=0.0):
    """The two attributes of a model that ``hyp5_frame`` reads, for a
    projection family p given in closed form."""
    return SimpleNamespace(p_at=p, s0=s0)


class TestTransformationFunction:
    """Kato's transformation function U(s) = P(s) P0 + (1 - P(s))(1 - P0)
    as ``model.hyp5_frame`` builds it."""

    def test_constant_projection(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        assert np.array_equal(hyp5_frame(family(lambda s: p0), 1.0), np.eye(2))

    def test_rotation_family_closed_form(self):
        # P(s) = R(s) P0 R(s)^-1 gives U(s) = cos(s) R(s)
        for s in (0.5, 0.3 + 0.2j):
            u = hyp5_frame(family(rotated_projection), s)
            c, sn = np.cos(s), np.sin(s)
            assert np.linalg.norm(u - c * np.array([[c, -sn], [sn, c]])) <= 1e-15
            p0 = rotated_projection(0.0)
            assert np.linalg.norm(u @ p0 @ np.linalg.inv(u) - rotated_projection(s)) <= 1e-14

    def test_symmetry_intertwining(self):
        """S U(s) S* = U(s) for unitary S commuting with the whole family."""
        s_op = SymmetryOp(np.kron(SX, np.eye(2)))

        def p(s):
            return np.kron(np.eye(2), rotated_projection(s))

        ok, _ = is_symmetry_of(s_op, p(0.3))
        assert ok
        u = hyp5_frame(family(p), 0.3 - 0.1j)
        assert np.linalg.norm(conjugate(s_op, u) - u) <= 1e-15

    def test_complementary_projection_raises(self):
        # P(s) = 1 - P0: U(s) = 0, and the error names s
        p0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ArithmeticError, match=r"s=0\.7"):
            hyp5_frame(family(lambda s: p0 if s == 0.0 else np.eye(2) - p0), 0.7)
