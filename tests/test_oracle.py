"""Principal angles of the dense oracle against scipy and against subspaces
whose angles are known, and the dense spectrum's real and complex paths."""

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from specrg import fock
from specrg.config import load_model
from specrg.model import build_hamiltonian
from specrg.oracle import dense_spectrum, principal_angles


def complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_pair(rng):
    """Two random subspaces of at most 3 columns in 40 to 80 dimensions.
    Every angle lies above 45 degrees, where both codes take the arccos."""
    m = int(rng.integers(40, 81))
    k1, k2 = (int(k) for k in rng.integers(1, 4, size=2))
    return complex_normal(rng, m, k1), complex_normal(rng, m, k2)


def nearly_equal_pair(rng, eps):
    """a, and b = a basis of a range that nearly holds Ran a or nearly lies
    in it, mixed by a random matrix and moved by eps * noise.  Every angle is
    small, where both codes take the arcsin of the sines."""
    m = int(rng.integers(6, 30))
    k1, k2 = (int(k) for k in rng.integers(1, 5, size=2))
    a = complex_normal(rng, m, k1)
    span = a if k2 <= k1 else np.hstack([a, complex_normal(rng, m, k2 - k1)])
    b = span[:, :k2] @ complex_normal(rng, k2, k2) + eps * complex_normal(rng, m, k2)
    return a, b


def test_matches_scipy_on_random_and_nearly_equal_pairs():
    rng = np.random.default_rng(11)
    far = [random_pair(rng) for _ in range(200)]
    near = [nearly_equal_pair(rng, eps) for eps in 10.0 ** -np.arange(3, 15)
            for _ in range(20)]
    # each pair on one side of 45 degrees, where both codes pick alike
    assert min(principal_angles(a, b).min() for a, b in far) > np.pi / 4
    assert max(principal_angles(a, b).max() for a, b in near) < np.pi / 4
    pairs = far + near
    orders = set()
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):   # both column-count orders
            got = principal_angles(x, y)
            assert got.shape == (min(x.shape[1], y.shape[1]),)
            assert np.abs(got - subspace_angles(x, y)).max() <= 1e-15
            orders.add(np.sign(x.shape[1] - y.shape[1]))
    assert orders == {-1, 0, 1}


def test_one_column_against_several():
    rng = np.random.default_rng(5)
    for eps in (1e-3, 1e-8, 1e-14):
        several = complex_normal(rng, 20, 4)
        one = several @ complex_normal(rng, 4, 1) + eps * complex_normal(rng, 20, 1)
        for x, y in ((one, several), (several, one)):
            got = principal_angles(x, y)
            assert got.shape == (1,) and got[0] < 10 * eps
            assert abs(got[0] - subspace_angles(x, y)[0]) <= 1e-15


@pytest.mark.parametrize("small", [1e-3, 1e-8, 1e-12])
def test_known_angles_large_and_small_together(small):
    """Ran a = span(e0, e1, e2) against columns at angles 80 degrees, 30
    degrees and ``small`` from e0, e1, e2, in a random unitary frame.  The
    sines keep the small angle to rounding; an arccos of its cosine would
    read 0 or miss by about 1e-8.  (scipy pairs the cosines, which it sorts
    from the smallest angle up, with angles sorted from the largest down when
    it picks the sines, and misses the small angle here by about 1e-8.)"""
    rng = np.random.default_rng(3)
    frame, _ = np.linalg.qr(complex_normal(rng, 8, 8))
    theta = np.array([np.deg2rad(80.0), np.deg2rad(30.0), small])
    e = np.eye(8)
    a = frame @ e[:, :3] @ complex_normal(rng, 3, 3)
    b = frame @ (e[:, :3] * np.cos(theta) + e[:, 3:6] * np.sin(theta))
    got = principal_angles(a, b)
    assert np.abs(got - theta).max() <= 1e-15


def test_rank_deficient_columns_count_once():
    rng = np.random.default_rng(2)
    a = complex_normal(rng, 10, 2)
    b = np.hstack([a, a[:, :1] * 2.0])   # rank 2 in three columns
    assert np.abs(principal_angles(a, b)).max() <= 1e-15
    assert principal_angles(b, a).shape == (2,)


def eigh_inputs(monkeypatch):
    """List that grows by the matrix of each ``np.linalg.eigh`` call."""
    eigh = np.linalg.eigh
    seen = []

    def recorded(a, *args, **kwargs):
        seen.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return seen


@pytest.mark.parametrize("name", ["m_triv", "m_kramers", "m_pauli", "m_exact"])
def test_a_real_hamiltonian_is_decomposed_in_real_arithmetic(monkeypatch, name):
    spec = load_model(name)
    h = build_hamiltonian(spec, spec.s0)
    assert h.selfadjoint_known and not h.mat.imag.any()
    seen = eigh_inputs(monkeypatch)
    rep = dense_spectrum(h)
    assert len(seen) == 1 and seen[0].dtype == np.float64
    vals, vecs = np.linalg.eigh(h.mat)   # the complex Hermitian decomposition
    assert np.abs(rep.eigenvalues - vals).max() <= 1e-14
    assert rep.multiplicity >= spec.d
    cluster = vecs[:, np.argsort(vals)[: rep.multiplicity]]
    assert principal_angles(rep.cluster_vectors(), cluster).max() <= 1e-12


def test_a_complex_hamiltonian_takes_the_complex_path(monkeypatch):
    rng = np.random.default_rng(4)
    spec = load_model("m_triv")
    basis = spec.full_basis()
    a = complex_normal(rng, basis.dim, basis.dim)
    h = fock.OperatorMatrix(a + a.conj().T, basis, selfadjoint_known=True)
    seen = eigh_inputs(monkeypatch)
    rep = dense_spectrum(h)
    assert len(seen) == 1 and seen[0].dtype == np.complex128
    assert np.abs(rep.eigenvalues - np.sort(np.linalg.eigvalsh(h.mat))).max() <= 1e-12
