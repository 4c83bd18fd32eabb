import dataclasses
import itertools
import json

import numpy as np
import pytest
from scipy.integrate import quad

from specrg import model
from specrg.config import ConfigError, load_model, parse_model_config
from specrg.fock import FOUR_PI, ModeGrid, build_fock_basis
from specrg.model import (
    PROFILES,
    ContourError,
    InfraredError,
    ModelSpec,
    build_hamiltonian,
    coupling_norm_mu,
    hyp5_frame,
    projection_rank,
    spectral_projection,
    verify_hypotheses,
    WindowError,
)


def minimal_doc():
    return {
        "schema_version": 1,
        "name": "tiny",
        "dims": {"atomic": 1, "degeneracy": 1},
        "atomic_hamiltonian": [[[[0.0, 0.0]]]],
        "coupling": {"profile": "r", "matrix1": [[[[1.0, 0.0]]]]},
        "coupling_strength": 0.1,
        "infrared_exponent": 0.5,
        "reference_point": [0.0, 0.0],
        "region_radius": 0.2,
        "window_radius": 0.45,
        "contour_radius": 0.5,
        "grid": {"ratio": 0.5, "levels": 4},
        "truncation": {"max_photons": 2, "energy_cutoff": 2.0},
    }


class TestConfigParsing:
    def test_minimal_roundtrip(self):
        spec = parse_model_config(minimal_doc())
        assert spec.d_at == 1 and spec.d == 1
        assert spec.grid.levels == 4

    def test_unknown_toplevel_key(self):
        doc = minimal_doc()
        doc["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            parse_model_config(doc)

    def test_unknown_nested_key(self):
        doc = minimal_doc()
        doc["grid"]["extra"] = 2
        with pytest.raises(ConfigError, match="extra"):
            parse_model_config(doc)

    def test_schema_version(self):
        doc = minimal_doc()
        doc["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            parse_model_config(doc)

    def test_dispersion_hook_reserved(self):
        doc = minimal_doc()
        doc["dispersion"] = "massless"
        parse_model_config(doc)  # default value accepted
        doc["dispersion"] = "massive"
        with pytest.raises(ConfigError, match="dispersion"):
            parse_model_config(doc)

    def test_infrared_divergence_rejected_at_load(self):
        doc = minimal_doc()
        doc["infrared_exponent"] = 1.5  # needs 2p+1-2mu > 0, p=1 gives 0
        with pytest.raises(InfraredError):
            parse_model_config(doc)

    def test_broken_symmetry_rejected_unless_deferred(self):
        doc = minimal_doc()
        doc["dims"] = {"atomic": 2, "degeneracy": 2}
        doc["atomic_hamiltonian"] = [[[[0, 0], [0, 0]], [[0, 0], [0, 0]]]]
        doc["coupling"]["matrix1"] = [[[[1, 0], [0, 0]], [[0, 0], [2, 0]]]]
        doc["symmetry_generators"] = [
            {"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}]  # sx
        with pytest.raises(ConfigError):
            parse_model_config(doc)
        spec = parse_model_config(doc, validate=False)
        assert spec.d == 2

    def test_nonunitary_generator_rejected(self):
        doc = minimal_doc()
        doc["symmetry_generators"] = [{"matrix": [[[2.0, 0.0]]]}]
        with pytest.raises(ConfigError):
            parse_model_config(doc)

    def test_fixture_names_load(self):
        for name in ("m_triv", "m_exact", "m_pauli", "m_kramers"):
            spec = load_model(name)
            assert spec.name == name


class TestCouplingNorm:
    def test_linear_profile_closed_form(self):
        # ||G||_mu^2 = 4 pi / (3 - 2 mu) for g(r) = r, scalar coupling
        got = coupling_norm_mu(PROFILES["r"], 0.5)
        assert got**2 == pytest.approx(FOUR_PI / 2.0, rel=1e-14)
        assert got == pytest.approx(2.5066282746310002, rel=1e-12)

    @pytest.mark.parametrize("tag,mu", [("r", 0.25), ("r", 1.2), ("r2", 0.5),
                                        ("one", 0.25)])
    def test_quadrature_cross_check(self, tag, mu):
        # integrand |g(r)|^2 r^(-2-2mu) * 4 pi r^2 = 4 pi r^(2p - 2mu)
        p = PROFILES[tag]
        val, _ = quad(lambda r: FOUR_PI * r ** (2 * p.power - 2 * mu), 0, 1)
        assert coupling_norm_mu(p, mu) == pytest.approx(np.sqrt(val), rel=1e-10)

    def test_divergence_boundary(self):
        with pytest.raises(InfraredError):
            coupling_norm_mu(PROFILES["r"], 1.5)
        with pytest.raises(InfraredError):
            coupling_norm_mu(PROFILES["one"], 0.5)

    def test_zero_matrix(self):
        assert coupling_norm_mu(PROFILES["r"], 0.5, np.zeros((2, 2))) == 0.0

    def test_matrix_factor(self):
        b = np.diag([1.0, 3.0])
        assert coupling_norm_mu(PROFILES["r"], 0.5, b) == pytest.approx(
            3.0 * coupling_norm_mu(PROFILES["r"], 0.5))


class TestBuildHamiltonian:
    def test_g0_minkowski_spectrum(self):
        spec = load_model("m_pauli")
        basis = build_fock_basis(ModeGrid(0.5, 3), 2, 2.0, spec.d_at)
        h = build_hamiltonian(spec, spec.s0, 0.0, basis)
        at = np.linalg.eigvalsh(spec.h_at(spec.s0))
        want = sorted(a + f for a, f in
                      itertools.product(at, basis.hf_values))
        got = np.sort(np.linalg.eigvalsh(h.mat))
        assert np.allclose(got, want, atol=1e-12)

    def test_triv_is_displaced_field(self):
        """Scalar atom at zero energy: H = H_f + g(a(c) + a*(c))."""
        spec = load_model("m_triv")
        basis = spec.full_basis()
        h = build_hamiltonian(spec, spec.s0, 0.1, basis)
        from specrg.fock import creation_op, field_energy
        c = spec.profile.shell_coeffs(spec.grid)
        w = creation_op(basis, list(c)).mat
        ref = field_energy(basis).mat + 0.1 * (w + w.conj().T)
        assert np.abs(h.mat - ref).max() < 1e-14

    def test_hermiticity_real_s(self):
        spec = load_model("m_pauli")
        h = build_hamiltonian(spec, 0.05, 0.1)
        assert h.selfadjoint_known
        assert np.abs(h.mat - h.mat.conj().T).max() < 1e-12

    def test_region_enforced(self):
        spec = load_model("m_triv")
        with pytest.raises(WindowError):
            build_hamiltonian(spec, 0.5)

    def test_reflection_pairs(self):
        spec = load_model("m_pauli")
        s = 0.05 + 0.1j
        h1 = build_hamiltonian(spec, s).mat
        h2 = build_hamiltonian(spec, np.conj(s)).mat
        assert np.abs(h1.conj().T - h2).max() < 1e-12


class TestSpectralProjection:
    def test_diagonal_example(self):
        h = np.diag([0.0, 0.0, 1.0]).astype(complex)
        p = spectral_projection(h, 0.0, 0.5)
        assert np.abs(p - np.diag([1, 1, 0])).max() < 1e-12
        assert projection_rank(p) == 2

    def test_node_refinement(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 6))
        h = np.diag([0.1, 0.2, 5.0, 6.0, 7.0, 8.0]) + 0.05 * (a + a.T)
        p16 = spectral_projection(h, 0.15, 0.8, n_nodes=16)
        p32 = spectral_projection(h, 0.15, 0.8, n_nodes=32)
        assert np.linalg.norm(p16 - p32) < 1e-10

    def test_node_floor_matches_eigh(self):
        # one enclosed eigenvalue at 0.33 of the radius: 16 nodes alone give
        # ~1.5e-8, the node count raised from the eigenvalue distances ~1e-12
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 6))
        h = np.diag([0.1, 0.2, 5.0, 6.0, 7.0, 8.0]) + 0.05 * (a + a.T)
        w, v = np.linalg.eigh(h)
        vin = v[:, np.abs(w - 0.15) < 0.8]
        p16 = spectral_projection(h, 0.15, 0.8, n_nodes=16)
        assert np.linalg.norm(p16 - vin @ vin.T) < 1e-10

    def test_eigenvalue_near_exclusion_limit(self):
        # enclosed eigenvalue at 0.85 of the radius: 64 nodes alone give ~3e-5
        h = np.diag([0.85, 2.5, 4.0]).astype(complex)
        p = spectral_projection(h, 0.0, 1.0)
        assert np.linalg.norm(p - np.diag([1.0, 0.0, 0.0])) < 1e-10

    def test_gate_error_names_nodes_and_residual(self):
        h = np.diag([0.85, 2.5, 4.0]).astype(complex)
        with pytest.raises(ContourError, match=r"64 nodes, \|\|P\^2-P\|\| = 3\.\d+e-05"):
            spectral_projection(h, 0.0, 1.0, check=False)

    def test_pauli_region_matches_eig(self):
        # h_at(s) is not self-adjoint for complex s: build the reference
        # projector from the left and right eigenvectors of eig, not eigh
        spec = load_model("m_pauli")
        eigs0 = np.linalg.eigvals(spec.h_at(spec.s0))
        center = np.mean(eigs0[np.argsort(eigs0.real)[: spec.d]])
        ring = [spec.s0 + spec.region_radius * np.exp(2j * np.pi * k / 36)
                for k in range(36)]
        for s in [spec.s0] + ring:
            w, v = np.linalg.eig(spec.h_at(s))
            sel = np.abs(w - center) < spec.contour_radius
            ref = v[:, sel] @ np.linalg.inv(v)[sel, :]
            assert np.linalg.norm(spec.p_at(s) - ref) < 1e-12, s

    def test_eigenvalue_on_contour_detected(self):
        h = np.diag([0.0, 0.5, 2.0]).astype(complex)
        with pytest.raises(ContourError):
            spectral_projection(h, 0.0, 0.52)

    def test_commutes_and_reproduces_span(self):
        spec = load_model("m_pauli")
        for s in (0.0, 0.1, 0.1 + 0.05j):
            hat = spec.h_at(s)
            p = spec.p_at(s)
            assert np.linalg.norm(hat @ p - p @ hat) < 1e-10
            assert projection_rank(p) == 2

    def test_rank_constant_along_path(self):
        spec = load_model("m_pauli")
        for s in np.linspace(-0.15, 0.15, 7):
            assert projection_rank(spec.p_at(s)) == 2


class TestVerifyHypotheses:
    @pytest.mark.parametrize("name", ["m_triv", "m_exact", "m_pauli",
                                      "m_kramers"])
    def test_fixtures_pass(self, name):
        rep = verify_hypotheses(load_model(name))
        assert rep.all_passed, [e.name for e in rep.entries
                                if e.applicable and not e.passed]

    def test_pauli_irreducibility_entry(self):
        rep = verify_hypotheses(load_model("m_pauli"))
        entries = {e.name: e for e in rep.entries}
        assert entries["symmetry_irreducible"].passed

    def test_degenerate_without_symmetry_fails(self):
        spec = load_model("m_exact")
        spec.generators = []
        rep = verify_hypotheses(spec)
        e = {e.name: e for e in rep.entries}["symmetry_irreducible"]
        assert e.applicable and not e.passed


def varying_projection_spec():
    """Atomic family whose eigenprojection genuinely rotates with s."""
    return ModelSpec(
        name="varp", d_at=2, d=1,
        hat_coeffs=[np.diag([0.0, 1.0]).astype(complex),
                    np.array([[0, 1], [1, 0]], dtype=complex)],
        profile=PROFILES["r"],
        b1_coeffs=[np.eye(2, dtype=complex)],
        b2_coeffs=[np.eye(2, dtype=complex)],
        g=0.1, mu=0.5, s0=0.0,
        region_radius=0.15, window_radius=0.45, contour_radius=0.4,
        grid=ModeGrid(0.5, 5), n_max=2, e_cut=2.0,
        reflection_symmetric=True,
    )


#: a real, an imaginary and a complex point of the region |s| <= 0.15
VARYING_S = (0.1, 0.15j, -0.1 + 0.1j)


class TestVaryingProjection:
    def test_projection_varies(self):
        spec = varying_projection_spec()
        assert np.linalg.norm(spec.p_at(0.1) - spec.p_at(0.0)) > 1e-3

    def test_frame_conjugates_projection(self):
        spec = varying_projection_spec()
        p0 = spec.p_at(spec.s0)
        for s in VARYING_S:
            u = hyp5_frame(spec, s)
            assert np.linalg.norm(u @ p0 @ np.linalg.inv(u) - spec.p_at(s)) <= 1e-13

    def test_frame_is_analytic(self):
        # Cauchy-Riemann: the x- and y-difference quotients of U(s) agree
        spec = varying_projection_spec()
        h = 1e-4
        for s in VARYING_S:
            dx = (hyp5_frame(spec, s + h) - hyp5_frame(spec, s - h)) / (2 * h)
            dy = (hyp5_frame(spec, s + 1j * h) - hyp5_frame(spec, s - 1j * h)) / (2j * h)
            assert np.linalg.norm(dx - dy) <= 1e-6

    def test_frame_projects_each_half_step_point_once(self, monkeypatch):
        # U(s) reads P_at at s0 and at s alone
        spec = varying_projection_spec()
        projection = model.spectral_projection
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return projection(*args, **kwargs)

        monkeypatch.setattr(model, "spectral_projection", counted)
        hyp5_frame(spec, 0.1)
        assert len(calls) == 2

    def test_p_at_memo_is_read_only_and_per_spec(self):
        spec = varying_projection_spec()
        s = 0.1
        p = spec.p_at(s)
        assert not p.flags.writeable
        with pytest.raises(ValueError):
            p[0, 0] = 1.0
        assert spec.p_at(complex(s)) is p
        assert np.array_equal(p, spectral_projection(spec.h_at(s), 0.0, 0.4))
        # shifted and steeper family: the copy must get its own center and memo
        other = dataclasses.replace(spec, hat_coeffs=[
            spec.hat_coeffs[0] + 0.3 * np.eye(2), 2.0 * spec.hat_coeffs[1]])
        q = other.p_at(s)
        assert np.array_equal(q, spectral_projection(other.h_at(s), 0.3, 0.4))
        assert np.linalg.norm(q - p) > 1e-3
        assert spec.p_at(s) is p

    def test_pipeline_with_preprocessing_hits_oracle(self):
        from specrg.rg import iterate_to_fixed_point
        from specrg.oracle import dense_spectrum
        spec = varying_projection_spec()
        for s in VARYING_S:
            res = iterate_to_fixed_point(spec, s, False)
            rep = dense_spectrum(build_hamiltonian(spec, s))
            assert res.converged
            assert np.min(np.abs(rep.eigenvalues - res.z_inf)) <= 1e-12

    def test_eigenvectors_lift_through_the_frame(self):
        from specrg.rg import build_eigenvectors, iterate_to_fixed_point
        spec = varying_projection_spec()
        for s in VARYING_S:
            # P_at varies, so U(s) enters the first decimation's frame
            assert np.linalg.norm(spec.p_at(s) - spec.p_at(spec.s0)) > 1e-12
            res = iterate_to_fixed_point(spec, s, False)
            ev = build_eigenvectors(res.flow, res.z_inf)
            assert max(ev.residuals) <= 1e-12
