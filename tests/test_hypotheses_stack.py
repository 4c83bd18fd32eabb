"""The stacked hypotheses pass against the sample-by-sample one it
replaced: ``verify_hypotheses`` projects its 13 samples of s with one
``spectral_projection``, takes one 2-norm over the 26 coupling matrices and
one solve and one 2-norm over every (s, z, q) shift of the resolvent bound,
and every entry it reports equals the reference's."""

import dataclasses

import numpy as np
import pytest

from specrg import model
from specrg.config import load_model
from specrg.fock import build_fock_basis
from specrg.model import (
    ContourError,
    HypEntry,
    HypothesesReport,
    InfraredError,
    ModelSpec,
    _sample_ring,
    build_hamiltonian,
    coupling_norm_mu,
    projection_rank,
    validate_generators,
    verify_hypotheses,
)
from specrg.symmetry import SymmetryOp, is_irreducible, is_symmetry_of
from test_model import projection_node_by_node, varying_projection_spec


def per_sample_verify_hypotheses(spec: ModelSpec) -> HypothesesReport:
    """The hypotheses pass as it was when it took its 13 samples one at a
    time: one p_at per sample, one 2-norm per coupling matrix, and per
    sample one SVD of 1 - P_at(s), one solve and one 2-norm."""
    entries = []
    s_samples = [spec.s0] + _sample_ring(spec.s0, spec.region_radius, 6) \
        + _sample_ring(spec.s0, 0.5 * spec.region_radius, 6)

    # coupling regularity and finiteness of the weighted norms
    try:
        worst = 0.0
        for s in s_samples:
            for b in (spec.b1(np.conj(s)), spec.b2(s)):
                worst = max(worst, coupling_norm_mu(
                    spec.profile, spec.mu, b, spec.grid.channel_weight))
        entries.append(HypEntry("coupling_norm_finite", True, np.isfinite(worst),
                                worst, f"sup ||G||_mu = {worst:.6g}"))
    except InfraredError as exc:
        entries.append(HypEntry("coupling_norm_finite", True, False,
                                np.inf, str(exc)))

    # degenerate eigenvalue: multiplicity and non-defectiveness at s0
    h0 = spec.h_at(spec.s0)
    e0 = spec.e_at(spec.s0)
    p0 = spec.p_at(spec.s0)
    alg = projection_rank(p0)
    sv = np.linalg.svd(h0 - e0 * np.eye(spec.d_at), compute_uv=False)
    scale = max(1.0, float(sv[0]))
    geo = int(np.sum(sv < 1e-10 * scale))
    ok = alg == spec.d and geo == spec.d
    entries.append(HypEntry("eigenvalue_multiplicity", True, ok,
                            abs(alg - geo),
                            f"algebraic {alg}, geometric {geo}, declared {spec.d}"))

    # symmetry protection for degenerate models
    if spec.d >= 2:
        try:
            gen_res = validate_generators(spec)
            irr = is_irreducible(spec.reduced_generators(), dim=spec.d)
            entries.append(HypEntry("symmetry_irreducible", True, irr, gen_res,
                                    f"{len(spec.generators)} generators on the "
                                    f"{spec.d}-dim eigenspace"))
        except ValueError as exc:
            entries.append(HypEntry("symmetry_irreducible", True, False,
                                    np.inf, str(exc)))
        entries.append(HypEntry("fock_factor_dilation_commute", True, True, 0.0,
                                "by construction: a coordinate map commutes with 1 "
                                "and with complex conjugation"))
    else:
        entries.append(HypEntry("symmetry_irreducible", False, True, 0.0,
                                "nondegenerate model, no symmetry needed"))

    # resolvent bound on the complement, sampled q-grid plus the q->infty tail;
    # the shifted systems of one s are solved as one stack, and a singular
    # one fails the entry, as does a sample where 1 - P_at(s) does not have
    # rank d_at - d (a contour that encloses more or fewer eigenvalues)
    qs = np.array([0.0] + [2.0**k for k in range(-6, 7)])
    eye = np.eye(spec.d_at)
    pbar = eye - p0
    sup = float(np.linalg.norm(pbar, 2))  # q -> infinity limit
    okw = True
    bad_ranks = []
    for s in s_samples:
        es = spec.e_at(s)
        pbar_s = eye - spec.p_at(s)
        u, sv, _ = np.linalg.svd(pbar_s)
        rank = int(np.sum(sv > 0.5))
        if rank != spec.d_at - spec.d:
            okw = False
            bad_ranks.append(rank)
            continue
        if rank == 0:
            continue  # full degeneracy: nothing outside the eigenspace
        vbar = u[:, :rank]
        zs = _sample_ring(es, 0.9 * spec.window_radius, 8) + [es]
        okw = okw and all(abs(es - z) < 0.5 for z in zs)
        shifts = np.array([q - z for z in zs for q in qs])
        m = vbar.conj().T @ (spec.h_at(s) + shifts[:, None, None] * eye) @ vbar
        try:
            r = vbar @ np.linalg.solve(m, (vbar.conj().T @ pbar_s)[None])
        except np.linalg.LinAlgError:
            okw = False
            continue
        norms = (np.tile(qs, len(zs)) + 1.0) * np.linalg.norm(r, 2, axis=(1, 2))
        sup = max(sup, float(np.max(norms)))
    detail = (f"grid max over q of ||(q+1)(H_at-z+q)^-1 Pbar|| = "
              f"{sup:.6g} (grid max, not a certified sup)")
    if bad_ranks:
        detail = (f"rank of 1 - P_at(s) is {bad_ranks[0]}, not d_at - d = "
                  f"{spec.d_at - spec.d}, at {len(bad_ranks)} of {len(s_samples)} "
                  f"samples; " + detail)
    entries.append(HypEntry("reduced_resolvent_bound", True,
                            okw and np.isfinite(sup), sup, detail))

    # reflection symmetry of the family
    if spec.reflection_symmetric:
        res = 0.0
        for b1k, b2k in zip(spec.b1_coeffs, spec.b2_coeffs):
            res = max(res, float(np.linalg.norm(b1k - b2k)))
        for s in s_samples[:4]:
            res = max(res, float(np.linalg.norm(
                spec.h_at(s).conj().T - spec.h_at(np.conj(s)))))
        entries.append(HypEntry("reflection_symmetry", True, res <= 1e-12, res,
                                "G1 = G2 and H_at(s)* = H_at(sbar)"))
    else:
        entries.append(HypEntry("reflection_symmetry", False, True, 0.0,
                                "not declared"))

    # constancy of the eigenprojection (else conjugation preprocessing)
    res_p = max(float(np.linalg.norm(spec.p_at(s) - p0)) for s in s_samples)
    entries.append(HypEntry("constant_projection", True, True, res_p,
                            "constant" if res_p < 1e-12 else
                            "varies; evaluation conjugates to the constant frame"))

    # complex-selfadjointness and nondegenerate pairing on the eigenspace
    if spec.complex_selfadjoint:
        if spec.jconj is None:
            entries.append(HypEntry("complex_selfadjoint", True, False, np.inf,
                                    "flag set but no conjugation operator given"))
        else:
            small = build_fock_basis(spec.grid, min(spec.n_max, 1), 1.0, spec.d_at)
            hmat = build_hamiltonian(spec, spec.s0, spec.g, small).mat
            jop = SymmetryOp(np.kron(spec.jconj, np.eye(small.size)),
                             antiunitary=True)
            _, res_j = is_symmetry_of(jop, hmat)
            frame = spec.atomic_frame()
            nmat = frame.conj().T @ spec.jconj @ np.conj(frame)
            nd = float(np.abs(np.linalg.det(nmat)))
            entries.append(HypEntry("complex_selfadjoint", True,
                                    res_j <= 1e-11 and nd > 1e-8,
                                    res_j,
                                    f"|det J-form| = {nd:.3g}"))
    else:
        entries.append(HypEntry("complex_selfadjoint", False, True, 0.0,
                                "not declared"))

    entries.append(HypEntry("analytic_family_note", True, True, 0.0,
                            "entire (polynomial) parameter dependence by "
                            "construction; Kato-analyticity not certified "
                            "numerically"))
    return HypothesesReport(entries)


def singular_shift_spec():
    """d_at = 2, d = 1, H_at(s) = diag(0, 0.45 + 0.1 s): at s0 = 0 the
    complement's eigenvalue 0.45 equals the ring point E_at(s0) + 0.9 x 0.5
    (E_at(s0) is below half an ulp of 0.45), so the shift q = 0 there is an
    exactly singular system; no other sample has one."""
    return ModelSpec(
        name="singular", d_at=2, d=1,
        hat_coeffs=[np.diag([0.0, 0.45]).astype(complex),
                    np.diag([0.0, 0.1]).astype(complex)],
        profile=model.PROFILES["r"],
        b1_coeffs=[np.eye(2, dtype=complex)],
        b2_coeffs=[np.eye(2, dtype=complex)],
        g=0.1, mu=0.5, s0=0.0,
        region_radius=0.15, window_radius=0.5, contour_radius=0.2,
        grid=model.ModeGrid(0.5, 5), n_max=2, e_cut=2.0,
    )


def entries(report):
    return [(e.name, e.applicable, bool(e.passed), repr(e.residual), e.detail)
            for e in report.entries]


SPECS = {
    "m_triv": lambda: load_model("m_triv"),
    "m_exact": lambda: load_model("m_exact"),
    "m_kramers": lambda: load_model("m_kramers"),
    "m_pauli": lambda: load_model("m_pauli"),
    "varying_projection": varying_projection_spec,
    "m_pauli_radius_1.5": lambda: dataclasses.replace(load_model("m_pauli"),
                                                      contour_radius=1.5),
    "singular_shift": singular_shift_spec,
}


class TestStackedHypotheses:
    @pytest.mark.parametrize("name", SPECS)
    def test_every_entry_equals_the_per_sample_pass(self, name):
        want = entries(per_sample_verify_hypotheses(SPECS[name]()))
        assert entries(verify_hypotheses(SPECS[name]())) == want

    def test_a_bad_rank_and_a_singular_system_fail_the_entry(self):
        bad = {e.name: e for e in verify_hypotheses(SPECS["m_pauli_radius_1.5"]()).entries}
        assert not bad["reduced_resolvent_bound"].passed
        assert bad["reduced_resolvent_bound"].detail.startswith(
            "rank of 1 - P_at(s) is 0, not d_at - d = 1, at 13 of 13 samples")
        spec = singular_shift_spec()
        shift = spec.h_at(spec.s0)[1, 1] - (spec.e_at(spec.s0) + 0.9 * spec.window_radius)
        assert shift == 0
        entry = {e.name: e for e in verify_hypotheses(spec).entries}["reduced_resolvent_bound"]
        # the other 12 samples keep their sup, far above the q -> infinity limit 1
        assert not entry.passed and np.isfinite(entry.residual) and entry.residual > 100

    def test_a_contour_error_is_the_first_failing_sample_s(self):
        # H_at(s) = diag(0, 0.5 + 0.8 s): the eigenvalue 0.5 + 0.8 s is within
        # 10% of the contour at the ring sample s = -0.15 alone
        spec = dataclasses.replace(varying_projection_spec(), hat_coeffs=[
            np.diag([0.0, 0.5]).astype(complex), np.diag([0.0, 0.8]).astype(complex)])
        with pytest.raises(ContourError) as want:
            per_sample_verify_hypotheses(dataclasses.replace(spec))
        with pytest.raises(ContourError) as got:
            verify_hypotheses(spec)
        assert str(got.value) == str(want.value)

    def test_one_projection_one_solve_per_node_count_and_no_norm_per_sample(
            self, monkeypatch):
        spec = load_model("m_pauli")
        samples = ([spec.s0] + _sample_ring(spec.s0, spec.region_radius, 6)
                   + _sample_ring(spec.s0, 0.5 * spec.region_radius, 6))
        node_counts = {projection_node_by_node(spec.h_at(s), spec._cluster_center,
                                               spec.contour_radius)[1] for s in samples}
        projection, solve, norm = model.spectral_projection, np.linalg.solve, np.linalg.norm
        projections, solves, two_norms = [], [], []

        def counted_projection(h, *args):
            projections.append(h.shape)
            return projection(h, *args)

        def counted_solve(a, b):
            solves.append(a.shape)
            return solve(a, b)

        def counted_norm(x, ord=None, axis=None, keepdims=False):
            if ord == 2:
                two_norms.append(np.shape(x))
            return norm(x, ord, axis, keepdims)

        monkeypatch.setattr(model, "spectral_projection", counted_projection)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        assert spec.built == {}
        verify_hypotheses(spec)
        assert projections == [(13, 3, 3)]
        assert len(solves) == len(node_counts) + 1
        assert sum(shape[0] for shape in solves[:-1]) == 13
        assert solves[-1] == (13, 126, 1, 1)   # 9 z values times 14 q values per sample
        # the 26 coupling matrices, the q -> infinity limit and the 1638 shifts
        assert two_norms == [(26, 3, 3), (3, 3), (13, 126, 3, 3)]
