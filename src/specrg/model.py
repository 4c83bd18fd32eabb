"""Generalized spin-boson models: H(s) = H_at(s) (x) 1 + 1 (x) H_f + g W(s).

Parameter dependence is restricted to matrix polynomials in a single complex
parameter s, which makes analyticity exact by construction; couplings are
rotation-invariant radial profiles times an atomic matrix polynomial, so the
3-d momentum integrals reduce to closed-form shell integrals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fock import FOUR_PI, FockBasis, ModeGrid, OperatorMatrix, build_fock_basis, creation_op, field_energy
from .symmetry import SymmetryOp, is_irreducible, is_symmetry_of


class InfraredError(ValueError):
    """Coupling profile too singular for the requested infrared exponent."""


class WindowError(ValueError):
    """Requested (s, z) lies outside the declared spectral window."""


class ContourError(ValueError):
    """Spectrum too close to a requested integration contour."""


@dataclass(frozen=True)
class RadialProfile:
    """Rotation-invariant radial coupling g(r) = r^power on the unit ball."""

    tag: str
    power: float

    def shell_coeffs(self, grid: ModeGrid) -> np.ndarray:
        """c_j = (int_shell |g|^2 dmu)^(1/2), absorbing the shell measure."""
        p = 2.0 * self.power + 3.0
        hi, lo = grid.omega, grid.ratio * grid.omega
        return np.sqrt(FOUR_PI * grid.channel_weight * (hi**p - lo**p) / p)

    def mu_norm_radial(self, mu: float, channel_weight: float = 1.0) -> float:
        """(int_{|k|<=1} |g|^2 / |k|^(2+2mu) dk)^(1/2), closed form."""
        expo = 2.0 * self.power + 1.0 - 2.0 * mu
        if expo <= 0.0:
            raise InfraredError(
                f"profile '{self.tag}' diverges in the infrared for mu={mu} "
                f"(need 2*power+1-2*mu > 0)"
            )
        return float(np.sqrt(FOUR_PI * channel_weight / expo))


PROFILES = {
    "r": RadialProfile("r", 1.0),
    "r2": RadialProfile("r2", 2.0),
    "one": RadialProfile("one", 0.0),
}


def coupling_norm_mu(profile: RadialProfile, mu: float, matrix=None,
                     channel_weight: float = 1.0) -> float:
    """||G||_mu for G(k) = g(|k|) B; infrared divergence raises."""
    radial = profile.mu_norm_radial(mu, channel_weight)
    if matrix is None:
        return radial
    return radial * float(np.linalg.norm(np.atleast_2d(matrix), 2))


def _poly_eval(coeffs, s: complex) -> np.ndarray:
    out = np.zeros_like(coeffs[0])
    for k, c in enumerate(coeffs):
        out = out + c * (s**k)
    return out


@dataclass
class ModelSpec:
    """Full definition of one model: atomic family, coupling, grid,
    truncation, symmetry group and flags."""

    name: str
    d_at: int
    d: int
    hat_coeffs: list          # H_at(s) = sum_k hat_coeffs[k] s^k
    profile: RadialProfile
    b1_coeffs: list           # B_1(s) polynomial (annihilation-side coupling)
    b2_coeffs: list           # B_2(s) polynomial (creation-side coupling)
    g: float
    mu: float
    s0: complex
    region_radius: float
    window_radius: float
    contour_radius: float
    grid: ModeGrid
    n_max: int
    e_cut: float
    generators: list = field(default_factory=list)   # atomic SymmetryOp list
    reflection_symmetric: bool = False
    complex_selfadjoint: bool = False
    jconj: np.ndarray | None = None                  # atomic part of J (with conj)
    # memos: p_at keyed by s; ``built``, the Fock bases, rg.Flow's depths and the
    # first decimations keyed by ("basis", e_cut, d_at), ("depth", n) and
    # ("first", s, g); a replace() copy starts empty
    _projections: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)
    built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def h_at(self, s: complex) -> np.ndarray:
        return _poly_eval(self.hat_coeffs, s)

    def b1(self, s: complex) -> np.ndarray:
        return _poly_eval(self.b1_coeffs, s)

    def b2(self, s: complex) -> np.ndarray:
        return _poly_eval(self.b2_coeffs, s)

    def in_window(self, s: complex, z: complex | None = None) -> bool:
        tol = 1e-9   # relative slack at both boundaries
        if abs(s - self.s0) > self.region_radius * (1 + tol) + tol:
            return False
        if z is not None and abs(z - self.e_at(s)) > self.window_radius * (1 + tol):
            return False
        return True

    @cached_property
    def _cluster_center(self) -> complex:
        """Center of the tracked cluster: the mean of the d lowest (by real
        part) eigenvalues of H_at(s0)."""
        eigs = np.linalg.eigvals(self.h_at(self.s0))
        lead = eigs[np.argsort(eigs.real)[: self.d]]
        return complex(np.mean(lead))

    def p_at(self, s: complex) -> np.ndarray:
        """Spectral projection of H_at(s) onto the tracked degenerate
        cluster, via the declared isolation contour around E_at(s0).

        Computed once per s and returned read-only.  Threads sharing the spec
        may both compute a missing entry; the results are identical.
        """
        s = complex(s)
        p = self._projections.get(s)
        if p is None:
            p = spectral_projection(self.h_at(s), self._cluster_center,
                                    self.contour_radius)
            p.setflags(write=False)
            self._projections[s] = p
        return p

    def e_at(self, s: complex) -> complex:
        p = self.p_at(s)
        return complex(np.trace(self.h_at(s) @ p) / self.d)

    def atomic_frame(self) -> np.ndarray:
        """Orthonormal columns spanning Ran P_at(s0) (see ``projection_frame``)."""
        return projection_frame(self.p_at(self.s0), self.d)

    def interaction(self, basis: FockBasis, s: complex) -> np.ndarray:
        """W(s): annihilation legs smeared with B_1(sbar), creation legs
        with B_2(s); analytic in s by the conjugate-parameter convention."""
        c = self.profile.shell_coeffs(self.grid)
        b2s = self.b2(s)
        b1sbar = self.b1(np.conj(s))
        crea = creation_op(basis, [cj * b2s for cj in c]).mat
        anni = creation_op(basis, [cj * b1sbar for cj in c]).mat.conj().T
        return crea + anni

    def _basis(self, e_cut: float, d_at: int) -> FockBasis:
        """The Fock basis up to energy e_cut, built once per instance."""
        key = ("basis", e_cut, d_at)
        if key not in self.built:
            self.built.setdefault(key, build_fock_basis(self.grid, self.n_max, e_cut, d_at))
        return self.built[key]   # threads that both build keep the first

    def full_basis(self) -> FockBasis:
        return self._basis(self.e_cut, self.d_at)

    def reduced_fock_basis(self) -> FockBasis:
        return self._basis(1.0, self.d)

    def reduced_generators(self, reduced_basis: FockBasis) -> list:
        """Generators restricted to Ran P_at (x) reduced Fock space."""
        frame = self.atomic_frame()
        eye = np.eye(reduced_basis.size)
        out = []
        for gat in self.generators:
            r = gat.restricted(frame)
            out.append(SymmetryOp(np.kron(r.matrix, eye), r.antiunitary))
        return out


def projection_frame(p: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal columns spanning Ran p, for a projection p of the given
    rank, from an SVD; each column is scaled so that its largest entry is
    real positive, so a frame of coordinate vectors comes out exact."""
    u, sv, _ = np.linalg.svd(p)
    if int(np.sum(sv > 0.5)) != rank:
        raise ValueError(f"projection rank {int(np.sum(sv > 0.5))} is not {rank}")
    u = u[:, :rank]
    lead = u[np.argmax(np.abs(u), axis=0), np.arange(rank)]
    return u * (np.conj(lead) / np.abs(lead))


def build_h0(spec: ModelSpec, s: complex, basis: FockBasis) -> np.ndarray:
    """H_0(s) = H_at(s) (x) 1 + 1 (x) H_f on the given basis."""
    return np.kron(spec.h_at(s), np.eye(basis.size)) + field_energy(basis).mat


def build_hamiltonian(spec: ModelSpec, s: complex, g: float | None = None,
                      basis: FockBasis | None = None) -> OperatorMatrix:
    """H_g(s) on the truncated space; errors if s leaves the declared region."""
    if not spec.in_window(s):
        raise WindowError(f"s={s} outside declared region of '{spec.name}'")
    if g is None:
        g = spec.g
    if basis is None:
        basis = spec.full_basis()
    mat = build_h0(spec, s, basis)
    if g != 0.0:
        mat = mat + g * spec.interaction(basis, s)
    herm = np.linalg.norm(mat - mat.conj().T) <= 1e-12 * max(1.0, np.linalg.norm(mat))
    return OperatorMatrix(mat, basis, selfadjoint_known=bool(herm))


IDEM_TOL = 1e-10   # spectral_projection's gate: ||P^2 - P|| <= IDEM_TOL max(1, ||P||)


def spectral_projection(h: np.ndarray, center: complex, radius: float,
                        n_nodes: int = 64, check: bool = True) -> np.ndarray:
    """Contour-integral projection (2 pi i)^-1 oint (z - H)^-1 dz by the
    trapezoidal rule on a circle; exponentially convergent off-spectrum.

    ``n_nodes`` is a minimum. An eigenvalue at distance a < r inside (or
    b > r outside) the circle of radius r contributes a quadrature error of
    about (a/r)^N (or (r/b)^N) with N nodes (Trefethen & Weideman, SIAM Rev.
    56, 2014), so with ``check=True`` N is raised until the largest of these
    is at most IDEM_TOL/100. The 10% exclusion around the contour keeps N
    below about 290. With ``check=False`` no eigenvalues are computed and
    ``n_nodes`` is used as given.  The node
    resolvents come from one stacked solve and are summed in node order.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    if check:
        eigs = np.linalg.eigvals(h)
        dist = np.abs(eigs - center)
        if np.any((dist > 0.9 * radius) & (dist < 1.1 * radius)):
            raise ContourError(
                f"eigenvalue within 10% of the contour |z-{center}|={radius}")
        inside = dist < radius
        q = max(np.max(dist[inside], initial=0.0) / radius,
                radius / np.min(dist[~inside], initial=np.inf))
        if q > 0.0:
            n_nodes = max(n_nodes, int(np.ceil(np.log(IDEM_TOL / 100) / np.log(q))))
    theta = 2 * np.pi * (np.arange(n_nodes) + 0.5) / n_nodes
    ws = [radius * np.exp(1j * t) for t in theta]
    eye = np.eye(n)
    resolvents = np.linalg.solve(np.stack([(center + w) * eye - h for w in ws]), eye)
    p = np.zeros_like(h)
    for w, r in zip(ws, resolvents):
        p += w * r
    p /= n_nodes
    residual = np.linalg.norm(p @ p - p)
    if residual > IDEM_TOL * max(1.0, np.linalg.norm(p)):
        raise ContourError(
            f"contour quadrature did not produce a projection "
            f"({n_nodes} nodes, ||P^2-P|| = {residual:.3e})")
    return p


def projection_rank(p: np.ndarray) -> int:
    return int(round(float(np.real(np.trace(p)))))


def validate_generators(spec: ModelSpec) -> float:
    """Coefficient-wise symmetry conditions on H_at and the couplings.

    unitary S:      [S, C_k] = [S, B_{i,k}] = 0
    antiunitary U:  U conj(C_k) U* = C_k^dag,  U conj(B_{2,k}) U* = B_{1,k},
                    U B_{1,k}^T U* = B_{2,k}^dag
    Returns the worst residual; raises if it exceeds 1e-12.
    """
    worst = 0.0

    def chk(a, b):
        nonlocal worst
        worst = max(worst, float(np.linalg.norm(a - b)))

    for gat in spec.generators:
        u = gat.matrix
        coeff_pairs = list(zip(spec.b1_coeffs, spec.b2_coeffs))
        if not gat.antiunitary:
            for c in spec.hat_coeffs:
                chk(u @ c, c @ u)
            for b1k, b2k in coeff_pairs:
                chk(u @ b1k, b1k @ u)
                chk(u @ b2k, b2k @ u)
        else:
            for c in spec.hat_coeffs:
                chk(u @ np.conj(c) @ u.conj().T, c.conj().T)
            for b1k, b2k in coeff_pairs:
                chk(u @ np.conj(b2k) @ u.conj().T, b1k)
                chk(u @ b1k.T @ u.conj().T, b2k.conj().T)
    if worst > 1e-12:
        raise ValueError(f"declared symmetry generators fail validation ({worst:g})")
    return worst


def hyp5_frame(spec: ModelSpec, s: complex) -> np.ndarray:
    """Kato's U(s) = P P0 + (1 - P)(1 - P0) for P = P_at(s), P0 = P_at(s0)
    (Perturbation Theory for Linear Operators, Ch. I Sec. 4.6).  U P0 = P P0
    = P U, with no discretization; U is a polynomial in P_at(s), so analytic
    where P_at is, and U(s0) = 1.  As (P0 P + (1 - P0)(1 - P)) U = 1 - (P - P0)^2, U is invertible
    while ||P - P0|| < 1; one singular to working precision raises
    ArithmeticError."""
    p0, p = spec.p_at(spec.s0), spec.p_at(s)
    eye = np.eye(p.shape[0])
    u = p @ p0 + (eye - p) @ (eye - p0)
    sv = np.linalg.svd(u, compute_uv=False)
    if sv[-1] <= u.shape[0] * np.finfo(float).eps * max(1.0, sv[0]):
        raise ArithmeticError(f"Kato's frame U(s) is singular at s={s}")
    return u


@dataclass
class HypEntry:
    name: str
    applicable: bool
    passed: bool
    residual: float = 0.0
    detail: str = ""


@dataclass
class HypothesesReport:
    entries: list

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries if e.applicable)


def _sample_ring(center: complex, radius: float, n: int):
    return [center + radius * np.exp(2j * np.pi * k / n) for k in range(n)]


def verify_hypotheses(spec: ModelSpec) -> HypothesesReport:
    """Numerical pass over the standing assumptions at s0 and on two rings
    of 6 points; report only, no raises (apart from genuinely malformed
    specs surfacing as exceptions)."""
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
            frame = spec.atomic_frame()
            restricted = [g.restricted(frame) for g in spec.generators]
            irr = is_irreducible(restricted, dim=spec.d)
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
    # one fails the entry
    qs = np.array([0.0] + [2.0**k for k in range(-6, 7)])
    eye = np.eye(spec.d_at)
    pbar = eye - p0
    sup = float(np.linalg.norm(pbar, 2))  # q -> infinity limit
    okw = True
    for s in s_samples:
        es = spec.e_at(s)
        pbar_s = eye - spec.p_at(s)
        u, sv, _ = np.linalg.svd(pbar_s)
        rank = int(np.sum(sv > 0.5))
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
    entries.append(HypEntry("reduced_resolvent_bound", True,
                            okw and np.isfinite(sup), sup,
                            f"grid max over q of ||(q+1)(H_at-z+q)^-1 Pbar|| = "
                            f"{sup:.6g} (grid max, not a certified sup)"))

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
