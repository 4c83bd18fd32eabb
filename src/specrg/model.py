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


WINDOW_SLACK = 1e-9   # relative slack at the region's and the window's boundaries


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
    """||G||_mu for G(k) = g(|k|) B, the largest over a stack of matrices B
    (one stacked 2-norm); infrared divergence raises."""
    radial = profile.mu_norm_radial(mu, channel_weight)
    if matrix is None:
        return radial
    return radial * float(np.max(np.linalg.norm(np.atleast_2d(matrix), 2, axis=(-2, -1))))


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
    # ``memo``'s store: P_at, the Fock bases, the restricted generators,
    # rg.Flow's list of depths, the s-independent frame of every first
    # decimation and the first decimations, keyed by ("p_at", s), ("basis",
    # e_cut, d_at), ("generators",), ("depths",), ("first frame",) and
    # ("first", s, g); a command clears it when it ends, and a replace() copy
    # starts empty
    built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def memo(self, key, build):
        """The value kept in ``built`` under key, from build() on first use.
        Threads that both build keep the first value."""
        if key not in self.built:
            return self.built.setdefault(key, build())
        return self.built[key]

    def h_at(self, s: complex) -> np.ndarray:
        return _poly_eval(self.hat_coeffs, s)

    def b1(self, s: complex) -> np.ndarray:
        return _poly_eval(self.b1_coeffs, s)

    def b2(self, s: complex) -> np.ndarray:
        return _poly_eval(self.b2_coeffs, s)

    def in_window(self, s: complex) -> bool:
        """s lies in the declared region about s0."""
        return not abs(s - self.s0) > self.region_radius * (1 + WINDOW_SLACK) + WINDOW_SLACK

    def in_z_window(self, e_at: complex, z: complex) -> bool:
        """z lies in the declared window about e_at = E_at(s)."""
        return not abs(z - e_at) > self.window_radius * (1 + WINDOW_SLACK)

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

        Computed once per s, by ``p_at_samples``, and returned read-only.
        """
        return self.p_at_samples([s])[0]

    def p_at_samples(self, samples) -> list:
        """``p_at`` at each s of samples.  The samples not yet kept are
        projected by one ``spectral_projection`` of the stack of their
        H_at(s); each keeps its entry, a read-only slice of that stack."""
        todo = {}
        for s in samples:
            key = ("p_at", complex(s))
            if key not in self.built:
                todo.setdefault(key, s)
        if todo:
            ps = spectral_projection(np.stack([self.h_at(s) for s in todo.values()]),
                                     self._cluster_center, self.contour_radius)
            ps.setflags(write=False)
            for key, p in zip(todo, ps):
                self.built.setdefault(key, p)
        return [self.built[("p_at", complex(s))] for s in samples]

    def e_at(self, s: complex) -> complex:
        """E_at(s) = tr H_at(s) P_at(s) / d.  Its imaginary part is exactly 0
        when H_at(s) has none and the cluster centre is real: the trapezoid
        nodes of ``spectral_projection`` then pair up under conjugation, so
        the trace is real, and only its rounding is dropped."""
        h = self.h_at(s)
        e = complex(np.trace(h @ self.p_at(s)) / self.d)
        if not np.imag(h).any() and self._cluster_center.imag == 0:
            return complex(e.real, 0.0)
        return e

    def atomic_frame(self) -> np.ndarray:
        """Orthonormal columns spanning Ran P_at(s0) (see ``projection_frame``).
        Raises ContourError when the isolation contour does not enclose d
        eigenvalues of H_at(s0)."""
        p = self.p_at(self.s0)
        rank = projection_rank(p)
        if rank != self.d:
            raise ContourError(
                f"the isolation contour |z-{self._cluster_center}|={self.contour_radius} "
                f"encloses {rank} eigenvalues of H_at(s0), not d = {self.d}")
        return projection_frame(p, self.d)

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
        return self.memo(("basis", e_cut, d_at),
                         lambda: build_fock_basis(self.grid, self.n_max, e_cut, d_at))

    def full_basis(self) -> FockBasis:
        return self._basis(self.e_cut, self.d_at)

    def reduced_fock_basis(self) -> FockBasis:
        return self._basis(1.0, self.d)

    def reduced_generators(self) -> list:
        """The generators restricted to Ran P_at(s0), as d x d operators, once
        per instance: on every reduced space of the flow, Ran P_at (x) a Fock
        space, a generator acts as this restriction (x) 1."""
        def build():
            frame = self.atomic_frame()
            return [g.restricted(frame) for g in self.generators]

        return self.memo(("generators",), build) if self.generators else []


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
                      basis: FockBasis | None = None,
                      h0: np.ndarray | None = None) -> OperatorMatrix:
    """H_g(s) on the truncated space; errors if s leaves the declared region.
    ``h0`` is H_0(s) on ``basis`` when the caller has built it already.  The
    result is flagged self-adjoint when ||H - H*|| <= 1e-12 max(1, ||H||)."""
    if not spec.in_window(s):
        raise WindowError(f"s={s} outside declared region of '{spec.name}'")
    if g is None:
        g = spec.g
    if basis is None:
        basis = spec.full_basis()
    mat = build_h0(spec, s, basis) if h0 is None else h0
    if g != 0.0:
        mat = mat + g * spec.interaction(basis, s)
    herm = np.linalg.norm(mat - mat.conj().T) <= 1e-12 * max(1.0, np.linalg.norm(mat))
    return OperatorMatrix(mat, basis, selfadjoint_known=bool(herm))


IDEM_TOL = 1e-10   # spectral_projection's gate: ||P^2 - P|| <= IDEM_TOL max(1, ||P||)
MIN_NODES = 64     # spectral_projection's floor on the quadrature nodes


def spectral_projection(h: np.ndarray, center: complex, radius: float) -> np.ndarray:
    """Contour-integral projection (2 pi i)^-1 oint (z - H)^-1 dz by the
    trapezoidal rule on a circle; exponentially convergent off-spectrum.
    h is one n x n matrix or a K x n x n stack of them, and P comes out
    shaped like h.

    The rule takes at least MIN_NODES nodes. An eigenvalue at distance a < r
    inside (or b > r outside) the circle of radius r contributes a quadrature
    error of about (a/r)^N (or (r/b)^N) with N nodes (Trefethen & Weideman,
    SIAM Rev. 56, 2014), so N is raised until the largest of these is at most
    IDEM_TOL/100, for each matrix of a stack on its own. The 10% exclusion
    around the contour keeps N below about 290.  The matrices of one node
    count are projected together, in the manner of batched small-matrix
    LAPACK (Dongarra et al., Procedia Comput. Sci. 108, 2017): the nodes,
    the shifted matrices and the weighted resolvents are arrays over the
    matrix and node axes, one stacked solve, then one sum over the node
    axis that starts from 0 and adds the nodes in order, so each P is bit
    for bit the node-by-node sum of that matrix alone.  A ContourError
    names the fault of the first matrix of the stack that has one, as
    projecting the matrices one by one would.
    """
    h = np.asarray(h, dtype=complex)
    stack = h.reshape((-1,) + h.shape[-2:])
    dist = np.abs(np.linalg.eigvals(stack) - center)
    near = ((dist > 0.9 * radius) & (dist < 1.1 * radius)).any(axis=-1).tolist()
    inside = dist < radius
    qs = np.maximum(dist.max(axis=-1, where=inside, initial=0.0) / radius,
                    radius / dist.min(axis=-1, where=~inside, initial=np.inf))
    counts, groups = [], {}
    for k, (q, skip) in enumerate(zip(qs, near)):
        n_nodes = MIN_NODES
        if q > 0.0 and not skip:
            n_nodes = max(n_nodes, int(np.ceil(np.log(IDEM_TOL / 100) / np.log(q))))
        counts.append(n_nodes)
        if not skip:
            groups.setdefault(n_nodes, []).append(k)
    eye = np.eye(stack.shape[-1])
    p = np.empty_like(stack)   # a matrix near the contour gets no P: the gates raise at it
    for n_nodes, group in groups.items():
        theta = 2 * np.pi * (np.arange(n_nodes) + 0.5) / n_nodes
        ws = (radius * np.exp(1j * theta))[:, None, None]
        shifted = (center + ws) * eye - stack[group][:, None]
        sums = np.add.reduce(ws * np.linalg.solve(shifted, eye), axis=1,
                             initial=0.0)   # from 0, node by node
        p[group] = sums / n_nodes
    for n_nodes, skip, pk in zip(counts, near, p):   # the gates, matrix by matrix, in order
        if skip:
            raise ContourError(
                f"eigenvalue within 10% of the contour |z-{center}|={radius}")
        residual = np.linalg.norm(pk @ pk - pk)
        if residual > IDEM_TOL * max(1.0, np.linalg.norm(pk)):
            raise ContourError(
                f"contour quadrature did not produce a projection "
                f"({n_nodes} nodes, ||P^2-P|| = {residual:.3e})")
    return p.reshape(h.shape)


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


def _solvable(m: np.ndarray, b: np.ndarray) -> bool:
    """Whether LAPACK solves every system of the stack m against b."""
    try:
        np.linalg.solve(m, b)
    except np.linalg.LinAlgError:
        return False
    return True


def verify_hypotheses(spec: ModelSpec) -> HypothesesReport:
    """Numerical pass over the standing assumptions at s0 and on two rings
    of 6 points; report only, no raises (apart from genuinely malformed
    specs surfacing as exceptions).  The samples are taken as stacks: one
    ``spectral_projection`` of the 13 H_at(s) fills their ``p_at`` entries,
    one 2-norm covers the 26 coupling matrices, and the resolvent bound is
    one solve and one 2-norm over every (s, z, q) shift."""
    entries = []
    s_samples = [spec.s0] + _sample_ring(spec.s0, spec.region_radius, 6) \
        + _sample_ring(spec.s0, 0.5 * spec.region_radius, 6)
    p_samples = spec.p_at_samples(s_samples)

    # coupling regularity and finiteness of the weighted norms
    try:
        couplings = np.stack([b for s in s_samples for b in (spec.b1(np.conj(s)), spec.b2(s))])
        worst = coupling_norm_mu(spec.profile, spec.mu, couplings, spec.grid.channel_weight)
        entries.append(HypEntry("coupling_norm_finite", True, np.isfinite(worst),
                                worst, f"sup ||G||_mu = {worst:.6g}"))
    except InfraredError as exc:
        entries.append(HypEntry("coupling_norm_finite", True, False,
                                np.inf, str(exc)))

    # degenerate eigenvalue: multiplicity and non-defectiveness at s0
    h0 = spec.h_at(spec.s0)
    e0 = spec.e_at(spec.s0)
    p0 = p_samples[0]
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

    # resolvent bound on the complement, sampled q-grid plus the q->infty tail,
    # at every sample where 1 - P_at(s) has rank d_at - d; a sample of
    # another rank (a contour that encloses more or fewer eigenvalues) fails
    # the entry, as does one with a singular shifted system, which leaves
    # the sup of the others
    qs = np.array([0.0] + [2.0**k for k in range(-6, 7)])
    eye = np.eye(spec.d_at)
    pbar = eye - p0
    sup = float(np.linalg.norm(pbar, 2))  # q -> infinity limit
    rank = spec.d_at - spec.d
    pbars = eye - np.stack(p_samples)
    u, sv, _ = np.linalg.svd(pbars)
    ranks = np.sum(sv > 0.5, axis=-1)
    bad_ranks = [int(r) for r in ranks if r != rank]
    okw = not bad_ranks
    good = np.flatnonzero(ranks == rank) if rank else []   # rank 0: full degeneracy
    if len(good):
        es = np.array([spec.e_at(s_samples[k]) for k in good])
        zs = np.array([_sample_ring(e, 0.9 * spec.window_radius, 8) + [e] for e in es])
        okw = okw and bool(np.all(np.abs(es[:, None] - zs) < 0.5))
        shifts = (qs - zs[..., None]).reshape(len(good), -1)
        hs = np.stack([spec.h_at(s_samples[k]) for k in good])
        vbar = u[good][..., :rank]
        vbar_h = vbar.conj().transpose(0, 2, 1)
        m = vbar_h[:, None] @ (hs[:, None] + shifts[..., None, None] * eye) @ vbar[:, None]
        rhs = (vbar_h @ pbars[good])[:, None]
        try:
            solved = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            okw = False
            regular = [k for k in range(len(good)) if _solvable(m[k], rhs[k])]
            vbar, m, rhs = vbar[regular], m[regular], rhs[regular]
            solved = np.linalg.solve(m, rhs)
        r = vbar[:, None] @ solved
        norms = (np.tile(qs, zs.shape[1]) + 1.0) * np.linalg.norm(r, 2, axis=(-2, -1))
        for worst_s in np.max(norms, axis=-1):   # NaN-blind, sample by sample
            sup = max(sup, float(worst_s))
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
    res_p = max(float(np.linalg.norm(p - p0)) for p in p_samples)
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
