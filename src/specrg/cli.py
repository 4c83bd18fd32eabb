"""Command-line pipeline: run, verify, probe-analyticity, sweep-g.

    specrg COMMAND --config CONFIG [--out DIR] [--jobs N]

CONFIG is a shipped fixture name, a model config file, or a run config:

    {"schema_version": 1, "model": "<fixture name or model config file>",
     "rg": {"check_winding": true}}

``rg`` and its one key are optional, and any other key is refused.  The
model fixes the flow's scale: rho is its grid ratio, which must lie in
(0, 4/5), and mu its infrared exponent.  ``--jobs`` (default 1) is the
number of threads that evaluate the analyticity probe's nodes.

Reports come in two layers: a flat key=value summary for machines, printed
and written to <stem>.kv, and a prose digest for humans in <stem>.txt;
numerical tables are emitted as columnar text.  An identical config gives
byte-identical machine-readable reports (probe nodes may be evaluated
concurrently, but results are merged in index order).

Exit codes: 0 all checks pass, 1 configuration error (a bad command line
included; ``--help`` exits 0), 2 acceptance failure, 3 flow failure (the
flow raised WindowError, WindowExitError, FeshbachPairError or
ArithmeticError; the report is still written, with a failed check.flow and
the exception in flow.error).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .feshbach import FeshbachPairError, first_decimation, neumann_check
from .model import ContourError, InfraredError, ModelSpec, WindowError, verify_hypotheses
from .oracle import compare, dense_spectrum, perturbation_scaling
from .rg import (
    C_CHI,
    SCHUR_TOL,
    WindowExitError,
    build_eigenprojection,
    build_eigenvectors,
    contraction_factor,
    fitted_rate,
    flow_scale,
    iterate_to_fixed_point,
    run_ladder,
    window_threshold,
)

FLOW_ERRORS = (WindowError, WindowExitError, FeshbachPairError, ArithmeticError)

# analyticity probe around s0: contour radius and nodes, Cauchy-Riemann step,
# and the number of Schwarz reflection pairs
PROBE_RADIUS = 0.05
PROBE_NODES = 16
CR_STEP = 1e-3
REFLECTION_PAIRS = 2
SWEEP_COUPLINGS = (0.02, 0.04, 0.08, 0.16)   # weak-coupling sweep of sweep-g


def load_run_config(path_or_name: str) -> tuple[bool, ModelSpec]:
    """(check_winding, model) from a run config ({"model": ...}) or directly
    from a model config (fixture name or file), as ``config.load_run_config``
    parses them; a model whose grid ratio the flow cannot take is refused."""
    check_winding, spec = cfgmod.load_run_config(path_or_name)
    try:
        flow_scale(spec)
    except ValueError as exc:
        raise cfgmod.ConfigError(f"model {spec.name}: {exc}") from None
    return check_winding, spec


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


class Report:
    """Flat key-value accumulator with a prose digest alongside."""

    def __init__(self):
        self.kv = {}
        self.digest = []
        self.failures = []

    def put(self, key: str, value):
        if isinstance(value, (complex, np.complexfloating)):
            self.kv[key + ".re"] = _fmt(float(np.real(value)))
            self.kv[key + ".im"] = _fmt(float(np.imag(value)))
        else:
            self.kv[key] = _fmt(value)

    def check(self, key: str, passed: bool, detail: str = ""):
        self.kv[f"check.{key}"] = "pass" if passed else "fail"
        if not passed:
            self.failures.append(key)
        self.digest.append(f"[{'ok' if passed else 'FAIL'}] {key}"
                           + (f": {detail}" if detail else ""))

    def say(self, text: str):
        self.digest.append(text)

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def kv_text(self) -> str:
        lines = [f"{k}={self.kv[k]}" for k in sorted(self.kv)]
        return "\n".join(lines) + "\n"

    def digest_text(self) -> str:
        return "\n".join(self.digest) + "\n"


def _write(out_dir: str | None, name: str, text: Callable[[], str]):
    """Write text() to out_dir/name; without out_dir text is not formatted."""
    if out_dir is None:
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / name).write_text(text(), encoding="utf-8")


def _spectrum_dump(rep) -> str:
    lines = ["# index re im"]
    for i, ev in enumerate(rep.eigenvalues):
        lines.append(f"{i} {ev.real:.17g} {ev.imag:.17g}")
    return "\n".join(lines) + "\n"


def _kernel_dump(ext) -> str:
    """Columnar diagonal-kernel dump: r then re/im of each matrix entry."""
    ker = ext.kernel
    d = ker.values.shape[-1]
    head = "# r " + " ".join(f"re{a}{b} im{a}{b}"
                             for a in range(d) for b in range(d))
    lines = [head]
    for i, r in enumerate(ker.r_grid):
        row = [f"{r:.17g}"]
        for a in range(d):
            for b in range(d):
                v = ker.values[i, a, b]
                row.append(f"{v.real:.17g}")
                row.append(f"{v.imag:.17g}")
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def _report_hypotheses(spec: ModelSpec, report: Report) -> bool:
    """Put each hypothesis' residual and check each applicable one; returns
    whether all applicable ones pass."""
    hyp = verify_hypotheses(spec)
    for e in hyp.entries:
        report.put(f"hyp.{e.name}.residual", e.residual)
        if e.applicable:
            report.check(f"hyp.{e.name}", e.passed, e.detail)
    return hyp.all_passed


def _first_decimation_checks(spec: ModelSpec, report: Report) -> None:
    """Report the first decimation's pair at (s0, E_at(s0)), at the z the
    flow starts from (a float where the flow is real), its margin on T, and
    the Neumann cross-check of its map, which measures the contraction norm
    of the expansion; the map is formed once, there.  The
    flow reuses the first decimation: its ``AffinePair`` (T on the full
    space, and the blocks of W = H - T on Ran chibar and on the reduced
    space) stays in ``spec.built`` for the rest of the command, and only the
    pair's restricted blocks and solve at E_at(s0) are freed on return."""
    s = spec.s0
    first = first_decimation(spec, s, None)
    pair = first.pair(first.z_start)
    pair.require_margins()
    neumann = neumann_check(pair)
    report.put("first.neumann_discrepancy", neumann.discrepancy)
    report.put("first.neumann_terms", neumann.terms)
    report.put("first.neumann_tail_bound", neumann.tail_bound)
    report.put("first.contraction", neumann.contraction)
    report.put("first.t_margin", pair.t_margin)
    report.check("first_feshbach_consistency", neumann.discrepancy < 1e-10,
                 f"direct vs Neumann discrepancy {neumann.discrepancy:.3e}")


def run_pipeline(spec: ModelSpec, report: Report, check_winding: bool,
                 out_dir: str | None) -> None:
    """verify -> first decimation sanity -> flow to the fixed point ->
    eigenvectors -> oracle comparison -> eigenprojection."""
    s = spec.s0
    rho = spec.grid.ratio
    factor = contraction_factor(spec)
    report.put("model", spec.name)
    report.put("rho", rho)
    report.put("mu", spec.mu)
    report.put("xi", np.sqrt(rho) / (4.0 * C_CHI))
    report.put("window_threshold", window_threshold(spec))
    report.put("channel_weight", spec.grid.channel_weight)
    report.put("theory.c_gamma_rho_mu", factor)
    report.put("theory.contraction_admissible", factor < 1.0)

    passed = _report_hypotheses(spec, report)
    report.say(f"hypotheses: {'all pass' if passed else 'FAILURES'}")

    _first_decimation_checks(spec, report)

    res = iterate_to_fixed_point(spec, s, check_winding)
    report.put("z_inf", res.z_inf)
    report.put("n_levels", res.n_levels)
    report.put("fitted_rate", fitted_rate(res.depths))
    report.check("converged", res.converged,
                 f"{res.n_levels} levels, z_inf = {res.z_inf}")
    worst_schur = max(r.schur_deviation for r in res.depths)
    worst_sym = max(r.symmetry_residual for r in res.depths)
    scale = max(1.0, max(abs(r.z) for r in res.depths))
    report.put("max_schur_deviation", worst_schur)
    report.put("max_symmetry_residual", worst_sym)
    report.check("schur_scalarization", worst_schur <= SCHUR_TOL * scale)
    report.check("symmetry_preserved", worst_sym <= 1e-9)
    windings = [r.winding for r in res.depths if r.winding is not None]
    report.check("winding_unique_root",
                 all(w == 1 for w in windings) if windings else True)
    _write(out_dir, "trace.txt", lambda: "\n".join(res.trace_lines()) + "\n")

    ev = build_eigenvectors(res.flow, res.z_inf)
    report.put("eigvec.depth", ev.depth)
    report.put("eigvec.max_residual", max(ev.residuals))
    report.put("eigvec.gram_ratio", ev.gram_smallest_sv / ev.gram_largest_sv)
    report.check("eigenvectors_residual", max(ev.residuals) <= 1e-7)
    report.check("eigenvectors_independent", ev.independent)

    h_full = res.flow.first.hamiltonian
    oracle_rep = dense_spectrum(h_full)
    cmp_rep = compare(res.z_inf, ev.vectors, oracle_rep,
                      ground_state_expected=h_full.selfadjoint_known
                      and abs(np.imag(s)) == 0.0)
    report.put("oracle.lowest", oracle_rep.lowest)
    report.put("oracle.multiplicity", oracle_rep.multiplicity)
    report.put("oracle.gap", oracle_rep.gap)
    report.put("oracle.eigenvalue_error", cmp_rep.eigenvalue_error)
    report.put("oracle.max_angle", cmp_rep.max_angle)
    report.check("eigenvalue_matches_oracle", cmp_rep.eigenvalue_error < 1e-7,
                 f"|z_inf - nearest| = {cmp_rep.eigenvalue_error:.3e}")
    report.check("eigenspace_matches_oracle", cmp_rep.max_angle < 1e-5,
                 f"max principal angle {cmp_rep.max_angle:.3e}")
    report.check("oracle_multiplicity", oracle_rep.multiplicity == spec.d
                 and oracle_rep.gap > 10 * oracle_rep.cluster_tol,
                 f"multiplicity {oracle_rep.multiplicity}, gap {oracle_rep.gap:.3e}")
    if cmp_rep.ground_state_error is not None:
        report.put("oracle.ground_state_error", cmp_rep.ground_state_error)
        report.check("ground_state_identity",
                     cmp_rep.ground_state_error < 1e-8)
    _write(out_dir, "spectrum.txt", lambda: _spectrum_dump(oracle_rep))
    # level 0 at z_inf, built only when it is written
    _write(out_dir, "kernel.txt",
           lambda: _kernel_dump(run_ladder(res.flow, res.z_inf, 0).ext))

    if spec.complex_selfadjoint and spec.jconj is not None:
        # J (x) 1 on each conjugated eigenvector, one atomic block at a time
        duals = [(spec.jconj @ np.conj(p).reshape(spec.d_at, -1)).ravel() for p in ev.vectors]
        proj = build_eigenprojection(ev.vectors, duals, h_full.mat, res.z_inf)
    elif spec.reflection_symmetric and abs(np.imag(s)) == 0.0:
        # at real s the eigenvectors at sbar are those at s
        proj = build_eigenprojection(ev.vectors, ev.vectors, h_full.mat, res.z_inf)
    else:
        proj = None
    if proj is not None:
        report.put("projection.idempotency", proj.idempotency)
        report.put("projection.rank", proj.rank)
        report.put("projection.eigen_residual", proj.eigen_residual)
        report.check("projection_idempotent", proj.idempotency <= 1e-9)
        report.check("projection_rank", proj.rank == spec.d)
        report.check("projection_eigen", proj.eigen_residual <= 1e-8)

    report.say(f"z_inf = {res.z_inf} after {res.n_levels} levels "
               f"(oracle error {cmp_rep.eigenvalue_error:.2e})")


def analyticity_probe(spec: ModelSpec, report: Report, jobs: int) -> None:
    """Contour integral, Cauchy-Riemann differences and Schwarz reflection
    for s -> E_g(s); nodes are independent flow runs, evaluated by ``jobs``
    threads and merged in index order."""
    s0 = spec.s0
    if PROBE_RADIUS >= spec.region_radius:
        raise cfgmod.ConfigError("probe contour leaves the declared region")

    def e_of_s(s):
        return iterate_to_fixed_point(spec, s, False).z_inf

    thetas = 2 * np.pi * np.arange(PROBE_NODES) / PROBE_NODES
    nodes = [s0 + PROBE_RADIUS * np.exp(1j * t) for t in thetas]
    h = CR_STEP
    cr_nodes = [s0 + h, s0 - h, s0 + 1j * h, s0 - 1j * h]
    refl = [s0 + PROBE_RADIUS * np.exp(1j * np.pi / (k + 3))
            for k in range(REFLECTION_PAIRS)]
    all_nodes = nodes + cr_nodes + refl + [np.conj(s) for s in refl]
    with ThreadPoolExecutor(max_workers=max(1, jobs)) as ex:
        values = list(ex.map(e_of_s, all_nodes))
    ev = values[:PROBE_NODES]
    e_xp, e_xm, e_yp, e_ym = values[PROBE_NODES: PROBE_NODES + 4]
    refl_vals = values[PROBE_NODES + 4:]

    dz = 1j * PROBE_RADIUS * np.exp(1j * thetas) * (2 * np.pi / PROBE_NODES)
    integral = complex(np.sum(np.array(ev) * dz))
    scale = PROBE_RADIUS * max(abs(v) for v in ev)
    contour_resid = abs(integral) / max(scale, 1e-300)
    report.put("probe.contour_integral_abs", abs(integral))
    report.put("probe.contour_residual", contour_resid)
    report.check("contour_integral", contour_resid < 1e-6,
                 f"relative residual {contour_resid:.3e}")

    fx = (e_xp - e_xm) / (2 * h)
    fy = (e_yp - e_ym) / (2 * h)
    cr_resid = abs(fx + 1j * fy)
    report.put("probe.cauchy_riemann_residual", cr_resid)
    report.check("cauchy_riemann", cr_resid < 1e-4,
                 f"residual {cr_resid:.3e}")

    if spec.reflection_symmetric:
        n = len(refl)
        worst = max(abs(np.conj(refl_vals[k]) - refl_vals[n + k])
                    for k in range(n))
        report.put("probe.reflection_residual", worst)
        report.check("schwarz_reflection", worst < 1e-8,
                     f"max |conj(E(s)) - E(sbar)| = {worst:.3e}")
    report.say(f"probe at r_c = {PROBE_RADIUS}: contour {contour_resid:.2e}, "
               f"CR {cr_resid:.2e}")


def sweep_g(spec: ModelSpec, report: Report) -> None:
    """Weak-coupling sweep: oracle scaling fit plus flow cross-check, both
    on the H_g(s0) of each coupling's first decimation."""
    scaling = perturbation_scaling(
        spec, spec.s0, SWEEP_COUPLINGS,
        lambda g: first_decimation(spec, spec.s0, float(g)).hamiltonian)
    report.put("sweep.exponent", scaling.exponent)
    for i, g in enumerate(scaling.g_values):
        report.put(f"sweep.g{i}", float(g))
        report.put(f"sweep.energy_error{i}", float(scaling.energy_errors[i]))
        report.put(f"sweep.vector_distance{i}", float(scaling.vector_distances[i]))
    report.check("sweep_exponent", 1.9 <= scaling.exponent <= 2.1
                 if spec.d == spec.d_at else scaling.exponent >= 1.9,
                 f"fitted exponent {scaling.exponent:.4f}")
    report.check("sweep_distances_decreasing", scaling.distances_decreasing)
    worst = 0.0
    for g, eigenvalues in zip(scaling.g_values, scaling.spectra):
        res = iterate_to_fixed_point(spec, spec.s0, False, g=float(g))
        worst = max(worst, float(np.min(np.abs(eigenvalues - res.z_inf))))
    report.put("sweep.max_flow_oracle_error", worst)
    report.check("sweep_flow_matches_oracle", worst < 1e-7)


class _Parser(argparse.ArgumentParser):
    """A bad command line is a configuration error: it exits 1, since
    argparse's own code 2 is the acceptance-failure code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: configuration error: {message}\n")


def main(argv=None) -> int:
    ap = _Parser(
        prog="specrg",
        description="spectral renormalization pipeline for generalized "
                    "spin-boson models on truncated Fock spaces")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in (("run", "full pipeline with oracle comparison"),
                        ("verify", "hypothesis verification only"),
                        ("probe-analyticity", "contour/CR/reflection probes"),
                        ("sweep-g", "weak-coupling sweep")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True,
                       help="model config path, fixture name, or run config")
        p.add_argument("--out", default=None, metavar="DIR", help="output directory")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="threads that evaluate the analyticity probe's nodes "
                            "(default 1)")
    args = ap.parse_args(argv)

    try:
        check_winding, spec = load_run_config(args.config)
    except (cfgmod.ConfigError, InfraredError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    report = Report()
    stem = {"run": "run", "verify": "verify", "probe-analyticity": "probe",
            "sweep-g": "sweep"}[args.command]
    flow_failed = False
    try:
        if args.command == "run":
            run_pipeline(spec, report, check_winding, args.out)
        elif args.command == "verify":
            _report_hypotheses(spec, report)
        elif args.command == "probe-analyticity":
            analyticity_probe(spec, report, args.jobs)
        elif args.command == "sweep-g":
            sweep_g(spec, report)
    except InfraredError as exc:
        print(f"configuration error: infrared failure: {exc}", file=sys.stderr)
        return 1
    except (cfgmod.ConfigError, ContourError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except FLOW_ERRORS as exc:
        flow_failed = True
        message = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        report.put("flow.error", message)
        report.check("flow", False, message)
    finally:
        spec.built.clear()   # bases and depths serve one command; a caller may keep the spec

    report.put("command", args.command)
    report.put("all_passed", report.all_passed)
    _write(args.out, f"{stem}.kv", report.kv_text)
    _write(args.out, f"{stem}.txt", report.digest_text)
    sys.stdout.write(report.kv_text())
    if flow_failed:
        return 3
    return 0 if report.all_passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
