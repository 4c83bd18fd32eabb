"""Workloads, seeded inputs, command passes and the correctness gate.

A workload is a list of ``specrg`` CLI commands, one per generated model
config.  A pass runs each command once, in order, in this process through
``specrg.cli.main``.  Every call of ``iterate_to_fixed_point`` made by a
command is one solve; the gate checks each solve's z_inf against the dense
spectrum of the same truncated Hamiltonian and against the recorded
reference.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

Z_TOL = 1e-12  # |z_inf - oracle| and |z_inf - reference| limit
# Seeds other than 0 scale each model's coupling by one of these factors, so
# that reference.json can hold the z_inf of every input any seed makes.
COUPLING_FACTORS = tuple(round(0.9 + 0.02 * k, 2) for k in range(11))


@dataclass(frozen=True)
class Model:
    fixture: str                   # shipped fixture the config starts from
    label: str                     # name written into the generated config
    max_photons: int | None = None
    levels: int | None = None      # grid levels, which set the flow's depth


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    models: tuple
    extra_args: tuple = ()
    rg: tuple = ()                 # (key, value) overrides of RGConfig


WORKLOADS = {w.name: w for w in (
    Workload("fixtures-run", "run",
             (Model("m_triv", "m_triv", levels=3),
              Model("m_kramers", "m_kramers", levels=3),
              Model("m_pauli", "m_pauli", levels=3))),
    Workload("large-fock-run", "run",
             (Model("m_triv", "m_triv_n3", max_photons=3),),
             rg=(("check_winding", False),)),
    Workload("probe-s", "probe-analyticity",
             (Model("m_triv", "m_triv", levels=4),), ("--jobs", "1")),
)}


def coupling_factors(seed: int, n: int) -> list[float]:
    """Seed 0 keeps the shipped coupling; any other seed draws one factor per
    model from COUPLING_FACTORS."""
    if seed == 0:
        return [1.0] * n
    rng = np.random.default_rng(seed)
    return [COUPLING_FACTORS[k] for k in rng.integers(len(COUPLING_FACTORS), size=n)]


def write_inputs(workload: Workload, factors, fixtures: Path,
                 out_dir: Path) -> list[tuple[str, Path]]:
    """Write one config per model of the workload, its coupling scaled by the
    model's factor; return (label, path) pairs, the label naming model and
    factor.  With RGConfig overrides the path is a run config naming the
    model config."""
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = []
    for model, factor in zip(workload.models, factors, strict=True):
        doc = json.loads((fixtures / f"{model.fixture}.json").read_text())
        doc["name"] = model.label
        doc["coupling_strength"] = doc["coupling_strength"] * factor
        if model.max_photons is not None:
            doc["truncation"]["max_photons"] = model.max_photons
        if model.levels is not None:
            doc["grid"]["levels"] = model.levels
        path = out_dir / f"{model.label}.json"
        path.write_text(json.dumps(doc, indent=1))
        if workload.rg:
            run_doc = {"schema_version": 1, "model": str(path), "rg": dict(workload.rg)}
            path = out_dir / f"{model.label}.run.json"
            path.write_text(json.dumps(run_doc, indent=1))
        inputs.append((f"{model.label}@{factor:.2f}", path))
    return inputs


@dataclass
class Solve:
    """One ``iterate_to_fixed_point`` call."""

    spec: object
    s: complex
    g: float
    z: complex | None = None
    converged: bool = False
    error: str | None = None


class SolveRecorder:
    """``on_return`` hook for the tracer span on ``iterate_to_fixed_point``."""

    def __init__(self):
        self.solves = []

    def __call__(self, args, kwargs, result, exc):
        spec, s = args[0], complex(args[1])
        g = kwargs.get("g", args[3] if len(args) > 3 else None)
        solve = Solve(spec, s, spec.g if g is None else float(g))
        if exc is None:
            solve.z, solve.converged = complex(result.z_inf), bool(result.converged)
        else:
            solve.error = f"{type(exc).__name__}: {exc}"
        self.solves.append(solve)


@dataclass
class Command:
    label: str
    wall_s: float
    rc: int | None
    kv: dict
    error: str | None
    solves: list = field(default_factory=list)


def parse_kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def run_pass(workload: Workload, inputs, cli, recorder: SolveRecorder,
             flow_errors: tuple) -> list[Command]:
    """Run each command of the workload once; a flow failure is recorded on
    its command and does not stop the pass."""
    commands = []
    for label, path in inputs:
        argv = [workload.command, "--config", str(path), *workload.extra_args]
        first = len(recorder.solves)
        out = io.StringIO()
        rc = error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        except flow_errors as exc:
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        commands.append(Command(label, wall, rc, parse_kv(out.getvalue()),
                                error, recorder.solves[first:]))
    return commands


# -- correctness gate ---------------------------------------------------------

def oracle_eigenvalues(solve: Solve, build_hamiltonian) -> np.ndarray:
    return np.linalg.eigvals(build_hamiltonian(solve.spec, solve.s, solve.g).mat)


def solve_failures(z, eigenvalues, reference=None) -> list[str]:
    """Reasons a solve's z_inf breaks the gate (empty when it passes)."""
    reasons = []
    err = float(np.min(np.abs(np.asarray(eigenvalues) - z)))
    if not err <= Z_TOL:
        reasons.append(f"|z_inf - oracle| = {err:.3e} > {Z_TOL:.0e}")
    if reference is not None:
        dev = abs(z - reference)
        if not dev <= Z_TOL:
            reasons.append(f"|z_inf - reference| = {dev:.3e} > {Z_TOL:.0e}")
    return reasons


def command_failures(cmd: Command) -> list[str]:
    """Reasons the command as a whole failed: it raised, exited non-zero or
    reported a failed check."""
    reasons = []
    if cmd.error is not None:
        reasons.append(cmd.error)
    elif cmd.rc != 0:
        reasons.append(f"exit code {cmd.rc}")
    bad = sorted(k for k, v in cmd.kv.items() if k.startswith("check.") and v != "pass")
    if bad:
        reasons.append("failed " + ", ".join(bad))
    if cmd.error is None and cmd.kv.get("all_passed") != "true":
        reasons.append("all_passed is not true")
    if cmd.error is None and not cmd.solves:
        reasons.append("no solve was recorded")
    if "z_inf.re" in cmd.kv and cmd.solves:
        z_kv = complex(float(cmd.kv["z_inf.re"]), float(cmd.kv["z_inf.im"]))
        if cmd.solves[-1].z is None or abs(z_kv - cmd.solves[-1].z) > Z_TOL:
            reasons.append("reported z_inf differs from the flow's z_inf")
    return reasons


@dataclass
class GateResult:
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)


def gate(commands, build_hamiltonian, references=None) -> GateResult:
    """Check every solve of every command.  ``references`` maps a command's
    label to the list of reference z_inf values of its solves; without it
    (while references are recorded) only the oracle is checked."""
    res = GateResult()
    for cmd in commands:
        whole = command_failures(cmd)
        refs = None if references is None else references.get(cmd.label)
        if references is not None and refs is None:
            whole.append("no reference recorded")
        elif refs is not None and len(refs) != len(cmd.solves) and cmd.error is None:
            whole.append(f"{len(cmd.solves)} solves, reference has {len(refs)}")
            refs = None
        n = max(1, len(cmd.solves))
        res.attempted += n
        if whole:
            res.failed += n
            res.reasons.append(f"{cmd.label}: " + "; ".join(whole))
            continue
        for k, solve in enumerate(cmd.solves):
            why = []
            if solve.error is not None:
                why.append(solve.error)
            elif not solve.converged:
                why.append("flow did not converge")
            else:
                why = solve_failures(solve.z, oracle_eigenvalues(solve, build_hamiltonian),
                                     None if refs is None else refs[k])
            if why:
                res.failed += 1
                res.reasons.append(f"{cmd.label} solve {k} (s = {solve.s}): "
                                   + "; ".join(why))
    return res


def load_references(path: Path, workload: str) -> dict:
    doc = json.loads(path.read_text())
    return {label: [complex(re, im) for re, im in zs]
            for label, zs in doc[workload].items()}


def reference_entry(commands) -> dict:
    return {cmd.label: [[s.z.real, s.z.imag] for s in cmd.solves]
            for cmd in commands}
