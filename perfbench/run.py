"""specrg benchmark: end-to-end timings behind a correctness gate, and traced
per-layer counts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace T]
    python3 perfbench/run.py --workload NAME --write-reference

Run from a checkout that holds ``src/specrg``; the program is imported from
there and nowhere else.  With ``--trace 0`` the run repeats the workload's
commands while the time budget lasts and prints the end-to-end metrics (medians
over passes); with ``--trace 1`` it runs one pass with every layer wrapped and
prints the per-layer metrics.  Each metric is printed as ``name value unit``;
the last line is one JSON object.  The exit code is 1 when any solve fails the
gate, 2 when the program cannot be found.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
REFERENCE = BENCH / "reference.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7  # fresh processes per run: 3 before the passes, 4 after
WORKLOAD_NAMES = ("fixtures-run", "large-fock-run", "probe-s")

# (span name, module, attribute): every layer function the trace wraps.
SPANS = (
    ("config.load_model", "config", "load_model"),
    ("model.verify_hypotheses", "model", "verify_hypotheses"),
    ("model.build_hamiltonian", "model", "build_hamiltonian"),
    ("model.spectral_projection", "model", "spectral_projection"),
    ("fock.build_fock_basis", "fock", "build_fock_basis"),
    ("fock.dilation", "fock", "dilation"),
    ("feshbach.first_feshbach", "feshbach", "first_feshbach"),
    ("feshbach.verify_pair", "feshbach", "verify_pair"),
    ("feshbach.feshbach_map", "feshbach", "feshbach_map"),
    ("feshbach.q_ops", "feshbach", "q_ops"),
    ("kernels.extract_w00", "kernels", "extract_w00"),
    ("kernels.polydisc_check", "kernels", "polydisc_check"),
    ("symmetry.schur_scalar", "symmetry", "schur_scalar"),
    ("symmetry.is_symmetry_of", "symmetry", "is_symmetry_of"),
    ("rg.iterate_to_fixed_point", "rg", "iterate_to_fixed_point"),
    ("rg.find_zn", "rg", "find_zn"),
    ("rg.winding_count", "rg", "_winding_count"),
    ("rg.run_ladder", "rg", "run_ladder"),
    ("rg.rg_step", "rg", "rg_step"),
    ("rg.build_eigenvectors", "rg", "build_eigenvectors"),
    ("oracle.dense_spectrum", "oracle", "dense_spectrum"),
)
FLOW = "rg.iterate_to_fixed_point"
# Spans reported with calls and self time: each runs on every workload.
TIMED = ("kernels.extract_w00", "kernels.polydisc_check",
         "model.spectral_projection", "model.build_hamiltonian", "fock.dilation",
         "feshbach.first_feshbach", "feshbach.verify_pair",
         "feshbach.feshbach_map", "feshbach.q_ops", "rg.run_ladder",
         "rg.rg_step", "symmetry.schur_scalar")
# Spans reported with calls only: some workload never calls them, and a self
# time that is 0 on every run is not a measurement.  Their time is reported
# in the symmetry.self_s and outside_flow.self_s groups.
CALLS_ONLY = ("fock.build_fock_basis", "symmetry.is_symmetry_of",
              "rg.build_eigenvectors", "oracle.dense_spectrum",
              "model.verify_hypotheses")


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="time budget for the measured passes; at least one "
                         "whole pass runs even when it takes longer")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record the workload's z_inf values at every coupling "
                         "factor in reference.json")
    args = ap.parse_args(argv)
    if args.write_reference and args.workload == "all":
        ap.error("--write-reference needs one workload")
    return args


# -- environment ---------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


# -- program -------------------------------------------------------------------

def numpy_linalg_impl():
    """The module whose globals numpy's own linalg functions call through:
    np.linalg.norm(x, 2) runs its SVD there, not through np.linalg.svd."""
    return (sys.modules.get("numpy.linalg._linalg")
            or sys.modules["numpy.linalg.linalg"])


class Program:
    """The specrg modules, imported from the checkout's src/."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import specrg
        from specrg import cli, config, feshbach, fock, kernels, model, oracle, rg, symmetry

        where = Path(specrg.__file__).resolve()
        if SRC.resolve() not in where.parents:
            raise ImportError(f"specrg was imported from {where}, not {SRC}")
        self.cli = cli
        self.modules = {"config": config, "model": model, "fock": fock,
                        "feshbach": feshbach, "kernels": kernels,
                        "symmetry": symmetry, "rg": rg, "oracle": oracle}
        self.namespaces = [m for n, m in sorted(sys.modules.items())
                           if n == "specrg" or n.startswith("specrg.")]
        self.build_hamiltonian = model.build_hamiltonian
        self.flow_errors = (model.WindowError, rg.WindowExitError,
                            feshbach.FeshbachPairError, ArithmeticError)
        # finish lazy imports before anything is timed
        import scipy.interpolate  # noqa: F401
        import scipy.linalg  # noqa: F401

    def flow_span(self, tracer, recorder):
        tracer.span(FLOW, self.modules["rg"], "iterate_to_fixed_point",
                    self.namespaces, on_return=recorder)

    def trace_layers(self, tracer, recorder):
        import numpy as np
        import scipy.interpolate

        for name, mod, attr in SPANS:
            tracer.span(name, self.modules[mod], attr, self.namespaces,
                        on_return=recorder if name == FLOW else None)
        for fn in ("svd", "solve", "inv"):
            tracer.count(f"linalg.{fn}.calls", np.linalg, fn,
                         [numpy_linalg_impl(), *self.namespaces])
        tracer.count("scipy.pchip_fits", scipy.interpolate, "PchipInterpolator",
                     self.namespaces)


def setup_times(paths, n: int) -> list[float]:
    """Wall times of n fresh processes that import specrg, load the
    workload's configs and build their bases."""
    times = []
    for _ in range(n):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), *map(str, paths)],
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def layer_metrics(tracer, wall: float) -> dict:
    from tracer import wrapper_cost_s

    m = {}
    for name in TIMED:
        m[f"{name}.calls"] = (tracer.calls[name], "count")
        m[f"{name}.self_s"] = (tracer.self_s[name], "s")
    for name in CALLS_ONLY:
        m[f"{name}.calls"] = (tracer.calls[name], "count")
    for name in ("linalg.svd.calls", "linalg.solve.calls", "linalg.inv.calls",
                 "scipy.pchip_fits"):
        m[name] = (tracer.calls[name], "count")
    secant = tracer.calls_under("rg.find_zn", "rg.run_ladder")
    winding = tracer.calls_under("rg.winding_count", "rg.run_ladder")
    m["rg.secant_evals"] = (secant, "count")
    m["rg.winding_evals"] = (winding, "count")
    m["rg.useful_eval_frac"] = (secant / max(1, secant + winding), "ratio")
    m["rg.window_exits"] = (tracer.raised["rg.run_ladder", "WindowExitError"], "count")
    m["rg.depths"] = (tracer.calls["rg.find_zn"], "count")
    m["symmetry.self_s"] = (tracer.self_s["symmetry.schur_scalar"]
                            + tracer.self_s["symmetry.is_symmetry_of"], "s")
    covered = sum(tracer.self_s.values())
    m["outside_flow.self_s"] = (covered - tracer.total_s[FLOW], "s")
    span_cost, count_cost = wrapper_cost_s()
    span_names = {name for name, _, _ in SPANS}
    n_span = sum(v for k, v in tracer.calls.items() if k in span_names)
    n_count = sum(v for k, v in tracer.calls.items() if k not in span_names)
    m["trace.coverage_frac"] = (covered / wall, "ratio")
    m["trace.overhead_frac"] = ((n_span * span_cost + n_count * count_cost) / wall,
                                "ratio")
    return m


# -- one workload --------------------------------------------------------------

def write_reference(workload, prog, inputs_dir: Path) -> int:
    """Record the z_inf of every solve of the workload at every coupling
    factor a seed can draw.  Only the oracle gates what is recorded."""
    import workloads as wl
    from tracer import Tracer

    entry, failed = {}, 0
    for factor in wl.COUPLING_FACTORS:
        inputs = wl.write_inputs(workload, [factor] * len(workload.models),
                                 SRC / "specrg" / "fixtures", inputs_dir)
        recorder = wl.SolveRecorder()
        with Tracer() as tracer:
            prog.flow_span(tracer, recorder)
            commands = wl.run_pass(workload, inputs, prog.cli, recorder,
                                   prog.flow_errors)
        res = wl.gate(commands, prog.build_hamiltonian)
        for reason in res.reasons:
            print("FAIL " + reason, file=sys.stderr)
        failed += res.failed
        entry.update(wl.reference_entry(commands))
        print(f"factor {factor:.2f}: {res.attempted - res.failed} of "
              f"{res.attempted} solves pass the oracle")
    if failed:
        return 1
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    doc[workload.name] = entry
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"reference for {workload.name} written to {REFERENCE.name}")
    return 0


def run_workload(args) -> int:
    import workloads as wl
    from tracer import Tracer

    workload = wl.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    inputs_dir = Path(tempfile.mkdtemp(prefix="inputs-", dir=WORK))
    try:
        if args.write_reference:
            return write_reference(workload, Program(), inputs_dir)
        inputs = wl.write_inputs(workload,
                                 wl.coupling_factors(args.seed, len(workload.models)),
                                 SRC / "specrg" / "fixtures", inputs_dir)
        env = environment(args.seed)
        print("env " + json.dumps(env, sort_keys=True))
        paths = [p for _, p in inputs]
        # set-up samples on both sides of the passes, so that they do not all
        # fall into one period of a shared machine's speed
        setups = [] if args.trace else setup_times(paths, SETUP_REPEATS // 2)
        prog = Program()
        refs = wl.load_references(REFERENCE, workload.name)

        recorder = wl.SolveRecorder()
        walls, flows, passes = [], [], []
        attempted = failed = 0
        reasons = []
        start = time.perf_counter()
        while True:
            with Tracer() as tracer:
                if args.trace:
                    prog.trace_layers(tracer, recorder)
                else:
                    prog.flow_span(tracer, recorder)
                commands = wl.run_pass(workload, inputs, prog.cli, recorder,
                                       prog.flow_errors)
            wall = sum(c.wall_s for c in commands)
            walls.append(wall)
            flows.append(tracer.total_s[FLOW])
            res = wl.gate(commands, prog.build_hamiltonian, refs)
            attempted += res.attempted
            failed += res.failed
            reasons += res.reasons
            passes.append({"wall_s": wall, "flow_s": tracer.total_s[FLOW],
                           "solves": [[c.label, [s.s.real, s.s.imag], s.g,
                                       None if s.z is None else [s.z.real, s.z.imag]]
                                      for c in commands for s in c.solves]})
            if args.trace:
                metrics = layer_metrics(tracer, wall)
                break
            if time.perf_counter() - start + statistics.median(walls) > args.seconds:
                setups += setup_times(paths, SETUP_REPEATS - len(setups))
                metrics = {
                    "setup_s": (statistics.median(setups), "s"),
                    "wall_s": (statistics.median(walls), "s"),
                    "flow_s": (statistics.median(flows), "s"),
                    "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                    / 1024.0, "MB"),
                }
                break

        for reason in reasons:
            print("FAIL " + reason, file=sys.stderr)
        for name, (value, unit) in metrics.items():
            print(f"{name} {value} {unit}")
        print(f"passes {len(passes)} count")
        print(f"fail_frac {failed / max(1, attempted)} ratio ({failed} of {attempted} solves)")
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        report = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
        report.write_text(json.dumps({"workload": workload.name, "env": env,
                                      "result": result, "failures": reasons,
                                      "passes": passes}, indent=1) + "\n")
        print(json.dumps(result))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    summary = {}
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name} {line}")
        worst = max(worst, proc.returncode)
        last = lines[-1] if lines else ""
        summary[name] = json.loads(last) if last.startswith("{") else None
    ok = worst == 0 and all(r is not None and r["correct"] for r in summary.values())
    print(json.dumps({"correct": ok, "workloads": summary}))
    return worst if worst else (0 if ok else 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads its thread count when numpy loads, so this precedes every
    # numpy import, in this process and in the processes it starts.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "specrg" / "__init__.py").is_file():
        print(f"perfbench: no specrg sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
