"""Tests of the benchmark itself: trace counts, coverage, gate and inputs.

    python3 perfbench/selftest.py

Runs two traced ``specrg run`` commands on the shipped m_triv (about 15 s on
one core) and one flow that fails by design, with scratch files under
.perfbench/.  Not collected by the repository's pytest run, which only
looks at test_*.py files.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

M_TRIV = wl.Workload("m_triv-run", "run", (wl.Model("m_triv", "m_triv"),))


def scratch_dir() -> Path:
    run.WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))


class TracedTwice(unittest.TestCase):
    """Two traced runs of the shipped m_triv, shared by the tests below.  The
    second run's z_inf is the reference of the first."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = scratch_dir()
        cls.prog = run.Program()
        cls.inputs = wl.write_inputs(M_TRIV, [1.0], run.SRC / "specrg" / "fixtures",
                                     cls.tmp)
        cls.runs = []
        for _ in range(2):
            recorder = wl.SolveRecorder()
            with Tracer() as tracer:
                cls.prog.trace_layers(tracer, recorder)
                commands = wl.run_pass(M_TRIV, cls.inputs, cls.prog.cli, recorder,
                                       cls.prog.flow_errors)
            cls.runs.append((tracer, commands))
        cls.refs = {label: [complex(*z) for z in zs]
                    for label, zs in wl.reference_entry(cls.runs[1][1]).items()}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def test_counts_repeat_exactly(self):
        (a, _), (b, _) = self.runs
        self.assertEqual(a.calls, b.calls)
        self.assertEqual(a.edges, b.edges)
        self.assertEqual(a.by_root, b.by_root)
        self.assertEqual(a.raised, b.raised)

    def test_known_counts_in_the_flow(self):
        tracer, _ = self.runs[0]
        secant = tracer.calls_under("rg.find_zn", "rg.run_ladder")
        winding = tracer.calls_under("rg.winding_count", "rg.run_ladder")
        self.assertEqual((secant, winding), (28, 128))
        self.assertEqual(tracer.calls_within(run.FLOW, "rg.run_ladder"), 156)
        self.assertEqual(tracer.calls_within(run.FLOW, "kernels.extract_w00"), 1761)
        self.assertEqual(tracer.calls_within(run.FLOW, "model.spectral_projection"), 781)

    def test_layers_cover_the_command(self):
        tracer, commands = self.runs[0]
        metrics = run.layer_metrics(tracer, sum(c.wall_s for c in commands))
        self.assertGreaterEqual(metrics["trace.coverage_frac"][0], 0.95)
        self.assertLess(metrics["trace.overhead_frac"][0], 0.05)

    def test_bindings_restored(self):
        import scipy.interpolate

        for ns in [*self.prog.namespaces, np.linalg, run.numpy_linalg_impl(),
                   scipy.interpolate]:
            for key, value in vars(ns).items():
                self.assertFalse(getattr(value, "__qualname__", "").startswith("Tracer."),
                                 f"{ns.__name__}.{key} is still wrapped")
        rg, fe = self.prog.modules["rg"], self.prog.modules["feshbach"]
        self.assertIs(rg.first_feshbach, fe.first_feshbach)

    def test_gate_accepts_the_run(self):
        _, commands = self.runs[0]
        res = wl.gate(commands, self.prog.build_hamiltonian, self.refs)
        self.assertEqual((res.attempted, res.failed), (1, 0), res.reasons)

    def test_gate_rejects_tampered_z_inf(self):
        _, commands = self.runs[0]
        solve = commands[0].solves[0]
        z = solve.z
        try:
            solve.z = z + 1e-9
            res = wl.gate(commands, self.prog.build_hamiltonian, self.refs)
        finally:
            solve.z = z
        self.assertEqual(res.failed, 1)
        self.assertTrue(any("differs" in r for r in res.reasons), res.reasons)
        eigs = wl.oracle_eigenvalues(solve, self.prog.build_hamiltonian)
        self.assertEqual(wl.solve_failures(z, eigs, z), [])
        self.assertEqual(len(wl.solve_failures(z + 1e-9, eigs)), 1)
        self.assertEqual(len(wl.solve_failures(z + 1e-11j, eigs, z)), 2)


class FlowFailure(unittest.TestCase):
    def test_failure_is_counted_not_raised(self):
        tmp = scratch_dir()
        try:
            prog = run.Program()
            (label, path), = wl.write_inputs(M_TRIV, [1.0], run.SRC / "specrg" / "fixtures",
                                             tmp)
            doc = json.loads(path.read_text())
            doc["coupling_strength"] = 3.0
            path.write_text(json.dumps(doc))
            recorder = wl.SolveRecorder()
            with Tracer() as tracer:
                prog.flow_span(tracer, recorder)
                commands = wl.run_pass(M_TRIV, [(label, path)], prog.cli, recorder,
                                       prog.flow_errors)
            res = wl.gate(commands, prog.build_hamiltonian)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.assertIsNotNone(commands[0].error)
        self.assertEqual((res.attempted, res.failed), (1, 1))


class Inputs(unittest.TestCase):
    def test_seeded_coupling(self):
        self.assertEqual(wl.coupling_factors(0, 3), [1.0, 1.0, 1.0])
        self.assertEqual(wl.coupling_factors(7, 3), wl.coupling_factors(7, 3))
        self.assertNotEqual(wl.coupling_factors(7, 3), wl.coupling_factors(8, 3))
        for f in wl.coupling_factors(7, 50):
            self.assertIn(f, wl.COUPLING_FACTORS)
        self.assertEqual((min(wl.COUPLING_FACTORS), max(wl.COUPLING_FACTORS)), (0.9, 1.1))

    def test_every_input_has_a_reference(self):
        fixtures = run.SRC / "specrg" / "fixtures"
        tmp = scratch_dir()
        try:
            for workload in wl.WORKLOADS.values():
                refs = wl.load_references(run.REFERENCE, workload.name)
                for factor in wl.COUPLING_FACTORS:
                    n = len(workload.models)
                    for label, _ in wl.write_inputs(workload, [factor] * n, fixtures, tmp):
                        self.assertIn(label, refs)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def test_generated_configs(self):
        tmp = scratch_dir()
        try:
            fixtures = run.SRC / "specrg" / "fixtures"
            (_, path), = wl.write_inputs(wl.WORKLOADS["large-fock-run"], [1.0], fixtures,
                                         tmp)
            self.assertEqual(json.loads(path.read_text())["rg"], {"check_winding": False})
            doc = json.loads(Path(json.loads(path.read_text())["model"]).read_text())
            shipped = json.loads((fixtures / "m_triv.json").read_text())
            self.assertEqual(doc["coupling_strength"], shipped["coupling_strength"])
            self.assertEqual(doc["truncation"]["max_photons"], 3)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


class LinalgCounters(unittest.TestCase):
    def test_spectral_norm_counts_as_svd(self):
        prog = run.Program()
        a = np.eye(3)
        with Tracer() as tracer:
            prog.trace_layers(tracer, wl.SolveRecorder())
            np.linalg.norm(a, 2)
            np.linalg.norm(a)
            np.linalg.svd(a)
            np.linalg.inv(a)
            np.linalg.solve(a, a)
        self.assertEqual(tracer.calls["linalg.svd.calls"], 2)
        self.assertEqual(tracer.calls["linalg.inv.calls"], 1)
        self.assertEqual(tracer.calls["linalg.solve.calls"], 1)


if __name__ == "__main__":
    unittest.main()
