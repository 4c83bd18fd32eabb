"""The names the benchmark in perfbench/ takes from specrg: every layer its
trace wraps (``SPANS`` in perfbench/run.py), the run-config loader that
perfbench/setup_probe.py imports from ``specrg.cli``, the flow errors a pass
catches (``Program.flow_errors``), the parameters and result fields of
``iterate_to_fixed_point`` that ``SolveRecorder`` in perfbench/workloads.py
reads, the Hamiltonian the gate's oracle diagonalizes, and the reported
z_inf that the gate compares with the flow's."""

import dataclasses
import importlib
import importlib.resources
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


RUN = load_bench("run")
WORKLOADS = load_bench("workloads")
SPANS = RUN.SPANS


@pytest.fixture(scope="module")
def program():
    return RUN.Program()


@pytest.mark.parametrize("module, attribute", [(m, a) for _, m, a in SPANS],
                         ids=[name for name, _, _ in SPANS])
def test_every_span_resolves_to_a_callable(module, attribute):
    assert callable(getattr(importlib.import_module(f"specrg.{module}"), attribute))


def test_setup_probe_imports_load_run_config():
    from specrg.cli import load_run_config

    params = list(inspect.signature(load_run_config).parameters)
    assert params[0] == "path_or_name"
    check_winding, spec = load_run_config("m_triv")
    assert check_winding is True and spec.name == "m_triv"
    spec.full_basis()
    spec.reduced_fock_basis()


def test_flow_errors_are_the_programs_exception_classes(program):
    from specrg import feshbach, model, rg

    assert program.flow_errors == (model.WindowError, rg.WindowExitError,
                                   feshbach.FeshbachPairError, ArithmeticError)
    assert all(issubclass(e, Exception) for e in program.flow_errors)


def test_the_solve_recorder_reads_the_flow_and_the_gate_its_hamiltonian(program):
    from specrg import fock, model, rg
    from specrg.config import load_model

    params = list(inspect.signature(rg.iterate_to_fixed_point).parameters)
    assert params[:4] == ["spec", "s", "check_winding", "g"]
    spec = load_model("m_triv")
    spec = dataclasses.replace(spec, grid=fock.ModeGrid(spec.grid.ratio, 3,
                                                        spec.grid.channel_weight))
    g = 0.9 * spec.g
    res = rg.iterate_to_fixed_point(spec, spec.s0, False, g)
    assert program.build_hamiltonian is model.build_hamiltonian
    # g as the fourth positional argument, and as a keyword
    for args, kwargs in (((spec, spec.s0, False, g), {}), ((spec, spec.s0, False), {"g": g})):
        recorder = WORKLOADS.SolveRecorder()
        recorder(args, kwargs, res, None)
        (solve,) = recorder.solves
        assert (solve.s, solve.g, solve.z, solve.converged) == (spec.s0, g, res.z_inf, True)
        eigenvalues = WORKLOADS.oracle_eigenvalues(solve, program.build_hamiltonian)
        assert np.abs(eigenvalues - res.z_inf).min() <= WORKLOADS.Z_TOL


def test_a_real_flow_reports_both_parts_of_its_complex_z_inf(tmp_path, capsys):
    # a real model at a real s flows in real arithmetic; z_inf stays complex,
    # so run.kv keeps z_inf.re and z_inf.im and the gate's reported-z check
    # runs, not skips
    from specrg import fock, rg
    from specrg.cli import main
    from specrg.config import load_model

    spec = load_model("m_triv")
    spec = dataclasses.replace(spec, grid=fock.ModeGrid(spec.grid.ratio, 3,
                                                        spec.grid.channel_weight))
    res = rg.iterate_to_fixed_point(spec, spec.s0, False)
    assert res.flow.first.affine.base.dtype == np.float64   # the real path
    assert isinstance(res.z_inf, complex) and res.z_inf.imag == 0
    doc = json.loads(importlib.resources.files("specrg").joinpath(
        "fixtures/m_triv.json").read_text())
    doc["grid"]["levels"] = 3
    config = tmp_path / "m_triv.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    kv = dict(line.split("=", 1) for line in (tmp_path / "run.kv").read_text().splitlines())
    assert {"z_inf.re", "z_inf.im"} <= set(kv) and kv["z_inf.im"] == "0"
    recorder = WORKLOADS.SolveRecorder()
    recorder((spec, spec.s0, False), {}, res, None)
    cmd = WORKLOADS.Command("m_triv", 0.0, 0, kv, None, recorder.solves)
    assert WORKLOADS.command_failures(cmd) == []
    cmd.solves[0].z += 1e-9   # a reported z_inf the flow did not find fails the gate
    assert WORKLOADS.command_failures(cmd) == ["reported z_inf differs from the flow's z_inf"]
