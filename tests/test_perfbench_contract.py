"""The names the benchmark in perfbench/ takes from specrg: every layer its
trace wraps (``SPANS`` in perfbench/run.py), the run-config loader that
perfbench/setup_probe.py imports from ``specrg.cli``, the flow errors a pass
catches (``Program.flow_errors``), the parameters and result fields of
``iterate_to_fixed_point`` that ``SolveRecorder`` in perfbench/workloads.py
reads, and the Hamiltonian the gate's oracle diagonalizes."""

import dataclasses
import importlib
import importlib.util
import inspect
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
