"""The names the benchmark in perfbench/ takes from specrg: every layer its
trace wraps (``SPANS`` in perfbench/run.py) and the run-config loader that
perfbench/setup_probe.py imports from ``specrg.cli``."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.SPANS


SPANS = load_spans()


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
