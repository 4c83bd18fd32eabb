import json
from importlib import resources

import numpy as np

from specrg.cli import main
from specrg.config import load_model
from specrg.kernels import extract_w00, polydisc_check
from specrg.rg import RGConfig, run_ladder


def cut_fixture(tmp_path, name, levels=3, **overrides):
    """Shipped fixture with its mode grid cut to ``levels`` shells."""
    doc = json.loads(resources.files("specrg").joinpath(f"fixtures/{name}.json").read_text())
    doc["grid"]["levels"] = levels
    doc.update(overrides)
    path = tmp_path / f"{name}_l{levels}.json"
    path.write_text(json.dumps(doc))
    return path


def read_kv(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


class TestLadder:
    def test_levels_keep_their_own_extraction(self):
        spec = load_model("m_kramers")
        cfg = RGConfig(rho=spec.grid.ratio, mu=spec.mu)
        s = spec.s0
        lad = run_ladder(spec, s, spec.e_at(s), spec.grid.levels + 1, cfg,
                         check_windows=False)
        assert len(lad.levels) == spec.grid.levels + 2
        for level in lad.levels:
            fresh = extract_w00(level.h)
            assert np.array_equal(level.extraction.kernel.values, fresh.kernel.values)
            assert np.array_equal(level.extraction.kernel.derivs, fresh.kernel.derivs)
            assert level.polydisc == polydisc_check(fresh, cfg.gate_params())


class TestCli:
    def test_m_exact_matches_m_triv_bit_for_bit(self, tmp_path, capsys):
        # shipped grids: on grids cut to 2-4 shells the two z_inf differ by
        # 3.5e-18 (BLAS rounding at d = 1 against d = 2)
        kv = {}
        for name in ("m_triv", "m_exact"):
            out = tmp_path / name
            assert main(["run", "--config", name, "--out", str(out)]) == 0
            kv[name] = read_kv(out / "run.kv")
        for key in ("z_inf.re", "z_inf.im"):
            assert kv["m_triv"][key] == kv["m_exact"][key]
        assert abs(float(kv["m_triv"]["z_inf.re"]) + 0.025960863008338515) <= 1e-12
        for doc in kv.values():
            assert int(doc["first.neumann_terms"]) >= 1
            assert doc["check.first_feshbach_consistency"] == "pass"
            assert doc["all_passed"] == "true"

    def test_flow_failure_is_reported_with_exit_code_3(self, tmp_path, capsys):
        config = cut_fixture(tmp_path, "m_triv", coupling_strength=3.0)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 3
        kv = read_kv(out / "run.kv")
        assert kv["check.flow"] == "fail"
        assert kv["flow.error"].startswith("WindowError: ")
        assert kv["all_passed"] == "false"
        assert "[FAIL] flow: WindowError" in (out / "run.txt").read_text()

    def test_probe_report_does_not_depend_on_jobs(self, tmp_path, capsys):
        config = cut_fixture(tmp_path, "m_triv")
        texts = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["probe-analyticity", "--config", str(config),
                         "--out", str(out), "--jobs", jobs]) == 0
            texts.append((out / "probe.kv").read_bytes())
        assert texts[0] == texts[1]

