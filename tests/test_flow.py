import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

import numpy as np
import pytest

from specrg import fock, kernels, model, oracle, symmetry
from specrg.cli import main
from specrg.config import load_model
from specrg.feshbach import verify_pair
from specrg.kernels import extract_w00, polydisc_check
from specrg.oracle import dense_spectrum
from specrg.rg import (
    Flow,
    _winding_count,
    build_eigenvectors,
    iterate_to_fixed_point,
    run_ladder,
)
from specrg.symmetry import SymmetryOp, is_symmetry_of, schur_scalar


def cut_fixture(tmp_path, name, levels=3, edit=None, **overrides):
    """Shipped fixture with its mode grid cut to ``levels`` shells; ``edit``
    may change the parsed document before it is written."""
    doc = json.loads(resources.files("specrg").joinpath(f"fixtures/{name}.json").read_text())
    doc["grid"]["levels"] = levels
    doc.update(overrides)
    if edit is not None:
        edit(doc)
    path = tmp_path / f"{name}_l{levels}.json"
    path.write_text(json.dumps(doc))
    return path


def read_kv(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def count_calls(monkeypatch, module, name):
    """List that grows by one at each call of ``module.name``, made through
    any binding of it in a specrg module."""
    fn = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("specrg") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


class TestLadder:
    def test_trace_diagnostics_equal_eager_calls(self, tmp_path):
        spec = load_model(cut_fixture(tmp_path, "m_kramers"))
        res = iterate_to_fixed_point(spec, spec.s0, True)
        top, rec = res.final_ladder.top, res.trace.records[-1]
        assert top.n == rec.n == res.n_levels >= 1 and top.pair is not None
        chk = polydisc_check(extract_w00(top.h))
        assert (rec.beta_hat, rec.gamma_hat) == (chk.beta_hat, chk.gamma_hat)
        assert rec.schur_deviation == schur_scalar(top.h.mat, spec.d, top.h.basis.size)[1]
        gens = res.flow.depth(rec.n).generators
        assert len(gens) == 1
        assert rec.symmetry_residual == is_symmetry_of(gens[0], top.h.mat)[1]
        report = verify_pair(top.pair)
        assert (rec.t_margin, rec.contraction_left) == (report.t_margin, report.contraction_left)

    @pytest.mark.parametrize("name", ["m_triv", "m_kramers"])
    def test_diagnostics_run_once_per_depth(self, tmp_path, monkeypatch, name):
        spec = load_model(cut_fixture(tmp_path, name))
        checks = count_calls(monkeypatch, kernels, "polydisc_check")
        residuals = count_calls(monkeypatch, symmetry, "is_symmetry_of")
        res = iterate_to_fixed_point(spec, spec.s0, True)
        depths = res.n_levels + 1
        assert res.converged and all(r.winding == 1 for r in res.trace.records)
        assert len(checks) == depths
        assert len(residuals) == depths * len(spec.generators)
        assert _winding_count(res.flow, res.n_levels, res.z_inf) == 1
        # a winding ladder reads only E^(n)
        assert (len(checks), len(residuals)) == (depths, depths * len(spec.generators))

    def test_only_the_top_level_keeps_its_pair(self, tmp_path):
        spec = load_model(cut_fixture(tmp_path, "m_triv"))
        lad = run_ladder(Flow(spec, spec.s0, True), spec.e_at(spec.s0), 2)
        assert [level.pair is None for level in lad.levels] == [True, True, False]


class TestFlow:
    def test_z_independent_data_is_built_once(self, tmp_path, monkeypatch):
        spec = load_model(cut_fixture(tmp_path, "m_kramers"))
        hamiltonians = count_calls(monkeypatch, model, "build_hamiltonian")
        dilations = count_calls(monkeypatch, fock, "dilation")
        res = iterate_to_fixed_point(spec, spec.s0, True)
        assert res.converged
        assert len(hamiltonians) == 1
        assert len(dilations) == spec.grid.levels

    def test_depths_are_shared_across_s(self, tmp_path, monkeypatch):
        spec = load_model(cut_fixture(tmp_path, "m_triv"))
        dilations = count_calls(monkeypatch, fock, "dilation")
        flows = [Flow(spec, spec.s0 + ds, True) for ds in (0.0, 0.01, 0.01j)]
        for n in range(spec.grid.levels + 2):
            assert flows[1].depth(n) is flows[0].depth(n) is flows[2].depth(n)
        assert flows[0].depth(0).basis is flows[2].first.reduced_basis
        assert flows[0].first.basis is flows[1].first.basis
        assert len(dilations) == spec.grid.levels
        copy = dataclasses.replace(spec)
        assert copy.built == {}
        assert Flow(copy, copy.s0, True).depth(0) is not flows[0].depth(0)

    def test_threads_share_one_record_per_depth(self, tmp_path):
        spec = load_model(cut_fixture(tmp_path, "m_triv"))
        flows = [Flow(spec, spec.s0 + 0.01 * k, True) for k in range(6)]
        spec.built.clear()   # the flows above built bases; start the race from nothing
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as ex:
                seen = list(ex.map(lambda f: [f.depth(n) for n in range(5)], flows))
        finally:
            sys.setswitchinterval(switch)
        for n in range(5):
            assert all(depths[n] is seen[0][n] for depths in seen)
        assert seen[0][1].basis is seen[0][0].dilation.target

    def test_threads_share_one_first_decimation(self, tmp_path):
        spec = load_model(cut_fixture(tmp_path, "m_triv"))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as ex:
                firsts = list(ex.map(lambda _: Flow(spec, spec.s0, True).first, range(6)))
        finally:
            sys.setswitchinterval(switch)
        assert all(first is firsts[0] for first in firsts)
        assert Flow(spec, spec.s0, True, g=0.5 * spec.g).first is not firsts[0]

    # H_g(s0) once, in the first decimation that the first-decimation checks,
    # the flow, its eigenvectors and the oracle share; one dilation per flow
    # depth.  m_kramers' hypothesis checks add the complex-selfadjointness H
    # on a small basis.
    @pytest.mark.parametrize("name, hamiltonians, dilations",
                             [("m_triv", 1, 3), ("m_kramers", 2, 3)])
    def test_one_run_builds_each_operator_once(self, tmp_path, monkeypatch, capsys,
                                               name, hamiltonians, dilations):
        config = cut_fixture(tmp_path, name)
        built = count_calls(monkeypatch, model, "build_hamiltonian")
        dilated = count_calls(monkeypatch, fock, "dilation")
        assert main(["run", "--config", str(config)]) == 0
        assert (len(built), len(dilated)) == (hamiltonians, dilations)

    @pytest.mark.parametrize("name", ["m_triv", "m_kramers", "m_pauli"])
    def test_terminal_energy_vanishes_at_the_oracle_eigenvalue(self, tmp_path, name):
        """At the terminal depth J the Feshbach maps are exact, so E^(J)
        vanishes at an eigenvalue of the truncated H_g(s0) and has slope
        about -rho^-J next to it."""
        spec = load_model(cut_fixture(tmp_path, name))
        res = iterate_to_fixed_point(spec, spec.s0, False)
        eigs = dense_spectrum(res.flow.first.hamiltonian).eigenvalues
        z_o = eigs[np.argmin(np.abs(eigs - res.z_inf))]
        J = spec.grid.levels

        def energy(z):
            return abs(run_ladder(res.flow, z, J, check_windows=False).top.e_value)

        assert energy(z_o) <= 1e-12
        assert energy(z_o + 1e-6) >= 0.5e-6 * spec.grid.ratio ** -J

    def test_rotated_atomic_frame_gives_the_same_flow(self):
        """m_pauli with every atomic matrix conjugated by a real rotation R,
        so that P_at(s0) is no longer diagonal and the first decimation
        works in a rotated atomic frame."""
        spec = load_model("m_pauli")
        spec = dataclasses.replace(spec, grid=fock.ModeGrid(spec.grid.ratio, 3,
                                                            spec.grid.channel_weight))
        a, b = 0.7, 0.5
        r = (np.array([[1, 0, 0], [0, np.cos(a), -np.sin(a)], [0, np.sin(a), np.cos(a)]])
             @ np.array([[np.cos(b), 0, -np.sin(b)], [0, 1, 0], [np.sin(b), 0, np.cos(b)]]))

        def rot(mats):
            return [r @ m @ r.T for m in mats]

        rotated = dataclasses.replace(
            spec, hat_coeffs=rot(spec.hat_coeffs), b1_coeffs=rot(spec.b1_coeffs),
            b2_coeffs=rot(spec.b2_coeffs),
            generators=[SymmetryOp(r @ g.matrix @ r.T, g.antiunitary)
                        for g in spec.generators],
            jconj=None if spec.jconj is None else r @ spec.jconj @ r.T)
        p0 = rotated.p_at(rotated.s0)
        assert np.abs(p0 - np.diag(np.diag(p0))).max() > 0.3
        plain = iterate_to_fixed_point(spec, spec.s0, True)
        res = iterate_to_fixed_point(rotated, rotated.s0, True)
        assert plain.converged and res.converged
        assert abs(res.z_inf - plain.z_inf) <= 1e-12
        assert max(build_eigenvectors(res.flow, res.z_inf).residuals) <= 1e-10
        assert max(rec.symmetry_residual for rec in res.trace.records) <= 1e-9


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
        assert kv["m_triv"]["xi"] == format(np.sqrt(0.5) / 4, ".17g")
        for doc in kv.values():
            assert int(doc["first.neumann_terms"]) >= 1
            assert doc["check.first_feshbach_consistency"] == "pass"
            assert doc["all_passed"] == "true"

    def test_run_outputs_are_byte_identical(self, tmp_path, capsys, monkeypatch):
        # two runs of one config in one process write the same bytes, and a
        # run without --out prints that run.kv and formats no other text
        config = cut_fixture(tmp_path, "m_triv")
        names = ("run.kv", "trace.txt", "kernel.txt", "spectrum.txt")
        extracts = count_calls(monkeypatch, kernels, "extract_w00")
        written, counts = [], []
        for k in range(2):
            out = tmp_path / f"out{k}"
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            written.append([(out / name).read_bytes() for name in names])
            counts.append(len(extracts))
        assert written[0] == written[1]
        capsys.readouterr()
        assert main(["run", "--config", str(config)]) == 0
        assert capsys.readouterr().out.encode() == written[0][0]
        # kernel.txt is the only extraction outside the flow
        assert len(extracts) - counts[1] == counts[0] - 1

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

    def test_sweep_diagonalizes_each_coupling_once(self, tmp_path, capsys, monkeypatch):
        spectra = count_calls(monkeypatch, oracle, "dense_spectrum")
        built = count_calls(monkeypatch, model, "build_hamiltonian")
        assert main(["sweep-g", "--config", "m_triv", "--out", str(tmp_path)]) == 0
        kv = read_kv(tmp_path / "sweep.kv")
        assert kv["check.sweep_flow_matches_oracle"] == "pass"
        assert len(spectra) == 4
        assert len(built) == 4   # the oracle and the flow share each H_g(s0)

    # z_inf at coupling factor 1.00 in perfbench/reference.json (fixtures-run)
    @pytest.mark.parametrize("name, z_ref", [("m_pauli", -0.025954561352956353),
                                             ("m_kramers", -0.0282885516831636)])
    def test_golden_run_on_three_levels(self, tmp_path, capsys, name, z_ref):
        out = tmp_path / "out"
        assert main(["run", "--config", str(cut_fixture(tmp_path, name)),
                     "--out", str(out)]) == 0
        kv = read_kv(out / "run.kv")
        failed = [k for k, v in kv.items() if k.startswith("check.") and v != "pass"]
        assert failed == []
        assert kv["all_passed"] == "true"
        assert abs(float(kv["z_inf.re"]) - z_ref) <= 1e-12


class TestExitCodes:
    def test_verify_passes_with_0(self, tmp_path, capsys):
        assert main(["verify", "--config", "m_triv", "--out", str(tmp_path)]) == 0
        assert read_kv(tmp_path / "verify.kv")["all_passed"] == "true"

    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1

    @pytest.mark.parametrize("key, value", [
        ("rho", 0.3), ("mu", 0.9), ("c_chi", 1.0), ("n_iter_max", 24), ("tol_z", 1e-12),
        ("tol_fixed_point", 1e-9), ("window_factor", 0.125), ("schur_tol", 1e-9),
        ("polydisc_strict", False), ("secant_max_iter", 50)])
    def test_model_owned_rg_key_exits_1(self, tmp_path, capsys, key, value):
        # rho is the grid ratio and mu the infrared exponent of the model; the
        # other keys name constants of the flow, which a run config cannot set
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"schema_version": 1, "model": "m_triv",
                                      "rg": {key: value}}))
        assert main(["run", "--config", str(config)]) == 1
        assert f"unknown keys in rg: ['{key}']" in capsys.readouterr().err

    # a run config sets rg.check_winding alone: the probe geometry and the
    # sweep are constants, and seed and jobs come from --seed and --jobs
    @pytest.mark.parametrize("command, entries, message", [
        ("run", {"rg": {"window_factor": 0.3}}, "unknown keys in rg: ['window_factor']"),
        ("verify", {"probe": {"cr_step": "abc"}}, "unknown keys in run config: ['probe']"),
        ("run", {"probe": {"cr_step": "abc"}}, "unknown keys in run config: ['probe']"),
        ("run", {"rg": {"check_winding": 1}}, "rg.check_winding must be bool, got 1"),
        ("run", {"seed": 1.7}, "unknown keys in run config: ['seed']"),
        ("run", {"rg": []}, "rg must be an object, got []"),
        ("run", {"probe": {"contour_nodes": 16.0}}, "unknown keys in run config: ['probe']"),
        ("run", {"seed": "abc"}, "unknown keys in run config: ['seed']"),
        ("run", {"jobs": None}, "unknown keys in run config: ['jobs']"),
        ("run", {"jobs": "2"}, "unknown keys in run config: ['jobs']"),
        ("run", {"sweep": 0.1}, "unknown keys in run config: ['sweep']"),
    ], ids=["window_factor", "cr_step-verify", "cr_step-run", "int-for-bool", "float-for-int",
            "rg-not-an-object", "float-for-probe-int", "seed", "jobs", "string-for-jobs",
            "sweep"])
    def test_bad_run_config_value_exits_1(self, tmp_path, capsys, command, entries, message):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"schema_version": 1, "model": "m_triv", **entries}))
        assert main([command, "--config", str(config)]) == 1
        assert f"configuration error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["run"], "the following arguments are required: --config"),
        (["run", "--config", "m_triv", "--format", "kv"], "unrecognized arguments: --format kv"),
        (["solve", "--config", "m_triv"], "argument command: invalid choice: 'solve'"),
        (["run", "--config", "m_triv", "--jobs", "two"],
         "argument --jobs: invalid int value: 'two'"),
        (["suite", "--config", "m_triv", "--seed", "-1"],
         "argument --seed: expected a non-negative integer, got -1"),
        (["run", "--config", "m_triv", "--seed", "1.5"],
         "argument --seed: expected a non-negative integer, got 1.5"),
    ], ids=["missing-config", "unknown-flag", "unknown-command", "bad-jobs", "negative-seed",
            "fractional-seed"])
    def test_usage_error_exits_1(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: specrg") and f"configuration error: {message}" in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--seed" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["verify", "run"])
    def test_grid_ratio_outside_the_flow_range_exits_1(self, tmp_path, capsys, command):
        # a grid ratio of 0.85 is a valid grid, but the flow needs rho < 4/5
        config = cut_fixture(tmp_path, "m_triv", edit=lambda doc: doc["grid"].update(ratio=0.85))
        assert main([command, "--config", str(config)]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_the_flow_refuses_a_grid_ratio_outside_its_range(self):
        spec = load_model("m_triv")
        spec = dataclasses.replace(spec, grid=fock.ModeGrid(0.85, 3, spec.grid.channel_weight))
        with pytest.raises(ValueError, match=r"rho must lie in \(0, 4/5\), got 0.85"):
            iterate_to_fixed_point(spec, spec.s0, False)

    def test_suite_failure_exits_2(self, tmp_path, capsys):
        def unitary_kramers(doc):
            doc["symmetry_generators"][0]["antiunitary"] = False

        config = cut_fixture(tmp_path, "m_kramers", edit=unitary_kramers)
        out = tmp_path / "out"
        assert main(["suite", "--config", str(config), "--out", str(out)]) == 2
        kv = read_kv(out / "suite.kv")
        assert kv["check.suite_group_irreducible"] == "fail"
        assert kv["all_passed"] == "false"
