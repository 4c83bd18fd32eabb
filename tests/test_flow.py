import dataclasses
import gc
import json
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from specrg import config as cfgmod
from specrg import cli, feshbach, fock, kernels, model, oracle, rg, symmetry
from specrg.cli import main
from specrg.config import load_model
from specrg.feshbach import verify_pair
from specrg.kernels import BasisSpline, extract_w00, polydisc_check
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


REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference.json"


def large_fock_config(tmp_path, factor):
    """perfbench's large-fock-run input: m_triv at max_photons 3 (dim 157),
    its coupling scaled by ``factor``, through a run config with the winding
    check off."""
    doc = json.loads(resources.files("specrg").joinpath("fixtures/m_triv.json").read_text())
    doc["truncation"]["max_photons"] = 3
    doc["coupling_strength"] = doc["coupling_strength"] * factor
    model_path = tmp_path / f"m_triv_n3@{factor:.2f}.json"
    model_path.write_text(json.dumps(doc))
    config = tmp_path / f"m_triv_n3@{factor:.2f}.run.json"
    config.write_text(json.dumps({"schema_version": 1, "model": str(model_path),
                                  "rg": {"check_winding": False}}))
    return config


def vacuum_block(mat, d):
    """<T>_Omega = <e_a (x) Omega, T e_b (x) Omega>, gathered from the full
    matrix in atomic-major layout, where the vacuum is Fock index 0, in the
    matrix's own dtype."""
    idx = np.arange(d) * (mat.shape[-1] // d)
    return np.asarray(mat)[np.ix_(idx, idx)].copy()


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


def record_roots(monkeypatch):
    """List that grows by the ``RootResult`` of each ``rg.find_zn`` call."""
    find_zn = rg.find_zn
    roots = []

    def recorded(*args, **kwargs):
        roots.append(find_zn(*args, **kwargs))
        return roots[-1]

    monkeypatch.setattr(rg, "find_zn", recorded)
    return roots


class TestLadder:
    def test_trace_diagnostics_equal_eager_calls(self, tmp_path, monkeypatch):
        spec = load_model(cut_fixture(tmp_path, "m_kramers"))
        roots = record_roots(monkeypatch)
        res = iterate_to_fixed_point(spec, spec.s0, True)
        lad, rec = roots[-1].ladder, res.depths[-1]
        assert rec.ext is lad.ext
        assert lad.n == rec.n == res.n_levels >= 1 and lad.pair is not None
        assert (rec.z, rec.e_abs, rec.winding) == (lad.z, abs(complex(lad.e_value)), 1)
        chk = polydisc_check(extract_w00(lad.h, BasisSpline(lad.h.basis)))
        assert rec.polydisc == chk
        assert rec.schur_deviation == schur_scalar(vacuum_block(lad.h.mat, spec.d))[1]
        gens = spec.reduced_generators()
        assert len(gens) == 1 and rec.generators is gens and gens[0].dim == spec.d
        assert rec.symmetry_residual == is_symmetry_of(gens[0], lad.h.mat)[1]
        # the generator (x) 1 as one dense matrix gives the residual up to rounding
        dense = SymmetryOp(np.kron(gens[0].matrix, np.eye(lad.h.basis.size)),
                           gens[0].antiunitary)
        assert rec.symmetry_residual == pytest.approx(is_symmetry_of(dense, lad.h.mat)[1],
                                                      abs=1e-15)
        assert rec.pair_report == verify_pair(lad.pair)

    @pytest.mark.parametrize("name", ["m_triv", "m_kramers", "m_pauli"])
    def test_the_schur_deviation_reads_the_extraction_bit_for_bit(self, tmp_path, name):
        spec = load_model(cut_fixture(tmp_path, name))
        res = iterate_to_fixed_point(spec, spec.s0, False)
        assert res.converged and len(res.depths) >= 3
        for depth in res.depths:
            h = depth.ext.source
            d = h.basis.d_at
            block = vacuum_block(h.mat, d)   # the gather from the full matrix
            c = complex(np.trace(block) / d)
            want = float(np.linalg.norm(block - c * np.eye(d), 2))
            assert depth.ext.node_values[0].tobytes() == block.tobytes()
            assert np.float64(depth.schur_deviation).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("name", ["m_triv", "m_kramers"])
    def test_diagnostics_run_once_per_depth(self, tmp_path, monkeypatch, name):
        spec = load_model(cut_fixture(tmp_path, name))
        checks = count_calls(monkeypatch, kernels, "polydisc_check")
        schurs = count_calls(monkeypatch, symmetry, "schur_scalar")
        residuals = count_calls(monkeypatch, symmetry, "is_symmetry_of")
        res = iterate_to_fixed_point(spec, spec.s0, True)
        depths = res.n_levels + 1
        assert res.converged and all(r.winding == 1 for r in res.depths)
        # a depth's diagnostics are computed when they are first read
        assert (len(checks), len(schurs), len(residuals)) == (0, 0, 0)
        read = (0, depths, depths * len(spec.generators))   # the radii wait for a trace line
        for _ in range(2):   # a second read computes nothing
            assert all(r.schur_deviation >= 0 and r.symmetry_residual >= 0
                       for r in res.depths)
            assert (len(checks), len(schurs), len(residuals)) == read
        lines = res.trace_lines()
        once = (depths, depths, depths * len(spec.generators))
        assert (len(checks), len(schurs), len(residuals)) == once
        assert res.trace_lines() == lines   # nor does a second set of lines
        assert _winding_count(res.flow, res.n_levels, res.z_inf) == 1
        # a winding ladder reads only E^(n)
        assert (len(checks), len(schurs), len(residuals)) == once

    @pytest.mark.parametrize("command, n_solves",
                             [("run", 1), ("probe-analyticity", 24), ("sweep-g", 4)])
    def test_only_run_computes_the_trace(self, tmp_path, monkeypatch, capsys, command,
                                         n_solves):
        config = cut_fixture(tmp_path, "m_kramers")
        counted = [count_calls(monkeypatch, kernels, "polydisc_check"),
                   count_calls(monkeypatch, symmetry, "schur_scalar"),
                   count_calls(monkeypatch, symmetry, "is_symmetry_of")]
        solves = count_calls(monkeypatch, rg, "iterate_to_fixed_point")
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
        assert len(solves) == n_solves
        if command == "run":
            depths = int(read_kv(tmp_path / "run.kv")["n_levels"]) + 1
            # the hypothesis check adds one residual, of the conjugation J
            assert [len(c) for c in counted] == [depths, depths, depths + 1]
            # without --out no trace line is formed, and no polydisc radius
            for c in counted:
                c.clear()
            assert main([command, "--config", str(config)]) == 0
            assert [len(c) for c in counted] == [0, depths, depths + 1]
        else:
            assert [len(c) for c in counted] == [0, 0, 0]

    @pytest.mark.parametrize("name", ["m_triv", "m_kramers"])
    def test_each_level_is_extracted_once(self, tmp_path, monkeypatch, name):
        spec = load_model(cut_fixture(tmp_path, name))
        extracts = count_calls(monkeypatch, kernels, "extract_w00")
        levels = []   # n + 1 per fresh ladder of n levels, its new ones per grown ladder
        grown = []
        ladder = rg.run_ladder

        def counted(flow, z, n, *args, start=None, **kwargs):
            levels.append(n - (-1 if start is None else start.n))
            if start is not None:
                grown.append(n)
            return ladder(flow, z, n, *args, start=start, **kwargs)

        monkeypatch.setattr(rg, "run_ladder", counted)
        res = iterate_to_fixed_point(spec, spec.s0, True)
        assert res.converged and len(levels) > res.n_levels + 1
        # every depth after the first starts from the ladder of the depth before
        assert grown == list(range(1, res.n_levels + 1))
        # the trace's polydisc radii read the top's extraction: no other call
        assert len(extracts) == sum(levels)
        ladder(res.flow, res.z_inf, spec.grid.levels + 1, check_windows=False)
        assert len(extracts) == sum(levels) + spec.grid.levels + 2

    @pytest.mark.parametrize("name", ["m_triv", "m_kramers", "m_pauli"])
    def test_energy_is_the_schur_scalar_bit_for_bit(self, tmp_path, name):
        spec = load_model(cut_fixture(tmp_path, name))
        flow = Flow(spec, spec.s0, True)
        z = spec.e_at(spec.s0)
        zs = z + 1e-3 * np.exp(0.5j * np.pi * np.arange(4))
        top = spec.grid.levels + 1   # down to the vacuum-only space
        for n in range(top + 1):
            for lad in (run_ladder(flow, z, n, check_windows=False),
                        run_ladder(flow, zs, n, check_windows=False)):
                assert lad.n == n
                # a step into level n has a pair, but for the first decimation
                # and the step from the vacuum-only space
                assert (lad.pair is None) == (n in (0, top))
                # E^(n) is read off node 0 of the level's one extraction
                assert lad.ext.source is lad.h and lad.ext.nodes[0] == 0.0
                for k, e in enumerate(np.ravel(lad.e_value)):
                    mat = lad.h.mat.reshape((-1,) + lad.h.mat.shape[-2:])[k]
                    c, _ = schur_scalar(vacuum_block(mat, spec.d))
                    assert np.complex128(e).tobytes() == np.complex128(c).tobytes()

    @pytest.mark.parametrize("grown", [False, True])
    def test_a_ladder_keeps_no_level_below_its_top(self, tmp_path, monkeypatch, grown):
        spec = load_model(cut_fixture(tmp_path, "m_triv"))
        flow = Flow(spec, spec.s0, True)
        z = spec.e_at(spec.s0)
        made = []   # weak references to every ladder built, and to its extraction
        make = rg._make_level

        def recorded(*args):
            level = make(*args)
            made.append((weakref.ref(level), weakref.ref(level.ext)))
            return level

        monkeypatch.setattr(rg, "_make_level", recorded)
        start = run_ladder(flow, z, 1, check_windows=False) if grown else None
        lad = run_ladder(flow, z, 3, check_windows=False, start=start)
        del start
        gc.collect()
        assert len(made) == 4
        assert [level() is None for level, _ in made] == [True] * 3 + [False]
        assert [ext() is None for _, ext in made] == [True] * 3 + [False]
        assert made[-1][0]() is lad and lad.n == 3

    def test_a_flow_keeps_no_ladder(self, tmp_path, monkeypatch):
        spec = load_model(cut_fixture(tmp_path, "m_kramers"))
        ladders = []   # weak references to every ladder run_ladder returned
        ladder = rg.run_ladder

        def recorded(*args, **kwargs):
            lad = ladder(*args, **kwargs)
            ladders.append(weakref.ref(lad))
            return lad

        monkeypatch.setattr(rg, "run_ladder", recorded)
        res = iterate_to_fixed_point(spec, spec.s0, True)
        gc.collect()
        assert res.converged and len(ladders) > res.n_levels + 1
        assert [ref() for ref in ladders] == [None] * len(ladders)
        # each depth keeps its root's top extraction
        assert [d.n for d in res.depths] == list(range(res.n_levels + 1))
        assert [d.ext.source.basis for d in res.depths] == [
            res.flow.depth(n).spline.basis for n in range(res.n_levels + 1)]

    @pytest.mark.parametrize("name", ["m_triv", "m_kramers", "m_pauli"])
    def test_a_ladder_grown_from_start_is_a_fresh_ladder_bit_for_bit(self, tmp_path,
                                                                    monkeypatch, name):
        spec = load_model(cut_fixture(tmp_path, name))
        roots = record_roots(monkeypatch)
        res = iterate_to_fixed_point(spec, spec.s0, False)
        assert res.converged and len(roots) == res.n_levels + 1 >= 3
        for n, prev in enumerate(roots[:-1], start=1):
            start = prev.ladder
            old_ext, old_pair = start.ext, start.pair
            grown = run_ladder(res.flow, prev.ladder.z, n, start=start)
            # the start is the level grown from, and is a fresh ladder one
            # level down; it is left as it was
            assert start.ext is old_ext and start.pair is old_pair and start.n == n - 1
            for a, b in ((start, run_ladder(res.flow, prev.ladder.z, n - 1)),
                         (grown, run_ladder(res.flow, prev.ladder.z, n))):
                assert a.n == b.n
                assert a.ext.node_values.tobytes() == b.ext.node_values.tobytes()
                assert (np.complex128(a.e_value).tobytes()
                        == np.complex128(b.e_value).tobytes())
                assert a.h.mat.tobytes() == b.h.mat.tobytes()
                assert (a.pair is None) == (b.pair is None)
                if b.pair is not None:
                    assert verify_pair(a.pair) == verify_pair(b.pair)

    def test_start_must_be_a_shorter_ladder_at_the_same_z(self, tmp_path):
        spec = load_model(cut_fixture(tmp_path, "m_triv"))
        flow = Flow(spec, spec.s0, True)
        z = spec.e_at(spec.s0)
        start = run_ladder(flow, z, 1)
        assert z + 1e-15 != z
        for other in (z + 1e-15, z + 1e-3, np.array([z])):
            with pytest.raises(ValueError, match="start ladder is at z"):
                run_ladder(flow, other, 2, start=start)
        with pytest.raises(ValueError, match="more than the 0 asked for"):
            run_ladder(flow, z, 0, start=start)
        with pytest.raises(ValueError, match="collects no auxiliary operators"):
            run_ladder(flow, z, 2, collect_q=True, start=start)
        assert run_ladder(flow, z, 1, start=start) is start

    def test_each_depth_after_the_first_saves_one_first_decimation(self, tmp_path,
                                                                   monkeypatch):
        spec = load_model(cut_fixture(tmp_path, "m_kramers"))
        decimations = count_calls(monkeypatch, feshbach, "first_feshbach")
        evals = count_calls(monkeypatch, rg, "run_ladder")
        res = iterate_to_fixed_point(spec, spec.s0, False)
        depths = len(res.depths)
        assert res.converged and depths >= 3
        assert len(decimations) == len(evals) - depths + 1


def large_fock_spec():
    """perfbench's large-fock-run input at factor 1.00: m_triv at max_photons
    3 (dim 157)."""
    return dataclasses.replace(load_model("m_triv"), n_max=3)


def record_levels(monkeypatch):
    """List that grows by each ladder ``rg._make_level`` builds."""
    make = rg._make_level
    levels = []

    def recorded(*args):
        levels.append(make(*args))
        return levels[-1]

    monkeypatch.setattr(rg, "_make_level", recorded)
    return levels


class TestRealArithmetic:
    """A real model at a real s flows in real arithmetic: z's dtype, not the
    value of its imaginary part, chooses the path."""

    @pytest.mark.parametrize("name", ["m_triv", "m_kramers", "m_pauli", "dim157"])
    def test_energy_at_a_float_z_is_the_energy_at_complex_z(self, tmp_path, name):
        spec = large_fock_spec() if name == "dim157" else load_model(cut_fixture(tmp_path, name))
        res = iterate_to_fixed_point(spec, spec.s0, False)
        assert res.converged and len(res.depths) >= 4
        roots = [d.z.real for d in res.depths]
        for n, z in enumerate(roots):
            for zz in {z, ([res.flow.first.e_at.real] + roots)[n]}:   # its root, its start
                real = run_ladder(res.flow, zz, n, check_windows=False)
                cplx = run_ladder(res.flow, complex(zz), n, check_windows=False)
                assert (real.h.mat.dtype, cplx.h.mat.dtype) == (np.float64, np.complex128)
                # E^(n) carries -z / rho^n: the difference is relative to that part
                scale = max(abs(cplx.e_value), abs(zz) / res.flow.rho**n)
                assert abs(real.e_value - cplx.e_value) <= 1e-15 * scale

    def test_every_operator_of_the_large_fock_secant_ladders_is_real(self, monkeypatch):
        spec = large_fock_spec()
        levels = record_levels(monkeypatch)
        res = iterate_to_fixed_point(spec, spec.s0, False)
        assert res.converged and len(levels) > res.n_levels + 1
        first = res.flow.first
        assert first.hamiltonian.mat.dtype == np.complex128   # as built
        assert isinstance(first.z_start, float) and first.z_start == first.e_at.real
        assert {a.dtype for a in (first.affine.t, first.affine.base, first.spectral.l,
                                  first.spectral.rm)} == {np.dtype(np.float64)}
        for lad in levels:
            assert isinstance(lad.z, float)
            arrays = [lad.h.mat, lad.ext.node_values, lad.ext.slopes, np.asarray(lad.e_value)]
            if lad.pair is not None:
                arrays += [lad.pair.fixed.t, lad.pair.fixed.base, lad.pair.solved]
            assert {a.dtype for a in arrays} == {np.dtype(np.float64)}
        # what the flow reports stays complex
        assert isinstance(res.z_inf, complex) and res.z_inf.imag == 0
        assert all(isinstance(d.z, complex) for d in res.depths)

    def test_a_complex_hamiltonian_keeps_the_complex_path(self, tmp_path, monkeypatch):
        # the photon phase a* -> i a* makes H complex and leaves its spectrum
        spec = load_model(cut_fixture(tmp_path, "m_triv"))
        phased = dataclasses.replace(spec, b1_coeffs=[1j * b for b in spec.b1_coeffs],
                                     b2_coeffs=[1j * b for b in spec.b2_coeffs])
        real = iterate_to_fixed_point(spec, spec.s0, False)
        levels = record_levels(monkeypatch)
        res = iterate_to_fixed_point(phased, phased.s0, False)
        assert np.imag(res.flow.first.hamiltonian.mat).any()
        assert res.flow.first.e_at.imag == 0   # H_at is real: only the pair is complex
        assert res.flow.first.affine.base.dtype == np.complex128
        assert isinstance(res.flow.first.z_start, complex)
        assert {lad.h.mat.dtype for lad in levels} == {np.dtype(np.complex128)}
        assert all(isinstance(lad.z, complex) for lad in levels)
        assert res.converged and abs(res.z_inf - real.z_inf) <= 1e-12

    def test_a_start_ladder_must_match_z_in_dtype(self, tmp_path):
        spec = load_model(cut_fixture(tmp_path, "m_triv"))
        flow = Flow(spec, spec.s0, False)
        z = spec.e_at(spec.s0).real - 1e-4
        for here, there in ((z, complex(z)), (complex(z), z),
                            (np.array([z]), np.array([complex(z)]))):
            start = run_ladder(flow, there, 1)
            with pytest.raises(ValueError, match="start ladder is at z"):
                run_ladder(flow, here, 2, start=start)
            assert run_ladder(flow, there, 2, start=start).n == 2


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
        assert flows[0].depth(0).spline.basis is flows[2].first.reduced_basis
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
        assert seen[0][1].spline.basis is seen[0][0].dilation.target

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
    def test_one_first_decimation_builds_h0_once(self, tmp_path, monkeypatch, name):
        spec = load_model(cut_fixture(tmp_path, name))
        built = count_calls(monkeypatch, model, "build_h0")
        first = feshbach.FirstDecimation(spec, spec.s0, None)
        assert len(built) == 1
        ref = model.build_hamiltonian(spec, spec.s0, None, first.basis)
        assert first.hamiltonian.mat.tobytes() == ref.mat.tobytes()
        assert first.hamiltonian.selfadjoint_known == ref.selfadjoint_known

    def test_one_spline_per_basis_released_after_the_command(self, monkeypatch, capsys):
        built = []   # (basis, weak reference to its spline), one per construction
        init = kernels.BasisSpline.__init__

        def recorded(spline, basis):
            init(spline, basis)
            built.append((basis, weakref.ref(spline)))

        monkeypatch.setattr(kernels.BasisSpline, "__init__", recorded)
        assert main(["run", "--config", "m_triv"]) == 0
        # one per depth basis, from the reduced space down to the vacuum-only one
        assert len(built) == len({id(basis) for basis, _ in built}) \
            == load_model("m_triv").grid.levels + 1
        assert [ref() for _, ref in built] == [None] * len(built)

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
            return abs(run_ladder(res.flow, z, J, check_windows=False).e_value)

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
        assert max(rec.symmetry_residual for rec in res.depths) <= 1e-9


class TestWindowBacktracking:
    """A z outside the model's declared window about E_at(s), refused by the
    first decimation with WindowError, backtracks like a flow depth's window
    exit: the secant halves its step, the winding check its radius."""

    def test_a_secant_iterate_backtracks(self, tmp_path, monkeypatch):
        spec = load_model(cut_fixture(tmp_path, "m_triv"))
        plain = iterate_to_fixed_point(spec, spec.s0, False)
        ladder = rg.run_ladder
        zs = []   # z of every evaluation

        def refuse_once(flow, z, n, *args, **kwargs):
            zs.append(z)
            if len(zs) == 2:   # the first secant iterate at depth 0
                raise model.WindowError("outside the declared window")
            return ladder(flow, z, n, *args, **kwargs)

        monkeypatch.setattr(rg, "run_ladder", refuse_once)
        res = iterate_to_fixed_point(spec, spec.s0, False)
        assert zs[2] == 0.5 * (zs[1] + zs[0])   # halfway back to the start
        assert res.converged and abs(res.z_inf - plain.z_inf) <= 1e-12

    def test_a_winding_round_halves_its_radius(self, tmp_path, monkeypatch):
        spec = load_model(cut_fixture(tmp_path, "m_triv"))
        plain = iterate_to_fixed_point(spec, spec.s0, True)
        ladder = rg.run_ladder
        radii = []   # radius of every round of winding nodes

        def refuse_once(flow, z, n, *args, **kwargs):
            if np.ndim(z) == 1:
                radii.append(abs(z[0] - z[2]) / 2)   # nodes at angles 0 and pi
                if len(radii) == 1:
                    raise model.WindowError("outside the declared window")
            return ladder(flow, z, n, *args, **kwargs)

        monkeypatch.setattr(rg, "run_ladder", refuse_once)
        res = iterate_to_fixed_point(spec, spec.s0, True)
        assert radii[1] == pytest.approx(radii[0] / 2, rel=1e-9)
        assert res.converged and res.z_inf == plain.z_inf
        assert all(r.winding == 1 for r in res.depths)


class StubLadder:
    """``run_ladder`` replaced by E(z) = energy(z) at every depth: a ladder
    that holds only z, its level and E, and the z of every evaluation in
    ``zs``."""

    def __init__(self, energy, refuse=()):
        self.energy = energy
        self.refuse = refuse   # evaluations (0 = the start) that raise WindowError
        self.zs = []

    def __call__(self, flow, z, n, *args, **kwargs):
        self.zs.append(z)
        if len(self.zs) - 1 in self.refuse:
            raise model.WindowError("outside the declared window")
        return rg.Ladder(z, n, None, self.energy(z))


class TestSecantSlope:
    """The secant's first step z_1 = z_0 - E(z_0) rho^n / sigma uses the
    scaled slope sigma = rho^n dE^(n)/dz: the prior -1 at depth 0, then the
    chord the previous depth measured from its start to its root.  A root
    within TOL_FIXED_POINT of its start, where the flow stops, takes one
    more step from sigma."""

    RHO = 0.375
    N = 3

    def find(self, monkeypatch, ladder, z0, slope=rg.SLOPE_PRIOR):
        monkeypatch.setattr(rg, "run_ladder", ladder)
        flow = SimpleNamespace(rho=self.RHO, check_winding=False)
        return rg.find_zn(flow, self.N, z0, slope=slope)

    @pytest.mark.parametrize("z0, e0", [(-0.025, 3e-4), (-0.03 + 2e-3j, -1e-5 + 4e-6j),
                                        (0.1 - 0.0j, -0.0 + 7e-9j)])
    def test_the_prior_gives_the_fixed_first_step_bit_for_bit(self, monkeypatch, z0, e0):
        ladder = StubLadder(lambda z: e0 if z == z0 else 0.0)
        self.find(monkeypatch, ladder, z0)
        expected = complex(z0) + e0 * self.RHO**self.N
        assert np.complex128(ladder.zs[1]).tobytes() == np.complex128(expected).tobytes()

    def test_the_exact_slope_lands_on_a_linear_root_in_one_step(self, monkeypatch):
        a, r = -1.028 * self.RHO**-self.N, -0.02596 + 1e-4j
        ladder = StubLadder(lambda z: a * (z - r))
        root = self.find(monkeypatch, ladder, -0.0253, slope=a * self.RHO**self.N)
        assert len(ladder.zs) == 2   # the start and one iterate
        assert abs(root.ladder.z - r) < 1e-15 and abs(root.ladder.e_value) < rg.TOL_Z
        prior = StubLadder(lambda z: a * (z - r))
        self.find(monkeypatch, prior, -0.0253)
        assert len(prior.zs) > 2

    def test_the_returned_slope_is_the_start_to_root_chord(self, monkeypatch):
        a, b, r = -1.03 * self.RHO**-self.N, 40.0, -0.02596

        def energy(z):
            return a * (z - r) + b * (z - r) ** 2

        ladder = StubLadder(energy)
        z0 = -0.0253
        root = self.find(monkeypatch, ladder, z0)
        z_root = root.ladder.z
        assert len(ladder.zs) > 2 and z_root == ladder.zs[-1]
        chord = self.RHO**self.N * (energy(z_root) - energy(z0)) / (z_root - z0)
        assert root.slope == chord
        # far nearer the scaled derivative at the root than the prior is
        exact = a * self.RHO**self.N
        assert abs(root.slope - exact) < 0.1 * abs(rg.SLOPE_PRIOR - exact)

    def test_a_converged_start_carries_the_slope(self, monkeypatch):
        # the start is the last root: its refining step finds no lower |E|
        ladder = StubLadder(lambda z: 1e-13)
        root = self.find(monkeypatch, ladder, -0.02, slope=-1.03 + 0.01j)
        assert len(ladder.zs) == 2 and root.ladder.z == -0.02
        assert root.slope == -1.03 + 0.01j

    def test_a_non_finite_chord_carries_the_slope(self, monkeypatch):
        # the first iterate, refused, backs off halfway to a zero of E: the
        # chord is twice the finite slope -1e308 and overflows
        z0 = -0.02
        ladder = StubLadder(lambda z: 1e299 if z == z0 else 0.0, refuse=(1,))
        root = self.find(monkeypatch, ladder, z0, slope=-1e308)
        assert len(ladder.zs) == 3 and root.ladder.z == ladder.zs[2] != z0
        assert not np.isfinite(self.RHO**self.N * (0.0 - 1e299) / (root.ladder.z - z0))
        assert root.slope == -1e308

    def test_a_carried_slope_backs_off_halfway(self, monkeypatch):
        a, r, slope = -1.028 * self.RHO**-self.N, -0.02596, -1.02
        ladder = StubLadder(lambda z: a * (z - r), refuse=(1,))
        z0 = -0.0253
        root = self.find(monkeypatch, ladder, z0, slope=slope)
        e0 = a * (z0 - r)
        assert ladder.zs[1] == z0 + e0 * (self.RHO**self.N / -slope)
        assert ladder.zs[2] == 0.5 * (ladder.zs[1] + z0)   # halfway back to the start
        assert abs(root.ladder.e_value) < rg.TOL_Z

    def test_a_converged_start_is_refined_to_rounding(self, monkeypatch):
        # |E| < TOL_Z leaves z 5e-14 off; one step from the slope lands on r
        a, r = -1.028 * self.RHO**-self.N, -0.02596
        ladder = StubLadder(lambda z: a * (z - r))
        z0 = r + 5e-14
        assert abs(a * (z0 - r)) < rg.TOL_Z
        root = self.find(monkeypatch, ladder, z0, slope=a * self.RHO**self.N)
        assert len(ladder.zs) == 2 and root.ladder.z == ladder.zs[1]
        assert abs(root.ladder.z - r) < 1e-17 and abs(root.ladder.e_value) < 1e-15

    def test_a_root_near_its_start_is_refined_from_its_chord(self, monkeypatch):
        # 5e-10 from the root, below TOL_FIXED_POINT: the first iterate, from a
        # slope 1e-4 off, stops 5e-14 off with |E| < TOL_Z; the refining
        # step from the exact chord lands on r
        a, r = -1.028 * self.RHO**-self.N, -0.02596
        ladder = StubLadder(lambda z: a * (z - r))
        z0 = r + 5e-10
        root = self.find(monkeypatch, ladder, z0, slope=a * self.RHO**self.N * (1 + 1e-4))
        assert len(ladder.zs) == 3
        assert 1e-14 < abs(ladder.zs[1] - r) and abs(a * (ladder.zs[1] - r)) < rg.TOL_Z
        assert root.ladder.z == ladder.zs[2] and abs(root.ladder.z - r) < 1e-17
        assert root.slope == pytest.approx(a * self.RHO**self.N, rel=1e-3)

    def test_a_root_far_from_its_start_is_not_refined(self, monkeypatch):
        # 1e-6 from the root the flow goes on, and the next depth's secant
        # corrects the 2e-14 this root is off
        a, r = -1.028 * self.RHO**-self.N, -0.02596
        ladder = StubLadder(lambda z: a * (z - r))
        root = self.find(monkeypatch, ladder, r + 1e-6,
                         slope=a * self.RHO**self.N * (1 + 2e-8))
        assert len(ladder.zs) == 2 and root.ladder.z == ladder.zs[1]
        assert 1e-15 < abs(root.ladder.z - r) and abs(root.ladder.e_value) < rg.TOL_Z

    def test_a_refining_step_outside_the_window_keeps_the_root(self, monkeypatch):
        a, r = -1.028 * self.RHO**-self.N, -0.02596
        ladder = StubLadder(lambda z: a * (z - r), refuse=(1,))
        z0 = r + 5e-14
        root = self.find(monkeypatch, ladder, z0, slope=a * self.RHO**self.N)
        assert len(ladder.zs) == 2
        assert root.ladder.z == z0

    def test_each_depth_starts_from_the_slope_the_depth_before_measured(self, tmp_path,
                                                                         monkeypatch):
        spec = load_model(cut_fixture(tmp_path, "m_kramers"))
        calls = []   # (slope given, root) per depth
        find_zn = rg.find_zn

        def recorded(*args, slope, **kwargs):
            calls.append((slope, find_zn(*args, slope=slope, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(rg, "find_zn", recorded)
        res = iterate_to_fixed_point(spec, spec.s0, False)
        assert res.converged and len(calls) >= 3
        assert calls[0][0] == rg.SLOPE_PRIOR
        for (_, prev), (slope, _) in zip(calls, calls[1:]):
            assert slope == prev.slope
        # rho^n dE^(n)/dz is near -1 at every depth but not -1
        assert all(0.9 < abs(root.slope) < 1.1 and root.slope != -1 for _, root in calls[:-1])


class TestLastRoot:
    """The flow stops on a root within TOL_FIXED_POINT of its start, and
    that root is z_inf: it is refined past |E| < TOL_Z, and its step, below
    the tolerance, is left out of the fitted rate."""

    @pytest.mark.parametrize("name", ["m_triv", "m_kramers", "m_pauli"])
    def test_z_inf_is_an_eigenvalue_to_rounding(self, tmp_path, name):
        # on three shells the flow stops at depth 3, where E^(3) = E^(2) / rho,
        # on a root of depth 2 whose |E| < TOL_Z leaves z up to 1e-13 off
        spec = load_model(cut_fixture(tmp_path, name))
        res = iterate_to_fixed_point(spec, spec.s0, False)
        h = res.flow.first.hamiltonian.mat
        smallest = np.linalg.svd(h - res.z_inf * np.eye(len(h)), compute_uv=False)[-1]
        assert smallest <= 1e-15

    def test_the_step_the_flow_stops_on_is_not_fitted(self):
        steps = [SimpleNamespace(n=n, dz=1.5e-3 * 0.0625 ** (n - 1)) for n in range(1, 6)]
        records = steps + [SimpleNamespace(n=6, dz=1.9e-14)]
        assert rg.fitted_rate(records) == pytest.approx(0.0625, rel=1e-12)

    def test_m_kramers_rate_is_the_rate_of_its_steps(self):
        spec = load_model("m_kramers")
        res = iterate_to_fixed_point(spec, spec.s0, False)
        assert res.converged and res.depths[-1].dz < rg.TOL_FIXED_POINT
        steps = [d.dz for d in res.depths[1:-1]]
        rate = rg.fitted_rate(res.depths)
        assert 0.05 < rate < 0.075
        assert all(b / a == pytest.approx(rate, rel=0.02)
                   for a, b in zip(steps[1:], steps[2:]))


def dense_eigenprojection(psis, duals, h, z):
    """The eigenprojection's report from the N x N projection P = sum_ab
    (M^-1)_ab |psi_a><dual_b|, with P @ P and H @ P formed densely: (the
    idempotency, the rank, the eigen residual)."""
    k = len(psis)
    m = np.array([[np.vdot(duals[a], psis[b]) for b in range(k)] for a in range(k)])
    minv = np.linalg.inv(m)
    p = np.zeros((psis[0].size, psis[0].size), dtype=complex)
    for a in range(k):
        for b in range(k):
            p += minv[a, b] * np.outer(psis[a], np.conj(duals[b]))
    scale = max(1.0, np.linalg.norm(p))
    return (float(np.linalg.norm(p @ p - p) / scale), model.projection_rank(p),
            float(np.linalg.norm(h @ p - z * p) / scale))


class TestEigenprojection:
    @pytest.mark.parametrize("name", ["m_triv", "m_kramers"])
    def test_the_rank_d_form_is_the_dense_projection(self, tmp_path, name):
        spec = load_model(cut_fixture(tmp_path, name))
        res = iterate_to_fixed_point(spec, spec.s0, False)
        psis = build_eigenvectors(res.flow, res.z_inf).vectors
        if name == "m_kramers":   # the conjugation pairing, J psi_a
            jfull = np.kron(spec.jconj, np.eye(len(psis[0]) // spec.d_at))
            duals = [jfull @ np.conj(p) for p in psis]
        else:                     # the reflection pairing at real s
            duals = psis
        h = res.flow.first.hamiltonian.mat
        got = rg.build_eigenprojection(psis, duals, h, res.z_inf)
        idem, rank, resid = dense_eigenprojection(psis, duals, h, res.z_inf)
        assert got.rank == rank == spec.d
        assert abs(got.idempotency - idem) <= 1e-14
        assert abs(got.eigen_residual - resid) <= 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_the_norms_are_the_dense_norms_off_an_eigenspace(self, k):
        # random vectors, duals and H: P is an oblique projection whose eigen
        # residual is of order one, so the Gram-matrix norms are checked
        # against the dense ones at a relative 1e-12
        rng = np.random.default_rng(k)
        n = 30
        psis = list(rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
        duals = list(rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        got = rg.build_eigenprojection(psis, duals, h, 0.3 - 0.1j)
        idem, rank, resid = dense_eigenprojection(psis, duals, h, 0.3 - 0.1j)
        assert got.rank == rank == k
        assert resid > 0.1 and got.eigen_residual == pytest.approx(resid, rel=1e-12)
        assert abs(got.idempotency - idem) <= 1e-14

    def test_a_degenerate_pairing_raises(self):
        psi = np.zeros(6, dtype=complex)
        psi[0] = 1.0
        dual = np.zeros(6, dtype=complex)
        dual[1] = 1.0   # <dual, psi> = 0
        with pytest.raises(np.linalg.LinAlgError, match="degenerate pairing"):
            rg.build_eigenprojection([psi], [dual], np.eye(6), 1.0)


class TestMemory:
    """The benchmark (perfbench) keeps the spec of every solve for its
    oracle, which builds H_g(s) after the pass: anything a command or that
    oracle leaves in ``spec.built`` adds to peak_rss_mb once per pass."""

    @pytest.mark.parametrize("command", ["run", "verify", "probe-analyticity", "sweep-g"])
    def test_a_command_leaves_nothing_on_its_spec(self, tmp_path, monkeypatch, capsys,
                                                 command):
        specs = []
        load = cfgmod.load_run_config

        def kept(path):
            check_winding, spec = load(path)
            specs.append(spec)
            return check_winding, spec

        monkeypatch.setattr(cfgmod, "load_run_config", kept)
        assert main([command, "--config", str(cut_fixture(tmp_path, "m_triv"))]) == 0
        assert len(specs) == 1 and specs[0].built == {}

    def test_the_oracle_hamiltonian_adds_only_its_basis(self, tmp_path):
        spec = load_model(cut_fixture(tmp_path, "m_kramers"))
        iterate_to_fixed_point(spec, spec.s0, False)
        spec.built.clear()
        model.build_hamiltonian(spec, spec.s0 + 0.01j)
        assert list(spec.built) == [("basis", spec.e_cut, spec.d_at)]


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
        # kernel.txt is level 0 of a ladder at z_inf, built only with --out:
        # one extraction more than a run without
        assert len(extracts) - counts[1] == counts[0] - 1

    def test_flow_failure_is_reported_with_exit_code_3(self, tmp_path, capsys):
        # every secant iterate at depth 0 leaves the declared window: the
        # secant backs off toward the start until it gives up
        config = cut_fixture(tmp_path, "m_triv", coupling_strength=3.0)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 3
        kv = read_kv(out / "run.kv")
        assert kv["check.flow"] == "fail"
        assert kv["flow.error"] == ("ArithmeticError: secant failed to stay inside "
                                    "the window at depth 0")
        assert kv["all_passed"] == "false"
        assert "[FAIL] flow: ArithmeticError" in (out / "run.txt").read_text()

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

    @pytest.mark.parametrize("name", ["m_triv", "m_exact", "m_kramers", "m_pauli"])
    def test_a_real_model_at_a_real_s_reports_a_real_z_inf(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        assert main(["run", "--config", str(cut_fixture(tmp_path, name)),
                     "--out", str(out)]) == 0
        kv = read_kv(out / "run.kv")
        assert kv["z_inf.im"] == "0" and kv["all_passed"] == "true"

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

    def test_golden_run_on_the_large_fock_space(self, tmp_path, capsys):
        # perfbench's large-fock-run input at every coupling factor it draws:
        # each z_inf within 1e-12 of perfbench/reference.json and of the
        # dense oracle
        ref = json.loads(REFERENCE.read_text())["large-fock-run"]
        assert len(ref) == 11
        for label, (z_ref,) in sorted(ref.items()):
            factor = float(label.removeprefix("m_triv_n3@"))
            out = tmp_path / label
            assert main(["run", "--config", str(large_fock_config(tmp_path, factor)),
                         "--out", str(out)]) == 0
            kv = read_kv(out / "run.kv")
            failed = [k for k, v in kv.items() if k.startswith("check.") and v != "pass"]
            assert failed == []
            assert kv["all_passed"] == "true"
            z_inf = complex(float(kv["z_inf.re"]), float(kv["z_inf.im"]))
            assert abs(z_inf - complex(*z_ref)) <= 1e-12, label
            assert float(kv["oracle.eigenvalue_error"]) <= 1e-12, label

    def test_the_large_fock_run_keeps_its_ladder_budget(self, tmp_path, capsys,
                                                         monkeypatch):
        # the algorithm's ladder budget on large-fock-run's input at factor
        # 1.00: 24 secant ladders, fresh or grown from the depth before (8
        # depths, each first step from the slope the depth before measured),
        # and the eigenvectors' ladder
        ladders = count_calls(monkeypatch, rg, "run_ladder")
        assert main(["run", "--config", str(large_fock_config(tmp_path, 1.0))]) == 0
        assert len(ladders) <= 25


    def test_a_flow_depth_costs_only_its_ladders(self, tmp_path, capsys, monkeypatch):
        # large-fock-run's input: the flow takes one pair report, at the
        # depth it stops on; only the full and reduced bases are enumerated,
        # and each depth is built once
        config = large_fock_config(tmp_path, 1.0)
        _, spec = cfgmod.load_run_config(str(config))
        reports = count_calls(monkeypatch, feshbach, "verify_pair")
        enumerated = []
        enumerate_occupations = fock._enumerate_occupations

        def recorded(grid, n_max, e_cut):
            enumerated.append((grid.levels, n_max, e_cut))
            return enumerate_occupations(grid, n_max, e_cut)

        monkeypatch.setattr(fock, "_enumerate_occupations", recorded)
        depths = count_calls(monkeypatch, rg, "Depth")
        assert main(["run", "--config", str(config)]) == 0
        assert len(reports) == 1
        J = spec.grid.levels
        assert sorted(enumerated) == sorted([(J, spec.n_max, spec.e_cut), (J, spec.n_max, 1.0)])
        assert len(depths) == J + 1   # the reduced space down to the vacuum-only one

        # with --out the trace takes no report, and trace.txt is the trace of
        # the pairs the root ladders stepped on
        reports.clear()
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert int(read_kv(out / "run.kv")["n_levels"]) >= 2
        assert len(reports) == 1
        roots = record_roots(monkeypatch)
        res = iterate_to_fixed_point(spec, spec.s0, False)
        for depth, root in zip(res.depths, roots, strict=True):
            assert (depth.pair is None) == (root.ladder.pair is None) == (depth.n == 0)
            if depth.pair is not None:
                assert not hasattr(depth.pair.fixed, "t") and "solved" not in vars(depth.pair)
                depth.pair = root.ladder.pair   # the whole pair
        lines = res.trace_lines()
        assert (out / "trace.txt").read_text() == "\n".join(lines) + "\n"

    def test_the_trace_takes_the_h_chibar_svd_only_where_the_flow_stops(self, tmp_path,
                                                                       capsys, monkeypatch):
        # large-fock-run's input with --out: trace.txt prints t_margin and
        # the left contraction of every depth's pair, and only the
        # convergence test, at the depth the flow stops on, takes the SVD of
        # H_chibar and the 2-norm of the right contraction chibar W chibar T^-1
        config = large_fock_config(tmp_path, 1.0)
        svd, norm = np.linalg.svd, np.linalg.norm
        svd_operands, norm_operands = [], []

        def recorded_svd(a, *args, **kwargs):
            svd_operands.append(a)
            return svd(a, *args, **kwargs)

        def recorded_norm(x, ord=None, *args, **kwargs):
            if ord == 2:
                norm_operands.append(np.array(x))
            return norm(x, ord, *args, **kwargs)

        results = []
        iterate = rg.iterate_to_fixed_point

        def recorded_flow(*args, **kwargs):
            results.append(iterate(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(np.linalg, "svd", recorded_svd)
        monkeypatch.setattr(np.linalg, "norm", recorded_norm)
        monkeypatch.setattr(cli, "iterate_to_fixed_point", recorded_flow)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        monkeypatch.undo()
        [res] = results
        assert res.n_levels >= 2
        assert len((out / "trace.txt").read_text().splitlines()) == res.n_levels + 3
        for depth in res.depths[1:]:
            pair, last = depth.pair, depth is res.depths[-1]
            assert sum(a is pair.m_h for a in svd_operands) == last
            left, right = pair.inverse_t @ pair.fixed.w_bar, pair.fixed.w_bar @ pair.inverse_t
            n_left, n_right = (sum(x.shape == k.shape and np.array_equal(x, k)
                                   for x in norm_operands) for k in (left, right))
            if np.array_equal(left, right):   # where T|_on commutes with W_bar
                assert n_left == n_right == 1 + 2 * last
            else:   # the trace line's left norm, and the report's two at the last depth
                assert (n_left, n_right) == (1 + last, last)


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
    # sweep are constants, and jobs comes from --jobs
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
        (["suite", "--config", "m_triv"], "argument command: invalid choice: 'suite'"),
        (["run", "--config", "m_triv", "--seed", "1"], "unrecognized arguments: --seed 1"),
    ], ids=["missing-config", "unknown-flag", "unknown-command", "bad-jobs", "suite",
            "seed"])
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
        assert "--jobs" in capsys.readouterr().out

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

    def test_broken_symmetry_declaration_fails_verify_with_2(self, tmp_path, capsys):
        # a reducible declared group is reported as a failed hypothesis, not
        # refused as a configuration error
        def unitary_kramers(doc):
            doc["symmetry_generators"][0]["antiunitary"] = False

        config = cut_fixture(tmp_path, "m_kramers", edit=unitary_kramers)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 2
        kv = read_kv(out / "verify.kv")
        assert kv["check.hyp.symmetry_irreducible"] == "fail"
        assert kv["all_passed"] == "false"

    # on m_pauli (eigenvalues of H_at(s0) at 0, 0 and 1) a contour radius of
    # 1.0 passes through the third eigenvalue, and one of 1.5 encloses all
    # three while d = 2; verify reports the latter as a failed hypothesis
    @pytest.mark.parametrize("command", ["run", "verify", "probe-analyticity", "sweep-g"])
    @pytest.mark.parametrize("radius, message", [
        (1.0, "eigenvalue within 10% of the contour |z-0j|=1.0"),
        (1.5, "the isolation contour |z-0j|=1.5 encloses 3 eigenvalues of H_at(s0), "
              "not d = 2"),
    ], ids=["on-an-eigenvalue", "three-inside"])
    def test_a_malformed_contour_is_a_configuration_error(self, tmp_path, capsys, command,
                                                         radius, message):
        config = cut_fixture(tmp_path, "m_pauli", contour_radius=radius)
        out = tmp_path / "out"
        code = main([command, "--config", str(config), "--out", str(out)])
        if command == "verify" and radius == 1.5:
            assert code == 2
            kv = read_kv(out / "verify.kv")
            assert kv["check.hyp.eigenvalue_multiplicity"] == "fail"
            assert kv["all_passed"] == "false"
        else:
            assert code == 1
            assert f"configuration error: {message}" in capsys.readouterr().err

    def test_a_contour_around_every_atomic_eigenvalue_fails_the_resolvent_bound(self, tmp_path,
                                                                               capsys):
        # with radius 1.5 on m_pauli, 1 - P_at(s) has rank 0 at every sample,
        # not d_at - d = 1: nothing is left to bound, and the entry fails
        config = cut_fixture(tmp_path, "m_pauli", contour_radius=1.5)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 2
        kv = read_kv(out / "verify.kv")
        assert kv["check.hyp.reduced_resolvent_bound"] == "fail"
        assert kv["check.hyp.eigenvalue_multiplicity"] == "fail"
        digest = (out / "verify.txt").read_text()
        assert ("[FAIL] hyp.reduced_resolvent_bound: rank of 1 - P_at(s) is 0, not "
                "d_at - d = 1, at 13 of 13 samples") in digest

    @pytest.mark.parametrize("name", ["m_triv", "m_kramers", "m_pauli"])
    def test_the_resolvent_bound_passes_on_the_declared_rank(self, tmp_path, name):
        # m_triv and m_kramers have d = d_at: 1 - P_at(s) has the declared rank 0
        spec = load_model(cut_fixture(tmp_path, name))
        entry = {e.name: e for e in model.verify_hypotheses(spec).entries}[
            "reduced_resolvent_bound"]
        assert entry.passed and "rank" not in entry.detail
        assert (spec.d == spec.d_at) == (name != "m_pauli")
