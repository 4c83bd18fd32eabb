"""The winding check's acceptance rule, as a function of sampled values, and
the stacked ladder that evaluates one round of nodes."""

import json
import types
from importlib import resources

import numpy as np
import pytest

from specrg import rg
from specrg.config import load_model
from specrg.feshbach import verify_pair
from specrg.rg import (
    WINDING_MAX_NODES,
    WindowExitError,
    _winding_count,
    circle_winding,
    find_zn,
    iterate_to_fixed_point,
    run_ladder,
)

RADIUS = 0.03125   # the depth-0 circle at rho = 0.5: rho / 16


def sampler(e_of_z):
    """``circle_winding``'s sample for z -> e_of_z(z) on the circle of radius
    RADIUS about 0, and the list of node counts it was sent."""
    sent = []

    def sample(t):
        sent.append(t.size)
        return e_of_z(RADIUS * np.exp(2j * np.pi * t))

    return sample, sent


def two_zeros(other):
    """E with zeros at 0 and ``other``, slope -1 at 0."""
    return lambda z: z * (z - other) / other


def naive_count(e_of_z, nodes):
    """The winding read off the phase steps at ``nodes`` nodes, with no guard."""
    vals = e_of_z(RADIUS * np.exp(2j * np.pi * np.arange(nodes) / nodes))
    return round(float(np.sum(np.angle(np.roll(vals, -1) / vals))) / (2 * np.pi))


class TestRule:
    def test_a_linear_e_gives_1_at_4_nodes(self):
        sample, sent = sampler(lambda z: -(z - 0.002))
        assert circle_winding(sample, "here") == 1
        assert sent == [4]

    def test_a_second_zero_inside_is_counted_after_refinement(self):
        e = two_zeros(0.75 * RADIUS)
        assert naive_count(e, 4) == 0   # 4 nodes alias
        sample, sent = sampler(e)
        assert circle_winding(sample, "here") == 2
        assert sent == [4, 4, 8, 16]    # only the new nodes of each round

    def test_a_zero_just_outside_is_not_counted(self):
        sample, sent = sampler(two_zeros(1.1 * RADIUS * np.exp(0.25j * np.pi)))
        assert circle_winding(sample, "here") == 1
        assert sum(sent) > 4

    def test_samples_that_never_settle_raise_after_64_nodes(self):
        # a zero of order 40 turns the phase by 40 * 2 pi / K per step, which
        # aliases at every node count up to 64
        sample, sent = sampler(lambda z: (z / RADIUS) ** 40)
        with pytest.raises(ArithmeticError,
                           match="winding check here did not settle at 64 nodes"):
            circle_winding(sample, "here")
        assert sum(sent) == WINDING_MAX_NODES == 64

    def test_a_zero_sample_asks_for_another_radius(self):
        sample, _ = sampler(lambda z: z - RADIUS)
        assert circle_winding(sample, "here") is None

    def test_find_zn_refuses_a_second_zero_inside_the_circle(self, monkeypatch):
        e = two_zeros(0.75 * RADIUS)
        monkeypatch.setattr(rg, "run_ladder", lambda flow, z, n, start=None: (
            types.SimpleNamespace(e_value=e(np.asarray(z)))))
        flow = types.SimpleNamespace(rho=0.5, check_winding=True)
        with pytest.raises(ArithmeticError, match="at depth 0 gave winding 2"):
            find_zn(flow, 0, 0.002)

    def test_a_circle_that_never_fits_names_depth_nodes_and_radius(self, monkeypatch):
        def leaves(flow, z, n):
            raise WindowExitError(0, 1.0, 0.0625)

        monkeypatch.setattr(rg, "run_ladder", leaves)
        flow = types.SimpleNamespace(rho=0.5)
        with pytest.raises(ArithmeticError, match="at depth 2 could not stay inside the "
                                                  "window: last round 4 nodes on radius "
                                                  "4.883e-04"):
            _winding_count(flow, 2, 0.0)


def kramers_flow(tmp_path):
    doc = json.loads(resources.files("specrg").joinpath("fixtures/m_kramers.json").read_text())
    doc["grid"]["levels"] = 3
    path = tmp_path / "m_kramers_l3.json"
    path.write_text(json.dumps(doc))
    spec = load_model(path)
    res = iterate_to_fixed_point(spec, spec.s0, False)
    return res.flow, res.z_inf, res.n_levels


class TestStack:
    def test_a_stack_of_4_equals_4_single_ladders_bit_for_bit(self, tmp_path):
        flow, z_inf, n = kramers_flow(tmp_path)
        zs = z_inf + flow.rho ** (n + 1) / 16 * np.exp(0.5j * np.pi * np.arange(4))
        for m in range(n + 1):
            stack = run_ladder(flow, zs, m, collect_q=True)
            for k, z in enumerate(zs):
                for single in (run_ladder(flow, zs[k:k + 1], m, collect_q=True),
                               run_ladder(flow, z, m, collect_q=True)):
                    assert single.n == stack.n == m
                    assert np.ravel(single.e_value)[0] == stack.e_value[k]
                    assert np.array_equal(single.h.mat.reshape(stack.h.mat.shape[1:]),
                                          stack.h.mat[k])
                    for q, q_one in zip(stack.qs, single.qs, strict=True):
                        assert np.array_equal(q_one.reshape(q.shape[1:]), q[k])
        # the stack's pair report is the worst over its z values
        report = verify_pair(stack.pair)
        singles = [verify_pair(run_ladder(flow, z, n).pair) for z in zs]
        assert report.t_margin == min(r.t_margin for r in singles)
        assert report.h_margin == min(r.h_margin for r in singles)
        assert report.contraction_left == max(r.contraction_left for r in singles)
        assert report.contraction_right == max(r.contraction_right for r in singles)

    @pytest.mark.parametrize("k", range(4))
    def test_a_window_exit_at_one_node_stops_the_round(self, tmp_path, k):
        flow, z_inf, n = kramers_flow(tmp_path)
        zs = z_inf + flow.rho ** (n + 1) / 16 * np.exp(0.5j * np.pi * np.arange(4))
        run_ladder(flow, zs, n)
        zs[k] = z_inf + 0.2   # inside the declared window, outside the flow's
        far = run_ladder(flow, zs[k], 0).e_value
        assert abs(far) > flow.window_threshold
        with pytest.raises(WindowExitError) as exc:
            run_ladder(flow, zs, n)
        assert (exc.value.level, exc.value.value) == (0, far)

    def test_each_depth_sends_one_round_of_4_nodes(self, tmp_path, monkeypatch):
        flow, z_inf, n = kramers_flow(tmp_path)
        sent = []

        def counted(flow, z, n, *args, **kwargs):
            sent.append(np.shape(z))
            return run_ladder(flow, z, n, *args, **kwargs)

        monkeypatch.setattr(rg, "run_ladder", counted)
        assert _winding_count(flow, n, z_inf) == 1
        assert sent == [(4,)]
