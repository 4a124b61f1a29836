import json
import math
from dataclasses import replace

import numpy as np
import pytest

from lorentz_embed.metric import ConformalDiscMetric, make_hyperbolic
from lorentz_embed.grid import (
    PolarGrid,
    ScalarField,
    chart_arrays,
    covariant_hessian,
    generalized_eig_range,
)
from lorentz_embed.solver import DirichletProblem, solve_dirichlet
from lorentz_embed.cli import _dump_json
from lorentz_embed import estimates
from lorentz_embed.geodesics import warped_distance_field
from lorentz_embed.estimates import (
    build_cutoff,
    check_first_order,
    check_lower_bound,
    check_second_order,
    check_zero_order,
    default_probes,
    distance_field,
    max_neg_curvature_ball,
    probe_ball,
    run_estimate_suite,
)


@pytest.fixture(scope="module")
def model_solve():
    return solve_dirichlet(DirichletProblem(make_hyperbolic(1.0), PolarGrid(48, 48, 4.0)))


def ball_and_distance(field, node, r0):
    """The probe ball B(r0) about ``node`` and the distance field its
    localized audits read (None when the smallness hypothesis fails)."""
    ball = probe_ball(field, node, r0)
    if ball.reach is None:
        return ball, None
    return ball, distance_field(field.metric, field.u.grid, ball.node, reach=ball.reach)


class TestZeroOrder:
    def test_model_margins_zero(self, model_solve):
        lower, upper = check_zero_order(model_solve)
        assert lower.passed and upper.passed
        assert lower.margin == pytest.approx(0.0, abs=1e-12)
        assert upper.margin == pytest.approx(0.0, abs=1e-12)

    def test_pinched_two_sided(self, pinched_solve_64):
        lower, upper = check_zero_order(pinched_solve_64)
        assert lower.passed and upper.passed
        assert lower.margin >= -1e-9
        assert upper.margin > 0.1  # strictly interior for genuinely pinched K

    def test_wrong_boundary_fails(self, pinched_solve_64):
        lower, _ = check_zero_order(pinched_solve_64, boundary_value=1.0)
        assert not lower.passed


class TestFirstOrder:
    def test_model_gradient_zero(self, model_solve):
        bound_rec, barrier_rec = check_first_order(model_solve)
        assert bound_rec.observed <= 1e-12
        assert bound_rec.passed and barrier_rec.passed

    def test_pinched_strictly_below_bound(self, pinched_solve_64, pinched_solve_128):
        rec64 = check_first_order(pinched_solve_64)[0]
        rec128 = check_first_order(pinched_solve_128)[0]
        assert rec64.passed and rec128.passed
        assert rec64.observed < rec64.bound
        # observed maximum is resolution-stable
        assert abs(rec64.observed - rec128.observed) <= 1e-3

    def test_barrier_dominates(self, pinched_solve_64):
        _, barrier = check_first_order(pinched_solve_64)
        assert barrier.passed

    def test_disc_barrier_is_audited(self):
        # the barrier reads the chart's upper rim distance, so a perturbed disc
        # is audited too: a field whose datum is lowered by 0.1 overshoots its
        # barrier by 0.1 on the rim, above the slack of 2 h^2 (h = h2)
        disc = solve_dirichlet(DirichletProblem(ConformalDiscMetric(1.0, 0.9, 0.3),
                                                PolarGrid(24, 48, 0.7, kind="disc")))
        _, barrier = check_first_order(disc)
        assert barrier.passed and barrier.extra == {}
        low = replace(disc, boundary_value=disc.boundary_value - 0.1)
        _, barrier = check_first_order(low)
        assert not barrier.passed and barrier.slack < 0.05
        assert barrier.observed == pytest.approx(0.1, rel=1e-9)


class TestLowerBound:
    def test_unit_model_frozen_arithmetic(self, model_solve):
        # independent evaluation of the three-term bound at r0 = 1
        A = 2.0 / math.tanh(1.0)
        t_cap = 1.0 / (2.0 * A)
        t_curv = 1.0 / 32.0
        t_quad = 1.0 / (9.0 * A * A)
        # closed forms: t_cap = tanh(1)/4, t_quad = tanh(1)^2/36
        assert t_cap == pytest.approx(math.tanh(1.0) / 4.0, rel=1e-15)
        assert t_cap == pytest.approx(0.19039854, abs=1e-8)
        assert t_quad == pytest.approx(math.tanh(1.0) ** 2 / 36.0, rel=1e-15)
        assert t_quad == pytest.approx(0.01611183, abs=1e-8)
        rec = check_lower_bound(model_solve, probe_ball(model_solve, (0, 0), 1.0))
        assert rec.bound == pytest.approx(min(t_cap, t_curv, t_quad), rel=1e-12)
        assert rec.observed == pytest.approx(0.5, abs=1e-12)
        assert rec.passed

    def test_unit_model_r0_two(self, model_solve):
        A = 2.0 / math.tanh(2.0)
        expected = min(2.0 / (2.0 * A), 1.0 / 32.0, 4.0 / (9.0 * A * A))
        rec = check_lower_bound(model_solve, probe_ball(model_solve, (0, 0), 2.0))
        assert rec.bound == pytest.approx(expected, rel=1e-12)
        assert rec.passed

    def test_pinched_probe(self, pinched_solve_64):
        g = pinched_solve_64.u.grid
        i = int(np.searchsorted(g.q1, 1.9))
        rec = check_lower_bound(pinched_solve_64, probe_ball(pinched_solve_64, (i, 0), 1.0))
        assert rec.passed
        assert rec.extra["ball_max_neg_K"] > 1.0

    def test_ball_must_fit(self, pinched_solve_64):
        g = pinched_solve_64.u.grid
        with pytest.raises(ValueError, match="leaves the solved domain"):
            probe_ball(pinched_solve_64, (g.n1 - 1, 0), 1.0)


class TestBallCurvatureMax:
    def test_radial_band(self, pinched_metric):
        c2 = max_neg_curvature_ball(pinched_metric, (1.5, 0.0), 1.0)
        assert c2 == pytest.approx(-float(pinched_metric.curvature(2.5)), rel=1e-10)

    def test_clips_at_center(self, pinched_metric):
        c2 = max_neg_curvature_ball(pinched_metric, (0.3, 0.0), 1.0)
        assert c2 == pytest.approx(-float(pinched_metric.curvature(1.3)), rel=1e-10)


class TestCutoff:
    def test_model_large_radius_all_items(self, model_solve):
        # u = 1/2 < 3/(2 coth 3) ~ 1.49: hypothesis holds with room
        ball, d = ball_and_distance(model_solve, (0, 0), 3.0)
        assert ball.reach is not None
        assert ball.cap == pytest.approx(3.0 * math.tanh(3.0) / 2.0, rel=1e-12)
        records = build_cutoff(model_solve, ball, d)
        assert all(rec.passed for rec in records)
        ids = [rec.id for rec in records]
        assert ids == [f"cutoff_{name}_{ball.tag}" for name in ("range", "gradient", "hessian")]
        assert all(rec.extra["node"] == [0, 0] for rec in records)

    def test_model_small_radius_hypothesis_gate(self, model_solve):
        ball = probe_ball(model_solve, (0, 0), 1.0)
        assert ball.reach is None
        # the audits refuse the ball before reading a distance; the suite
        # records it as not met instead of auditing it
        for audit in (build_cutoff, check_second_order):
            with pytest.raises(ValueError, match="hypothesis"):
                audit(model_solve, ball, None)
        ids = [rec.id for rec in run_estimate_suite(model_solve, r0_list=(1.0,)).records]
        assert ids[-3:] == ["lower_bound_r0_1_node_0_0", "cutoff_hypothesis_r0_1_node_0_0",
                            "second_order_r0_1_node_0_0"]

    def test_pinched_probes(self, pinched_solve_l4):
        g = pinched_solve_l4.u.grid
        for r_probe in (1.3, 1.9, 2.5):
            i = int(np.searchsorted(g.q1, r_probe))
            ball, d = ball_and_distance(pinched_solve_l4, (i, 0), 1.0)
            assert ball.reach is not None
            assert all(rec.passed for rec in build_cutoff(pinched_solve_l4, ball, d))

    def test_slack_covers_refinement(self, pinched_metric):
        # the pinned slack constants must absorb the FD error at both of
        # these resolutions (margins may be negative only within slack)
        for n in (48, 96):
            sol = solve_dirichlet(DirichletProblem(pinched_metric, PolarGrid(n, 32, 4.0)))
            g = sol.u.grid
            i = int(np.searchsorted(g.q1, 1.9))
            ball, d = ball_and_distance(sol, (i, 0), 1.0)
            assert ball.reach is not None
            for rec in build_cutoff(sol, ball, d):
                assert rec.passed, (n, rec.id, rec.margin, rec.slack)


class TestHessianComparison:
    def test_model_distance_squared(self, model_solve):
        # Hess(d^2) <= 2 sqrt(c2) d coth(sqrt(c2) d) g for d from the center
        g = model_solve.u.grid
        R, _ = g.mesh()
        ch = chart_arrays(make_hyperbolic(1.0), g)
        hess = covariant_hessian(ScalarField(g, R * R), ch)
        _, eig_max = generalized_eig_range(
            hess.h11, hess.h12, hess.h22, ch.g11, ch.g22)
        bound = 2.0 * R / np.tanh(R)
        sl = slice(0, g.n1 - 1)
        assert np.all(eig_max[sl] <= bound[sl] + 20.0 * g.h1**2)

    def test_pinched_offcenter_distance_squared(self, pinched_solve_64, pinched_metric):
        g = pinched_solve_64.u.grid
        node = (20, 8)
        d = warped_distance_field(pinched_metric, g, node)
        c2 = max_neg_curvature_ball(pinched_metric, (g.q1[node[0]], g.q2[node[1]]), 1.0)
        ch = chart_arrays(pinched_metric, g)
        hess = covariant_hessian(ScalarField(g, d * d), ch)
        _, eig_max = generalized_eig_range(
            hess.h11, hess.h12, hess.h22, ch.g11, ch.g22)
        s = math.sqrt(c2)
        bound = 2.0 * s * d / np.tanh(s * np.maximum(d, 1e-12))
        ball = (d <= 1.0) & (d > 2 * g.h1)
        assert np.all(eig_max[ball] <= bound[ball] + 50.0 * g.h1**2)


class TestSecondOrder:
    def test_model_constant_solution(self, model_solve):
        rec = check_second_order(model_solve, *ball_and_distance(model_solve, (0, 0), 3.0),
                                 c_cal=1.0)
        assert rec.extra["hypothesis_met"]
        assert rec.observed == pytest.approx(1.0, abs=1e-10)
        assert rec.passed

    def test_constants_echoed(self, pinched_solve_l4, pinched_metric):
        g = pinched_solve_l4.u.grid
        i = int(np.searchsorted(g.q1, 1.9))
        rec = check_second_order(pinched_solve_l4,
                                 *ball_and_distance(pinched_solve_l4, (i, 0), 1.0), c_cal=1.0)
        for key in ("c2", "c2_prime", "c3", "c4", "c_cal"):
            assert key in rec.extra
        assert rec.extra["c2"] <= rec.extra["c2_prime"] + 1e-12
        assert rec.extra["ratio"] <= 1.0

    def test_constants_match_dense_sampling(self, pinched_solve_l4, pinched_metric):
        # c2 is the probe ball's own sample, taken as given; c2' samples B(r0 + 1)
        g = pinched_solve_l4.u.grid
        ball, d = ball_and_distance(pinched_solve_l4, (int(np.searchsorted(g.q1, 1.5)), 0), 1.0)
        assert ball.reach is not None
        k = check_second_order(pinched_solve_l4, ball, d).extra
        assert k["c2"] == ball.c2 == pytest.approx(
            max_neg_curvature_ball(pinched_metric, ball.center, 1.0), rel=1e-12)
        assert k["c2_prime"] == pytest.approx(
            max_neg_curvature_ball(pinched_metric, ball.center, 2.0), rel=1e-12)
        assert k["c3"] >= 0 and k["c4"] >= 0

    def test_growth_past_the_float_range_bounds_nothing(self, pinched_solve_l4):
        # exp(c_cal c2') overflowed from c_cal about 370 on the README config, and
        # verify ended in an OverflowError traceback; the bound is now +inf
        g = pinched_solve_l4.u.grid
        ball, d = ball_and_distance(pinched_solve_l4, (int(np.searchsorted(g.q1, 1.5)), 0), 1.0)
        rec = check_second_order(pinched_solve_l4, ball, d, c_cal=1000.0)
        assert rec.bound == rec.margin == math.inf and rec.passed
        assert rec.extra["ratio"] == 0.0 and rec.extra["c_cal"] == 1000.0

    @pytest.mark.parametrize("pair", [(-0.1, 0.0), (0.0, -0.1)])
    def test_negative_log_curvature_bounds_rejected(self, pinched_solve_l4, pair,
                                                    monkeypatch):
        # the check reads c3 and c4 where they are used, from the chart
        g = pinched_solve_l4.u.grid
        ball, d = ball_and_distance(pinched_solve_l4, (int(np.searchsorted(g.q1, 1.5)), 0), 1.0)
        monkeypatch.setattr(type(pinched_solve_l4.metric), "log_curvature_bounds",
                            lambda self, center, r0: pair)
        with pytest.raises(ValueError, match="c3, c4 >= 0"):
            check_second_order(pinched_solve_l4, ball, d)


class TestProbeBall:
    def test_model_ball_cap_and_reach(self, model_solve):
        # u = 1/2 < cap = 3 tanh(3)/2 at r0 = 3; at r0 = 1 cap = tanh(1)/2 < 1/2
        ball = probe_ball(model_solve, (0, 0), 3.0)
        assert ball.cap == pytest.approx(3.0 * math.tanh(3.0) / 2.0, rel=1e-12)
        assert ball.reach is not None
        assert probe_ball(model_solve, (0, 0), 1.0).reach is None


class TestDefaultProbes:
    def test_pinched_probes_and_radii(self, pinched_solve_64):
        # rays at 0.45 and 0.6 of l = 3; the 0.75 probe moves in to l - r0 - 2 h1
        assert default_probes(pinched_solve_64, [1.0]) == ([(29, 0), (38, 21), (40, 42)],
                                                           [1.0])

    def test_disc_drops_a_radius_near_its_geodesic_radius(self):
        metric = ConformalDiscMetric(1.0, 0.9)
        disc = solve_dirichlet(DirichletProblem(metric, PolarGrid(16, 16, 0.8, kind="disc")))
        # the rim distance of the chart's centre, exact at eps = 0
        h1, radius = disc.u.grid.h1, float(metric.rim_distance(0.0, 0.8)[0])
        near, inside = radius - 1.5 * h1, radius - 2.5 * h1
        assert default_probes(disc, [1.0, near, inside])[1] == [1.0, inside]

    def test_perturbed_disc_probes_hold_their_balls(self):
        # the probes sit at 0.45 and 0.6 of the chart radius, and the third
        # moves in until the certified rim distance holds r0; each ball fits
        disc = solve_dirichlet(DirichletProblem(ConformalDiscMetric(1.0, 0.9, 0.3),
                                                PolarGrid(64, 64, 0.8, kind="disc")))
        assert default_probes(disc, [1.0]) == ([(29, 0), (38, 21), (38, 42)], [1.0])
        for node in default_probes(disc, [1.0])[0]:
            assert probe_ball(disc, node, 1.0).r0 == 1.0


class TestSuite:
    def test_report_json_schema(self, pinched_solve_64):
        g = pinched_solve_64.u.grid
        probe = (int(np.searchsorted(g.q1, 1.8)), 0)
        rep = run_estimate_suite(pinched_solve_64, probes=[probe], r0_list=(1.0,))
        payload = rep.to_json_dict()
        assert payload["mandatory_pass"] and payload["all_pass"]
        for rec in payload["records"]:
            for key in ("id", "locus", "bound", "observed", "margin", "pass"):
                assert key in rec
        json.dumps(payload)  # serializable as-is

    def test_recomputable_from_field(self, pinched_solve_64, pinched_metric):
        # audits depend only on (u, metric, boundary value): rebuilding the
        # field from its dumped values reproduces every record exactly
        from lorentz_embed.solver import certify

        g = pinched_solve_64.u.grid
        rebuilt = certify(pinched_metric, g, pinched_solve_64.u.values.copy(),
                          pinched_solve_64.boundary_value,
                          pinched_solve_64.iterations)
        assert rebuilt.ball_radius == pinched_solve_64.ball_radius
        rec1 = check_lower_bound(pinched_solve_64, probe_ball(pinched_solve_64, (10, 0), 1.0))
        rec2 = check_lower_bound(rebuilt, probe_ball(rebuilt, (10, 0), 1.0))
        assert rec1.bound == rec2.bound and rec1.observed == rec2.observed


    def test_ball_max_sampled_once_per_node_and_radius(self, pinched_solve_64,
                                                       monkeypatch):
        calls = []

        def counted(metric, center, r0):
            calls.append((float(center[0]), float(center[1]), r0))
            return max_neg_curvature_ball(metric, center, r0)

        monkeypatch.setattr(estimates, "max_neg_curvature_ball", counted)
        g = pinched_solve_64.u.grid
        probe = (int(np.searchsorted(g.q1, 1.8)), 0)
        run_estimate_suite(pinched_solve_64, probes=[probe], r0_list=(0.5, 1.0))
        # one sample of B(r0) per (node, r0): nodes (0, 0) and the probe, two
        # radii each; one of B(r0 + 1) for the second-order ceiling, only on
        # the one ball that meets the hypothesis, B(1) about the probe
        expected = [(float(g.q1[i]), float(g.q2[j]), r)
                    for i, j in [(0, 0), probe] for r in (0.5, 1.0)]
        expected.append((float(g.q1[probe[0]]), float(g.q2[probe[1]]), 2.0))
        assert sorted(calls) == sorted(expected)


    def test_audits_run_once_per_fitting_ball(self, pinched_solve_64, monkeypatch):
        # build_cutoff and check_second_order each take every (node, r0) whose
        # ball fits and meets the hypothesis once; the suite records the others
        calls = []
        for name in ("build_cutoff", "check_second_order"):
            def spy(field, ball, *args, _real=getattr(estimates, name), _name=name, **kwargs):
                calls.append((_name, ball.node, ball.r0, ball.reach is None))
                return _real(field, ball, *args, **kwargs)
            monkeypatch.setattr(estimates, name, spy)
        g = pinched_solve_64.u.grid
        probe = (int(np.searchsorted(g.q1, 1.8)), 0)
        # B(2.5) about the probe leaves the l = 3 ball
        rep = run_estimate_suite(pinched_solve_64, probes=[probe], r0_list=(0.5, 1.0, 2.5))
        for name in ("build_cutoff", "check_second_order"):
            assert [c[1:] for c in calls if c[0] == name] == [((0, 0), 2.5, False),
                                                              (probe, 1.0, False)]
        # (0, 0) fails at r0 = 0.5 and 1, the probe at 0.5
        ids = [rec.id for rec in rep.records]
        for r0, node in (("0.5", (0, 0)), ("1", (0, 0)), ("0.5", probe)):
            assert f"cutoff_hypothesis_r0_{r0}_node_{node[0]}_{node[1]}" in ids
        for r0, node in (("0.5", (0, 0)), ("1", (0, 0)), ("0.5", probe), ("1", probe)):
            assert ids.count(f"second_order_r0_{r0}_node_{node[0]}_{node[1]}") == 1


    def test_record_ids_unique_and_tagged_by_ball(self, pinched_solve_64):
        # every record about a probe ball ends in the ball's tag and names
        # its node, so no id repeats within a ball or a report
        g = pinched_solve_64.u.grid
        probe = (int(np.searchsorted(g.q1, 1.8)), 0)
        pinched = run_estimate_suite(pinched_solve_64, probes=[probe], r0_list=(0.5, 1.0))
        disc = solve_dirichlet(DirichletProblem(ConformalDiscMetric(1.0, 0.9, 0.3),
                                                PolarGrid(8, 8, 0.8, kind="disc")))
        perturbed = run_estimate_suite(disc, probes=[(3, 0)], r0_list=(1.0, 1.5))
        for rep in (pinched, perturbed):
            ids = [rec.id for rec in rep.records]
            assert len(ids) == len(set(ids))
            assert {rec.extra["hypothesis_met"] for rec in rep.records
                    if rec.id.startswith("second_order_")} == {True, False}
            for rec in rep.records:
                if "_r0_" not in rec.id:
                    continue
                r0 = rec.id.split("_r0_")[1].split("_node_")[0]
                node = rec.extra["node"]
                assert rec.id.endswith(f"_r0_{r0}_node_{node[0]}_{node[1]}")
                # only the records that pass by rule say so: those of a ball
                # that fails the hypothesis
                assert rec.extra.get("by_rule", False) is (rec.extra.get("hypothesis_met") is False)


class TestDistanceOnDemand:
    """The suite solves distances only where its audits read them."""

    @staticmethod
    def _count_calls(monkeypatch, full=False):
        calls, real = [], estimates.distance_field

        def counted(metric, grid, node, reach=math.inf):
            calls.append((tuple(node), reach))
            return real(metric, grid, node, reach=math.inf if full else reach)

        monkeypatch.setattr(estimates, "distance_field", counted)
        return calls

    def test_records_match_full_fields(self, pinched_solve_64, monkeypatch):
        probes, _ = default_probes(pinched_solve_64, [1.0])
        fast = run_estimate_suite(pinched_solve_64, probes=probes).to_json_dict()
        calls = self._count_calls(monkeypatch, full=True)
        full = run_estimate_suite(pinched_solve_64, probes=probes).to_json_dict()
        assert json.dumps(fast, sort_keys=True) == json.dumps(full, sort_keys=True)
        # the comparison covers banded fields and audited cutoffs
        assert calls and all(reach < pinched_solve_64.ball_radius for _, reach in calls)
        assert any(r["id"].startswith("cutoff_hessian") for r in fast["records"])

    def test_failed_hypothesis_solves_no_distance(self, pinched_solve_64, monkeypatch,
                                                  tmp_path):
        calls = self._count_calls(monkeypatch)
        rep = run_estimate_suite(pinched_solve_64, probes=[(0, 0)])
        ball = probe_ball(pinched_solve_64, (0, 0), 1.0)
        assert ball.reach is None
        # the suite writes both not-met records itself; the audits refuse the ball
        hyp, second = rep.records[-2:]
        assert hyp.id == "cutoff_hypothesis_r0_1_node_0_0" and hyp.passed
        assert hyp.margin == ball.cap - ball.u_probe
        assert hyp.extra == {"hypothesis_met": False, "node": [0, 0], "by_rule": True}
        assert second.id == "second_order_r0_1_node_0_0" and second.passed
        assert second.margin == math.inf
        path = tmp_path / "second.json"  # report.json is strict JSON: an infinite margin is null
        _dump_json(second.to_json_dict(), str(path))
        assert json.loads(path.read_text())["margin"] is None
        assert second.extra == {"hypothesis_met": False, "cap": ball.cap, "u_probe": ball.u_probe,
                                "node": [0, 0], "by_rule": True}
        for audit in (build_cutoff, check_second_order):
            with pytest.raises(ValueError, match="hypothesis"):
                audit(pinched_solve_64, ball, None)
        assert calls == []

    def test_one_field_per_probe_meeting_the_hypothesis(self, pinched_solve_64,
                                                        monkeypatch):
        g = pinched_solve_64.u.grid
        probe = (int(np.searchsorted(g.q1, 1.8)), 0)
        calls = self._count_calls(monkeypatch)
        rep = run_estimate_suite(pinched_solve_64, probes=[probe, (0, 0)],
                                 r0_list=(0.5, 1.0))
        # r0 = 0.5 fails the hypothesis at the probe, r0 = 1 meets it
        assert [node for node, _ in calls] == [probe]
        ids = [r.id for r in rep.records]
        assert f"cutoff_hypothesis_r0_0.5_node_{probe[0]}_0" in ids
        assert f"cutoff_range_r0_1_node_{probe[0]}_0" in ids

    def test_one_field_per_ring_and_reach(self, pinched_solve_64, monkeypatch):
        # probes on one ring share one solved field, rolled along theta; the
        # records are those of runs that solve each probe's own field
        g = pinched_solve_64.u.grid
        i = int(np.searchsorted(g.q1, 1.8))
        probes = [(i, 0), (i, 21), (i, 42), (i + 3, 5), (i + 3, 40)]
        base = run_estimate_suite(pinched_solve_64).to_json_dict()["records"]
        expected, keys = list(base), set()
        for p in probes:
            calls = self._count_calls(monkeypatch)
            own = run_estimate_suite(pinched_solve_64, probes=[p]).to_json_dict()["records"]
            expected += own[len(base):]
            assert [node for node, _ in calls] == [p]
            keys.add((p[0], calls[0][1]))
        calls = self._count_calls(monkeypatch)
        read = {}

        def cutoff(field, ball, distance):
            read[ball.node] = distance
            return build_cutoff(field, ball, distance)

        monkeypatch.setattr(estimates, "build_cutoff", cutoff)
        shared = run_estimate_suite(pinched_solve_64, probes=probes).to_json_dict()["records"]
        assert len(keys) == 2
        assert [node for node, _ in calls] == [(i, 0), (i + 3, 5)]
        assert {(node[0], reach) for node, reach in calls} == keys
        assert json.dumps(shared) == json.dumps(expected)
        for p in probes:  # each audit read the field of its own probe
            reach = dict(keys)[p[0]]
            assert np.array_equal(read[p], warped_distance_field(pinched_solve_64.metric, g, p,
                                                                reach))

    def test_chart_disc_takes_no_roll(self, monkeypatch):
        # a perturbed conformal chart is not rotationally symmetric: probes on
        # one ring with one reach each solve their own field.  The audits'
        # values are not under test, so a chart-flat stand-in is returned.
        # On this wide disc a ball of radius 2.5 about ring 1 fits, and its
        # bound on max -K is the chart-wide one, so every reach is the same
        calls = []

        def counted(metric, grid, node, reach=math.inf):
            calls.append((tuple(node), reach))
            R, T = grid.mesh()
            X, Y = R * np.cos(T), R * np.sin(T)
            return np.hypot(X - X[node], Y - Y[node])

        monkeypatch.setattr(estimates, "distance_field", counted)
        disc = solve_dirichlet(DirichletProblem(ConformalDiscMetric(1.0, 0.99, 0.3),
                                                PolarGrid(8, 8, 0.95, kind="disc")))
        probes = [(1, 0), (1, 2), (1, 4)]
        run_estimate_suite(disc, probes=probes, r0_list=(2.5,))
        assert [node for node, _ in calls] == [(0, 0)] + probes
        assert len({reach for _, reach in calls}) == 1


class TestRecordConvention:
    """Every record passes when margin >= -slack, save one whose hypothesis
    is not met, which passes by rule and says so."""

    @staticmethod
    def _rule(rec):
        """Check one record against its rule; return the rule's name."""
        if rec.extra.get("hypothesis_met") is False:
            assert rec.id.startswith(("cutoff_hypothesis_", "second_order_"))
            assert rec.passed is True and rec.extra["by_rule"] is True  # nothing audited
            assert rec.status() == "pass by rule (hypothesis not met)"
            return "hypothesis_not_met"
        assert "by_rule" not in rec.extra
        assert rec.passed is (rec.margin >= -rec.slack)
        assert rec.status() == f"{'pass' if rec.passed else 'FAIL'} (margin {rec.margin:.3e})"
        if rec.id.startswith("cutoff_range_"):
            x = rec.extra
            assert rec.margin == min(x["support_min"], rec.bound - rec.observed,
                                     x["core_min"] - x["core_floor"])
            return "cutoff_range"
        if rec.id.startswith("second_order_"):
            # no slack: passes exactly when the ratio is at most 1
            assert rec.slack == 0.0 and rec.passed is (rec.extra["ratio"] <= 1.0)
        lower = rec.id.split("_r0_")[0] in (
            "zero_order_lower", "admissibility", "lower_bound", "cutoff_hessian")
        assert rec.margin == (rec.observed - rec.bound if lower else rec.bound - rec.observed)
        return "record"

    def test_margins_and_pass_flags_follow_the_convention(self, pinched_solve_64):
        g = pinched_solve_64.u.grid
        pinched = run_estimate_suite(pinched_solve_64, r0_list=(0.5, 1.0),
                                     probes=[(int(np.searchsorted(g.q1, 1.8)), 0)])
        disc = solve_dirichlet(DirichletProblem(ConformalDiscMetric(1.0, 0.9, 0.3),
                                                PolarGrid(24, 16, 0.7, kind="disc")))
        perturbed = run_estimate_suite(disc, r0_list=(1.0, 2.0))
        rules = {}
        for rep in (pinched, perturbed):
            for rec in rep.records:
                rules.setdefault(self._rule(rec), set()).add(rec.id.split("_r0_")[0])
        assert rules["record"] == {
            "zero_order_lower", "zero_order_upper", "gradient_bound", "gradient_barrier",
            "admissibility", "lower_bound", "cutoff_gradient", "cutoff_hessian",
            "second_order"}
        assert rules["hypothesis_not_met"] == {"cutoff_hypothesis", "second_order"}
        assert rules["cutoff_range"] == {"cutoff_range"}
        assert set(rules) == {"record", "hypothesis_not_met", "cutoff_range"}
