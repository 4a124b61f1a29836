import json
import math

import numpy as np
import pytest

from lorentz_embed.metric import make_hyperbolic
from lorentz_embed.grid import (
    PolarGrid,
    ScalarField,
    chart_arrays,
    covariant_hessian,
    generalized_eig_range,
)
from lorentz_embed.solver import DirichletProblem, solve_dirichlet
from lorentz_embed import estimates, geodesics
from lorentz_embed.geodesics import distance_field_polar
from lorentz_embed.estimates import (
    build_cutoff,
    check_first_order,
    check_lower_bound,
    check_second_order,
    check_zero_order,
    max_neg_curvature_ball,
    run_estimate_suite,
    second_order_constants,
)


@pytest.fixture(scope="module")
def model_solve():
    return solve_dirichlet(DirichletProblem(make_hyperbolic(1.0), PolarGrid(48, 48, 4.0)))


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
        rec = check_lower_bound(model_solve, (0, 0), 1.0)
        assert rec.bound == pytest.approx(min(t_cap, t_curv, t_quad), rel=1e-12)
        assert rec.observed == pytest.approx(0.5, abs=1e-12)
        assert rec.passed

    def test_unit_model_r0_two(self, model_solve):
        A = 2.0 / math.tanh(2.0)
        expected = min(2.0 / (2.0 * A), 1.0 / 32.0, 4.0 / (9.0 * A * A))
        rec = check_lower_bound(model_solve, (0, 0), 2.0)
        assert rec.bound == pytest.approx(expected, rel=1e-12)
        assert rec.passed

    def test_pinched_probe(self, pinched_solve_64):
        g = pinched_solve_64.u.grid
        i = int(np.searchsorted(g.q1, 1.9))
        rec = check_lower_bound(pinched_solve_64, (i, 0), 1.0)
        assert rec.passed
        assert rec.extra["ball_max_neg_K"] > 1.0

    def test_ball_must_fit(self, pinched_solve_64):
        g = pinched_solve_64.u.grid
        with pytest.raises(ValueError, match="leaves the solved domain"):
            check_lower_bound(pinched_solve_64, (g.n1 - 1, 0), 1.0)


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
        cut = build_cutoff(model_solve, (0, 0), 3.0)
        assert cut.hypothesis_met
        assert cut.cap == pytest.approx(3.0 * math.tanh(3.0) / 2.0, rel=1e-12)
        assert all(rec.passed for rec in cut.records)
        ids = [rec.id for rec in cut.records]
        assert ids == ["cutoff_range", "cutoff_gradient", "cutoff_hessian"]

    def test_model_small_radius_hypothesis_gate(self, model_solve):
        cut = build_cutoff(model_solve, (0, 0), 1.0)
        assert not cut.hypothesis_met
        assert cut.records == []
        assert cut.phi is None

    def test_pinched_probes(self, pinched_solve_l4):
        g = pinched_solve_l4.u.grid
        for r_probe in (1.3, 1.9, 2.5):
            i = int(np.searchsorted(g.q1, r_probe))
            cut = build_cutoff(pinched_solve_l4, (i, 0), 1.0)
            assert cut.hypothesis_met
            assert all(rec.passed for rec in cut.records)

    def test_slack_covers_refinement(self, pinched_metric):
        # the pinned slack constants must absorb the FD error at both of
        # these resolutions (margins may be negative only within slack)
        for n in (48, 96):
            sol = solve_dirichlet(DirichletProblem(pinched_metric, PolarGrid(n, 32, 4.0)))
            g = sol.u.grid
            i = int(np.searchsorted(g.q1, 1.9))
            cut = build_cutoff(sol, (i, 0), 1.0)
            assert cut.hypothesis_met
            for rec in cut.records:
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
        d = distance_field_polar(pinched_metric, g, node)
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
        rec = check_second_order(model_solve, (0, 0), 3.0, c_cal=1.0)
        assert rec.extra["hypothesis_met"]
        assert rec.observed == pytest.approx(1.0, abs=1e-10)
        assert rec.passed

    def test_constants_echoed(self, pinched_solve_l4, pinched_metric):
        g = pinched_solve_l4.u.grid
        i = int(np.searchsorted(g.q1, 1.9))
        rec = check_second_order(pinched_solve_l4, (i, 0), 1.0, c_cal=1.0)
        for key in ("c2", "c2_prime", "c3", "c4", "c_cal"):
            assert key in rec.extra
        assert rec.extra["c2"] <= rec.extra["c2_prime"] + 1e-12
        assert rec.extra["ratio"] <= 1.0

    def test_constants_match_dense_sampling(self, pinched_metric):
        k = second_order_constants(pinched_metric, (1.5, 0.0), 1.0)
        assert k.c2 == pytest.approx(
            max_neg_curvature_ball(pinched_metric, (1.5, 0.0), 1.0), rel=1e-12)
        assert k.c2_prime == pytest.approx(
            max_neg_curvature_ball(pinched_metric, (1.5, 0.0), 2.0), rel=1e-12)
        assert k.c3 >= 0 and k.c4 >= 0


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
        rec1 = check_lower_bound(pinched_solve_64, (10, 0), 1.0)
        rec2 = check_lower_bound(rebuilt, (10, 0), 1.0)
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
        # one sample of B(r0) per (node, r0), one of B(r0 + 1) for the
        # second-order ceiling: nodes (0, 0) and the probe, two radii each
        expected = [(float(g.q1[i]), float(g.q2[j]), r)
                    for i, j in [(0, 0), probe] for r in (0.5, 1.0, 1.5, 2.0)]
        assert sorted(calls) == sorted(expected)


class TestDistanceOnDemand:
    """The suite solves distances only where its audits read them."""

    @staticmethod
    def _count_calls(monkeypatch, full=False):
        calls = []

        def counted(metric, grid, node, reach=math.inf):
            calls.append((tuple(node), reach))
            return geodesics.distance_field(metric, grid, node,
                                            reach=math.inf if full else reach)

        monkeypatch.setattr(estimates, "distance_field", counted)
        return calls

    def test_records_match_full_fields(self, pinched_solve_64, monkeypatch):
        from lorentz_embed.cli import _default_probes

        probes = _default_probes(pinched_solve_64, 1.0)
        fast = run_estimate_suite(pinched_solve_64, probes=probes).to_json_dict()
        calls = self._count_calls(monkeypatch, full=True)
        full = run_estimate_suite(pinched_solve_64, probes=probes).to_json_dict()
        assert json.dumps(fast, sort_keys=True) == json.dumps(full, sort_keys=True)
        # the comparison covers banded fields and audited cutoffs
        assert calls and all(reach < pinched_solve_64.ball_radius for _, reach in calls)
        assert any(r["id"].startswith("cutoff_hessian") for r in fast["records"])

    def test_failed_hypothesis_solves_no_distance(self, pinched_solve_64, monkeypatch):
        calls = self._count_calls(monkeypatch)
        rep = run_estimate_suite(pinched_solve_64, probes=[(0, 0)])
        ids = [r.id for r in rep.records]
        assert "cutoff_hypothesis_r0_1_node_0_0" in ids
        assert build_cutoff(pinched_solve_64, (0, 0), 1.0).hypothesis_met is False
        assert check_second_order(pinched_solve_64, (0, 0), 1.0).extra["hypothesis_met"] is False
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
