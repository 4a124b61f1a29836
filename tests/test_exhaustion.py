import math

import numpy as np
import pytest

from lorentz_embed.metric import make_hyperbolic
from lorentz_embed.grid import PolarGrid, ScalarField
from lorentz_embed.exhaustion import (
    ExhaustionSchedule,
    make_schedule,
    run_exhaustion,
    sample_bicubic,
)


class TestScheduleValidation:
    def test_observation_margin_enforced(self):
        grids = (PolarGrid(32, 32, 2.0), PolarGrid(48, 32, 3.0))
        with pytest.raises(ValueError, match="l_obs"):
            ExhaustionSchedule((2.0, 3.0), grids, l_obs=1.5)

    def test_radii_must_increase(self):
        grids = (PolarGrid(32, 32, 2.0), PolarGrid(32, 32, 2.0))
        with pytest.raises(ValueError, match="increasing"):
            ExhaustionSchedule((2.0, 2.0), grids, l_obs=1.0)

    def test_grid_mismatch_detected(self):
        grids = (PolarGrid(32, 32, 2.0), PolarGrid(48, 32, 3.5))
        with pytest.raises(ValueError, match="match"):
            ExhaustionSchedule((2.0, 3.0), grids, l_obs=1.0)

    def test_make_schedule_scales_radially(self):
        sched = make_schedule((2.0, 4.0), l_obs=1.0, nodes_per_unit=16)
        assert sched.grids[0].n1 == 32
        assert sched.grids[1].n1 == 64
        # radial spacing stays bounded as the ball grows
        assert sched.grids[1].h1 == pytest.approx(sched.grids[0].h1, rel=0.05)


class TestBicubicSampling:
    def test_smooth_field_accuracy(self):
        g = PolarGrid(48, 48, 2.0)
        R, T = g.mesh()
        f = ScalarField(g, np.cosh(R) + 0.1 * np.sin(T) * R**2)
        r_pts = np.linspace(0.01, 1.0, 40)
        t_pts = np.linspace(0, 2 * math.pi, 37)[:-1]
        vals = sample_bicubic(f, r_pts, t_pts)
        Rq, Tq = np.meshgrid(r_pts, t_pts, indexing="ij")
        expect = np.cosh(Rq) + 0.1 * np.sin(Tq) * Rq**2
        assert np.max(np.abs(vals - expect)) <= 5.0 * g.h1**3

    def test_periodic_wrap(self):
        g = PolarGrid(16, 32, 1.0)
        _, T = g.mesh()
        f = ScalarField(g, np.cos(T))
        v1 = sample_bicubic(f, np.array([0.5]), np.array([0.1]))
        v2 = sample_bicubic(f, np.array([0.5]), np.array([0.1 + 2 * math.pi]))
        assert v1.item() == pytest.approx(v2.item(), abs=1e-13)


class TestModelExhaustion:
    def test_constant_solution_all_deltas_zero(self):
        sched = make_schedule((2.0, 3.0, 4.0), l_obs=1.0, nodes_per_unit=12,
                              n_theta=32)
        result = run_exhaustion(sched, make_hyperbolic(1.0))
        assert result.converged
        for fld in result.fields:
            # every ball starts from its constant datum, the exact solution
            assert np.all(fld.u.values == 0.5)
        deltas = [s.delta for s in result.steps[1:]]
        assert all(d <= 1e-12 for d in deltas)

    def test_early_stop_on_tolerance(self):
        sched = make_schedule((2.0, 3.0, 4.0, 5.0), l_obs=1.0, nodes_per_unit=12,
                              n_theta=32, tol=1e-5)
        result = run_exhaustion(sched, make_hyperbolic(1.0))
        # constant family converges after the second ball already
        assert len(result.steps) == 2


@pytest.fixture(scope="module")
def pinched_sequence(pinched_metric):
    sched = make_schedule((2.0, 3.0, 4.0, 5.0), l_obs=1.0, nodes_per_unit=16,
                          n_theta=32, tol=1e-9)
    return run_exhaustion(sched, pinched_metric)


class TestPinchedExhaustion:
    @pytest.fixture()
    def result(self, pinched_sequence):
        return pinched_sequence

    def test_deltas_decrease(self, result):
        deltas = [s.delta for s in result.steps[1:]]
        assert result.deltas_monotone
        assert deltas[-1] <= 1e-4

    def test_interior_limit_is_radial(self, result):
        u = result.limit_on_reference
        assert (u.max(axis=1) - u.min(axis=1)).max() <= 1e-9

    def test_iteration_counts_stay_small(self, result):
        # each ball's Newton solve from the constant datum stays short
        assert all(s.iterations <= 8 for s in result.steps)

    def test_uniform_bounds_across_balls(self, result, pinched_metric):
        # the interior estimates hold with constants independent of the ball
        ceiling = 1.0 / (2.0 * pinched_metric.bounds.c1) + 1e-9
        grad_cap = 2.0 / math.sqrt(pinched_metric.bounds.c1)
        for step in result.steps:
            assert step.max_u <= ceiling
            assert step.max_grad <= grad_cap
            assert step.min_u > 0.0

    def test_boundary_perturbation_influence_decays(self, pinched_metric):
        # the interior gap between the standard and midpoint boundary data
        # decays with the ball radius (negative curvature damps boundary
        # influence); the acceptance suite pins the l = 6 gap at 5e-4
        gaps = []
        for radii in ((2.0, 3.0), (2.0, 3.0, 4.0, 5.0)):
            limits = {}
            for rule in ("standard", "midpoint"):
                sched = make_schedule(radii, l_obs=1.0, nodes_per_unit=16,
                                      n_theta=32, tol=1e-16, boundary_rule=rule)
                limits[rule] = run_exhaustion(sched, pinched_metric).limit_on_reference
            gaps.append(float(np.max(np.abs(limits["standard"] - limits["midpoint"]))))
        assert gaps[1] <= 0.25 * gaps[0]
        assert gaps[1] <= 2e-3
