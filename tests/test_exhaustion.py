import math
import tracemalloc

import numpy as np
import pytest

from oracles import knot_slopes_eye, not_a_knot_weights_eye, sample_bicubic_dense

from lorentz_embed.metric import ConformalDiscMetric, make_hyperbolic
from lorentz_embed import exhaustion
from lorentz_embed.grid import PolarGrid, ScalarField
from lorentz_embed.exhaustion import (
    ExhaustionSchedule,
    run_exhaustion,
    sample_bicubic,
)


class TestScheduleValidation:
    # each rule raises the line config validation prints for it
    def test_observation_margin_enforced(self):
        with pytest.raises(ValueError) as info:
            ExhaustionSchedule((2.0, 3.0), l_obs=1.5)
        assert str(info.value) == "exhaustion.l_obs: must be <= radii[0] - 1"
        assert ExhaustionSchedule((2.0, 3.0), l_obs=1.0).l_obs == 1.0

    def test_radii_must_increase(self):
        for radii in ((2.0, 2.0), (3.0, 2.0), (), (0.0, 2.0)):
            with pytest.raises(ValueError) as info:
                ExhaustionSchedule(radii, l_obs=-1.0)
            assert str(info.value) == ("exhaustion.radii: must be a strictly increasing "
                                       "positive list"), radii

    def test_boundary_rule_named(self):
        with pytest.raises(ValueError) as info:
            ExhaustionSchedule((2.0, 3.0), l_obs=1.0, boundary_rule="upper")
        assert str(info.value) == "exhaustion.boundary_rule: must be 'standard' or 'midpoint'"

    def test_observation_radius_inside_chart_disc(self):
        with pytest.raises(ValueError) as info:
            ExhaustionSchedule((0.7,), l_obs=0.7, n_r=24, kind="disc")
        assert str(info.value) == "exhaustion.l_obs: must be < radii[0] on a chart disc"
        # a disc's radius is below 1, so the geodesic ball's margin does not apply
        sched = ExhaustionSchedule((0.7,), l_obs=0.5, n_theta=16, n_r=24, kind="disc")
        assert [(g.n1, g.n2, g.radius, g.kind) for g in sched.grids] == [(24, 16, 0.7, "disc")]

    def test_schedule_scales_radially(self):
        sched = ExhaustionSchedule((2.0, 4.0), l_obs=1.0, nodes_per_unit=16)
        assert sched.grids[0].n1 == 32
        assert sched.grids[1].n1 == 64
        # radial spacing stays bounded as the ball grows
        assert sched.grids[1].h1 == pytest.approx(sched.grids[0].h1, rel=0.05)
        # at least 16 rings, or n_r rings on every ball
        for sizing, rings in (({"nodes_per_unit": 4}, [16, 16]), ({"n_r": 20}, [20, 20])):
            sched = ExhaustionSchedule((2.0, 3.0), l_obs=1.0, **sizing)
            assert [g.n1 for g in sched.grids] == rings

    def test_observation_rings_count_the_grid_rings(self):
        # the count equals a brute-force count of the rings (k + 1/2) h1
        # below l_obs + 1e-12, on ring edges too
        rng = np.random.default_rng(3)
        for _ in range(300):
            grid = PolarGrid(int(rng.integers(2, 200)), 8, float(rng.uniform(0.1, 9.0)))
            k = int(rng.integers(0, grid.n1 + 2))
            for l_obs in ((k + 0.5) * grid.h1 - 1e-12, (k + 0.5) * grid.h1,
                          rng.uniform(0.0, 1.2 * grid.radius)):
                count = sum((i + 0.5) * grid.h1 < l_obs + 1e-12 for i in range(grid.n1))
                assert exhaustion._observation_rings(grid, l_obs) == count, (grid, l_obs)


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

    @staticmethod
    def _spline_oracle(field, r_pts, t_pts):
        # the FITPACK bicubic interpolating spline (s = 0) on the same
        # pole-mirrored, theta-wrapped extension
        from scipy.interpolate import RectBivariateSpline

        grid, v, pad = field.grid, field.values, 4
        below = np.stack([np.roll(v[k], grid.n2 // 2) for k in range(pad)])[::-1]
        ext = np.vstack([below, v])
        ext = np.hstack([ext[:, -pad:], ext, ext[:, :pad]])
        r_ext = np.concatenate([-grid.q1[:pad][::-1], grid.q1])
        t_ext = np.concatenate([grid.q2[-pad:] - 2 * math.pi, grid.q2,
                                grid.q2[:pad] + 2 * math.pi])
        t_wrapped = np.mod(t_pts - grid.theta0, 2 * math.pi) + grid.theta0
        return RectBivariateSpline(r_ext, t_ext, ext, kx=3, ky=3)(r_pts, t_wrapped)

    @pytest.mark.parametrize("n1, n2, radius, kind", [
        (32, 64, 3.0, "polar"), (64, 64, 4.0, "polar"), (192, 192, 4.0, "polar"),
        (24, 16, 0.7, "disc"),
    ])
    def test_matches_bicubic_spline(self, n1, n2, radius, kind):
        g = PolarGrid(n1, n2, radius, theta0=0.3, kind=kind)
        R, T = g.mesh()
        s = R / radius
        f = ScalarField(g, 0.3 * np.exp(-s * s) * (1.0 + 0.2 * s * np.cos(T))
                        + 0.01 * s**3 * np.sin(3.0 * T))
        r_pts = np.linspace(0.0, radius, 41)
        # one full turn, shifted by -2 pi so that every angle wraps
        t_pts = np.linspace(0.3, 0.3 + 2 * math.pi, 53, endpoint=False) - 2 * math.pi
        got = sample_bicubic(f, r_pts, t_pts)
        assert np.max(np.abs(got - self._spline_oracle(f, r_pts, t_pts))) <= 1e-14

    @pytest.mark.parametrize("m", [4, 23, 200])
    def test_cached_slopes_give_the_uncached_weights(self, m):
        # nothing is kept between calls: two calls give the same bits, and
        # the module holds no cache
        Y = np.random.default_rng(m).standard_normal((m, 5))
        x = np.linspace(-0.5, m - 0.5, 3 * m + 1)
        first = exhaustion._not_a_knot(Y, x)
        assert np.array_equal(first.view(np.uint64), exhaustion._not_a_knot(Y, x).view(np.uint64))
        assert not any(hasattr(v, "cache_info") for v in vars(exhaustion).values())

    @pytest.mark.parametrize("m", [4, 8, 20, 100, 148, 196, 200])
    def test_spline_matrices_match_the_eye_oracle(self, m):
        # the banded slopes of the identity's columns are the dense slope
        # matrix; on data, slopes and spline values match the dense products
        ref = knot_slopes_eye(m)
        assert np.abs(exhaustion._knot_slopes(np.eye(m)) - ref).max() <= 1e-14 * np.abs(ref).max()
        Y = np.random.default_rng(m).standard_normal((m, 7))
        ref = ref @ Y
        assert np.abs(exhaustion._knot_slopes(Y) - ref).max() <= 1e-14 * np.abs(ref).max()
        # points below 0, on every knot, between knots and above m - 1; the
        # clamped ends give t = 0 and t = 1
        x = np.concatenate([[-3.0, -0.25, -0.0], np.arange(m, dtype=float),
                            np.arange(m - 1) + 0.37, np.linspace(0.0, m - 1.0, 2 * m + 5),
                            [m - 1.0 + 1e-9, m - 0.5, m + 2.0]])
        ref = not_a_knot_weights_eye(m, x) @ Y
        got = exhaustion._not_a_knot(Y, x)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @staticmethod
    def _radial_field(n1, n2, radius):
        g = PolarGrid(n1, n2, radius, theta0=0.3)
        R, _ = g.mesh()
        return ScalarField(g, 0.3 * np.exp(-(R / radius) ** 2) + 0.1)

    @staticmethod
    def _mesh(radius):
        return np.linspace(0.0, radius, 41), np.linspace(-1.0, 2 * math.pi + 1.0, 53)

    @pytest.mark.parametrize("n1, n2", [(20, 16), (96, 192), (192, 192)])
    def test_ring_constant_field_samples_one_column(self, n1, n2, monkeypatch):
        # the column, broadcast read-only along theta, is the general path's
        # tensor-product sample of the same field
        f = self._radial_field(n1, n2, 4.0)
        r_pts, t_pts = self._mesh(4.0)
        got = sample_bicubic(f, r_pts, t_pts)
        assert got.shape == (41, 53) and got.strides[1] == 0 and not got.flags.writeable
        monkeypatch.setattr(ScalarField, "column", property(lambda self: None))
        general = sample_bicubic(f, r_pts, t_pts)
        assert general.strides[1] != 0
        assert np.abs(got - general).max() <= 1e-15 * np.abs(general).max()
        dense = sample_bicubic_dense(f, r_pts, t_pts)
        assert np.abs(general - dense).max() <= 1e-14 * np.abs(dense).max()

    def test_one_changed_node_takes_the_general_path(self):
        f = self._radial_field(48, 64, 4.0)
        r_pts, t_pts = self._mesh(4.0)
        values = f.values.copy()
        values[10, 7] += 1e-3
        changed = ScalarField(f.grid, values)
        got = sample_bicubic(changed, r_pts, t_pts)
        assert got.strides[1] != 0
        ref = sample_bicubic_dense(changed, r_pts, t_pts)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.abs(got - sample_bicubic(f, r_pts, t_pts)).max() > 1e-5

    def test_signed_zeros_are_not_ring_constant(self):
        # a row of 0.0 and -0.0 is constant in value but not in bits: the
        # general path samples it, and agrees with the column path of +0.0
        f = self._radial_field(48, 64, 4.0)
        r_pts, t_pts = self._mesh(4.0)
        values = f.values.copy()
        values[5] = 0.0
        plus = sample_bicubic(ScalarField(f.grid, values), r_pts, t_pts)
        values[5, ::3] = -0.0
        signed = sample_bicubic(ScalarField(f.grid, values), r_pts, t_pts)
        assert plus.strides[1] == 0 and signed.strides[1] != 0
        assert np.abs(signed - plus).max() <= 1e-15 * np.abs(plus).max()

    @pytest.mark.parametrize("radial", [True, False])
    def test_sample_memory_budget(self, radial):
        # below one 200 x 200 matrix of doubles (320,000 bytes): no dense
        # slope matrix and no whole padded array
        f = self._radial_field(192, 192, 4.0)
        if not radial:
            R, T = f.grid.mesh()
            f = ScalarField(f.grid, f.values + 0.01 * np.sin(T) * R)
        ref = PolarGrid(48, 64, 1.0)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sample_bicubic(f, ref.q1, ref.q2)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak <= 300_000

    def test_periodic_wrap(self):
        g = PolarGrid(16, 32, 1.0)
        _, T = g.mesh()
        f = ScalarField(g, np.cos(T))
        v1 = sample_bicubic(f, np.array([0.5]), np.array([0.1]))
        v2 = sample_bicubic(f, np.array([0.5]), np.array([0.1 + 2 * math.pi]))
        assert v1.item() == pytest.approx(v2.item(), abs=1e-13)


class TestModelExhaustion:
    def test_constant_solution_all_deltas_zero(self):
        sched = ExhaustionSchedule((2.0, 3.0, 4.0), l_obs=1.0, nodes_per_unit=12,
                                   n_theta=32)
        result = run_exhaustion(sched, make_hyperbolic(1.0))
        assert result.met_tol is True and not result.diverged
        for fld in result.fields:
            # every ball starts from its constant datum, the exact solution
            assert np.all(fld.u.values == 0.5)
        deltas = [s.delta for s in result.steps[1:]]
        assert all(d <= 1e-12 for d in deltas)

    def test_one_ball_schedule_samples_nothing(self, monkeypatch):
        # a chart disc solves one ball: no delta, so no reference sample
        from lorentz_embed import exhaustion

        calls = []
        monkeypatch.setattr(exhaustion, "sample_bicubic",
                            lambda *a: calls.append(1) or sample_bicubic(*a))
        sched = ExhaustionSchedule((0.7,), l_obs=0.5, n_theta=16, n_r=24, kind="disc")
        result = run_exhaustion(sched, ConformalDiscMetric(1.0, 0.9, eps=0.3))
        assert calls == []
        assert result.limit_on_reference is None
        assert len(result.steps) == 1 and math.isnan(result.steps[0].delta)
        assert result.last_delta is None and result.met_tol is None
        assert not result.diverged

    def test_early_stop_on_tolerance(self):
        sched = ExhaustionSchedule((2.0, 3.0, 4.0, 5.0), l_obs=1.0, nodes_per_unit=12,
                                   n_theta=32, tol=1e-5)
        result = run_exhaustion(sched, make_hyperbolic(1.0))
        # constant family converges after the second ball already
        assert len(result.steps) == 2
        assert result.last_delta == result.steps[-1].delta <= 1e-5

    def test_increasing_deltas_diverge(self):
        # on a chart disc near its domain radius the deltas grow (1.3e-2,
        # 1.9e-2, 2.4e-2, 2.8e-2): the third increase ends the run, which
        # keeps every ball it solved
        sched = ExhaustionSchedule([0.5, 0.6, 0.7, 0.8, 0.9], 0.4, kind="disc", n_r=32,
                                   n_theta=32)
        result = run_exhaustion(sched, ConformalDiscMetric(1.0, 0.95, 0.3))
        deltas = [s.delta for s in result.steps[1:]]
        assert result.diverged and len(result.fields) == len(result.steps) == 5
        assert all(b > a for a, b in zip(deltas, deltas[1:]))
        assert result.last_delta == deltas[-1] and result.met_tol is False
        assert not result.deltas_monotone


@pytest.fixture(scope="module")
def pinched_sequence(pinched_metric):
    sched = ExhaustionSchedule((2.0, 3.0, 4.0, 5.0), l_obs=1.0, nodes_per_unit=16,
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
        assert all(f.iterations <= 8 for f in result.fields)

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
                sched = ExhaustionSchedule(radii, l_obs=1.0, nodes_per_unit=16,
                                           n_theta=32, tol=1e-16, boundary_rule=rule)
                limits[rule] = run_exhaustion(sched, pinched_metric).limit_on_reference
            gaps.append(float(np.max(np.abs(limits["standard"] - limits["midpoint"]))))
        assert gaps[1] <= 0.25 * gaps[0]
        assert gaps[1] <= 2e-3
