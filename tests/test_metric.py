import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from oracles import bump_curvature, pinched_curvature

from lorentz_embed.metric import (
    ConformalDiscMetric,
    CurvatureBounds,
    WarpedPolarMetric,
    jacobi_defect,
    make_hyperbolic,
    make_radial_from_curvature,
    make_radial_pinched,
)
from lorentz_embed.metric import _uniform_hermite
from lorentz_embed.grid import PolarGrid, chart_arrays
from lorentz_embed.geodesics import distance_conformal


def _zero(r):
    return np.zeros_like(np.asarray(r, dtype=float))


def constant_curvature(k):
    """K = k with its (vanishing) radial derivatives."""
    return (lambda r: np.full_like(np.asarray(r, dtype=float), k)), _zero, _zero


def flat_metric(r_max=10.0):
    return WarpedPolarMetric(
        f=lambda r: np.asarray(r, dtype=float),
        f_prime=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        curvature=_zero,
        curvature_prime=_zero,
        curvature_double_prime=_zero,
        r_max=r_max,
    )


class TestHyperbolic:
    def test_unit_model_values(self):
        m = make_hyperbolic(1.0)
        assert m.f(1.0) == pytest.approx(1.1752011936438014, abs=1e-12)
        assert np.all(m.curvature_at(np.linspace(0.1, 5, 40)) == -1.0)

    def test_scaled_model(self):
        m = make_hyperbolic(4.0)
        assert m.f(1.0) == pytest.approx(math.sinh(2.0) / 2.0, rel=1e-14)

    def test_small_radius_normalization(self):
        m = make_hyperbolic(4.0)
        r = np.array([1e-6, 1e-5, 1e-4])
        assert np.allclose(m.f(r) / r, 1.0, atol=1e-8)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            make_hyperbolic(0.0)
        with pytest.raises(ValueError):
            make_hyperbolic(-2.0)


class TestRadialFromCurvature:
    def test_recovers_sinh(self):
        K, Kp, Kpp = constant_curvature(-1.0)
        m = make_radial_from_curvature(K, 3.0, Kp, Kpp)
        assert abs(float(m.f(2.0)) - math.sinh(2.0)) <= 1e-8

    def test_step_halving_agreement(self):
        def K(r):
            r = np.asarray(r, dtype=float)
            return -(1.0 + 0.5 * r * r / (1.0 + r * r))

        def Kp(r):
            r = np.asarray(r, dtype=float)
            return -(r / (1.0 + r * r) ** 2)

        def Kpp(r):
            r = np.asarray(r, dtype=float)
            return -((1.0 - 3.0 * r * r) / (1.0 + r * r) ** 3)

        m1 = make_radial_from_curvature(K, 2.5, Kp, Kpp, ode_step=1e-3)
        m2 = make_radial_from_curvature(K, 2.5, Kp, Kpp, ode_step=5e-4)
        assert abs(float(m1.f(2.0)) - float(m2.f(2.0))) <= 1e-8

    def test_scaled_closed_form(self):
        K, Kp, Kpp = constant_curvature(-4.0)
        m = make_radial_from_curvature(K, 1.5, Kp, Kpp)
        assert float(m.f(1.0)) == pytest.approx(math.sinh(2.0) / 2.0, abs=1e-8)

    def test_rejects_nonnegative_curvature(self):
        def K(r):
            r = np.asarray(r, dtype=float)
            return r - 1.0  # crosses zero at r = 1

        with pytest.raises(ValueError, match="strictly negative"):
            make_radial_from_curvature(K, 2.0, np.ones_like, _zero)

    def test_jacobi_consistency(self, pinched_metric):
        assert jacobi_defect(pinched_metric) <= 1e-7

    def test_overflowing_warp_is_refused(self):
        # at K = -400 the warp f = sinh(20 r) / 20 overflows before r = 40, the
        # Jacobi defect reads NaN, and a "defect > tol" gate let the chart
        # build with f(39) = NaN
        K, Kp, Kpp = constant_curvature(-400.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="Jacobi consistency defect nan"):
                make_radial_from_curvature(K, 40.0, Kp, Kpp)

    def test_fine_ode_step_builds(self):
        # the defect's second difference does not divide the round-off of f
        # by the square of a shrinking step: at ode_step 1e-4 it used to read
        # 3.2e-7 and refuse a chart whose f is accurate to about 1e-14
        K, Kp, Kpp = pinched_curvature()
        coarse = make_radial_from_curvature(K, 6.5, Kp, Kpp)
        fine = make_radial_from_curvature(K, 6.5, Kp, Kpp, ode_step=1e-4)
        assert jacobi_defect(fine) <= 1e-8
        assert jacobi_defect(coarse) <= 1e-8
        r = np.linspace(0.0, 6.5, 1001)
        assert np.max(np.abs(fine.f(r) - coarse.f(r)) / np.maximum(1.0, coarse.f(r))) <= 1e-11

    def test_short_chart_keeps_five_samples(self):
        # 11 samples: the full spacing would leave three, too few for the stencil
        K, Kp, Kpp = pinched_curvature()
        m = make_radial_from_curvature(K, 0.01, Kp, Kpp)
        assert m.sample_radii.size == 11 and jacobi_defect(m) <= 1e-7

    @pytest.mark.parametrize("curvature, r_max", [
        (pinched_curvature(), 6.5),
        (bump_curvature(), 3.0),
    ], ids=["pinched", "bump"])
    def test_samples_match_array_rk4(self, curvature, r_max):
        # the stage-by-stage RK4 on 2-vectors with K evaluated per stage,
        # which the float loop over vectorized K samples must reproduce
        K, Kp, Kpp = curvature
        m = make_radial_from_curvature(K, r_max, Kp, Kpp)
        n = max(int(math.ceil(r_max / 1e-3)), 8)
        h = r_max / n
        radii = np.linspace(0.0, r_max, n + 1)

        def rhs(r, y):
            return np.array([y[1], -float(K(r)) * y[0]])

        fs, fps = np.empty(n + 1), np.empty(n + 1)
        fs[0], fps[0] = 0.0, 1.0
        y = np.array([0.0, 1.0])
        for i in range(n):
            r = radii[i]
            k1 = rhs(r, y)
            k2 = rhs(r + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(r + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(r + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            fs[i + 1], fps[i + 1] = y
        assert np.array_equal(m.sample_radii, radii)
        assert np.array_equal(m.sample_f, fs)
        # at a knot the Hermite piece of the cell below may be evaluated at
        # t = 1 - ulp, so f' reproduces the RK4 samples to rounding
        assert np.max(np.abs(m.f_prime(radii) - fps) / np.abs(fps)) <= 1e-15

    @pytest.mark.parametrize("curvature, r_max", [
        (pinched_curvature(), 6.5),
        (bump_curvature(), 3.0),
    ], ids=["pinched", "bump"])
    def test_hermite_matches_cubic_spline(self, curvature, r_max):
        # f and f' are Hermite pieces with knot slopes f' and f'' = -K f; the
        # not-a-knot CubicSplines of the samples that backed them before
        # agree to rounding away from the ends, and to the splines' own
        # O(h^4) end-condition error in the first and last cells
        K, Kp, Kpp = curvature
        m = make_radial_from_curvature(K, r_max, Kp, Kpp)
        radii = m.sample_radii
        h = radii[1] - radii[0]
        fps = m.f_prime(radii)
        cells = {"interior": radii[5:-6], "all": radii[:-1]}
        bounds = {"interior": 5e-15, "all": 5e-13}
        for fn, samples in ((m.f, m.sample_f), (m.f_prime, fps)):
            spline = CubicSpline(radii, samples)
            for part, left in cells.items():
                r = (left[:, None] + h * np.array([0.13, 0.5, 0.77])).ravel()
                ref = spline(r)
                err = np.abs(fn(r) - ref) / np.maximum(1.0, np.abs(ref))
                assert err.max() <= bounds[part], (part, err.max())

    def test_hermite_index_matches_clip(self):
        # the knot index is clamped with np.maximum and np.minimum, not
        # np.clip; both clamps stay, so every radius, below 0 and beyond the
        # last knot included, takes the piece and the bits np.clip gives
        rng = np.random.default_rng(7)
        y, dy, h = rng.standard_normal(9), rng.standard_normal(9), 0.25
        y0, y1, d0, d1 = y[:-1], y[1:], h * dy[:-1], h * dy[1:]
        c2 = 3.0 * (y1 - y0) - 2.0 * d0 - d1
        c3 = 2.0 * (y0 - y1) + d0 + d1

        def clip_form(r):
            x = np.asarray(r, dtype=float) / h
            i = np.clip(x.astype(np.intp), 0, y0.size - 1)
            t = x - i
            return i, ((c3[i] * t + c2[i]) * t + d0[i]) * t + y0[i]

        evaluate = _uniform_hermite(y, dy, h)
        r = np.array([-3.0, -h, -0.1, -0.0, 0.0, 0.3, h, 1.0, 1.9, 2.0, 2.1, 7.5])
        index, ref = clip_form(r)
        assert index.tolist() == [0, 0, 0, 0, 0, 1, 1, 4, 7, 7, 7, 7]
        assert np.array_equal(evaluate(r), ref)
        for rk, vk in zip(r, ref):
            assert evaluate(float(rk)) == vk

    def test_curvature_round_trip(self, pinched_metric):
        # recover K = -f''/f from sampled f alone, five-point second difference
        r = np.linspace(0.2, 5.0, 4801)
        h = r[1] - r[0]
        fv = pinched_metric.f(r)
        fpp = (-fv[4:] + 16 * fv[3:-1] - 30 * fv[2:-2] + 16 * fv[1:-3] - fv[:-4]) / (12 * h * h)
        K_rec = -fpp / fv[2:-2]
        K_true = pinched_metric.curvature_at(r[2:-2])
        assert np.max(np.abs(K_rec - K_true)) <= 1e-6
        m2 = make_radial_from_curvature(
            pinched_metric.curvature, 6.0, pinched_metric.curvature_prime,
            pinched_metric.curvature_double_prime, ode_step=2e-4)
        rr = np.linspace(0.1, 5.5, 700)
        assert np.max(np.abs(m2.f(rr) - pinched_metric.f(rr))) <= 1e-6

    def test_pinched_factory_is_the_test_family(self, pinched_metric):
        # base = amp = 1 multiplies by 1.0, which is exact: the oracle family's
        # K bit for bit, and so the same integrated f
        m = make_radial_pinched(1.0, 1.0, 9.5)
        r = pinched_metric.sample_radii
        assert np.array_equal(m.sample_radii, r)
        for name in ("f", "curvature", "curvature_prime", "curvature_double_prime"):
            assert np.array_equal(getattr(m, name)(r), getattr(pinched_metric, name)(r)), name
        for name in ("c1", "c2"):
            assert getattr(m.bounds, name) == getattr(pinched_metric.bounds, name), name
        for center, r0 in (((0.5, 0.0), 1.0), ((2.0, 1.0), 1.0), ((4.0, 3.0), 0.5)):
            assert (m.log_curvature_bounds(center, r0)
                    == pinched_metric.log_curvature_bounds(center, r0)), center


class TestCurvatureFdRatio:
    @pytest.mark.parametrize("factory", [
        lambda: make_hyperbolic(1.0),
        lambda: make_radial_from_curvature(pinched_curvature()[0], 6.0,
                                           *pinched_curvature()[1:]),
    ])
    def test_second_order_ratio(self, factory):
        m = factory()
        r = np.linspace(0.5, 3.0, 11)

        def fd_curvature(h):
            fpp = (m.f(r + h) - 2.0 * m.f(r) + m.f(r - h)) / h**2
            return -fpp / m.f(r)

        K_true = m.curvature_at(r)
        e1 = np.max(np.abs(fd_curvature(2e-2) - K_true))
        e2 = np.max(np.abs(fd_curvature(1e-2) - K_true))
        assert 3.5 <= e1 / e2 <= 4.5


class TestBoundsCertificate:
    @given(l=st.floats(min_value=0.05, max_value=6.0))
    @settings(max_examples=40, deadline=None)
    def test_pinched_certificate_never_violated(self, l, pinched_metric):
        b = pinched_metric.bounds
        r = np.linspace(0.0, min(l, pinched_metric.r_max), 257)
        K = pinched_metric.curvature_at(r)
        assert np.all(K <= -b.c1 + 1e-12)
        assert np.all(K >= -b.c2 - 1e-12)
        assert np.max(-K) <= b.c2_of_radius(l) + 1e-12

    def test_c2_of_radius_nondecreasing(self, pinched_metric):
        ls = np.linspace(0.2, 6.0, 60)
        vals = [pinched_metric.bounds.c2_of_radius(l) for l in ls]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
        # monotone family: the ball max is attained on the rim
        assert vals[-1] == pytest.approx(-float(pinched_metric.curvature(6.0)), abs=1e-10)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            CurvatureBounds(c1=2.0, c2=1.0, c2_of_radius=lambda l: 1.0)


class TestChristoffels:
    # christoffel_components returns Gamma^1_11, Gamma^1_12, Gamma^1_22,
    # Gamma^2_11, Gamma^2_12, Gamma^2_22; a warped chart has two nonzero:
    # Gamma^r_tt = -f f' and Gamma^t_rt = f'/f.
    def test_hyperbolic_values(self):
        gam = make_hyperbolic(1.0).christoffel_components(1.0, 0.0)
        assert float(gam[4]) == pytest.approx(1.3130352854993312, abs=1e-12)
        assert float(gam[2]) == pytest.approx(-math.sinh(1.0) * math.cosh(1.0), rel=1e-13)
        assert all(float(gam[k]) == 0.0 for k in (0, 1, 3, 5))

    def test_flat_limit(self):
        gam = flat_metric().christoffel_components(0.7, 0.0)
        assert float(gam[4]) == pytest.approx(1.0 / 0.7, rel=1e-14)
        assert float(gam[2]) == pytest.approx(-0.7, rel=1e-14)


class TestConformalCharts:
    def test_poincare_curvature_constant(self):
        for scale in (0.25, 1.0, 4.0):
            m = ConformalDiscMetric(scale, 0.8)
            x = np.linspace(-0.5, 0.5, 9)
            assert np.allclose(m.curvature(x, 0.3 * x), -scale)

    def test_poincare_conformal_identity(self):
        # K = -lap(log psi)/(2 psi), with lap(log psi) = 8/(1 - r^2)^2 since
        # the added exponent eps x is harmonic, on a dense chart sample
        rho = np.linspace(0.0, 0.95, 120)[:, None]
        th = np.linspace(0.0, 2.0 * math.pi, 120, endpoint=False)
        x, y = rho * np.cos(th), rho * np.sin(th)
        lap_log_psi = 8.0 / (1.0 - x * x - y * y) ** 2
        for eps in (0.0, 0.15, 0.3, -0.5, 1.0):
            for scale in (0.25, 1.0, 4.0):
                m = ConformalDiscMetric(scale, 0.95, eps)
                k = m.curvature(x, y)
                err = np.abs(k + lap_log_psi / (2.0 * m.psi(x, y))) / np.maximum(1.0, np.abs(k))
                assert err.max() <= 1e-8, (eps, scale)

    def test_poincare_psi_bounded(self):
        m = ConformalDiscMetric(1.0, 0.7)
        rho = np.linspace(0, 0.7, 100)
        p = m.psi(rho, np.zeros_like(rho))
        assert np.all(p >= 4.0 - 1e-12) and np.all(p <= 4.0 / (1 - 0.49) ** 2 + 1e-9)

    def test_perturbed_pinching(self):
        m = ConformalDiscMetric(1.0, 0.8, eps=0.2)
        x = np.linspace(-0.8, 0.8, 31)
        y = np.zeros_like(x)
        K = m.curvature(x, y)
        b = m.bounds
        assert np.all(K <= -b.c1 + 1e-12) and np.all(K >= -b.c2 - 1e-12)
        c3, c4 = m.log_bounds
        assert c3 > 0 and c4 > 0

    def test_perturbed_fd_curvature_identity(self):
        m = ConformalDiscMetric(1.0, 0.8, eps=0.15)
        xs = np.array([0.1, -0.3, 0.2])
        ys = np.array([0.0, 0.2, -0.4])
        h = 1e-4

        def lap_log_psi(x, y):
            v = lambda a, b: np.log(m.psi(a, b))
            return (v(x + h, y) + v(x - h, y) + v(x, y + h) + v(x, y - h)
                    - 4 * v(x, y)) / h**2

        K_fd = -lap_log_psi(xs, ys) / (2.0 * m.psi(xs, ys))
        assert np.allclose(K_fd, m.curvature(xs, ys), atol=1e-6)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestPoincareIsPerturbedAtZero:
    """The Poincare chart is the perturbed chart at its default eps = 0, bit
    for bit, where its distance bounds are the closed-form distances."""

    @pytest.mark.parametrize("scale", [0.25, 1.0, 4.0])
    def test_same_chart_bits(self, scale):
        m, p = ConformalDiscMetric(scale, 0.9), ConformalDiscMetric(scale, 0.9, 0.0)
        grid = PolarGrid(24, 16, 0.85, kind="disc")
        rho, th = grid.mesh()
        x, y = rho * np.cos(th), rho * np.sin(th)
        assert _same_bits(m.psi(x, y), p.psi(x, y))
        assert all(map(_same_bits, m.psi_grad(x, y), p.psi_grad(x, y)))
        assert _same_bits(m.curvature(x, y), p.curvature(x, y))
        ours, theirs = chart_arrays(m, grid), chart_arrays(p, grid)
        for name in ("g11", "g22", "K", "gamma1_11", "gamma1_12", "gamma1_22",
                     "gamma2_11", "gamma2_12", "gamma2_22"):
            assert _same_bits(getattr(ours, name), getattr(theirs, name)), name
        for b in (m.bounds, p.bounds):
            assert (b.c1, b.c2) == (scale, scale)
            assert [b.c2_of_radius(r) for r in (0.1, 0.5, 2.0)] == [scale] * 3
        assert m.log_bounds == p.log_bounds == (0.0, 0.0)
        # exact distances: the rim bounds meet, and a distance field is the
        # pair distance, shot nowhere
        lower, upper = p.rim_distance(rho, 0.85)
        assert _same_bits(lower, upper)
        assert _same_bits(p.distance_field(grid, (5, 3)),
                          p.pair_distance(x[5, 3], y[5, 3], x, y))

    @pytest.mark.parametrize("scale", [0.25, 1.0, 4.0])
    def test_textbook_formulas(self, scale):
        # the closed forms of the Poincare disc, in their usual arithmetic
        rng = np.random.default_rng(0)
        rho, th = 0.9 * np.sqrt(rng.random(4096)), 2.0 * math.pi * rng.random(4096)
        x, y = rho * np.cos(th), rho * np.sin(th)
        m = ConformalDiscMetric(scale, 0.9)
        q = 1.0 - x * x - y * y
        assert _same_bits(m.psi(x, y), (4.0 / scale) / q**2)
        px, py = m.psi_grad(x, y)
        assert _same_bits(px, (16.0 / scale) * x / q**3)
        assert _same_bits(py, (16.0 / scale) * y / q**3)
        assert _same_bits(m.curvature(x, y), np.full_like(x, -scale))

    @pytest.mark.parametrize("scale", [0.25, 1.0, 4.0])
    def test_ball_max_is_exactly_the_scale(self, scale):
        m = ConformalDiscMetric(scale, 0.9)
        assert m.ball_max_neg_curvature((0.4, 1.0), 0.5) == scale
        assert m.ball_max_neg_curvature((0.4, 1.0), 1e-9) == scale


class TestChartAnswers:
    """The geometry each chart family answers for the estimate audits."""

    @pytest.mark.parametrize("scale", [0.25, 1.0, 4.0])
    def test_poincare_rim_distance_is_the_pair_distance_along_the_ray(self, scale):
        # the probe-ball containment test reads the rim bounds; at eps = 0
        # both are the distance to the rim point on the probe's ray
        m = ConformalDiscMetric(scale, 0.995)
        rho = np.linspace(0.0, 0.98, 100)
        lower, upper = m.rim_distance(rho, 0.99)
        assert np.array_equal(lower, upper)
        for theta in np.linspace(0.0, 2.0 * math.pi, 7):
            c, s = math.cos(theta), math.sin(theta)
            pair = m.pair_distance(rho * c, rho * s, 0.99 * c, 0.99 * s)
            assert np.all(np.abs(lower - pair) <= 1e-12 * pair)

    def test_warped_rim_distance_is_the_radius_gap(self, pinched_metric):
        r = np.linspace(0.0, 4.0, 9)
        for m in (make_hyperbolic(1.0), pinched_metric):
            lower, upper = m.rim_distance(r, 4.0)
            assert np.array_equal(lower, 4.0 - r) and np.array_equal(upper, 4.0 - r)
            assert m.rim_distance(2.5, 4.0) == (1.5, 1.5)

    @pytest.mark.parametrize("eps", [0.3, -0.5])
    def test_conformal_rim_bounds_bracket_the_shooting_distance(self, eps):
        # the least shooting distance from a source to 128 rim points lies
        # between the rim bounds; the sources sit on rays through rim points.
        # 96 RK4 steps leave an error near 1e-9, far inside the brackets
        R = 0.8
        m = ConformalDiscMetric(1.0, 0.9, eps)
        th = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
        for rho, k in ((0.0, 0), (0.3, 16), (0.6, 0), (0.6, 64)):
            source = (rho * math.cos(th[k]), rho * math.sin(th[k]))
            least = float(distance_conformal(m, source, R * np.cos(th), R * np.sin(th),
                                             n_steps=96).min())
            lower, upper = m.rim_distance(rho, R)
            assert lower <= least <= upper, (rho, k)

    def test_pair_distance_bounds_the_shooting_distance(self):
        m = ConformalDiscMetric(1.0, 0.9, 0.3)
        rng = np.random.default_rng(3)
        rho, th = 0.85 * np.sqrt(rng.random(40)), 2.0 * math.pi * rng.random(40)
        x, y = rho * np.cos(th), rho * np.sin(th)
        shot = distance_conformal(m, (0.4, -0.3), x, y, n_steps=96)
        assert np.all(m.pair_distance(0.4, -0.3, x, y) <= shot)

    def test_conformal_log_curvature_bounds_are_chart_wide(self):
        m = ConformalDiscMetric(1.0, 0.9, 0.3)
        assert m.log_curvature_bounds((0.3, 1.0), 0.5) == m.log_bounds
        assert m.log_curvature_bounds((0.7, 4.0), 0.1) == m.log_bounds

    def test_warped_ball_must_stay_in_the_chart(self, pinched_metric):
        with pytest.raises(ValueError, match="leaves the chart"):
            pinched_metric.ball_max_neg_curvature((pinched_metric.r_max - 0.5, 0.0), 1.0)


class TestConformalBallMax:
    """The conformal chart's closed-form ball maximum of -K is a bound."""

    @pytest.mark.parametrize("eps", [0.3, 1.0, -0.5])
    def test_closed_form_bounds_the_brute_force_max(self, eps):
        # on random balls, at least the max of -K over a dense polar sample of
        # the disc it names (|p - c| <= r0 / sqrt(min psi) within |p| <= R),
        # and at most the chart-wide c2
        R = 0.8
        m = ConformalDiscMetric(1.0, R, eps)
        # the disc holds the ball only if no point of the unit disc has a smaller psi
        rho = np.linspace(0.0, 0.999, 1000)[:, None]
        th = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        sampled = m.psi(rho * np.cos(th), rho * np.sin(th)).min()
        assert m._psi_min() <= sampled <= m._psi_min() * (1.0 + 1e-5)
        rng = np.random.default_rng(7)
        s = np.linspace(0.0, 1.0, 200)[:, None]
        phi = np.linspace(0.0, 2.0 * math.pi, 400, endpoint=False)
        for _ in range(40):
            rho_c, th_c, r0 = R * rng.random(), 2.0 * math.pi * rng.random(), 2.0 * rng.random()
            closed = m.ball_max_neg_curvature((rho_c, th_c), r0)
            rho_m = r0 / math.sqrt(m._psi_min())
            x = rho_c * math.cos(th_c) + rho_m * s * np.cos(phi)
            y = rho_c * math.sin(th_c) + rho_m * s * np.sin(phi)
            inside = np.hypot(x, y) <= R
            brute = float(np.max(-m.curvature(x[inside], y[inside])))
            assert brute <= closed <= m.bounds.c2, (rho_c, th_c, r0)


class TestConformalCertificate:
    """The chart derives c1..c4 from its parameters, and refuses non-finite ones."""

    # (scale, R, eps) and c4 as the 80 x 80 chart-polar sample of earlier
    # versions read it
    SAMPLED_C4 = [((1.0, 0.9, 0.3), 0.06392624354025293),
                  ((1.0, 0.9, 1.0), 0.2971999917761769),
                  ((1.0, 0.99, 0.3), 0.06392537459633305),
                  ((4.0, 0.9, -0.5), 0.4630968750919507)]

    @pytest.mark.parametrize("params, sampled", SAMPLED_C4)
    def test_c4_closed_form_against_a_dense_sample(self, params, sampled):
        # the largest eigenvalue |eps| |grad phi| / psi of g^{-1} Hess log(-K)
        # on a 1200 x 1200 chart-polar sample; the sample's own error near the
        # maximum is a few 1e-7, relative
        m = ConformalDiscMetric(*params)
        rho = np.linspace(0.0, params[1], 1200)[:, None]
        th = np.linspace(0.0, 2.0 * math.pi, 1200, endpoint=False)
        x, y = rho * np.cos(th), rho * np.sin(th)
        phx, phy = m.phi_grad(x, y)
        dense = float(np.max(abs(params[2]) * np.hypot(phx, phy) / m.psi(x, y)))
        c4 = m.log_bounds[1]
        assert abs(c4 - dense) <= 1e-6 * dense
        assert c4 >= sampled

    def test_c3_c4_vanish_at_eps_zero(self):
        assert ConformalDiscMetric(2.0, 0.9).log_bounds == (0.0, 0.0)

    @pytest.mark.parametrize("eps", [800.0, -800.0, 1e6])
    def test_constants_beyond_the_float_range_are_refused(self, eps):
        # at eps 800 min psi underflows to 0 (c3 divided by it) and e^{|eps| R}
        # overflows (c2)
        with pytest.raises(ValueError, match="not all positive finite floats"):
            ConformalDiscMetric(1.0, 0.9, eps)

    @pytest.mark.parametrize("eps", [389.3, 450.0, 700.0, -700.0])
    def test_metric_beyond_the_float_range_is_refused(self, eps):
        # c1..c4 are finite, but g11 g22 = psi^2 rho^2 on the rim R = 0.9,
        # psi = 4 e^{|eps| R} / (1 - R^2)^2, overflows from |eps| near 389.2
        with pytest.raises(ValueError, match=r"psi\^2 rho\^2 beyond the float range"):
            ConformalDiscMetric(1.0, 0.9, eps)
        edge = ConformalDiscMetric(1.0, 0.9, math.copysign(389.0, eps))
        rho = np.array([0.9])
        g11, g22 = edge.metric_components(rho, np.array([0.0 if eps > 0 else math.pi]))
        assert np.isfinite(g11 * g22).all()
