import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from oracles import bump_curvature, pinched_curvature

from lorentz_embed.metric import (
    CurvatureBounds,
    WarpedPolarMetric,
    jacobi_defect,
    make_hyperbolic,
    make_poincare,
    make_poincare_perturbed,
    make_radial_from_curvature,
)


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
        assert np.array_equal(m.f_prime(radii), CubicSpline(radii, fps)(radii))

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
        with pytest.raises(ValueError):
            CurvatureBounds(c1=1.0, c2=1.0, c2_of_radius=lambda l: 1.0, c3=-0.1)


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
            m = make_poincare(scale, 0.8)
            x = np.linspace(-0.5, 0.5, 9)
            assert np.allclose(m.curvature(x, 0.3 * x), -scale)

    def test_poincare_conformal_identity(self):
        # construction re-checks K = -lap(log psi)/(2 psi); a corrupted
        # curvature must be caught
        m = make_poincare(1.0, 0.8)
        with pytest.raises(ValueError, match="disagrees"):
            make_poincare(1.0, 0.8).__class__(
                psi=m.psi, psi_grad=m.psi_grad,
                psi_log_laplacian=m.psi_log_laplacian,
                curvature=lambda x, y: -2.0 * np.ones_like(np.asarray(x, float)),
                domain_radius=0.8,
            )

    def test_poincare_psi_bounded(self):
        m = make_poincare(1.0, 0.7)
        rho = np.linspace(0, 0.7, 100)
        p = m.psi(rho, np.zeros_like(rho))
        assert np.all(p >= 4.0 - 1e-12) and np.all(p <= 4.0 / (1 - 0.49) ** 2 + 1e-9)

    def test_perturbed_pinching(self):
        m = make_poincare_perturbed(1.0, 0.8, eps=0.2)
        x = np.linspace(-0.8, 0.8, 31)
        y = np.zeros_like(x)
        K = m.curvature(x, y)
        b = m.bounds
        assert np.all(K <= -b.c1 + 1e-12) and np.all(K >= -b.c2 - 1e-12)
        assert b.c3 > 0 and b.c4 > 0

    def test_perturbed_fd_curvature_identity(self):
        m = make_poincare_perturbed(1.0, 0.8, eps=0.15)
        xs = np.array([0.1, -0.3, 0.2])
        ys = np.array([0.0, 0.2, -0.4])
        h = 1e-4

        def lap_log_psi(x, y):
            v = lambda a, b: np.log(m.psi(a, b))
            return (v(x + h, y) + v(x - h, y) + v(x, y + h) + v(x, y - h)
                    - 4 * v(x, y)) / h**2

        K_fd = -lap_log_psi(xs, ys) / (2.0 * m.psi(xs, ys))
        assert np.allclose(K_fd, m.curvature(xs, ys), atol=1e-6)
