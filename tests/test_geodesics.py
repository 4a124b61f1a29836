import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from oracles import _illinois, distance_polar, hyperbolic_distance, poincare_distance
from test_metric import flat_metric

from lorentz_embed.metric import ConformalDiscMetric, make_hyperbolic
from lorentz_embed.grid import PolarGrid
from lorentz_embed import geodesics
from lorentz_embed.estimates import distance_field
from lorentz_embed.geodesics import (
    _row_lengths,
    _sweep_and_length,
    distance_conformal,
    warped_distance_field,
    wrap_angle_difference,
)


class TestWrap:
    def test_range(self):
        d = wrap_angle_difference(np.array([-7.0, -0.1, 0.0, 3.2, 9.0]))
        assert np.all((0 <= d) & (d <= math.pi))
        assert wrap_angle_difference(2 * math.pi) == pytest.approx(0.0, abs=1e-12)


class TestPolarDistance:
    @pytest.mark.parametrize("scale", [0.25, 1.0, 4.0])
    def test_matches_hyperbolic_law_of_cosines(self, scale):
        m = make_hyperbolic(scale)
        g = PolarGrid(40, 48, 3.0)
        R, T = g.mesh()
        for probe in ((0, 0), (13, 9), (39, 47)):
            d = warped_distance_field(m, g, probe)
            d0 = hyperbolic_distance(scale, g.q1[probe[0]], g.q2[probe[1]], R, T)
            assert np.max(np.abs(d - d0)) <= 1e-8

    def test_flat_law_of_cosines(self):
        m = flat_metric()
        g = PolarGrid(32, 32, 2.0)
        R, T = g.mesh()
        src = (g.q1[10], g.q2[7])
        d = distance_polar(m, src, R, T)
        d0 = np.sqrt(np.maximum(
            src[0] ** 2 + R**2 - 2 * src[0] * R * np.cos(T - src[1]), 0.0))
        assert np.max(np.abs(d - d0)) <= 1e-9

    @given(
        r1=st.floats(min_value=0.01, max_value=2.8),
        r2=st.floats(min_value=0.01, max_value=2.8),
        t1=st.floats(min_value=0.0, max_value=2 * math.pi),
        t2=st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_pairs_match_closed_form(self, r1, r2, t1, t2):
        m = make_hyperbolic(1.0)
        d = distance_polar(m, (r1, t1), np.array([r2]), np.array([t2]))
        d0 = hyperbolic_distance(1.0, r1, t1, r2, t2)
        assert abs(float(d[0]) - float(d0)) <= 1e-8

    @given(
        r1=st.floats(min_value=0.01, max_value=2.8),
        r2=st.floats(min_value=0.01, max_value=2.8),
        t1=st.floats(min_value=0.0, max_value=2 * math.pi),
        t2=st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_pairs_row_path_matches_closed_form(self, r1, r2, t1, t2):
        m = make_hyperbolic(1.0)
        dth = float(wrap_angle_difference(t2 - t1))
        assume(not is_radial_or_antipodal(dth))
        d = _row_lengths(m, np.array([min(r1, r2)]), np.array([max(r1, r2)]),
                         np.array([[dth]]))
        d0 = hyperbolic_distance(1.0, r1, t1, r2, t2)
        assert abs(float(d[0, 0]) - float(d0)) <= 1e-8

    def test_radial_and_antipodal_exact(self):
        m = make_hyperbolic(1.0)
        src = (0.75, 0.0)
        r = np.array([0.2, 1.4])
        d_radial = distance_polar(m, src, r, np.zeros(2))
        assert np.allclose(d_radial, np.abs(r - 0.75), atol=1e-14)
        d_anti = distance_polar(m, src, r, np.full(2, math.pi))
        assert np.allclose(d_anti, r + 0.75, atol=1e-14)

    def test_symmetry_on_pinched_family(self, pinched_metric):
        g = PolarGrid(24, 32, 3.0)
        a, b = (4, 3), (17, 21)
        d_ab = warped_distance_field(pinched_metric, g, a)[b]
        d_ba = warped_distance_field(pinched_metric, g, b)[a]
        assert d_ab == pytest.approx(d_ba, abs=1e-9)

    def test_triangle_inequality_spot_check(self, pinched_metric):
        g = PolarGrid(16, 16, 3.0)
        nodes = [(2, 1), (8, 5), (13, 12)]
        d01 = warped_distance_field(pinched_metric, g, nodes[0])[nodes[1]]
        d12 = warped_distance_field(pinched_metric, g, nodes[1])[nodes[2]]
        d02 = warped_distance_field(pinched_metric, g, nodes[0])[nodes[2]]
        assert d02 <= d01 + d12 + 1e-10


def is_radial_or_antipodal(dth):
    """The columns warped_distance_field takes in closed form, not by _row_lengths."""
    return (dth < 1e-13) | (math.pi - dth < 1e-13)


def row_path(metric, source, r_t, th):
    """_row_lengths on targets at radii r_t (rows) and angles th (columns)."""
    r_s = float(source[0])
    r_t = np.atleast_1d(np.asarray(r_t, float))
    target = wrap_angle_difference(np.atleast_1d(th) - source[1])
    assert not np.any(is_radial_or_antipodal(target))
    return _row_lengths(metric, np.minimum(r_t, r_s), np.maximum(r_t, r_s),
                        np.broadcast_to(target, (r_t.size, target.size)))


def bisection_reference(metric, source, r_t, th_t, iters=200):
    """Clairaut distances with a fixed-step bisection on the turning radius."""
    r_s = float(source[0])
    r_t, th_t = np.broadcast_arrays(np.asarray(r_t, float), np.asarray(th_t, float))
    shape = r_t.shape
    target = wrap_angle_difference(th_t.ravel() - source[1])
    ra = np.minimum(r_t.ravel(), r_s)
    rb = np.maximum(r_t.ravel(), r_s)
    through = target > _sweep_and_length(metric, ra, rb)[0]
    sign = np.where(through, 1.0, -1.0)
    lo, hi = np.full_like(ra, 1e-10), ra

    def total(rho):
        s_b, j_b = _sweep_and_length(metric, rho, rb)
        s_a, j_a = _sweep_and_length(metric, rho, ra)
        return s_b + sign * s_a, j_b + sign * j_a

    for _ in range(8):
        short = through & (total(lo)[0] < target)
        lo = np.where(short, lo * 1e-2, lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        tot = total(mid)[0]
        go_up = np.where(through, tot > target, tot < target)
        lo = np.where(go_up, mid, lo)
        hi = np.where(go_up, hi, mid)
    # the length is smooth in the sweep; interpolate between the ends
    (s_lo, d_lo), (s_hi, d_hi) = total(lo), total(hi)
    span = np.where(s_hi == s_lo, 1.0, s_hi - s_lo)
    frac = np.clip((target - s_lo) / span, 0.0, 1.0)
    return (d_lo + frac * (d_hi - d_lo)).reshape(shape)


@pytest.fixture(params=["hyperbolic", "pinched"])
def warped_metric(request, pinched_metric):
    return make_hyperbolic(1.0) if request.param == "hyperbolic" else pinched_metric


class TestTurningRadiusSolve:
    """The Illinois oracle and the row tables against a 200-step bisection."""

    @pytest.mark.parametrize("r_t", [0.35, 1.9])
    def test_targets_around_branch_split(self, warped_metric, r_t):
        r_s = 0.8
        split = _sweep_and_length(warped_metric, min(r_s, r_t), max(r_s, r_t))[0]
        th = split + np.array([-1e-6, -1e-9, -1e-12, 1e-12, 1e-9, 1e-6])
        d = distance_polar(warped_metric, (r_s, 0.0), r_t, th)
        d_ref = bisection_reference(warped_metric, (r_s, 0.0), r_t, th)
        assert np.max(np.abs(d - d_ref)) <= 1e-10

    @pytest.mark.parametrize("r_t", [0.35, 1.9])
    def test_row_path_targets_around_branch_split(self, warped_metric, r_t):
        r_s = 0.8
        split = _sweep_and_length(warped_metric, min(r_s, r_t), max(r_s, r_t))[0]
        th = split + np.array([-1e-6, -1e-9, -1e-12, 1e-12, 1e-9, 1e-6])
        d = row_path(warped_metric, (r_s, 0.0), r_t, th)[0]
        d_ref = bisection_reference(warped_metric, (r_s, 0.0), r_t, th)
        assert np.max(np.abs(d - d_ref)) <= 1e-10

    @pytest.mark.parametrize("r_t", [0.35, 0.8, 1.9])
    def test_branch_split_matches_closed_form(self, r_t):
        # targets just past the grazing geodesic turn just inside r_a
        m = make_hyperbolic(1.0)
        r_s = 0.8
        split = _sweep_and_length(m, min(r_s, r_t), max(r_s, r_t))[0]
        th = split + np.array([1e-9, 1e-7, 1e-6, 3e-6])
        d = distance_polar(m, (r_s, 0.0), r_t, th)
        assert np.max(np.abs(d - hyperbolic_distance(1.0, r_s, 0.0, r_t, th))) <= 1e-8

    def test_near_antipodal_and_near_radial(self, warped_metric):
        r = np.array([0.05, 0.7, 1.3, 2.6])
        th = np.array([math.pi - 1e-9, 1e-12])[:, None]
        for r_s in (0.1, 1.2):
            d = distance_polar(warped_metric, (r_s, 0.0), r, th)
            d_ref = bisection_reference(warped_metric, (r_s, 0.0), r, th)
            assert np.max(np.abs(d - d_ref)) <= 1e-10

    def test_row_path_near_antipodal_and_near_radial(self, warped_metric):
        r = np.array([0.05, 0.7, 1.3, 2.6])
        th = np.array([math.pi - 1e-9, 1e-12])
        for r_s in (0.1, 1.2):
            d = row_path(warped_metric, (r_s, 0.0), r, th)
            d_ref = bisection_reference(warped_metric, (r_s, 0.0), r[:, None], th)
            assert np.max(np.abs(d - d_ref)) <= 1e-10

    def test_source_on_innermost_ring(self, warped_metric):
        g = PolarGrid(24, 32, 3.0)
        R, T = g.mesh()
        d = warped_distance_field(warped_metric, g, (0, 5))
        d_ref = bisection_reference(warped_metric, (g.q1[0], g.q2[5]), R, T)
        assert np.max(np.abs(d - d_ref)) <= 1e-10

    def test_field_mirror_symmetric_about_source(self, warped_metric):
        g = PolarGrid(12, 16, 3.0)
        k = np.arange(g.n2)
        for i, j in ((0, 0), (5, 3), (11, 15)):
            d = warped_distance_field(warped_metric, g, (i, j))
            assert np.array_equal(d[:, (j + k) % g.n2], d[:, (j - k) % g.n2])

    def test_sweep_budget(self, warped_metric, monkeypatch):
        calls = []

        def counted(metric, rho, R):
            calls.append(rho)
            return _sweep_and_length(metric, rho, R)

        monkeypatch.setattr(oracles, "_sweep_and_length", counted)
        for r_s, r_t, th in ((0.8, 0.35, 1e-12), (0.1, 2.6, math.pi - 1e-9),
                             (0.03, 0.03, 2.0), (1.2, 2.9, 0.4)):
            calls.clear()
            distance_polar(warped_metric, (r_s, 0.0), r_t, th)
            # the grazing geodesic, then two sweeps per bracket evaluation
            assert len(calls) <= 1 + 2 * 60

    @pytest.mark.parametrize("polish_tol", [geodesics._POLISH_TOL, -1.0])
    def test_row_arcs_budget(self, warped_metric, monkeypatch, polish_tol):
        # the table, two polish steps and, for targets the polish leaves
        # above tolerance, 52 halvings and the length at the midpoint
        calls = []
        row_arcs = geodesics._row_arcs

        def counted(metric, ra, rb, psi):
            calls.append(psi)
            return row_arcs(metric, ra, rb, psi)

        monkeypatch.setattr(geodesics, "_row_arcs", counted)
        monkeypatch.setattr(geodesics, "_POLISH_TOL", polish_tol)
        g = PolarGrid(12, 16, 3.0)
        for r_s, r_t, th in ((0.8, 0.35, 1e-12), (0.1, 2.6, math.pi - 1e-9),
                             (0.03, 0.03, 2.0), (1.2, 2.9, 0.4),
                             (g.q1[3], g.q1[:6], g.q2[1:8])):
            calls.clear()
            row_path(warped_metric, (r_s, 0.0), r_t, th)
            assert len(calls) <= 56

    def test_safeguard_keeps_bisection_accuracy(self):
        # a ninth-order root stalls plain Illinois; the budget-aware
        # bisection must still leave every bracket as narrow as 52 halvings
        root = np.array([0.3, 0.123456789, 0.9, 1e-3])
        evals = np.zeros(root.size, dtype=int)

        def residual(k, x):
            evals[k] += 1
            return (x - root[k]) ** 9, x

        a, b = np.zeros(root.size), np.ones(root.size)
        x = _illinois(residual, a, b, (a - root) ** 9, (b - root) ** 9, a, b,
                      np.zeros(root.size), np.full(root.size, 59))
        assert np.all(evals <= 59)
        assert np.max(np.abs(x - root)) <= 2.0**-52


class TestRowTables:
    """Fields from the per-row sweep tables against the Illinois oracle and closed forms."""

    @pytest.fixture(params=["h0.25", "h1", "h4", "pinched"])
    def metric_and_scale(self, request, pinched_metric):
        if request.param == "pinched":
            return pinched_metric, None
        scale = float(request.param[1:])
        return make_hyperbolic(scale), scale

    def test_matches_illinois_and_closed_form(self, metric_and_scale):
        m, scale = metric_and_scale
        g = PolarGrid(40, 48, 3.0)
        R, T = g.mesh()
        # innermost, middle and top rows; each field holds its same-radius row
        for probe in ((0, 0), (20, 5), (39, 47)):
            d = warped_distance_field(m, g, probe)
            src = (g.q1[probe[0]], g.q2[probe[1]])
            for i in range(g.n1):
                ref = distance_polar(m, src, g.q1[i], g.q2)
                assert np.max(np.abs(d[i] - ref) / np.maximum(1.0, ref)) <= 1e-12
            if scale is not None:
                d0 = hyperbolic_distance(scale, src[0], src[1], R, T)
                assert np.max(np.abs(d - d0) / np.maximum(1.0, d0)) <= 1e-12

    def test_forced_fallback_is_bisection(self, metric_and_scale, monkeypatch):
        # with no residual accepted, every target bisects its table bracket;
        # the solved half of the columns against the Illinois oracle, and
        # every column against the closed form
        m, scale = metric_and_scale
        monkeypatch.setattr(geodesics, "_POLISH_TOL", -1.0)
        g = PolarGrid(12, 16, 3.0)
        R, T = g.mesh()
        for i, j in ((0, 3), (7, 0)):
            d = warped_distance_field(m, g, (i, j))
            src = (g.q1[i], g.q2[j])
            cols = (j + np.arange(g.n2 // 2 + 1)) % g.n2
            ref = distance_polar(m, src, R[:, cols], T[:, cols])
            assert np.max(np.abs(d[:, cols] - ref) / np.maximum(1.0, ref)) <= 1e-12
            if scale is not None:
                d0 = hyperbolic_distance(scale, src[0], src[1], R, T)
                assert np.max(np.abs(d - d0) / np.maximum(1.0, d0)) <= 1e-12

    def test_polish_leaves_residual_below_tolerance(self, warped_metric, monkeypatch):
        # the table path settles every target of these fields on its own
        calls = []
        monkeypatch.setattr(geodesics, "_bisect_lengths",
                            lambda m, ra, rb, t, lo, hi: calls.append(ra.size))
        g = PolarGrid(48, 64, 3.0)
        for node in ((0, 0), (24, 9), (47, 31)):
            warped_distance_field(warped_metric, g, node)
        assert calls == []


class TestQuadratureNodes:
    """The Gauss-Legendre rule of _sweep_and_length against closed form and itself."""

    @pytest.mark.parametrize("scale", [0.25, 1.0, 4.0, 9.0])
    def test_wider_set_matches_closed_form(self, scale):
        m = make_hyperbolic(scale)
        for g in (PolarGrid(96, 128, 3.0), PolarGrid(64, 64, 6.0)):
            R, T = g.mesh()
            for i, j in ((0, 0), (1, 3), (g.n1 // 2, 5), (g.n1 - 1, g.n2 - 1)):
                d = warped_distance_field(m, g, (i, j))
                d0 = hyperbolic_distance(scale, g.q1[i], g.q2[j], R, T)
                assert np.max(np.abs(d - d0) / np.maximum(1.0, d0)) <= 1e-13

    def test_pinched_self_convergence(self, pinched_metric, monkeypatch):
        # the pinched f is a C1 Hermite spline with no closed-form distance:
        # the field against the same field under a 48-node rule
        g = PolarGrid(40, 48, 3.0)
        probes = ((0, 0), (20, 5), (39, 47))
        fields = [warped_distance_field(pinched_metric, g, p) for p in probes]
        x, w = np.polynomial.legendre.leggauss(48)
        monkeypatch.setattr(geodesics, "_GL_X", 0.5 * (x + 1.0))
        monkeypatch.setattr(geodesics, "_GL_W", 0.5 * w)
        for p, d in zip(probes, fields):
            d48 = warped_distance_field(pinched_metric, g, p)
            assert np.max(np.abs(d - d48) / np.maximum(1.0, d48)) <= 1e-13


class TestInterpolant:
    def test_clenshaw_matches_cosine_sums(self):
        # random series of every scale, at both ends, the table points and
        # random interior angles
        rng = np.random.default_rng(16)
        coef = rng.standard_normal((400, 1, 32)) * 10.0 ** rng.uniform(-3, 3, (400, 1, 1))
        psi = np.concatenate([[0.0, math.pi], geodesics._PSI, rng.uniform(0.0, math.pi, 64)])
        psi = np.broadcast_to(psi, (400, psi.size))
        p, dp = geodesics._interpolant(coef, psi)
        p0, dp0 = oracles._interpolant(coef, psi)
        bound = 1e-13 * np.sum(np.abs(coef), axis=-1)
        assert np.all(np.abs(p - p0) <= bound)
        assert np.all(np.abs(dp - dp0) <= bound)


class TestRotation:
    """The fields from the nodes of one ring are rolls of one another, bit for bit."""

    @pytest.mark.parametrize("ring", [0, 9])
    def test_field_is_the_roll_of_column_zero(self, warped_metric, ring):
        g = PolarGrid(24, 32, 3.0)
        for reach in (math.inf, 0.8):
            base = warped_distance_field(warped_metric, g, (ring, 0), reach)
            for j in range(g.n2):
                assert np.array_equal(warped_distance_field(warped_metric, g, (ring, j), reach),
                                      np.roll(base, j, axis=1))


class TestReach:
    """estimates.distance_field(..., reach) against the full field on every row."""

    @pytest.mark.parametrize("reach", [0.0, 0.45, 1.3])
    def test_band_exact_and_bound_beyond(self, warped_metric, reach):
        g = PolarGrid(20, 16, 3.0)
        for node in ((0, 3), (9, 0), (19, 11)):
            full = distance_field(warped_metric, g, node)
            part = distance_field(warped_metric, g, node, reach=reach)
            band = np.abs(g.q1 - g.q1[node[0]]) <= reach
            assert np.any(band)
            assert np.array_equal(part[band], full[band])
            assert np.all(part[~band] > reach)
            assert np.all(part[~band] <= full[~band])

    def test_infinite_reach_is_the_full_field(self, pinched_metric):
        g = PolarGrid(12, 16, 2.5)
        assert np.array_equal(distance_field(pinched_metric, g, (4, 5), reach=math.inf),
                              distance_field(pinched_metric, g, (4, 5)))

    def test_conformal_charts_honour_reach(self):
        # the nodes whose pair-distance bound is within reach are shot, with
        # the bits of the full field; the others hold that bound, above reach
        m = ConformalDiscMetric(1.0, 0.9, eps=0.15)
        g = PolarGrid(4, 8, 0.5, kind="disc")
        full = distance_field(m, g, (1, 2))
        R, T = g.mesh()
        X, Y = R * np.cos(T), R * np.sin(T)
        for reach in (0.0, 0.6):
            part = distance_field(m, g, (1, 2), reach=reach)
            near = m.pair_distance(X[1, 2], Y[1, 2], X, Y) <= reach
            assert np.any(near) and np.any(~near)
            assert np.array_equal(part[near], full[near])
            assert np.all(part[~near] > reach) and np.all(part[~near] <= full[~near])


class TestConformalDistance:
    def test_shooting_matches_poincare_closed_form(self):
        m = ConformalDiscMetric(1.0, 0.9)
        rng = np.random.default_rng(11)
        rho = 0.7 * np.sqrt(rng.random(25))
        th = 2 * math.pi * rng.random(25)
        X, Y = rho * np.cos(th), rho * np.sin(th)
        src = (0.31, -0.12)
        d = distance_conformal(m, src, X, Y)
        d0 = poincare_distance(src[0], src[1], X, Y)
        assert np.max(np.abs(d - d0)) <= 1e-8

    def test_scaled_chart(self):
        m = ConformalDiscMetric(4.0, 0.9)
        d = distance_conformal(m, (0.2, 0.0), np.array([-0.3]), np.array([0.25]))
        d0 = poincare_distance(0.2, 0.0, -0.3, 0.25, scale=4.0)
        assert abs(float(d[0]) - float(d0)) <= 1e-8

    def test_perturbed_symmetry(self):
        m = ConformalDiscMetric(1.0, 0.9, eps=0.15)
        d_ab = distance_conformal(m, (0.3, 0.1), np.array([-0.2]), np.array([-0.35]))
        d_ba = distance_conformal(m, (-0.2, -0.35), np.array([0.3]), np.array([0.1]))
        assert abs(float(d_ab[0]) - float(d_ba[0])) <= 1e-8

    def test_converged_targets_are_not_reshot(self, monkeypatch):
        # every target is shot until its own endpoint error meets tol, and
        # no further: the shots per target equal 2 per Newton step plus 1
        m = ConformalDiscMetric(1.0, 0.9, eps=0.3)
        X = np.array([0.3, 0.31, -0.5, 0.0, 0.2])
        Y = np.array([0.1, 0.1, 0.4, -0.6, 0.1])  # the last one is the source
        shots = []

        def counted(metric, source, alpha, length, n_steps):
            shots.append(alpha.size)
            return shoot(metric, source, alpha, length, n_steps)

        shoot = geodesics._shoot_conformal
        monkeypatch.setattr(geodesics, "_shoot_conformal", counted)
        d = distance_conformal(m, (0.2, 0.1), X, Y)
        assert d[-1] == 0.0
        assert shots[0] == 4 and shots[-1] < 4
        assert sum(shots) < 4 * len(shots)
        for k in range(4):
            d_one = distance_conformal(m, (0.2, 0.1), X[k:k + 1], Y[k:k + 1])
            assert d_one[0] == d[k]  # a target's iterates ignore the others

    def test_nonconvergence_reports_active_worst_error(self):
        m = ConformalDiscMetric(1.0, 0.9, eps=0.3)
        with pytest.raises(RuntimeError, match="worst endpoint error"):
            distance_conformal(m, (0.2, 0.1), np.array([-0.5]), np.array([0.4]),
                               max_newton=1)


class TestDispatch:
    """estimates.distance_field takes each chart family's own distances."""

    def test_polar_and_conformal_fields(self, pinched_metric):
        g = PolarGrid(12, 16, 2.5)
        d = distance_field(pinched_metric, g, (3, 4))
        assert d.shape == g.shape
        assert d[3, 4] == pytest.approx(0.0, abs=1e-12)

    def test_poincare_uses_closed_form(self):
        m = ConformalDiscMetric(1.0, 0.9)
        g = PolarGrid(8, 8, 0.6, kind="disc")
        d = distance_field(m, g, (2, 3))
        assert d.shape == g.shape
        assert d[2, 3] == pytest.approx(0.0, abs=1e-12)
