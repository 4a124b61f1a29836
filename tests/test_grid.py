import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import chart_arrays_full, write_field_csv_oneshot
from test_metric import flat_metric

from lorentz_embed import grid as grid_module
from lorentz_embed.metric import ConformalDiscMetric, WarpedPolarMetric, make_hyperbolic
from lorentz_embed.solver import DirichletProblem, solve_dirichlet
from lorentz_embed.grid import (
    GridTooCoarseError,
    PolarGrid,
    ScalarField,
    chart_arrays,
    covariant_hessian,
    theta_derivative_spectral,
)
from lorentz_embed.cli import write_field_csv
from lorentz_embed.solver import _probe


def hessian(values, grid, metric):
    return covariant_hessian(ScalarField(grid, values), chart_arrays(metric, grid))


class TestGridLayout:
    def test_boundary_ring_on_ball(self):
        g = PolarGrid(32, 16, 2.5)
        assert g.q1[-1] == pytest.approx(2.5, rel=1e-15)
        assert g.q1[0] == pytest.approx(0.5 * g.h1, rel=1e-15)
        assert g.h2 == pytest.approx(2 * math.pi / 16)

    def test_odd_theta_rejected(self):
        with pytest.raises(ValueError, match="even"):
            PolarGrid(16, 15, 1.0)

    def test_disc_grid_range(self):
        for radius in (1.2, 1.0):
            with pytest.raises(ValueError):
                PolarGrid(16, 16, radius, kind="disc")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="'annulus'"):
            PolarGrid(16, 16, 0.5, kind="annulus")

    def test_scalar_field_rejects_nonfinite(self):
        g = PolarGrid(8, 8, 1.0)
        v = np.zeros(g.shape)
        v[3, 4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ScalarField(g, v)
        # a broadcast column is checked on its column
        with pytest.raises(ValueError, match="finite"):
            ScalarField(g, np.broadcast_to(v[:, 4:5], g.shape))


class TestScalarFieldColumn:
    """ScalarField.column is the one test of constancy along theta."""

    def test_column_of_each_kind_of_field(self):
        g = PolarGrid(24, 16, 3.0)
        R, T = g.mesh()
        col = np.exp(-g.q1)[:, None]
        broadcast = ScalarField(g, np.broadcast_to(col, g.shape))
        assert np.shares_memory(broadcast.column, col)
        stored = ScalarField(g, np.exp(-R))  # constant rows, stored at full width
        assert stored.column.shape == (24, 1) and np.shares_memory(stored.column, stored.values)
        assert np.array_equal(stored.column, col)
        assert ScalarField(g, np.exp(-R) + 0.01 * np.sin(T)).column is None
        signed = np.zeros(g.shape)
        signed[4, 1::2] = -0.0  # equal values, different bits
        assert ScalarField(g, signed).column is None

    def test_column_tested_on_first_read(self, monkeypatch):
        # construction never tests constancy; the first read does, once
        g = PolarGrid(24, 16, 3.0)
        calls = []
        ring_constant = grid_module._ring_constant
        monkeypatch.setattr(grid_module, "_ring_constant",
                            lambda F: calls.append(F.shape) or ring_constant(F))
        f = ScalarField(g, np.ones(g.shape))
        assert calls == []
        assert f.column is f.column and calls == [g.shape]

    def test_broadcast_field_memory_budget(self):
        # a finiteness check at full width traces 102,648 bytes for the
        # 1,536 bytes of this column
        g = PolarGrid(192, 192, 4.0)
        values = np.broadcast_to(np.exp(-g.q1)[:, None], g.shape)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ScalarField(g, values)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak <= 8_000


class TestHessianStencils:
    def test_constant_annihilated_exactly(self):
        g = PolarGrid(16, 16, 2.0)
        H = hessian(np.full(g.shape, 3.7), g, make_hyperbolic(1.0))
        assert np.max(np.abs(H.h11)) == 0.0
        assert np.max(np.abs(H.h12)) == 0.0
        assert np.max(np.abs(H.h22)) == 0.0

    def test_flat_quadratic_gives_identity(self):
        # u = r^2/2 = |x|^2/2 has Hessian equal to the flat metric
        g = PolarGrid(24, 16, 2.0)
        R, _ = g.mesh()
        H = hessian(R**2 / 2, g, flat_metric())
        assert np.max(np.abs(H.h11 - 1.0)) <= 1e-12
        assert np.max(np.abs(H.h12)) <= 1e-12
        assert np.max(np.abs(H.h22 - R**2)) <= 1e-11

    def test_radial_quadratics_exact_off_pole(self):
        # a + b r + c r^2: exact at rows >= 1 (u = r is not smooth at the pole)
        g = PolarGrid(24, 16, 2.0)
        R, _ = g.mesh()
        u = 0.3 - 0.2 * R + 0.7 * R**2
        H = hessian(u, g, flat_metric())
        assert np.max(np.abs(H.h11[1:-1] - 1.4)) <= 1e-11
        # Hess_tt = r u_r for the flat chart
        expect = R * (-0.2 + 1.4 * R)
        assert np.max(np.abs(H.h22[1:-1] - expect[1:-1])) <= 1e-10

    def test_radial_cosh_second_order(self, subtests=None):
        # u = cosh(r) - 1 on the unit model: Hess = cosh(r) g - g + g... the
        # closed form is Hess_rr = cosh r, Hess_tt = f f' u_r = sinh^2 r cosh r
        m = make_hyperbolic(1.0)

        def max_err(n):
            g = PolarGrid(n, 32, 2.0)
            R, _ = g.mesh()
            H = hessian(np.cosh(R) - 1.0, g, m)
            sl = slice(0, n - 1)
            e1 = np.abs(H.h11 - np.cosh(R))[sl].max()
            e2 = np.abs(H.h22 - np.sinh(R) ** 2 * np.cosh(R))[sl].max()
            return max(e1, e2)

        e_coarse, e_fine = max_err(32), max_err(64)
        ratio = e_coarse / e_fine
        assert 3.5 <= ratio <= 4.5

    def test_pole_ring_second_order(self):
        # smooth radial data: residual consistency at the innermost ring
        # converges at second order under refinement
        m = make_hyperbolic(1.0)

        def pole_err(n):
            g = PolarGrid(n, 16, 2.0)
            R, _ = g.mesh()
            H = hessian(np.cosh(R) - 1.0, g, m)
            return abs(H.h11[0, 0] - math.cosh(g.q1[0]))

        ratio = pole_err(24) / pole_err(48)
        assert 3.4 <= ratio <= 4.6

    def test_too_coarse_rejected(self):
        g = PolarGrid(3, 16, 1.0)
        with pytest.raises(GridTooCoarseError):
            hessian(np.zeros(g.shape), g, make_hyperbolic(1.0))
        g2 = PolarGrid(16, 6, 1.0)
        with pytest.raises(GridTooCoarseError):
            hessian(np.zeros(g2.shape), g2, make_hyperbolic(1.0))

    def test_chart_of_another_grid_rejected(self):
        m = make_hyperbolic(1.0)
        g = PolarGrid(16, 16, 2.0)
        u = ScalarField(g, np.full(g.shape, 0.5))
        for other in (PolarGrid(16, 16, 2.5), PolarGrid(16, 16, 2.0, theta0=0.1),
                      PolarGrid(24, 16, 2.0)):
            with pytest.raises(ValueError, match="chart was evaluated on"):
                covariant_hessian(u, chart_arrays(m, other))
        # an equal grid built separately carries the same chart
        H = covariant_hessian(u, chart_arrays(m, PolarGrid(16, 16, 2.0)))
        assert H.chart.grid == g


class TestMongeAmpereOperator:
    # the solver's _probe is the discrete residual; it covers interior rows
    # only, because the solver pins the boundary ring to the Dirichlet value
    def test_unit_model_residual_zero(self):
        g = PolarGrid(24, 16, 3.0)
        state = _probe(np.full(g.shape, 0.5), chart_arrays(make_hyperbolic(1.0), g))
        assert np.max(np.abs(state.residual)) == 0.0

    @given(scale=st.floats(min_value=1e-2, max_value=1e2))
    @settings(max_examples=40, deadline=None)
    def test_scaled_model_residual_zero(self, scale):
        # u = 1/(2 scale) solves the equation exactly for K = -scale:
        # det g / det g = 1 = scale * 2u, at any curvature strength
        g = PolarGrid(16, 16, 2.0)
        b = 1.0 / (2.0 * scale)
        state = _probe(np.full(g.shape, b), chart_arrays(make_hyperbolic(scale), g))
        assert np.max(np.abs(state.residual)) <= 1e-13

    def test_interior_residual_small_on_oracle(self, pinched_metric,
                                               pinched_oracle_l3):
        g = PolarGrid(96, 32, 3.0)
        u = pinched_oracle_l3.sol(g.q1)[0][:, None] * np.ones((1, 32))
        state = _probe(u, chart_arrays(pinched_metric, g))
        # truncation of the second-order stencils on the exact solution
        assert state.residual.shape == (g.n1 - 1, g.n2)
        assert np.max(np.abs(state.residual)) <= 5e-4

    def test_rotation_relabeling_invariance(self, pinched_metric):
        g = PolarGrid(24, 16, 3.0)
        R, _ = g.mesh()
        u = 0.3 + 0.01 * R**2
        ch = chart_arrays(pinched_metric, g)
        res = _probe(u, ch).residual
        rolled = _probe(np.roll(u, 5, axis=1), ch).residual
        assert np.array_equal(res, np.roll(rolled, -5, axis=1))

    def test_inadmissible_node_reported(self):
        g = PolarGrid(16, 16, 2.0)
        R, T = g.mesh()
        u = np.full(g.shape, 0.5)
        u[5, 3] += 0.5  # spike makes Hess u + g indefinite nearby
        state = _probe(u, chart_arrays(make_hyperbolic(1.0), g))
        assert not state.admissible and state.residual is None
        assert state.eig_margin <= 0.0 or state.rhs_margin <= 0.0
        eig = state.hessian.eig_min[:-1]
        node = np.unravel_index(np.argmin(eig), eig.shape)
        assert 0 <= node[0] < 16
        assert eig[node] == state.eig_margin


HESSIAN_ARRAYS = ("h11", "h12", "h22", "du1", "du2", "grad_sq", "det_ratio",
                  "eig_min", "eig_max")
# the ChartData arrays, in the order of oracles.chart_arrays_full
CHART_ARRAYS = ("g11", "g22", "K", "gamma1_11", "gamma1_12", "gamma1_22", "gamma2_11",
                "gamma2_12", "gamma2_22")


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestOpenMesh:
    """chart_arrays calls the metric on the open mesh; the full-mesh
    evaluation in the oracles is the reference, bit for bit.  Odd lengths
    exercise the tails of numpy's vector loops."""

    @pytest.mark.parametrize("n1", [13, 97])
    @pytest.mark.parametrize("n2", [16, 192])
    @pytest.mark.parametrize("family", ["hyperbolic", "pinched"])
    def test_radial_chart_is_one_column(self, family, n1, n2, pinched_metric):
        metric = make_hyperbolic(1.7) if family == "hyperbolic" else pinched_metric
        g = PolarGrid(n1, n2, 3.0)
        ch = chart_arrays(metric, g)
        assert ch.column is not None and ch.column.column is None
        for name, ref in zip(CHART_ARRAYS, chart_arrays_full(metric, g)):
            col, full = getattr(ch.column, name), getattr(ch, name)
            assert _same_bits(col, ref[:, :1]), name
            assert _same_bits(full, ref), name
            # the full-width field is a read-only view of the column
            assert full.strides[1] == 0 and not full.flags.writeable, name
            assert np.shares_memory(full, col), name

    @pytest.mark.parametrize("n1, n2", [(13, 16), (97, 192)])
    @pytest.mark.parametrize("make", [lambda: ConformalDiscMetric(1.0, 0.9),
                                      lambda: ConformalDiscMetric(1.0, 0.9, eps=0.3)],
                             ids=["poincare", "perturbed"])
    def test_conformal_chart_is_full_width(self, make, n1, n2):
        metric = make()
        g = PolarGrid(n1, n2, 0.8, kind="disc")
        ch = chart_arrays(metric, g)
        assert ch.column is None
        for name, ref in zip(CHART_ARRAYS, chart_arrays_full(metric, g)):
            assert _same_bits(getattr(ch, name), ref), name


class TestRingColumn:
    """The Hessian of a ring-constant field in a ring-constant chart is taken
    on column 0; it must equal the full-width kernel bit for bit."""

    @staticmethod
    def _full_width(u, ch):
        return grid_module._hessian_arrays(u.values, u.grid.h1, u.grid.h2, ch)

    def test_chart_column_decided_once(self, pinched_metric):
        # a chart that never reads theta is evaluated as one column, and its
        # full-width fields broadcast that column
        ch = chart_arrays(pinched_metric, PolarGrid(24, 16, 3.0))
        assert ch.column is not None
        for name in CHART_ARRAYS:
            col = getattr(ch.column, name)
            assert col.shape == (24, 1) and not col.flags.writeable, name
            assert _same_bits(col, getattr(ch, name)[:, :1]), name
            assert getattr(ch, name).strides[1] == 0, name
        disc = PolarGrid(24, 16, 0.7, kind="disc")
        assert chart_arrays(ConformalDiscMetric(1.0, 0.9, eps=0.3), disc).column is None

    def test_column_matches_full_width(self, pinched_metric, pinched_solve_64):
        u = pinched_solve_64.u
        ch = chart_arrays(pinched_metric, u.grid)
        hess = covariant_hessian(u, ch)
        assert hess.grad_sq.strides[1] == 0
        for name, full in zip(HESSIAN_ARRAYS, self._full_width(u, ch)):
            arr = getattr(hess, name)
            assert np.array_equal(arr, full), name
            assert _same_bits(arr, full), name
            # a read-only view of the width-1 kernel, broadcast along theta
            assert arr.strides[1] == 0 and not arr.flags.writeable, name

    def test_one_perturbed_node_takes_full_width(self, pinched_metric, pinched_solve_64):
        values = pinched_solve_64.u.values.copy()
        values[5, 7] += 1e-3
        u = ScalarField(pinched_solve_64.u.grid, values)
        ch = chart_arrays(pinched_metric, u.grid)
        hess = covariant_hessian(u, ch)
        assert hess.grad_sq.strides[1] != 0
        for name, full in zip(HESSIAN_ARRAYS, self._full_width(u, ch)):
            assert _same_bits(getattr(hess, name), full), name

    def test_signed_zeros_take_full_width(self, pinched_metric):
        # 0.0 == -0.0, but the bits differ, so the row is not ring-constant
        g = PolarGrid(24, 16, 3.0)
        values = np.zeros(g.shape)
        values[4, 1::2] = -0.0
        assert hessian(values, g, pinched_metric).grad_sq.strides[1] != 0
        assert hessian(np.zeros(g.shape), g, pinched_metric).grad_sq.strides[1] == 0

    def test_disc_chart_takes_full_width(self):
        g = PolarGrid(24, 16, 0.7, kind="disc")
        hess = hessian(np.full(g.shape, 0.5), g, ConformalDiscMetric(1.0, 0.9, eps=0.3))
        assert hess.grad_sq.strides[1] != 0

    def test_pinched_solve_takes_hessians_at_width_1(self, pinched_metric, monkeypatch):
        widths = []
        kernel = grid_module._hessian_arrays

        def spy(F, *args):
            widths.append(F.shape[1])
            return kernel(F, *args)

        monkeypatch.setattr(grid_module, "_hessian_arrays", spy)
        sol = solve_dirichlet(DirichletProblem(pinched_metric, PolarGrid(32, 32, 3.0)))
        assert sol.iterations >= 2 and sol.hessian.grad_sq.strides[1] == 0
        assert len(widths) >= sol.iterations + 2 and set(widths) == {1}

    def test_pinched_solve_evaluates_the_metric_at_width_1(self, pinched_metric,
                                                           monkeypatch):
        shapes = []
        for name in ("metric_components", "christoffel_components", "curvature_at"):
            def spy(self, r, theta=None, _method=getattr(WarpedPolarMetric, name)):
                shapes.append((_method.__name__, np.shape(r)))
                return _method(self, r, theta)

            monkeypatch.setattr(WarpedPolarMetric, name, spy)
        sol = solve_dirichlet(DirichletProblem(pinched_metric, PolarGrid(64, 64, 3.0)))
        assert sol.hessian.grad_sq.strides[1] == 0
        assert {name for name, _ in shapes} == {
            "metric_components", "christoffel_components", "curvature_at"}
        assert {shape for _, shape in shapes} == {(64, 1)}

    @pytest.mark.parametrize("constant", [True, False])
    def test_ring_test_memory_budget(self, constant):
        # a small fraction of the 102,824 bytes that a whole (n1, n2)
        # comparison array and its reduction take at 192 x 192
        R, T = PolarGrid(192, 192, 4.0).mesh()
        values = np.exp(-R) + (0.0 if constant else 0.01 * np.sin(T))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert grid_module._ring_constant(values) is constant
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak <= 10_000


class TestSpectralTheta:
    def test_trig_polynomial_exact(self):
        g = PolarGrid(8, 32, 1.0)
        _, T = g.mesh()
        F = 1.0 + np.cos(T) + 0.25 * np.sin(3 * T)
        dF = theta_derivative_spectral(F)
        expect = -np.sin(T) + 0.75 * np.cos(3 * T)
        assert np.max(np.abs(dF - expect)) <= 1e-12


class TestFieldDump:
    def test_polar_csv_layout(self, tmp_path):
        g = PolarGrid(4, 8, 1.0)
        R, _ = g.mesh()
        path = tmp_path / "u.csv"
        write_field_csv(ScalarField(g, R), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "r,theta,value"
        assert len(lines) == 1 + 4 * 8
        r0, t0, v0 = (float(x) for x in lines[1].split(","))
        assert r0 == pytest.approx(g.q1[0], rel=1e-16)
        assert v0 == r0

    def test_disc_csv_uses_chart_radius(self, tmp_path):
        # a disc's field CSV holds its grid's own coordinates, as a ball's
        # does: r is the chart radius (it held Cartesian x, y)
        g = PolarGrid(4, 8, 0.8, kind="disc")
        path = tmp_path / "u.csv"
        write_field_csv(ScalarField(g, np.ones(g.shape)), path)
        header, first, *_, last = path.read_text().splitlines()
        assert header == "r,theta,value"
        assert first == "%.17g,0,1" % g.q1[0]
        assert last == "%.17g,%.17g,1" % (g.q1[-1], g.q2[-1])

    def test_seventeen_digit_round_trip(self, tmp_path):
        g = PolarGrid(4, 8, 1.0)
        rng = np.random.default_rng(3)
        v = rng.random(g.shape)
        path = tmp_path / "u.csv"
        write_field_csv(ScalarField(g, v), path)
        back = np.loadtxt(path, delimiter=",", skiprows=1, usecols=2).reshape(g.shape)
        assert np.array_equal(back, v)

    @staticmethod
    def _field(case):
        rng = np.random.default_rng(7)
        if case == "disc":
            g = PolarGrid(16, 16, 0.8, kind="disc")
            return ScalarField(g, rng.random(g.shape))
        g = PolarGrid(24, 32, 2.0)
        if case == "general":
            return ScalarField(g, rng.random(g.shape))
        values = np.repeat(rng.random((g.n1, 1)), g.n2, axis=1)
        if case == "signed_zero":
            # equal as floats, yet "%.17g" gives "0" and "-0"
            values[3, ::2], values[3, 1::2] = 0.0, -0.0
        return ScalarField(g, values)

    @pytest.mark.parametrize("case", ["ring_constant", "general", "disc", "signed_zero"])
    def test_bytes_match_one_shot_oracle(self, tmp_path, case):
        field = self._field(case)
        path, ref = tmp_path / "u.csv", tmp_path / "ref.csv"
        write_field_csv(field, path)
        write_field_csv_oneshot(field, ref)
        assert path.read_bytes() == ref.read_bytes()
        if case == "signed_zero":
            lines = path.read_text().splitlines()[1 + 3 * 32:1 + 4 * 32]
            assert {line.rsplit(",", 1)[1] for line in lines} == {"0", "-0"}
