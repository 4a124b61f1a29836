import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    _assemble_jacobian,
    _block_bands,
    _fourier_step,
    _linear_solve,
    _mode_bands,
    bump_curvature,
    splu_step,
)

from lorentz_embed.metric import ConformalDiscMetric, make_hyperbolic, make_radial_from_curvature
from lorentz_embed import solver
from lorentz_embed.grid import PolarGrid, chart_arrays
from lorentz_embed.solver import (
    DirichletProblem,
    NonConvergenceError,
    solve_dirichlet,
    _probe,
    _apply_coupling,
    _block_step,
    _coupling_taps,
    _diagonal_block,
    _radial_step,
    _stencil_apply,
    _stencil_coefficients,
    _times_coupling,
    _tridiagonal_solve,
)


class TestConstantModels:
    @pytest.mark.parametrize("scale", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("l", [2.0, 4.0])
    def test_constant_recovered_immediately(self, scale, l):
        m = make_hyperbolic(scale)
        p = DirichletProblem(m, PolarGrid(24, 16, l))
        sol = solve_dirichlet(p)
        assert sol.iterations <= 2
        assert np.max(np.abs(sol.u.values - 1.0 / (2.0 * scale))) <= 1e-12

    def test_poincare_disc_constant(self):
        m = ConformalDiscMetric(1.0, 0.9)
        p = DirichletProblem(m, PolarGrid(24, 16, 0.7, kind="disc"))
        sol = solve_dirichlet(p)
        assert sol.iterations <= 2
        assert np.max(np.abs(sol.u.values - 0.5)) <= 1e-12

    def test_default_boundary_value(self):
        p = DirichletProblem(make_hyperbolic(4.0), PolarGrid(16, 16, 2.0))
        assert p.boundary_value == pytest.approx(0.125)


class TestPinchedSolve:
    def test_matches_shooting_oracle(self, pinched_solve_64, pinched_oracle_l3):
        g = pinched_solve_64.u.grid
        u_star = pinched_oracle_l3.sol(g.q1)[0][:, None]
        rel = np.abs(pinched_solve_64.u.values - u_star) / np.abs(u_star)
        assert rel.max() <= 1e-3

    def test_second_order_convergence(self, pinched_solve_64, pinched_solve_128,
                                      pinched_oracle_l3):
        errs = []
        for sol in (pinched_solve_64, pinched_solve_128):
            g = sol.u.grid
            u_star = pinched_oracle_l3.sol(g.q1)[0][:, None]
            errs.append(np.max(np.abs(sol.u.values - u_star) / np.abs(u_star)))
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_lower_barrier_and_ceiling(self, pinched_solve_64, pinched_metric):
        u = pinched_solve_64.u.values
        b = pinched_solve_64.boundary_value
        assert np.min(u) >= b - 1e-12
        assert np.max(u) <= 1.0 / (2.0 * pinched_metric.bounds.c1) + 1e-9

    def test_rotational_symmetry(self, pinched_solve_64):
        u = pinched_solve_64.u.values
        osc = (u.max(axis=1) - u.min(axis=1)).max()
        assert osc <= 1e-9

    def test_quadratic_tail(self, pinched_solve_64):
        residuals = [row[1] for row in pinched_solve_64.trace]
        took_full_steps = all(
            step == 1.0 for _, _, step, _ in pinched_solve_64.trace[1:]
        )
        assert took_full_steps
        for r_prev, r_next in zip(residuals, residuals[1:]):
            if r_prev < 1e-4:
                assert r_next <= 1e3 * r_prev**2 + 1e-14
                break

    def test_admissibility_certificate(self, pinched_solve_64):
        assert pinched_solve_64.min_eigenvalue > 0.0
        assert pinched_solve_64.rhs_min > 0.0


class TestJacobian:
    def test_matches_directional_difference(self, pinched_metric):
        g = PolarGrid(20, 16, 3.0)
        b = 1.0 / (2.0 * pinched_metric.bounds.c2_of_radius(3.0))
        ch = chart_arrays(pinched_metric, g)
        R, T = g.mesh()
        vals = b + 0.04 * np.exp(-R) + 0.01 * np.cos(T) * R**2 / (1 + R**2)
        vals[-1] = b
        state = _probe(vals, ch)
        J = _assemble_jacobian(_stencil_coefficients(state, ch), g.shape)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(g.shape)
        v[-1] = 0.0
        errs = []
        for eps in (1e-5, 1e-6):
            rp = _probe(vals + eps * v, ch).residual
            rm = _probe(vals - eps * v, ch).residual
            fd = (rp - rm) / (2 * eps)
            jv = (J @ v.ravel()).reshape(g.shape)[:-1]
            errs.append(np.abs(jv - fd).max())
        # quadratic decay of the difference identifies pure FD truncation
        assert errs[1] <= errs[0] / 50.0


def _state(metric, g, angular=0.0):
    """A probed state near the constant start, non-radial when ``angular``."""
    b = 1.0 / (2.0 * metric.bounds.c2_of_radius(g.radius))
    R, T = g.mesh()
    vals = b + 0.04 * np.exp(-R) + angular * np.cos(T) * R**2 / (1 + R**2)
    vals[-1] = b
    return vals, _probe(vals, chart_arrays(metric, g))


def _theta_invariant(coefs):
    """Whether every coefficient array is exactly constant along theta."""
    return all(np.all(c == c[:, :1]) for c in coefs)


def _count_steps(monkeypatch, names=("_radial_step", "_block_step")):
    """Count the calls of solver functions, by default the Newton step
    functions; the solver, and the radial step when it hands over to the
    block step, look them up on the solver module at each call."""
    calls = dict.fromkeys(names, 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(solver, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(solver, name, counted)
    return calls


def _full_width(coefs, rhs, n2):
    """Column coefficients and right side broadcast to n2 columns."""
    n1 = rhs.shape[0]
    return ([np.broadcast_to(c, (n1 - 1, n2)) for c in coefs],
            np.broadcast_to(rhs, (n1, n2)))


def _ulps(a, b):
    """Largest distance of a from b in units in the last place of max |b|."""
    return float(np.max(np.abs(a - b)) / np.spacing(np.max(np.abs(b))))


class TestFourierStep:
    """The step of ring-constant states: mode 0 of the Fourier step, taken
    on one column (``_radial_step``) and pinned to the all-modes oracle."""

    @staticmethod
    def _system(metric, n2):
        """A radial column state near the constant start, its column
        coefficients and a random column right side (boundary row zero, as
        in a solve)."""
        g = PolarGrid(20, n2, 3.0)
        ch = chart_arrays(metric, g)
        vals, _ = _state(metric, g)
        state = _probe(np.ascontiguousarray(vals[:, :1]), ch)
        coefs = _stencil_coefficients(state, ch)
        rhs = np.random.default_rng(n2).standard_normal((g.n1, 1))
        rhs[-1] = 0.0
        return g, ch, state, coefs, rhs

    @pytest.mark.parametrize("n2", [8, 16, 64, 192])
    def test_matches_oracle_fourier_step(self, pinched_metric, n2):
        # on a ring-constant right side only mode 0 is excited; a power-of-two
        # rfft sums and scales it exactly, 192 angles round
        g, _, state, coefs, rhs = self._system(pinched_metric, n2)
        assert state.hessian.grad_sq.strides[1] == 0
        fast = _radial_step(coefs, rhs, n2)
        full_coefs, full_rhs = _full_width(coefs, rhs, n2)
        ref = _fourier_step(full_coefs, full_rhs)
        assert fast.shape == (g.n1, 1)
        if n2 & (n2 - 1) == 0:
            assert np.array_equal(np.broadcast_to(fast, ref.shape), ref)
        else:
            assert _ulps(np.broadcast_to(fast, ref.shape), ref) <= 8

    @pytest.mark.parametrize("n2", [8, 16, 64])
    def test_matches_sparse_lu(self, pinched_metric, n2):
        g, _, _, coefs, rhs = self._system(pinched_metric, n2)
        rhs[-1] = 0.25  # a boundary step, which moves to the last interior ring
        full_coefs, full_rhs = _full_width(coefs, rhs, n2)
        fast = _radial_step(coefs, rhs, n2)
        ref = _linear_solve(_assemble_jacobian(full_coefs, g.shape),
                            np.ravel(full_rhs)).reshape(g.shape)
        assert np.abs(fast - ref).max() <= 1e-12 * np.abs(ref).max()
        assert fast[-1, 0] == rhs[-1, 0]

    @pytest.mark.parametrize("n2", [8, 16, 64])
    def test_elimination_matches_banded_lu(self, pinched_metric, n2):
        # the shared elimination without pivoting against scipy's pivoting
        # banded LU, on the diagonally dominant mode-0 system
        from scipy.linalg import solve_banded

        g, _, _, coefs, rhs = self._system(pinched_metric, n2)
        lower, diag, upper = (b[0].real for b in _mode_bands(
            _full_width(coefs, rhs, n2)[0], *g.shape))
        assert np.all(np.abs(diag) > np.abs(lower) + np.abs(upper))
        rhs = np.hstack([rhs, rhs[::-1], -3.0 * rhs])  # several right sides at once
        fast = _tridiagonal_solve(lower.tolist(), diag.tolist(), upper.tolist(), rhs)
        assert fast.shape == rhs.shape
        ab = np.array([np.r_[0.0, upper[:-1]], diag, np.r_[lower[1:], 0.0]])
        ref = solve_banded((1, 1), ab, rhs)
        assert np.abs(fast - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_non_dominant_modes_take_block_step(self, pinched_metric, monkeypatch):
        # weaken the mode-0 diagonal of every interior ring by 5 % (its
        # smallest dominance ratio is about 1.03): the whole step is then
        # one block step, and it still matches the sparse LU one
        g, _, _, coefs, rhs = self._system(pinched_metric, 16)
        coefs[4] = coefs[4] - 0.05 * (coefs[3] + coefs[4] + coefs[5])  # (0, 0) in solver._OFFSETS
        full_coefs, full_rhs = _full_width(coefs, rhs, 16)
        lower, diag, upper = _mode_bands(full_coefs, *g.shape)
        assert not np.all(np.abs(diag[0]) > np.abs(lower[0]) + np.abs(upper[0]))
        calls = _count_steps(monkeypatch)
        fast = _radial_step(coefs, rhs, 16)
        assert calls == {"_radial_step": 0, "_block_step": 1}
        assert fast.shape == g.shape
        ref = splu_step(full_coefs, np.array(full_rhs))
        assert np.abs(fast - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_column_coefficients_match_full_width(self, pinched_metric):
        # a column state takes its coefficients on the column; the
        # full-width formula on the broadcast state gives the same bits
        g, ch, state, coefs, _ = self._system(pinched_metric, 16)
        full_state = replace(state, values=np.repeat(state.values, g.n2, axis=1),
                             rhs=np.repeat(state.rhs, g.n2, axis=1))
        full = _stencil_coefficients(full_state, ch)
        for c, ref in zip(coefs, full):
            assert c.shape == (g.n1 - 1, 1) and ref.shape == (g.n1 - 1, g.n2)
            assert np.array_equal(np.broadcast_to(c, ref.shape).view(np.uint64),
                                  ref.view(np.uint64))

    def test_non_radial_state_is_not_theta_invariant(self, pinched_metric):
        g = PolarGrid(20, 16, 3.0)
        _, state = _state(pinched_metric, g, angular=0.01)
        ch = chart_arrays(pinched_metric, g)
        assert state.hessian.grad_sq.strides[1] != 0
        assert not _theta_invariant(_stencil_coefficients(state, ch))

    def test_radial_solve_never_factors(self, pinched_metric, monkeypatch):
        calls = _count_steps(monkeypatch)
        sol = solve_dirichlet(DirichletProblem(pinched_metric, PolarGrid(64, 64, 3.0)))
        assert sol.iterations >= 2
        assert calls == {"_radial_step": sol.iterations, "_block_step": 0}

    def test_radial_steps_take_columns(self, pinched_metric, monkeypatch):
        # the whole Newton state of a radial solve is one column
        shapes = []
        real = solver._radial_step

        def spy(coefs, rhs, n2):
            shapes.append(({c.shape for c in coefs}, rhs.shape, n2))
            return real(coefs, rhs, n2)

        monkeypatch.setattr(solver, "_radial_step", spy)
        sol = solve_dirichlet(DirichletProblem(pinched_metric, PolarGrid(64, 64, 3.0)))
        assert len(shapes) == sol.iterations >= 2
        assert all(s == ({(63, 1)}, (64, 1), 64) for s in shapes)
        # the answer stays one column too, read-only, broadcast along theta
        u = sol.u.values
        assert u.shape == (64, 64) and u.strides[1] == 0 and not u.flags.writeable
        assert np.array_equal(u, np.broadcast_to(u[:, :1], u.shape))

    def test_radial_solve_memory_budget(self, pinched_metric):
        # below one 192 x 192 field of doubles (294,912 bytes): the solved
        # field, its Hessian and its chart are columns
        problem = DirichletProblem(pinched_metric, PolarGrid(192, 192, 4.0))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            sol = solve_dirichlet(problem)
            retained = tracemalloc.get_traced_memory()[0] - entry
        finally:
            tracemalloc.stop()
        assert sol.u.values.strides[1] == 0
        assert retained <= 100_000

    def test_block_fallback_continues_at_full_width(self, pinched_metric, monkeypatch):
        # a first step handed to the block step, as a non-dominant mode 0
        # would be, makes the state full width; Newton goes on with block
        # steps to the column solve's answer
        problem = DirichletProblem(pinched_metric, PolarGrid(32, 16, 3.0))
        column = solve_dirichlet(problem)

        def fallback(coefs, rhs, n2):
            full_coefs, full_rhs = _full_width(coefs, rhs, n2)
            return solver._block_step(full_coefs, full_rhs)

        monkeypatch.setattr(solver, "_radial_step", fallback)
        calls = _count_steps(monkeypatch)
        sol = solve_dirichlet(problem)
        assert calls == {"_radial_step": 1, "_block_step": sol.iterations}
        assert sol.iterations == column.iterations
        assert np.abs(sol.u.values - column.u.values).max() <= 1e-12

    @pytest.mark.parametrize("case", ["pinched", "perturbed"])
    def test_one_hessian_per_probe_and_finalize(self, pinched_metric, monkeypatch, case):
        # perfbench derives its line-search probe count from the calls of
        # solver.covariant_hessian: one per _probe and one in _finalize
        if case == "pinched":
            problem = DirichletProblem(pinched_metric, PolarGrid(64, 64, 3.0))
        else:
            problem = DirichletProblem(ConformalDiscMetric(1.0, 0.9, eps=0.3),
                                       PolarGrid(24, 16, 0.7, kind="disc"))
        calls = _count_steps(monkeypatch, ("_probe", "covariant_hessian"))
        sol = solve_dirichlet(problem)
        assert calls["_probe"] >= sol.iterations + 1
        assert calls["covariant_hessian"] == calls["_probe"] + 1

    @pytest.mark.parametrize("rule", ["standard", "midpoint"])
    def test_sparse_step_keeps_boundary_datum(self, rule, monkeypatch):
        # the identity boundary rows of the Jacobian must not move the ring
        # off its Dirichlet value, not even by round-off; the non-radial
        # steps here are block steps
        calls = _count_steps(monkeypatch)
        m = ConformalDiscMetric(1.0, 0.9, eps=0.3)
        g = PolarGrid(24, 16, 0.7, kind="disc")
        b = 1.0 / (2.0 * m.bounds.c2_of_radius(g.radius))
        if rule == "midpoint":
            b = 0.5 * (b + 1.0 / (2.0 * m.bounds.c1))
        sol = solve_dirichlet(DirichletProblem(m, g, boundary_value=b))
        assert sol.iterations >= 1
        assert calls == {"_radial_step": 0, "_block_step": sol.iterations}
        assert np.all(sol.u.values[-1] == b)

    def test_radial_solve_stays_exactly_radial(self, pinched_solve_64, pinched_solve_l4):
        for sol in (pinched_solve_64, pinched_solve_l4):
            u = sol.u.values
            assert np.array_equal(u, np.broadcast_to(u[:, :1], u.shape))


class TestBlockStep:
    @staticmethod
    def _system(n1, n2, eps, seed=0):
        """A non-radial disc state and a random right side."""
        m = ConformalDiscMetric(1.0, 0.9, eps=eps)
        g = PolarGrid(n1, n2, 0.7, kind="disc")
        ch = chart_arrays(m, g)
        _, state = _state(m, g, angular=0.01)
        coefs = _stencil_coefficients(state, ch)
        assert state.hessian.grad_sq.strides[1] != 0 and not _theta_invariant(coefs)
        rhs = np.random.default_rng(seed).standard_normal(g.shape)
        return g, coefs, rhs

    @pytest.mark.parametrize("eps", [0.1, 0.3])
    @pytest.mark.parametrize("shape", [(24, 16), (64, 64), (40, 96)])
    def test_matches_sparse_lu(self, shape, eps):
        g, coefs, rhs = self._system(*shape, eps)
        fast = _block_step(coefs, rhs)
        ref = splu_step(coefs, rhs)
        assert np.abs(fast - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(fast[-1], rhs[-1])  # the identity rows, exactly

    def test_bands_are_jacobian_blocks(self):
        # each ring's diagonal block, bit for bit, and its coupling blocks
        # as the sweeps apply them, against the sparse Jacobian's blocks
        g, coefs, _ = self._system(12, 8, 0.3)
        n = g.n2
        J = _assemble_jacobian(coefs, g.shape).toarray()
        lower, diag, upper = _block_bands(coefs, *g.shape)
        below, above = _coupling_taps(coefs, -1), _coupling_taps(coefs, 1)
        eye = np.eye(n)
        for i in range(g.n1 - 1):
            rows = slice(i * n, (i + 1) * n)
            block = _diagonal_block(coefs, i, n)
            assert np.array_equal(block, J[rows, i * n:(i + 1) * n])
            assert np.array_equal(block, diag[i])
            assert np.array_equal(_apply_coupling(above, i, eye), J[rows, (i + 1) * n:(i + 2) * n])
            assert np.array_equal(_apply_coupling(above, i, eye), upper[i])
            assert np.array_equal(_times_coupling(eye, above, i), upper[i])
            if i:
                assert np.array_equal(_apply_coupling(below, i, eye), J[rows, (i - 1) * n:i * n])
                assert np.array_equal(_apply_coupling(below, i, eye), lower[i])
                assert np.array_equal(_times_coupling(eye, below, i), lower[i])
        assert not lower[0].any()

    def test_stencil_apply_matches_jacobian(self):
        g, coefs, _ = self._system(24, 16, 0.3)
        x = np.random.default_rng(3).standard_normal(g.shape)
        J = _assemble_jacobian(coefs, g.shape)
        ref = (J @ x.ravel()).reshape(g.shape)[:-1]
        scale = (abs(J) @ np.abs(x).ravel()).max()
        assert np.abs(_stencil_apply(coefs, x) - ref).max() <= 1e-15 * scale

    def test_block_step_beyond_128_angles(self):
        # the block step serves every angle count, above 128 too
        g, coefs, rhs = self._system(12, 160, 0.3)
        fast = _block_step(coefs, rhs)
        ref = splu_step(coefs, rhs)
        assert np.array_equal(fast[-1], rhs[-1])
        assert np.abs(fast - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_backward_error_failure_stops_newton(self, monkeypatch):
        # a step that fails its backward-error check is not taken: Newton
        # stops with the check named and the trace so far
        monkeypatch.setattr(solver, "_BLOCK_BACKWARD_TOL", -1.0)
        m = ConformalDiscMetric(1.0, 0.9, eps=0.3)
        with pytest.raises(NonConvergenceError, match="backward error") as exc:
            solve_dirichlet(DirichletProblem(m, PolarGrid(24, 16, 0.7, kind="disc")))
        assert len(exc.value.trace) >= 1

    @pytest.mark.parametrize("fill", [0.0, np.nan])
    def test_singular_or_non_finite_blocks_give_no_step(self, fill):
        g, coefs, rhs = self._system(12, 8, 0.3)
        coefs = [np.full_like(c, fill) for c in coefs]
        check = "singular Schur complement" if fill == 0.0 else "not finite"
        with pytest.raises(np.linalg.LinAlgError, match=check):
            _block_step(coefs, rhs)

    def test_non_radial_chart_makes_no_splu_call(self, monkeypatch):
        calls = _count_steps(monkeypatch)
        m = ConformalDiscMetric(1.0, 0.9, eps=0.3)
        sol = solve_dirichlet(DirichletProblem(m, PolarGrid(24, 16, 0.7, kind="disc")))
        assert sol.iterations >= 1
        assert calls == {"_radial_step": 0, "_block_step": sol.iterations}

    def test_solve_matches_splu_path(self, monkeypatch):
        # the whole Newton solve, block steps against splu steps
        m = ConformalDiscMetric(1.0, 0.9, eps=0.3)
        problem = DirichletProblem(m, PolarGrid(24, 16, 0.7, kind="disc"))
        fast = solve_dirichlet(problem)
        monkeypatch.setattr(solver, "_block_step", splu_step)
        ref = solve_dirichlet(problem)
        assert fast.iterations == ref.iterations
        assert np.abs(fast.u.values - ref.u.values).max() <= 1e-12

    def test_block_step_memory_budget(self):
        # the step keeps one inverse Schur complement per interior ring,
        # (n1 - 1) n2^2 doubles, and no whole-band arrays
        g, coefs, rhs = self._system(64, 64, 0.3)
        budget = 1.25 * (g.n1 - 1) * g.n2**2 * 8
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _block_step(coefs, rhs)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak <= budget


class TestRoundOffFloor:
    """Newton stops at the residual's round-off floor once it stalls there."""

    def test_fine_disc_converges_floor_limited(self):
        # the perturbed benchmark disc at 96^2: its residual stalls near
        # 3e-10, above tol, and used to run out of iterations there
        m = ConformalDiscMetric(1.0, 0.9, eps=0.3)
        problem = DirichletProblem(m, PolarGrid(96, 96, 0.8, kind="disc"))
        sol = solve_dirichlet(problem)
        assert sol.floor_limited
        assert problem.tol < sol.residual <= sol.residual_floor
        assert sol.residual == sol.trace[-1][1]
        assert sol.iterations <= 8

    def test_benchmark_disc_stops_on_tol(self):
        m = ConformalDiscMetric(1.0, 0.9, eps=0.3)
        sol = solve_dirichlet(DirichletProblem(m, PolarGrid(64, 64, 0.8, kind="disc")))
        assert sol.iterations == 4 and not sol.floor_limited
        assert sol.residual <= 1e-10 < sol.residual_floor

    def test_quadratic_convergence_is_not_stopped(self, pinched_metric):
        # on the 192^2 pinched ball a residual of about 3e-10 lies below its
        # (pessimistic, radial) floor, but its step cut the residual 1e5-fold:
        # Newton goes on to tol
        sol = solve_dirichlet(DirichletProblem(pinched_metric, PolarGrid(192, 192, 4.0)))
        assert not sol.floor_limited and sol.residual <= 1e-10
        res = [r for _, r, _, _ in sol.trace]
        below = [k for k in range(1, len(res) - 1) if 1e-10 < res[k] <= sol.residual_floor]
        assert below and all(res[k - 1] >= 4.0 * res[k] for k in below)

    def test_floor_never_stops_a_converging_solve(self, monkeypatch):
        # with every residual below the floor, only the progress test holds
        # Newton back: a solve that keeps cutting its residual 4-fold is the
        # same solve
        m = ConformalDiscMetric(1.0, 0.9, eps=0.3)
        problem = DirichletProblem(m, PolarGrid(24, 16, 0.7, kind="disc"))
        ref = solve_dirichlet(problem)
        res = [r for _, r, _, _ in ref.trace]
        assert all(a >= 4.0 * b for a, b in zip(res, res[1:]))
        monkeypatch.setattr(solver, "_residual_floor", lambda coefs, values: np.inf)
        sol = solve_dirichlet(problem)
        assert sol.iterations == ref.iterations and not sol.floor_limited
        assert np.array_equal(sol.u.values, ref.u.values)

    def test_stall_above_the_floor_fails(self, monkeypatch):
        monkeypatch.setattr(solver, "_residual_floor", lambda coefs, values: 0.0)
        m = ConformalDiscMetric(1.0, 0.9, eps=0.3)
        problem = DirichletProblem(m, PolarGrid(96, 96, 0.8, kind="disc"), max_iter=8)
        with pytest.raises(NonConvergenceError, match="no convergence"):
            solve_dirichlet(problem)


class TestStrongPinching:
    def test_sharp_curvature_bump(self):
        # 9:1 pinching contrast concentrated in an annulus; historically the
        # first Newton step needs damping here, and the solution dips to
        # u ~ 1/(2 max(-K)) inside the bump while staying admissible
        K, Kp, Kpp = bump_curvature()
        m = make_radial_from_curvature(K, 6.0, Kp, Kpp)
        sol = solve_dirichlet(DirichletProblem(m, PolarGrid(128, 32, 3.0)))
        assert sol.iterations <= 10
        assert sol.min_eigenvalue > 0.0
        b = sol.boundary_value
        assert np.min(sol.u.values) >= b - 1e-12
        assert np.max(sol.u.values) <= 0.5 + 1e-9


class TestNonConvergence:
    def test_budget_exhausted_carries_trace(self, pinched_metric):
        g = PolarGrid(32, 16, 3.0)
        p = DirichletProblem(pinched_metric, g, max_iter=1)
        with pytest.raises(NonConvergenceError) as exc:
            solve_dirichlet(p)
        assert len(exc.value.trace) >= 1
