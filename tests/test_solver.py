import numpy as np
import pytest

from oracles import bump_curvature

from lorentz_embed import solver
from lorentz_embed.metric import (
    make_hyperbolic,
    make_poincare,
    make_poincare_perturbed,
    make_radial_from_curvature,
)
from lorentz_embed.grid import PolarGrid, chart_arrays
from lorentz_embed.solver import (
    DirichletProblem,
    NonConvergenceError,
    solve_dirichlet,
    verify_subsolution,
    _probe,
    _assemble_jacobian,
    _fourier_step,
    _linear_solve,
    _stencil_coefficients,
    _theta_invariant,
    _Stencil,
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
        m = make_poincare(1.0, 0.9)
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
        J = _assemble_jacobian(state, ch, _Stencil(g.h1, g.h2))
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


class TestFourierStep:
    @pytest.mark.parametrize("n2", [8, 16, 64])
    def test_matches_sparse_lu(self, pinched_metric, n2):
        g = PolarGrid(20, n2, 3.0)
        ch = chart_arrays(pinched_metric, g)
        _, state = _state(pinched_metric, g)
        stencil = _Stencil(g.h1, g.h2)
        coefs = _stencil_coefficients(state, ch, stencil)
        assert _theta_invariant(coefs)
        # every Fourier mode, odd ones and Nyquist included, is excited
        rhs = np.random.default_rng(n2).standard_normal(g.shape)
        assert np.all(np.abs(np.fft.rfft(rhs, axis=1)) > 1e-3)
        fast = _fourier_step(coefs, stencil, rhs)
        ref = _linear_solve(_assemble_jacobian(state, ch, stencil), rhs.ravel())
        ref = ref.reshape(g.shape)
        assert np.abs(fast - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_non_radial_state_is_not_theta_invariant(self, pinched_metric):
        g = PolarGrid(20, 16, 3.0)
        _, state = _state(pinched_metric, g, angular=0.01)
        ch = chart_arrays(pinched_metric, g)
        assert not _theta_invariant(_stencil_coefficients(state, ch, _Stencil(g.h1, g.h2)))

    @staticmethod
    def _count_splu(monkeypatch):
        calls = []
        real = solver.spla.splu

        def counted(A, *args, **kwargs):
            calls.append(A.shape)
            return real(A, *args, **kwargs)

        monkeypatch.setattr(solver.spla, "splu", counted)
        return calls

    def test_radial_solve_never_factors(self, pinched_metric, monkeypatch):
        calls = self._count_splu(monkeypatch)
        sol = solve_dirichlet(DirichletProblem(pinched_metric, PolarGrid(64, 64, 3.0)))
        assert sol.iterations >= 2
        assert calls == []

    def test_non_radial_chart_factors(self, monkeypatch):
        calls = self._count_splu(monkeypatch)
        m = make_poincare_perturbed(1.0, 0.9, eps=0.3)
        solve_dirichlet(DirichletProblem(m, PolarGrid(24, 16, 0.7, kind="disc")))
        assert len(calls) >= 1

    def test_radial_solve_stays_exactly_radial(self, pinched_solve_64, pinched_solve_l4):
        for sol in (pinched_solve_64, pinched_solve_l4):
            u = sol.u.values
            assert np.array_equal(u, np.broadcast_to(u[:, :1], u.shape))


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


class TestSubsolution:
    def test_unit_model_margin_zero(self):
        p = DirichletProblem(make_hyperbolic(1.0), PolarGrid(16, 16, 3.0))
        rep = verify_subsolution(p)
        assert rep.passed
        assert rep.margin == pytest.approx(0.0, abs=1e-14)

    def test_pinched_margin_nonnegative_with_equality_at_rim(self, pinched_metric):
        g = PolarGrid(64, 16, 3.0)
        p = DirichletProblem(pinched_metric, g)
        rep = verify_subsolution(p)
        assert rep.passed
        assert rep.margin >= -1e-12
        # equality is attained where -K reaches the ball max: the outer ring
        assert rep.worst_node[0] == g.n1 - 1
        assert rep.margin <= 1e-3

    def test_wrong_boundary_detected(self, pinched_metric):
        g = PolarGrid(32, 16, 3.0)
        b_bad = 1.0 / (2.0 * pinched_metric.bounds.c1)  # ignores the pinching
        p = DirichletProblem(pinched_metric, g, boundary_value=b_bad)
        rep = verify_subsolution(p)
        assert not rep.passed
        assert rep.margin < 0.0
