"""Continuation of the Dirichlet solves over an expanding sequence of balls.

Each ball is solved with the constant boundary datum 1/(2 max(-K)) (or a
configurable perturbation of it), warm-started from the previous solution
extended by the new boundary constant outside the old ball.  Interior
convergence is certified on a fixed reference grid inside the smallest
ball: the table of successive sups delta_k = max |u_{k+1} - u_k| must
decrease after the first step, mirroring the uniform interior estimates
that make the limit exist.  No convergence *rate* is asserted, only the
observed deltas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .grid import PolarGrid, ScalarField
from .solver import DirichletProblem, solve_dirichlet

__all__ = [
    "ExhaustionSchedule",
    "ExhaustionStep",
    "ExhaustionResult",
    "DivergenceError",
    "make_schedule",
    "run_exhaustion",
    "sample_bicubic",
]


class DivergenceError(RuntimeError):
    """Interior deltas increased across three consecutive steps."""

    def __init__(self, message, steps, fields):
        super().__init__(message)
        self.steps = steps
        self.fields = fields


@dataclass(frozen=True)
class ExhaustionSchedule:
    """Radii, per-radius grids, and the observation ball for convergence.

    The observation radius stays at least one unit inside the smallest
    ball so every solve controls it with room to spare.
    """

    radii: tuple
    grids: tuple
    l_obs: float
    tol: float = 1e-5
    boundary_rule: str = "standard"  # "standard" or "midpoint"
    reference_shape: tuple = (48, 64)

    def __post_init__(self):
        radii = tuple(float(l) for l in self.radii)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "grids", tuple(self.grids))
        if len(radii) != len(self.grids) or not radii:
            raise ValueError("radii and grids must align and be nonempty")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly increasing")
        if self.l_obs > radii[0] - 1.0 + 1e-12:
            raise ValueError("observation radius must satisfy l_obs <= radii[0] - 1")
        if self.boundary_rule not in ("standard", "midpoint"):
            raise ValueError(f"unknown boundary rule {self.boundary_rule!r}")
        for l, g in zip(radii, self.grids):
            if abs(g.radius - l) > 1e-12:
                raise ValueError("grid ball radius does not match schedule radius")


@dataclass(frozen=True)
class ExhaustionStep:
    l: float
    delta: float
    min_u: float
    max_u: float
    max_grad: float
    iterations: int


@dataclass
class ExhaustionResult:
    fields: list
    steps: list
    reference_grid: PolarGrid
    limit_on_reference: np.ndarray
    converged: bool
    deltas_monotone: bool


def make_schedule(metric, radii, l_obs, nodes_per_unit=16, n_theta=64,
                  tol=1e-5, boundary_rule="standard", reference_shape=(48, 64)):
    """Grids scaled with the ball: radial spacing fixed, angular count even.

    The angular count is held at ``n_theta`` by default (adequate whenever
    the data are radial); pass a larger value to resolve genuinely angular
    structure on large balls.
    """
    grids = []
    for l in radii:
        n_r = max(int(math.ceil(l * nodes_per_unit)), 16)
        grids.append(PolarGrid(n_r, n_theta, float(l)))
    return ExhaustionSchedule(tuple(radii), tuple(grids), l_obs, tol,
                              boundary_rule, reference_shape)


def sample_bicubic(field: ScalarField, r_pts, t_pts):
    """Bicubic sample of a polar grid function, pole-aware and periodic.

    The array is extended by four mirrored rows across the pole and four
    wrapped columns in theta before spline fitting, so evaluation is
    interior everywhere on (0, ball_radius] x S^1.
    """
    grid = field.grid
    v = field.values
    half = grid.n2 // 2
    pad = 4
    below = np.stack([np.roll(v[k], half) for k in range(pad)])[::-1]
    ext = np.vstack([below, v])
    r_ext = np.concatenate([-grid.q1[:pad][::-1], grid.q1])
    ext = np.hstack([ext[:, -pad:], ext, ext[:, :pad]])
    t_ext = np.concatenate([grid.q2[-pad:] - 2 * math.pi, grid.q2,
                            grid.q2[:pad] + 2 * math.pi])
    spline = RectBivariateSpline(r_ext, t_ext, ext, kx=3, ky=3)
    r_pts = np.asarray(r_pts, dtype=float)
    t_wrapped = np.mod(np.asarray(t_pts, dtype=float) - grid.theta0,
                       2 * math.pi) + grid.theta0
    if r_pts.ndim == 1 and t_wrapped.ndim == 1:
        return spline(r_pts, t_wrapped, grid=True)
    return spline(r_pts, t_wrapped, grid=False)


def _boundary_value(metric, l, rule):
    b = 1.0 / (2.0 * metric.bounds.c2_of_radius(l))
    if rule == "midpoint":
        b = 0.5 * (b + 1.0 / (2.0 * metric.bounds.c1))
    return b


def run_exhaustion(schedule: ExhaustionSchedule, metric, solver_tol=1e-10,
                   max_iter=30, keep_fields=True) -> ExhaustionResult:
    """Solve the schedule, warm-starting each ball from the previous one.

    Raises DivergenceError when the interior deltas increase across three
    consecutive steps; otherwise returns the per-step table, the final
    field, and its restriction to the reference grid.  Stops early once
    delta drops below the schedule tolerance.
    """
    ref = PolarGrid(schedule.reference_shape[0], schedule.reference_shape[1],
                    schedule.l_obs)
    R_ref, T_ref = ref.mesh()
    steps, fields = [], []
    prev_field = None
    prev_ref = None
    increases = 0
    converged = False
    deltas = []

    for l, grid in zip(schedule.radii, schedule.grids):
        b = _boundary_value(metric, l, schedule.boundary_rule)
        problem = DirichletProblem(metric, grid, boundary_value=b,
                                   tol=solver_tol, max_iter=max_iter)
        initial = None
        if prev_field is not None:
            initial = np.full(grid.shape, b)
            R, _ = grid.mesh()
            inside = R <= prev_field.ball_radius - 1e-12
            vals = sample_bicubic(prev_field.u, grid.q1, grid.q2)
            initial[inside] = vals[inside]
        sol = solve_dirichlet(problem, initial=initial)
        u_ref = sample_bicubic(sol.u, ref.q1, ref.q2)
        delta = math.nan if prev_ref is None else float(np.abs(u_ref - prev_ref).max())
        steps.append(ExhaustionStep(
            l=l,
            delta=delta,
            min_u=float(sol.u.values.min()),
            max_u=float(sol.u.values.max()),
            max_grad=float(np.sqrt(sol.hessian.grad_sq).max()),
            iterations=sol.iterations,
        ))
        if keep_fields:
            fields.append(sol)
        else:
            fields = [sol]
        if len(deltas) >= 1 and not math.isnan(delta) and delta > deltas[-1]:
            increases += 1
            if increases >= 3:
                raise DivergenceError(
                    "interior deltas increased across three consecutive steps",
                    steps, fields,
                )
        elif not math.isnan(delta):
            increases = 0
        if not math.isnan(delta):
            deltas.append(delta)
        prev_field, prev_ref = sol, u_ref
        if deltas and deltas[-1] <= schedule.tol:
            converged = True
            break

    monotone = all(b <= a for a, b in zip(deltas, deltas[1:]))
    converged = converged or (bool(deltas) and deltas[-1] <= schedule.tol)
    return ExhaustionResult(
        fields=fields,
        steps=steps,
        reference_grid=ref,
        limit_on_reference=prev_ref,
        converged=converged,
        deltas_monotone=monotone,
    )
