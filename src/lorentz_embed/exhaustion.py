"""Continuation of the Dirichlet solves over an expanding sequence of balls.

Each ball is solved with the constant boundary datum 1/(2 max(-K)) (or a
configurable perturbation of it), starting from that constant: no ball
starts from the previous one.  Interior convergence is certified on a
fixed 48 x 64 reference grid inside the smallest ball: the table of
successive sups delta_k = max |u_{k+1} - u_k| must decrease after the
first step, mirroring the uniform interior estimates that make the limit
exist.  No convergence *rate* is asserted, only the observed deltas.
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

# (n1, n2) of the grid on the observation ball where the deltas are read
_REFERENCE_SHAPE = (48, 64)


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

    @classmethod
    def of(cls, l, delta, sol):
        """The table row of the ball of radius l, solved as ``sol``."""
        return cls(l, delta, float(sol.u.values.min()), float(sol.u.values.max()),
                   float(np.sqrt(sol.hessian.grad_sq).max()), sol.iterations)


@dataclass
class ExhaustionResult:
    fields: list
    steps: list
    limit_on_reference: np.ndarray
    converged: bool
    deltas_monotone: bool


def make_schedule(radii, l_obs, nodes_per_unit=16, n_theta=64,
                  tol=1e-5, boundary_rule="standard"):
    """Grids scaled with the ball: radial spacing fixed, angular count even.

    The angular count is held at ``n_theta`` by default (adequate whenever
    the data are radial); pass a larger value to resolve genuinely angular
    structure on large balls.
    """
    grids = []
    for l in radii:
        n_r = max(int(math.ceil(l * nodes_per_unit)), 16)
        grids.append(PolarGrid(n_r, n_theta, float(l)))
    return ExhaustionSchedule(tuple(radii), tuple(grids), l_obs, tol, boundary_rule)


def sample_bicubic(field: ScalarField, r_pts, t_pts):
    """Bicubic sample of a polar grid function on the mesh r_pts x t_pts.

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
    t_wrapped = np.mod(np.asarray(t_pts, dtype=float) - grid.theta0,
                       2 * math.pi) + grid.theta0
    return spline(np.asarray(r_pts, dtype=float), t_wrapped)


def _boundary_value(metric, l, rule):
    b = 1.0 / (2.0 * metric.bounds.c2_of_radius(l))
    if rule == "midpoint":
        b = 0.5 * (b + 1.0 / (2.0 * metric.bounds.c1))
    return b


def run_exhaustion(schedule: ExhaustionSchedule, metric, solver_tol=1e-10,
                   max_iter=30) -> ExhaustionResult:
    """Solve the schedule, each ball from its constant boundary datum.

    Raises DivergenceError when the interior deltas increase across three
    consecutive steps; otherwise returns the per-step table, every field
    solved, and the last one's restriction to the reference grid.  Stops
    early once delta drops below the schedule tolerance.
    """
    ref = PolarGrid(*_REFERENCE_SHAPE, schedule.l_obs)
    steps, fields = [], []
    prev_ref = None
    increases = 0
    deltas = []

    for l, grid in zip(schedule.radii, schedule.grids):
        b = _boundary_value(metric, l, schedule.boundary_rule)
        problem = DirichletProblem(metric, grid, boundary_value=b,
                                   tol=solver_tol, max_iter=max_iter)
        sol = solve_dirichlet(problem)
        u_ref = sample_bicubic(sol.u, ref.q1, ref.q2)
        delta = math.nan if prev_ref is None else float(np.abs(u_ref - prev_ref).max())
        steps.append(ExhaustionStep.of(l, delta, sol))
        fields.append(sol)
        if not math.isnan(delta):
            increases = increases + 1 if deltas and delta > deltas[-1] else 0
            if increases >= 3:
                raise DivergenceError(
                    "interior deltas increased across three consecutive steps",
                    steps, fields,
                )
            deltas.append(delta)
        prev_ref = u_ref
        if deltas and deltas[-1] <= schedule.tol:
            break

    monotone = all(b <= a for a, b in zip(deltas, deltas[1:]))
    converged = bool(deltas) and deltas[-1] <= schedule.tol
    return ExhaustionResult(
        fields=fields,
        steps=steps,
        limit_on_reference=prev_ref,
        converged=converged,
        deltas_monotone=monotone,
    )
