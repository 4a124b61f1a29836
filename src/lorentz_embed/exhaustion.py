"""Continuation of the Dirichlet solves over an expanding sequence of balls.

Each ball is solved with the constant boundary datum 1/(2 max(-K)) (or a
configurable perturbation of it), starting from that constant: no ball
starts from the previous one.  Interior convergence is certified on a
fixed 48 x 64 reference grid inside the smallest ball: the table of
successive sups delta_k = max |u_{k+1} - u_k| must decrease after the
first step, mirroring the uniform interior estimates that make the limit
exist.  No convergence *rate* is asserted, only the observed deltas.

A schedule may also be a single conformal chart disc (grids of kind
"disc"): one solve, so its table has one row and no delta, and nothing is
sampled on the reference grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import PolarGrid, ScalarField, ghost_rows_below
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
# rings of a ball's grid the observation radius must cover for embed's
# audits; config validation checks it on every ball of a schedule
_MIN_OBS_RINGS = 4


class DivergenceError(RuntimeError):
    """Interior deltas increased across three consecutive steps."""

    def __init__(self, message, steps, fields):
        super().__init__(message)
        self.steps = steps
        self.fields = fields


@dataclass(frozen=True)
class ExhaustionSchedule:
    """Radii, per-radius grids, and the observation ball for convergence.

    On geodesic balls the observation radius stays at least one unit inside
    the smallest ball so every solve controls it with room to spare; on a
    chart disc, whose radius is below 1, it lies strictly inside the disc.
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
        if self.grids[0].kind == "disc":
            if not 0.0 < self.l_obs < radii[0]:
                raise ValueError("observation radius on a chart disc must satisfy "
                                 "0 < l_obs < radii[0]")
        elif self.l_obs > radii[0] - 1.0 + 1e-12:
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
    """The solved balls and their table.

    limit_on_reference is the last field sampled on the reference grid, or
    None on a one-ball schedule, where no delta is taken.
    """

    fields: list
    steps: list
    limit_on_reference: np.ndarray | None
    converged: bool
    deltas_monotone: bool


def make_schedule(radii, l_obs, nodes_per_unit=16, n_theta=64,
                  tol=1e-5, boundary_rule="standard", n_r=None, kind="polar"):
    """Grids scaled with the ball: radial spacing fixed, angular count even.

    The angular count is held at ``n_theta`` by default (adequate whenever
    the data are radial); pass a larger value to resolve genuinely angular
    structure on large balls.  ``n_r`` fixes the radial count of every
    grid instead.  The parameters carry the names of the run config's
    grid and exhaustion keys.
    """
    grids = [PolarGrid(n_r or max(int(math.ceil(l * nodes_per_unit)), 16), n_theta,
                       float(l), kind=kind) for l in radii]
    return ExhaustionSchedule(tuple(radii), tuple(grids), l_obs, tol, boundary_rule)


@lru_cache(maxsize=None)
def _knot_slopes(m):
    """Read-only S, S @ y the knot slopes of the not-a-knot spline through (k, y[k]).

    Interior rows are s[k-1] + 4 s[k] + s[k+1] = 3 (y[k+1] - y[k-1]); the
    two end rows are the not-a-knot conditions.
    """
    k = np.arange(1, m - 1)
    A = np.zeros((m, m))
    A[k, k] = 4.0
    A[k, k - 1] = A[k, k + 1] = 1.0
    A[0, :2] = 1.0, 2.0
    A[-1, -2:] = 2.0, 1.0
    rhs = np.zeros((m, m))
    rhs[k, k - 1] = -3.0
    rhs[k, k + 1] = 3.0
    rhs[0, :3] = -2.5, 2.0, 0.5
    rhs[-1, -3:] = -0.5, -2.0, 2.5
    slopes = np.linalg.solve(A, rhs)
    slopes.flags.writeable = False
    return slopes


def _not_a_knot_weights(m, x):
    """W with W @ y the not-a-knot cubic spline through (k, y[k]), k < m, at x.

    The knot slopes of every data column come from _knot_slopes; each
    point, clamped to [0, m - 1], takes the cubic Hermite piece of its cell.
    """
    slopes = _knot_slopes(m)
    x = np.clip(x, 0.0, m - 1.0)
    i = np.minimum(x.astype(np.intp), m - 2)
    t = (x - i)[:, None]
    W = t * (1.0 - t) * ((1.0 - t) * slopes[i] - t * slopes[i + 1])
    W += 0.0  # -0.0 to 0.0: the bits of adding the value terms' zeros off the cell
    rows = np.arange(x.size)
    W[rows, i] += ((1.0 + 2.0 * t) * (1.0 - t) ** 2)[:, 0]
    W[rows, i + 1] += (t * t * (3.0 - 2.0 * t))[:, 0]
    return W


def sample_bicubic(field: ScalarField, r_pts, t_pts):
    """Bicubic sample of a polar grid function on the mesh r_pts x t_pts.

    The array is extended by four mirrored rows across the pole and four
    wrapped columns in theta, then interpolated by the tensor product of
    not-a-knot cubic splines on the uniform extended nodes, so evaluation
    is interior everywhere on (0, ball_radius] x S^1.
    """
    grid = field.grid
    pad = 4
    # node k of the extension sits at r = (k - pad + 1/2) h1, theta0 + (k - pad) h2
    r_k = np.asarray(r_pts, dtype=float) / grid.h1 + (pad - 0.5)
    t_k = np.mod(np.asarray(t_pts, dtype=float) - grid.theta0, 2 * math.pi) / grid.h2 + pad
    # the weights first: a new size's knot slopes take their dense solve
    # before the padded array exists
    W_r = _not_a_knot_weights(grid.n1 + pad, r_k)
    W_t = _not_a_knot_weights(grid.n2 + 2 * pad, t_k)
    ext = ghost_rows_below(field.values, pad)
    ext = np.hstack([ext[:, -pad:], ext, ext[:, :pad]])
    return W_r @ ext @ W_t.T


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
    solved, and the last one's restriction to the reference grid (None on
    a one-ball schedule).  Stops early once delta drops below the schedule
    tolerance.
    """
    ref = PolarGrid(*_REFERENCE_SHAPE, schedule.l_obs, kind=schedule.grids[0].kind)
    sample = len(schedule.radii) > 1
    steps, fields = [], []
    prev_ref = None
    increases = 0
    deltas = []

    for l, grid in zip(schedule.radii, schedule.grids):
        b = _boundary_value(metric, l, schedule.boundary_rule)
        problem = DirichletProblem(metric, grid, boundary_value=b,
                                   tol=solver_tol, max_iter=max_iter)
        sol = solve_dirichlet(problem)
        u_ref = sample_bicubic(sol.u, ref.q1, ref.q2) if sample else None
        delta = math.nan if prev_ref is None else float(np.abs(u_ref - prev_ref).max())
        steps.append(ExhaustionStep(l, delta, float(sol.u.values.min()),
                                    float(sol.u.values.max()),
                                    float(np.sqrt(sol.hessian.grad_sq).max()), sol.iterations))
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
