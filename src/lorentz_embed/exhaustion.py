"""Continuation of the Dirichlet solves over an expanding sequence of balls.

Each ball is solved with the constant boundary datum 1/(2 max(-K)) (or a
configurable perturbation of it), starting from that constant: no ball
starts from the previous one.  Interior convergence is certified on a
fixed 48 x 64 reference grid inside the smallest ball: the table of
successive sups delta_k = max |u_{k+1} - u_k| must decrease after the
first step, mirroring the uniform interior estimates that make the limit
exist.  No convergence *rate* is asserted, only the observed deltas.
The run ends when a delta meets the schedule tolerance, when the deltas
increase across three consecutive steps (it diverged), or at the last
ball; the result records which, with every ball solved until then.

An ExhaustionSchedule takes the run config's grid and exhaustion keys,
builds each ball's grid and checks its own rules.  A schedule may also be
a single conformal chart disc (kind "disc"): one solve, so its table has
one row and no delta, and nothing is sampled on the reference grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .grid import PolarGrid, ScalarField, ghost_rows_below
from .solver import DirichletProblem, _tridiagonal_solve, solve_dirichlet

__all__ = [
    "ExhaustionSchedule",
    "ExhaustionStep",
    "ExhaustionResult",
    "run_exhaustion",
    "sample_bicubic",
]

# (n1, n2) of the grid on the observation ball where the deltas are read
_REFERENCE_SHAPE = (48, 64)
# rings of a ball's grid the observation radius must cover for embed's
# audits; config validation checks it on every ball of a schedule
_MIN_OBS_RINGS = 4
# splines per block of sample_bicubic: 150 kB of data, right sides and slopes on 192 rings
_COLUMNS = 32


def _observation_rings(grid, l_obs):
    """Rings of ``grid`` below l_obs + 1e-12, the rows embed audits."""
    return int(np.searchsorted(grid.q1, l_obs + 1e-12))


@dataclass(frozen=True)
class ExhaustionSchedule:
    """Radii, the grid of each ball, and the observation ball for convergence.

    Grids keep the radial spacing 1/nodes_per_unit (at least 16 rings), or
    have ``n_r`` rings, and ``n_theta`` angles.  The parameters are the run
    config's grid and exhaustion keys, and each rule raises the line config
    validation prints.  On geodesic balls the observation radius stays at
    least one unit inside the smallest ball so every solve controls it with
    room to spare; on a chart disc, whose radius is below 1, it lies
    strictly inside the disc.
    """

    radii: tuple
    l_obs: float
    nodes_per_unit: float = 16
    n_theta: int = 64
    tol: float = 1e-5
    boundary_rule: str = "standard"  # "standard" or "midpoint"
    n_r: int | None = None
    kind: str = "polar"  # of every grid: "polar" or "disc"
    grids: tuple = dataclass_field(init=False, repr=False)

    def __post_init__(self):
        radii = tuple(float(l) for l in self.radii)
        object.__setattr__(self, "radii", radii)
        if not radii or radii[0] <= 0 or any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("exhaustion.radii: must be a strictly increasing positive list")
        if self.boundary_rule not in ("standard", "midpoint"):
            raise ValueError("exhaustion.boundary_rule: must be 'standard' or 'midpoint'")
        if self.kind != "disc" and self.l_obs > radii[0] - 1.0 + 1e-12:
            raise ValueError("exhaustion.l_obs: must be <= radii[0] - 1")
        if self.kind == "disc" and self.l_obs >= radii[0]:
            raise ValueError("exhaustion.l_obs: must be < radii[0] on a chart disc")
        object.__setattr__(self, "grids", tuple(
            PolarGrid(self.n_r or max(math.ceil(l * self.nodes_per_unit), 16), self.n_theta,
                      l, kind=self.kind) for l in radii))


@dataclass(frozen=True)
class ExhaustionStep:
    l: float
    delta: float
    min_u: float
    max_u: float
    max_grad: float


@dataclass
class ExhaustionResult:
    """The solved balls, their table and how the run ended.

    limit_on_reference is the last field sampled on the reference grid
    (read-only on a radial ball), or None on a one-ball schedule.
    ``last_delta`` is the last delta taken and ``met_tol`` whether it is
    at most the schedule tolerance, both None when no delta was taken;
    ``diverged`` says the deltas increased across three consecutive steps.
    """

    fields: list
    steps: list
    limit_on_reference: np.ndarray | None
    last_delta: float | None
    met_tol: bool | None
    diverged: bool
    deltas_monotone: bool


def _knot_slopes(Y):
    """Knot slopes of the not-a-knot splines through (k, Y[k, j]), one per column j.

    Interior rows are s[k-1] + 4 s[k] + s[k+1] = 3 (y[k+1] - y[k-1]); the
    not-a-knot end rows s[0] + 2 s[1] and 2 s[m-2] + s[m-1] keep the system
    tridiagonal (de Boor, A Practical Guide to Splines, ch. IV).
    """
    rhs = np.empty(Y.shape)
    rhs[0] = -2.5 * Y[0] + 2.0 * Y[1] + 0.5 * Y[2]
    np.subtract(Y[2:], Y[:-2], out=rhs[1:-1])
    rhs[1:-1] *= 3.0
    rhs[-1] = -0.5 * Y[-3] - 2.0 * Y[-2] + 2.5 * Y[-1]
    ones, fours = [1.0] * (len(Y) - 2), [4.0] * (len(Y) - 2)
    return _tridiagonal_solve([0.0, *ones, 2.0], [1.0, *fours, 1.0], [2.0, *ones, 0.0], rhs)


def _not_a_knot(Y, x):
    """Not-a-knot splines through (k, Y[k, j]), one per column j, at x clamped to [0, m - 1]."""
    m = Y.shape[0]
    s = _knot_slopes(Y)
    x = np.clip(x, 0.0, m - 1.0)
    i = np.minimum(x.astype(np.intp), m - 2)
    t = (x - i)[:, None]
    return ((1.0 + 2.0 * t) * (1.0 - t) ** 2 * Y[i] + t * t * (3.0 - 2.0 * t) * Y[i + 1]
            + t * (1.0 - t) * ((1.0 - t) * s[i] - t * s[i + 1]))


def sample_bicubic(field: ScalarField, r_pts, t_pts):
    """Bicubic sample of a polar grid function on the mesh r_pts x t_pts.

    The array is extended by four mirrored rows across the pole and four
    wrapped columns in theta, then interpolated by the tensor product of
    not-a-knot cubic splines on the uniform extended nodes, so evaluation
    is interior everywhere on (0, ball_radius] x S^1.  The splines' Hermite
    pieces, from the data and the banded knot slopes, are evaluated along r
    at r_pts, then along theta at t_pts, _COLUMNS splines at a time.  A
    field constant along theta (``field.column``; every radial ball) is
    sampled on that column, returned read-only, broadcast along theta.
    """
    grid, pad = field.grid, 4
    # node k of the extension sits at r = (k - pad + 1/2) h1, theta0 + (k - pad) h2
    r_k = np.asarray(r_pts, dtype=float) / grid.h1 + (pad - 0.5)
    t_k = np.mod(np.asarray(t_pts, dtype=float) - grid.theta0, 2 * math.pi) / grid.h2 + pad
    values = field.values if field.column is None else field.column
    ghosts = ghost_rows_below(values[:pad], pad)[:pad]
    blocks = (np.vstack([ghosts[:, j:j + _COLUMNS], values[:, j:j + _COLUMNS]])
              for j in range(0, values.shape[1], _COLUMNS))
    rows = np.hstack([_not_a_knot(Y, r_k) for Y in blocks])
    if rows.shape[1] == 1:
        return np.broadcast_to(rows, (r_k.size, t_k.size))
    rows = np.pad(rows, ((0, 0), (pad, pad)), mode="wrap")
    return np.vstack([_not_a_knot(rows[j:j + _COLUMNS].T, t_k).T
                      for j in range(0, r_k.size, _COLUMNS)])


def _boundary_value(metric, l, rule):
    b = 1.0 / (2.0 * metric.bounds.c2_of_radius(l))
    if rule == "midpoint":
        b = 0.5 * (b + 1.0 / (2.0 * metric.bounds.c1))
    return b


def run_exhaustion(schedule: ExhaustionSchedule, metric, solver_tol=1e-10,
                   max_iter=30) -> ExhaustionResult:
    """Solve the schedule, each ball from its constant boundary datum.

    Returns the per-step table, every field solved, the last one's
    restriction to the reference grid (None on a one-ball schedule) and
    how the run ended.  Stops early once a delta drops below the schedule
    tolerance, or once the deltas increase across three consecutive steps.
    """
    ref = PolarGrid(*_REFERENCE_SHAPE, schedule.l_obs, kind=schedule.kind)
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
                                    float(np.sqrt(sol.hessian.grad_sq).max())))
        fields.append(sol)
        prev_ref = u_ref
        if not math.isnan(delta):
            increases = increases + 1 if deltas and delta > deltas[-1] else 0
            deltas.append(delta)
            if increases >= 3 or delta <= schedule.tol:
                break

    last = deltas[-1] if deltas else None
    return ExhaustionResult(
        fields=fields,
        steps=steps,
        limit_on_reference=prev_ref,
        last_delta=last,
        met_tol=None if last is None else last <= schedule.tol,
        diverged=increases >= 3,
        deltas_monotone=all(b <= a for a, b in zip(deltas, deltas[1:])),
    )
