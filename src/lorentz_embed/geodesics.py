"""Geodesic distances on the metric charts.

Warped polar charts use the rotational symmetry: a unit-speed geodesic
conserves c = f(r)^2 theta', which parametrizes the geodesics between two
radii by their turning radius rho (where f(rho) = c), with angle sweep and
arclength given by quadratures

    dtheta/dr = c / (f sqrt(f^2 - c^2)),     ds/dr = f / sqrt(f^2 - c^2).

The integrable inverse-square-root singularity at the turning point is
removed by the substitution r = rho + t^2, and each integral is split at
2 rho so the near-pole boundary layer of almost-antipodal geodesics is
resolved at any parameter value; each piece is a 24-node Gauss-Legendre
rule.  Simple connectivity plus strictly negative curvature guarantee a
unique connecting geodesic, so the sweep is monotone along the family below.

A distance field solves a grid row at a time: the targets of a row share
(r_a, r_b) and differ only in angle.  With t in [-1, 1] and
rho = r_a (1 - t^2), t > 0 the direct branch and t < 0 the one through
r_a, the sweep S(rho, r_b) - sign(t) S(rho, r_a) is smooth and monotone
from 0 (t = 1, the radial ray) to pi (t = -1, the ray through the pole),
because S(rho, r_a) is proportional to sqrt(r_a - rho) = sqrt(r_a) |t|.  A
row at the source radius has the through branch alone, t in [-1, 0].
Each row tabulates the sweep at 32 Chebyshev-Lobatto points of t, and
Newton on the interpolant (summed by Clenshaw's recurrence), started
between the bracketing table points, gives every target of the row its
parameter.  Two exact evaluations polish it, each a Newton step with the
interpolant's slope, and the first variation dd/dtheta = c takes the
length from the last one to the target angle, L + f(rho) (theta - sweep),
leaving an error of second order in the sweep residual.  A target whose
residual is still above _POLISH_TOL halves its table bracket 52 times by
exact sweeps and takes the same correction at the midpoint.  The
arithmetic is local to a row, so a row's distances do not depend on which
other rows are solved.  Polar grids are uniform and periodic in theta, so
a distance field is solved for half of the column offsets and mirrored
about the source column: the fields from the nodes of one ring are rolls
of one another, bit for bit.

A metric's ``distance_field(grid, node, reach)`` (the audits call it as
``estimates.distance_field``) imports this module on first use.  It gives
the geodesic distance at every node where it is <= ``reach``, and a lower
bound greater than ``reach`` everywhere else.  On warped polar charts
(``warped_distance_field``) ds^2 >= dr^2, so d >= |r - r_s|: only the rows
with |r_i - r_s| <= reach are solved, and the other rows hold |r_i - r_s|.
Callers that read d only on a ball (the localized audits in ``estimates``)
pass its radius and skip the rest of the quadrature.  Conformal charts shoot
(``distance_conformal``) only the nodes where their closed-form lower bound
``pair_distance`` is <= ``reach``, and none at eps = 0, where it is exact.

Conformal charts integrate the geodesic flow in Cartesian chart coordinates
(the conformal Christoffel symbols are smooth across the chart origin) and
shoot with a Newton iteration on launch angle and arclength.  A target
leaves the iteration once its endpoint error meets the tolerance, so
only the targets still above it are shot again.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "wrap_angle_difference",
    "warped_distance_field",
    "distance_conformal",
]


def wrap_angle_difference(dth):
    """Reduce an angle difference to [0, pi]."""
    d = np.abs(np.mod(np.asarray(dth, dtype=float) + math.pi, 2.0 * math.pi) - math.pi)
    return d


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GL_X = 0.5 * (_GL_NODES + 1.0)  # nodes on (0, 1)
_GL_W = 0.5 * _GL_WEIGHTS


def _sweep_and_length(metric, rho, R):
    """Angle sweep and arclength of the Clairaut arc from the turning radius.

    Computes I(R) = int_rho^R c dr / (f sqrt(f^2-c^2)) and
    J(R) = int_rho^R f dr / sqrt(f^2-c^2) with c = f(rho), vectorized over
    arrays rho and R that broadcast together (requires R >= rho).
    """
    f = metric.f
    rho = np.asarray(rho, dtype=float)
    R = np.asarray(R, dtype=float)
    c = f(rho)
    split = np.minimum(2.0 * rho + 1e-9, R)

    # singular piece via r = rho + t^2
    t_max = np.sqrt(np.maximum(split - rho, 0.0))
    t = t_max[..., None] * _GL_X
    r1 = rho[..., None] + t * t
    f1 = f(r1)
    diff = f1 - c[..., None]
    # near the turning point the direct difference is roundoff-dominated;
    # switch to f(rho + t^2) - f(rho) ~ t^2 f'(rho + t^2/2) there only
    near = ~(diff > 1e-11 * c[..., None])
    if np.any(near):
        tn = t[near]
        rho_n = np.broadcast_to(rho[..., None], t.shape)[near]
        diff[near] = tn * tn * metric.f_prime(rho_n + 0.5 * tn * tn)
    den1 = np.sqrt(np.maximum(diff * (f1 + c[..., None]), 1e-300))
    q1 = _GL_W * t / den1  # dr = 2 t dt and dt = t_max dx
    # arrays also for scalar rho and R: the remainder adds in place
    sweep = np.asarray(2.0 * t_max * c * np.sum(q1 / f1, axis=-1))
    length = np.asarray(2.0 * t_max * np.sum(q1 * f1, axis=-1))

    # regular remainder, on the arcs that reach past the split only, and
    # log-spaced so the O(rho)-scale variation just above the split stays
    # resolved even when R/rho is large
    span = np.log(np.maximum(R / split, 1.0))
    far = span > 0.0
    span, c = span[far], np.broadcast_to(c, far.shape)[far]
    r2 = split[far][:, None] * np.exp(span[:, None] * _GL_X)
    f2 = f(r2)
    den2 = np.sqrt(np.maximum(f2 * f2 - (c * c)[:, None], 1e-300))
    q2 = _GL_W * r2 / den2  # dr = r dsigma and dsigma = span dx
    sweep[far] += span * c * np.sum(q2 / f2, axis=-1)
    length[far] += span * np.sum(q2 * f2, axis=-1)
    return sweep, length


_TABLE_NODES = 32  # Chebyshev-Lobatto points of each row's sweep table
_PSI = np.linspace(0.0, math.pi, _TABLE_NODES)  # the table points are cos(_PSI)
_ORDERS = np.arange(_TABLE_NODES)
# a = sum_j _CHEB[k, j] y_j: Chebyshev coefficients of the interpolant through
# (cos psi_j, y_j), so that p(psi) = sum_k a_k cos(k psi)
_CHEB = (2.0 / (_TABLE_NODES - 1)) * np.cos(np.outer(_ORDERS, _PSI))
_CHEB[:, [0, -1]] *= 0.5
_CHEB[[0, -1]] *= 0.5
_TABLE_NEWTON = 4  # Newton steps on the interpolant
# largest sweep residual the first-variation correction takes: it leaves an
# error of (1/2) |dc/dtheta| residual^2, below 1e-13 on the charts tested
_POLISH_TOL = 1e-7


def _row_arcs(metric, ra, rb, psi):
    """Turning radius, sweep and length of the row geodesics at table angle psi.

    t = cos(psi), or (cos(psi) - 1) / 2 on rows with ra == rb, and
    rho = ra (1 - t^2): the sweep increases with psi from 0 to pi.
    """
    s = np.cos(psi)
    t = np.where(ra == rb, 0.5 * (s - 1.0), s)
    rho = ra * (1.0 - t * t)
    s_b, j_b = _sweep_and_length(metric, rho, rb)
    s_a, j_a = _sweep_and_length(metric, rho, ra)
    sign = np.sign(t)
    return rho, s_b - sign * s_a, j_b - sign * j_a


def _interpolant(coef, psi):
    """The row interpolants p = sum_k a_k T_k(cos psi) and dp/dpsi = -sin(psi)
    sum_k k a_k U_{k-1}(cos psi) at each target's psi, by Clenshaw's recurrence in
    Reinsch's form (s = +-1 the sign of cos psi, u = 2 (cos psi - s), d_k = b_k -
    s b_{k+1}), whose round-off stays flat up to psi = 0 and pi."""
    s = np.where(psi <= 0.5 * math.pi, 1.0, -1.0)
    u = np.where(s > 0, -4.0 * np.sin(0.5 * psi) ** 2, 4.0 * np.cos(0.5 * psi) ** 2)
    a = np.stack([coef, coef * _ORDERS])  # the two series side by side
    b = d = np.zeros((2,) + psi.shape)
    for k in range(_TABLE_NODES - 1, 0, -1):
        d = a[..., k] + u * b + s * d
        b = d + s * b
    return coef[..., 0] + 0.5 * u * b[0] + s * d[0], -np.sin(psi) * b[1]


def _row_lengths(metric, ra, rb, target):
    """Clairaut lengths of row targets: ra, rb of shape (rows,), target (rows, cols).

    One sweep table per row, inverted for all of the row's targets, then
    the polish and the bisection fallback (see the module docstring).
    """
    ra, rb = ra[:, None], rb[:, None]
    _, sweep, _ = _row_arcs(metric, ra, rb, _PSI)
    # the ends: the radial ray (or the same-radius grazing arc) sweeps 0, and
    # the ray through the pole pi
    sweep[:, 0] = 0.0
    sweep[:, -1] = math.pi
    coef = np.sum(sweep[:, None, :] * _CHEB, axis=-1)[:, None, :]

    # bracket each target between table angles, then Newton on the interpolant
    ge = np.sum(sweep[:, None, :] <= target[..., None], axis=-1)
    hi = np.clip(ge, 1, _TABLE_NODES - 1)
    y0 = np.take_along_axis(sweep, hi - 1, axis=1)
    y1 = np.take_along_axis(sweep, hi, axis=1)
    lo_psi, hi_psi = _PSI[hi - 1], _PSI[hi]
    psi = lo_psi + (hi_psi - lo_psi) * np.clip((target - y0) / (y1 - y0), 0.0, 1.0)
    for _ in range(_TABLE_NEWTON):
        p, dp = _interpolant(coef, psi)
        psi = np.clip(psi - (p - target) / dp, lo_psi, hi_psi)

    _, dp = _interpolant(coef, psi)
    _, sw, _ = _row_arcs(metric, ra, rb, psi)
    psi = np.clip(psi - (sw - target) / dp, 0.0, math.pi)
    rho, sw, length = _row_arcs(metric, ra, rb, psi)
    resid = target - sw
    out = length + metric.f(rho) * resid
    bad = ~(np.abs(resid) <= _POLISH_TOL)
    if np.any(bad):
        ra_b, rb_b = np.broadcast_to(ra, out.shape)[bad], np.broadcast_to(rb, out.shape)[bad]
        out[bad] = _bisect_lengths(metric, ra_b, rb_b, target[bad], lo_psi[bad], hi_psi[bad])
    return out


def _bisect_lengths(metric, ra, rb, target, lo, hi):
    """Lengths of the targets the polish left above _POLISH_TOL.

    The sweep increases with psi on each table bracket [lo, hi], so 52
    halvings by exact sweeps leave psi at round-off, and the first variation
    takes the length at the midpoint to the target angle.
    """
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        _, sw, _ = _row_arcs(metric, ra, rb, mid)
        below = sw <= target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    rho, sw, length = _row_arcs(metric, ra, rb, 0.5 * (lo + hi))
    return length + metric.f(rho) * (target - sw)


def warped_distance_field(metric, grid, node, reach=math.inf):
    """Distance from grid node (i, j) to every node, as a grid-shaped array.

    Only the rows with |r_i - r_s| <= ``reach`` are solved; the others hold
    |r_i - r_s|, a lower bound above ``reach`` (see the module docstring).
    The theta grid is uniform and periodic, so d(i, j + k) = d(i, j - k):
    only the offsets k = 0..n/2 are solved, and the rest are mirrored.
    """
    i, j = node
    n = grid.n2
    k = np.arange(n // 2 + 1)
    cols = (j + k) % n
    r_s = grid.q1[i]
    gap = np.abs(grid.q1 - r_s)
    rows = gap <= reach
    half = np.repeat(gap[:, None], k.size, axis=1)
    r = grid.q1[rows]
    r_a, r_b = np.minimum(r, r_s), np.maximum(r, r_s)
    # offsets from column 0, so the solved half does not depend on j
    dth = wrap_angle_difference(grid.q2[k] - grid.q2[0])
    # the radial and antipodal columns in closed form
    band = np.where(dth < 1e-13, (r_b - r_a)[:, None], (r_b + r_a)[:, None])
    general = (dth >= 1e-13) & (math.pi - dth >= 1e-13)
    band[:, general] = _row_lengths(metric, r_a, r_b,
                                    np.broadcast_to(dth[general], (r.size, general.sum())))
    band[(np.abs(r - r_s) <= 1e-15)[:, None] & (dth < 1e-13)] = 0.0
    half[rows] = band
    out = np.empty(grid.shape)
    out[:, cols] = half
    out[:, (j - k) % n] = half
    return out


def _conformal_rhs(metric, state):
    x, y, vx, vy = state
    phx, phy = metric.phi_grad(x, y)
    ax = -phx * (vx * vx - vy * vy) - 2.0 * phy * vx * vy
    ay = phy * (vx * vx - vy * vy) - 2.0 * phx * vx * vy
    return np.array([vx, vy, ax, ay])


def _shoot_conformal(metric, source, alpha, length, n_steps):
    """Batched fixed-step RK4 of the geodesic flow; returns endpoint and velocity."""
    x0, y0 = source
    p0 = metric.psi(np.asarray(x0), np.asarray(y0))
    inv = 1.0 / np.sqrt(p0)
    state = np.vstack([
        np.full_like(alpha, x0),
        np.full_like(alpha, y0),
        inv * np.cos(alpha),
        inv * np.sin(alpha),
    ])
    h = length / n_steps
    for _ in range(n_steps):
        k1 = _conformal_rhs(metric, state)
        k2 = _conformal_rhs(metric, state + 0.5 * h * k1)
        k3 = _conformal_rhs(metric, state + 0.5 * h * k2)
        k4 = _conformal_rhs(metric, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return state


def distance_conformal(metric, source_xy, x_t, y_t, n_steps=384, tol=1e-10,
                       max_newton=40):
    """Two-point geodesic distance on a conformal chart by Newton shooting.

    Unknowns per target are the launch angle and the arclength; the
    arclength sensitivity is the endpoint velocity and the angle
    sensitivity is differenced.  Sub-chart-scale targets are resolved to
    tolerance ``tol`` in metric units.
    """
    x_t = np.asarray(x_t, dtype=float).ravel()
    y_t = np.asarray(y_t, dtype=float).ravel()
    x0, y0 = float(source_xy[0]), float(source_xy[1])
    dx, dy = x_t - x0, y_t - y0
    chord = np.hypot(dx, dy)
    degenerate = chord < 1e-14

    alpha = np.arctan2(dy, dx)
    pm = metric.psi(0.5 * (x_t + x0), 0.5 * (y_t + y0))
    length = np.maximum(chord * np.sqrt(pm), 1e-12)

    dalpha = 1e-7
    scale = np.sqrt(metric.psi(x_t, y_t))
    act = np.nonzero(~degenerate)[0]  # targets still above tol
    err = np.zeros(0)
    for _ in range(max_newton):
        st = _shoot_conformal(metric, (x0, y0), alpha[act], length[act], n_steps)
        rx = st[0] - x_t[act]
        ry = st[1] - y_t[act]
        err = np.hypot(rx, ry) * scale[act]
        keep = ~(err <= tol)  # a NaN error stays active
        act, st, rx, ry, err = act[keep], st[:, keep], rx[keep], ry[keep], err[keep]
        if act.size == 0:
            break
        st_a = _shoot_conformal(metric, (x0, y0), alpha[act] + dalpha, length[act],
                                n_steps)
        j11 = (st_a[0] - st[0]) / dalpha
        j21 = (st_a[1] - st[1]) / dalpha
        j12, j22 = st[2], st[3]
        det = j11 * j22 - j12 * j21
        det = np.where(np.abs(det) < 1e-300, 1e-300, det)
        da = (-rx * j22 + ry * j12) / det
        dl = (-j11 * ry + j21 * rx) / det
        # damp large corrections; the initial guess is a chart-flat chord
        lim = 0.5 * (1.0 + length[act])
        da = np.clip(da, -1.0, 1.0)
        dl = np.clip(dl, -lim, lim)
        alpha[act] = alpha[act] + da
        length[act] = np.maximum(length[act] + dl, 1e-12)
    if act.size:
        worst = float(np.max(err, initial=0.0))
        raise RuntimeError(
            f"geodesic shooting did not converge (worst endpoint error {worst:.3e})"
        )
    return np.where(degenerate, 0.0, length)

