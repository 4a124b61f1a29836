"""Geodesic distances on the metric charts.

Warped polar charts use the rotational symmetry: a unit-speed geodesic
conserves c = f(r)^2 theta', which reduces the two-point problem between
(r_s, th_s) and (r_t, th_t) to a scalar solve for the turning radius rho
(where f(rho) = c), with angle sweep and arclength given by quadratures

    dtheta/dr = c / (f sqrt(f^2 - c^2)),     ds/dr = f / sqrt(f^2 - c^2).

The integrable inverse-square-root singularity at the turning point is
removed by the substitution r = rho + t^2, and each integral is split at
2 rho so the near-pole boundary layer of almost-antipodal geodesics is
resolved at any parameter value.  Simple connectivity plus strictly
negative curvature guarantee a unique connecting geodesic, so the sweep is
monotone in rho on each branch, and the geodesic grazing the smaller
radius r_a (rho = r_a) closes both brackets [lo, r_a].  The root-find is the Illinois variant of
regula falsi (Dowell & Jarratt, BIT 11, 1971) on that bracket.  It
bisects whenever the secant point leaves the bracket, or when halving
alone could only just collapse the bracket within the budget of 52
iterations plus the 8 bracket expansions.  A target stops once its sweep
is within 1e-13 max(1, target) of the target angle; the first variation
gives dd/dtheta = c, so the distance is then off by about 1e-13 f(r_max).
A target whose bracket is instead as narrow as 52 bisections would leave
it takes the length interpolated linearly in the sweep between the
bracket ends, which stays accurate where rho itself is only known to
round-off (targets next to the grazing geodesic).  Polar grids are
uniform and periodic in theta, so a distance field is solved for half of
the columns and mirrored about the source column.

``distance_field(metric, grid, node, reach)`` returns, at every node, the
geodesic distance wherever it is <= ``reach``, and a lower bound greater
than ``reach`` everywhere else.  On warped polar charts ds^2 >= dr^2, so
d >= |r - r_s|: only the rows with |r_i - r_s| <= reach are solved, and
the other rows hold |r_i - r_s|.  Callers that read d only on a ball (the
localized audits in ``estimates``) pass its radius and skip the rest of
the quadrature.  Conformal charts have no such cheap bound in chart
coordinates and solve every node whatever ``reach`` is.

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
    "distance_polar",
    "distance_field_polar",
    "distance_conformal",
    "distance_field",
]


def wrap_angle_difference(dth):
    """Reduce an angle difference to [0, pi]."""
    d = np.abs(np.mod(np.asarray(dth, dtype=float) + math.pi, 2.0 * math.pi) - math.pi)
    return d


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)
_GL_X = 0.5 * (_GL_NODES + 1.0)  # nodes on (0, 1)
_GL_W = 0.5 * _GL_WEIGHTS


def _sweep_and_length(metric, rho, R):
    """Angle sweep and arclength of the Clairaut arc from the turning radius.

    Computes I(R) = int_rho^R c dr / (f sqrt(f^2-c^2)) and
    J(R) = int_rho^R f dr / sqrt(f^2-c^2) with c = f(rho), vectorized over
    matching arrays rho, R (requires R >= rho).
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
    w1 = _GL_W * t_max[..., None] * 2.0 * t
    sweep = np.sum(w1 * c[..., None] / (f1 * den1), axis=-1)
    length = np.sum(w1 * f1 / den1, axis=-1)

    # regular remainder, log-spaced so the O(rho)-scale variation just above
    # the split stays resolved even when R/rho is large
    span = np.log(np.maximum(R / split, 1.0))
    sigma = span[..., None] * _GL_X
    r2 = split[..., None] * np.exp(sigma)
    f2 = f(r2)
    den2 = np.sqrt(np.maximum(f2 * f2 - (c * c)[..., None], 1e-300))
    w2 = _GL_W * span[..., None] * r2
    sweep = sweep + np.sum(w2 * c[..., None] / (f2 * den2), axis=-1)
    length = length + np.sum(w2 * f2 / den2, axis=-1)
    return sweep, length


_SWEEP_RTOL = 1e-13  # angle residual, relative to max(1, target)
_EXPANSIONS = 8  # lower-bracket expansions
_EVALS = _EXPANSIONS + 52  # sweeps per target: the expansions plus 52 bisections


def _branch_sweep(metric, rho, ra, rb, sign):
    """Total angle sweep and length of the arc with turning radius rho."""
    s_b, j_b = _sweep_and_length(metric, rho, rb)
    s_a, j_a = _sweep_and_length(metric, rho, ra)
    return s_b + sign * s_a, j_b + sign * j_a


def _illinois(residual, a, b, ga, gb, va, vb, tol, budget):
    """Safeguarded Illinois iteration on brackets with g(a) < 0 < g(b).

    ``residual(k, x)`` returns g and a value v at the points x of brackets
    k, where g increases on each bracket; ``va``/``vb`` are the values at
    the ends.  A bracket stops with the value at its last point when
    |g| <= tol.  It stops with v interpolated linearly in g between its
    ends when it is as narrow as 52 bisections would leave it, or after
    ``budget`` evaluations.
    """
    out = np.empty_like(a)
    k = np.arange(a.size)
    width = (b - a) * 2.0**-52
    ta, tb = ga, gb  # residuals at the ends, before Illinois halving
    moved = np.zeros(a.size)  # -1 / +1: the last step replaced a / b
    for it in range(int(np.max(budget, initial=0))):
        if k.size == 0:
            break
        w = b - a
        x = a - ga * (w / (gb - ga))
        # bisect off-bracket secant points, and whenever halving alone
        # would only just collapse the bracket within the remaining budget
        need = np.ceil(np.log2(np.maximum(w / width, 1.0)))
        bisect = ~(np.isfinite(x) & (x > a) & (x < b)) | (need >= budget - it)
        x = np.where(bisect, 0.5 * (a + b), x)
        g, v = residual(k, x)
        left = g < 0.0
        # Illinois: halve the kept end's residual when one end moves twice
        ga = np.where(left, g, np.where(~bisect & (moved > 0.0), 0.5 * ga, ga))
        gb = np.where(left, np.where(~bisect & (moved < 0.0), 0.5 * gb, gb), g)
        a, ta, va = np.where(left, x, a), np.where(left, g, ta), np.where(left, v, va)
        b, tb, vb = np.where(left, b, x), np.where(left, tb, g), np.where(left, vb, v)
        moved = np.where(bisect, 0.0, np.where(left, -1.0, 1.0))
        converged = np.abs(g) <= tol
        # v is smooth in g, so a collapsed bracket interpolates past the
        # round-off that limits x
        out[k] = np.where(converged, v, va + (vb - va) * (ta / (ta - tb)))
        keep = ~converged & (b - a > width) & (budget > it + 1)
        k, a, b, ga, gb, ta, tb, va, vb, tol, width, budget, moved = (
            q[keep] for q in (k, a, b, ga, gb, ta, tb, va, vb, tol, width, budget, moved))
    return out


def _clairaut_lengths(metric, ra, rb, target):
    """Length of the geodesic between radii ra <= rb that sweeps angle target.

    On each branch the residual g = orient (sweep - target) increases with
    the turning radius, so [lo, ra] with g(lo) < 0 < g(ra) brackets the
    root.  A lower end that does not straddle, even after expansion,
    settles on lo, as bisection would.
    """
    # the grazing geodesic, turning at ra, ends both branches
    sweep_star, len_star = _sweep_and_length(metric, ra, rb)
    through = target > sweep_star  # geodesic dips inside r_a first
    sign = np.where(through, 1.0, -1.0)
    orient = -sign  # the sweep rises with rho directly, falls through r_a

    g_hi = orient * (sweep_star - target)
    lo = np.full_like(ra, 1e-10)
    g_lo = np.empty_like(ra)
    len_lo = np.empty_like(ra)
    evals = np.zeros(ra.size, dtype=int)
    # expand the lower bracket until the sweep straddles the target
    todo = np.arange(ra.size)
    for k in range(_EXPANSIONS):
        tot, length = _branch_sweep(metric, lo[todo], ra[todo], rb[todo], sign[todo])
        g_lo[todo] = orient[todo] * (tot - target[todo])
        len_lo[todo] = length
        evals[todo] += 1
        todo = todo[through[todo] & (g_lo[todo] > 0.0)]
        if todo.size == 0 or k == _EXPANSIONS - 1:
            break
        lo[todo] *= 1e-2

    out = np.where(g_lo >= 0.0, len_lo, len_star)
    act = np.nonzero((g_lo < 0.0) & (g_hi > 0.0))[0]

    def residual(k, rho):
        i = act[k]
        tot, length = _branch_sweep(metric, rho, ra[i], rb[i], sign[i])
        return orient[i] * (tot - target[i]), length

    tol = _SWEEP_RTOL * np.maximum(1.0, target[act])
    out[act] = _illinois(residual, lo[act], ra[act], g_lo[act], g_hi[act],
                         len_lo[act], len_star[act], tol, _EVALS - evals[act])
    return out


def distance_polar(metric, source, r_t, th_t):
    """Geodesic distance from one point to arrays of points, warped polar chart."""
    r_s, th_s = float(source[0]), float(source[1])
    r_t = np.asarray(r_t, dtype=float)
    th_t = np.asarray(th_t, dtype=float)
    shape = np.broadcast(r_t, th_t).shape
    r_t = np.broadcast_to(r_t, shape).ravel()
    th_t = np.broadcast_to(th_t, shape).ravel()
    dth = wrap_angle_difference(th_t - th_s).ravel()

    r_a = np.minimum(r_t, r_s)
    r_b = np.maximum(r_t, r_s)
    out = np.empty_like(r_a)

    radial = dth < 1e-13
    antipodal = (math.pi - dth) < 1e-13
    general = ~(radial | antipodal)
    out[radial] = (r_b - r_a)[radial]
    out[antipodal] = (r_b + r_a)[antipodal]  # ray through the pole
    if np.any(general):
        out[general] = _clairaut_lengths(metric, r_a[general], r_b[general],
                                         dth[general])

    near = np.isclose(r_t, r_s, rtol=0.0, atol=1e-15) & radial
    out[near] = 0.0
    return out.reshape(shape)


def distance_field_polar(metric, grid, node, reach=math.inf):
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
    gap = np.abs(grid.q1 - grid.q1[i])
    rows = gap <= reach
    half = np.repeat(gap[:, None], k.size, axis=1)
    half[rows] = distance_polar(metric, (grid.q1[i], grid.q2[j]),
                                grid.q1[rows, None], grid.q2[cols][None, :])
    out = np.empty(grid.shape)
    out[:, cols] = half
    out[:, (j - k) % n] = half
    return out


def _conformal_rhs(metric, state):
    x, y, vx, vy = state
    p = metric.psi(x, y)
    px, py = metric.psi_grad(x, y)
    phx = px / (2.0 * p)
    phy = py / (2.0 * p)
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


def distance_field(metric, grid, node, reach=math.inf):
    """Distance from a grid node to all nodes, dispatched on the chart kind.

    Exact wherever the distance is <= ``reach``; elsewhere a lower bound
    above ``reach``.  Conformal charts solve every node.
    """
    if metric.kind == "geodesic_polar":
        return distance_field_polar(metric, grid, node, reach)
    i, j = node
    R, T = grid.mesh()
    X, Y = R * np.cos(T), R * np.sin(T)
    src = (X[i, j], Y[i, j])
    if getattr(metric, "pair_distance", None) is not None:
        return metric.pair_distance(src[0], src[1], X, Y)
    return distance_conformal(metric, src, X, Y).reshape(grid.shape)
