"""Independent oracles used by the tests.

Everything here is deliberately decoupled from the library's numerics,
apart from the one quadrature named at the end: the radial two-point boundary value problem is solved by shooting with a
high-order adaptive integrator (the warp function is re-integrated inside
the same flow, so not even the metric module's fixed-step integration is
shared), and distances/embeddings of the constant-curvature model come
from closed forms.  The Newton steps of the solver are checked against the
exact sparse Jacobian of the discrete residual, solved by scipy's splu.
The radial step is also checked against ``_fourier_step``, the step of
every angular mode at once: an rfft in theta, one complex tridiagonal
system per mode (``_mode_bands``), all solved together by ``_thomas``, and
an irfft.  On a ring-constant right side its mode 0 is the radial step's
system; it hands a step with a mode that is not diagonally dominant to
the library's ``_block_step``.

The Clairaut reference ``distance_polar`` solves each target on its own for
the turning radius rho of the connecting geodesic: it brackets rho on the
direct or the through branch (at most 8 tries of its lower end) and runs
a safeguarded Illinois iteration (Dowell & Jarratt, BIT 11, 1971) to a sweep
residual of 1e-13 max(1, target).  The library's distance fields instead
invert a per-row sweep table in the table parameter psi.  The two share only
the quadrature ``geodesics._sweep_and_length``, which the hyperbolic closed
form checks on its own.  ``_interpolant`` sums a row table's Chebyshev series
as explicit cosine and sine sums, against which the library's Clenshaw
recurrence is checked.

The remaining references are the library's earlier forms of code that now
takes a shortcut, kept to pin the shortcut: ``_block_bands`` stacks the
block step's Jacobian blocks as whole bands; ``develop_whole`` is the
developing map on whole arrays, its RK4 stage generators stacked
(``rk4_transport_stacked``) and its holonomy loops formed all at once;
``chart_arrays_full``
evaluates a chart at every node of the full mesh; ``knot_slopes_eye`` and
``not_a_knot_weights_eye`` are the dense spline matrices, built from
identity rows with one LAPACK solve, and ``sample_bicubic_dense`` samples
with them as two weight matrices, where the library sweeps the banded
slope system over the data; ``write_obj_rows`` formats one OBJ record at a
time.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from lorentz_embed.embed import (
    _ETA,
    _N_SUB,
    _extrapolate_to_segment,
    _frame_generator,
    _lorentz_inv,
    _reorthonormalize,
    _rot3,
    _so21_exp,
    _so21_log,
    _theta_stage_samples,
)
from lorentz_embed.geodesics import _sweep_and_length, wrap_angle_difference
from lorentz_embed.grid import ghost_rows_below
from lorentz_embed.solver import _OFFSETS, _block_step


def radial_bvp(K, l, boundary_value, c1, eps=1e-6):
    """Shooting solution of the radial problem

        (u'' + 1)((f'/f) u' + 1) = -K(r) (u'^2 + 2u),  u'(0) = 0, u(l) = b,

    returning a dense-output object; evaluate with ``sol.sol(r)[0]``.
    The warp function is carried as extra state (f'' = -K f), and the
    start uses the series expansion at the center where f'/f is singular:
    u''(0) solves (u''+1)^2 = -K(0) 2 u(0).
    """

    def rhs(r, y):
        u, up, fv, fp = y
        k = float(K(r))
        upp = -1.0 + (-k) * (up * up + 2.0 * u) / (fp / fv * up + 1.0)
        return [up, upp, fp, -k * fv]

    def integrate(a):
        k0 = float(K(0.0))
        gamma = math.sqrt(2.0 * a * (-k0)) - 1.0
        y0 = [
            a + 0.5 * gamma * eps * eps,
            gamma * eps,
            eps + (-k0) * eps**3 / 6.0,
            1.0 + (-k0) * eps * eps / 2.0,
        ]
        return solve_ivp(rhs, (eps, l), y0, method="DOP853",
                         rtol=1e-12, atol=1e-14, dense_output=True)

    def mismatch(a):
        return integrate(a).y[0, -1] - boundary_value

    a_lo = boundary_value * 0.5
    a_hi = 1.0 / (2.0 * c1) * 1.0001
    a_star = brentq(mismatch, a_lo, a_hi, xtol=1e-14)
    return integrate(a_star)


def hyperbolic_distance(scale, r1, t1, r2, t2):
    """Distance on the K = -scale model, in a cancellation-free form.

    cosh(s d) - 1 = 2 sinh^2(s (r1-r2)/2) + 2 sinh(s r1) sinh(s r2) sin^2(dt/2)
    with s = sqrt(scale); the log1p form stays accurate for tiny separations.
    """
    s = math.sqrt(scale)
    x = 2.0 * np.sinh(0.5 * s * (np.asarray(r1) - np.asarray(r2))) ** 2 \
        + 2.0 * np.sinh(s * np.asarray(r1)) * np.sinh(s * np.asarray(r2)) \
        * np.sin(0.5 * (np.asarray(t2) - np.asarray(t1))) ** 2
    return np.log1p(x + np.sqrt(x * (x + 2.0))) / s


def hyperboloid_point(r, theta):
    """Polar parametrization of the unit hyperboloid x3^2 - x1^2 - x2^2 = 1."""
    return np.stack([
        np.sinh(r) * np.cos(theta),
        np.sinh(r) * np.sin(theta),
        np.cosh(r),
    ], axis=-1)


def poincare_distance(x1, y1, x2, y2, scale=1.0):
    q1 = 1.0 - x1 * x1 - y1 * y1
    q2 = 1.0 - x2 * x2 - y2 * y2
    chord = (x1 - x2) ** 2 + (y1 - y2) ** 2
    return np.arccosh(1.0 + 2.0 * chord / (q1 * q2)) / math.sqrt(scale)


def pinched_curvature():
    """The pinched test family K(r) = -(1 + r^2/(1+r^2)) with derivatives."""

    def K(r):
        r = np.asarray(r, dtype=float)
        return -(1.0 + r * r / (1.0 + r * r))

    def Kp(r):
        r = np.asarray(r, dtype=float)
        return -(2.0 * r / (1.0 + r * r) ** 2)

    def Kpp(r):
        r = np.asarray(r, dtype=float)
        return -((2.0 - 6.0 * r * r) / (1.0 + r * r) ** 3)

    return K, Kp, Kpp


def bump_curvature():
    """K(r) = -(1 + 8 exp(-2 (r - 1.5)^2)), 9:1 pinching in an annulus, with
    derivatives."""

    def K(r):
        return -(1.0 + 8.0 * np.exp(-2.0 * (np.asarray(r, float) - 1.5) ** 2))

    def Kp(r):
        s = np.asarray(r, float) - 1.5
        return 32.0 * s * np.exp(-2.0 * s * s)

    def Kpp(r):
        s = np.asarray(r, float) - 1.5
        return 32.0 * (1.0 - 4.0 * s * s) * np.exp(-2.0 * s * s)

    return K, Kp, Kpp


def _assemble_jacobian(coefs, shape):
    """Exact sparse Jacobian of the discrete log-residual; boundary rows are identity."""
    import scipy.sparse as sp

    n1, n2 = shape
    ni = n1 - 1
    half = n2 // 2
    ii, jj = np.meshgrid(np.arange(ni), np.arange(n2), indexing="ij")
    rows_base = (ii * n2 + jj).ravel()

    data, rows, cols = [], [], []
    for (di, dj), coef in zip(_OFFSETS, coefs):
        ti = ii + di
        tj = (jj + dj) % n2
        mirror = ti < 0
        if np.any(mirror):
            ti = np.where(mirror, 0, ti)
            tj = np.where(mirror, (jj + dj + half) % n2, tj)
        data.append(coef.ravel())
        rows.append(rows_base)
        cols.append((ti * n2 + tj).ravel())

    n = n1 * n2
    bd = np.arange(ni * n2, n)
    data.append(np.ones(bd.size))
    rows.append(bd)
    cols.append(bd)
    J = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return J.tocsr()


def _linear_solve(J, rhs):
    """Sparse direct solve with one step of iterative refinement if needed."""
    import scipy.sparse.linalg as spla  # splu is looked up here, at call time

    lu = spla.splu(J.tocsc())
    x = lu.solve(rhs)
    norm = np.linalg.norm(rhs)
    if norm > 0.0:
        r = rhs - J @ x
        if np.linalg.norm(r) > 1e-12 * norm:
            x = x + lu.solve(r)
    return x


def splu_step(coefs, rhs):
    """The Newton step of solver._block_step / _radial_step, by sparse LU.

    ``rhs`` has the grid's shape; its boundary row is the step there.
    """
    delta = _linear_solve(_assemble_jacobian(coefs, rhs.shape), rhs.ravel())
    delta = delta.reshape(rhs.shape)
    delta[-1] = rhs[-1]  # the identity rows, which splu solves only to round-off
    return delta


def _block_bands(coefs, n1, n2):
    """Sub-, main and super-diagonal blocks of the interior Jacobian, stacked.

    Each band has shape (n1 - 1, n2, n2): block i couples ring i to ring
    i - 1, i and i + 1.  Theta offsets wrap, and ring 0's di = -1 neighbour
    is ring 0 itself, half a turn on (the pole mirror), so those
    coefficients fold into its diagonal block.  lower[0] is therefore zero,
    and upper[-1] couples the last interior ring to the boundary ring.
    This is the block step's earlier whole-band form, which it now builds
    and applies one ring at a time.
    """
    ni, half = n1 - 1, n2 // 2
    j = np.arange(n2)
    bands = {di: np.zeros((ni, n2, n2)) for di in (-1, 0, 1)}
    for (di, dj), c in zip(_OFFSETS, coefs):
        if di == -1:
            bands[-1][1:, j, (j + dj) % n2] += c[1:]
            bands[0][0, j, (j + dj + half) % n2] += c[0]
        else:
            bands[di][:, j, (j + dj) % n2] += c
    return bands[-1], bands[0], bands[1]


def _mode_bands(coefs, n1, n2):
    """Sub-, main and super-diagonal of each Fourier mode's radial system.

    In Fourier mode k of an rfft along theta, the shift by dj columns is the
    factor w^dj with w = exp(2 pi i k / n2), and the pole mirror (a further
    shift by n2/2) adds (-1)^k.  Each band has shape (modes, n1); the
    boundary row is identity.
    """
    ni = n1 - 1
    k = np.arange(n2 // 2 + 1)
    phase = {dj: np.exp(2j * np.pi * k * dj / n2) for dj in (-1, 0, 1)}
    # per radial offset di: sum over dj of c_{di,dj}(r) w^dj, shape (ni, modes)
    band = {di: 0.0 for di in (-1, 0, 1)}
    for (di, dj), c in zip(_OFFSETS, coefs):
        band[di] = band[di] + c[:, :1] * phase[dj]
    lower = np.zeros((k.size, n1), dtype=complex)
    lower[:, 1:ni] = band[-1][1:].T
    diag = np.ones((k.size, n1), dtype=complex)
    diag[:, :ni] = band[0].T
    diag[:, 0] += (-1.0) ** k * band[-1][0]
    upper = np.zeros((k.size, n1), dtype=complex)
    upper[:, :ni] = band[1].T
    return lower, diag, upper


def _fourier_step(coefs, rhs):
    """Newton step for theta-invariant coefficients, one radial solve per mode.

    ``rhs`` is as for _block_step.  Each Fourier mode is a complex
    tridiagonal system in the radial index (_mode_bands).  If every mode is
    strictly row diagonally dominant, elimination without pivoting (_thomas)
    solves them together, stably; otherwise the whole step is a block step.
    """
    n1, n2 = rhs.shape
    lower, diag, upper = _mode_bands(coefs, n1, n2)
    if not np.all(np.abs(diag) > np.abs(lower) + np.abs(upper)):
        return _block_step(coefs, rhs)
    out = _thomas(lower, diag, upper, np.fft.rfft(rhs, axis=1).T)
    return np.fft.irfft(out.T, n=n2, axis=1)


def _thomas(lower, diag, upper, rhs):
    """Solve tridiagonal systems, one per row of the (systems, n) arguments.

    Gaussian elimination without pivoting, vectorized across the systems
    and looping over the n unknowns; lower[:, 0] and upper[:, -1] are unused.
    """
    n = diag.shape[1]
    d = np.empty_like(diag)
    y = np.empty_like(rhs)
    d[:, 0], y[:, 0] = diag[:, 0], rhs[:, 0]
    for i in range(1, n):
        mult = lower[:, i] / d[:, i - 1]
        d[:, i] = diag[:, i] - mult * upper[:, i - 1]
        y[:, i] = rhs[:, i] - mult * y[:, i - 1]
    x = np.empty_like(rhs)
    x[:, -1] = y[:, -1] / d[:, -1]
    for i in range(n - 2, -1, -1):
        x[:, i] = (y[:, i] - upper[:, i] * x[:, i + 1]) / d[:, i]
    return x


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


def write_field_csv_oneshot(field, path):
    """The field CSV as one ``%`` format over every node: the byte-level
    reference for ``cli.write_field_csv``, which writes row by row."""
    grid = field.grid
    q1, q2 = grid.mesh()
    if grid.kind == "disc":
        c1, c2 = q1 * np.cos(q2), q1 * np.sin(q2)
        header = "x,y,value"
    else:
        c1, c2 = q1, q2
        header = "r,theta,value"
    rows = np.stack([c1, c2, field.values], axis=-1).ravel().tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write(("%.17g,%.17g,%.17g\n" * (grid.n1 * grid.n2)) % tuple(rows))


_ORDERS = np.arange(32)  # the orders of a 32-point row table's series


def _interpolant(coef, psi):
    """The row interpolants p(psi) and dp/dpsi at each target's psi."""
    k_psi = psi[..., None] * _ORDERS
    return (np.sum(coef * np.cos(k_psi), axis=-1),
            -np.sum(coef * _ORDERS * np.sin(k_psi), axis=-1))


def chart_arrays_full(metric, grid):
    """The 9 ChartData arrays, in field order, with the metric evaluated at
    every node of the full (n1, n2) mesh."""
    q1, q2 = grid.mesh()
    g11, g22 = metric.metric_components(q1, q2)
    gam = metric.christoffel_components(q1, q2)
    K = metric.curvature_at(q1, q2)
    return (g11, g22, K, *gam)


def knot_slopes_eye(m):
    """The not-a-knot knot-slope matrix, its system built from identity rows."""
    eye = np.eye(m)
    secant = eye[1:] - eye[:-1]
    A = 4.0 * eye + np.eye(m, k=1) + np.eye(m, k=-1)
    A[0, :2] = 1.0, 2.0
    A[-1, -2:] = 2.0, 1.0
    rhs = np.vstack([(5.0 * secant[0] + secant[1]) / 2.0, 3.0 * (eye[2:] - eye[:-2]),
                     (secant[-2] + 5.0 * secant[-1]) / 2.0])
    return np.linalg.solve(A, rhs)


def not_a_knot_weights_eye(m, x):
    """The not-a-knot spline weights at x, the Hermite values as identity rows."""
    eye = np.eye(m)
    slopes = knot_slopes_eye(m)
    x = np.clip(x, 0.0, m - 1.0)
    i = np.minimum(x.astype(np.intp), m - 2)
    t = (x - i)[:, None]
    return ((1.0 + 2.0 * t) * (1.0 - t) ** 2 * eye[i] + t * t * (3.0 - 2.0 * t) * eye[i + 1]
            + t * (1.0 - t) * ((1.0 - t) * slopes[i] - t * slopes[i + 1]))


def sample_bicubic_dense(field, r_pts, t_pts):
    """exhaustion.sample_bicubic as W_r @ ext @ W_t.T, the weights dense."""
    grid, pad = field.grid, 4
    r_k = np.asarray(r_pts, dtype=float) / grid.h1 + (pad - 0.5)
    t_k = np.mod(np.asarray(t_pts, dtype=float) - grid.theta0, 2 * math.pi) / grid.h2 + pad
    ext = ghost_rows_below(field.values, pad)
    ext = np.hstack([ext[:, -pad:], ext, ext[:, :pad]])
    return (not_a_knot_weights_eye(grid.n1 + pad, r_k) @ ext
            @ not_a_knot_weights_eye(grid.n2 + 2 * pad, t_k).T)


def write_obj_rows(mesh, path):
    """The OBJ file written one record at a time: the byte-level reference
    for ``cli.write_obj``, which formats each block at once."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def rk4_transport_stacked(A_stages, h, n_sub):
    """Propagators of dE/dt = E A(t) over one edge, from sampled generators
    stacked as (..., 2*n_sub + 1, 3, 3), samples at the half-substep points."""
    shape = A_stages.shape[:-3]
    E = np.broadcast_to(np.eye(3), shape + (3, 3)).copy()
    hh = h / n_sub
    for s in range(n_sub):
        A0 = A_stages[..., 2 * s, :, :]
        Am = A_stages[..., 2 * s + 1, :, :]
        A1 = A_stages[..., 2 * s + 2, :, :]
        k1 = E @ A0
        k2 = (E + 0.5 * hh * k1) @ Am
        k3 = (E + 0.5 * hh * k2) @ Am
        k4 = (E + hh * k3) @ A1
        E = E + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return E


def radial_stage_samples_whole(F, n_sub):
    """Samples at r_i + h (k / (2 n_sub)) of every row i = 0..M-2 at once,
    (M-1, N, 2*n_sub+1), by cubic Lagrange interpolation on a sliding
    four-row window (one-sided at the two ends)."""
    M = F.shape[0]
    base = np.clip(np.arange(M - 1) - 1, 0, M - 4)
    x0 = np.arange(M - 1) - base
    out = np.empty((M - 1, F.shape[1], 2 * n_sub + 1))
    for k in range(2 * n_sub + 1):
        x = x0 + k / (2.0 * n_sub)
        l0 = -(x - 1.0) * (x - 2.0) * (x - 3.0) / 6.0
        l1 = x * (x - 2.0) * (x - 3.0) / 2.0
        l2 = -x * (x - 1.0) * (x - 3.0) / 2.0
        l3 = x * (x - 1.0) * (x - 2.0) / 6.0
        out[:, :, k] = (l0[:, None] * F[base] + l1[:, None] * F[base + 1]
                        + l2[:, None] * F[base + 2] + l3[:, None] * F[base + 3])
    return out


def develop_whole(gbar, rows):
    """``embed.develop`` on whole arrays: the frames, points, path defect,
    cell defects (max, sum) and eta drift."""
    grid = gbar.grid
    n2 = grid.n2
    e11, e12, e22 = gbar.e11[:rows], gbar.e12[:rows], gbar.e22[:rows]
    w1, w2 = gbar.w1[:rows], gbar.w2[:rows]

    A_th = _frame_generator(_theta_stage_samples(w2, _N_SUB),
                            _theta_stage_samples(e12, _N_SUB),
                            _theta_stage_samples(e22, _N_SUB))
    P_th = rk4_transport_stacked(A_th, grid.h2, _N_SUB)
    st_e11 = radial_stage_samples_whole(e11, _N_SUB)
    st_w1 = radial_stage_samples_whole(w1, _N_SUB)
    P_r = rk4_transport_stacked(_frame_generator(st_w1, st_e11, np.zeros_like(st_e11)),
                                grid.h1, _N_SUB)

    framesA = np.empty((rows, n2, 3, 3))
    framesA[0, 0] = np.eye(3)
    cur = np.eye(3)
    for i in range(rows - 1):
        cur = cur @ P_r[i, 0]
        if (i + 1) % 16 == 0:
            cur = _reorthonormalize(cur)
        framesA[i + 1, 0] = cur
    cur = framesA[:, 0].copy()
    closure = np.broadcast_to(np.eye(3), (rows, 3, 3)).copy()
    for j in range(1, n2 + 1):
        closure = closure @ P_th[:, j - 1]
        if j == n2:
            break
        cur = cur @ P_th[:, j - 1]
        if j % 16 == 0:
            cur = _reorthonormalize(cur)
        framesA[:, j] = cur
    framesA = _reorthonormalize(framesA)

    framesB = np.empty_like(framesA)
    ring = np.empty((n2, 3, 3))
    ring[0] = np.eye(3)
    cur = np.eye(3)
    for j in range(1, n2):
        cur = cur @ P_th[0, j - 1]
        ring[j] = cur
    framesB[0] = ring
    cur = ring.copy()
    for i in range(rows - 1):
        cur = cur @ P_r[i]
        if (i + 1) % 16 == 0:
            cur = _reorthonormalize(cur)
        framesB[i + 1] = cur
    framesB = _reorthonormalize(framesB)

    s_stages = np.linspace(grid.q1[0], 0.0, 2 * _N_SUB + 1)
    a_seg = _extrapolate_to_segment(e11[:, 0], grid.q1, s_stages)
    w_seg = _extrapolate_to_segment(w1[:, 0], grid.q1, s_stages)
    A_seg = _frame_generator(w_seg, a_seg, np.zeros_like(a_seg))
    P_in = rk4_transport_stacked(A_seg[None, ...], -grid.q1[0], _N_SUB)[0]
    L = _rot3(grid.q2[0]) @ _lorentz_inv(_reorthonormalize(P_in))
    framesA = L @ framesA
    framesB = L @ framesB
    path_defect = float(np.abs(framesA[..., 2] - framesB[..., 2]).max())

    G_close = _so21_log(closure)
    for j in range(1, n2):
        framesA[:, j] = framesA[:, j] @ _so21_exp((-j / n2) * G_close)
    framesA = _reorthonormalize(framesA)

    inv_P_r = _lorentz_inv(P_r)
    inv_P_th = _lorentz_inv(P_th)
    jp1 = (np.arange(n2) + 1) % n2
    loops = P_r @ P_th[1:] @ inv_P_r[:, jp1] @ inv_P_th[:-1]
    cell_defect = np.sqrt(np.sum((loops - np.eye(3)) ** 2, axis=(-2, -1)))
    eta = np.diag(_ETA)
    gram = np.swapaxes(framesA, -1, -2) @ (eta @ framesA)
    return (framesA, framesA[..., 2], path_defect, float(cell_defect.max()),
            float(cell_defect.sum()), float(np.abs(gram - eta).max()))
