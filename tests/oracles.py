"""Independent oracles used by the tests.

Everything here is deliberately decoupled from the library's numerics:
the radial two-point boundary value problem is solved by shooting with a
high-order adaptive integrator (the warp function is re-integrated inside
the same flow, so not even the metric module's fixed-step integration is
shared), and distances/embeddings of the constant-curvature model come
from closed forms.  The Newton steps of the solver are checked against the
exact sparse Jacobian of the discrete residual, solved by scipy's splu.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq


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


def _assemble_jacobian(coefs, stencil, shape):
    """Exact sparse Jacobian of the discrete log-residual; boundary rows are identity."""
    import scipy.sparse as sp

    n1, n2 = shape
    ni = n1 - 1
    half = n2 // 2
    ii, jj = np.meshgrid(np.arange(ni), np.arange(n2), indexing="ij")
    rows_base = (ii * n2 + jj).ravel()

    data, rows, cols = [], [], []
    for (di, dj), coef in zip(stencil.RT, coefs):
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


def splu_step(coefs, stencil, rhs):
    """The Newton step of solver._block_step / _fourier_step, by sparse LU.

    ``rhs`` has the grid's shape; its boundary row is the step there.
    """
    delta = _linear_solve(_assemble_jacobian(coefs, stencil, rhs.shape), rhs.ravel())
    delta = delta.reshape(rhs.shape)
    delta[-1] = rhs[-1]  # the identity rows, which splu solves only to round-off
    return delta
