"""Analytic metric families on the disc with strictly negative curvature.

Two chart families are supported:

* geodesic polar charts ``g = dr^2 + f(r)^2 dtheta^2`` in which the radial
  coordinate is exact geodesic distance from the center (the warp function
  solves the Jacobi equation ``f'' = -K f`` with ``f(0) = 0, f'(0) = 1``);
* conformal disc charts ``g = psi(x, y) (dx^2 + dy^2)`` on a sub-disc of the
  unit disc, discretized in chart-polar coordinates: the perturbed Poincare
  chart, a class of its three parameters (scale, domain radius, eps), whose
  eps = 0 member is the Poincare disc with closed-form distances.

Both families are orthogonal: ``metric_components`` returns the diagonal
(g11, g22), which with the curvature and the Christoffel symbols is all a
grid's chart data holds.  Charts are analytic: every metric quantity is
evaluated on demand at grid nodes, so no interpolation error enters the
estimate audits.  All metric objects are immutable after construction and
safe to share between workers.
Each family answers the audits' probe-ball geometry from its own fields:
``rim_distance`` (certified bounds of the distance to a domain's rim),
``ball_max_neg_curvature`` (sampled on a warped chart's band, a closed-form
upper bound on a conformal chart), ``log_curvature_bounds`` and
``distance_field`` (importing ``geodesics``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "CurvatureBounds",
    "WarpedPolarMetric",
    "ConformalDiscMetric",
    "make_hyperbolic",
    "make_radial_from_curvature",
    "make_radial_pinched",
    "jacobi_defect",
]

# largest Jacobi defect |f'' + K f| / max(1, f) a built radial chart may carry
JACOBI_TOL = 1e-7
# Sample spacing of jacobi_defect's second difference: its truncation,
# (h^4 / 90) |f^(6)|, stays near 3e-9 f on the test metrics (|K| <= 9),
# and its round-off near 1e-11 f.
_JACOBI_SPACING = 4e-3
# radial samples of the band a probe ball meets on a warped chart
BALL_SAMPLES = 4096
# RK4 steps of make_radial_from_curvature held as Python floats at once
_RK4_BLOCK = 256


@dataclass(frozen=True)
class CurvatureBounds:
    """Pinching certificate for a chart: -c2 <= K <= -c1 < 0.

    ``c2_of_radius(l)`` is the maximum of ``-K`` over the closed ball of
    radius ``l`` about the chart center; it supplies the constant boundary
    datum ``1/(2 max(-K))`` of the Dirichlet solves.  The bounds c3 and c4
    on ``|grad log(-K)|`` and ``Hess log(-K)`` are a probe ball's, from
    the chart's ``log_curvature_bounds``.  A Hoelder modulus of K is
    assumed by the theory but never enters a computation, so it is
    deliberately not a field here.
    """

    c1: float
    c2: float
    c2_of_radius: Callable[[float], float]

    def __post_init__(self):
        if not (0.0 < self.c1 <= self.c2):
            raise ValueError(f"need 0 < c1 <= c2, got c1={self.c1}, c2={self.c2}")


@dataclass(frozen=True)
class WarpedPolarMetric:
    """Geodesic polar chart g = dr^2 + f(r)^2 dtheta^2 with K = -f''/f.

    ``f``, ``f_prime``, the curvature K and its first two radial
    derivatives accept scalars or numpy arrays.  ``sample_*`` arrays are
    retained when f came from an ODE integration so the Jacobi consistency
    invariant can be re-audited later.
    """

    f: Callable
    f_prime: Callable
    curvature: Callable
    curvature_prime: Callable
    curvature_double_prime: Callable
    r_max: float
    bounds: CurvatureBounds | None = None
    sample_radii: np.ndarray | None = None
    sample_f: np.ndarray | None = None

    def metric_components(self, r, theta):
        """The diagonal (g11, g22) = (1, f^2)."""
        r = np.asarray(r, dtype=float)
        fr = self.f(r)
        return np.ones_like(fr), fr * fr

    def christoffel_components(self, r, theta):
        """Gamma^1_{11}, Gamma^1_{12}, Gamma^1_{22}, Gamma^2_{11}, Gamma^2_{12}, Gamma^2_{22}."""
        r = np.asarray(r, dtype=float)
        fr = self.f(r)
        fp = self.f_prime(r)
        zero = np.zeros_like(fr)
        return zero, zero, -fr * fp, zero, fp / fr, zero

    def curvature_at(self, r, theta=None):
        return np.asarray(self.curvature(np.asarray(r, dtype=float)), dtype=float)

    def rim_distance(self, r, radius):
        """Distance from radius ``r`` to the rim of the ball of radius ``radius``, twice."""
        return radius - r, radius - r

    def _band(self, center, r0, samples):
        """``samples`` radii on [max(0, r - r0), r + r0], the band B(center, r0) meets."""
        r_c = float(center[0])
        return np.linspace(max(r_c - r0, 0.0), min(r_c + r0, self.r_max), samples)

    def ball_max_neg_curvature(self, center, r0):
        """Max of -K over B(center, r0): K is radial, so the band suffices."""
        if float(center[0]) + r0 > self.r_max + 1e-12:
            raise ValueError(f"ball of radius {r0} about r={float(center[0])} leaves "
                             f"the chart (r_max={self.r_max})")
        return float(np.max(-self.curvature_at(self._band(center, r0, BALL_SAMPLES + 1))))

    def log_curvature_bounds(self, center, r0):
        """c3 = max |w'| and c4 = max(|w''|, |(f'/f) w'|) of w = log(-K) over
        B(center, r0), from the closed-form radial derivatives of K sampled
        on the ball's band."""
        band = np.clip(self._band(center, r0, 2049), 1e-9, None)
        k = np.asarray(self.curvature(band), dtype=float)
        # w = log(-K): w' = K'/K, w'' = K''/K - (K'/K)^2
        wp = np.asarray(self.curvature_prime(band), dtype=float) / k
        wpp = np.asarray(self.curvature_double_prime(band), dtype=float) / k - wp**2
        # eigenvalues of g^{-1} Hess(w) for radial w are w'' and (f'/f) w'
        ang = self.f_prime(band) / self.f(band) * wp
        return float(np.max(np.abs(wp))), float(max(np.max(np.abs(wpp)), np.max(np.abs(ang))))

    def distance_field(self, grid, node, reach=math.inf):
        """Clairaut distances from a grid node (``geodesics.warped_distance_field``)."""
        from .geodesics import warped_distance_field
        return warped_distance_field(self, grid, node, reach)


def make_hyperbolic(scale: float) -> WarpedPolarMetric:
    """Constant-curvature chart K = -scale, f(r) = sinh(sqrt(scale) r)/sqrt(scale).

    scale = 1 is the metric of the unit imaginary sphere
    x3^2 - (x1^2 + x2^2) = 1 in Lorentz-Minkowski 3-space.
    """
    if scale <= 0.0:
        raise ValueError(f"curvature scale must be positive, got {scale}")
    s = math.sqrt(scale)

    def f(r):
        return np.sinh(s * np.asarray(r, dtype=float)) / s

    def f_prime(r):
        return np.cosh(s * np.asarray(r, dtype=float))

    def curvature(r):
        return np.full_like(np.asarray(r, dtype=float), -scale)

    bounds = CurvatureBounds(c1=scale, c2=scale, c2_of_radius=lambda l: scale)
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return WarpedPolarMetric(f, f_prime, curvature, zero, zero, math.inf, bounds)


def make_radial_from_curvature(
    K: Callable,
    r_max: float,
    k_prime: Callable,
    k_double_prime: Callable,
    ode_step: float = 1e-3,
) -> WarpedPolarMetric:
    """Build the warped polar chart realizing a prescribed radial curvature.

    Integrates the Jacobi equation f'' = -K f from f(0) = 0, f'(0) = 1 with
    a classical fourth-order scheme at fixed step <= ode_step, then backs f
    and f' with cubic Hermite pieces on the sample grid whose knot slopes
    are the RK4 f' and f'' = -K f (interpolation error O(step^4), far below
    JACOBI_TOL).  K must be continuous and strictly negative on
    [0, r_max]; the first offending radius is reported otherwise.

    ``k_prime`` and ``k_double_prime`` are the closed-form radial
    derivatives of K; a probe ball's log-curvature bounds c3 and c4 are
    sampled from them on its band (``log_curvature_bounds``).
    """
    if r_max <= 0.0:
        raise ValueError("r_max must be positive")
    n = max(int(math.ceil(r_max / ode_step)), 8)
    h = r_max / n
    radii = np.linspace(0.0, r_max, n + 1)
    kvals = np.asarray(K(radii), dtype=float)
    bad = np.nonzero(kvals >= 0.0)[0]
    if bad.size:
        raise ValueError(
            f"curvature must be strictly negative; K({radii[bad[0]]:.6g}) = "
            f"{kvals[bad[0]]:.6g}"
        )

    # K at the RK4 stage radii r_i, r_i + h/2 and r_i + h, once, vectorized;
    # the loop runs on Python floats, _RK4_BLOCK steps of them at a time
    k_stages = (kvals[:-1], np.asarray(K(radii[:-1] + 0.5 * h), dtype=float),
                np.asarray(K(radii[:-1] + h), dtype=float))
    fs = np.empty(n + 1)
    fps = np.empty(n + 1)
    fs[0], fps[0] = 0.0, 1.0
    y0, y1 = 0.0, 1.0
    half_h, sixth_h = 0.5 * h, h / 6.0
    for start in range(0, n, _RK4_BLOCK):
        block = zip(*(k[start:start + _RK4_BLOCK].tolist() for k in k_stages))
        for i, (ka, kb, kc) in enumerate(block, start):
            a0, a1 = y1, -ka * y0
            b0, b1 = y1 + half_h * a1, -kb * (y0 + half_h * a0)
            c0, c1 = y1 + half_h * b1, -kb * (y0 + half_h * b0)
            d0, d1 = y1 + h * c1, -kc * (y0 + h * c0)
            y0 = y0 + sixth_h * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
            y1 = y1 + sixth_h * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
            fs[i + 1], fps[i + 1] = y0, y1

    f = _uniform_hermite(fs, fps, h)
    f_prime = _uniform_hermite(fps, -kvals * fs, h)

    neg_k = -kvals
    cummax = np.maximum.accumulate(neg_k)

    def c2_of_radius(l):
        if l > r_max + 1e-12:
            raise ValueError(f"ball radius {l} exceeds chart radius {r_max}")
        idx = min(int(math.ceil(l / h)), n)
        return float(max(cummax[idx], -K(min(l, r_max))))

    bounds = CurvatureBounds(c1=float(neg_k.min()), c2=float(neg_k.max()),
                             c2_of_radius=c2_of_radius)
    metric = WarpedPolarMetric(
        f, f_prime, K, k_prime, k_double_prime, r_max, bounds,
        sample_radii=radii, sample_f=fs,
    )
    defect = jacobi_defect(metric)
    if not defect <= JACOBI_TOL:  # a NaN defect (f overflowed) fails too
        raise ValueError(
            f"Jacobi consistency defect {defect:.3e} exceeds tolerance {JACOBI_TOL:.1e}"
        )
    return metric


def make_radial_pinched(base: float, amp: float, r_max: float) -> WarpedPolarMetric:
    """The radial chart of K = -(base + amp r^2/(1+r^2)), which runs from
    -base at the center to -(base + amp) at infinity."""

    def K(r):
        r = np.asarray(r, dtype=float)
        return -(base + amp * r * r / (1.0 + r * r))

    def Kp(r):
        r = np.asarray(r, dtype=float)
        return -(2.0 * amp * r / (1.0 + r * r) ** 2)

    def Kpp(r):
        r = np.asarray(r, dtype=float)
        return -(amp * (2.0 - 6.0 * r * r) / (1.0 + r * r) ** 3)

    return make_radial_from_curvature(K, r_max, k_prime=Kp, k_double_prime=Kpp)


def _uniform_hermite(y, dy, h):
    """Piecewise cubic Hermite interpolant of values y and slopes dy at the
    knots k h, k = 0..n, each piece kept as Horner coefficients in the local
    coordinate t = r/h - k; the end pieces extrapolate."""
    y0, y1, d0, d1 = y[:-1], y[1:], h * dy[:-1], h * dy[1:]
    c2 = 3.0 * (y1 - y0) - 2.0 * d0 - d1
    c3 = 2.0 * (y0 - y1) + d0 + d1
    last = y0.size - 1

    def evaluate(r):
        x = np.asarray(r, dtype=float) / h
        # two ufuncs: np.clip's Python-level wrapper costs more than the clamp
        i = np.minimum(np.maximum(x.astype(np.intp), 0), last)
        t = x - i
        return ((c3[i] * t + c2[i]) * t + d0[i]) * t + y0[i]

    return evaluate


def jacobi_defect(m: WarpedPolarMetric) -> float:
    """Max of |f'' + K f| / max(1, f) over ODE sample radii of f, with f''
    from a five-point stencil on every k-th sample, k h close to
    _JACOBI_SPACING.

    The check is independent of how f was produced: it differences sampled
    values of f instead of trusting the stored derivative.  The spacing
    does not shrink with the ODE step, since the stencil divides the
    round-off of f by 12 (k h)^2: on every sample at step 1e-4 it read
    3.2e-7 for an f accurate to 1.7e-14.
    """
    samples = m.sample_radii
    step = float(samples[1] - samples[0])
    # every k-th sample, keeping at least the stencil's five
    stride = max(1, min(int(round(_JACOBI_SPACING / step)), (samples.size - 1) // 4))
    radii = samples[::stride]
    h = radii[1] - radii[0]
    fv = np.asarray(m.f(radii), dtype=float)
    kv = np.asarray(m.curvature(radii), dtype=float)
    fpp = (
        -fv[4:] + 16.0 * fv[3:-1] - 30.0 * fv[2:-2] + 16.0 * fv[1:-3] - fv[:-4]
    ) / (12.0 * h * h)
    defect = np.abs(fpp + kv[2:-2] * fv[2:-2]) / np.maximum(1.0, fv[2:-2])
    return float(defect.max())


@dataclass(frozen=True)
class ConformalDiscMetric:
    """The perturbed Poincare chart on the disc |p| <= domain_radius < 1:
    g = psi (dx^2 + dy^2) with psi = (4/scale) e^{eps x} / (1 - r^2)^2, and
    K = -lap(log psi)/(2 psi) = -scale e^{-eps x}, since eps x is harmonic;
    the Poincare disc at eps = 0.  Construction derives ``bounds`` and
    ``log_bounds``, the chart-wide (c3, c4) bounding ``|grad log(-K)|`` and
    the eigenvalues of ``Hess log(-K)``.  Methods other than ``psi``,
    ``psi_grad`` (read only by ``phi_grad``), ``curvature``, ``phi_grad`` and
    ``pair_distance`` take chart-polar (rho, theta), the grids' coordinates.
    """

    scale: float
    domain_radius: float
    eps: float = 0.0
    bounds: CurvatureBounds = field(init=False, repr=False, compare=False)
    log_bounds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.scale > 0.0 and 0.0 < self.domain_radius < 1.0):
            raise ValueError(f"need scale > 0 and domain_radius in (0, 1), got "
                             f"{self.scale} and {self.domain_radius}")
        slope, R = abs(self.eps), self.domain_radius
        try:  # math.exp raises past the float range; min psi may underflow to 0
            c1, c2 = self.scale * math.exp(-slope * R), self._c2_of_radius(R)
            # |grad log(-K)|_g = |eps| / sqrt(psi), largest where psi is least
            c3, c4 = slope / math.sqrt(self._psi_min()), self._hess_log_max()
            finite = 0.0 < c1 <= c2 < math.inf and c3 < math.inf and c4 < math.inf
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise ValueError(f"scale {self.scale!r} and eps {self.eps!r} give curvature "
                             f"constants c1..c4 that are not all positive finite floats")
        # the charts' g11 g22 = psi^2 rho^2 is largest on the rim rho = R
        rim = 4.0 / self.scale * math.exp(slope * R) / (1.0 - R * R) ** 2 * R
        if rim * rim == math.inf:
            raise ValueError(f"scale {self.scale!r}, domain_radius {R!r} and eps "
                             f"{self.eps!r} give a psi^2 rho^2 beyond the float range")
        object.__setattr__(self, "bounds", CurvatureBounds(c1, c2, self._c2_of_radius))
        object.__setattr__(self, "log_bounds", (c3, c4))

    def psi(self, x, y):
        return (4.0 / self.scale) * np.exp(self.eps * x) / (1.0 - x * x - y * y) ** 2

    def psi_grad(self, x, y):
        q = 1.0 - x * x - y * y
        e = np.exp(self.eps * x)
        bx, by = (16.0 / self.scale) * x / q**3, (16.0 / self.scale) * y / q**3
        return (bx + self.eps * ((4.0 / self.scale) / q**2)) * e, by * e

    def curvature(self, x, y):
        return -self.scale * np.exp(-self.eps * np.asarray(x, dtype=float))

    def _xy(self, rho, theta):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        return rho * np.cos(theta), rho * np.sin(theta)

    def metric_components(self, rho, theta):
        """The diagonal (g11, g22) = (psi, psi rho^2)."""
        x, y = self._xy(rho, theta)
        p = np.asarray(self.psi(x, y), dtype=float)
        rho = np.asarray(rho, dtype=float)
        return p, p * rho * rho

    def phi_grad(self, x, y):
        """grad psi / (2 psi) at chart points: the gradient of phi = log(psi)/2,
        which every conformal symbol reads."""
        p = np.asarray(self.psi(x, y), dtype=float)
        px, py = self.psi_grad(x, y)
        return np.asarray(px, dtype=float) / (2.0 * p), np.asarray(py, dtype=float) / (2.0 * p)

    def christoffel_components(self, rho, theta):
        """Chart-polar symbols of a conformal metric, via phi = log(psi)/2."""
        x, y = self._xy(rho, theta)
        phx, phy = self.phi_grad(x, y)
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        ct, st = np.cos(theta), np.sin(theta)
        ph_rho = phx * ct + phy * st
        ph_th = rho * (-phx * st + phy * ct)
        # Gamma^1_11, Gamma^1_12, Gamma^1_22, Gamma^2_11, Gamma^2_12, Gamma^2_22
        return (ph_rho, ph_th, -rho - rho * rho * ph_rho,
                -ph_th / rho**2, 1.0 / rho + ph_rho, ph_th)

    def curvature_at(self, rho, theta):
        x, y = self._xy(rho, theta)
        return np.asarray(self.curvature(x, y), dtype=float)

    def _psi_min(self):
        """Min of psi over the unit disc: psi(x*, 0), with x* = -eps/(2 + sqrt(4 + eps^2))
        the root of eps (1 - x^2) + 4 x = 0 written without cancellation
        (log psi is convex in x and increases with y^2)."""
        x = -self.eps / (2.0 + math.sqrt(4.0 + self.eps * self.eps))
        return float(self.psi(x, 0.0))

    def _hess_log_max(self):
        """c4: the max of |eps| |grad phi| / psi, whose +- are the eigenvalues of
        g^{-1} Hess log(-K), over BALL_SAMPLES rings.  On the ring of radius r,
        with q = 1 - r^2, a = eps q / 2 and c = cos(theta), its square
        (eps scale q / 4)^2 e^{-2 eps r c} (a^2 + 4 r^2 + 4 a r c) is log-concave
        in c: largest at 1/(2 eps r) - (a^2 + 4 r^2)/(4 a r), clipped to [-1, 1]."""
        r = np.linspace(0.0, self.domain_radius, BALL_SAMPLES + 1)
        q = 1.0 - r * r
        a, den = 0.5 * self.eps * q, 2.0 * self.eps * q * r
        c = np.divide(q - a * a - 4.0 * r * r, den, out=np.zeros_like(r), where=den != 0.0)
        c = np.clip(c, -1.0, 1.0)
        # a^2 + 4 r^2 + 4 a r c as a sum of squares
        grad = np.sqrt((a + 2.0 * r * c) ** 2 + 4.0 * r * r * (1.0 - c * c))
        with np.errstate(over="ignore"):
            return float(np.max(0.25 * abs(self.eps) * self.scale * q
                                * np.exp(-self.eps * r * c) * grad))

    def _c2_of_radius(self, rho_ball):
        """Max of -K over the chart disc of radius ``rho_ball``, at most R."""
        if rho_ball > self.domain_radius:
            raise ValueError(f"chart disc radius {rho_ball} exceeds domain_radius "
                             f"{self.domain_radius}")
        return self.scale * math.exp(abs(self.eps) * rho_ball)

    def rim_distance(self, rho, radius):
        """(lower, upper) bounds of the distance from chart radius ``rho`` to the
        rim |p| = ``radius``: e^{-+|eps| radius/2} times the Poincare one, since
        a path to the rim stays in the disc until it meets it.  Exact at eps = 0."""
        root = math.sqrt(self.scale)
        gap = 2.0 * np.arctanh(radius) / root - 2.0 * np.arctanh(rho) / root
        spread = math.exp(0.5 * abs(self.eps) * radius)
        return gap / spread, gap * spread

    def pair_distance(self, x1, y1, x2, y2):
        """A lower bound of the distance between chart points: e^{-|eps|/2} times
        the Poincare one, since e^{eps x} >= e^{-|eps|} on the unit disc."""
        q1 = 1.0 - x1 * x1 - y1 * y1
        q2 = 1.0 - x2 * x2 - y2 * y2
        chord = (x1 - x2) ** 2 + (y1 - y2) ** 2
        return (math.exp(-0.5 * abs(self.eps)) * np.arccosh(1.0 + 2.0 * chord / (q1 * q2))
                / math.sqrt(self.scale))

    def ball_max_neg_curvature(self, center, r0):
        """An upper bound of max -K over B(center, r0), in closed form.  The ball
        lies in the chart disc |p - c| <= rho_m = r0 / sqrt(min psi) and in
        |p| <= R, where -K = scale e^{-eps x} is at most scale exp(min(-eps x_c
        + |eps| rho_m, |eps| R)); exactly ``scale`` at eps = 0."""
        x_c = float(center[0]) * math.cos(float(center[1]))
        slope = abs(self.eps)
        rho_m = r0 / math.sqrt(self._psi_min())
        return self.scale * math.exp(min(-self.eps * x_c + slope * rho_m,
                                         slope * self.domain_radius))

    def log_curvature_bounds(self, center, r0):
        """The chart-wide c3 and c4, whatever the ball."""
        return self.log_bounds

    def distance_field(self, grid, node, reach=math.inf):
        """Distances from a grid node, shot (``geodesics.distance_conformal``)
        where ``pair_distance`` is at most ``reach`` and eps != 0, that bound
        (exact at eps = 0) elsewhere."""
        i, j = node
        X, Y = self._xy(*grid.mesh())
        d = self.pair_distance(X[i, j], Y[i, j], X, Y)
        near = (d <= reach) & (self.eps != 0.0)
        if np.any(near):
            from .geodesics import distance_conformal
            d[near] = distance_conformal(self, (X[i, j], Y[i, j]), X[near], Y[near])
        return d
