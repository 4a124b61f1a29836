"""Analytic metric families on the disc with strictly negative curvature.

Two chart families are supported:

* geodesic polar charts ``g = dr^2 + f(r)^2 dtheta^2`` in which the radial
  coordinate is exact geodesic distance from the center (the warp function
  solves the Jacobi equation ``f'' = -K f`` with ``f(0) = 0, f'(0) = 1``);
* conformal disc charts ``g = psi(x, y) (dx^2 + dy^2)`` on a sub-disc of the
  unit disc, discretized in chart-polar coordinates.

Charts are analytic: every metric quantity is evaluated on demand at grid
nodes, so no interpolation error enters the estimate audits.  All metric
objects are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

__all__ = [
    "CurvatureBounds",
    "WarpedPolarMetric",
    "ConformalDiscMetric",
    "make_hyperbolic",
    "make_radial_from_curvature",
    "make_poincare",
    "make_poincare_perturbed",
    "jacobi_defect",
]

# largest Jacobi defect |f'' + K f| / max(1, f) a built radial chart may carry
JACOBI_TOL = 1e-7


@dataclass(frozen=True)
class CurvatureBounds:
    """Pinching certificate for a chart: -c2 <= K <= -c1 < 0.

    ``c2_of_radius(l)`` is the maximum of ``-K`` over the closed ball of
    radius ``l`` about the chart center; it supplies the constant boundary
    datum ``1/(2 max(-K))`` of the Dirichlet solves.  ``c3`` and ``c4``
    bound ``|grad log(-K)|`` and the eigenvalues of ``Hess log(-K)`` on the
    chart; they feed the second-order eigenvalue audit.  A Hoelder modulus
    of K is assumed by the theory but never enters a computation, so it is
    deliberately not a field here.
    """

    c1: float
    c2: float
    c2_of_radius: Callable[[float], float]
    c3: float = 0.0
    c4: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.c1 <= self.c2):
            raise ValueError(f"need 0 < c1 <= c2, got c1={self.c1}, c2={self.c2}")
        if self.c3 < 0.0 or self.c4 < 0.0:
            raise ValueError("c3 and c4 must be nonnegative")


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

    kind: ClassVar[str] = "geodesic_polar"

    def metric_components(self, r, theta):
        r = np.asarray(r, dtype=float)
        fr = self.f(r)
        return np.ones_like(fr), np.zeros_like(fr), fr * fr

    def christoffel_components(self, r, theta):
        """Gamma^1_{11}, Gamma^1_{12}, Gamma^1_{22}, Gamma^2_{11}, Gamma^2_{12}, Gamma^2_{22}."""
        r = np.asarray(r, dtype=float)
        fr = self.f(r)
        fp = self.f_prime(r)
        zero = np.zeros_like(fr)
        return zero, zero, -fr * fp, zero, fp / fr, zero

    def curvature_at(self, r, theta=None):
        return np.asarray(self.curvature(np.asarray(r, dtype=float)), dtype=float)


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

    bounds = CurvatureBounds(
        c1=scale, c2=scale, c2_of_radius=lambda l: scale, c3=0.0, c4=0.0
    )
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
    derivatives of K; the log-curvature bounds c3 and c4 are sampled from
    them.
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
    # the loop itself runs on Python floats
    k_mid = np.asarray(K(radii[:-1] + 0.5 * h), dtype=float).tolist()
    k_end = np.asarray(K(radii[:-1] + h), dtype=float).tolist()
    fs = np.empty(n + 1)
    fps = np.empty(n + 1)
    fs[0], fps[0] = 0.0, 1.0
    y0, y1 = 0.0, 1.0
    half_h, sixth_h = 0.5 * h, h / 6.0
    for i, (ka, kb, kc) in enumerate(zip(kvals[:-1].tolist(), k_mid, k_end)):
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

    kp = np.asarray(k_prime(radii), dtype=float)
    kpp = np.asarray(k_double_prime(radii), dtype=float)
    # w = log(-K): w' = K'/K, w'' = K''/K - (K'/K)^2
    wp = kp / kvals
    wpp = kpp / kvals - wp**2
    # eigenvalues of g^{-1} Hess(w) for radial w are w'' and (f'/f) w'
    interior = slice(1, None)
    ang = fps[interior] / fs[interior] * wp[interior]
    c3 = float(np.max(np.abs(wp)))
    c4 = float(max(np.max(np.abs(wpp)), np.max(np.abs(ang))))

    bounds = CurvatureBounds(
        c1=float(neg_k.min()),
        c2=float(neg_k.max()),
        c2_of_radius=c2_of_radius,
        c3=c3,
        c4=c4,
    )
    metric = WarpedPolarMetric(
        f, f_prime, K, k_prime, k_double_prime, r_max, bounds,
        sample_radii=radii, sample_f=fs,
    )
    defect = jacobi_defect(metric)
    if defect > JACOBI_TOL:
        raise ValueError(
            f"Jacobi consistency defect {defect:.3e} exceeds tolerance {JACOBI_TOL:.1e}"
        )
    return metric


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
        i = np.clip(x.astype(np.intp), 0, last)
        t = x - i
        return ((c3[i] * t + c2[i]) * t + d0[i]) * t + y0[i]

    return evaluate


def jacobi_defect(m: WarpedPolarMetric) -> float:
    """Max of |f'' + K f| / max(1, f) over the ODE sample radii of f, with
    f'' from a five-point stencil.

    The check is independent of how f was produced: it differences sampled
    values of f instead of trusting the stored derivative.
    """
    radii = m.sample_radii
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
    """Conformal chart g = psi(x,y)(dx^2 + dy^2) on a sub-disc of radius < 1.

    ``psi_grad`` returns (psi_x, psi_y); ``psi_log_laplacian`` is the flat
    Laplacian of log psi in closed form, so the chart's curvature
    K = -lap(log psi)/(2 psi) is available without differencing.  The
    consistency of ``curvature`` with that identity is checked on a dense
    sample at construction, to a relative 1e-8.  Grids use chart-polar coordinates (rho, theta);
    all evaluation methods take those and convert internally.
    """

    psi: Callable
    psi_grad: Callable
    psi_log_laplacian: Callable
    curvature: Callable
    domain_radius: float
    bounds: CurvatureBounds | None = None
    pair_distance: Callable | None = None    # closed-form d((x1,y1),(x2,y2)) if known
    center_distance: Callable | None = None  # closed-form d(0, chart radius rho)

    kind: ClassVar[str] = "conformal_polar"

    def __post_init__(self):
        if not (0.0 < self.domain_radius < 1.0):
            raise ValueError("domain_radius must lie in (0, 1)")
        rho = np.linspace(0.0, self.domain_radius, 60)
        th = np.linspace(0.0, 2.0 * math.pi, 61)[:-1]
        R, T = np.meshgrid(rho, th, indexing="ij")
        x, y = R * np.cos(T), R * np.sin(T)
        k_stored = np.asarray(self.curvature(x, y), dtype=float)
        k_conf = -np.asarray(self.psi_log_laplacian(x, y), dtype=float) / (
            2.0 * np.asarray(self.psi(x, y), dtype=float)
        )
        err = np.max(np.abs(k_stored - k_conf) / np.maximum(1.0, np.abs(k_stored)))
        if err > 1e-8:
            raise ValueError(
                f"stored curvature disagrees with -lap(log psi)/(2 psi) by {err:.3e}"
            )

    def _xy(self, rho, theta):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        return rho * np.cos(theta), rho * np.sin(theta)

    def metric_components(self, rho, theta):
        x, y = self._xy(rho, theta)
        p = np.asarray(self.psi(x, y), dtype=float)
        rho = np.asarray(rho, dtype=float)
        return p, np.zeros_like(p), p * rho * rho

    def christoffel_components(self, rho, theta):
        """Chart-polar symbols of a conformal metric, via phi = log(psi)/2."""
        x, y = self._xy(rho, theta)
        p = np.asarray(self.psi(x, y), dtype=float)
        px, py = self.psi_grad(x, y)
        phx = np.asarray(px, dtype=float) / (2.0 * p)
        phy = np.asarray(py, dtype=float) / (2.0 * p)
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        ct, st = np.cos(theta), np.sin(theta)
        ph_rho = phx * ct + phy * st
        ph_th = rho * (-phx * st + phy * ct)
        g1_11 = ph_rho
        g1_12 = ph_th
        g1_22 = -rho - rho * rho * ph_rho
        g2_11 = -ph_th / rho**2
        g2_12 = 1.0 / rho + ph_rho
        g2_22 = ph_th
        return g1_11, g1_12, g1_22, g2_11, g2_12, g2_22

    def curvature_at(self, rho, theta):
        x, y = self._xy(rho, theta)
        return np.asarray(self.curvature(x, y), dtype=float)


def make_poincare(scale: float, domain_radius: float) -> ConformalDiscMetric:
    """Poincare disc chart with K = -scale: psi = (4/scale)/(1 - x^2 - y^2)^2."""
    if scale <= 0.0:
        raise ValueError(f"curvature scale must be positive, got {scale}")

    def psi(x, y):
        return (4.0 / scale) / (1.0 - x * x - y * y) ** 2

    def psi_grad(x, y):
        w = (1.0 - x * x - y * y) ** 3
        return (16.0 / scale) * x / w, (16.0 / scale) * y / w

    def psi_log_laplacian(x, y):
        return 8.0 / (1.0 - x * x - y * y) ** 2

    def curvature(x, y):
        return np.full_like(np.asarray(x, dtype=float), -scale)

    root = math.sqrt(scale)

    def pair_distance(x1, y1, x2, y2):
        q1 = 1.0 - x1 * x1 - y1 * y1
        q2 = 1.0 - x2 * x2 - y2 * y2
        chord = (x1 - x2) ** 2 + (y1 - y2) ** 2
        return np.arccosh(1.0 + 2.0 * chord / (q1 * q2)) / root

    def center_distance(rho):
        return 2.0 * np.arctanh(np.asarray(rho, dtype=float)) / root

    bounds = CurvatureBounds(scale, scale, lambda rho: scale, 0.0, 0.0)
    return ConformalDiscMetric(
        psi, psi_grad, psi_log_laplacian, curvature, domain_radius, bounds,
        pair_distance=pair_distance, center_distance=center_distance,
    )


def make_poincare_perturbed(scale: float, domain_radius: float, eps: float) -> ConformalDiscMetric:
    """Non-radial pinched perturbation of the Poincare chart.

    psi = (4/scale) e^{eps x} / (1 - x^2 - y^2)^2 keeps lap(log psi) in
    closed form (the added exponent is harmonic), giving K = -scale e^{-eps x}:
    strictly negative, pinched, and genuinely angle-dependent.
    """
    if scale <= 0.0:
        raise ValueError(f"curvature scale must be positive, got {scale}")
    R = domain_radius

    def psi(x, y):
        return (4.0 / scale) * np.exp(eps * x) / (1.0 - x * x - y * y) ** 2

    def psi_grad(x, y):
        b = (4.0 / scale) / (1.0 - x * x - y * y) ** 2
        bx = (16.0 / scale) * x / (1.0 - x * x - y * y) ** 3
        by = (16.0 / scale) * y / (1.0 - x * x - y * y) ** 3
        e = np.exp(eps * x)
        return (bx + eps * b) * e, by * e

    def psi_log_laplacian(x, y):
        return 8.0 / (1.0 - x * x - y * y) ** 2

    def curvature(x, y):
        return -scale * np.exp(-eps * np.asarray(x, dtype=float))

    # |grad log(-K)|_g = eps / sqrt(psi); Hess log(-K) sampled densely below
    rho = np.linspace(0.0, R, 80)
    th = np.linspace(0.0, 2.0 * math.pi, 81)[:-1]
    Rm, Tm = np.meshgrid(rho, th, indexing="ij")
    x, y = Rm * np.cos(Tm), Rm * np.sin(Tm)
    p = psi(x, y)
    c3 = float(np.max(abs(eps) / np.sqrt(p)))
    # Hess(w)_ab = eps Gamma^x_ab for w = -eps x; conformal symbols in
    # Cartesian coordinates are +-phi_x, +-phi_y
    px, py = psi_grad(x, y)
    phx, phy = px / (2.0 * p), py / (2.0 * p)
    h_xx, h_xy, h_yy = eps * phx, eps * phy, -eps * phx
    tr = (h_xx + h_yy) / p
    det = (h_xx * h_yy - h_xy**2) / p**2
    disc = np.sqrt(np.maximum((tr / 2.0) ** 2 - det, 0.0))
    c4 = float(np.max(np.abs(tr / 2.0) + disc))
    bounds = CurvatureBounds(
        c1=scale * math.exp(-abs(eps) * R),
        c2=scale * math.exp(abs(eps) * R),
        c2_of_radius=lambda rho_ball: scale * math.exp(abs(eps) * min(rho_ball, R)),
        c3=c3,
        c4=c4,
    )
    return ConformalDiscMetric(
        psi, psi_grad, psi_log_laplacian, curvature, domain_radius, bounds
    )
