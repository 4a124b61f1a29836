"""One pole-offset polar grid for both chart families, its stencils, and
the covariant Hessian.

Radial nodes sit at q1_i = (i + 1/2) h1 so no node lands on the coordinate
singularity, and radial stencils reaching below the first ring couple
across the pole to the antipodal column (the smooth continuation of a disc
function satisfies F(-r, theta) = F(r, theta + pi), with a sign flip for
each radial tensor index).  The outermost ring lies exactly on the domain
boundary and carries the Dirichlet value.  A grid of kind "polar" covers a
geodesic ball (q1 is geodesic distance); a grid of kind "disc" covers a
conformal chart disc (q1 is the chart radius).

A metric is evaluated on a grid once, into ChartData, which holds only
what the metric returns: charts are orthogonal, so readers form 1/g11 and
g11 g22 from the diagonal.  The covariant Hessian takes that chart.  The
metric is called on the open mesh (q1 as a column, q2 as a row), so a
chart that never reads theta, such as a warped polar metric, is evaluated
as one column and its full-width arrays are views of it broadcast along
theta.  ``ScalarField.column`` is the one test of a field's constancy
along theta.  Radial Newton iterates stay bitwise constant along theta;
when the field is and the chart is a column, the Hessian kernel runs on
column 0 and returns views of it broadcast along theta.  At width 1 the
theta rolls and the pole mirror's half turn are the identity and every
other operation is elementwise, so that column is bit for bit column 0 of
the full-width result.  Second-order centered stencils feed the
Monge-Ampere residual (see solver); audits may request higher radial
orders and spectrally accurate angular derivatives.  This module does no
file I/O: cli writes and reads the field CSVs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "GridTooCoarseError",
    "PolarGrid",
    "ScalarField",
    "HessianField",
    "ChartData",
    "chart_arrays",
    "covariant_hessian",
    "ghost_rows_below",
    "radial_derivative",
    "theta_derivative",
    "theta_derivative_spectral",
    "generalized_eig_range",
]

class GridTooCoarseError(ValueError):
    """Grid cannot support the second-order stencils."""


@dataclass(frozen=True)
class PolarGrid:
    """Pole-offset grid: q1_i = (i+1/2) h1 up to ``radius``, q2_j periodic.

    ``kind="polar"`` is a geodesic ball B(x0, radius); ``kind="disc"`` is a
    conformal chart disc of chart radius < 1.
    """

    n1: int
    n2: int
    radius: float
    theta0: float = 0.0
    kind: str = "polar"

    def __post_init__(self):
        if self.kind not in ("polar", "disc"):
            raise ValueError(f"unknown grid kind {self.kind!r} (expected 'polar' or 'disc')")
        if self.n2 % 2 != 0:
            raise ValueError("n_theta must be even (across-pole coupling)")
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("grid needs at least 2 radial and angular nodes")
        if self.kind == "disc":
            if not (0.0 < self.radius < 1.0):
                raise ValueError("chart_radius must lie in (0, 1)")
        elif self.radius <= 0.0:
            raise ValueError("ball_radius must be positive")

    @property
    def h1(self):
        return self.radius / (self.n1 - 0.5)

    @property
    def h2(self):
        return 2.0 * math.pi / self.n2

    @property
    def q1(self):
        return (np.arange(self.n1) + 0.5) * self.h1

    @property
    def q2(self):
        return self.theta0 + np.arange(self.n2) * self.h2

    @property
    def shape(self):
        return (self.n1, self.n2)

    def mesh(self):
        return np.meshgrid(self.q1, self.q2, indexing="ij")


@dataclass(frozen=True)
class ScalarField:
    """Grid function; construction rejects any non-finite value."""

    grid: PolarGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v[:, :1] if v.strides[1] == 0 else v)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    @cached_property
    def column(self):
        """Column 0 as an (n1, 1) view if each row holds one bit pattern (so
        0.0 != -0.0), else None; tested on first read."""
        v = self.values
        return v[:, :1] if v.strides[1] == 0 or _ring_constant(v) else None


@dataclass(frozen=True)
class ChartData:
    """The diagonal metric, curvature and Christoffel symbols at the nodes of ``grid``."""

    grid: PolarGrid
    g11: np.ndarray
    g22: np.ndarray
    K: np.ndarray
    gamma1_11: np.ndarray
    gamma1_12: np.ndarray
    gamma1_22: np.ndarray
    gamma2_11: np.ndarray
    gamma2_12: np.ndarray
    gamma2_22: np.ndarray
    # the (n1, 1) arrays the fields above broadcast, when the chart never reads theta
    column: ChartData | None = None


@dataclass(frozen=True)
class HessianField:
    """Covariant Hessian, gradient, and derived pointwise invariants of u."""

    chart: ChartData          # the chart the Hessian was taken in
    h11: np.ndarray
    h12: np.ndarray
    h22: np.ndarray
    du1: np.ndarray
    du2: np.ndarray
    grad_sq: np.ndarray       # |grad u|^2 in the metric
    det_ratio: np.ndarray     # det(Hess u + g) / det g
    eig_min: np.ndarray       # eigenvalues of g^{-1}(Hess u + g)
    eig_max: np.ndarray


def _ring_constant(F):
    """Whether the AND and the OR of each row's bits agree: row reductions,
    no (n1, n2) temporary."""
    bits = F.view(np.uint64)
    return bool(np.all(np.bitwise_and.reduce(bits, 1) == np.bitwise_or.reduce(bits, 1)))


def chart_arrays(metric, grid) -> ChartData:
    """The metric at the nodes of ``grid``, evaluated on the open mesh.

    Every field is a read-only array of the grid's shape.  A metric that
    never reads theta returns (n1, 1) arrays; they become ``column`` and
    the fields broadcast them along theta.
    """
    q1, q2 = np.meshgrid(grid.q1, grid.q2, indexing="ij", sparse=True)
    g11, g22 = metric.metric_components(q1, q2)
    gam = metric.christoffel_components(q1, q2)
    arrays = (g11, g22, metric.curvature_at(q1, q2), *gam)
    full = [np.broadcast_to(a, grid.shape) for a in arrays]
    column = (ChartData(grid, *(a[:, :1] for a in full))
              if all(a.shape == (grid.n1, 1) for a in arrays) else None)
    return ChartData(grid, *full, column=column)


# ---------------------------------------------------------------------------
# finite-difference stencils


@lru_cache(maxsize=None)
def _fd_weights(offsets: tuple, deriv: int) -> np.ndarray:
    """Weights approximating the deriv-th derivative from nodes at integer offsets."""
    o = np.asarray(offsets, dtype=float)
    p = np.arange(len(o))
    A = o[np.newaxis, :] ** p[:, np.newaxis]
    rhs = np.zeros(len(o))
    rhs[deriv] = math.factorial(deriv)
    w = np.linalg.solve(A, rhs)
    if deriv >= 1 and 0 in offsets:
        w[offsets.index(0)] -= w.sum()  # annihilate constants exactly
    return w


def ghost_rows_below(F: np.ndarray, depth: int) -> np.ndarray:
    """Prepend rows r_{-1-k} = F[k] rotated by half a turn (the pole mirror)."""
    half = F.shape[1] // 2
    ghosts = [np.roll(F[k], half) for k in range(depth)]
    return np.vstack([*reversed(ghosts), F])


def radial_derivative(F, h, deriv=1, order=2, across_pole=True):
    """d^deriv/dr^deriv along axis 0, accuracy `order`, ghost rows across the pole.

    Interior rows use centered stencils; the top order//2 rows fall back to
    one-sided stencils of the same order (used only by audits, never by the
    equation operator).  F is a scalar field: its ghost rows are the
    antipodal values, without a sign change.  With ``across_pole=False``
    (fields not smooth across the pole) the bottom order//2 rows are
    one-sided too.
    """
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    half = order // 2
    npts_c = 2 * half + 1
    if n < npts_c:
        raise GridTooCoarseError(f"need at least {npts_c} radial rows for order {order}")
    Fe = ghost_rows_below(F, half)
    out = np.empty_like(F)
    w = _fd_weights(tuple(range(-half, half + 1)), deriv) / h**deriv
    first = 0 if across_pole else half  # rows first..n_centered-1 are centered
    n_centered = n - half
    acc = np.zeros((n_centered - first, F.shape[1]))
    for k, o in enumerate(range(-half, half + 1)):
        acc += w[k] * Fe[half + o + first : half + o + n_centered]
    out[first:n_centered] = acc
    # one-sided rows, same formal order
    npts_o = order + deriv
    for i in [*range(first), *range(n_centered, n)]:
        lo = min(max(i - npts_o // 2, 0), n - npts_o)
        offs = tuple(range(lo - i, lo - i + npts_o))
        wo = _fd_weights(offs, deriv) / h**deriv
        row = np.zeros(F.shape[1])
        for k, o in enumerate(offs):
            row += wo[k] * F[i + o]
        out[i] = row
    return out


def theta_derivative(F, h, deriv=1):
    """Periodic second-order centered derivative along axis 1."""
    F = np.asarray(F, dtype=float)
    w = _fd_weights((-1, 0, 1), deriv) / h**deriv
    out = np.zeros_like(F)
    for k, o in enumerate((-1, 0, 1)):
        out += w[k] * np.roll(F, -o, axis=1)
    return out


def theta_derivative_spectral(F, deriv=1):
    """FFT derivative in theta (exact for resolved smooth periodic fields)."""
    F = np.asarray(F, dtype=float)
    n = F.shape[1]
    k = np.fft.rfftfreq(n, d=1.0 / n)  # integer wavenumbers
    mult = (1j * k) ** deriv
    if deriv % 2 == 1 and n % 2 == 0:
        mult[-1] = 0.0  # Nyquist mode has no well-defined odd derivative
    return np.fft.irfft(np.fft.rfft(F, axis=1) * mult, n=n, axis=1)


def generalized_eig_range(a11, a12, a22, g11, g22):
    """Eigenvalue range of g^{-1} A for symmetric A and the diagonal g of
    an orthogonal chart, g = diag(g11, g22)."""
    b11 = a11 / g11
    b22 = a22 / g22
    b12 = a12 / np.sqrt(g11 * g22)
    mean = 0.5 * (b11 + b22)
    disc = np.sqrt(np.maximum(0.25 * (b11 - b22) ** 2 + b12 * b12, 0.0))
    return mean - disc, mean + disc


# ---------------------------------------------------------------------------
# covariant operators


def covariant_hessian(u: ScalarField, chart: ChartData) -> HessianField:
    """Covariant Hessian Hess(u)_ij = d_i d_j u - Gamma^k_ij d_k u plus invariants.

    ``chart`` must be evaluated on the grid of ``u``.  Stencils are centered
    and second order; the top row of the returned arrays is one-sided and
    should only be consumed by audits.  When the chart is a column and
    ``u`` is bitwise constant along theta (``u.column``), the kernel runs on
    column 0 alone and the result holds read-only views of it broadcast
    along theta (``strides[1] == 0``), bit-identical to the full width:
    theta differences and the pole mirror map a width-1 column to itself.
    """
    grid = u.grid
    if chart.grid != grid:
        raise ValueError(f"chart was evaluated on {chart.grid}, not on the field's {grid}")
    if grid.n1 < 4 or grid.n2 < 8:
        raise GridTooCoarseError(
            f"grid {grid.shape} too coarse for the Hessian stencils "
            "(need n_r >= 4 and n_theta >= 8)"
        )
    if chart.column is not None and u.column is not None:
        column = _hessian_arrays(u.column, grid.h1, grid.h2, chart.column)
        return HessianField(chart, *(np.broadcast_to(a, grid.shape) for a in column))
    return HessianField(chart, *_hessian_arrays(u.values, grid.h1, grid.h2, chart))


def _hessian_arrays(F, h1, h2, chart):
    """The nine HessianField arrays of F, of any width, in chart arrays of that width."""
    du1 = radial_derivative(F, h1, deriv=1)
    du2 = theta_derivative(F, h2, deriv=1)
    d11 = radial_derivative(F, h1, deriv=2)
    d22 = theta_derivative(F, h2, deriv=2)
    d12 = radial_derivative(theta_derivative(F, h2, deriv=1), h1, deriv=1)
    h11 = d11 - chart.gamma1_11 * du1 - chart.gamma2_11 * du2
    h12 = d12 - chart.gamma1_12 * du1 - chart.gamma2_12 * du2
    h22 = d22 - chart.gamma1_22 * du1 - chart.gamma2_22 * du2
    grad_sq = 1.0 / chart.g11 * du1 * du1 + 1.0 / chart.g22 * du2 * du2
    a11, a22 = h11 + chart.g11, h22 + chart.g22
    det_ratio = (a11 * a22 - h12 * h12) / (chart.g11 * chart.g22)
    eig_min, eig_max = generalized_eig_range(a11, h12, a22, chart.g11, chart.g22)
    return h11, h12, h22, du1, du2, grad_sq, det_ratio, eig_min, eig_max
