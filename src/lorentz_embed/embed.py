"""Reconstruction of the isometric embedding into Lorentz-Minkowski 3-space.

From a solved field u the rescaled metric (g + d(sqrt(2u))^2)/(2u) has
constant curvature -1; its developing map onto the unit hyperboloid
H = {x3^2 - x1^2 - x2^2 = 1, x3 > 0} is computed by integrating the
orthonormal frame along a spanning tree of the grid (radially along a base
ray, then around each ring).  Flatness of the hyperbolic structure makes
the integration path-irrelevant up to the audited holonomy defect, so no
global elliptic solve is needed.  The embedding is X = sqrt(2u) i(y) in
the polar form of the ambient metric -dr^2 + r^2 ds_H^2, and all extrinsic
audits (pullback metric, normal identity, curvature compatibility, symmetry
of the covariant derivative of the shape form, graph pinching) are computed
from X itself.

Derivatives on the polar grid are taken in Cartesian chart components:
those are honest scalar fields on the disc (smooth across the pole), so
spectral theta-derivatives and mirrored radial stencils apply everywhere.
The frame fields are not smooth across the pole and use one-sided stencils
at the innermost rings instead.

export_graph triangulates the embedding into a Mesh; this module does no
file I/O, and cli writes the mesh as OBJ.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .exhaustion import _MIN_OBS_RINGS, _observation_rings
from .grid import radial_derivative, theta_derivative_spectral
# Unused here (charts come with field.hessian); kept for span tracers that wrap it.
from .grid import chart_arrays  # noqa: F401
from .solver import AdmissibleField

__all__ = [
    "ObservationRegionError",
    "CurvatureCheckError",
    "ConformalHyperbolicMetric",
    "DevelopingMap",
    "EmbeddingMap",
    "EmbeddingAudit",
    "Mesh",
    "conformal_metric",
    "develop",
    "assemble_embedding",
    "verify_embedding",
    "build_embedding",
    "export_graph",
]

_ETA = np.array([1.0, 1.0, -1.0])
# accuracy of every radial stencil here (scalar and frame fields)
_RADIAL_ORDER = 6
# RK4 substeps per grid edge of the developing map
_N_SUB = 2
# rings developed beyond the observation radius, so the audits stay centered
_PAD_ROWS = 6
# rings (or rows of radial edges) the developing map transports at once
_RING_BLOCK = 8


class ObservationRegionError(ValueError):
    """The observation radius covers fewer than 4 rings of the grid."""


class CurvatureCheckError(ValueError):
    """The rescaled metric's curvature misses -1 by more than check_tol."""


def minkowski_inner(a, b):
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] - a[..., 2] * b[..., 2]


def _lorentz_inv(M):
    s = _ETA[:, None] * _ETA[None, :]
    return np.swapaxes(M, -1, -2) * s


def _rot3(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# Cartesian derivative operators on the polar grid (scalar fields only)


class _CartesianCalc:
    """d/dx and d/dy on scalar fields over a polar grid.

    Uses spectral theta-derivatives and mirrored sixth-order radial
    stencils; every division by the radius happens pointwise on fields
    that vanish there, so no accuracy is lost near the pole.
    """

    def __init__(self, grid, rows):
        self.h1 = grid.h1
        # an open mesh: r is a column, cos and sin are rows
        self.r = grid.q1[:rows, None]
        self.cos = np.cos(grid.q2)[None, :]
        self.sin = np.sin(grid.q2)[None, :]

    def grad(self, F):
        """(dF/dx, dF/dy) from one radial and one spectral derivative."""
        dr = radial_derivative(F, self.h1, deriv=1, order=_RADIAL_ORDER)
        dt = theta_derivative_spectral(F) / self.r
        return self.cos * dr - self.sin * dt, self.sin * dr + self.cos * dt

    def grad_vec(self, V):
        """grad applied to each component of a vector field V[..., k]."""
        dx, dy = np.empty(V.shape), np.empty(V.shape)
        for k in range(V.shape[-1]):
            dx[..., k], dy[..., k] = self.grad(V[..., k])
        return dx, dy


def _polar_to_cartesian_metric(a11, a12, a22, r, cos, sin):
    """Covariant 2-tensor components from polar to Cartesian chart frame."""
    xx = cos**2 * a11 - 2.0 * cos * sin / r * a12 + sin**2 / r**2 * a22
    xy = cos * sin * a11 + (cos**2 - sin**2) / r * a12 - cos * sin / r**2 * a22
    yy = sin**2 * a11 + 2.0 * cos * sin / r * a12 + cos**2 / r**2 * a22
    return xx, xy, yy


def _brioschi_curvature(E, F, G, calc):
    """Gauss curvature of a metric given by Cartesian components E, F, G."""
    E_x, E_y = calc.grad(E)
    F_x, F_y = calc.grad(F)
    G_x, G_y = calc.grad(G)
    E_yy = calc.grad(E_y)[1]
    G_xx = calc.grad(G_x)[0]
    F_xy = calc.grad(F_x)[1]

    a = -0.5 * E_yy + F_xy - 0.5 * G_xx
    det1 = (
        a * (E * G - F * F)
        - 0.5 * E_x * ((F_y - 0.5 * G_x) * G - F * 0.5 * G_y)
        + (F_x - 0.5 * E_y) * ((F_y - 0.5 * G_x) * F - E * 0.5 * G_y)
    )
    det2 = -(0.5 * E_y) * (0.5 * E_y * G - 0.5 * G_x * F) + 0.5 * G_x * (
        0.5 * E_y * F - 0.5 * G_x * E
    )
    return (det1 - det2) / (E * G - F * F) ** 2


def _pullback_christoffels(G11, G12, G22, calc):
    """Christoffel symbols of a metric in Cartesian components, as gamma[k][a][b].

    gamma[k][a][b] is Gamma^k_ab, with indices 0 = x and 1 = y.
    """
    det_G = G11 * G22 - G12 * G12
    i11, i12, i22 = G22 / det_G, -G12 / det_G, G11 / det_G
    # symbols of the first kind, Gamma_{k,ab}, formed in the derivatives'
    # own arrays: 0.5 dG11, 0.5 dG22, and dG12 less the halves they need
    c111, c112 = calc.grad(G11)
    c111 *= 0.5
    c112 *= 0.5
    c212, c222 = calc.grad(G22)
    c212 *= 0.5
    c222 *= 0.5
    c211, c122 = calc.grad(G12)
    c211 -= c112
    c122 -= c212
    g1_11 = i11 * c111 + i12 * c211
    g1_12 = i11 * c112 + i12 * c212
    g1_22 = i11 * c122 + i12 * c222
    g2_11 = i12 * c111 + i22 * c211
    g2_12 = i12 * c112 + i22 * c212
    g2_22 = i12 * c122 + i22 * c222
    return (((g1_11, g1_12), (g1_12, g1_22)),
            ((g2_11, g2_12), (g2_12, g2_22)))


@dataclass(frozen=True)
class ConformalHyperbolicMetric:
    """The rescaled metric (g + du x du/(2u))/(2u) with its curvature check.

    Components are stored both in the grid's polar frame (gb11, gb12, gb22)
    and in the Cartesian chart frame.  ``max_defect`` is the largest |K + 1|
    over the certified rows, with K computed from the Cartesian components
    alone by finite differences, independently of the identity that makes
    it -1.
    """

    grid: object
    rows: int
    gb11: np.ndarray
    gb12: np.ndarray
    gb22: np.ndarray
    e11: np.ndarray
    e12: np.ndarray
    e22: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    max_defect: float


def conformal_metric(field: AdmissibleField, rows=None,
                     check_tol=1e-2) -> ConformalHyperbolicMetric:
    """Assemble the rescaled metric and certify its curvature is -1.

    ``rows`` limits the certified region (stencil-complete rows away from
    the outer boundary); the curvature defect must stay below ``check_tol``
    there or construction fails, since the developing map integration is
    only meaningful for a flat hyperbolic structure.
    """
    grid = field.u.grid
    u = field.u.values
    if np.any(u <= 0.0):
        raise ValueError("u must be positive everywhere to rescale the metric")
    n1 = grid.n1
    if rows is None:
        rows = n1 - 4
    rows = min(rows, n1)
    ch = field.hessian.chart

    du1 = radial_derivative(u, grid.h1, deriv=1, order=_RADIAL_ORDER)
    du2 = theta_derivative_spectral(u)
    gb11 = (ch.g11 + du1 * du1 / (2.0 * u)) / (2.0 * u)
    gb12 = du1 * du2 / (2.0 * u) / (2.0 * u)
    gb22 = (ch.g22 + du2 * du2 / (2.0 * u)) / (2.0 * u)

    gb11, gb12, gb22 = gb11[:rows], gb12[:rows], gb22[:rows]
    calc = _CartesianCalc(grid, rows)
    E, F, G = _polar_to_cartesian_metric(gb11, gb12, gb22, calc.r, calc.cos, calc.sin)
    with np.errstate(all="ignore"):  # a NaN or inf K fails the check that follows
        K = _brioschi_curvature(E, F, G, calc)
        defect = float(np.abs(K + 1.0).max())
    if not defect <= check_tol:
        raise CurvatureCheckError(
            f"rescaled metric is not hyperbolic to tolerance: max |K+1| = {defect:.3e}"
            f" > {check_tol:.1e}"
        )

    # orthonormal coframe (upper-triangular Cholesky) and connection form;
    # these are frame quantities, not smooth across the pole: edge stencils
    det_gb = gb11 * gb22 - gb12 * gb12
    e11 = np.sqrt(gb11)
    e12 = gb12 / e11
    e22 = np.sqrt(det_gb / gb11)
    d1_e11 = radial_derivative(e11, grid.h1, order=_RADIAL_ORDER, across_pole=False)
    d1_e12 = radial_derivative(e12, grid.h1, order=_RADIAL_ORDER, across_pole=False)
    d1_e22 = radial_derivative(e22, grid.h1, order=_RADIAL_ORDER, across_pole=False)
    d2_e11 = theta_derivative_spectral(e11)
    w1 = (d1_e12 - d2_e11) / e22
    w2 = (d1_e22 + w1 * e12) / e11
    return ConformalHyperbolicMetric(
        grid, rows, gb11, gb12, gb22, e11, e12, e22, w1, w2, defect
    )


# ---------------------------------------------------------------------------
# developing map


def _frame_generator(w, a, b=None):
    """so(2,1) generator [[0,-w,a],[w,0,b],[a,b,0]] from coefficient arrays;
    b defaults to zero."""
    A = np.zeros(np.shape(w) + (3, 3))
    A[..., 0, 1] = -w
    A[..., 1, 0] = w
    A[..., 0, 2] = A[..., 2, 0] = a
    if b is not None:
        A[..., 1, 2] = A[..., 2, 1] = b
    return A


def _rk4_transport(w, a, b, h, n_sub):
    """Propagators of dE/dt = E A(t) over edges, A = _frame_generator(w, a, b).

    w, a and b (None for zero) have shape (..., 2*n_sub + 1): samples at
    the half-substep points of each edge.  Each stage's generator is formed
    when the step reaches it.
    """
    E = np.broadcast_to(np.eye(3), w.shape[:-1] + (3, 3)).copy()
    hh = h / n_sub

    def generator(k):
        return _frame_generator(w[..., k], a[..., k], None if b is None else b[..., k])

    A1 = generator(0)
    for s in range(n_sub):
        A0, Am, A1 = A1, generator(2 * s + 1), generator(2 * s + 2)
        k1 = E @ A0
        k2 = (E + 0.5 * hh * k1) @ Am
        k3 = (E + 0.5 * hh * k2) @ Am
        k4 = (E + hh * k3) @ A1
        E = E + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return E


def _so21_log(C, terms=5):
    """Matrix log of a near-identity isometry, projected onto the Lie algebra."""
    E = C - np.broadcast_to(np.eye(3), C.shape)
    G = E.copy()
    power = E
    for k in range(2, terms + 1):
        power = power @ E
        G = G + ((-1.0) ** (k + 1) / k) * power
    return 0.5 * (G - _lorentz_inv(G))


def _so21_exp(G, terms=6):
    """Matrix exponential by series (arguments here are O(curvature defect))."""
    out = np.broadcast_to(np.eye(3), G.shape).copy()
    power = np.broadcast_to(np.eye(3), G.shape).copy()
    fact = 1.0
    for k in range(1, terms + 1):
        power = power @ G
        fact *= k
        out = out + power / fact
    return out


def _reorthonormalize(M):
    """Project frames onto the isometry group of diag(1,1,-1) (Gram-Schmidt)."""
    E1, E2, P = M[..., 0], M[..., 1], M[..., 2]
    P = P / np.sqrt(-minkowski_inner(P, P))[..., None]
    E1 = E1 + minkowski_inner(E1, P)[..., None] * P
    E1 = E1 / np.sqrt(minkowski_inner(E1, E1))[..., None]
    E2 = E2 + minkowski_inner(E2, P)[..., None] * P - minkowski_inner(E2, E1)[..., None] * E1
    E2 = E2 / np.sqrt(minkowski_inner(E2, E2))[..., None]
    return np.stack([E1, E2, P], axis=-1)


def _fft_resample(F, num):
    """Band-limited resampling of a periodic F to ``num`` >= n samples along
    the last axis: the rfft spectrum is zero-padded, the unpaired Nyquist
    bin of an even n split evenly between its two images, and the result
    scaled by num / n (the arithmetic of ``scipy.signal.resample``)."""
    n = F.shape[-1]
    X = np.fft.rfft(F)
    if n % 2 == 0:
        X[..., n // 2] *= 0.5
    return np.fft.irfft(X / (n / num), n=num)


def _theta_stage_samples(F, n_sub):
    """Samples of a periodic field at the RK4 stage angles of every edge.

    Returns array (..., N, 2*n_sub+1): stage k of edge j sits at angle
    theta_j + k * h_theta / (2 n_sub); the resampling is spectral.
    """
    n = F.shape[-1]
    factor = 2 * n_sub
    fine = _fft_resample(F, factor * n)
    idx = (np.arange(n)[:, None] * factor + np.arange(factor + 1)[None, :]) % (factor * n)
    return fine[..., idx]


def _radial_stage_samples(F, n_sub, start, stop):
    """Samples at r_i + h (k / (2 n_sub)), k = 0..2n_sub, i = start..stop-1,
    stop <= M-1.

    Cubic Lagrange interpolation on a sliding four-row window (one-sided at
    the two ends); returns array (stop - start, N, 2*n_sub+1).
    """
    i = np.arange(start, stop)
    base = np.clip(i - 1, 0, F.shape[0] - 4)
    x0 = i - base
    out = np.empty((i.size, F.shape[1], 2 * n_sub + 1))
    for k in range(2 * n_sub + 1):
        x = x0 + k / (2.0 * n_sub)
        l0 = -(x - 1.0) * (x - 2.0) * (x - 3.0) / 6.0
        l1 = x * (x - 2.0) * (x - 3.0) / 2.0
        l2 = -x * (x - 1.0) * (x - 3.0) / 2.0
        l3 = x * (x - 1.0) * (x - 2.0) / 6.0
        out[:, :, k] = (l0[:, None] * F[base] + l1[:, None] * F[base + 1]
                        + l2[:, None] * F[base + 2] + l3[:, None] * F[base + 3])
    return out


def _extrapolate_to_segment(F_col, r_nodes, s_pts):
    """Cubic extrapolation of a ray profile to points below the first node."""
    r = r_nodes[:4]
    s = np.asarray(s_pts, dtype=float)
    W = np.empty((s.size, 4))
    for k in range(4):  # Lagrange weight of node k
        a, b, c = (r[m] for m in range(4) if m != k)
        W[:, k] = (s - a) * (s - b) * (s - c) / ((r[k] - a) * (r[k] - b) * (r[k] - c))
    return W @ F_col[:4]


@dataclass(frozen=True)
class DevelopingMap:
    """Isometry of the rescaled metric onto the unit hyperboloid, per node.

    ``frames`` are elements of the linear isometry group of diag(1,1,-1)
    whose third column is the image point; the chart pole is normalized to
    the apex (0, 0, 1) with the base-ray direction mapped to the x1 axis
    direction of the hyperboloid chart; the base ray is the grid's first
    column.  Holonomy diagnostics measure path independence of the
    transport.
    """

    grid: object
    rows: int
    frames: np.ndarray
    points: np.ndarray
    path_defect: float
    cell_defect_max: float
    cell_defect_sum: float
    eta_drift: float


def develop(gbar: ConformalHyperbolicMetric) -> DevelopingMap:
    """Integrate the orthonormal frame of the rescaled metric into R^{2,1}.

    Transport runs radially out along the base ray (the first column) and
    then around each ring, in _N_SUB RK4 steps per grid edge; a second
    assembly in the opposite order provides the path-independence defect.
    Per-cell loop transports give the local holonomy, which vanishes like
    a power of the spacing when the structure is genuinely flat.  Only the
    angular edge propagators and the frames are kept, (rows, n2, 3, 3)
    each; the rest runs _RING_BLOCK rings, or rows of radial edges, at a
    time, and forms each RK4 stage's generator when the step reaches it.
    """
    grid, rows = gbar.grid, gbar.rows
    n2 = grid.n2

    P_th = np.empty((rows, n2, 3, 3))
    for i in range(0, rows, _RING_BLOCK):
        ring = slice(i, min(i + _RING_BLOCK, rows))
        w, a, b = (_theta_stage_samples(F[ring], _N_SUB) for F in (gbar.w2, gbar.e12, gbar.e22))
        P_th[ring] = _rk4_transport(w, a, b, grid.h2, _N_SUB)

    # pole normalization: continue the frame from the base node to the pole
    s_stages = np.linspace(grid.q1[0], 0.0, 2 * _N_SUB + 1)
    a_seg = _extrapolate_to_segment(gbar.e11[:rows, 0], grid.q1, s_stages)
    w_seg = _extrapolate_to_segment(gbar.w1[:rows, 0], grid.q1, s_stages)
    P_in = _rk4_transport(w_seg[None], a_seg[None], None, -grid.q1[0], _N_SUB)[0]
    L = _rot3(grid.q2[0]) @ _lorentz_inv(_reorthonormalize(P_in))

    # order A: radial along the base ray, then angular around every ring
    framesA = np.empty((rows, n2, 3, 3))
    framesA[0, 0] = np.eye(3)
    cur = np.eye(3)
    base_ray = _radial_propagators(gbar, rows, 0, rows - 1, cols=slice(0, 1))
    for i in range(rows - 1):
        cur = cur @ base_ray[i, 0]
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
    for i in range(0, rows, _RING_BLOCK):
        ring = slice(i, i + _RING_BLOCK)
        framesA[ring] = L @ _reorthonormalize(framesA[ring])

    # order B: angular around the innermost ring, then radial along every
    # ray, compared with order A a block of rings at a time; each block of
    # radial edges also closes its rows of per-cell loops
    cur = np.empty((n2, 3, 3))
    cur[0] = np.eye(3)
    for j in range(1, n2):
        cur[j] = cur[j - 1] @ P_th[0, j - 1]
    path_defect = float(np.abs(framesA[0, :, :, 2] - (L @ _reorthonormalize(cur))[..., 2]).max())
    jp1 = (np.arange(n2) + 1) % n2
    cell_defect = np.empty((rows - 1, n2))
    for i in range(0, rows - 1, _RING_BLOCK):
        edges = slice(i, min(i + _RING_BLOCK, rows - 1))
        P_r = _radial_propagators(gbar, rows, edges.start, edges.stop)
        loops = (P_r @ P_th[edges.start + 1:edges.stop + 1] @ _lorentz_inv(P_r[:, jp1])
                 @ _lorentz_inv(P_th[edges]))
        cell_defect[edges] = np.sqrt(np.sum((loops - np.eye(3)) ** 2, axis=(-2, -1)))
        framesB = np.empty_like(P_r)
        for k, P in enumerate(P_r):
            cur = cur @ P
            if (edges.start + k + 1) % 16 == 0:
                cur = _reorthonormalize(cur)
            framesB[k] = cur
        points = (L @ _reorthonormalize(framesB))[..., 2]
        rings = slice(edges.start + 1, edges.stop + 1)
        path_defect = max(path_defect, float(np.abs(framesA[rings, :, :, 2] - points).max()))

    # distribute each ring's closure holonomy uniformly around the ring:
    # the transported frame is defined up to this gauge, and smoothing it
    # removes the seam jump that would otherwise pollute differentiation
    # of the assembled embedding (the raw defect is reported above)
    G_close = _so21_log(closure)
    for j in range(1, n2):
        framesA[:, j] = framesA[:, j] @ _so21_exp((-j / n2) * G_close)
    eta = np.diag(_ETA)
    eta_drift = 0.0
    for i in range(0, rows, _RING_BLOCK):
        ring = slice(i, i + _RING_BLOCK)
        framesA[ring] = _reorthonormalize(framesA[ring])
        gram = np.swapaxes(framesA[ring], -1, -2) @ (eta @ framesA[ring])
        eta_drift = max(eta_drift, float(np.abs(gram - eta).max()))

    return DevelopingMap(
        grid=grid,
        rows=rows,
        frames=framesA,
        points=framesA[..., 2],
        path_defect=path_defect,
        cell_defect_max=float(cell_defect.max()),
        cell_defect_sum=float(cell_defect.sum()),
        eta_drift=eta_drift,
    )


def _radial_propagators(gbar, rows, start, stop, cols=slice(None)):
    """RK4 propagators of the radial edges from ring i to ring i + 1, i =
    start..stop-1, in the columns ``cols``: (stop - start, n_cols, 3, 3).
    The radial generator has omega^2(d_r) = 0."""
    w, a = (_radial_stage_samples(F[:rows, cols], _N_SUB, start, stop)
            for F in (gbar.w1, gbar.e11))
    return _rk4_transport(w, a, None, gbar.grid.h1, _N_SUB)


# ---------------------------------------------------------------------------
# embedding assembly and verification


@dataclass(frozen=True)
class EmbeddingMap:
    """Grid-indexed spacelike immersion X with its extrinsic data.

    ``pullback`` and ``shape`` hold the induced metric and the second
    fundamental form in Cartesian chart components, ``christoffel`` the
    pullback's Christoffel symbols as gamma[k][a][b]; ``normal`` is the
    future-timelike unit normal.  The graph height is the third component
    of X over the first two.  ``chart`` is the field's chart data on the
    whole grid, which the extrinsic audit compares against.
    """

    grid: object
    rows: int
    X: np.ndarray
    normal: np.ndarray
    pullback: tuple
    shape: tuple
    christoffel: tuple
    u_values: np.ndarray
    metric: object
    chart: object
    developing: DevelopingMap


def assemble_embedding(field: AdmissibleField, dev: DevelopingMap) -> EmbeddingMap:
    """X = sqrt(2u) i(y), with normal and shape form differenced from X.

    The second fundamental form is h_ab = Gamma^c_ab <X_c, n> - <X_ab, n>
    (all quantities in Cartesian chart components, Christoffel symbols of
    the pullback itself), so every extrinsic audit is a pure function of
    the reconstructed surface.
    """
    grid = field.u.grid
    rows = dev.rows
    u = field.u.values[:rows]
    X = np.sqrt(2.0 * u)[..., None] * dev.points

    calc = _CartesianCalc(grid, rows)
    Xa, Xb = calc.grad_vec(X)
    G11 = minkowski_inner(Xa, Xa)
    G12 = minkowski_inner(Xa, Xb)
    G22 = minkowski_inner(Xb, Xb)
    det_G = G11 * G22 - G12 * G12
    if np.any(det_G <= 0.0) or np.any(G11 <= 0.0):
        raise ValueError("induced metric is degenerate or not spacelike")

    # the symbols first, then the normal and one second derivative of X at a time
    gam = _pullback_christoffels(G11, G12, G22, calc)
    n = np.stack([
        Xa[..., 1] * Xb[..., 2] - Xa[..., 2] * Xb[..., 1],
        Xa[..., 2] * Xb[..., 0] - Xa[..., 0] * Xb[..., 2],
        Xa[..., 0] * Xb[..., 1] - Xa[..., 1] * Xb[..., 0],
    ], axis=-1)
    n *= _ETA
    n /= np.sqrt(-minkowski_inner(n, n))[..., None]
    n[n[..., 2] < 0.0] *= -1.0  # future-timelike: <n, (0,0,1)> < 0 in signature (+,+,-)

    xa_n = minkowski_inner(Xa, n)
    xb_n = minkowski_inner(Xb, n)
    Xaa, Xab = calc.grad_vec(Xa)  # Xab holds d_y Xa until d_x Xb is added
    del Xa
    h11 = gam[0][0][0] * xa_n + gam[1][0][0] * xb_n - minkowski_inner(Xaa, n)
    del Xaa
    Xb_x, Xbb = calc.grad_vec(Xb)
    del Xb
    h22 = gam[0][1][1] * xa_n + gam[1][1][1] * xb_n - minkowski_inner(Xbb, n)
    del Xbb
    Xab += Xb_x
    Xab *= 0.5
    del Xb_x
    h12 = gam[0][0][1] * xa_n + gam[1][0][1] * xb_n - minkowski_inner(Xab, n)

    return EmbeddingMap(
        grid=grid,
        rows=rows,
        X=X,
        normal=n,
        pullback=(G11, G12, G22),
        shape=(h11, h12, h22),
        christoffel=gam,
        u_values=u,
        metric=field.metric,
        chart=field.hessian.chart,
        developing=dev,
    )


@dataclass(frozen=True)
class EmbeddingAudit:
    """Pointwise extrinsic checks of the reconstructed surface."""

    pullback_rel_err: float
    u_identity_err: float
    normal_identity_err: float
    pinching_margin_cone: float
    pinching_margin_lower: float
    pinching_margin_upper: float
    pinching_saturation: float
    gauss_residual: float
    codazzi_residual: float
    a_norm_max: float
    holonomy_path_defect: float
    holonomy_cell_sum: float
    eta_drift: float
    audit_rows: int
    worst_pullback_node: tuple

    def _not_finite(self):
        return [k for k, v in asdict(self).items() if isinstance(v, float) and not math.isfinite(v)]

    def failures(self, pullback_tol, pinching_slack):
        """A message for each gate the audit fails: an audited number that is
        not finite, a pullback error that is not at most ``pullback_tol``, a
        pinching margin that is not at least ``-pinching_slack``."""
        out = [f"{k} is {getattr(self, k)}, not a finite number" for k in self._not_finite()]
        if not self.pullback_rel_err <= pullback_tol:
            out.append(f"pullback error {self.pullback_rel_err:.3e} at node "
                       f"{self.worst_pullback_node} exceeds {pullback_tol:g}")
        for name in ("cone", "lower", "upper"):
            margin = getattr(self, f"pinching_margin_{name}")
            if not margin >= -pinching_slack:
                out.append(f"pinching margin ({name}) {margin:.3e} < -{pinching_slack:g}")
        return out


def verify_embedding(emb: EmbeddingMap, audit_rows) -> EmbeddingAudit:
    """Extrinsic verification of an assembled embedding.

    Reports the worst relative pullback error against the chart metric,
    the algebraic identities tying X, n, and u together, the graph
    pinching margins between the light cone and the two bounding
    hyperboloids, the curvature compatibility residual |K + det h/det G|,
    the symmetry defect of the covariant derivative of the shape form
    (measured in the invariant tensor norm), and the largest shape-form
    norm |A|, each over the first ``audit_rows`` rings.  The chart metric
    and curvature come from ``emb.chart``.
    """
    grid = emb.grid
    rows = min(audit_rows, emb.rows)
    sl = slice(0, rows)
    calc = _CartesianCalc(grid, emb.rows)
    X, n, u = emb.X, emb.normal, emb.u_values

    # chart metric in Cartesian components
    ch = emb.chart
    chart_metric = _polar_to_cartesian_metric(
        ch.g11[: emb.rows], 0.0, ch.g22[: emb.rows], calc.r, calc.cos, calc.sin)
    pullback_rel_err, worst_node = _pullback_error(emb.pullback, chart_metric, sl)
    u_identity = float(np.abs(-0.5 * minkowski_inner(X, X) - u)[sl].max())
    normal_identity = _normal_identity(X, n, u, chart_metric, calc, sl)
    del chart_metric
    cone, lower, upper, saturation = _pinching_margins(X, emb.metric.bounds, sl)

    G11, G12, G22 = emb.pullback
    h11, h12, h22 = emb.shape
    det_G = G11 * G22 - G12 * G12
    det_h = h11 * h22 - h12 * h12
    gauss = float(np.abs(det_h / det_G + ch.K[: emb.rows])[sl].max())
    del det_h

    i12 = -G12 / det_G
    inv = ((G22 / det_G, i12), (i12, G11 / det_G))
    del det_G, i12
    codazzi = _codazzi_residual(emb.shape, emb.christoffel, inv, calc, sl)

    # |A|^2 = h_ab h_cd G^{ac} G^{bd}, summed in the index order a, b, c, d
    h = ((h11, h12), (h12, h22))
    a_sq = 0.0
    for a, b, c, d in itertools.product((0, 1), repeat=4):
        a_sq = a_sq + h[a][b] * h[c][d] * inv[a][c] * inv[b][d]
    a_norm_max = float(np.sqrt(np.maximum(a_sq, 0.0))[sl].max())

    dev = emb.developing
    return EmbeddingAudit(
        pullback_rel_err=pullback_rel_err,
        u_identity_err=u_identity,
        normal_identity_err=normal_identity,
        pinching_margin_cone=cone,
        pinching_margin_lower=lower,
        pinching_margin_upper=upper,
        pinching_saturation=saturation,
        gauss_residual=gauss,
        codazzi_residual=codazzi,
        a_norm_max=a_norm_max,
        holonomy_path_defect=dev.path_defect,
        holonomy_cell_sum=dev.cell_defect_sum,
        eta_drift=dev.eta_drift,
        audit_rows=rows,
        worst_pullback_node=worst_node,
    )


def _pullback_error(pullback, chart_metric, sl):
    """Largest relative error of the pullback against the chart metric over
    the rows ``sl``, and the node where it occurs."""
    (G11, G12, G22), (gxx, gxy, gyy) = pullback, chart_metric
    num = np.sqrt((G11 - gxx) ** 2 + 2 * (G12 - gxy) ** 2 + (G22 - gyy) ** 2)
    den = np.sqrt(gxx**2 + 2 * gxy**2 + gyy**2)
    rel = (num / den)[sl]
    worst = np.unravel_index(int(np.argmax(rel)), rel.shape)
    return float(rel.max()), tuple(int(v) for v in worst)


def _normal_identity(X, n, u, chart_metric, calc, sl):
    """Largest |<X, n>^2 - (|grad u|^2 + 2u)| over the rows ``sl``."""
    gxx, gxy, gyy = chart_metric
    du_x, du_y = calc.grad(u)
    det_g = gxx * gyy - gxy * gxy
    grad_sq = (gyy * du_x * du_x - 2 * gxy * du_x * du_y + gxx * du_y * du_y) / det_g
    xn = minkowski_inner(X, n)
    return float(np.abs(xn * xn - (grad_sq + 2.0 * u))[sl].max())


def _pinching_margins(X, bounds, sl):
    """Smallest margins of the graph above the light cone, above the lower
    and below the upper bounding hyperboloid, and the largest distance to
    either hyperboloid, over the rows ``sl``."""
    Z = X[sl, :, 2]
    amb = X[sl, :, 0] ** 2 + X[sl, :, 1] ** 2
    cone = float((Z - np.sqrt(amb)).min())
    upper = np.sqrt(1.0 / bounds.c1 + amb) - Z
    lower = Z - np.sqrt(1.0 / bounds.c2 + amb)
    saturation = float(max(np.abs(upper).max(), np.abs(lower).max()))
    return cone, float(lower.min()), float(upper.min()), saturation


def _codazzi_residual(shape, gam, inv, calc, sl):
    """Largest invariant norm of the antisymmetric part of the covariant
    derivative of the shape form over the rows ``sl``."""
    h11, h12, h22 = shape
    h = ((h11, h12), (h12, h22))
    dh11, dh12, dh22 = calc.grad(h11), calc.grad(h12), calc.grad(h22)
    dh = ((dh11, dh12), (dh12, dh22))  # dh[b][c][a] = d_a h_bc

    def cov_dh(a, b, c):
        out = dh[b][c][a]
        for d in (0, 1):
            out = out - gam[d][a][b] * h[d][c]
            out = out - gam[d][a][c] * h[b][d]
        return out

    # antisymmetric part in the first two slots: only (x, y) matters
    T_c = [cov_dh(0, 1, c) - cov_dh(1, 0, c) for c in (0, 1)]
    # |T|^2 = T_xyc T_xyf G^xx G^yy ... contract the antisymmetric pair with
    # 2 det(G^{-1}) and the last slot with G^{-1}
    pair_factor = (inv[0][0] * inv[1][1] - inv[0][1] * inv[0][1])
    codazzi_sq = np.zeros_like(h11)
    for c in (0, 1):
        for f in (0, 1):
            codazzi_sq += T_c[c] * T_c[f] * inv[c][f]
    codazzi_sq = 2.0 * pair_factor * codazzi_sq
    return float(np.sqrt(np.maximum(codazzi_sq, 0.0))[sl].max())


def build_embedding(field: AdmissibleField, l_obs, check_tol=1e-2):
    """Full pipeline on the observation ball: rescale, develop, assemble.

    The developing region extends _PAD_ROWS rings beyond the
    observation radius (but stays clear of the outer boundary) so that the
    audit region is differenced with centered stencils only.
    """
    grid = field.u.grid
    obs_rows = _observation_rings(grid, l_obs)
    if obs_rows < _MIN_OBS_RINGS:
        raise ObservationRegionError(
            f"observation region too small: l_obs = {l_obs:g} covers {obs_rows} "
            f"rings of the grid (ring spacing {grid.h1:.4g}), fewer than {_MIN_OBS_RINGS}"
        )
    dev_rows = min(obs_rows + _PAD_ROWS, grid.n1 - 4)
    gbar = conformal_metric(field, rows=dev_rows, check_tol=check_tol)
    dev = develop(gbar)
    emb = assemble_embedding(field, dev)
    audit = verify_embedding(emb, audit_rows=obs_rows)
    return gbar, dev, emb, audit


# ---------------------------------------------------------------------------
# graph export


@dataclass(frozen=True)
class Mesh:
    """Triangulated graph mesh: row-major ring vertices plus one pole vertex."""

    vertices: np.ndarray
    faces: np.ndarray


def export_graph(emb: EmbeddingMap, rows=None) -> Mesh:
    """Triangulate the graph (x1, x2, Z) over the developed region.

    Vertex 0 is the pole point (0, 0, sqrt(2 u(pole))) with u extrapolated
    to the chart center; ring vertices follow row-major.  Triangles are
    oriented counterclockwise seen from +x3.
    """
    rows = emb.rows if rows is None else min(rows, emb.rows)
    if rows < 2:
        raise ValueError("too few rings for triangulation (need at least 2)")
    grid = emb.grid
    n2 = grid.n2
    u_pole = float(np.mean(_extrapolate_to_segment(emb.u_values, grid.q1, [0.0])))
    pole = np.array([[0.0, 0.0, math.sqrt(2.0 * u_pole)]])
    ring_vertices = emb.X[:rows].reshape(rows * n2, 3)
    vertices = np.vstack([pole, ring_vertices])

    j = np.arange(n2)
    jn = (j + 1) % n2
    faces = np.empty((n2 * (2 * rows - 1), 3), dtype=j.dtype)
    faces[:n2] = np.stack([np.zeros_like(j), 1 + j, 1 + jn], axis=-1)  # the pole fan
    quads = faces[n2:].reshape(rows - 1, n2, 6)  # two triangles per cell
    ring = 1 + n2 * np.arange(rows - 1)[:, None]  # first vertex of rings 0..rows-2
    quads[..., 0] = quads[..., 3] = ring + j
    quads[..., 1] = ring + n2 + j
    quads[..., 2] = quads[..., 4] = ring + n2 + jn
    quads[..., 5] = ring + jn
    return Mesh(vertices=vertices, faces=faces)
