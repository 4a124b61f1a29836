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
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .grid import radial_derivative, theta_derivative_spectral
# Unused here (charts come with field.hessian); kept for span tracers that wrap it.
from .grid import chart_arrays  # noqa: F401
from .solver import AdmissibleField

__all__ = [
    "ObservationRegionError",
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
    "write_obj",
]

_ETA = np.array([1.0, 1.0, -1.0])
# accuracy of every radial stencil here (scalar and frame fields)
_RADIAL_ORDER = 6
# RK4 substeps per grid edge of the developing map
_N_SUB = 2
# rings developed beyond the observation radius, so the audits stay centered
_PAD_ROWS = 6
# rings the observation radius must cover for the audits
_MIN_OBS_RINGS = 4


class ObservationRegionError(ValueError):
    """The observation radius covers fewer than 4 rings of the grid."""


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
        q1, q2 = grid.mesh()
        self.r = q1[:rows]
        self.cos = np.cos(q2[:rows])
        self.sin = np.sin(q2[:rows])

    def grad(self, F):
        """(dF/dx, dF/dy) from one radial and one spectral derivative."""
        dr = radial_derivative(F, self.h1, deriv=1, order=_RADIAL_ORDER)
        dt = theta_derivative_spectral(F) / self.r
        return self.cos * dr - self.sin * dt, self.sin * dr + self.cos * dt

    def grad_vec(self, V):
        """grad applied to each component of a vector field V[..., k]."""
        parts = [self.grad(V[..., k]) for k in range(V.shape[-1])]
        return (np.stack([p[0] for p in parts], axis=-1),
                np.stack([p[1] for p in parts], axis=-1))


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
    G11_x, G11_y = calc.grad(G11)
    G12_x, G12_y = calc.grad(G12)
    G22_x, G22_y = calc.grad(G22)
    det_G = G11 * G22 - G12 * G12
    i11, i12, i22 = G22 / det_G, -G12 / det_G, G11 / det_G
    # symbols of the first kind, Gamma_{k,ab}
    c111 = 0.5 * G11_x
    c112 = 0.5 * G11_y
    c122 = G12_y - 0.5 * G22_x
    c211 = G12_x - 0.5 * G11_y
    c212 = 0.5 * G22_x
    c222 = 0.5 * G22_y
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
    and in the Cartesian chart frame; ``curvature`` is computed from the
    Cartesian components alone by finite differences, independently of the
    identity that makes it -1, and ``max_defect`` is the largest |K + 1|
    over the certified rows.
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
    curvature: np.ndarray
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
    gb12 = (ch.g12 + du1 * du2 / (2.0 * u)) / (2.0 * u)
    gb22 = (ch.g22 + du2 * du2 / (2.0 * u)) / (2.0 * u)

    gb11, gb12, gb22 = gb11[:rows], gb12[:rows], gb22[:rows]
    calc = _CartesianCalc(grid, rows)
    E, F, G = _polar_to_cartesian_metric(gb11, gb12, gb22, calc.r, calc.cos, calc.sin)
    K = _brioschi_curvature(E, F, G, calc)
    defect = float(np.abs(K + 1.0).max())
    if defect > check_tol:
        raise ValueError(
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
        grid, rows, gb11, gb12, gb22, e11, e12, e22, w1, w2, K, defect
    )


# ---------------------------------------------------------------------------
# developing map


def _frame_generator(w, a, b):
    """so(2,1) generator [[0,-w,a],[w,0,b],[a,b,0]] from coefficient arrays."""
    z = np.zeros_like(w)
    return np.stack([
        np.stack([z, -w, a], axis=-1),
        np.stack([w, z, b], axis=-1),
        np.stack([a, b, z], axis=-1),
    ], axis=-2)


def _rk4_transport(A_stages, h, n_sub):
    """Propagators of dE/dt = E A(t) over one edge, from sampled generators.

    A_stages has shape (..., 2*n_sub + 1, 3, 3) with samples at the
    half-substep points of the edge.
    """
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


def _radial_stage_samples(F, n_sub):
    """Samples at r_i + h (k / (2 n_sub)), k = 0..2n_sub, i = 0..M-2.

    Cubic Lagrange interpolation on a sliding four-row window (one-sided at
    the two ends); returns array (M-1, N, 2*n_sub+1).
    """
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
    holonomy_tol: float

    @property
    def holonomy_ok(self):
        return self.path_defect <= self.holonomy_tol


def develop(gbar: ConformalHyperbolicMetric, rows=None,
            holonomy_tol=1e-5) -> DevelopingMap:
    """Integrate the orthonormal frame of the rescaled metric into R^{2,1}.

    Transport runs radially out along the base ray (the first column) and
    then around each ring, in _N_SUB RK4 steps per grid edge; a second
    assembly in the opposite order provides the path-independence defect.
    Per-cell loop transports give the local holonomy, which vanishes like
    a power of the spacing when the structure is genuinely flat.
    """
    grid = gbar.grid
    if rows is None:
        rows = gbar.rows
    if rows > gbar.rows:
        raise ValueError("cannot develop beyond the certified rows")
    n2 = grid.n2
    h1, h2 = grid.h1, grid.h2

    e11 = gbar.e11[:rows]
    e12 = gbar.e12[:rows]
    e22 = gbar.e22[:rows]
    w1 = gbar.w1[:rows]
    w2 = gbar.w2[:rows]

    # angular edge propagators, all rings at once
    A_th = _frame_generator(
        _theta_stage_samples(w2, _N_SUB),
        _theta_stage_samples(e12, _N_SUB),
        _theta_stage_samples(e22, _N_SUB),
    )
    P_th = _rk4_transport(A_th, h2, _N_SUB)

    # radial edge propagators, all rays at once (omega^2(d_r) = 0)
    st_e11 = _radial_stage_samples(e11, _N_SUB)
    st_w1 = _radial_stage_samples(w1, _N_SUB)
    A_r = _frame_generator(st_w1, st_e11, np.zeros_like(st_e11))
    P_r = _rk4_transport(A_r, h1, _N_SUB)

    # order A: radial along the base ray, then angular around every ring
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

    # order B: angular around the innermost ring, then radial along every ray
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

    # pole normalization: continue the frame from the base node to the pole
    s_stages = np.linspace(grid.q1[0], 0.0, 2 * _N_SUB + 1)
    a_seg = _extrapolate_to_segment(e11[:, 0], grid.q1, s_stages)
    w_seg = _extrapolate_to_segment(w1[:, 0], grid.q1, s_stages)
    A_seg = _frame_generator(w_seg, a_seg, np.zeros_like(a_seg))
    P_in = _rk4_transport(A_seg[None, ...], -grid.q1[0], _N_SUB)[0]
    M_pole = _reorthonormalize(P_in)
    L = _rot3(grid.q2[0]) @ _lorentz_inv(M_pole)

    framesA = L @ framesA
    framesB = L @ framesB
    pointsA = framesA[..., 2]
    pointsB = framesB[..., 2]
    path_defect = float(np.abs(pointsA - pointsB).max())

    # distribute each ring's closure holonomy uniformly around the ring:
    # the transported frame is defined up to this gauge, and smoothing it
    # removes the seam jump that would otherwise pollute differentiation
    # of the assembled embedding (the raw defect is reported above)
    G_close = _so21_log(closure)
    for j in range(1, n2):
        framesA[:, j] = framesA[:, j] @ _so21_exp((-j / n2) * G_close)
    framesA = _reorthonormalize(framesA)
    pointsA = framesA[..., 2]

    # per-cell loop holonomy
    inv_P_r = _lorentz_inv(P_r)
    inv_P_th = _lorentz_inv(P_th)
    jp1 = (np.arange(n2) + 1) % n2
    loops = (P_r[:, :] @ P_th[1:, :] @ inv_P_r[:, jp1] @ inv_P_th[:-1, :])
    cell_defect = np.sqrt(np.sum((loops - np.eye(3)) ** 2, axis=(-2, -1)))
    eta = np.diag(_ETA)
    gram = np.swapaxes(framesA, -1, -2) @ (eta @ framesA)
    eta_drift = float(np.abs(gram - eta).max())

    return DevelopingMap(
        grid=grid,
        rows=rows,
        frames=framesA,
        points=pointsA,
        path_defect=path_defect,
        cell_defect_max=float(cell_defect.max()),
        cell_defect_sum=float(cell_defect.sum()),
        eta_drift=eta_drift,
        holonomy_tol=holonomy_tol,
    )


# ---------------------------------------------------------------------------
# embedding assembly and verification


@dataclass(frozen=True)
class EmbeddingMap:
    """Grid-indexed spacelike immersion X with its extrinsic data.

    ``pullback`` and ``shape`` hold the induced metric and the second
    fundamental form in Cartesian chart components; ``normal`` is the
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

    cross = np.stack([
        Xa[..., 1] * Xb[..., 2] - Xa[..., 2] * Xb[..., 1],
        Xa[..., 2] * Xb[..., 0] - Xa[..., 0] * Xb[..., 2],
        Xa[..., 0] * Xb[..., 1] - Xa[..., 1] * Xb[..., 0],
    ], axis=-1)
    n = cross * _ETA
    nn = minkowski_inner(n, n)
    n = n / np.sqrt(-nn)[..., None]
    flip = n[..., 2] < 0.0
    n[flip] *= -1.0  # future-timelike: <n, (0,0,1)> < 0 in signature (+,+,-)

    Xaa, Xa_y = calc.grad_vec(Xa)
    Xb_x, Xbb = calc.grad_vec(Xb)
    Xab = 0.5 * (Xa_y + Xb_x)

    gam = _pullback_christoffels(G11, G12, G22, calc)
    xa_n = minkowski_inner(Xa, n)
    xb_n = minkowski_inner(Xb, n)
    h11 = gam[0][0][0] * xa_n + gam[1][0][0] * xb_n - minkowski_inner(Xaa, n)
    h12 = gam[0][0][1] * xa_n + gam[1][0][1] * xb_n - minkowski_inner(Xab, n)
    h22 = gam[0][1][1] * xa_n + gam[1][1][1] * xb_n - minkowski_inner(Xbb, n)

    return EmbeddingMap(
        grid=grid,
        rows=rows,
        X=X,
        normal=n,
        pullback=(G11, G12, G22),
        shape=(h11, h12, h22),
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

    def to_json_dict(self):
        return {**asdict(self), "worst_pullback_node": list(self.worst_pullback_node)}


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
    bounds = emb.metric.bounds
    grid = emb.grid
    rows = min(audit_rows, emb.rows)
    sl = slice(0, rows)

    calc = _CartesianCalc(grid, emb.rows)
    G11, G12, G22 = emb.pullback
    h11, h12, h22 = emb.shape
    det_G = G11 * G22 - G12 * G12

    # chart metric in Cartesian components
    ch = emb.chart
    gxx, gxy, gyy = _polar_to_cartesian_metric(
        ch.g11[: emb.rows], ch.g12[: emb.rows], ch.g22[: emb.rows],
        calc.r, calc.cos, calc.sin)
    num = np.sqrt((G11 - gxx) ** 2 + 2 * (G12 - gxy) ** 2 + (G22 - gyy) ** 2)
    den = np.sqrt(gxx**2 + 2 * gxy**2 + gyy**2)
    rel = (num / den)[sl]
    worst_flat = int(np.argmax(rel))
    worst_node = tuple(int(v) for v in np.unravel_index(worst_flat, rel.shape))
    pullback_rel_err = float(rel.max())

    X, n, u = emb.X, emb.normal, emb.u_values
    u_identity = float(np.abs(-0.5 * minkowski_inner(X, X) - u)[sl].max())

    du_x, du_y = calc.grad(u)
    det_g = gxx * gyy - gxy * gxy
    grad_sq = (gyy * du_x * du_x - 2 * gxy * du_x * du_y + gxx * du_y * du_y) / det_g
    xn = minkowski_inner(X, n)
    normal_identity = float(np.abs(xn * xn - (grad_sq + 2.0 * u))[sl].max())

    Z = X[..., 2]
    amb = X[..., 0] ** 2 + X[..., 1] ** 2
    cone = (Z - np.sqrt(amb))[sl]
    upper = (np.sqrt(1.0 / bounds.c1 + amb) - Z)[sl]
    lower = (Z - np.sqrt(1.0 / bounds.c2 + amb))[sl]
    saturation = float(max(np.abs(upper).max(), np.abs(lower).max()))

    K_chart = ch.K[: emb.rows]
    det_h = h11 * h22 - h12 * h12
    gauss = float(np.abs(det_h / det_G + K_chart)[sl].max())

    # covariant derivative symmetry of the shape form, invariant norm
    i11, i12, i22 = G22 / det_G, -G12 / det_G, G11 / det_G
    gam = _pullback_christoffels(G11, G12, G22, calc)
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
    inv = ((i11, i12), (i12, i22))
    # |T|^2 = T_xyc T_xyf G^xx G^yy ... contract the antisymmetric pair with
    # 2 det(G^{-1}) and the last slot with G^{-1}
    pair_factor = (i11 * i22 - i12 * i12)
    codazzi_sq = np.zeros_like(G11)
    for c in (0, 1):
        for f in (0, 1):
            codazzi_sq += T_c[c] * T_c[f] * inv[c][f]
    codazzi_sq = 2.0 * pair_factor * codazzi_sq
    codazzi = float(np.sqrt(np.maximum(codazzi_sq, 0.0))[sl].max())

    # |A|^2 = h_ab h_cd G^{ac} G^{bd}
    hmat = np.stack([np.stack([h11, h12], -1), np.stack([h12, h22], -1)], -2)
    Ginv = np.stack([np.stack([i11, i12], -1), np.stack([i12, i22], -1)], -2)
    a_sq = np.einsum("...ab,...cd,...ac,...bd->...", hmat, hmat, Ginv, Ginv)
    a_norm_max = float(np.sqrt(np.maximum(a_sq, 0.0))[sl].max())

    dev = emb.developing
    return EmbeddingAudit(
        pullback_rel_err=pullback_rel_err,
        u_identity_err=u_identity,
        normal_identity_err=normal_identity,
        pinching_margin_cone=float(cone.min()),
        pinching_margin_lower=float(lower.min()),
        pinching_margin_upper=float(upper.min()),
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


def build_embedding(field: AdmissibleField, l_obs, check_tol=1e-2, holonomy_tol=1e-5):
    """Full pipeline on the observation ball: rescale, develop, assemble.

    The developing region extends _PAD_ROWS rings beyond the
    observation radius (but stays clear of the outer boundary) so that the
    audit region is differenced with centered stencils only.
    """
    grid = field.u.grid
    obs_rows = int(np.searchsorted(grid.q1, l_obs + 1e-12))
    if obs_rows < _MIN_OBS_RINGS:
        raise ObservationRegionError(
            f"observation region too small: l_obs = {l_obs:g} covers {obs_rows} "
            f"rings of the grid (ring spacing {grid.h1:.4g}), fewer than {_MIN_OBS_RINGS}"
        )
    dev_rows = min(obs_rows + _PAD_ROWS, grid.n1 - 4)
    gbar = conformal_metric(field, rows=dev_rows, check_tol=check_tol)
    dev = develop(gbar, rows=dev_rows, holonomy_tol=holonomy_tol)
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
    fan = np.stack([np.zeros_like(j), 1 + j, 1 + jn], axis=-1)
    ring = 1 + n2 * np.arange(rows - 1)[:, None]  # first vertex of rings 0..rows-2
    v00, v01, v10, v11 = ring + j, ring + jn, ring + n2 + j, ring + n2 + jn
    quads = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)
    return Mesh(vertices=vertices, faces=np.vstack([fan, quads]))


def write_obj(mesh: Mesh, path):
    """Wavefront OBJ with v/f records; faces are 1-indexed."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")
