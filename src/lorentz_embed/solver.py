"""Damped Newton solution of the Monge-Ampere Dirichlet problem.

The equation det(Hess u + g)/det g = -K (|grad u|^2 + 2u) is solved on a
fixed ball with constant boundary value b = 1/(2 max(-K)).  The constant
field u = b is a strict subsolution and an admissible starting point
(Hess u = 0, g > 0), so a damped Newton iteration on the log-form residual
replaces the continuity method: failures here are damping issues, not
modeling issues.  Every solve starts from that constant.  The line search
halves the step until both admissibility margins (min eigenvalue of
g^{-1}(Hess u + g) and min of |grad u|^2 + 2u) retain at least the fraction
MARGIN_KEEP of their previous values, giving up below MIN_STEP.

Each Newton step differentiates the discrete residual exactly: nine
stencil-coefficient arrays per iteration, one per (radial, angular)
offset.  When every one of them is exactly constant along theta (radial
metrics keep radial iterates radial), an rfft in theta splits the step
into n_theta/2 + 1 independent complex tridiagonal radial systems, the
pole coupling to the antipodal column becoming the factor (-1)^k in mode
k (the separable FFT/tridiagonal scheme of Swarztrauber & Sweet, ACM
TOMS Alg. 541).  Any other state assembles the sparse Jacobian and
factors it with splu.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded

from .grid import ScalarField, HessianField, chart_arrays, covariant_hessian

__all__ = [
    "DirichletProblem",
    "AdmissibleField",
    "SubsolutionReport",
    "NonConvergenceError",
    "solve_dirichlet",
    "certify",
    "verify_subsolution",
]

# line search: smallest step tried, and the share of each margin a step keeps
MIN_STEP = 1e-12
MARGIN_KEEP = 0.1


class NonConvergenceError(RuntimeError):
    """Newton failed to converge; carries the iteration trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class DirichletProblem:
    """A Monge-Ampere Dirichlet solve on one ball.

    boundary_value defaults to 1/(2 max(-K)) over the solve domain, the
    constant subsolution value.  Tolerance applies to the infinity norm of
    the interior log-residual.
    """

    metric: object
    grid: object
    boundary_value: float | None = None
    tol: float = 1e-10
    max_iter: int = 30

    def __post_init__(self):
        if self.tol <= 0.0 or self.max_iter < 1:
            raise ValueError("tol must be positive and max_iter >= 1")
        if self.boundary_value is None:
            if self.metric.bounds is None:
                raise ValueError("metric carries no bounds; pass boundary_value")
            b = 1.0 / (2.0 * self.metric.bounds.c2_of_radius(self.grid.radius))
            object.__setattr__(self, "boundary_value", float(b))
        if self.boundary_value <= 0.0:
            raise ValueError("boundary value must be positive")
        if self.metric.bounds is not None:
            cap = 1.0 / (2.0 * self.metric.bounds.c1)
            if self.boundary_value > cap + 1e-12:
                raise ValueError(
                    f"boundary value {self.boundary_value} exceeds 1/(2 c1) = {cap}"
                )


@dataclass(frozen=True)
class AdmissibleField:
    """A solved field together with its admissibility certificate.

    min_eigenvalue is the minimum over nodes of the eigenvalues of
    g^{-1}(Hess u + g); rhs_min the minimum of |grad u|^2 + 2u.  Both must
    be strictly positive or construction fails.
    """

    u: ScalarField
    hessian: HessianField
    min_eigenvalue: float
    rhs_min: float
    metric: object
    boundary_value: float
    ball_radius: float
    iterations: int
    trace: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.min_eigenvalue <= 0.0:
            raise ValueError(
                f"field is not admissible: min eigenvalue {self.min_eigenvalue}"
            )
        if self.rhs_min <= 0.0:
            raise ValueError(f"equation right side loses positivity: {self.rhs_min}")


@dataclass(frozen=True)
class SubsolutionReport:
    """Margin of the constant-subsolution inequality 1 - (-K) 2b >= 0."""

    margin: float
    worst_node: tuple
    passed: bool


class _Stencil:
    """Second-order interior stencil coefficients shared by residual and Jacobian."""

    RT = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1))

    def __init__(self, h1, h2):
        c = 1.0 / (4.0 * h1 * h2)
        z = 0.0
        # per offset: (s_r, s_t, s_rr, s_tt, s_rt)
        self.coef = {
            (-1, -1): (z, z, z, z, +c),
            (-1, 0): (-0.5 / h1, z, 1.0 / h1**2, z, z),
            (-1, 1): (z, z, z, z, -c),
            (0, -1): (z, -0.5 / h2, z, 1.0 / h2**2, z),
            (0, 0): (z, z, -2.0 / h1**2, -2.0 / h2**2, z),
            (0, 1): (z, +0.5 / h2, z, 1.0 / h2**2, z),
            (1, -1): (z, z, z, z, -c),
            (1, 0): (+0.5 / h1, z, 1.0 / h1**2, z, z),
            (1, 1): (z, z, z, z, +c),
        }


@dataclass
class _State:
    values: np.ndarray
    hessian: HessianField
    rhs: np.ndarray
    eig_margin: float
    rhs_margin: float
    residual: np.ndarray | None  # interior rows only; None when inadmissible

    @property
    def admissible(self):
        return self.residual is not None

    @property
    def res_norm(self):
        return float(np.max(np.abs(self.residual)))


def _probe(values, chart):
    """Evaluate Hessian, margins, and (if admissible) the discrete residual.

    This is the one definition of the discrete equation.  Interior nodes
    carry log[det(Hess u + g)/det g] - log[-K (|grad u|^2 + 2u)]; the log
    form symmetrizes the two positivity requirements, and a state violating
    either at an interior node has no residual.  The boundary ring is not
    part of the residual: the solver pins it to the Dirichlet value.
    """
    grid = chart.grid
    u = ScalarField(grid, values)
    hess = covariant_hessian(u, chart, order=2)
    s = hess.grad_sq + 2.0 * values
    interior = slice(0, grid.n1 - 1)
    eig_margin = float(hess.eig_min[interior].min())
    rhs_margin = float(s[interior].min())
    if eig_margin <= 0.0 or rhs_margin <= 0.0:
        return _State(values, hess, s, eig_margin, rhs_margin, None)
    residual = np.log(hess.det_ratio[interior]) - np.log(
        (-chart.K[interior]) * s[interior]
    )
    return _State(values, hess, s, eig_margin, rhs_margin, residual)


def _stencil_coefficients(state, ch, stencil):
    """Jacobian coefficient of each stencil offset at each interior node.

    Returns one (n1 - 1, n2) array per offset in ``_Stencil.RT`` order: the
    derivative of the interior log-residual at (i, j) with respect to the
    value at (i + di, j + dj), before any pole or periodic wrap.
    """
    ni = ch.grid.n1 - 1
    hess = state.hessian
    a11 = (hess.h11 + ch.g11)[:ni]
    a12 = (hess.h12 + ch.g12)[:ni]
    a22 = (hess.h22 + ch.g22)[:ni]
    det_a = a11 * a22 - a12 * a12
    du1 = hess.du1[:ni]
    du2 = hess.du2[:ni]
    s = state.rhs[:ni]
    inv11 = ch.inv11[:ni]
    inv22 = ch.inv22[:ni]
    g1_11, g1_12, g1_22 = ch.gamma1_11[:ni], ch.gamma1_12[:ni], ch.gamma1_22[:ni]
    g2_11, g2_12, g2_22 = ch.gamma2_11[:ni], ch.gamma2_12[:ni], ch.gamma2_22[:ni]

    coefs = []
    for off in stencil.RT:
        s_r, s_t, s_rr, s_tt, s_rt = stencil.coef[off]
        h11_c = s_rr - g1_11 * s_r - g2_11 * s_t
        h12_c = s_rt - g1_12 * s_r - g2_12 * s_t
        h22_c = s_tt - g1_22 * s_r - g2_22 * s_t
        coef = (a22 * h11_c - 2.0 * a12 * h12_c + a11 * h22_c) / det_a
        coef = coef - (2.0 * inv11 * du1 * s_r + 2.0 * inv22 * du2 * s_t) / s
        if off == (0, 0):
            coef = coef - 2.0 / s
        coefs.append(coef)
    return coefs


def _assemble_jacobian(state, ch, stencil, coefs=None):
    """Exact Jacobian of the discrete log-residual; boundary rows are identity."""
    if coefs is None:
        coefs = _stencil_coefficients(state, ch, stencil)
    n1, n2 = ch.grid.shape
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


def _theta_invariant(coefs):
    """Whether every coefficient array is exactly constant along theta."""
    return all(np.all(c == c[:, :1]) for c in coefs)


def _fourier_step(coefs, stencil, rhs):
    """Newton step for theta-invariant coefficients, one radial solve per mode.

    ``rhs`` has the grid's shape; its boundary row is the step there (the
    boundary rows of the Jacobian are identity).  In Fourier mode k of an
    rfft along theta, the shift by dj columns is the factor w^dj with
    w = exp(2 pi i k / n2), and the pole mirror (a further shift by n2/2)
    adds (-1)^k.  Each mode is then a complex tridiagonal system in the
    radial index, solved by banded LU with partial pivoting.
    """
    n1, n2 = rhs.shape
    ni = n1 - 1
    k = np.arange(n2 // 2 + 1)
    phase = {dj: np.exp(2j * np.pi * k * dj / n2) for dj in (-1, 0, 1)}
    # per radial offset di: sum over dj of c_{di,dj}(r) w^dj, shape (ni, modes)
    band = {di: 0.0 for di in (-1, 0, 1)}
    for (di, dj), c in zip(stencil.RT, coefs):
        band[di] = band[di] + c[:, :1] * phase[dj]
    # ab[u + i - j, j] = A[i, j] for (l, u) = (1, 1); the boundary row is identity
    ab = np.zeros((k.size, 3, n1), dtype=complex)
    ab[:, 0, 1:] = band[1].T
    ab[:, 1, :ni] = band[0].T
    ab[:, 1, 0] += (-1.0) ** k * band[-1][0]
    ab[:, 1, ni] = 1.0
    ab[:, 2, : ni - 1] = band[-1][1:].T
    rhs_hat = np.fft.rfft(rhs, axis=1)
    out = np.empty_like(rhs_hat)
    for m in range(k.size):
        out[:, m] = solve_banded((1, 1), ab[m], rhs_hat[:, m], check_finite=False)
    return np.fft.irfft(out, n=n2, axis=1)


def _linear_solve(J, rhs):
    """Sparse direct solve with one step of iterative refinement if needed."""
    lu = spla.splu(J.tocsc())
    x = lu.solve(rhs)
    norm = np.linalg.norm(rhs)
    if norm > 0.0:
        r = rhs - J @ x
        if np.linalg.norm(r) > 1e-12 * norm:
            x = x + lu.solve(r)
    return x


def solve_dirichlet(problem: DirichletProblem) -> AdmissibleField:
    """Solve one Dirichlet problem by damped Newton from the constant subsolution.

    Returns an AdmissibleField whose interior log-residual infinity norm is
    <= problem.tol.  Raises NonConvergenceError with the trace when damping
    underflows or the iteration budget is exhausted.
    """
    grid = problem.grid
    metric = problem.metric
    b = problem.boundary_value
    chart = chart_arrays(metric, grid)
    stencil = _Stencil(grid.h1, grid.h2)

    trace = []
    step = np.nan
    # the constant start is admissible: Hess u = 0, and 2b > 0
    state = _probe(np.full(grid.shape, b), chart)

    for it in range(problem.max_iter + 1):
        res_norm = state.res_norm
        trace.append((it, res_norm, step, state.eig_margin))
        if res_norm <= problem.tol:
            return _finalize(ScalarField(grid, state.values), chart, metric, b, it, trace)
        rhs = np.zeros(grid.shape)
        rhs[:-1] = -state.residual
        coefs = _stencil_coefficients(state, chart, stencil)
        if _theta_invariant(coefs):
            delta = _fourier_step(coefs, stencil, rhs)
        else:
            J = _assemble_jacobian(state, chart, stencil, coefs)
            del coefs  # released before splu, so they do not add to its peak memory
            delta = _linear_solve(J, rhs.ravel()).reshape(grid.shape)

        t = 1.0
        accepted = None
        while t >= MIN_STEP:
            try:
                cand = _probe(state.values + t * delta, chart)
            except ValueError:  # non-finite trial state: damp it away
                t *= 0.5
                continue
            if (cand.admissible
                    and cand.eig_margin >= MARGIN_KEEP * state.eig_margin
                    and cand.rhs_margin >= MARGIN_KEEP * state.rhs_margin):
                accepted = cand
                break
            t *= 0.5
        if accepted is None:
            raise NonConvergenceError(
                f"damping underflow at iteration {it} (step < {MIN_STEP})",
                trace,
            )
        state = accepted
        step = t

    raise NonConvergenceError(
        f"no convergence in {problem.max_iter} iterations "
        f"(last residual {state.res_norm:.3e})",
        trace,
    )


def _finalize(u, chart, metric, boundary_value, iterations, trace):
    # audit-grade Hessian: one-sided top row included in the certificate
    hess = covariant_hessian(u, chart, order=2)
    s = hess.grad_sq + 2.0 * u.values
    return AdmissibleField(
        u=u,
        hessian=hess,
        min_eigenvalue=float(hess.eig_min.min()),
        rhs_min=float(s.min()),
        metric=metric,
        boundary_value=boundary_value,
        ball_radius=u.grid.radius,
        iterations=iterations,
        trace=trace,
    )


def certify(metric, grid, values, boundary_value, iterations=0) -> AdmissibleField:
    """Rebuild the admissibility certificate of a stored solution.

    Evaluates the chart once; the returned field's Hessian carries it.
    """
    u = ScalarField(grid, values)
    return _finalize(u, chart_arrays(metric, grid), metric, boundary_value, iterations, [])


def verify_subsolution(problem: DirichletProblem) -> SubsolutionReport:
    """Margin of det(Hess b + g)/det g >= -K (0 + 2b) for the constant start.

    For constant fields the left side is exactly 1, so the margin is
    min over nodes of 1 - 2 b (-K).  A negative margin means the boundary
    datum overestimates 1/(2 max(-K)) on this domain.
    """
    ch = chart_arrays(problem.metric, problem.grid)
    margin_field = 1.0 - 2.0 * problem.boundary_value * (-ch.K)
    flat = int(np.argmin(margin_field))
    worst = tuple(int(x) for x in np.unravel_index(flat, margin_field.shape))
    margin = float(margin_field.min())
    return SubsolutionReport(margin=margin, worst_node=worst, passed=margin >= -1e-12)
