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
offset.  The chart data is what the metric returns; charts are
orthogonal, so the coefficients form g^{-1} = diag(1/g11, 1/g22) from it
and add no off-diagonal metric term.  On a chart evaluated as one column (``ChartData.column``: a
metric that never reads theta, such as a warped polar metric) radial
iterates stay bitwise radial, so the whole Newton state is one (n1, 1)
column: values, residual, margins, coefficients, step and line-search
trials, and so is the answer: the solved field is that column broadcast
along theta, read-only (a block solve returns its own array, read-only
too).  A ring-constant right side excites angular mode 0 alone, where
every theta shift is the identity, so the step is one real tridiagonal
system in the radial index with bands sum_dj c_{di,dj}, the pole mirror
folded into ring 0's diagonal.  Gaussian elimination without pivoting
(the Thomas algorithm) solves it; that is stable on strictly row
diagonally dominant systems, which every radial step of the workloads
has been, with a smallest ratio |a_ii| / (|a_i,i-1| + |a_i,i+1|) of about
1.0005.  If the system fails the check, the state is broadcast to full
width and the step is one block step.

Any other state is solved by block elimination in the radial index: the
Jacobian is block tridiagonal with n_theta x n_theta blocks (theta wraps,
and the pole mirror folds into ring 0's diagonal block).  The forward
sweep builds each ring's diagonal block when it reaches it, applies the
coupling blocks (three wrapped theta taps each) straight from the
coefficient arrays, and inverts one Schur complement per ring with
LAPACK, partial pivoting inside the block but none between blocks, which
is stable on block diagonally dominant systems (Demmel, Higham &
Schreiber, Numer. Linear Algebra Appl. 2, 1995).  It keeps only those
inverses: (n1 - 1) n2^2 doubles, 2.1 MB on a 64 x 64 disc, where the three
stacked bands of blocks took 6.2 MB.  One refinement step reuses the
inverses.  A singular block, a non-finite step or a normwise backward
error above _BLOCK_BACKWARD_TOL fails the step, and a failed step stops
Newton.  Newton also stops at the residual's round-off floor once it
stalls there (DirichletProblem).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import ScalarField, HessianField, chart_arrays, covariant_hessian, ghost_rows_below

__all__ = [
    "DirichletProblem",
    "AdmissibleField",
    "NonConvergenceError",
    "solve_dirichlet",
    "certify",
]

# line search: smallest step tried, and the share of each margin a step keeps
MIN_STEP = 1e-12
MARGIN_KEEP = 0.1
# A block step whose normwise backward error, after refinement, exceeds
# this fails.  Measured on poincare_perturbed discs: at most 1.3e-16 on
# first steps of grids 24 x 16 to 128 x 128 (eps 0.1, 0.3), as for sparse
# LU; up to 5.9e-15 (sparse LU 2.4e-16) on the 64 x 64 steps whose right
# side is round-off, |rhs| ~ 1e-10, where the kept inverses lose a little.
# 1e-12 sits well above both and far below what would slow Newton down.
_BLOCK_BACKWARD_TOL = 1e-12
# A residual at or below its round-off floor stops Newton once a step cuts
# it by less than this factor; quadratic convergence cuts it by far more.
_FLOOR_PROGRESS = 4.0
# the (radial, angular) offset of each Jacobian coefficient, in _stencil_coefficients' order
_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1))


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

    Newton stops when that residual is at most ``tol``.  It also stops,
    "floor-limited", when the residual is at or below its round-off floor
    eps_mach * max_nodes(sum_k |c_k|) * max|u| (c_k the nine Jacobian
    stencil coefficients: how far the residual moves when the values move
    by one ulp) and the last step cut it by less than _FLOOR_PROGRESS.  The
    rule never accepts a residual above the floor and never fires while
    Newton still converges quadratically; a stall above the floor still
    fails.  On a column state the floor comes from the column's
    coefficients.
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
    be strictly positive or construction fails.  ``residual`` is the final
    interior log-residual, ``residual_floor`` its round-off floor there and
    ``floor_limited`` whether Newton stopped on the floor rather than on
    ``tol`` (see DirichletProblem); a certified stored field has none.
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
    residual: float | None = None
    residual_floor: float | None = None
    floor_limited: bool = False

    def __post_init__(self):
        if self.min_eigenvalue <= 0.0:
            raise ValueError(
                f"field is not admissible: min eigenvalue {self.min_eigenvalue}"
            )
        if self.rhs_min <= 0.0:
            raise ValueError(f"equation right side loses positivity: {self.rhs_min}")


@dataclass
class _State:
    values: np.ndarray
    hessian: HessianField | None  # None once the step's coefficients are taken
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
    ``values`` has the grid's shape, or (n1, 1) on a chart with a column,
    which broadcasts along theta; the state then holds columns.
    """
    grid = chart.grid
    width = values.shape[1]
    hess = covariant_hessian(ScalarField(grid, np.broadcast_to(values, grid.shape)), chart)
    s = hess.grad_sq[:, :width] + 2.0 * values
    interior = (slice(0, grid.n1 - 1), slice(0, width))
    eig_margin = float(hess.eig_min[interior].min())
    rhs_margin = float(s[interior].min())
    if eig_margin <= 0.0 or rhs_margin <= 0.0:
        return _State(values, hess, s, eig_margin, rhs_margin, None)
    residual = np.log(hess.det_ratio[interior]) - np.log(
        (-chart.K[interior]) * s[interior]
    )
    return _State(values, hess, s, eig_margin, rhs_margin, residual)


def _stencil_coefficients(state, ch):
    """Jacobian coefficient of each stencil offset at each interior node.

    Returns one (n1 - 1, width) array per offset in ``_OFFSETS`` order,
    width being that of the state's values: the derivative of the interior
    log-residual at (i, j) with respect to the value at (i + di, j + dj),
    before any pole or periodic wrap.  A column state gets columns.
    ``TestJacobian`` pins them to a difference of ``_probe``'s residual.
    """
    h1, h2 = ch.grid.h1, ch.grid.h2
    c = 1.0 / (4.0 * h1 * h2)
    z = 0.0
    # per offset: (s_r, s_t, s_rr, s_tt, s_rt), the second-order difference weights
    weights = (
        (z, z, z, z, +c),
        (-0.5 / h1, z, 1.0 / h1**2, z, z),
        (z, z, z, z, -c),
        (z, -0.5 / h2, z, 1.0 / h2**2, z),
        (z, z, -2.0 / h1**2, -2.0 / h2**2, z),
        (z, +0.5 / h2, z, 1.0 / h2**2, z),
        (z, z, z, z, -c),
        (+0.5 / h1, z, 1.0 / h1**2, z, z),
        (z, z, z, z, +c),
    )
    at = (slice(0, ch.grid.n1 - 1), slice(0, state.values.shape[1]))
    hess = state.hessian
    a11 = hess.h11[at] + ch.g11[at]
    a12 = hess.h12[at]
    a22 = hess.h22[at] + ch.g22[at]
    det_a = a11 * a22 - a12 * a12
    du1 = hess.du1[at]
    du2 = hess.du2[at]
    s = state.rhs[at]
    inv11 = 1.0 / ch.g11[at]
    inv22 = 1.0 / ch.g22[at]
    g1_11, g1_12, g1_22 = ch.gamma1_11[at], ch.gamma1_12[at], ch.gamma1_22[at]
    g2_11, g2_12, g2_22 = ch.gamma2_11[at], ch.gamma2_12[at], ch.gamma2_22[at]

    coefs = []
    for off, (s_r, s_t, s_rr, s_tt, s_rt) in zip(_OFFSETS, weights):
        h11_c = s_rr - g1_11 * s_r - g2_11 * s_t
        h12_c = s_rt - g1_12 * s_r - g2_12 * s_t
        h22_c = s_tt - g1_22 * s_r - g2_22 * s_t
        coef = (a22 * h11_c - 2.0 * a12 * h12_c + a11 * h22_c) / det_a
        coef = coef - (2.0 * inv11 * du1 * s_r + 2.0 * inv22 * du2 * s_t) / s
        if off == (0, 0):
            coef = coef - 2.0 / s
        coefs.append(coef)
    return coefs


def _radial_step(coefs, rhs, n2):
    """Newton step of a column state: the mode-0 radial system.

    ``coefs`` are (n1 - 1, 1) columns, ``rhs`` is (n1, 1) with its boundary
    row as for _block_step; every angular mode but 0 has a zero right side.
    Mode 0 is tridiagonal in the radial index, with bands sum_dj c_{di,dj},
    ring 0's di = -1 band (the pole mirror) folded into its diagonal, and
    an identity boundary row.  If it is strictly row diagonally dominant,
    elimination without pivoting solves it, stably; otherwise the whole
    step is a block step on everything broadcast to n2 columns.
    """
    n1 = rhs.shape[0]
    band = {di: 0.0 for di in (-1, 0, 1)}
    for (di, _), c in zip(_OFFSETS, coefs):
        band[di] = band[di] + c[:, 0]
    lower = np.r_[0.0, band[-1][1:], 0.0]
    diag = np.r_[band[0][0] + band[-1][0], band[0][1:], 1.0]
    upper = np.r_[band[1], 0.0]
    if not np.all(np.abs(diag) > np.abs(lower) + np.abs(upper)):
        return _block_step([np.broadcast_to(c, (n1 - 1, n2)) for c in coefs],
                           np.broadcast_to(rhs, (n1, n2)))
    return _tridiagonal_solve(lower.tolist(), diag.tolist(), upper.tolist(), rhs)


def _tridiagonal_solve(lower, diag, upper, rhs):
    """Solve one tridiagonal system for each column of the (n, k) array rhs.

    Gaussian elimination without pivoting (the Thomas algorithm) on bands of
    n floats (lower[0], upper[-1] unused), each column swept in Python floats,
    faster than numpy rows at the callers' n <= 200, k <= 32.  Each division
    is a product with the reciprocal, which is how numpy's complex division
    rounds: a mode-0 system solved in complex arithmetic gives the same bits.
    """
    n = len(diag)
    mult, inv = [0.0], [1.0 / diag[0]]
    for i in range(1, n):
        mult.append(lower[i] * inv[-1])
        inv.append(1.0 / (diag[i] - mult[i] * upper[i - 1]))
    x = np.empty((rhs.shape[1], n))
    for j, y in enumerate(x):
        b = rhs[:, j].tolist()
        for i in range(1, n):
            b[i] -= mult[i] * b[i - 1]
        b[-1] *= inv[-1]
        for i in range(n - 2, -1, -1):
            b[i] = (b[i] - upper[i] * b[i + 1]) * inv[i]
        y[:] = b
    return x.T


def _diagonal_block(coefs, i, n2):
    """Ring i's diagonal block of the interior Jacobian, as an (n2, n2) array.

    Theta offsets wrap.  Ring 0's di = -1 neighbour is ring 0 itself, half a
    turn on (the pole mirror), so those coefficients fold into its block.
    """
    half = n2 // 2
    j = np.arange(n2)
    block = np.zeros((n2, n2))
    for (di, dj), c in zip(_OFFSETS, coefs):
        if di == 0:
            block[j, (j + dj) % n2] += c[i]
        elif di == -1 and i == 0:
            block[j, (j + dj + half) % n2] += c[0]
    return block


def _coupling_taps(coefs, di):
    """The three wrapped theta taps of the blocks coupling each ring to ring
    i + di (di = +-1): row j of ring i's block holds c_{di,dj}[i, j] in
    column (j + dj) mod n2.  Returns (c_{di,dj}, (j + dj) mod n2,
    (j - dj) mod n2) per dj.  Ring 0's di = -1 block is zero (the pole
    mirror lives in its diagonal block), and the sweeps never apply it."""
    n2 = coefs[0].shape[1]
    j = np.arange(n2)
    return [(c, (j + dj) % n2, (j - dj) % n2)
            for (d, dj), c in zip(_OFFSETS, coefs) if d == di]


def _apply_coupling(taps, i, x):
    """B @ x for ring i's coupling block B given by ``taps``; x is (n2,) or (n2, m)."""
    (c0, k0, _), (c1, k1, _), (c2, k2, _) = taps
    if x.ndim == 2:
        return c0[i, :, None] * x[k0] + c1[i, :, None] * x[k1] + c2[i, :, None] * x[k2]
    return c0[i] * x[k0] + c1[i] * x[k1] + c2[i] * x[k2]


def _times_coupling(a, taps, i):
    """a @ B for ring i's coupling block B given by ``taps``; a is (m, n2)."""
    (c0, _, k0), (c1, _, k1), (c2, _, k2) = taps
    return (a * c0[i])[:, k0] + (a * c1[i])[:, k1] + (a * c2[i])[:, k2]


def _stencil_apply(coefs, x):
    """Interior rows of J @ x for a grid-shaped x, from the nine coefficient arrays."""
    ni = x.shape[0] - 1
    ext = ghost_rows_below(x, 1)  # row k is ring k - 1
    out = np.zeros((ni, x.shape[1]))
    for (di, dj), c in zip(_OFFSETS, coefs):
        out += c * np.roll(ext[1 + di:1 + di + ni], -dj, axis=1)
    return out


def _block_step(coefs, rhs):
    """Newton step by block elimination in the radial index.

    ``rhs`` has the grid's shape; its boundary row is the step there (the
    boundary rows of the Jacobian are identity), which moves to the right
    side of the last interior ring.  The forward sweep builds each ring's
    diagonal block when it reaches it and keeps only the inverse Schur
    complements S_i^{-1}, with S_i = D_i - L_i (S_{i-1}^{-1} U_{i-1}); the
    coupling blocks L_i and U_i are applied from the coefficient arrays.
    So the one refinement step (taken when the residual exceeds 1e-12 of
    the right side) costs matrix-vector products only.
    Raises LinAlgError naming the failed check: a singular Schur complement,
    a non-finite step, or a backward error above _BLOCK_BACKWARD_TOL.
    """
    n1, n2 = rhs.shape
    ni = n1 - 1
    lower, upper = _coupling_taps(coefs, -1), _coupling_taps(coefs, 1)
    b = rhs[:-1].copy()
    b[-1] -= _apply_coupling(upper, ni - 1, rhs[-1])
    inv = []
    for i in range(ni):
        schur = _diagonal_block(coefs, i, n2)
        if i:
            schur -= _apply_coupling(lower, i, _times_coupling(inv[-1], upper, i - 1))
        try:
            inv.append(np.linalg.inv(schur))
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError(
                f"block step: singular Schur complement at ring {i}") from None

    def solve(r):
        y = np.empty_like(r)
        y[0] = inv[0] @ r[0]
        for i in range(1, ni):
            y[i] = inv[i] @ (r[i] - _apply_coupling(lower, i, y[i - 1]))
        for i in range(ni - 2, -1, -1):
            y[i] -= inv[i] @ _apply_coupling(upper, i, y[i + 1])
        return y

    delta = np.vstack([solve(b), rhs[-1:]])
    r = rhs[:-1] - _stencil_apply(coefs, delta)
    if np.linalg.norm(r) > 1e-12 * np.linalg.norm(rhs):
        delta[:-1] += solve(r)
        r = rhs[:-1] - _stencil_apply(coefs, delta)
    # normwise backward error: |r| against |J| |delta| + |rhs|, max norms
    scale = sum(np.abs(c) for c in coefs).max() * np.abs(delta).max() + np.abs(rhs).max()
    if not np.all(np.isfinite(delta)):
        raise np.linalg.LinAlgError("block step: step is not finite")
    if not np.abs(r).max() <= _BLOCK_BACKWARD_TOL * scale:
        raise np.linalg.LinAlgError(
            f"block step: backward error {np.abs(r).max() / scale:.3e} "
            f"exceeds {_BLOCK_BACKWARD_TOL:g}")
    return delta


def solve_dirichlet(problem: DirichletProblem) -> AdmissibleField:
    """Solve one Dirichlet problem by damped Newton from the constant subsolution.

    Returns an AdmissibleField whose interior log-residual infinity norm is
    <= problem.tol, or at most its round-off floor when Newton stopped
    floor-limited (DirichletProblem).  Raises NonConvergenceError with the
    trace when a step fails its checks, damping underflows, the iteration
    budget runs out, or the converged field fails its certificate.
    """
    grid = problem.grid
    metric = problem.metric
    b = problem.boundary_value
    chart = chart_arrays(metric, grid)

    trace = []
    step = np.nan
    # the constant start is admissible: Hess u = 0, and 2b > 0
    state = _probe(np.full((grid.n1, 1 if chart.column is not None else grid.n2), b), chart)

    for it in range(problem.max_iter + 1):
        res_norm = state.res_norm
        trace.append((it, res_norm, step, state.eig_margin))
        coefs = _stencil_coefficients(state, chart)
        state.hessian = None  # the step and the line search read only coefs and margins
        floor = _residual_floor(coefs, state.values)
        floor_limited = (res_norm > problem.tol and res_norm <= floor and it > 0
                         and trace[-2][1] < _FLOOR_PROGRESS * res_norm)
        if res_norm <= problem.tol or floor_limited:
            # a read-only view: a column broadcast along theta, or the block
            # path's own array
            values = np.broadcast_to(state.values, grid.shape)
            try:
                return _finalize(ScalarField(grid, values), chart, metric, b, it, trace,
                                 res_norm, floor, floor_limited)
            except ValueError as exc:  # the audit-grade certificate, top ring included
                raise NonConvergenceError(f"converged, but {exc}", trace) from exc
        rhs = np.zeros(state.values.shape)
        rhs[:-1] = -state.residual
        try:
            # a block step taken for a column state makes the state full width
            delta = (_radial_step(coefs, rhs, grid.n2) if rhs.shape[1] == 1
                     else _block_step(coefs, rhs))
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(f"Newton step {it}: {exc}", trace) from exc

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


def _residual_floor(coefs, values):
    """Round-off floor of the interior log-residual: eps_mach times the
    largest sum_k |c_k| over the nodes times max|u|."""
    return (np.finfo(float).eps * float(sum(np.abs(c) for c in coefs).max())
            * float(np.abs(values).max()))


def _finalize(u, chart, metric, boundary_value, iterations, trace,
              residual=None, residual_floor=None, floor_limited=False):
    # audit-grade Hessian: one-sided top row included in the certificate
    hess = covariant_hessian(u, chart)
    # a ring-constant field's right side is taken on column 0, like its Hessian
    width = 1 if hess.grad_sq.strides[1] == 0 else u.grid.n2
    s = hess.grad_sq[:, :width] + 2.0 * u.values[:, :width]
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
        residual=residual,
        residual_floor=residual_floor,
        floor_limited=floor_limited,
    )


def certify(metric, grid, values, boundary_value, iterations=0) -> AdmissibleField:
    """Rebuild the admissibility certificate of a stored solution.

    Evaluates the chart once; the returned field's Hessian carries it.
    """
    u = ScalarField(grid, values)
    return _finalize(u, chart_arrays(metric, grid), metric, boundary_value, iterations, [])
