"""Audits of the a priori estimates satisfied by converged solutions.

Each audit recomputes its bound from the metric data and compares against
the solved field, reporting a margin (bound minus observed for upper
bounds, observed minus bound for lower bounds) and a pass flag with a
per-estimate slack.  Records are recomputable from dumped fields alone.

The unquantified constant appearing in the second-order eigenvalue bound
is not computable from the theory; it is exposed as the calibration
constant ``c_cal`` and the audit reports the observed/bound ratio rather
than silently asserting an absolute inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .grid import ScalarField, covariant_hessian, generalized_eig_range
# Unused here (charts come with field.hessian); kept for span tracers that wrap it.
from .grid import chart_arrays  # noqa: F401
from .geodesics import distance_field
from .solver import AdmissibleField

__all__ = [
    "EstimateRecord",
    "EstimateReport",
    "CutoffFunction",
    "SecondOrderConstants",
    "max_neg_curvature_ball",
    "check_zero_order",
    "check_first_order",
    "check_lower_bound",
    "build_cutoff",
    "second_order_constants",
    "check_second_order",
    "run_estimate_suite",
]

MANDATORY_IDS = (
    "zero_order_lower",
    "zero_order_upper",
    "gradient_bound",
    "gradient_barrier",
    "admissibility",
)

# slacks: per h^2 of the gradient and Hessian records, and of the lower bound
GRAD_SLACK_CONST = 2.0
HESS_SLACK_CONST = 10.0
LOWER_BOUND_SLACK = 1e-9
# radial samples of the band a probe ball meets on a warped chart
BALL_SAMPLES = 4096


@dataclass(frozen=True)
class EstimateRecord:
    id: str
    locus: str
    bound: float
    observed: float
    margin: float
    passed: bool
    slack: float = 0.0
    extra: dict = dataclass_field(default_factory=dict)

    def to_json_dict(self):
        d = {
            "id": self.id,
            "locus": self.locus,
            "bound": self.bound,
            "observed": self.observed,
            "margin": self.margin,
            "pass": bool(self.passed),
            "slack": self.slack,
        }
        if self.extra:
            d["extra"] = {k: _jsonable(v) for k, v in self.extra.items()}
        return d


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.bool_):
        return bool(v)
    return v


@dataclass
class EstimateReport:
    records: list

    def add(self, record):
        self.records.append(record)

    def mandatory_pass(self):
        return all(r.passed for r in self.records if r.id in MANDATORY_IDS)

    def all_pass(self):
        return all(r.passed for r in self.records)

    def to_json_dict(self):
        return {
            "records": [r.to_json_dict() for r in self.records],
            "mandatory_pass": self.mandatory_pass(),
            "all_pass": self.all_pass(),
        }


def max_neg_curvature_ball(metric, center, r0):
    """Max of -K over the closed metric ball of radius r0 about a chart point.

    On warped polar charts the ball meets exactly the radial band
    [max(0, r - r0), r + r0] and K is radial, so a dense 1D sample suffices.
    Conformal charts sample the chart disc masked by pairwise distance when
    a closed form is available; otherwise they sample the chart-disc
    *superset* |p - center| <= r0 / sqrt(min psi), which can only enlarge
    the returned maximum and therefore only weakens (never falsifies) the
    audited bounds.
    """
    if metric.kind == "geodesic_polar":
        r_c = float(center[0])
        if r_c + r0 > metric.r_max + 1e-12:
            raise ValueError(
                f"ball of radius {r0} about r={r_c} leaves the chart (r_max={metric.r_max})"
            )
        band = np.linspace(max(r_c - r0, 0.0), min(r_c + r0, metric.r_max),
                           BALL_SAMPLES + 1)
        return float(np.max(-metric.curvature_at(band, None)))
    rho_c, th_c = float(center[0]), float(center[1])
    xc, yc = rho_c * math.cos(th_c), rho_c * math.sin(th_c)
    n = 160
    rho = np.linspace(0.0, metric.domain_radius, n)
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    R, T = np.meshgrid(rho, th, indexing="ij")
    X, Y = R * np.cos(T), R * np.sin(T)
    if metric.pair_distance is not None:
        d = metric.pair_distance(xc, yc, X, Y)
        mask = d <= r0
    else:
        psi_min = float(np.min(metric.psi(X, Y)))
        chart_radius = r0 / math.sqrt(psi_min)
        mask = np.hypot(X - xc, Y - yc) <= chart_radius
    if not np.any(mask):
        mask = np.hypot(X - xc, Y - yc) <= 2.0 * metric.domain_radius / n
    return float(np.max(-metric.curvature(X[mask], Y[mask])))


def _hypothesis_cap(c2, r0):
    """r0 / (2 sqrt(c2) coth(sqrt(c2) r0)), the smallness threshold for u."""
    s = math.sqrt(c2)
    return r0 / (2.0 * s / math.tanh(s * r0))


def _cutoff_denominator(c2, r0):
    """A = 2 sqrt(c2) r0 coth(sqrt(c2) r0); the cutoff is cap - u - d^2/A."""
    s = math.sqrt(c2)
    return 2.0 * s * r0 / math.tanh(s * r0)


def _core_radius(metric, cap, u_probe):
    """Radius sqrt(c1) (cap - u(probe)) / 6 of the core ball about a probe."""
    return math.sqrt(metric.bounds.c1) * (cap - u_probe) / 6.0


def _audit_reach(field, node, r0, c2):
    """Hypothesis cap, and how far from the probe the localized audits read d.

    The reach is None when the smallness hypothesis u(probe) < cap fails:
    the cutoff and second-order audits then read no distance.  Otherwise it
    covers the cutoff support phi > 0, where d^2 < A (cap - u) <= A (cap -
    min u), and the core ball, plus 3 radial rows for the order-2 Hessian
    stencils of phi (centered +-1; the one-sided top row reaches 3 down).
    """
    cap = _hypothesis_cap(c2, r0)
    u = field.u.values
    u_probe = float(u[node[0], node[1]])
    if not u_probe < cap:
        return cap, None
    support = math.sqrt(_cutoff_denominator(c2, r0) * (cap - float(u.min())))
    core = _core_radius(field.metric, cap, u_probe)
    return cap, max(support, core) + 3.0 * field.u.grid.h1


def _probe_ball_fits(field, center, r0):
    """Whether the solve domain covers the whole probe ball (triangle bound)."""
    metric = field.metric
    if metric.kind == "geodesic_polar":
        return center[0] + r0 <= field.ball_radius + 1e-12
    if metric.pair_distance is not None and metric.center_distance is not None:
        rho, th = center
        d_center = float(metric.pair_distance(
            0.0, 0.0, rho * math.cos(th), rho * math.sin(th)))
        return d_center + r0 <= float(metric.center_distance(field.ball_radius)) + 1e-12
    return True  # no distance formula: containment is the caller's duty


def _require_probe_ball_inside(field, center, r0):
    """Localized audits assume the solve covers the whole probe ball."""
    if not _probe_ball_fits(field, center, r0):
        raise ValueError(
            f"probe ball of radius {r0} about chart point "
            f"({center[0]:.4g}, {center[1]:.4g}) leaves the solved domain"
        )


def check_zero_order(field: AdmissibleField, boundary_value=None, slack=1e-9):
    """Two-sided bound: boundary datum <= u <= 1/(2 c1) everywhere."""
    b = field.boundary_value if boundary_value is None else boundary_value
    u = field.u.values
    c1 = field.metric.bounds.c1
    upper = 1.0 / (2.0 * c1)
    lower_rec = EstimateRecord(
        id="zero_order_lower",
        locus="interior minimum vs boundary datum",
        bound=b,
        observed=float(u.min()),
        margin=float(u.min() - b),
        passed=bool(u.min() - b >= -slack),
        slack=slack,
    )
    upper_rec = EstimateRecord(
        id="zero_order_upper",
        locus="maximum principle ceiling 1/(2 c1)",
        bound=upper,
        observed=float(u.max()),
        margin=float(upper - u.max()),
        passed=bool(upper - u.max() >= -slack),
        slack=slack,
    )
    return [lower_rec, upper_rec]


def check_first_order(field: AdmissibleField, tol=1e-10):
    """Gradient ceiling 2/sqrt(c1) and the linear barrier above u.

    The barrier b + (2/sqrt(c1)) (l - d(x0, .)) dominates u on domains that
    are geodesic balls; on conformal charts it requires a center-distance
    formula and is skipped (with a non-gating placeholder) when none exists.
    """
    grid = field.u.grid
    metric = field.metric
    c1 = metric.bounds.c1
    bound = 2.0 / math.sqrt(c1)
    grad = np.sqrt(field.hessian.grad_sq)
    h = max(grid.h1, grid.h2)
    slack = GRAD_SLACK_CONST * h * h + 10.0 * tol
    records = [
        EstimateRecord(
            id="gradient_bound",
            locus="gradient ceiling 2/sqrt(c1)",
            bound=bound,
            observed=float(grad.max()),
            margin=float(bound - grad.max()),
            passed=bool(bound - grad.max() >= -slack),
            slack=slack,
            extra={"grid_h": h},
        )
    ]
    dctr = None
    if metric.kind == "geodesic_polar":
        dctr = grid.mesh()[0]
    elif getattr(metric, "center_distance", None) is not None:
        dctr = metric.center_distance(grid.mesh()[0])
    if dctr is None:
        records.append(
            EstimateRecord(
                id="gradient_barrier",
                locus="linear barrier above u (no center-distance formula)",
                bound=0.0, observed=0.0, margin=0.0, passed=True, slack=0.0,
                extra={"skipped": "chart provides no geodesic center distance"},
            )
        )
        return records
    # total geodesic radius of the solve domain
    if metric.kind == "geodesic_polar":
        l_geo = field.ball_radius
    else:
        l_geo = float(metric.center_distance(field.ball_radius))
    xi = field.boundary_value + bound * (l_geo - dctr)
    overshoot = float((field.u.values - xi).max())
    records.append(
        EstimateRecord(
            id="gradient_barrier",
            locus="comparison with the linear barrier",
            bound=0.0,
            observed=overshoot,
            margin=-overshoot,
            passed=bool(overshoot <= slack),
            slack=slack,
        )
    )
    return records


def admissibility_record(field: AdmissibleField):
    return EstimateRecord(
        id="admissibility",
        locus="min eigenvalue of g^{-1}(Hess u + g)",
        bound=0.0,
        observed=field.min_eigenvalue,
        margin=field.min_eigenvalue,
        passed=bool(field.min_eigenvalue > 0.0),
        extra={"rhs_min": field.rhs_min},
    )


def check_lower_bound(field: AdmissibleField, node, r0, c2=None):
    """Three-term interior lower bound for u at a probe node.

    With A = 2 sqrt(c2) coth(sqrt(c2) r0) and c2 the ball max of -K, the
    bound is min{ r0/(2A), 1/(32 c2), c1 r0^2 / (9 A^2) }.  Requires the
    probe ball to sit inside the solved domain.  ``c2`` may be passed in
    when the caller already holds the ball max.
    """
    grid = field.u.grid
    metric = field.metric
    i, j = node
    center = (grid.q1[i], grid.q2[j])
    _require_probe_ball_inside(field, center, r0)
    if c2 is None:
        c2 = max_neg_curvature_ball(metric, center, r0)
    s = math.sqrt(c2)
    A = 2.0 * s / math.tanh(s * r0)
    c1 = metric.bounds.c1
    terms = {
        "cap_term": r0 / (2.0 * A),
        "curvature_term": 1.0 / (32.0 * c2),
        "quadratic_term": c1 * r0 * r0 / (9.0 * A * A),
    }
    bound = min(terms.values())
    observed = float(field.u.values[i, j])
    return EstimateRecord(
        id=f"lower_bound_r0_{r0:g}",
        locus="three-term interior lower bound",
        bound=bound,
        observed=observed,
        margin=observed - bound,
        passed=bool(observed - bound >= -LOWER_BOUND_SLACK),
        slack=LOWER_BOUND_SLACK,
        extra={"ball_max_neg_K": c2, "A": A, **terms, "node": list(node)},
    )


@dataclass
class CutoffFunction:
    """The localized cutoff built from u and the squared distance to a probe.

    cap is the smallness threshold r0/(2 sqrt(c2) coth(sqrt(c2) r0)); the
    cutoff is phi = cap - u - d^2/(2 sqrt(c2) r0 coth(sqrt(c2) r0)) and its
    support is audited only when the hypothesis u(probe) < cap holds.
    """

    node: tuple
    r0: float
    c2: float
    cap: float
    hypothesis_met: bool
    phi: np.ndarray | None = None
    support: np.ndarray | None = None
    distance: np.ndarray | None = None
    records: list = dataclass_field(default_factory=list)


def build_cutoff(field: AdmissibleField, node, r0, distance=None, c2=None):
    """Construct the cutoff about a probe node and audit its three properties.

    i)  0 <= phi <= cap on the support, phi >= (cap - u(probe))/2 on the
        small core ball of radius sqrt(c1) (cap - u(probe))/6;
    ii) |grad phi| <= 3/sqrt(c1);
    iii) Hess phi >= -(Hess u + g), checked at eigenvalue level.

    Returns a hypothesis-failed marker (no audit) when u(probe) >= cap.
    ``c2``, the max of -K over the probe ball, is computed when not given.
    """
    grid = field.u.grid
    metric = field.metric
    i, j = node
    center = (grid.q1[i], grid.q2[j])
    _require_probe_ball_inside(field, center, r0)
    if c2 is None:
        c2 = max_neg_curvature_ball(metric, center, r0)
    cap, reach = _audit_reach(field, node, r0, c2)
    if reach is None:
        return CutoffFunction(node, r0, c2, cap, hypothesis_met=False)

    u_probe = float(field.u.values[i, j])
    d = distance_field(metric, grid, node, reach=reach) if distance is None else distance
    phi = cap - field.u.values - d * d / _cutoff_denominator(c2, r0)
    support = phi > 0.0

    c1 = metric.bounds.c1
    h = max(grid.h1, grid.h2)
    slack_rng = 1e-10
    slack_grad = GRAD_SLACK_CONST * h * h + 1e-8
    slack_hess = HESS_SLACK_CONST * h * h + 1e-8

    recs = []
    lo = float(phi[support].min())
    hi = float(phi[support].max())
    core_radius = _core_radius(metric, cap, u_probe)
    core = d <= core_radius
    core_min = float(phi[core].min()) if np.any(core) else math.inf
    core_floor = 0.5 * (cap - u_probe)
    range_margin = min(lo - 0.0, cap - hi, core_min - core_floor)
    recs.append(EstimateRecord(
        id="cutoff_range",
        locus="cutoff value range and core floor",
        bound=cap,
        observed=hi,
        margin=float(range_margin),
        passed=bool(range_margin >= -slack_rng),
        slack=slack_rng,
        extra={"support_min": lo, "core_min": core_min,
               "core_floor": core_floor, "core_radius": core_radius,
               "support_nodes": int(support.sum()), "core_nodes": int(core.sum())},
    ))

    ch = field.hessian.chart
    phi_field = ScalarField(grid, phi)
    hess_phi = covariant_hessian(phi_field, ch, order=2)
    grad_phi = np.sqrt(hess_phi.grad_sq)
    gbound = 3.0 / math.sqrt(c1)
    gobs = float(grad_phi[support].max())
    recs.append(EstimateRecord(
        id="cutoff_gradient",
        locus="cutoff gradient ceiling 3/sqrt(c1)",
        bound=gbound,
        observed=gobs,
        margin=gbound - gobs,
        passed=bool(gbound - gobs >= -slack_grad),
        slack=slack_grad,
    ))

    a11 = hess_phi.h11 + field.hessian.h11 + ch.g11
    a12 = hess_phi.h12 + field.hessian.h12 + ch.g12
    a22 = hess_phi.h22 + field.hessian.h22 + ch.g22
    eig_min, _ = generalized_eig_range(a11, a12, a22, ch.g11, ch.g22)
    hobs = float(eig_min[support].min())
    recs.append(EstimateRecord(
        id="cutoff_hessian",
        locus="Hess(phi) dominates -(Hess u + g)",
        bound=0.0,
        observed=hobs,
        margin=hobs,
        passed=bool(hobs >= -slack_hess),
        slack=slack_hess,
    ))
    return CutoffFunction(node, r0, c2, cap, True, phi, support, d, recs)


@dataclass(frozen=True)
class SecondOrderConstants:
    """Curvature statistics over the probe balls feeding the Hessian ceiling."""

    c2: float
    c2_prime: float
    c3: float
    c4: float
    c_cal: float = 1.0

    def __post_init__(self):
        if self.c2 > self.c2_prime + 1e-12:
            raise ValueError("c2 must not exceed c2_prime (larger ball)")
        if min(self.c2, self.c2_prime) <= 0 or min(self.c3, self.c4) < 0:
            raise ValueError("curvature constants must be nonnegative (c2 positive)")


def second_order_constants(metric, center, r0, c_cal=1.0, c2=None):
    """c2 over B(center, r0), c2' over B(center, r0+1), and the log-curvature
    derivative bounds c3, c4 over B(center, r0).

    Radial charts sample the closed-form derivatives of log(-K) on the
    probe ball's radial band; conformal charts use the chart-wide bounds.
    A given ``c2`` is taken as the ball max over B(center, r0).
    """
    if c2 is None:
        c2 = max_neg_curvature_ball(metric, center, r0)
    c2p = max_neg_curvature_ball(metric, center, r0 + 1.0)
    if metric.kind == "geodesic_polar":
        r_c = float(center[0])
        band = np.linspace(max(r_c - r0, 0.0), min(r_c + r0, metric.r_max), 2049)
        band = np.clip(band, 1e-9, None)
        kv = np.asarray(metric.curvature(band), dtype=float)
        kp = np.asarray(metric.curvature_prime(band), dtype=float)
        kdp = np.asarray(metric.curvature_double_prime(band), dtype=float)
        wp = kp / kv
        wpp = kdp / kv - wp**2
        ang = metric.f_prime(band) / metric.f(band) * wp
        c3 = float(np.max(np.abs(wp)))
        c4 = float(max(np.max(np.abs(wpp)), np.max(np.abs(ang))))
    else:
        b = metric.bounds
        c3, c4 = b.c3, b.c4
    return SecondOrderConstants(c2, c2p, c3, c4, c_cal)


def check_second_order(field: AdmissibleField, node, r0, c_cal=1.0, distance=None,
                       c2=None):
    """Hessian eigenvalue ceiling on the core ball about a probe node.

    Reports the ratio of the observed max eigenvalue of g^{-1}(g + Hess u)
    to exp(c_cal c2') / (cap - u(probe)) * (1 + sqrt(c4) r0/sqrt(c2)
    + c2'(1 + r0/sqrt(c2) + c3 r0/sqrt(c2))).  The calibration constant
    stands in for a constant the theory does not quantify, so this record
    is reported as a ratio and is non-gating by default.
    """
    grid = field.u.grid
    metric = field.metric
    i, j = node
    center = (grid.q1[i], grid.q2[j])
    _require_probe_ball_inside(field, center, r0)
    k = second_order_constants(metric, center, r0, c_cal, c2=c2)
    cap, reach = _audit_reach(field, node, r0, k.c2)
    u_probe = float(field.u.values[i, j])
    if reach is None:
        return EstimateRecord(
            id=f"second_order_r0_{r0:g}",
            locus="Hessian eigenvalue ceiling (hypothesis not met)",
            bound=math.inf, observed=0.0, margin=math.inf, passed=True,
            extra={"hypothesis_met": False, "cap": cap, "u_probe": u_probe},
        )
    d = distance_field(metric, grid, node, reach=reach) if distance is None else distance
    core_radius = _core_radius(metric, cap, u_probe)
    core = d <= core_radius
    observed = float(field.hessian.eig_max[core].max())
    s2 = math.sqrt(k.c2)
    bound = (math.exp(c_cal * k.c2_prime) / (cap - u_probe)) * (
        1.0 + math.sqrt(k.c4) * r0 / s2 + k.c2_prime * (1.0 + r0 / s2 + k.c3 * r0 / s2)
    )
    ratio = observed / bound
    return EstimateRecord(
        id=f"second_order_r0_{r0:g}",
        locus="Hessian eigenvalue ceiling on the core ball",
        bound=bound,
        observed=observed,
        margin=bound - observed,
        passed=bool(ratio <= 1.0),
        extra={
            "ratio": ratio, "hypothesis_met": True, "cap": cap,
            "u_probe": u_probe, "core_radius": core_radius,
            "core_nodes": int(core.sum()),
            "c2": k.c2, "c2_prime": k.c2_prime, "c3": k.c3, "c4": k.c4,
            "c_cal": c_cal, "node": list(node),
        },
    )


def run_estimate_suite(field: AdmissibleField, probes=(), r0_list=(1.0,),
                       c_cal=1.0, tol=1e-10) -> EstimateReport:
    """Full audit of one converged solve.

    ``probes`` are (i, j) node indices for the localized audits (cutoff and
    second-order ceiling); the lower-bound audit runs at the innermost node
    on the first ray and at every probe, for each radius in ``r0_list``.
    A node's distance field is solved only if the smallness hypothesis
    holds there for some radius, and only as far as those audits read it.
    The max of -K over each probe ball is sampled once and shared by the
    audits at that (node, r0); the second-order ceiling samples B(r0 + 1).
    """
    report = EstimateReport(records=[])
    for rec in check_zero_order(field, slack=max(10.0 * tol, 1e-12)):
        report.add(rec)
    for rec in check_first_order(field, tol=tol):
        report.add(rec)
    report.add(admissibility_record(field))

    grid = field.u.grid
    anchors = [(0, 0)] + [tuple(p) for p in probes]
    seen = set()
    for node in anchors:
        if node in seen:
            continue
        seen.add(node)
        center = (grid.q1[node[0]], grid.q2[node[1]])
        # radii whose probe ball stays inside the solved domain
        fit = [r0 for r0 in r0_list if _probe_ball_fits(field, center, r0)]
        c2s = {r0: max_neg_curvature_ball(field.metric, center, r0) for r0 in fit}
        reaches = [_audit_reach(field, node, r0, c2s[r0])[1] for r0 in fit]
        reaches = [r for r in reaches if r is not None]
        dist = (distance_field(field.metric, grid, node, reach=max(reaches))
                if reaches else None)
        for r0 in fit:
            report.add(check_lower_bound(field, node, r0, c2=c2s[r0]))
            cut = build_cutoff(field, node, r0, distance=dist, c2=c2s[r0])
            if cut.hypothesis_met:
                for rec in cut.records:
                    report.add(EstimateRecord(
                        id=f"{rec.id}_r0_{r0:g}_node_{node[0]}_{node[1]}",
                        locus=rec.locus, bound=rec.bound, observed=rec.observed,
                        margin=rec.margin, passed=rec.passed, slack=rec.slack,
                        extra={**rec.extra, "node": list(node)},
                    ))
            else:
                report.add(EstimateRecord(
                    id=f"cutoff_hypothesis_r0_{r0:g}_node_{node[0]}_{node[1]}",
                    locus="cutoff smallness hypothesis (not met; audit skipped)",
                    bound=cut.cap, observed=float(field.u.values[node]),
                    margin=cut.cap - float(field.u.values[node]),
                    passed=True,
                    extra={"hypothesis_met": False},
                ))
            report.add(check_second_order(field, node, r0, c_cal=c_cal, distance=dist,
                                          c2=c2s[r0]))
    return report
