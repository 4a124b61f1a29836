"""Audits of the a priori estimates satisfied by converged solutions.

Each audit recomputes its bound from the metric data and compares against
the solved field, reporting a margin (bound minus observed for upper
bounds, observed minus bound for lower bounds) that passes when it is at
least -slack, for a per-estimate slack.  ``_record`` builds every record
under that rule; a record whose hypothesis is not met passes by rule
instead, and says so.  Records are recomputable from dumped fields alone.

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
from .solver import AdmissibleField

__all__ = [
    "EstimateRecord",
    "EstimateReport",
    "ProbeBall",
    "max_neg_curvature_ball",
    "distance_field",
    "probe_ball",
    "default_probes",
    "check_zero_order",
    "check_first_order",
    "check_lower_bound",
    "build_cutoff",
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
        d = {"id": self.id, "locus": self.locus, "bound": self.bound, "observed": self.observed,
             "margin": self.margin, "pass": bool(self.passed), "slack": self.slack}
        if self.extra:
            d["extra"] = dict(self.extra)
        return d

    def status(self):
        """The verdict ``verify`` prints for the record."""
        if self.extra.get("by_rule"):
            return "pass by rule (hypothesis not met)"
        return f"{'pass' if self.passed else 'FAIL'} (margin {self.margin:.3e})"


def _record(id, locus, bound, observed, slack=0.0, lower=False, margin=None,
            by_rule=False, **extra):
    """A record under the module's convention: margin = bound - observed
    (observed - bound for a ``lower`` bound) unless given, passing when
    margin >= -slack.  A record ``by_rule``, whose hypothesis is not met,
    audits nothing: it passes, and its ``extra`` says so."""
    if margin is None:
        margin = observed - bound if lower else bound - observed
    if by_rule:
        extra["by_rule"] = True
    margin = float(margin)
    return EstimateRecord(id, locus, bound, observed, margin, by_rule or margin >= -slack,
                          slack, extra)


@dataclass
class EstimateReport:
    """The records of one audit, and the radii some probe ball fit."""

    records: list
    r0_audited: list = dataclass_field(default_factory=list)

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
    """Max of -K over the closed metric ball of radius r0 about a chart point,
    as the metric answers it: on a conformal chart a closed-form upper bound,
    on a warped chart the max over a dense sample of the ball's radial band."""
    return metric.ball_max_neg_curvature(center, r0)


def distance_field(metric, grid, node, reach=math.inf):
    """Distance from a grid node to all nodes, exact where it is <= ``reach``
    and a lower bound above ``reach`` elsewhere: the metric's own answer."""
    return metric.distance_field(grid, node, reach)


def _cutoff_denominator(c2, r0):
    """r0 A, with A = 2 sqrt(c2) coth(sqrt(c2) r0) as in ``check_lower_bound``:
    the cutoff is cap - u - d^2/(r0 A)."""
    s = math.sqrt(c2)
    return 2.0 * s * r0 / math.tanh(s * r0)


def _core_radius(metric, cap, u_probe):
    """Radius sqrt(c1) (cap - u(probe)) / 6 of the core ball about a probe."""
    return math.sqrt(metric.bounds.c1) * (cap - u_probe) / 6.0


def _probe_ball_fits(field, node, r0):
    """Whether the solve domain covers the whole probe ball: r0 is at most the
    certified lower bound of the probe's distance to the rim."""
    lower, _ = field.metric.rim_distance(field.u.grid.q1[node[0]], field.ball_radius)
    return r0 <= float(lower) + 1e-12


@dataclass(frozen=True)
class ProbeBall:
    """The geodesic ball B(r0) about a probe node that the localized audits read.

    ``c2`` is the max of -K over the ball and ``cap`` = r0 / A the smallness
    threshold for u, with A = 2 sqrt(c2) coth(sqrt(c2) r0).  ``reach`` is how
    far from the probe the cutoff and second-order audits read d: the cutoff
    support phi > 0, where d^2 < r0 A (cap - u) <= r0 A (cap - min u), and the
    core ball, plus 3 radial rows for the order-2 Hessian stencils of phi
    (centered +-1; the one-sided top row reaches 3 down).  It is None when
    the hypothesis u(probe) < cap fails: the suite then runs neither audit.
    ``tag``, r0_{r0}_node_{i}_{j}, ends the id of every record about the ball.
    """

    node: tuple
    r0: float
    center: tuple
    c2: float
    cap: float
    u_probe: float
    reach: float | None

    @property
    def tag(self):
        return f"r0_{self.r0:g}_node_{self.node[0]}_{self.node[1]}"


def probe_ball(field: AdmissibleField, node, r0) -> ProbeBall:
    """The probe ball B(r0) about a grid node, which must lie in the solved domain."""
    grid = field.u.grid
    center = (grid.q1[node[0]], grid.q2[node[1]])
    if not _probe_ball_fits(field, node, r0):
        raise ValueError(
            f"probe ball of radius {r0} about chart point "
            f"({center[0]:.4g}, {center[1]:.4g}) leaves the solved domain"
        )
    c2 = max_neg_curvature_ball(field.metric, center, r0)
    s = math.sqrt(c2)
    cap = r0 / (2.0 * s / math.tanh(s * r0))
    u_probe = float(field.u.values[node[0], node[1]])
    reach = None
    if u_probe < cap:
        support = math.sqrt(_cutoff_denominator(c2, r0) * (cap - float(field.u.values.min())))
        reach = max(support, _core_radius(field.metric, cap, u_probe)) + 3.0 * grid.h1
    return ProbeBall(tuple(node), r0, center, c2, cap, u_probe, reach)


def default_probes(field: AdmissibleField, r0_list):
    """Probe nodes on three rays, and the radii of ``r0_list`` to audit.

    Rim distances are the lower bounds of ``rim_distance`` to the rim of the
    solved domain, of chart radius l.  A radius is kept when r0 + 2 h1 is below
    the center's.  The probes sit at 0.45, 0.6 and 0.75 of l, or, where the
    smallest kept r0 passes the rim distance, on the innermost ring (ring 1 at
    least) whose rim distance is at most r0 + 2 h1.
    """
    grid, l, rim = field.u.grid, field.ball_radius, field.metric.rim_distance
    r0s = [r0 for r0 in r0_list if r0 + 2 * grid.h1 < rim(0.0, l)[0]]
    r0 = min(r0s) if r0s else 0.0
    inner = max(int(np.count_nonzero(rim(grid.q1, l)[0] > r0 + 2 * grid.h1)), 1)
    probes = []
    for frac, j in zip((0.45, 0.6, 0.75), (0, grid.n2 // 3, (2 * grid.n2) // 3)):
        r_target = frac * l
        i = int(np.searchsorted(grid.q1, r_target)) if rim(r_target, l)[0] >= r0 else inner
        probes.append((i, j))
    return probes, r0s


def check_zero_order(field: AdmissibleField, boundary_value=None, slack=1e-9):
    """Two-sided bound: boundary datum <= u <= 1/(2 c1) everywhere."""
    b = field.boundary_value if boundary_value is None else boundary_value
    u = field.u.values
    c1 = field.metric.bounds.c1
    upper = 1.0 / (2.0 * c1)
    return [
        _record("zero_order_lower", "interior minimum vs boundary datum",
                b, float(u.min()), slack, lower=True),
        _record("zero_order_upper", "maximum principle ceiling 1/(2 c1)",
                upper, float(u.max()), slack),
    ]


def check_first_order(field: AdmissibleField, tol=1e-10):
    """Gradient ceiling 2/sqrt(c1) and the linear barrier above u.

    The barrier b + (2/sqrt(c1)) D dominates u, D the upper bound of the
    distance to the rim from ``rim_distance`` (l - d(x0, .) on a ball).
    """
    grid = field.u.grid
    metric = field.metric
    c1 = metric.bounds.c1
    bound = 2.0 / math.sqrt(c1)
    grad = np.sqrt(field.hessian.grad_sq)
    h = max(grid.h1, grid.h2)
    slack = GRAD_SLACK_CONST * h * h + 10.0 * tol
    records = [_record("gradient_bound", "gradient ceiling 2/sqrt(c1)",
                       bound, float(grad.max()), slack, grid_h=h)]
    _, to_rim = metric.rim_distance(grid.mesh()[0], field.ball_radius)
    xi = field.boundary_value + bound * to_rim
    records.append(_record("gradient_barrier", "comparison with the linear barrier",
                           0.0, float((field.u.values - xi).max()), slack))
    return records


def admissibility_record(field: AdmissibleField):
    return _record("admissibility", "min eigenvalue of g^{-1}(Hess u + g)",
                   0.0, field.min_eigenvalue, lower=True, rhs_min=field.rhs_min)


def check_lower_bound(field: AdmissibleField, ball: ProbeBall):
    """Three-term interior lower bound for u at a probe node.

    With A = 2 sqrt(c2) coth(sqrt(c2) r0) and c2 the ball max of -K, the
    bound is min{ r0/(2A), 1/(32 c2), c1 r0^2 / (9 A^2) }.
    """
    c2, r0 = ball.c2, ball.r0
    s = math.sqrt(c2)
    A = 2.0 * s / math.tanh(s * r0)
    c1 = field.metric.bounds.c1
    terms = {
        "cap_term": r0 / (2.0 * A),
        "curvature_term": 1.0 / (32.0 * c2),
        "quadratic_term": c1 * r0 * r0 / (9.0 * A * A),
    }
    return _record(f"lower_bound_{ball.tag}", "three-term interior lower bound",
                   min(terms.values()), ball.u_probe, LOWER_BOUND_SLACK, lower=True,
                   ball_max_neg_K=c2, A=A, **terms, node=list(ball.node))


def build_cutoff(field: AdmissibleField, ball: ProbeBall, distance):
    """Construct the cutoff about a probe node and audit its three properties.

    The cutoff is phi = cap - u - d^2/(2 sqrt(c2) r0 coth(sqrt(c2) r0)), with
    d the ``distance`` field from the probe (exact within ``ball.reach``):
    i)  0 <= phi <= cap on the support, phi >= (cap - u(probe))/2 on the
        small core ball of radius sqrt(c1) (cap - u(probe))/6;
    ii) |grad phi| <= 3/sqrt(c1);
    iii) Hess phi >= -(Hess u + g), checked at eigenvalue level.

    Returns the three records, each id ending in the ball's tag.  The ball
    must meet the hypothesis u(probe) < cap (``ball.reach`` set).
    """
    if ball.reach is None:
        raise ValueError(f"ball about {ball.node} fails the hypothesis u(probe) < cap")
    grid, metric = field.u.grid, field.metric
    cap, u_probe, d = ball.cap, ball.u_probe, distance
    phi = cap - field.u.values - d * d / _cutoff_denominator(ball.c2, ball.r0)
    support = phi > 0.0

    c1 = metric.bounds.c1
    h = max(grid.h1, grid.h2)
    slack_rng = 1e-10
    slack_grad = GRAD_SLACK_CONST * h * h + 1e-8
    slack_hess = HESS_SLACK_CONST * h * h + 1e-8

    lo, hi = float(phi[support].min()), float(phi[support].max())
    core_radius = _core_radius(metric, cap, u_probe)
    core = d <= core_radius
    core_min = float(phi[core].min()) if np.any(core) else math.inf
    core_floor = 0.5 * (cap - u_probe)
    node = list(ball.node)
    # the margin is the least of the three range margins
    recs = [_record(f"cutoff_range_{ball.tag}", "cutoff value range and core floor", cap, hi,
                    slack_rng, margin=min(lo - 0.0, cap - hi, core_min - core_floor),
                    support_min=lo, core_min=core_min, core_floor=core_floor,
                    core_radius=core_radius, support_nodes=int(support.sum()),
                    core_nodes=int(core.sum()), node=node)]

    ch = field.hessian.chart
    hess_phi = covariant_hessian(ScalarField(grid, phi), ch)
    grad_phi = np.sqrt(hess_phi.grad_sq)
    gbound = 3.0 / math.sqrt(c1)
    recs.append(_record(f"cutoff_gradient_{ball.tag}", "cutoff gradient ceiling 3/sqrt(c1)",
                        gbound, float(grad_phi[support].max()), slack_grad, node=node))

    a11 = hess_phi.h11 + field.hessian.h11 + ch.g11
    a12 = hess_phi.h12 + field.hessian.h12
    a22 = hess_phi.h22 + field.hessian.h22 + ch.g22
    eig_min, _ = generalized_eig_range(a11, a12, a22, ch.g11, ch.g22)
    recs.append(_record(f"cutoff_hessian_{ball.tag}", "Hess(phi) dominates -(Hess u + g)",
                        0.0, float(eig_min[support].min()), slack_hess, lower=True, node=node))
    return recs


def check_second_order(field: AdmissibleField, ball: ProbeBall, distance, c_cal=1.0):
    """Hessian eigenvalue ceiling on the core ball about a probe node.

    Reports the ratio of the observed max eigenvalue of g^{-1}(g + Hess u)
    to exp(c_cal c2') / (cap - u(probe)) * (1 + sqrt(c4) r0/sqrt(c2)
    + c2'(1 + r0/sqrt(c2) + c3 r0/sqrt(c2))), c2' the max of -K over B(r0 + 1).
    The calibration constant stands in for a constant the theory does not
    quantify, so this record reports the ratio too and is non-gating.  It
    passes when observed <= bound (the ratio at most 1), with no slack.
    ``distance`` and the ball are as in ``build_cutoff``.
    """
    if ball.reach is None:
        raise ValueError(f"ball about {ball.node} fails the hypothesis u(probe) < cap")
    r0, cap, u_probe, c2 = ball.r0, ball.cap, ball.u_probe, ball.c2
    c2p = max_neg_curvature_ball(field.metric, ball.center, r0 + 1.0)
    c3, c4 = field.metric.log_curvature_bounds(ball.center, r0)
    if c2 > c2p + 1e-12 or min(c2, c2p) <= 0 or min(c3, c4) < 0:
        raise ValueError(f"need 0 < c2 <= c2' and c3, c4 >= 0: {c2}, {c2p}, {c3}, {c4}")
    core_radius = _core_radius(field.metric, cap, u_probe)
    core = distance <= core_radius
    observed = float(field.hessian.eig_max[core].max())
    s2 = math.sqrt(c2)
    try:
        growth = math.exp(c_cal * c2p)
    except OverflowError:  # past the float range the ceiling bounds nothing: +inf
        growth = math.inf
    bound = (growth / (cap - u_probe)) * (
        1.0 + math.sqrt(c4) * r0 / s2 + c2p * (1.0 + r0 / s2 + c3 * r0 / s2)
    )
    return _record(f"second_order_{ball.tag}", "Hessian eigenvalue ceiling on the core ball",
                   bound, observed, ratio=observed / bound, hypothesis_met=True, cap=cap,
                   u_probe=u_probe, core_radius=core_radius, core_nodes=int(core.sum()),
                   c2=c2, c2_prime=c2p, c3=c3, c4=c4, c_cal=c_cal, node=list(ball.node))


def run_estimate_suite(field: AdmissibleField, probes=(), r0_list=(1.0,),
                       c_cal=1.0, tol=1e-10) -> EstimateReport:
    """Full audit of one converged solve.

    ``probes`` are (i, j) node indices for the localized audits (cutoff and
    second-order ceiling); the lower-bound audit runs at the innermost node
    on the first ray and at every probe, for each radius in ``r0_list``
    whose probe ball fits in the solved domain (``rim_distance``); those
    radii are the report's ``r0_audited``.  Each (node, r0) gets one
    ``ProbeBall``.  Only a ball that meets the smallness hypothesis gets the
    cutoff and second-order audits; one that fails it gets a passing
    ``cutoff_hypothesis`` and a not-met ``second_order`` record.  Both pass
    by rule (the first with a negative margin, the second with an infinite
    one), and their ``extra`` says so (``by_rule``), so a search for the
    tightest record can skip them.  A node's distance field is solved only
    if the hypothesis holds there for some radius, and only as far as those
    audits read it.  A chart that never reads theta (``chart.column``) is
    rotationally symmetric, so nodes on one ring that need the same reach
    share one solved field, rolled along theta.
    """
    report = EstimateReport(records=[*check_zero_order(field, slack=max(10.0 * tol, 1e-12)),
                                     *check_first_order(field, tol=tol),
                                     admissibility_record(field)])

    grid = field.u.grid
    solved = {}  # (ring, reach) -> (column, distance field) solved in this call
    for node in dict.fromkeys([(0, 0)] + [tuple(p) for p in probes]):  # each node once
        balls = [probe_ball(field, node, r0) for r0 in r0_list
                 if _probe_ball_fits(field, node, r0)]
        report.r0_audited.extend(b.r0 for b in balls if b.r0 not in report.r0_audited)
        reaches = [b.reach for b in balls if b.reach is not None]
        dist = None
        if reaches:
            key = (node[0], max(reaches))
            if key not in solved or field.hessian.chart.column is None:
                solved[key] = (node[1], distance_field(field.metric, grid, node, reach=key[1]))
            j0, dist = solved[key]
            dist = np.roll(dist, node[1] - j0, axis=1)
        for ball in balls:
            report.records.append(check_lower_bound(field, ball))
            if ball.reach is None:  # the audits are skipped, so the records pass by rule
                report.records.append(_record(
                    f"cutoff_hypothesis_{ball.tag}",
                    "cutoff smallness hypothesis (not met; audit skipped)",
                    ball.cap, ball.u_probe, by_rule=True, hypothesis_met=False,
                    node=list(node)))
                report.records.append(_record(
                    f"second_order_{ball.tag}", "Hessian eigenvalue ceiling (hypothesis not met)",
                    math.inf, 0.0, by_rule=True, hypothesis_met=False, cap=ball.cap,
                    u_probe=ball.u_probe, node=list(node)))
                continue
            report.records.extend(build_cutoff(field, ball, dist))
            report.records.append(check_second_order(field, ball, dist, c_cal=c_cal))
    return report
