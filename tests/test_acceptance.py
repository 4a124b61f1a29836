"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line (visible with -s or in captured output)
so the whole gate is auditable at a glance.  Grids are the pinned desk-scale
resolutions; nothing here exceeds a few hundred nodes per direction.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from lorentz_embed.metric import make_hyperbolic
from lorentz_embed.grid import PolarGrid
from lorentz_embed.solver import DirichletProblem, solve_dirichlet
from lorentz_embed.exhaustion import make_schedule, run_exhaustion
from lorentz_embed.estimates import (
    build_cutoff,
    check_first_order,
    check_lower_bound,
    check_zero_order,
)
from lorentz_embed.embed import build_embedding, conformal_metric
from lorentz_embed.cli import cmd_embed, cmd_solve, cmd_verify


def report(criterion, detail):
    print(f"[criterion {criterion:>2}] PASS  {detail}")


@pytest.fixture(scope="module")
def model_solve_l4():
    return solve_dirichlet(DirichletProblem(make_hyperbolic(1.0), PolarGrid(64, 32, 4.0)))


def test_criterion_01_exact_model_recovery():
    worst_err, worst_iters = 0.0, 0
    for scale in (0.25, 1.0, 4.0):
        metric = make_hyperbolic(scale)
        for l in (2.0, 3.0, 4.0, 5.0):
            sol = solve_dirichlet(DirichletProblem(metric, PolarGrid(48, 16, l)))
            err = float(np.max(np.abs(sol.u.values - 1.0 / (2.0 * scale))))
            worst_err = max(worst_err, err)
            worst_iters = max(worst_iters, sol.iterations)
            assert err <= 1e-10
            assert sol.iterations <= 2
    report(1, f"12 constant-curvature solves: max error {worst_err:.2e}, "
              f"max iterations {worst_iters}")


def test_criterion_02_radial_oracle_equivalence(pinched_solve_64,
                                                pinched_solve_128,
                                                pinched_oracle_l3):
    errs = []
    for sol in (pinched_solve_64, pinched_solve_128):
        g = sol.u.grid
        u_star = pinched_oracle_l3.sol(g.q1)[0][:, None]
        errs.append(float(np.max(np.abs(sol.u.values - u_star) / np.abs(u_star))))
    assert errs[0] <= 1e-3
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5
    report(2, f"oracle gap {errs[0]:.2e} at 64x64, refinement ratio {ratio:.2f}")


def test_criterion_03_a_priori_estimate_suite(model_solve_l4, pinched_solve_64,
                                              pinched_solve_128, pinched_solve_l4):
    runs = {
        "model_l4": model_solve_l4,
        "pinched_l3_64": pinched_solve_64,
        "pinched_l3_128": pinched_solve_128,
        "pinched_l4": pinched_solve_l4,
    }
    for name, sol in runs.items():
        lower, upper = check_zero_order(sol)
        assert lower.margin >= -1e-8 and upper.margin >= -1e-8, name
        grad_rec, barrier_rec = check_first_order(sol)
        h = max(sol.u.grid.h1, sol.u.grid.h2)
        assert grad_rec.margin >= -(2.0 * h * h + 1e-8), name
        assert barrier_rec.passed, name
        assert sol.min_eigenvalue > 0.0, name

    # cutoff audit at three interior probe points, r0 = 1, where the
    # smallness hypothesis holds (outer region of the pinched l=4 ball)
    g = pinched_solve_l4.u.grid
    hypothesis_passes = 0
    for r_probe, j in ((1.3, 0), (1.9, g.n2 // 3), (2.5, (2 * g.n2) // 3)):
        i = int(np.searchsorted(g.q1, r_probe))
        cut = build_cutoff(pinched_solve_l4, (i, j), 1.0)
        assert cut.hypothesis_met, r_probe
        assert all(rec.passed for rec in cut.records), (
            r_probe, [(r.id, r.margin) for r in cut.records])
        hypothesis_passes += 1
    assert hypothesis_passes == 3
    report(3, "zero/first order, admissibility, barrier on 4 runs; "
              "cutoff items i-iii at 3 probes (r0=1)")


def test_criterion_04_lower_bound_formula(model_solve_l4, pinched_solve_64):
    details = []
    for name, sol in (("model_l4", model_solve_l4), ("pinched_l3", pinched_solve_64)):
        for r0 in (1.0, 2.0):
            rec = check_lower_bound(sol, (0, 0), r0)
            assert rec.passed, (name, r0)
            details.append(f"{name} r0={r0:g}: {rec.bound:.4g} <= {rec.observed:.4g}")
    # spot check the frozen arithmetic of the unit model at r0 = 1
    rec = check_lower_bound(model_solve_l4, (0, 0), 1.0)
    assert rec.bound == pytest.approx(math.tanh(1.0) ** 2 / 36.0, rel=1e-12)
    assert rec.observed == pytest.approx(0.5, abs=1e-10)
    report(4, "; ".join(details))


def test_criterion_05_conformal_curvature_identity(pinched_solve_64,
                                                   pinched_solve_128):
    d64 = conformal_metric(pinched_solve_64).max_defect
    d128 = conformal_metric(pinched_solve_128).max_defect
    assert d128 <= 1e-2
    ratio = d64 / d128
    assert 3.5 <= ratio <= 4.5
    consts = []
    for scale, l in ((0.25, 2.0), (1.0, 2.0), (4.0, 1.5)):
        sol = solve_dirichlet(DirichletProblem(make_hyperbolic(scale),
                                               PolarGrid(128, 64, l)))
        defect = conformal_metric(sol).max_defect
        assert defect <= 1e-6, (scale, defect)
        consts.append(defect)
    report(5, f"pinched defect {d128:.2e} (ratio {ratio:.2f}); "
              f"constant-curvature defects <= {max(consts):.2e}")


def test_criterion_06_embedding_fidelity(model_embedding, pinched_embedding_128):
    model_audit = model_embedding[3]
    assert model_audit.pullback_rel_err <= 1e-6
    assert model_audit.holonomy_path_defect <= 1e-5
    assert model_audit.normal_identity_err <= 1e-6
    pinched_audit = pinched_embedding_128[3]
    assert pinched_audit.pullback_rel_err <= 1e-2
    report(6, f"model pullback {model_audit.pullback_rel_err:.2e}, holonomy "
              f"{model_audit.holonomy_path_defect:.2e}, normal identity "
              f"{model_audit.normal_identity_err:.2e}; pinched pullback "
              f"{pinched_audit.pullback_rel_err:.2e}")


def test_criterion_07_graph_pinching(model_embedding, pinched_embedding_64,
                                     pinched_embedding_128):
    audits = {
        "model": model_embedding[3],
        "pinched_64": pinched_embedding_64[3],
        "pinched_128": pinched_embedding_128[3],
    }
    for name, audit in audits.items():
        assert audit.pinching_margin_cone >= -1e-6, name
        assert audit.pinching_margin_lower >= -1e-6, name
        assert audit.pinching_margin_upper >= -1e-6, name
    assert audits["model"].pinching_saturation <= 1e-4
    report(7, f"margins >= -1e-6 on all graphs; model saturation "
              f"{audits['model'].pinching_saturation:.2e}")


def test_criterion_08_extrinsic_bounds(pinched_embedding_64, pinched_embedding_128):
    a64 = pinched_embedding_64[3].a_norm_max
    a128 = pinched_embedding_128[3].a_norm_max
    assert np.isfinite(a128)
    change = abs(a64 - a128) / a128
    assert change <= 0.02
    audit = pinched_embedding_128[3]
    assert audit.gauss_residual <= 1e-2
    assert audit.codazzi_residual <= 1e-2
    report(8, f"|A| = {a128:.5f} ({100 * change:.3f}% change under refinement), "
              f"compatibility residuals {audit.gauss_residual:.2e} / "
              f"{audit.codazzi_residual:.2e}")


def test_criterion_09_uniqueness_proxy(pinched_metric):
    radii = (2.0, 3.0, 4.0, 5.0, 6.0)
    results = {}
    for rule in ("standard", "midpoint"):
        sched = make_schedule(radii, l_obs=1.0, nodes_per_unit=16, n_theta=32,
                              tol=1e-16, boundary_rule=rule)
        results[rule] = run_exhaustion(sched, pinched_metric)
    gap = float(np.max(np.abs(results["standard"].limit_on_reference
                              - results["midpoint"].limit_on_reference)))
    assert gap <= 5e-4
    report(9, f"boundary-datum perturbation changes the interior limit by "
              f"{gap:.2e} on the unit observation ball")


def test_criterion_10_equivariance_proxy(pinched_metric):
    n = 64
    sol0 = solve_dirichlet(DirichletProblem(pinched_metric, PolarGrid(n, n, 2.0)))
    rotated = PolarGrid(n, n, 2.0, theta0=2 * math.pi / n)
    sol1 = solve_dirichlet(DirichletProblem(pinched_metric, rotated))
    emb0 = build_embedding(sol0, l_obs=1.0)[2]
    emb1 = build_embedding(sol1, l_obs=1.0)[2]
    a = 2 * math.pi / n
    rot = np.array([[math.cos(a), -math.sin(a), 0.0],
                    [math.sin(a), math.cos(a), 0.0],
                    [0.0, 0.0, 1.0]])
    defect = float(np.max(np.abs(emb1.X - emb0.X @ rot.T)))
    assert defect <= 1e-6
    report(10, f"grid rotation conjugates to the ambient rotation within {defect:.2e}")


def test_criterion_11_determinism(tmp_path):
    cfg = {
        "schema_version": 1,
        "metric": {"family": "radial_pinched", "base": 1.0, "amp": 1.0},
        "grid": {"n_theta": 16, "nodes_per_unit": 10},
        "exhaustion": {"radii": [2.0, 3.0], "l_obs": 1.0, "tol": 1e-5},
        "solver": {"tol": 1e-10, "max_iter": 30},
        "audit": {"r0_list": [1.0]},
        "output": {},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in outs:
        assert cmd_solve(str(cfg_path), out, trace=True) == 0
        assert cmd_verify(out) == 0
        assert cmd_embed(out) == 0
    files = sorted(p.relative_to(outs[0])
                   for p in Path(outs[0]).rglob("*") if p.is_file())
    compared = 0
    for rel in files:
        if rel.name == "runmeta.json":
            continue
        assert (Path(outs[0]) / rel).read_bytes() == (Path(outs[1]) / rel).read_bytes(), rel
        compared += 1
    report(11, f"{compared} artifacts bit-identical across repeated runs")
