"""Configuration-driven front end: solve -> verify -> embed -> export.

Runs are reproducible by construction: the canonical config is copied into
the run directory, every CSV/JSON artifact is written with fixed ordering
and 17 significant digits, and wall-clock data lives only in the isolated
runmeta.json.  A lock file holding the writer's PID guards each output
directory against concurrent writers (solve, verify and embed alike); a
lock whose PID names no running process is reclaimed.

Exit codes: 0 success, 2 invalid config or missing/corrupt artifacts,
3 solver non-convergence (trace still written), 4 embedding audit failure,
5 output directory locked by another run.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import __version__
from .metric import (
    make_hyperbolic,
    make_radial_from_curvature,
    make_poincare,
    make_poincare_perturbed,
)
from .grid import PolarGrid, write_field_csv
# Unused here; kept because span tracers wrap lorentz_embed.cli.covariant_hessian.
from .grid import covariant_hessian  # noqa: F401
from .solver import DirichletProblem, NonConvergenceError, certify, solve_dirichlet
from .exhaustion import ExhaustionSchedule, ExhaustionStep, run_exhaustion, DivergenceError
from .estimates import run_estimate_suite
from .embed import (
    _MIN_OBS_RINGS, ObservationRegionError, build_embedding, export_graph, write_obj,
)

__all__ = ["RunConfig", "load_config", "cmd_solve", "cmd_verify", "cmd_embed", "main"]

_AUDIT_DEFAULTS = {
    "r0_list": [1.0],
    "c_cal": 1.0,
    "holonomy_tol": 1e-5,
    "curvature_check_tol": 1e-2,
    "pullback_tol": 1e-2,
    "pinching_slack": 1e-6,
}

# the keys each metric family reads, besides "family"
_METRIC_KEYS = {
    "hyperbolic": ("curvature_scale",),
    "radial_pinched": ("base", "amp", "r_max"),
    "poincare": ("curvature_scale", "domain_radius"),
    "poincare_perturbed": ("curvature_scale", "domain_radius", "eps"),
}
_FAMILIES = tuple(_METRIC_KEYS)
# the keys every other section reads; "output" reads none
_SECTION_KEYS = {
    "grid": ("n_theta", "nodes_per_unit", "n_r"),
    "exhaustion": ("radii", "l_obs", "tol", "boundary_rule"),
    "solver": ("tol", "max_iter"),
    "audit": tuple(_AUDIT_DEFAULTS),
    "output": (),
}


@dataclass(frozen=True)
class RunConfig:
    schema_version: int
    metric: dict
    grid: dict
    exhaustion: dict
    solver: dict
    audit: dict
    output: dict
    raw: dict = dataclass_field(repr=False, default_factory=dict)


def _err(errors, path, message):
    errors.append(f"{path}: {message}")


# The widest radial stencil the pipeline applies: the sixth-order radial
# derivatives of embed.conformal_metric span 2 * 3 + 1 = 7 rows.
_WIDEST_RADIAL_STENCIL = 7


def _check_number(errors, path, value, ok, what, integer=False):
    """Record a field error unless ``value`` is a finite real (an int when
    ``integer``; never a bool, string or null) for which ``ok`` holds."""
    types = int if integer else (int, float)
    try:
        good = (isinstance(value, types) and not isinstance(value, bool)
                and math.isfinite(value) and ok(value))
    except OverflowError:  # an int beyond the float range
        good = False
    if not good:
        _err(errors, path, f"must be {what}")
    return good


def _section(errors, cfg, name):
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        _err(errors, name, "must be a JSON object")
        return {}
    if name in _SECTION_KEYS:
        _unknown_keys(errors, f"{name}.", sec, _SECTION_KEYS[name])
    return sec


def _unknown_keys(errors, prefix, obj, known):
    """Record an error for each key of ``obj`` outside ``known``."""
    for key in sorted(set(obj) - set(known), key=str):
        _err(errors, f"{prefix}{key}", "unknown key")


def _positive(v):
    return v > 0


def _numbers(errors, path, values, ok, what):
    """Check a non-empty list entry by entry; returns it, or None after an error."""
    if not isinstance(values, list) or not values:
        _err(errors, path, f"must be a non-empty list of {what}s")
        return None
    good = [_check_number(errors, f"{path}[{k}]", v, ok, f"a {what}")
            for k, v in enumerate(values)]
    return values if all(good) else None


def validate_config(cfg: dict):
    """Schema-check a config dict; returns (RunConfig or None, error list).

    Never raises: every malformed value and every key the run would not
    read becomes an error naming its field.
    """
    errors = []
    if not isinstance(cfg, dict):
        return None, ["config: must be a JSON object"]
    _unknown_keys(errors, "", cfg, ("schema_version", "metric", *_SECTION_KEYS))
    _check_number(errors, "schema_version", cfg.get("schema_version"),
                  lambda v: v == 1, "1", integer=True)

    metric = _section(errors, cfg, "metric")
    family = metric.get("family")
    conformal = family in ("poincare", "poincare_perturbed")
    if family not in _FAMILIES:
        _err(errors, "metric.family", f"must be one of {_FAMILIES}")
    else:
        _unknown_keys(errors, "metric.", metric, ("family", *_METRIC_KEYS[family]))
    if family in ("hyperbolic", "poincare", "poincare_perturbed"):
        _check_number(errors, "metric.curvature_scale", metric.get("curvature_scale", 1.0),
                      _positive, "a positive number")
    domain = None
    if conformal and _check_number(errors, "metric.domain_radius",
                                   metric.get("domain_radius", 0.9),
                                   lambda v: 0 < v < 1, "a number in (0, 1)"):
        domain = metric.get("domain_radius", 0.9)
    if family == "poincare_perturbed":
        _check_number(errors, "metric.eps", metric.get("eps", 0.1), lambda v: True,
                      "a finite number")
    if family == "radial_pinched":
        _check_number(errors, "metric.base", metric.get("base", 1.0), _positive,
                      "a positive number")
        _check_number(errors, "metric.amp", metric.get("amp", 1.0), lambda v: v >= 0,
                      "a number >= 0")

    grid = _section(errors, cfg, "grid")
    _check_number(errors, "grid.n_theta", grid.get("n_theta", 64),
                  lambda v: v >= 8 and v % 2 == 0, "an even integer >= 8", integer=True)
    _check_number(errors, "grid.nodes_per_unit", grid.get("nodes_per_unit", 16),
                  _positive, "a positive number")
    if "n_r" in grid:
        _check_number(errors, "grid.n_r", grid["n_r"],
                      lambda v: v >= _WIDEST_RADIAL_STENCIL,
                      f"an integer >= {_WIDEST_RADIAL_STENCIL}", integer=True)

    ex = _section(errors, cfg, "exhaustion")
    radii = _numbers(errors, "exhaustion.radii", ex.get("radii"), _positive,
                     "positive number")
    if radii and any(b <= a for a, b in zip(radii, radii[1:])):
        _err(errors, "exhaustion.radii", "must be a strictly increasing positive list")
    if conformal and radii:
        if len(radii) != 1:
            _err(errors, "exhaustion.radii", "conformal charts support a single solve radius")
        elif domain is not None and radii[0] > domain:
            _err(errors, "exhaustion.radii", "must not exceed metric.domain_radius")
    _check_number(errors, "exhaustion.tol", ex.get("tol", 1e-5), _positive,
                  "a positive number")
    if ex.get("boundary_rule", "standard") not in ("standard", "midpoint"):
        _err(errors, "exhaustion.boundary_rule", "must be 'standard' or 'midpoint'")
    l_obs_ok = "l_obs" not in ex or _check_number(
        errors, "exhaustion.l_obs", ex["l_obs"], _positive, "a positive number")
    if radii and not conformal and l_obs_ok:
        l_obs = ex.get("l_obs", max(radii[0] - 1.0, radii[0] / 2))
        if l_obs > radii[0] - 1.0 + 1e-12:
            _err(errors, "exhaustion.l_obs", "must be <= radii[0] - 1")

    sv = _section(errors, cfg, "solver")
    _check_number(errors, "solver.tol", sv.get("tol", 1e-10), _positive,
                  "a positive number")
    _check_number(errors, "solver.max_iter", sv.get("max_iter", 30), lambda v: v >= 1,
                  "an integer >= 1", integer=True)

    audit = {**_AUDIT_DEFAULTS, **_section(errors, cfg, "audit")}
    for key in ("holonomy_tol", "curvature_check_tol", "pullback_tol",
                "pinching_slack", "c_cal"):
        _check_number(errors, f"audit.{key}", audit[key], _positive, "a positive number")
    _numbers(errors, "audit.r0_list", audit["r0_list"], _positive, "positive number")

    if family == "radial_pinched" and metric.get("r_max") is not None:
        # the second-order audit samples K on the ball of radius r0 + 1 about
        # probes whose r0-ball fits in the solved ball: one unit past it
        floor = max(radii) + 1.0 if radii else 0.0
        _check_number(errors, "metric.r_max", metric["r_max"],
                      lambda v: v >= floor and v > 0, f"a number >= max(radii) + 1 = {floor:g}")
    output = _section(errors, cfg, "output")
    if not errors and radii and not conformal:
        _check_observation_rings(errors, grid, ex, radii)

    if errors:
        return None, errors
    return RunConfig(
        schema_version=1,
        metric=dict(metric),
        grid=dict(grid),
        exhaustion=dict(ex),
        solver=dict(sv),
        audit=audit,
        output=dict(output),
        raw=cfg,
    ), []


def _check_observation_rings(errors, grid, ex, radii):
    """Record an error unless l_obs covers _MIN_OBS_RINGS rings of the grid
    of every ball, as embed counts them: the exhaustion may stop at any."""
    for l in radii:
        try:
            h1 = _grid_for(grid, l).h1
        except OverflowError:  # l * nodes_per_unit beyond the float range
            _err(errors, "grid.nodes_per_unit", f"gives no grid on radius {l:g}")
            return
        l_obs = ex.get("l_obs", l - 1.0)
        if (_MIN_OBS_RINGS - 0.5) * h1 >= l_obs + 1e-12:  # ring k is at (k + 1/2) h1
            _err(errors, "exhaustion.l_obs",
                 f"{l_obs:g} covers fewer than {_MIN_OBS_RINGS} rings of the grid "
                 f"of radius {l:g} (ring spacing {h1:.4g})")
            return


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return validate_config(json.load(fh))
    except (OSError, json.JSONDecodeError) as exc:
        return None, [f"config: unreadable ({exc})"]


def build_metric(cfg: RunConfig):
    m = cfg.metric
    family = m["family"]
    if family == "hyperbolic":
        return make_hyperbolic(m.get("curvature_scale", 1.0))
    if family == "poincare":
        return make_poincare(m.get("curvature_scale", 1.0), m.get("domain_radius", 0.9))
    if family == "poincare_perturbed":
        return make_poincare_perturbed(
            m.get("curvature_scale", 1.0), m.get("domain_radius", 0.9),
            m.get("eps", 0.1),
        )
    base = m.get("base", 1.0)
    amp = m.get("amp", 1.0)
    r_max = m.get("r_max")
    if r_max is None:
        r_max = max(cfg.exhaustion["radii"]) + max(cfg.audit["r0_list"]) + 1.5

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


def _grid_for(grid_cfg, l, kind="polar"):
    n_r = grid_cfg.get("n_r")
    if n_r is None:
        n_r = 64 if kind == "disc" else max(
            int(math.ceil(l * grid_cfg.get("nodes_per_unit", 16))), 16)
    return PolarGrid(n_r, grid_cfg.get("n_theta", 64), float(l), kind=kind)


class LockedError(RuntimeError):
    """Another run holds the output directory's lock."""


def _exit_5_if_locked(cmd):
    """Make a command report a held lock in one line and exit 5."""

    @functools.wraps(cmd)
    def run(*args, **kwargs):
        try:
            return cmd(*args, **kwargs)
        except LockedError as exc:
            print(f"{cmd.__name__.removeprefix('cmd_')}: {exc}", file=sys.stderr)
            return 5

    return run


@contextlib.contextmanager
def _locked_dir(path):
    os.makedirs(path, exist_ok=True)
    lock = os.path.join(path, ".lock")
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        fd = None
        if _lock_is_stale(lock):
            with contextlib.suppress(FileExistsError):
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        if fd is None:
            raise LockedError(
                f"output directory {path} is locked by another run (remove {lock} if stale)"
            )
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(OSError):
            os.remove(lock)


def _lock_is_stale(lock):
    """Remove ``lock`` if the PID it holds names no running process.

    A live PID, or an empty or unparseable lock, keeps the lock: a racing
    writer may have created it and not yet written its PID.
    """
    try:
        with open(lock, "r", encoding="utf-8") as fh:
            pid = int(fh.read())
        if pid > 0:  # 0 and negative PIDs name process groups
            os.kill(pid, 0)
        return False  # alive, or no PID
    except ProcessLookupError:
        print(f"removing stale lock {lock}: process {pid} is not running", file=sys.stderr)
        with contextlib.suppress(FileNotFoundError):
            os.remove(lock)
        return True
    except (OSError, ValueError, OverflowError):  # unreadable, unparseable, not ours
        return False


def _dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_runmeta(out_dir):
    _dump_json(
        {"timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
         "version": __version__},
        os.path.join(out_dir, "runmeta.json"),
    )


@_exit_5_if_locked
def cmd_solve(config_path, out_dir, trace=False):
    cfg, errors = load_config(config_path)
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    with _locked_dir(out_dir):
        _dump_json(cfg.raw, os.path.join(out_dir, "config.json"))
        _write_runmeta(out_dir)
        metric = build_metric(cfg)
        fields_dir = os.path.join(out_dir, "fields")
        os.makedirs(fields_dir, exist_ok=True)
        radii = [float(l) for l in cfg.exhaustion["radii"]]
        solver_tol = cfg.solver.get("tol", 1e-10)
        max_iter = cfg.solver.get("max_iter", 30)

        if metric.kind == "conformal_polar":
            grid = _grid_for(cfg.grid, radii[0], kind="disc")
            problem = DirichletProblem(metric, grid, tol=solver_tol, max_iter=max_iter)
            try:
                sol = solve_dirichlet(problem)
            except NonConvergenceError as exc:
                _write_trace(exc.trace, os.path.join(out_dir, "trace_l000.csv"))
                print(f"solver did not converge: {exc}", file=sys.stderr)
                return 3
            fields = [sol]
            steps = [ExhaustionStep.of(radii[0], math.nan, sol)]
        else:
            grids = [_grid_for(cfg.grid, l) for l in radii]
            schedule = ExhaustionSchedule(
                tuple(radii), tuple(grids),
                cfg.exhaustion.get("l_obs", radii[0] - 1.0),
                cfg.exhaustion.get("tol", 1e-5),
                cfg.exhaustion.get("boundary_rule", "standard"),
            )
            try:
                result = run_exhaustion(schedule, metric, solver_tol=solver_tol,
                                        max_iter=max_iter)
            except NonConvergenceError as exc:
                _write_trace(exc.trace, os.path.join(out_dir, "trace_failed.csv"))
                print(f"solver did not converge: {exc}", file=sys.stderr)
                return 3
            except DivergenceError as exc:
                for k, fld in enumerate(exc.fields):
                    write_field_csv(fld.u, os.path.join(fields_dir, f"u_{k:03d}.csv"))
                print(f"exhaustion diverged: {exc}", file=sys.stderr)
                return 3
            fields = result.fields
            steps = result.steps

        meta = {"radii": [], "boundary_values": [], "grids": [], "iterations": []}
        for k, fld in enumerate(fields):
            write_field_csv(fld.u, os.path.join(fields_dir, f"u_{k:03d}.csv"))
            if trace:
                _write_trace(fld.trace, os.path.join(out_dir, f"trace_l{k:03d}.csv"))
            meta["radii"].append(fld.ball_radius)
            meta["boundary_values"].append(fld.boundary_value)
            g = fld.u.grid
            meta["grids"].append({"n1": g.n1, "n2": g.n2, "kind": g.kind})
            meta["iterations"].append(fld.iterations)
        _dump_json(meta, os.path.join(fields_dir, "meta.json"))
        _write_convergence(steps, os.path.join(out_dir, "convergence.csv"))
        return 0


def _write_convergence(steps, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("l,delta,min_u,max_u,max_grad\n")
        for s in steps:
            row = (s.l, s.delta, s.min_u, s.max_u, s.max_grad)
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _write_trace(trace, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,residual,step,eig_margin\n")
        for it, res, step, eig in trace:
            fh.write(f"{it},{res:.17g},{step:.17g},{eig:.17g}\n")


def _load_run(run_dir, last_only=False):
    """Rebuild metric, grids, and admissible fields from run artifacts.

    Every stored field is read and shape-checked; with ``last_only`` only
    the last one is certified and returned.
    """
    cfg_path = os.path.join(run_dir, "config.json")
    if not os.path.exists(cfg_path):
        raise FileNotFoundError("config.json missing from run directory")
    cfg, errors = load_config(cfg_path)
    if errors:
        raise ValueError("; ".join(errors))
    meta_path = os.path.join(run_dir, "fields", "meta.json")
    if not os.path.exists(meta_path):
        raise FileNotFoundError("fields/meta.json missing (run solve first)")
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    metric = build_metric(cfg)
    stored = []
    for k, (l, b, ginfo, iters) in enumerate(zip(
            meta["radii"], meta["boundary_values"], meta["grids"],
            meta["iterations"])):
        grid = PolarGrid(ginfo["n1"], ginfo["n2"], l, kind=ginfo["kind"])
        path = os.path.join(run_dir, "fields", f"u_{k:03d}.csv")
        stored.append((grid, _read_field_csv(path, grid.shape), b, iters))
    if last_only:
        stored = stored[-1:]
    return cfg, metric, [certify(metric, *args) for args in stored]


def _read_field_csv(path, shape):
    if not os.path.exists(path):
        raise FileNotFoundError(f"{os.path.basename(path)} missing")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=2)
    except ValueError as exc:
        raise ValueError(f"{os.path.basename(path)}: corrupt CSV ({exc})")
    if data.size != shape[0] * shape[1]:
        raise ValueError(
            f"{os.path.basename(path)}: expected {shape[0] * shape[1]} rows, got {data.size}"
        )
    return data.reshape(shape)


def _default_probes(field, r0):
    """Probe nodes on three rays, at radii where the probe ball fits."""
    grid = field.u.grid
    l = field.ball_radius
    probes = []
    for frac, j in zip((0.45, 0.6, 0.75), (0, grid.n2 // 3, (2 * grid.n2) // 3)):
        r_target = frac * l
        if r_target + r0 > l:
            r_target = max(l - r0 - 2 * grid.h1, grid.h1)
        i = int(np.clip(np.searchsorted(grid.q1, r_target), 0, grid.n1 - 1))
        probes.append((i, j))
    return probes


@_exit_5_if_locked
def cmd_verify(run_dir):
    try:
        cfg, metric, fields = _load_run(run_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    r0_list = [float(r) for r in cfg.audit["r0_list"]]
    reports = []
    ok = True
    for fld in fields:
        fit_r0 = [r0 for r0 in r0_list
                  if metric.kind != "geodesic_polar" or r0 + 2 * fld.u.grid.h1 < fld.ball_radius]
        probes = _default_probes(fld, min(fit_r0) if fit_r0 else 0.0)
        rep = run_estimate_suite(fld, probes=probes, r0_list=fit_r0,
                                 c_cal=cfg.audit["c_cal"],
                                 tol=cfg.solver.get("tol", 1e-10))
        reports.append({"ball_radius": fld.ball_radius, **rep.to_json_dict()})
        ok = ok and rep.mandatory_pass()
    out = os.path.join(run_dir, "verify")
    with _locked_dir(run_dir):
        os.makedirs(out, exist_ok=True)
        _dump_json({"runs": reports, "mandatory_pass": ok},
                   os.path.join(out, "report.json"))
    for rep in reports:
        for rec in rep["records"]:
            status = "pass" if rec["pass"] else "FAIL"
            print(f"l={rep['ball_radius']:g} {rec['id']}: {status} "
                  f"(margin {rec['margin']:.3e})")
    return 0 if ok else 4


@_exit_5_if_locked
def cmd_embed(run_dir):
    try:
        cfg, metric, (field,) = _load_run(run_dir, last_only=True)
    except (FileNotFoundError, ValueError) as exc:
        print(f"embed: {exc}", file=sys.stderr)
        return 2
    report_path = os.path.join(run_dir, "verify", "report.json")
    if not os.path.exists(report_path):
        print("embed: verify report missing (run verify first)", file=sys.stderr)
        return 2
    with open(report_path, "r", encoding="utf-8") as fh:
        verify_report = json.load(fh)
    if not verify_report.get("mandatory_pass", False):
        print("embed: mandatory estimates failed; refusing to embed", file=sys.stderr)
        return 2

    if metric.kind == "geodesic_polar":
        l_obs = cfg.exhaustion.get("l_obs", field.ball_radius - 1.0)
    else:
        l_obs = 0.75 * field.ball_radius
    audit_cfg = cfg.audit
    try:
        gbar, dev, emb, audit = build_embedding(
            field, l_obs,
            check_tol=audit_cfg["curvature_check_tol"],
            holonomy_tol=audit_cfg["holonomy_tol"],
        )
    except ObservationRegionError as exc:  # validation vets config grids; meta.json may differ
        print(f"embed: exhaustion.l_obs: {exc}", file=sys.stderr)
        return 2
    out = os.path.join(run_dir, "embed")
    with _locked_dir(run_dir):
        os.makedirs(out, exist_ok=True)
        mesh = export_graph(emb, rows=audit.audit_rows)
        write_obj(mesh, os.path.join(out, "surface.obj"))
        payload = audit.to_json_dict()
        payload["curvature_defect"] = gbar.max_defect
        _dump_json(payload, os.path.join(out, "audit.json"))

    slack = audit_cfg["pinching_slack"]
    failures = []
    if audit.pullback_rel_err > audit_cfg["pullback_tol"]:
        failures.append(
            f"pullback error {audit.pullback_rel_err:.3e} at node "
            f"{audit.worst_pullback_node} exceeds {audit_cfg['pullback_tol']:g}"
        )
    for name, margin in (("cone", audit.pinching_margin_cone),
                         ("lower", audit.pinching_margin_lower),
                         ("upper", audit.pinching_margin_upper)):
        if margin < -slack:
            failures.append(f"pinching margin ({name}) {margin:.3e} < -{slack:g}")
    if failures:
        for f_msg in failures:
            print(f"embed audit: {f_msg}", file=sys.stderr)
        return 4
    print(f"embed: mesh with {mesh.vertices.shape[0]} vertices, "
          f"pullback error {audit.pullback_rel_err:.3e}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(prog="lorentz-embed",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("solve", "all"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", required=True)
        sp.add_argument("--trace", action="store_true")
    for name in ("verify", "embed"):
        sp = sub.add_parser(name)
        sp.add_argument("--out", required=True)
    args = p.parse_args(argv)

    if args.command == "solve":
        return cmd_solve(args.config, args.out, trace=args.trace)
    if args.command == "verify":
        return cmd_verify(args.out)
    if args.command == "embed":
        return cmd_embed(args.out)
    rc = cmd_solve(args.config, args.out, trace=args.trace)
    if rc:
        return rc
    rc = cmd_verify(args.out)
    if rc:
        return rc
    return cmd_embed(args.out)


if __name__ == "__main__":
    sys.exit(main())
