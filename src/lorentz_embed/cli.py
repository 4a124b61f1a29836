"""Configuration-driven front end: solve -> verify -> embed -> export.

Runs are reproducible by construction: the canonical config is copied into
the run directory, every CSV/JSON artifact is written with fixed ordering
and 17 significant digits, and wall-clock data lives only in the isolated
runmeta.json.  A lock file holding the writer's PID guards each output
directory against concurrent writers (solve, verify and embed alike); a
lock whose PID names no running process is reclaimed.

Every chart is solved through exhaustion.run_exhaustion: a schedule of
expanding geodesic balls, or a single conformal chart disc.  validate_config
is the one place config defaults live; the sections of a RunConfig hold
resolved values.

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
from .solver import NonConvergenceError, certify
# Unused here; kept for span tracers that wrap lorentz_embed.cli.solve_dirichlet.
from .solver import solve_dirichlet  # noqa: F401
from .exhaustion import make_schedule, run_exhaustion, DivergenceError
from .estimates import run_estimate_suite
from .embed import (
    _MIN_OBS_RINGS, ObservationRegionError, build_embedding, export_graph, write_obj,
)

__all__ = ["RunConfig", "load_config", "cmd_solve", "cmd_verify", "cmd_embed", "main"]

# Every key each section reads, with its default.  None marks a key with
# no fixed default: metric.family and exhaustion.radii are required, and
# metric.r_max, grid.n_r and exhaustion.l_obs are derived from other values
# (_derive_and_relate).  Each family reads only its own metric keys and the
# grid and exhaustion keys of its kind of grid; "output" reads none.
_DEFAULTS = {
    "metric": {"family": None, "curvature_scale": 1.0, "domain_radius": 0.9, "eps": 0.1,
               "base": 1.0, "amp": 1.0, "r_max": None},
    "grid": {"n_theta": 64, "nodes_per_unit": 16, "n_r": None},
    "exhaustion": {"radii": None, "l_obs": None, "tol": 1e-5, "boundary_rule": "standard"},
    "solver": {"tol": 1e-10, "max_iter": 30},
    "audit": {"r0_list": [1.0], "c_cal": 1.0, "holonomy_tol": 1e-5,
              "curvature_check_tol": 1e-2, "pullback_tol": 1e-2, "pinching_slack": 1e-6},
    "output": {},
}
# the kind of grid each family is solved on, and its metric keys
_FAMILIES = {
    "hyperbolic": ("polar", ("curvature_scale",)),
    "radial_pinched": ("polar", ("base", "amp", "r_max")),
    "poincare": ("disc", ("curvature_scale", "domain_radius")),
    "poincare_perturbed": ("disc", ("curvature_scale", "domain_radius", "eps")),
}
# A geodesic ball's grid scales with its radius.  A chart disc is solved as
# one ball on a fixed grid: it reads neither grid.nodes_per_unit nor the
# exhaustion.tol of a delta it never has.
_KIND_KEYS = {
    "polar": {"grid": ("n_theta", "nodes_per_unit", "n_r"),
              "exhaustion": ("radii", "l_obs", "tol", "boundary_rule")},
    "disc": {"grid": ("n_theta", "n_r"), "exhaustion": ("radii", "l_obs", "boundary_rule")},
}
# grid.n_r of a chart disc when unset
_DISC_N_R = 64
_GRID_KIND = {"geodesic_polar": "polar", "conformal_polar": "disc"}


def _positive(v):
    return v > 0


# (what, ok[, integer]) for each numeric key with a range of its own
_NUMBER_RULES = {
    "metric.curvature_scale": ("a positive number", _positive),
    "metric.domain_radius": ("a number in (0, 1)", lambda v: 0 < v < 1),
    "metric.eps": ("a finite number", lambda v: True),
    "metric.base": ("a positive number", _positive),
    "metric.amp": ("a number >= 0", lambda v: v >= 0),
    "grid.n_theta": ("an even integer >= 8", lambda v: v >= 8 and v % 2 == 0, True),
    "grid.nodes_per_unit": ("a positive number", _positive),
    # the widest radial stencil the pipeline applies: the sixth-order radial
    # derivatives of embed.conformal_metric span 2 * 3 + 1 = 7 rows
    "grid.n_r": ("an integer >= 7", lambda v: v >= 7, True),
    "exhaustion.l_obs": ("a positive number", _positive),
    "exhaustion.tol": ("a positive number", _positive),
    "solver.tol": ("a positive number", _positive),
    "solver.max_iter": ("an integer >= 1", lambda v: v >= 1, True),
    **{f"audit.{key}": ("a positive number", _positive)
       for key in ("c_cal", "holonomy_tol", "curvature_check_tol", "pullback_tol",
                   "pinching_slack")},
}


@dataclass(frozen=True)
class RunConfig:
    """Each section holds every key the run reads, resolved to its value;
    ``raw`` is the config as given."""

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


def _unknown_keys(errors, prefix, obj, known):
    """Record an error for each key of ``obj`` outside ``known``."""
    for key in sorted(set(obj) - set(known), key=str):
        _err(errors, f"{prefix}{key}", "unknown key")


def _numbers(errors, path, values, ok, what):
    """Check a non-empty list entry by entry; returns it, or None after an error."""
    if not isinstance(values, list) or not values:
        _err(errors, path, f"must be a non-empty list of {what}s")
        return None
    good = [_check_number(errors, f"{path}[{k}]", v, ok, f"a {what}")
            for k, v in enumerate(values)]
    return values if all(good) else None


def _resolve_sections(errors, cfg):
    """The kind of grid and the sections of ``cfg``, defaults filled in.

    Records an error for each section that is not an object, each key the
    run would not read and each given number out of its range.
    """
    given = {}
    for name in _DEFAULTS:
        given[name] = cfg.get(name, {})
        if not isinstance(given[name], dict):
            _err(errors, name, "must be a JSON object")
            given[name] = {}
    family = given["metric"].get("family")
    if family in tuple(_FAMILIES):  # a tuple: family may be an unhashable JSON value
        kind, metric_keys = _FAMILIES[family]
    else:  # the other keys are checked against the widest sets
        _err(errors, "metric.family", f"must be one of {tuple(_FAMILIES)}")
        kind, metric_keys = "polar", tuple(_DEFAULTS["metric"])
    read = {"metric": ("family", *metric_keys), **_KIND_KEYS[kind]}
    sections = {}
    for name, sec in given.items():
        known = read.get(name, tuple(_DEFAULTS[name]))
        _unknown_keys(errors, f"{name}.", sec, known)
        for key in sorted(set(sec) & set(known)):
            if f"{name}.{key}" in _NUMBER_RULES:
                what, ok, *integer = _NUMBER_RULES[f"{name}.{key}"]
                _check_number(errors, f"{name}.{key}", sec[key], ok, what, *integer)
        sections[name] = {key: sec.get(key, _DEFAULTS[name][key]) for key in known}
    return kind, sections


def validate_config(cfg: dict):
    """Schema-check a config dict; returns (RunConfig or None, error list).

    Never raises: every malformed value and every key the run would not
    read becomes an error naming its field.  The rules that relate fields
    are checked once every field is valid on its own.
    """
    if not isinstance(cfg, dict):
        return None, ["config: must be a JSON object"]
    errors = []
    _unknown_keys(errors, "", cfg, ("schema_version", *_DEFAULTS))
    _check_number(errors, "schema_version", cfg.get("schema_version"),
                  lambda v: v == 1, "1", integer=True)
    kind, sec = _resolve_sections(errors, cfg)
    radii = _numbers(errors, "exhaustion.radii", sec["exhaustion"]["radii"], _positive,
                     "positive number")
    if radii and any(b <= a for a, b in zip(radii, radii[1:])):
        _err(errors, "exhaustion.radii", "must be a strictly increasing positive list")
    if sec["exhaustion"]["boundary_rule"] not in ("standard", "midpoint"):
        _err(errors, "exhaustion.boundary_rule", "must be 'standard' or 'midpoint'")
    _numbers(errors, "audit.r0_list", sec["audit"]["r0_list"], _positive, "positive number")
    if not errors:
        _derive_and_relate(errors, kind, sec)
    if not errors:
        _check_observation_rings(errors, kind, sec["grid"], sec["exhaustion"])
    if errors:
        return None, errors
    return RunConfig(schema_version=1, raw=cfg, **sec), []


def _derive_and_relate(errors, kind, sec):
    """Fill the defaults derived from other values, and check the rules
    that relate fields."""
    metric, grid, ex = sec["metric"], sec["grid"], sec["exhaustion"]
    radii = ex["radii"]
    if kind == "disc":
        if len(radii) != 1:
            _err(errors, "exhaustion.radii", "conformal charts support a single solve radius")
        elif radii[0] > metric["domain_radius"]:
            _err(errors, "exhaustion.radii", "must not exceed metric.domain_radius")
        if grid["n_r"] is None:
            grid["n_r"] = _DISC_N_R
        if ex["l_obs"] is None:
            ex["l_obs"] = 0.75 * radii[0]
        elif ex["l_obs"] >= radii[0]:
            _err(errors, "exhaustion.l_obs", "must be < radii[0] on a chart disc")
    elif ex["l_obs"] is None:
        ex["l_obs"] = radii[0] - 1.0
        if ex["l_obs"] <= 0:
            _err(errors, "exhaustion.l_obs",
                 f"defaults to radii[0] - 1 = {ex['l_obs']:g}, which is not positive: set it")
    elif ex["l_obs"] > radii[0] - 1.0 + 1e-12:
        _err(errors, "exhaustion.l_obs", "must be <= radii[0] - 1")
    if "r_max" not in metric:
        return
    if metric["r_max"] is None:
        metric["r_max"] = max(radii) + max(sec["audit"]["r0_list"]) + 1.5
    else:
        # the second-order audit samples K on the ball of radius r0 + 1 about
        # probes whose r0-ball fits in the solved ball: one unit past it
        floor = max(radii) + 1.0
        _check_number(errors, "metric.r_max", metric["r_max"],
                      lambda v: v >= floor, f"a number >= max(radii) + 1 = {floor:g}")


def _check_observation_rings(errors, kind, grid, ex):
    """Record an error unless l_obs covers _MIN_OBS_RINGS rings of the grid
    of every ball, as embed counts them: the exhaustion may stop at any."""
    try:
        grids = make_schedule(kind=kind, **grid, **ex).grids
    except OverflowError:  # l * nodes_per_unit beyond the float range
        _err(errors, "grid.nodes_per_unit", "gives more radial nodes than a grid can hold")
        return
    for g in grids:
        if (_MIN_OBS_RINGS - 0.5) * g.h1 >= ex["l_obs"] + 1e-12:  # ring k is at (k + 1/2) h1
            _err(errors, "exhaustion.l_obs",
                 f"{ex['l_obs']:g} covers fewer than {_MIN_OBS_RINGS} rings of the grid "
                 f"of radius {g.radius:g} (ring spacing {g.h1:.4g})")
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
        return make_hyperbolic(m["curvature_scale"])
    if family == "poincare":
        return make_poincare(m["curvature_scale"], m["domain_radius"])
    if family == "poincare_perturbed":
        return make_poincare_perturbed(m["curvature_scale"], m["domain_radius"], m["eps"])
    base, amp = m["base"], m["amp"]

    def K(r):
        r = np.asarray(r, dtype=float)
        return -(base + amp * r * r / (1.0 + r * r))

    def Kp(r):
        r = np.asarray(r, dtype=float)
        return -(2.0 * amp * r / (1.0 + r * r) ** 2)

    def Kpp(r):
        r = np.asarray(r, dtype=float)
        return -(amp * (2.0 - 6.0 * r * r) / (1.0 + r * r) ** 3)

    return make_radial_from_curvature(K, m["r_max"], k_prime=Kp, k_double_prime=Kpp)


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
        # make_schedule takes the grid and exhaustion keys by name
        schedule = make_schedule(kind=_GRID_KIND[metric.kind], **cfg.grid, **cfg.exhaustion)
        try:
            result = run_exhaustion(schedule, metric, solver_tol=cfg.solver["tol"],
                                    max_iter=cfg.solver["max_iter"])
        except NonConvergenceError as exc:
            _write_trace(exc.trace, os.path.join(out_dir, "trace_failed.csv"))
            print(f"solver did not converge: {exc}", file=sys.stderr)
            return 3
        except DivergenceError as exc:
            for k, fld in enumerate(exc.fields):
                write_field_csv(fld.u, os.path.join(fields_dir, f"u_{k:03d}.csv"))
            print(f"exhaustion diverged: {exc}", file=sys.stderr)
            return 3

        meta = {"radii": [], "boundary_values": [], "grids": [], "iterations": []}
        for k, fld in enumerate(result.fields):
            write_field_csv(fld.u, os.path.join(fields_dir, f"u_{k:03d}.csv"))
            if trace:
                _write_trace(fld.trace, os.path.join(out_dir, f"trace_l{k:03d}.csv"))
            meta["radii"].append(fld.ball_radius)
            meta["boundary_values"].append(fld.boundary_value)
            g = fld.u.grid
            meta["grids"].append({"n1": g.n1, "n2": g.n2, "kind": g.kind})
            meta["iterations"].append(fld.iterations)
        _dump_json(meta, os.path.join(fields_dir, "meta.json"))
        _write_convergence(result.steps, os.path.join(out_dir, "convergence.csv"))
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
                                 tol=cfg.solver["tol"])
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

    audit_cfg = cfg.audit
    try:
        gbar, dev, emb, audit = build_embedding(
            field, cfg.exhaustion["l_obs"],
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
