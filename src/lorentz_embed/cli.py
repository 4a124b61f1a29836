"""Configuration-driven front end: solve -> verify -> embed -> export.

No other module does file I/O: each artifact format's writer sits beside
its reader and writes atomically (atomic_write).  A field CSV holds the
grid's own coordinates, and its reader accepts only the bytes its writer
would write for the values it parses (_ring_formats is the layout of both).
Each stage decides its own verdict and the commands write it:
fields/meta.json records how run_exhaustion says the exhaustion ended (a
diverged one included), verify prints each estimate record's own status
line, and embed prints the failures its EmbeddingAudit names.

Importing this module loads only what config handling and solve need
(metric, grid, solver, exhaustion).  verify loads estimates (and geodesics
only to solve a distance field), and embed loads embed, on first call; the
names of those stages used here are attributes of this module.

validate_config is the one place config defaults live; a RunConfig holds
resolved values and the one schedule every command reads, an
ExhaustionSchedule of the grid and exhaustion sections (fields/meta.json's
radii, grids and boundary_values must equal what it and the metric give).

Config keys, exit codes and run artifacts: the tables of README.md's CLI section.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import datetime
import fcntl
import fnmatch
import functools
import gc
import importlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field as dataclass_field, replace

import numpy as np

from . import __version__
from .metric import ConformalDiscMetric, make_hyperbolic, make_radial_pinched
from .grid import HessianField
# Unused here; kept because span tracers wrap lorentz_embed.cli.covariant_hessian.
from .grid import covariant_hessian  # noqa: F401
from .solver import NonConvergenceError, certify
# Unused here; kept for span tracers that wrap lorentz_embed.cli.solve_dirichlet.
from .solver import solve_dirichlet  # noqa: F401
from .exhaustion import (_MIN_OBS_RINGS, _boundary_value, _observation_rings, ExhaustionSchedule,
                         run_exhaustion)

__all__ = ["RunConfig", "load_config", "cmd_solve", "cmd_verify", "cmd_embed", "main"]

# Names of the stages only verify and embed run, and the module of each.
# Each resolves on first access through __getattr__; the commands reach them
# as attributes of this module, so a wrapper set on it (a span tracer, a
# test's spy) is the one they call.
_STAGE_NAMES = {
    "default_probes": "estimates",
    "run_estimate_suite": "estimates",
    "CurvatureCheckError": "embed",
    "build_embedding": "embed",
    "export_graph": "embed",
}
_cli = sys.modules[__name__]
# The interpreter's last garbage collections would walk every object of the
# imported modules (about 25 ms per command); freezing them skips that work,
# and the OS takes the memory back at exit.
atexit.register(gc.freeze)


def __getattr__(name):
    """Import the stage that defines ``name`` and keep the name here (PEP 562)."""
    if name not in _STAGE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    stage = importlib.import_module(f".{_STAGE_NAMES[name]}", __package__)
    value = globals()[name] = getattr(stage, name)
    return value


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
    "audit": {"r0_list": [1.0], "c_cal": 1.0, "curvature_check_tol": 1e-2,
              "pullback_tol": 1e-2, "pinching_slack": 1e-6},
    "output": {},
}
# each family's kind of grid, its metric keys and the metric callable taking
# them in that order (poincare is the conformal chart at its default eps = 0)
_FAMILIES = {
    "hyperbolic": ("polar", ("curvature_scale",), make_hyperbolic),
    "radial_pinched": ("polar", ("base", "amp", "r_max"), make_radial_pinched),
    "poincare": ("disc", ("curvature_scale", "domain_radius"), ConformalDiscMetric),
    "poincare_perturbed": ("disc", ("curvature_scale", "domain_radius", "eps"),
                           ConformalDiscMetric),
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
       for key in ("c_cal", "curvature_check_tol", "pullback_tol", "pinching_slack")},
}


# What a run may ask the machine to build.  The radial chart takes r_max /
# 1e-3 RK4 samples (metric.make_radial_from_curvature).  A geodesic ball's
# warp f grows no faster than exp(rate r), rate sqrt(base + amp) or
# sqrt(curvature_scale), so f^2 (g22) stays a finite float while rate times
# the furthest radius the run reads is at most _MAX_WARP_EXPONENT.  A grid
# may have 7 times the nodes of the largest in the tests and the benchmark,
# 192 x 192.  A block Newton step, which radial runs fall back to, keeps
# (n_r - 1) n_theta^2 doubles: 7.0e6 on that grid, 1.68e7 on 4096 rings of
# 64 angles (2^18 nodes, the largest grid the tests admit).
_MAX_R_MAX = 100.0
_MAX_WARP_EXPONENT = 350.0
_MAX_GRID_NODES = 2 ** 18
_MAX_BLOCK_DOUBLES = 2 ** 24


@dataclass(frozen=True)
class RunConfig:
    """Each section holds every key the run reads, resolved to its value;
    ``schedule`` holds the run's balls and grids; ``raw`` is the config as given."""

    metric: dict
    solver: dict
    audit: dict
    schedule: ExhaustionSchedule = dataclass_field(repr=False)
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
        kind, metric_keys, _ = _FAMILIES[family]
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
    are checked once every field is valid on its own, the schedule's own
    (ExhaustionSchedule) once the derived defaults are filled in.
    """
    if not isinstance(cfg, dict):
        return None, ["config: must be a JSON object"]
    errors = []
    _unknown_keys(errors, "", cfg, ("schema_version", *_DEFAULTS))
    _check_number(errors, "schema_version", cfg.get("schema_version"),
                  lambda v: v == 1, "1", integer=True)
    kind, sec = _resolve_sections(errors, cfg)
    _numbers(errors, "exhaustion.radii", sec["exhaustion"]["radii"], _positive, "positive number")
    _numbers(errors, "audit.r0_list", sec["audit"]["r0_list"], _positive, "positive number")
    if not errors:
        _derive_and_relate(errors, kind, sec)
    schedule = None if errors else _check_grids(errors, kind, sec["grid"], sec["exhaustion"])
    if errors:
        return None, errors
    return RunConfig(sec["metric"], sec["solver"], sec["audit"], schedule, cfg), []


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
        return
    if ex["l_obs"] is None:
        ex["l_obs"] = radii[0] - 1.0
        if ex["l_obs"] <= 0:
            _err(errors, "exhaustion.l_obs",
                 f"defaults to radii[0] - 1 = {ex['l_obs']:g}, which is not positive: set it")
    reach = max(radii) + max(sec["audit"]["r0_list"]) + 1.5
    if "r_max" not in metric:  # hyperbolic: f = sinh(sqrt(c) r) / sqrt(c), read out to reach
        limit = _MAX_WARP_EXPONENT / math.sqrt(metric["curvature_scale"])
        if reach > limit:
            _err(errors, "exhaustion.radii", f"max(exhaustion.radii) + max(audit.r0_list) "
                 f"+ 1.5 = {reach:g}, above {_MAX_WARP_EXPONENT:g} / "
                 f"sqrt(metric.curvature_scale) = {limit:g}")
        return
    limit = min(_MAX_R_MAX, _MAX_WARP_EXPONENT / math.sqrt(metric["base"] + metric["amp"]))
    if metric["r_max"] is None:
        metric["r_max"] = reach
        if reach > limit:
            _err(errors, "metric.r_max", f"defaults to max(exhaustion.radii) + "
                 f"max(audit.r0_list) + 1.5 = {reach:g}, above {limit:g}")
    else:
        # the second-order audit samples K on the ball of radius r0 + 1 about
        # probes whose r0-ball fits in the solved ball: one unit past it
        floor = max(radii) + 1.0
        _check_number(errors, "metric.r_max", metric["r_max"], lambda v: floor <= v <= limit,
                      f"a number >= max(radii) + 1 = {floor:g} and <= {limit:g}")


def _check_grids(errors, kind, grid, ex):
    """The run's schedule (whose rules name their keys), or None after
    recording an error: the grid of every ball has at most _MAX_GRID_NODES
    nodes, its block Newton step at most _MAX_BLOCK_DOUBLES doubles, and
    l_obs covers _MIN_OBS_RINGS of its rings, as embed counts them: the
    exhaustion may stop at any."""
    try:
        schedule = ExhaustionSchedule(kind=kind, **grid, **ex)
    except ValueError as exc:
        errors.append(str(exc))
        return None
    except OverflowError:  # l * nodes_per_unit beyond the float range
        _err(errors, "grid.nodes_per_unit", "gives more radial nodes than a grid can hold")
        return None
    for g in schedule.grids:
        if g.n1 * g.n2 > _MAX_GRID_NODES:
            _err(errors, "grid", f"the grid of radius {g.radius:g} has {g.n1} x {g.n2} nodes, "
                 f"more than {_MAX_GRID_NODES}")
            return None
        if (g.n1 - 1) * g.n2 ** 2 > _MAX_BLOCK_DOUBLES:
            _err(errors, "grid.n_theta", f"{g.n2} angles on the {g.n1} rings of the grid of "
                 f"radius {g.radius:g} give a block Newton step of (n_r - 1) n_theta^2 = "
                 f"{(g.n1 - 1) * g.n2 ** 2} doubles, more than {_MAX_BLOCK_DOUBLES}")
            return None
        if _observation_rings(g, ex["l_obs"]) < _MIN_OBS_RINGS:
            _err(errors, "exhaustion.l_obs",
                 f"{ex['l_obs']:g} covers fewer than {_MIN_OBS_RINGS} rings of the grid "
                 f"of radius {g.radius:g} (ring spacing {g.h1:.4g})")
            return None
    return schedule


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return validate_config(json.load(fh))
    except (OSError, json.JSONDecodeError) as exc:
        return None, [f"config: unreadable ({exc})"]


def build_metric(cfg: RunConfig):
    _, keys, make = _FAMILIES[cfg.metric["family"]]
    return make(*(cfg.metric[key] for key in keys))


class LockedError(RuntimeError):
    """Another run holds the output directory's lock."""


class NotADirError(RuntimeError):
    """The output path cannot be a directory: it, or a path above it, is a file."""


def _exit_5_if_locked(cmd):
    """Report in one line a held lock (exit 5) or an output path that is no directory (2)."""

    @functools.wraps(cmd)
    def run(*args, **kwargs):
        try:
            return cmd(*args, **kwargs)
        except (LockedError, NotADirError) as exc:
            print(f"{cmd.__name__.removeprefix('cmd_')}: {exc}", file=sys.stderr)
            return 5 if isinstance(exc, LockedError) else 2

    return run


@contextlib.contextmanager
def _locked_dir(path):
    """Hold an exclusive flock on ``<path>/.lock`` for the block.

    The kernel releases it when the file is closed or its process dies, so
    no lock goes stale.  Nothing is written into the file, and it stays:
    removing it would let a second writer lock a new file while the first
    holds the old one.
    """
    try:
        os.makedirs(path, exist_ok=True)
        fh = open(os.path.join(path, ".lock"), "ab")
    except (FileExistsError, NotADirectoryError) as exc:
        raise NotADirError(f"output directory {path} cannot be made ({exc.strerror})") from None
    with fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise LockedError(f"output directory {path} is locked by another run "
                              f"(lock file {fh.name})") from None
        yield


# ---------------------------------------------------------------------------
# run artifacts: each format's writer beside its reader

# every file the CLI writes into a run directory besides config.json and
# runmeta.json, as <directory>/<fnmatch pattern>; solve removes them first
_RUN_ARTIFACTS = ("fields/u_*.csv", "fields/meta.json", "convergence.csv",
                  "trace_failed.csv", "trace_l*.csv", "verify/report.json",
                  "embed/surface.obj", "embed/audit.json")
# records formatted per ``%``
_BLOCK = 1024


@contextlib.contextmanager
def atomic_write(path):
    """A text file that replaces ``path`` only once the block completes.

    It is written next to ``path`` (the same file system, so ``os.replace``
    is atomic); when the block raises, it is removed and ``path`` is left
    as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _write_records(fh, record, rows):
    """One ``record`` per row of ``rows``, _BLOCK rows per ``%``."""
    for k in range(0, len(rows), _BLOCK):
        block = np.asarray(rows[k:k + _BLOCK])
        fh.write((record * len(block)) % tuple(block.ravel().tolist()))


def _remove_run_artifacts(out_dir):
    """Remove the files of _RUN_ARTIFACTS in ``out_dir``; every other file stays."""
    for pattern in _RUN_ARTIFACTS:
        folder, name = os.path.split(os.path.join(out_dir, pattern))
        for match in fnmatch.filter(os.listdir(folder) if os.path.isdir(folder) else (), name):
            path = os.path.join(folder, match)
            if os.path.isfile(path):
                os.remove(path)


def _strict(obj):
    """``obj`` as strict JSON holds it: every float that is not finite is None."""
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _dump_json(obj, path):
    with atomic_write(path) as fh:
        json.dump(_strict(obj), fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def _read_json_object(run_dir, name, hint):
    """The JSON object in a run directory's file ``name``; each error names the file."""
    path = os.path.join(run_dir, *name.split("/"))
    if not os.path.exists(path):
        raise FileNotFoundError(f"{name} missing ({hint})")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{name}: corrupt JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{name}: not a JSON object")
    return obj


def _ring_formats(grid):
    """Each ring's rows ``r,theta,value`` of a field CSV on ``grid``, with r
    = grid.q1 (the chart radius on a disc) and the value left as ``%.17g``;
    each theta is formatted once per grid and each r once per ring."""
    tails = [",%.17g,%%.17g\n" % t for t in grid.q2.tolist()]
    for r in grid.q1.tolist():
        r_text = "%.17g" % r
        yield r_text + r_text.join(tails)


def _render_ring(ring_format, values):
    """A ring's rows for its own values, or for one value formatted once."""
    if len(values) == 1:
        return ring_format.replace("%.17g", "%.17g" % values[0])
    return ring_format % tuple(values)


def write_field_csv(field, path):
    """Dump a field as CSV (_ring_formats), one value per ring where it is
    constant along theta (``field.column``)."""
    rings = (field.values if field.column is None else field.column).tolist()
    with atomic_write(path) as fh:
        fh.write("r,theta,value\n")
        for ring_format, values in zip(_ring_formats(field.grid), rings):
            fh.write(_render_ring(ring_format, values))


def _read_field_csv(path, grid):
    """The values of a field CSV on ``grid``, accepted only as the bytes
    write_field_csv writes for them: each ring's value column is parsed (one
    value where all of the ring's are one string), rendered again and
    compared with the file."""
    name = os.path.basename(path)
    if not os.path.exists(path):
        raise FileNotFoundError(f"{name} missing")
    with open(path, "r", encoding="utf-8", errors="replace", newline="") as fh:
        text = fh.read()
    pos = text.find("\n") + 1
    if text[:pos] != "r,theta,value\n":
        raise ValueError(f"{name}: header {text[:pos]!r}, not 'r,theta,value\\n'")
    rows = text.count("\n") - 1 + (not text.endswith("\n"))
    if rows != grid.n1 * grid.n2:
        raise ValueError(f"{name}: expected {grid.n1 * grid.n2} rows, got {rows}")
    values, n = np.empty(grid.shape), grid.n2
    for i, ring_format in enumerate(_ring_formats(grid)):
        # the ring's rows span at most this much: a value has at most 24
        # characters where its format has 5
        rest = text[pos:pos + len(ring_format) + 19 * n]
        cells = rest.replace("\n", ",", n).split(",", 3 * n)[2:3 * n:3]
        try:
            ring_values = list(map(float, cells[:1] if cells[:1] * n == cells else cells))
            ring = _render_ring(ring_format, ring_values)
        except (TypeError, ValueError):  # too few cells, or one that is not a number
            ring = None
        if ring is None or not text.startswith(ring, pos):
            raise _first_bad_row(name, grid, text[pos:].split("\n", n), i)
        values[i] = ring_values
        pos += len(ring)
    return values


def _first_bad_row(name, grid, lines, i):
    """The error naming the first of ``lines``, the rows of ring ``i``, that
    write_field_csv would not write."""
    for k, (line, theta) in enumerate(zip(lines, grid.q2.tolist()), i * grid.n2 + 1):
        *coordinates, value = line.split(",")
        node = ["%.17g" % grid.q1[i], "%.17g" % theta]
        if len(coordinates) != 2:
            return ValueError(f"{name}: expected 3 columns, got {len(coordinates) + 1} in row {k}")
        if coordinates != node:
            return ValueError(f"{name}: row {k} has coordinates ({', '.join(coordinates)}), "
                              f"not the grid's ({', '.join(node)})")
        try:
            spelled = "%.17g" % float(value)
        except ValueError:
            spelled = "a number"
        if value != spelled:
            return ValueError(f"{name}: row {k} has value {value!r}, not {spelled}")
    return ValueError(f"{name}: row {k} does not end in a newline")


def _write_convergence(steps, path):
    with atomic_write(path) as fh:
        fh.write("l,delta,min_u,max_u,max_grad\n")
        _write_records(fh, ",".join(["%.17g"] * 5) + "\n",
                       [(s.l, s.delta, s.min_u, s.max_u, s.max_grad) for s in steps])


def _write_trace(trace, path):
    with atomic_write(path) as fh:
        fh.write("iteration,residual,step,eig_margin\n")
        _write_records(fh, "%d,%.17g,%.17g,%.17g\n", trace)


def write_obj(mesh, path):
    """Wavefront OBJ with the v/f records of an embed.Mesh; faces are 1-indexed."""
    with atomic_write(path) as fh:
        _write_records(fh, "v %.17g %.17g %.17g\n", np.asarray(mesh.vertices, dtype=float))
        _write_records(fh, "f %d %d %d\n", np.asarray(mesh.faces) + 1)


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
    try:
        metric = build_metric(cfg)
    except ValueError as exc:  # a chart refusing values that each pass validation
        print(f"config error: metric: {exc}", file=sys.stderr)
        return 2
    with _locked_dir(out_dir):
        _remove_run_artifacts(out_dir)  # what an earlier run left would outlive this one
        _dump_json(cfg.raw, os.path.join(out_dir, "config.json"))
        _write_runmeta(out_dir)
        try:
            result = run_exhaustion(cfg.schedule, metric, solver_tol=cfg.solver["tol"],
                                    max_iter=cfg.solver["max_iter"])
        except NonConvergenceError as exc:
            _write_trace(exc.trace, os.path.join(out_dir, "trace_failed.csv"))
            print(f"solver did not converge: {exc}", file=sys.stderr)
            return 3
        # a diverged run is written too, and stays readable by verify
        _write_solution(out_dir, result, trace)
        if result.diverged:
            print("exhaustion diverged: interior deltas increased across three "
                  "consecutive steps", file=sys.stderr)
            return 3
        if result.met_tol is False:
            print(f"exhaustion stopped above its tol: last delta {result.last_delta:.3e} "
                  f"> {cfg.schedule.tol:g}", file=sys.stderr)
            return 6
        return 0


# the per-ball lists of fields/meta.json, in the order _load_run reads them
_META_LISTS = ("radii", "boundary_values", "grids", "iterations", "residual",
               "residual_floor", "floor_limited")


def _write_solution(out_dir, result, trace):
    """Write the fields, their meta.json and convergence.csv of an exhaustion.

    meta.json records per ball the Newton iterations, final residual, its
    round-off floor and whether Newton stopped on that floor
    (solver.DirichletProblem), and how the exhaustion ended: its
    ``last_delta``, ``met_tol`` and ``diverged``.
    """
    fields_dir = os.path.join(out_dir, "fields")
    os.makedirs(fields_dir, exist_ok=True)
    meta = {key: [] for key in _META_LISTS}
    for k, fld in enumerate(result.fields):
        write_field_csv(fld.u, os.path.join(fields_dir, f"u_{k:03d}.csv"))
        if trace:
            _write_trace(fld.trace, os.path.join(out_dir, f"trace_l{k:03d}.csv"))
        meta["radii"].append(fld.ball_radius)
        meta["boundary_values"].append(fld.boundary_value)
        g = fld.u.grid
        meta["grids"].append({"n1": g.n1, "n2": g.n2, "kind": g.kind})
        meta["iterations"].append(fld.iterations)
        meta["residual"].append(fld.residual)
        meta["residual_floor"].append(fld.residual_floor)
        meta["floor_limited"].append(fld.floor_limited)
    meta.update(last_delta=result.last_delta, met_tol=result.met_tol, diverged=result.diverged)
    _dump_json(meta, os.path.join(fields_dir, "meta.json"))
    _write_convergence(result.steps, os.path.join(out_dir, "convergence.csv"))


def _load_run(run_dir, last_only=False):
    """Rebuild the metric and the admissible fields of a run.

    Each stored ball's grid comes from config.json's schedule and its
    boundary value from the metric; fields/meta.json's radii, grids and
    boundary_values must equal them.  Every stored field is read; with
    ``last_only`` only the last one is certified and returned.
    """
    cfg_path = os.path.join(run_dir, "config.json")
    if not os.path.exists(cfg_path):
        raise FileNotFoundError("config.json missing from run directory")
    cfg, errors = load_config(cfg_path)
    if errors:
        raise ValueError("; ".join(errors))
    meta = _read_json_object(run_dir, "fields/meta.json", "run solve first")
    lists = [meta.get(key) for key in _META_LISTS]
    if not all(isinstance(v, list) and v and len(v) == len(lists[0]) for v in lists):
        raise ValueError(f"fields/meta.json: {', '.join(_META_LISTS[:-1])} and "
                         f"{_META_LISTS[-1]} must be non-empty lists of one length")
    metric = build_metric(cfg)
    schedule = cfg.schedule
    radii, grids = schedule.radii[:len(lists[0])], schedule.grids[:len(lists[0])]
    values = [float(_boundary_value(metric, l, schedule.boundary_rule)) for l in radii]
    for key, given in (("radii", list(radii)), ("boundary_values", values),
                       ("grids", [{"n1": g.n1, "n2": g.n2, "kind": g.kind} for g in grids])):
        if meta[key] != given:
            raise ValueError(f"fields/meta.json: {key} {meta[key]} is not config.json's {given}")
    errors = []
    for key in ("iterations", "residual", "residual_floor"):
        for k, value in enumerate(meta[key]):
            _check_number(errors, f"fields/meta.json: {key}[{k}]", value, lambda v: v >= 0,
                          f"{'an integer' if key == 'iterations' else 'a number'} >= 0",
                          key == "iterations")
    for k, value in enumerate(meta["floor_limited"]):
        if not isinstance(value, bool):
            _err(errors, f"fields/meta.json: floor_limited[{k}]", "must be true or false")
    if errors:
        raise ValueError("; ".join(errors))
    stored = []
    for k, (grid, b, iters) in enumerate(zip(grids, values, meta["iterations"])):
        path = os.path.join(run_dir, "fields", f"u_{k:03d}.csv")
        stored.append((grid, _read_field_csv(path, grid), b, iters))
    if last_only:
        stored = stored[-1:]
    return cfg, metric, [certify(metric, *args) for args in stored]


@_exit_5_if_locked
def cmd_verify(run_dir):
    if not os.path.isdir(run_dir):  # locking would create it
        print(f"verify: run directory {run_dir} not found", file=sys.stderr)
        return 2
    with _locked_dir(run_dir):  # the run is read under the lock its report is written under
        try:
            cfg, _, fields = _load_run(run_dir)
        except (FileNotFoundError, ValueError) as exc:
            print(f"verify: {exc}", file=sys.stderr)
            return 2
        r0_list = [float(r) for r in cfg.audit["r0_list"]]
        reports, lines = [], []
        ok = True
        for fld in fields:
            probes, fit_r0 = _cli.default_probes(fld, r0_list)
            rep = _cli.run_estimate_suite(fld, probes=probes, r0_list=fit_r0,
                                          c_cal=cfg.audit["c_cal"], tol=cfg.solver["tol"])
            reports.append({"ball_radius": fld.ball_radius, **rep.to_json_dict()})
            lines += [f"l={fld.ball_radius:g} {rec.id}: {rec.status()}" for rec in rep.records]
            if missed := [r0 for r0 in r0_list if r0 not in rep.r0_audited]:
                reports[-1]["r0_not_audited"] = missed  # no probe ball of them fits
                lines.append(f"l={fld.ball_radius:g} r0_not_audited: {missed} "
                             f"(no probe ball of these radii fits the solved domain)")
            ok = ok and rep.mandatory_pass()
        out = os.path.join(run_dir, "verify")
        os.makedirs(out, exist_ok=True)
        _dump_json({"runs": reports, "mandatory_pass": ok},
                   os.path.join(out, "report.json"))
    for line in lines:
        print(line)
    return 0 if ok else 4


@_exit_5_if_locked
def cmd_embed(run_dir):
    if not os.path.isdir(run_dir):  # locking would create it
        print(f"embed: run directory {run_dir} not found", file=sys.stderr)
        return 2
    with _locked_dir(run_dir):  # the run is read under the lock its mesh is written under
        try:
            cfg, metric, (field,) = _load_run(run_dir, last_only=True)
            report = _read_json_object(run_dir, "verify/report.json", "run verify first")
            passed = report.get("mandatory_pass")
            if type(passed) is not bool:  # a verdict is JSON true or false, nothing else
                raise ValueError("verify/report.json: mandatory_pass must be true or false")
        except (FileNotFoundError, ValueError) as exc:
            print(f"embed: {exc}", file=sys.stderr)
            return 2
        # certified: embed reads the field's values and chart; the Hessian's arrays go now
        spent = np.broadcast_to(np.nan, field.u.grid.shape)
        field = replace(field, hessian=HessianField(field.hessian.chart, *[spent] * 9))
        if not passed:
            print("embed: mandatory estimates failed; refusing to embed", file=sys.stderr)
            return 2

        try:
            gbar, dev, emb, audit = _cli.build_embedding(
                field, cfg.schedule.l_obs,
                check_tol=cfg.audit["curvature_check_tol"],
            )
        except _cli.CurvatureCheckError as exc:
            print(f"embed audit: {exc} (audit.curvature_check_tol)", file=sys.stderr)
            return 4
        payload = asdict(audit)
        payload["curvature_defect"] = gbar.max_defect
        # the mesh and the audit are all that is written: the arrays of the
        # field, the rescaled metric and the embedding go as soon as the mesh
        # no longer needs them
        del field, gbar, dev
        mesh = _cli.export_graph(emb, rows=audit.audit_rows)
        del emb
        out = os.path.join(run_dir, "embed")
        os.makedirs(out, exist_ok=True)
        _cli.write_obj(mesh, os.path.join(out, "surface.obj"))
        _dump_json(payload, os.path.join(out, "audit.json"))

    failures = audit.failures(cfg.audit["pullback_tol"], cfg.audit["pinching_slack"])
    for message in failures:
        print(f"embed audit: {message}", file=sys.stderr)
    if failures:
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
    if rc not in (0, 6):
        return rc
    # an unmet exhaustion tol (6) still leaves a complete run to audit
    return cmd_verify(args.out) or cmd_embed(args.out) or rc


if __name__ == "__main__":
    sys.exit(main())
