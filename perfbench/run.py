"""Benchmark of the lorentz-embed solve -> verify -> embed pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths resolve from this
file).  Each CLI command runs in its own fresh interpreter on the working
tree (PYTHONPATH=src) with one BLAS thread, the way a user runs it.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  Everything
else printed before it (environment, ungated metrics, checks, self-time
tables) is for people.  README.md in this directory explains the
workloads and how to read a trace.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE_DIR = os.path.join(HERE, "reference")
CLOCK = time.CLOCK_MONOTONIC

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A run must end within 180 s; no command is started or left running past this.
DEADLINE_S = 170.0
# Set-up samples per run: every command process counts, import-only
# processes make up the rest.
MIN_SETUPS = 5
# Each timed final field must match the stored one to this (u is about 0.3;
# the discretisation error is about 1e-4, the Newton tolerance 1e-10).
REFERENCE_TOL = 1e-8
# The timed runs always use seed 0's config: at solver.tol 1e-10 the Newton
# iteration count is a round-off lottery in amp / eps (amp 0.9736 takes
# 11 iterations on the fine grid, 0.9738 takes 15), so timing perturbed
# inputs would measure the lottery.  Each other seed adds one untimed
# recheck solve with amp / eps scaled by 1 + rel * U(-1, 1).
RECHECK_REL = 0.05
# Written into every config, so the checks read the tolerances they enforce.
AUDIT = {"r0_list": [1.0], "c_cal": 1.0, "pullback_tol": 1e-2, "pinching_slack": 1e-6}
SOLVER = {"tol": 1e-10, "max_iter": 30}


def now():
    return time.clock_gettime(CLOCK)


def _perturbed(seed, centre):
    if seed == 0:
        return centre
    return centre * (1.0 + RECHECK_REL * random.Random(seed).uniform(-1.0, 1.0))


def pinched_config(seed, n_theta, nodes_per_unit):
    return {
        "schema_version": 1,
        "metric": {"family": "radial_pinched", "base": 1.0,
                   "amp": _perturbed(seed, 1.0)},
        "grid": {"n_theta": n_theta, "nodes_per_unit": nodes_per_unit},
        "exhaustion": {"radii": [2.0, 3.0, 4.0], "l_obs": 1.0, "tol": 1e-4},
        "solver": dict(SOLVER),
        "audit": dict(AUDIT),
        "output": {},
    }


def perturbed_config(seed):
    return {
        "schema_version": 1,
        "metric": {"family": "poincare_perturbed", "eps": _perturbed(seed, 0.3)},
        "grid": {"n_theta": 64, "n_r": 64},
        "exhaustion": {"radii": [0.8]},
        "solver": dict(SOLVER),
        "audit": dict(AUDIT),
        "output": {},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    config: Callable[[int], dict]
    radial: bool  # an exhaustion over several balls, with a convergence delta


WORKLOADS = {w.name: w for w in (
    Workload("pinched-all", ("solve", "verify", "embed"),
             lambda seed: pinched_config(seed, 64, 16), True),
    Workload("pinched-fine-solve", ("solve",),
             lambda seed: pinched_config(seed, 192, 48), True),
    Workload("perturbed-all", ("solve", "verify", "embed"), perturbed_config, False),
)}


# ---------------------------------------------------------------------------
# running commands


@dataclass
class Command:
    """One child process: a CLI command, or an import alone when args is empty."""

    args: list
    rc: int | None
    spawn: float
    exit: float
    timed_out: bool
    result: dict | None

    @property
    def name(self):
        return self.args[0] if self.args else "import"

    @property
    def ok(self):
        return self.rc == 0 and self.result is not None and self.result.get("rc") == 0

    @property
    def setup_s(self):
        return None if self.result is None else self.result["imported"] - self.spawn

    @property
    def cmd_s(self):
        if self.result is None or "main_end" not in self.result:
            return None
        return self.result["main_end"] - self.result["main_start"]

    @property
    def rss_mb(self):
        return None if self.result is None else self.result["maxrss_kb"] / 1024.0


def child_env():
    env = dict(os.environ)
    env.pop("LORENTZ_EMBED_THREADS", None)
    env.update(BLAS_ENV)
    paths = [os.path.join(ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_command(work, tag, args, deadline, trace=False):
    """Run perfbench/child.py for one CLI command; waits for the child to end."""
    result_path = os.path.join(work, f"{tag}.result.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), result_path]
    argv += (["--trace"] if trace else []) + ["--"] + list(args)
    timed_out = False
    with open(os.path.join(work, f"{tag}.log"), "w", encoding="utf-8") as log:
        spawn = now()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(deadline - spawn, 1.0))
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            if proc.poll() is None:  # timed out, or this process is being interrupted
                proc.kill()
                proc.wait()
        exit_ = now()
    result = None
    if os.path.exists(result_path):
        with open(result_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    return Command(list(args), proc.returncode, spawn, exit_, timed_out, result)


@dataclass
class Pipeline:
    out_dir: str
    commands: list

    @property
    def wall_s(self):
        return self.commands[-1].exit - self.commands[0].spawn

    @property
    def timed_out(self):
        return any(c.timed_out for c in self.commands)


def run_pipeline(work, tag, commands, config_path, deadline, trace=False):
    """Run the commands in order on one output directory, like a user would."""
    out_dir = os.path.join(work, tag)
    done = []
    for k, cmd in enumerate(commands):
        args = [cmd, "--out", out_dir]
        if cmd == "solve":
            args += ["--config", config_path]
        done.append(run_command(work, f"{tag}.{k}.{cmd}", args, deadline, trace))
        if done[-1].timed_out:
            break
    return Pipeline(out_dir, done)


# ---------------------------------------------------------------------------
# output checks


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def final_field(out_dir):
    """The last solved field as a (n1, n2) array, read from the run's artifacts."""
    import numpy as np

    meta = _read_json(os.path.join(out_dir, "fields", "meta.json"))
    k = len(meta["grids"]) - 1
    shape = (meta["grids"][k]["n1"], meta["grids"][k]["n2"])
    path = os.path.join(out_dir, "fields", f"u_{k:03d}.csv")
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=2).reshape(shape)


def reference_path(workload_name):
    return os.path.join(REFERENCE_DIR, f"{workload_name}.npz")


def reference_stride(shape):
    return tuple(max(1, n // 64) for n in shape)


def _last_delta(out_dir):
    with open(os.path.join(out_dir, "convergence.csv"), "r", encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().split("\n")[1:] if line]
    return float(rows[-1][1])


def check_outputs(pipeline, workload_name, commands, config, radial, reference):
    """Checks on one pipeline's artifacts: a list of (name, ok, detail), observed values."""
    import numpy as np

    out = pipeline.out_dir
    audit = config["audit"]
    checks, observed = [], {}

    def check(name, fn):
        try:
            ok, detail = fn()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append((name, bool(ok), detail))

    for c in pipeline.commands:
        checks.append((f"{c.name} exit 0", c.ok, f"rc={c.rc}"))
    ran = [c.name for c in pipeline.commands]
    checks += [(f"{name} exit 0", False, "not run") for name in commands[len(ran):]]

    if radial:
        def delta():
            d = _last_delta(out)
            observed["exhaustion_delta"] = d
            return d <= config["exhaustion"]["tol"], f"last delta {d:.3e}"
        check("exhaustion delta <= tol", delta)
    if "verify" in commands:
        def verify():
            ok = _read_json(os.path.join(out, "verify", "report.json"))["mandatory_pass"]
            return ok is True, f"mandatory_pass={ok}"
        check("verify mandatory_pass", verify)
    if "embed" in commands:
        def embed():
            a = _read_json(os.path.join(out, "embed", "audit.json"))
            observed["pullback_rel_err"] = a["pullback_rel_err"]
            margins = [a[f"pinching_margin_{k}"] for k in ("cone", "lower", "upper")]
            ok = (a["pullback_rel_err"] <= audit["pullback_tol"]
                  and min(margins) >= -audit["pinching_slack"])
            return ok, (f"pullback {a['pullback_rel_err']:.3e}, "
                        f"min pinching margin {min(margins):.3e}")
        check("embed audit within tolerances", embed)
    if reference is not None:
        def matches():
            u = final_field(out)
            stride = reference_stride(u.shape)
            sub = u[::stride[0], ::stride[1]]
            if sub.shape != reference.shape:
                return False, f"shape {sub.shape} != reference {reference.shape}"
            err = float(np.max(np.abs(sub - reference)))
            return err <= REFERENCE_TOL, f"max |u - u_ref| {err:.3e}"
        check(f"final field matches {os.path.basename(reference_path(workload_name))}",
              matches)
    return checks, observed


def load_reference(workload_name):
    import numpy as np

    path = reference_path(workload_name)
    if not os.path.exists(path):
        return None
    with np.load(path) as data:
        return data["u"]


# ---------------------------------------------------------------------------
# spans -> per-layer metrics


def _with_self_times(commands):
    """All spans of a traced pipeline, tagged by command, with their self time."""
    out = []
    for c in commands:
        spans = (c.result or {}).get("spans", [])
        child_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        for s, busy in zip(spans, child_time):
            out.append({**s, "command": c.name, "dur": s["end"] - s["start"],
                        "self": s["end"] - s["start"] - busy})
    return out


def layer_metrics(traced, plain):
    spans = _with_self_times(traced.commands)

    def named(name, command=None):
        return [s for s in spans if s["name"] == name
                and (command is None or s["command"] == command)]

    def incl(name):
        return sum(s["dur"] for s in named(name))

    def self_(name, command=None):
        return sum(s["self"] for s in named(name, command))

    by_key = {(s["command"], s["id"]): s for s in spans}

    def parent_name(span):
        parent = by_key.get((span["command"], span["parent"]))
        return parent and parent["name"]

    solves = named("solver.solve")
    warm = [s for s in solves if s["attrs"]["warm"]]
    # Only the constant start has Hess u = 0, i.e. an eig margin of exactly 1.
    accepted = [s for s in warm if s["attrs"]["eig_margin0"] != 1.0]
    # Per solve: one probe of the start (two when a warm start is offered),
    # then the line-search probes, then one audit Hessian in _finalize.
    hessians_in_solves = sum(1 for s in named("grid.covariant_hessian")
                             if parent_name(s) == "solver.solve")
    probes = hessians_in_solves - sum(2 + s["attrs"]["warm"] for s in solves)
    charts = named("grid.chart_arrays")
    grids = {(s["command"], s["attrs"]["grid"]) for s in charts}
    splus = named("solver.splu")
    distance_s = incl("geodesics.distance_field")
    targets = sum(s["attrs"]["targets"] for s in named("geodesics.distance_field"))
    covered = sum((c.result["main_end"] - c.spawn) for c in traced.commands
                  if c.result and "main_end" in c.result)
    artifact_bytes = sum(os.path.getsize(p) for p in glob.glob(
        os.path.join(traced.out_dir, "**", "*"), recursive=True) if os.path.isfile(p))
    m = {
        "metric.build_s": (incl("metric.build"), "s"),
        "metric.build_calls": (len(named("metric.build")), "count"),
        "grid.covariant_hessian_s": (incl("grid.covariant_hessian"), "s"),
        "grid.covariant_hessian_calls": (len(named("grid.covariant_hessian")), "count"),
        "grid.chart_arrays_s": (incl("grid.chart_arrays"), "s"),
        "grid.chart_arrays_calls": (len(charts), "count"),
        "grid.chart_arrays_per_grid": (len(charts) / len(grids) if grids else 0.0, "ratio"),
        "grid.field_csv_write_s": (incl("grid.field_csv_write"), "s"),
        "solver.solve_s": (incl("solver.solve"), "s"),
        "solver.self_s": (self_("solver.solve"), "s"),
        "solver.newton_iters": (sum(s["attrs"]["iterations"] for s in solves), "count"),
        "solver.factorizations": (len(splus), "count"),
        "solver.splu_s": (incl("solver.splu"), "s"),
        "solver.lu_fill_nnz": (max((s["attrs"]["nnz"] for s in splus), default=0), "count"),
        "solver.unknowns": (max((s["attrs"]["unknowns"] for s in solves), default=0), "count"),
        "solver.linesearch_probes": (probes if solves else 0, "count"),
        "exhaustion.run_s": (incl("exhaustion.run"), "s"),
        "exhaustion.self_s": (self_("exhaustion.run"), "s"),
        "exhaustion.steps": (sum(parent_name(s) == "exhaustion.run" for s in solves),
                             "count"),
        "exhaustion.sample_bicubic_s": (incl("exhaustion.sample_bicubic"), "s"),
        "exhaustion.warm_starts": (len(warm), "count"),
        "exhaustion.warm_start_accept_ratio": (len(accepted) / len(warm) if warm else 0.0,
                                               "ratio"),
        "exhaustion.residual0_warm": (max((s["attrs"]["residual0"] for s in warm),
                                          default=0.0), "1"),
        "geodesics.distance_field_s": (distance_s, "s"),
        "geodesics.distance_field_calls": (len(named("geodesics.distance_field")), "count"),
        "geodesics.targets_per_s": (targets / distance_s if distance_s > 0 else 0.0, "1/s"),
        "estimates.suite_s": (incl("estimates.suite"), "s"),
        "estimates.self_s": (self_("estimates.suite"), "s"),
        "estimates.build_cutoff_s": (incl("estimates.build_cutoff"), "s"),
        "estimates.check_second_order_s": (incl("estimates.check_second_order"), "s"),
        "estimates.max_neg_curvature_ball_s": (incl("estimates.max_neg_curvature_ball"), "s"),
        "estimates.records": (sum(s["attrs"]["records"] for s in named("estimates.suite")),
                              "count"),
        "embed.build_s": (incl("embed.build"), "s"),
        "embed.conformal_metric_s": (incl("embed.conformal_metric"), "s"),
        "embed.develop_s": (incl("embed.develop"), "s"),
        "embed.assemble_s": (incl("embed.assemble"), "s"),
        "embed.verify_s": (incl("embed.verify"), "s"),
        "embed.export_s": (incl("embed.export"), "s"),
        "cli.solve.self_s": (self_("cli.main", "solve"), "s"),
        "cli.verify.self_s": (self_("cli.main", "verify"), "s"),
        "cli.embed.self_s": (self_("cli.main", "embed"), "s"),
        "cli.artifact_bytes": (artifact_bytes, "bytes"),
        "trace.overhead_s": (traced.wall_s - plain.wall_s, "s"),
        "trace.uncovered_s": (traced.wall_s - covered, "s"),
    }
    return m, spans


def print_self_times(traced, spans):
    """Per command: self time by span name, then by layer, then setup and the rest."""
    print("self time by span (s), per command; a span's self time excludes its child spans")
    for c in traced.commands:
        mine = [s for s in spans if s["command"] == c.name]
        by_name, by_layer = {}, {}
        for s in mine:
            calls, total = by_name.get(s["name"], (0, 0.0))
            by_name[s["name"]] = (calls + 1, total + s["self"])
            layer = s["name"].split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + s["self"]
        main_s = c.cmd_s or 0.0
        print(f"  {c.name}: command {main_s:.4f} s")
        for name, (calls, total) in sorted(by_name.items(), key=lambda kv: -kv[1][1]):
            share = total / main_s if main_s else 0.0
            print(f"    {name:40s} {calls:6d} calls  {total:10.4f}  {share:6.1%}")
        print("    layers: " + ", ".join(
            f"{k} {v:.4f}" for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])))
        if c.result is not None:
            print(f"    setup (spawn + import)                   {c.setup_s:.4f}")
            print(f"    after main (exit, not covered by a span) "
                  f"{c.exit - c.result.get('main_end', c.exit):.4f}")
    gaps = traced.wall_s - sum(c.exit - c.spawn for c in traced.commands)
    print(f"  between commands (not covered by a span): {gaps:.4f} s")


# ---------------------------------------------------------------------------
# environment


def environment(seed, config):
    import numpy
    import scipy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, "r", encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_ENV,
        "seed": seed,
        "metric": config["metric"],
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# one benchmark run


@dataclass
class Ledger:
    """Attempted and failed commands and checks of one run."""

    attempted: int = 0
    failed: int = 0
    lines: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)

    def add(self, tag, checks, observed):
        for name, ok, detail in checks:
            self.attempted += 1
            self.failed += not ok
            self.lines.append(f"  {'ok  ' if ok else 'FAIL'} {tag}: {name} ({detail})")
        for k, v in observed.items():
            self.observed.setdefault(k, []).append(v)

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 1.0


def write_config(work, name, config):
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
    return path


def recheck(work, workload, seed, ledger, deadline):
    """Solve the seed's perturbed config once; its checks count, its time is not gated."""
    config = workload.config(seed)
    pipeline = run_pipeline(work, "recheck", ("solve",),
                            write_config(work, "recheck.json", config), deadline)
    checks, _ = check_outputs(pipeline, workload.name, ("solve",), config,
                              workload.radial, None)
    ledger.add("recheck", checks, {})
    try:
        iterations = _read_json(os.path.join(pipeline.out_dir, "fields",
                                             "meta.json"))["iterations"]
    except (OSError, ValueError, KeyError):
        iterations = None
    print(f"recheck: metric {json.dumps(config['metric'], sort_keys=True)}, solve "
          f"{pipeline.commands[0].cmd_s} s, Newton iterations {iterations} (not gated)")
    return pipeline.commands[0]


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure(workload, seed, seconds, trace, work=None):
    """Run one workload; returns the result for the last line, or None without timings."""
    start = now()
    deadline = start + DEADLINE_S
    work = work or os.path.join(WORK, f"{workload.name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = workload.config(0)
    config_path = write_config(work, "config.json", config)
    reference = load_reference(workload.name)
    ledger = Ledger()
    if reference is None:
        ledger.add("reference", [(reference_path(workload.name), False, "missing")], {})

    def checked(pipeline, commands):
        ledger.add(os.path.basename(pipeline.out_dir),
                   *check_outputs(pipeline, workload.name, commands, config,
                                  workload.radial, reference))
        return pipeline

    print(f"perfbench: workload {workload.name}, seed {seed}, trace {int(trace)}")
    print("env " + json.dumps(environment(seed, config), sort_keys=True))
    # Untimed: the first interpreter in a fresh checkout compiles bytecode.
    run_command(work, "warmup", [], deadline)

    if trace:
        plain = checked(run_pipeline(work, "plain", workload.commands, config_path,
                                     deadline), workload.commands)
        traced = checked(run_pipeline(work, "traced", workload.commands, config_path,
                                      deadline, trace=True), workload.commands)
        metrics, spans = layer_metrics(traced, plain)
        with open(os.path.join(work, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
        print_self_times(traced, spans)
        print(f"spans written to {os.path.relpath(os.path.join(work, 'spans.json'), ROOT)}")
    else:
        pipelines = []
        timed_start = now()
        while True:
            rep = checked(run_pipeline(work, f"rep{len(pipelines)}", workload.commands,
                                       config_path, deadline), workload.commands)
            pipelines.append(rep)
            if (rep.timed_out or now() - timed_start >= seconds
                    or deadline - now() < 2 * rep.wall_s):
                break
        commands = [c for p in pipelines for c in p.commands]
        spawned = [recheck(work, workload, seed, ledger, deadline)] if seed else []
        setups = [c.setup_s for c in commands + spawned if c.setup_s is not None]
        while len(setups) < MIN_SETUPS and now() < deadline - 10.0:
            probe = run_command(work, f"import{len(setups)}", [], deadline)
            if probe.setup_s is None:
                break
            setups.append(probe.setup_s)
        values = {
            "setup_s": (_median(setups), "s"),
            "pipeline_s": (_median(p.wall_s for p in pipelines), "s"),
            "peak_rss_mb": (max((c.rss_mb for c in commands if c.rss_mb is not None),
                                default=None), "MB"),
        }
        print("end-to-end (gated; medians over the run):")
        for name, (value, unit) in values.items():
            print(f"  {name:18s} {value} {unit}")
        print("end-to-end (per workload, not gated):")
        for cmd in workload.commands:
            times = [c.cmd_s for c in commands if c.name == cmd]
            print(f"  {cmd + '_s':18s} {_median(times)} s (median of {len(times)})")
        for name, vals in sorted(ledger.observed.items()):
            print(f"  {name:18s} {max(vals)} (worst of {len(vals)})")
        print(f"  {'error_rate':18s} {ledger.error_rate} "
              f"({ledger.failed} of {ledger.attempted} failed)")
        print(f"  samples: {len(pipelines)} pipelines, {len(setups)} set-ups")
        if any(v is None for v, _ in values.values()):
            print("perfbench: a command produced no timing; see the logs in "
                  f"{os.path.relpath(work, ROOT)}", file=sys.stderr)
            for line in ledger.lines:
                print(line, file=sys.stderr)
            return None
        metrics = values

    print("checks:")
    for line in ledger.lines:
        print(line)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lorentz_embed", "cli.py")):
        print(f"perfbench: no lorentz_embed sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
