import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lorentz_embed
import lorentz_embed.cli as cli
from lorentz_embed.grid import PolarGrid
from lorentz_embed.metric import make_poincare_perturbed
from lorentz_embed.solver import DirichletProblem, solve_dirichlet
from lorentz_embed.cli import (
    RunConfig,
    _locked_dir,
    cmd_embed,
    cmd_solve,
    cmd_verify,
    main,
    validate_config,
)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# (section, key) pairs of base_config; key None replaces the whole section
FIELDS = [(s, None) for s in ("metric", "grid", "exhaustion", "solver", "audit",
                              "output", "schema_version")] + [
    ("metric", "family"), ("metric", "curvature_scale"), ("metric", "base"),
    ("metric", "amp"), ("metric", "r_max"), ("metric", "eps"),
    ("metric", "domain_radius"), ("grid", "n_theta"), ("grid", "nodes_per_unit"),
    ("grid", "n_r"), ("exhaustion", "radii"), ("exhaustion", "l_obs"),
    ("exhaustion", "tol"), ("exhaustion", "boundary_rule"), ("solver", "tol"),
    ("solver", "max_iter"), ("audit", "r0_list"), ("audit", "c_cal"),
    ("audit", "holonomy_tol"),
]


def base_config(**overrides):
    cfg = {
        "schema_version": 1,
        "metric": {"family": "hyperbolic", "curvature_scale": 1.0},
        "grid": {"n_theta": 16, "nodes_per_unit": 10},
        "exhaustion": {"radii": [2.0, 3.0], "l_obs": 1.0, "tol": 1e-5},
        "solver": {"tol": 1e-10, "max_iter": 30},
        "audit": {"r0_list": [1.0]},
        "output": {},
    }
    for key, val in overrides.items():
        cfg[key] = val
    return cfg


def conformal_config(family="poincare_perturbed", eps=0.3, radii=(0.7,), **exhaustion):
    metric = {"family": family}
    if family == "poincare_perturbed":
        metric["eps"] = eps
    return base_config(metric=metric, grid={"n_theta": 16, "n_r": 24},
                       exhaustion={"radii": list(radii), **exhaustion})


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestValidation:
    def test_valid_config_accepted(self):
        cfg, errors = validate_config(base_config())
        assert not errors and cfg is not None

    def test_negative_tolerance_names_field(self):
        _, errors = validate_config(base_config(solver={"tol": -1.0}))
        assert any("solver.tol" in e for e in errors)

    def test_unknown_family_rejected(self):
        _, errors = validate_config(base_config(metric={"family": "saddle"}))
        assert any("metric.family" in e for e in errors)

    def test_odd_theta_rejected(self):
        _, errors = validate_config(base_config(grid={"n_theta": 15}))
        assert any("grid.n_theta" in e for e in errors)

    def test_radii_order_rejected(self):
        _, errors = validate_config(
            base_config(exhaustion={"radii": [3.0, 2.0], "l_obs": 1.0}))
        assert any("exhaustion.radii" in e for e in errors)

    def test_observation_radius_rejected(self):
        _, errors = validate_config(
            base_config(exhaustion={"radii": [2.0], "l_obs": 1.5}))
        assert any("exhaustion.l_obs" in e for e in errors)

    @pytest.mark.parametrize("section, value, field", [
        ("solver", {"tol": math.nan}, "solver.tol"),
        ("solver", {"tol": math.inf}, "solver.tol"),
        ("solver", {"max_iter": 30.5}, "solver.max_iter"),
        ("solver", {"max_iter": True}, "solver.max_iter"),
        ("metric", {"family": "radial_pinched", "base": "1"}, "metric.base"),
        ("metric", {"family": "radial_pinched", "amp": None}, "metric.amp"),
        ("metric", {"family": "radial_pinched", "r_max": 3.5}, "metric.r_max"),
        ("metric", {"family": "hyperbolic", "curvature_scale": [1.0]},
         "metric.curvature_scale"),
        ("metric", {"family": "poincare", "domain_radius": "0.9"}, "metric.domain_radius"),
        ("metric", ["hyperbolic"], "metric"),
        ("grid", {"n_theta": 16, "nodes_per_unit": None}, "grid.nodes_per_unit"),
        ("grid", {"n_theta": 16, "n_r": 6}, "grid.n_r"),
        ("grid", {"n_theta": 16.0}, "grid.n_theta"),
        ("exhaustion", {"radii": [2.0, "3"], "l_obs": 1.0}, "exhaustion.radii[1]"),
        ("exhaustion", {"radii": 2.0}, "exhaustion.radii"),
        ("exhaustion", {"radii": [2.0, 3.0], "l_obs": 0.0}, "exhaustion.l_obs"),
        ("exhaustion", {"radii": [2.0, 3.0], "l_obs": -1.0}, "exhaustion.l_obs"),
        ("audit", {"r0_list": []}, "audit.r0_list"),
        ("audit", {"c_cal": math.nan}, "audit.c_cal"),
        ("schema_version", True, "schema_version"),
        # keys the run would not read
        ("outputs", {}, "outputs"),
        ("grid", {"n_theta": 16, "n_rho": 32}, "grid.n_rho"),
        ("exhaustion", {"radii": [2.0, 3.0], "l_obs": 1.0, "tolerance": 1e-5},
         "exhaustion.tolerance"),
        ("solver", {"tol": 1e-10, "maxiter": 30}, "solver.maxiter"),
        ("audit", {"r0_list": [1.0], "r0": 1.0}, "audit.r0"),
        ("output", {"dir": "runs"}, "output.dir"),
        ("metric", {"family": "hyperbolic", "base": 1.0}, "metric.base"),
        ("metric", {"family": "radial_pinched", "curvature_scale": 1.0},
         "metric.curvature_scale"),
        ("metric", {"family": "poincare", "eps": 0.1}, "metric.eps"),
        ("metric", {"family": "poincare_perturbed", "r_max": 5.0}, "metric.r_max"),
        # l_obs = 1 covers 2 rings of the 7-node grid of the radius-3 ball
        ("grid", {"n_theta": 16, "n_r": 7}, "exhaustion.l_obs"),
        # the radius-2 ball would need 2e308 nodes, beyond the float range
        ("grid", {"n_theta": 16, "nodes_per_unit": 1e308}, "grid.nodes_per_unit"),
        # a chart disc is one ball on a fixed grid: no delta, no node density
        ("metric", {"family": "poincare"}, "exhaustion.tol"),
        ("metric", {"family": "poincare_perturbed"}, "grid.nodes_per_unit"),
    ])
    def test_malformed_field_named(self, section, value, field):
        cfg, errors = validate_config(base_config(**{section: value}))
        assert cfg is None
        assert any(e.startswith(f"{field}:") for e in errors), errors

    def test_conformal_observation_radius_inside_disc(self):
        cfg = conformal_config(radii=[0.7], l_obs=0.7)
        assert validate_config(cfg) == (
            None, ["exhaustion.l_obs: must be < radii[0] on a chart disc"])
        out, errors = validate_config(conformal_config(radii=[0.7]))
        assert not errors and out.exhaustion["l_obs"] == 0.75 * 0.7

    def test_smallest_radial_grid_accepted(self):
        # l_obs = 2 covers 4 rings (r = 0.23 .. 1.62) of the 7-node radius-3 grid
        cfg, errors = validate_config(base_config(
            grid={"n_theta": 16, "n_r": 7}, exhaustion={"radii": [3.0], "l_obs": 2.0}))
        assert not errors and cfg is not None

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(JSON, st.tuples(st.sampled_from(FIELDS), JSON)))
    def test_arbitrary_json_gives_config_or_errors(self, value):
        if isinstance(value, tuple):  # one field of a valid config replaced
            (section, key), new = value
            cfg = base_config()
            if key is None:
                cfg[section] = new
            else:
                cfg[section] = {**cfg[section], key: new}
        else:
            cfg = value
        out, errors = validate_config(cfg)
        if out is None:
            assert errors and all(isinstance(e, str) for e in errors)
        else:
            assert errors == [] and isinstance(out, RunConfig)


class TestPipeline:
    def test_full_pipeline_exit_codes(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = str(tmp_path / "run")
        assert cmd_solve(cfg_path, out, trace=True) == 0
        assert (Path(out) / "fields" / "u_000.csv").exists()
        assert (Path(out) / "trace_l000.csv").exists()
        assert (Path(out) / "convergence.csv").exists()
        assert cmd_verify(out) == 0
        report = json.loads((Path(out) / "verify" / "report.json").read_text())
        assert report["mandatory_pass"]
        assert cmd_embed(out) == 0
        assert (Path(out) / "embed" / "surface.obj").exists()
        audit = json.loads((Path(out) / "embed" / "audit.json").read_text())
        assert audit["pullback_rel_err"] <= 1e-2

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(solver={"tol": -1.0}))
        assert cmd_solve(cfg_path, str(tmp_path / "run")) == 2
        assert "solver.tol" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value, field", [
        ("solver", {"tol": math.nan}, "solver.tol"),
        ("metric", {"family": "radial_pinched", "base": "1"}, "metric.base"),
        ("exhaustion", {"radii": [2.0, 3.0], "l_obs": 1.0, "tolerance": 1e-5},
         "exhaustion.tolerance"),
        ("metric", {"family": "hyperbolic", "amp": 1.0}, "metric.amp"),
    ])
    def test_malformed_value_exit_2(self, tmp_path, capsys, section, value, field):
        cfg_path = write_config(tmp_path, base_config(**{section: value}))
        assert cmd_solve(cfg_path, str(tmp_path / "run")) == 2
        assert field in capsys.readouterr().err

    def test_embed_requires_verify(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = str(tmp_path / "run")
        assert cmd_solve(cfg_path, out) == 0
        assert cmd_embed(out) == 2

    def test_corrupt_field_exit_2(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = str(tmp_path / "run")
        assert cmd_solve(cfg_path, out) == 0
        target = Path(out) / "fields" / "u_000.csv"
        target.write_text("r,theta,value\n1,2,not_a_number\n")
        assert cmd_verify(out) == 2

    def test_unknown_grid_kind_exit_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        out = str(tmp_path / "run")
        assert cmd_solve(cfg_path, out) == 0
        meta_path = Path(out) / "fields" / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert meta["grids"][0]["kind"] == "polar"
        meta["grids"][0]["kind"] = "annulus"
        meta_path.write_text(json.dumps(meta))
        capsys.readouterr()
        assert cmd_verify(out) == 2
        assert "'annulus'" in capsys.readouterr().err
        assert cmd_embed(out) == 2
        assert "'annulus'" in capsys.readouterr().err

    def test_observation_radius_below_four_rings_exit_2(self, tmp_path, capsys):
        # only the rings at r = 0.23 and 0.69 of the radius-3 ball's 7 x 16
        # grid lie within l_obs = 1, too few to embed: solve refuses the
        # config before it solves or writes anything
        cfg = base_config(grid={"n_theta": 16, "n_r": 7},
                          exhaustion={"radii": [2.0, 3.0], "l_obs": 1.0, "tol": 1e-5})
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert cmd_solve(cfg_path, str(out)) == 2
        err = capsys.readouterr().err
        assert "exhaustion.l_obs" in err and "Traceback" not in err
        assert not out.exists()

    def test_embed_reads_every_field(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        out = str(tmp_path / "run")
        assert cmd_solve(cfg_path, out) == 0
        assert cmd_verify(out) == 0
        target = Path(out) / "fields" / "u_000.csv"
        text = target.read_text()
        target.write_text(text[: text.rindex("\n", 0, -1) + 1])  # drop one row
        capsys.readouterr()
        assert cmd_embed(out) == 2
        assert "u_000.csv" in capsys.readouterr().err
        target.unlink()
        assert cmd_embed(out) == 2
        assert "u_000.csv missing" in capsys.readouterr().err

    def test_missing_artifacts_exit_2(self, tmp_path):
        assert cmd_verify(str(tmp_path / "nowhere")) == 2

    def test_nonconvergence_exit_3_with_trace(self, tmp_path, capsys):
        cfg = base_config(
            metric={"family": "radial_pinched", "base": 1.0, "amp": 1.0},
            solver={"tol": 1e-10, "max_iter": 1},
            exhaustion={"radii": [3.0], "l_obs": 1.0},
        )
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / "run")
        assert cmd_solve(cfg_path, out) == 3
        assert "did not converge" in capsys.readouterr().err
        assert (Path(out) / "trace_failed.csv").exists()

    def test_default_observation_radius_used_by_solve(self, tmp_path, monkeypatch):
        seen = []
        real = cli.run_exhaustion

        def spy(schedule, *args, **kwargs):
            seen.append(schedule.l_obs)
            return real(schedule, *args, **kwargs)

        monkeypatch.setattr(cli, "run_exhaustion", spy)
        cfg = base_config(exhaustion={"radii": [1.5, 2.5]})
        out, errors = validate_config(cfg)
        assert not errors and out.exhaustion["l_obs"] == 0.5
        assert cmd_solve(write_config(tmp_path, cfg), str(tmp_path / "run")) == 0
        assert seen == [0.5]

    def test_default_observation_radius_not_positive_exit_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(exhaustion={"radii": [1.0, 2.0]}))
        out = tmp_path / "run"
        assert cmd_solve(cfg_path, str(out)) == 2
        err = capsys.readouterr().err
        assert "exhaustion.l_obs: defaults to radii[0] - 1 = 0" in err
        assert not out.exists()

    def test_conformal_midpoint_boundary_rule(self, tmp_path):
        # c1 < c2 on the perturbed chart, so the midpoint datum differs
        cfg_path = write_config(tmp_path, conformal_config(boundary_rule="midpoint"))
        out = tmp_path / "run"
        assert cmd_solve(cfg_path, str(out)) == 0
        bounds = make_poincare_perturbed(1.0, 0.9, 0.3).bounds
        standard = 1.0 / (2.0 * bounds.c2_of_radius(0.7))
        midpoint = 0.5 * (standard + 1.0 / (2.0 * bounds.c1))
        assert midpoint > standard + 1e-3
        u = np.loadtxt(out / "fields" / "u_000.csv", delimiter=",", skiprows=1,
                       usecols=2).reshape(24, 16)
        assert np.max(np.abs(u[-1] - midpoint)) <= 1e-13  # Newton rounding on the ring
        meta = json.loads((out / "fields" / "meta.json").read_text())
        assert meta["boundary_values"] == [midpoint]

    def test_conformal_nonconvergence_exit_3_with_trace(self, tmp_path, capsys):
        cfg = conformal_config()
        cfg["solver"]["max_iter"] = 1
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, cfg), str(out)) == 3
        assert "did not converge" in capsys.readouterr().err
        assert (out / "trace_failed.csv").exists()
        assert not (out / "trace_l000.csv").exists()

    def test_conformal_solve_routed_through_exhaustion(self, tmp_path):
        # the one-ball schedule gives the field of a direct disc solve
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, conformal_config()), str(out)) == 0
        u = np.loadtxt(out / "fields" / "u_000.csv", delimiter=",", skiprows=1,
                       usecols=2).reshape(24, 16)
        direct = solve_dirichlet(DirichletProblem(
            make_poincare_perturbed(1.0, 0.9, 0.3), PolarGrid(24, 16, 0.7, kind="disc")))
        assert np.array_equal(u, direct.u.values)

    def test_main_subcommands(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = str(tmp_path / "run")
        assert main(["all", "--config", cfg_path, "--out", out]) == 0

    def test_poincare_single_ball(self, tmp_path):
        cfg = base_config(
            metric={"family": "poincare", "curvature_scale": 1.0,
                    "domain_radius": 0.9},
            grid={"n_theta": 16, "n_r": 24},
            exhaustion={"radii": [0.7]},
        )
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / "run")
        assert cmd_solve(cfg_path, out) == 0
        u = np.loadtxt(Path(out) / "fields" / "u_000.csv", delimiter=",",
                       skiprows=1, usecols=2)
        assert np.max(np.abs(u - 0.5)) <= 1e-12
        assert cmd_verify(out) == 0


class TestDeterminism:
    def test_bit_identical_artifacts(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            assert cmd_solve(cfg_path, out, trace=True) == 0
            assert cmd_verify(out) == 0
            assert cmd_embed(out) == 0
        files1 = sorted(
            p.relative_to(out1) for p in Path(out1).rglob("*") if p.is_file())
        files2 = sorted(
            p.relative_to(out2) for p in Path(out2).rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            if rel.name == "runmeta.json":
                continue  # isolated wall-clock metadata
            b1 = (Path(out1) / rel).read_bytes()
            b2 = (Path(out2) / rel).read_bytes()
            assert b1 == b2, f"artifact {rel} differs between identical runs"


class TestStartup:
    def test_commands_after_solve_load_no_scipy(self, tmp_path):
        # only the Newton step imports scipy: importing the CLI, and verify
        # and embed of a stored radial run, load numpy alone
        cfg = base_config(
            metric={"family": "radial_pinched", "base": 1.0, "amp": 1.0},
            grid={"n_theta": 16, "nodes_per_unit": 8},
            exhaustion={"radii": [2.0, 3.0], "l_obs": 1.0, "tol": 1e-5})
        out = str(tmp_path / "run")
        assert cmd_solve(write_config(tmp_path, cfg), out) == 0
        script = (
            "import sys\n"
            "import lorentz_embed.cli as cli\n"
            "def scipy_modules():\n"
            "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not scipy_modules(), ('import', scipy_modules())\n"
            f"assert cli.cmd_verify({out!r}) == 0\n"
            f"assert cli.cmd_embed({out!r}) == 0\n"
            "assert not scipy_modules(), ('verify, embed', scipy_modules())\n"
        )
        src = str(Path(lorentz_embed.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr


class TestLocking:
    def test_concurrent_writers_blocked(self, tmp_path):
        out = str(tmp_path / "run")
        with _locked_dir(out):
            with pytest.raises(RuntimeError, match="locked"):
                with _locked_dir(out):
                    pass
        # released after exit
        with _locked_dir(out):
            pass

    @staticmethod
    def _exited_pid():
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        return child.pid

    def test_stale_lock_reclaimed(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        pid = self._exited_pid()
        (out / ".lock").write_text(str(pid))
        with _locked_dir(str(out)):
            assert (out / ".lock").read_text() == str(os.getpid())
        assert not (out / ".lock").exists()
        err = capsys.readouterr().err
        assert "stale lock" in err and str(pid) in err

    @pytest.mark.parametrize("command", ["solve", "verify", "embed"])
    def test_live_lock_exit_5(self, tmp_path, capsys, command):
        # each command refuses a directory a live run holds, in one line
        # naming the lock file, and writes nothing
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        out.mkdir()
        if command != "solve":
            assert cmd_solve(cfg_path, str(out)) == 0
        if command == "embed":
            assert cmd_verify(str(out)) == 0
        before = sorted(out.rglob("*"))
        lock = out / ".lock"
        lock.write_text(str(os.getpid()))
        capsys.readouterr()
        run = {"solve": lambda: cmd_solve(cfg_path, str(out)),
               "verify": lambda: cmd_verify(str(out)),
               "embed": lambda: cmd_embed(str(out))}[command]
        assert run() == 5
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: ") and err.count("\n") == 1
        assert str(lock) in err and "Traceback" not in err
        assert lock.read_text() == str(os.getpid())
        lock.unlink()
        assert sorted(out.rglob("*")) == before

    @pytest.mark.parametrize("content", ["live", "", "not a pid", "0", "group"])
    def test_unproven_lock_blocks(self, tmp_path, capsys, content):
        # a live writer, one that has not written its PID yet, or a process
        # group id (no process group has the id of an exited child)
        out = tmp_path / "run"
        out.mkdir()
        if content == "live":
            content = str(os.getpid())
        elif content == "group":
            content = str(-self._exited_pid())
        (out / ".lock").write_text(content)
        with pytest.raises(RuntimeError, match="locked"):
            with _locked_dir(str(out)):
                pass
        assert (out / ".lock").read_text() == content
        assert "stale" not in capsys.readouterr().err
