import ast
import dataclasses
import inspect
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lorentz_embed
import lorentz_embed.cli as cli
import lorentz_embed.metric as metric_module
import lorentz_embed.solver as solver
from lorentz_embed.grid import PolarGrid, ScalarField
from lorentz_embed.metric import ConformalDiscMetric
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

    def test_each_family_is_a_metric_factory(self):
        # build_metric is one lookup: each family maps to a public callable of
        # metric (a make_* factory or the chart class) whose leading parameters
        # take the family's metric keys, in order, and whose others have defaults
        for family, (_, keys, make) in cli._FAMILIES.items():
            assert not make.__name__.startswith("_"), family
            assert getattr(metric_module, make.__name__) is make, family
            params = list(inspect.signature(make).parameters.values())
            assert len(params) >= len(keys), family
            assert all(p.default is not p.empty for p in params[len(keys):]), family
        assert cli._FAMILIES["poincare"][2] is cli._FAMILIES["poincare_perturbed"][2]

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

    def test_limits_admit_their_bounds(self):
        # r_max 100 (1e5 RK4 samples) and a grid of 2^18 nodes are the largest
        # a run may ask for; one step past either is refused
        pinched = {"family": "radial_pinched", "base": 1.0, "amp": 1.0}
        for r_max, grid, ok in ((100.0, {"n_theta": 64, "n_r": 4096}, True),
                                (100.5, {"n_theta": 64, "n_r": 4096}, False),
                                (100.0, {"n_theta": 66, "n_r": 4096}, False)):
            cfg, errors = validate_config(base_config(metric={**pinched, "r_max": r_max},
                                                      grid=grid))
            assert (cfg is not None) == ok, errors

    def test_warp_and_block_limits_admit_their_bounds(self):
        # a hyperbolic run reads its warp out to max(radii) + max(r0_list) +
        # 1.5, which sqrt(curvature_scale) may take to 350; a block Newton
        # step keeps (n_r - 1) n_theta^2 doubles, at most 2^24.  Validated
        # only: n_theta 32768 on 8 rings (2^18 nodes, under the node cap)
        # would need about 180 GB
        for scale, radius, ok in ((1.0, 347.0, True), (1.0, 348.0, False),
                                  (4.0, 172.0, True), (4.0, 173.0, False)):
            cfg, errors = validate_config(base_config(
                metric={"family": "hyperbolic", "curvature_scale": scale},
                grid={"n_theta": 16, "n_r": 16},
                exhaustion={"radii": [radius], "l_obs": 100.0}))
            assert (cfg is not None) == ok, errors
            assert ok or [e.split(":")[0] for e in errors] == ["exhaustion.radii"]
        for n_theta, n_r, ok in ((512, 65, True), (512, 66, False), (32768, 8, False)):
            cfg, errors = validate_config({**conformal_config(),
                                           "grid": {"n_theta": n_theta, "n_r": n_r}})
            assert (cfg is not None) == ok, errors
            assert ok or [e.split(":")[0] for e in errors] == ["grid.n_theta"]

    def test_conformal_observation_radius_inside_disc(self):
        cfg = conformal_config(radii=[0.7], l_obs=0.7)
        assert validate_config(cfg) == (
            None, ["exhaustion.l_obs: must be < radii[0] on a chart disc"])
        out, errors = validate_config(conformal_config(radii=[0.7]))
        assert not errors and out.exhaustion["l_obs"] == 0.75 * 0.7

    @pytest.mark.parametrize("radii, error", [
        ([0.5, 0.7], "exhaustion.radii: conformal charts support a single solve radius"),
        ([0.95], "exhaustion.radii: must not exceed metric.domain_radius"),
    ], ids=["two-radii", "beyond-domain-radius"])
    def test_chart_disc_radius_rules(self, radii, error):
        assert validate_config(conformal_config(radii=radii)) == (None, [error])

    def test_chart_disc_rings_default_to_64(self):
        cfg = conformal_config()
        del cfg["grid"]["n_r"]
        out, errors = validate_config(cfg)
        assert not errors and out.grid["n_r"] == 64
        assert [(g.n1, g.n2, g.kind) for g in out.schedule.grids] == [(64, 16, "disc")]

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

    def test_holonomy_tol_is_not_a_key(self, tmp_path, capsys):
        # audit.json reports the holonomy defects; no audit key gates them
        cfg_path = write_config(tmp_path, base_config(
            audit={"r0_list": [1.0], "holonomy_tol": 1e-5}))
        assert cmd_solve(cfg_path, str(tmp_path / "run")) == 2
        assert "audit.holonomy_tol" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, expect", [
        ({"audit": {"r0_list": [1e9]}}, "metric.r_max: defaults to "),
        ({"metric": {"r_max": 1e9}}, "metric.r_max: must be "),
        ({"metric": {"r_max": 600.0}}, "metric.r_max: must be "),
        ({"grid": {"n_theta": 64, "nodes_per_unit": 1e6}}, "grid: the grid of radius 2 has "),
    ], ids=["derived-r-max", "r-max-1e9", "r-max-600", "nodes-per-unit-1e6"])
    def test_config_beyond_what_is_built_exit_2(self, tmp_path, capsys, edit, expect):
        # a derived or given r_max of 1e9 ended in a MemoryError traceback
        # (7.28 TiB of RK4 samples), r_max 600 in numpy overflow warnings and
        # exit 0 (f overflows past sqrt(base + amp) r = 709), and 1e6 nodes
        # per unit wrote CSV until the disk was full; validation now refuses
        # each before anything is built
        cfg = base_config(metric={"family": "radial_pinched", "base": 1.0, "amp": 1.0})
        for section, values in edit.items():
            cfg[section] = {**cfg[section], **values}
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, cfg), str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {expect}") and err.count("\n") == 1, err
        assert not out.exists()

    def test_hyperbolic_warp_beyond_float_exit_2(self, tmp_path, capsys):
        # sinh(r) read out to 400 + 1 + 1.5 overflows: about a dozen numpy
        # RuntimeWarnings, then a block step that was not finite and exit 3;
        # validation now refuses the radii before anything is built
        cfg = base_config(grid={"n_theta": 16, "n_r": 16},
                          exhaustion={"radii": [400.0], "l_obs": 300.0})
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cmd_solve(write_config(tmp_path, cfg), str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: exhaustion.radii: ") and err.count("\n") == 1, err
        assert not out.exists()

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

    @pytest.mark.parametrize("name, corrupt, commands", [
        ("verify/report.json", "{not json", ("embed",)),
        ("verify/report.json", [1], ("embed",)),
        ("fields/meta.json", lambda meta: meta.pop("boundary_values"), ("verify", "embed")),
        ("fields/meta.json", lambda meta: meta["grids"][0].pop("n2"), ("verify", "embed")),
    ], ids=["report-not-json", "report-a-list", "meta-no-boundary-values", "grid-no-n2"])
    def test_corrupt_artifact_exit_2(self, tmp_path, capsys, name, corrupt, commands):
        # each command exits 2 with one line naming the file, not a traceback
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, base_config()), str(out)) == 0
        assert cmd_verify(str(out)) == 0
        path = out / name
        if callable(corrupt):
            data = json.loads(path.read_text())
            corrupt(data)
            corrupt = data
        path.write_text(corrupt if isinstance(corrupt, str) else json.dumps(corrupt))
        for command in commands:
            capsys.readouterr()
            assert {"verify": cmd_verify, "embed": cmd_embed}[command](str(out)) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"{command}: {name}") and err.count("\n") == 1, err

    @pytest.mark.parametrize("key, value", [
        ("radii", "3.0"), ("boundary_values", None), ("iterations", "4"),
        ("residual", "1e-11"), ("floor_limited", "false"),
    ], ids=["string-radius", "null-boundary-value", "string-iterations", "string-residual",
            "string-floor-limited"])
    def test_corrupt_meta_value_exit_2(self, tmp_path, capsys, key, value):
        # a string radius or a null boundary value ended in a TypeError
        # traceback (exit 1), and a string iteration count, residual or
        # floor_limited was read or ignored; each now exits 2 with one line
        # naming the entry, or the list config.json gives where it has one
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, base_config()), str(out)) == 0
        assert cmd_verify(str(out)) == 0
        path = out / "fields" / "meta.json"
        meta = json.loads(path.read_text())
        meta[key][0] = value
        path.write_text(json.dumps(meta))
        derived = key in ("radii", "boundary_values")
        for name, command in (("verify", cmd_verify), ("embed", cmd_embed)):
            capsys.readouterr()
            assert command(str(out)) == 2
            err = capsys.readouterr().err
            if derived:
                assert err.startswith(f"{name}: fields/meta.json: {key} [{value!r}, "), err
                assert " is not config.json's [" in err, err
            else:
                assert err.startswith(f"{name}: fields/meta.json: {key}[0]: must be "), err
            assert err.count("\n") == 1, err

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

    def test_config_edited_after_solve_exit_2(self, tmp_path, capsys):
        # verify and embed take each ball's grid and boundary value from
        # config.json: an amp edited after solve changes the boundary values
        # fields/meta.json records, so neither command reads the run (verify
        # exited 0 on it), and neither writes anything
        cfg = base_config(metric={"family": "radial_pinched", "base": 1.0, "amp": 1.0},
                          exhaustion={"radii": [2.0, 3.0], "l_obs": 1.0, "tol": 1e-3})
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, cfg), str(out)) == 0
        assert cmd_verify(str(out)) == 0
        cfg["metric"]["amp"] = 3.0
        (out / "config.json").write_text(json.dumps(cfg))
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        for name, command in (("verify", cmd_verify), ("embed", cmd_embed)):
            capsys.readouterr()
            assert command(str(out)) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"{name}: fields/meta.json: boundary_values ["), err
            assert " is not config.json's [" in err and err.count("\n") == 1, err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_meta_with_more_balls_than_config_exit_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, base_config()), str(out)) == 0
        path = out / "fields" / "meta.json"
        meta = json.loads(path.read_text())
        for key in cli._META_LISTS:  # a third ball, the second again
            meta[key].append(meta[key][-1])
        path.write_text(json.dumps(meta))
        (out / "fields" / "u_002.csv").write_bytes((out / "fields" / "u_001.csv").read_bytes())
        for name, command in (("verify", cmd_verify), ("embed", cmd_embed)):
            capsys.readouterr()
            assert command(str(out)) == 2
            assert capsys.readouterr().err == (f"{name}: fields/meta.json: radii [2.0, 3.0, 3.0] "
                                               f"is not config.json's [2.0, 3.0]\n")

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

    def test_embed_drops_the_audit_hessian(self, tmp_path, monkeypatch):
        # build_embedding reads the certified field's values and chart; the
        # nine audit Hessian arrays of a non-radial field are gone before it
        out = str(tmp_path / "run")
        assert cmd_solve(write_config(tmp_path, conformal_config()), out) == 0
        assert cmd_verify(out) == 0
        seen, real = [], cli.build_embedding
        monkeypatch.setattr(cli, "build_embedding",
                            lambda field, *a, **k: seen.append(field) or real(field, *a, **k))
        cmd_embed(out)
        (field,) = seen
        assert field.hessian.chart.grid is field.u.grid
        for name in ("h11", "h12", "h22", "du1", "du2", "grad_sq", "det_ratio",
                     "eig_min", "eig_max"):
            assert getattr(field.hessian, name).strides == (0, 0)

    def test_embed_refuses_an_inadmissible_field_exit_2(self, tmp_path, capsys):
        # the certificate still runs: a stored field with Hess u + g
        # indefinite is refused before anything is embedded
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, base_config()), str(out)) == 0
        assert cmd_verify(str(out)) == 0
        fields = cli._load_run(str(out))[2]
        grid = fields[-1].u.grid
        r, _ = grid.mesh()
        cli.write_field_csv(ScalarField(grid, 4.0 - r ** 2),
                            out / "fields" / f"u_{len(fields) - 1:03d}.csv")
        capsys.readouterr()
        assert cmd_embed(str(out)) == 2
        assert "not admissible" in capsys.readouterr().err
        assert not (out / "embed").exists()

    @pytest.mark.parametrize("verdict", ["yes", 1, None, "missing", False])
    def test_embed_reads_only_a_boolean_verdict(self, tmp_path, capsys, verdict):
        # a truthy "yes" or 1 embedded with exit 0; only JSON true passes,
        # false is refused as before, and anything else is a corrupt report
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, base_config()), str(out)) == 0
        assert cmd_verify(str(out)) == 0
        path = out / "verify" / "report.json"
        report = json.loads(path.read_text())
        if verdict == "missing":
            del report["mandatory_pass"]
        else:
            report["mandatory_pass"] = verdict
        path.write_text(json.dumps(report))
        capsys.readouterr()
        assert cmd_embed(str(out)) == 2
        err = capsys.readouterr().err
        if verdict is False:
            assert "mandatory estimates failed" in err
        else:
            assert err == "embed: verify/report.json: mandatory_pass must be true or false\n"
        assert not (out / "embed").exists()

    @pytest.mark.parametrize("case", ["dropped_row", "extra_column", "other_grid", "respelled",
                                      "comment_line", "crlf"])
    def test_field_csv_is_read_only_as_written(self, tmp_path, capsys, case):
        # the reader took the value column alone, so a respelled value, a
        # "#" line or CRLF line endings verified and embedded with exit 0; a
        # dropped row, a fourth column and another grid's coordinates were
        # refused already.  Each now exits 2 with one line naming the file.
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, base_config()), str(out)) == 0
        assert cmd_verify(str(out)) == 0
        path = out / "fields" / "u_000.csv"
        grid = cli._load_run(str(out))[2][0].u.grid
        values = cli._read_field_csv(str(path), grid)
        n = grid.n1 * grid.n2
        if case == "other_grid":
            cli.write_field_csv(ScalarField(dataclasses.replace(grid, radius=2.5), values), path)
        elif case == "respelled":
            values[0, 5] = 0.1
            cli.write_field_csv(ScalarField(grid, values), path)
        text = path.read_text()
        text, expect = {
            "dropped_row": (text[:text.rindex("\n", 0, -1) + 1],
                            f"expected {n} rows, got {n - 1}"),
            "extra_column": (text.replace("\n", ",0\n").replace(",0\n", "\n", 1),
                             "expected 3 columns, got 4 in row 1"),
            "other_grid": (text, "row 1 has coordinates ("),
            "respelled": (text.replace(",0.10000000000000001\n", ",0.1\n"),
                          "row 6 has value '0.1', not 0.10000000000000001"),
            "comment_line": (text + "# edited\n", f"expected {n} rows, got {n + 1}"),
            "crlf": (text.replace("\n", "\r\n"), "header 'r,theta,value\\r\\n'"),
        }[case]
        path.write_bytes(text.encode())
        for name, command in (("verify", cmd_verify), ("embed", cmd_embed)):
            capsys.readouterr()
            assert command(str(out)) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"{name}: u_000.csv: {expect}") and err.count("\n") == 1, err

    def test_field_csv_round_trips_exactly(self, tmp_path):
        # the reader accepts what the writer writes, bit for bit: a ring
        # constant along theta, a general polar field and a disc with +-0
        rng = np.random.default_rng(5)
        ring_constant = np.repeat(rng.standard_normal((7, 1)), 8, axis=1)
        ring_constant[0] = -0.0
        disc = rng.standard_normal((64, 64))
        disc[0, ::2], disc[0, 1::2] = -0.0, 0.0
        for grid, values in ((PolarGrid(7, 8, 1.5), ring_constant),
                             (PolarGrid(24, 32, 2.0), rng.standard_normal((24, 32))),
                             (PolarGrid(64, 64, 0.8, kind="disc"), disc)):
            path = tmp_path / "u.csv"
            cli.write_field_csv(ScalarField(grid, values), path)
            back = cli._read_field_csv(str(path), grid)
            assert back.tobytes() == values.tobytes() and back.flags.c_contiguous

    def test_resolve_removes_what_the_earlier_run_wrote(self, tmp_path, capsys):
        # a re-solve left the old report, mesh, traces and fields past its
        # schedule, so embed exited 0 on fields that no verify audited
        pinched = {"family": "radial_pinched", "base": 1.0, "amp": 1.0}
        grid = {"n_theta": 16, "nodes_per_unit": 8}
        out = tmp_path / "run"
        first = base_config(metric=pinched, grid=grid,
                            exhaustion={"radii": [2.0, 3.0], "l_obs": 1.0, "tol": 1e-3})
        assert cmd_solve(write_config(tmp_path, first), str(out), trace=True) == 0
        assert cmd_verify(str(out)) == 0
        assert cmd_embed(str(out)) == 0
        (out / "notes.txt").write_text("kept\n")
        (out / "fields" / "u_extra.txt").write_text("kept\n")
        second = base_config(metric={**pinched, "amp": 0.5}, grid=grid,
                             exhaustion={"radii": [2.0], "l_obs": 1.0})
        assert cmd_solve(write_config(tmp_path, second, "second.json"), str(out)) == 0
        assert sorted(p.name for p in (out / "fields").iterdir()) == [
            "meta.json", "u_000.csv", "u_extra.txt"]
        assert sorted(p.name for p in out.iterdir()) == [
            ".lock", "config.json", "convergence.csv", "embed", "fields", "notes.txt",
            "runmeta.json", "verify"]
        assert list((out / "verify").iterdir()) == list((out / "embed").iterdir()) == []
        capsys.readouterr()
        assert cmd_embed(str(out)) == 2
        assert "run verify first" in capsys.readouterr().err

    def test_verify_prints_passes_by_rule(self, tmp_path, capsys):
        # a record that passes because its hypothesis is not met said
        # "pass (margin -1.1e-01)", or "pass (margin inf)" for the second-order
        # record beside it; report.json keeps their margins (an infinite one
        # as null: the report is strict JSON)
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, conformal_config()), str(out)) == 0
        capsys.readouterr()
        assert cmd_verify(str(out)) == 0
        lines = capsys.readouterr().out.splitlines()
        by_rule = [line for line in lines if ": pass by rule" in line]
        assert by_rule and all(line.endswith(" pass by rule (hypothesis not met)")
                               for line in by_rule)
        assert all("(margin " in line for line in lines if line not in by_rule)
        assert not any("margin inf" in line for line in lines)
        (run,) = json.loads((out / "verify" / "report.json").read_text())["runs"]
        marked = [rec for rec in run["records"] if rec.get("extra", {}).get("by_rule")]
        not_met = [rec for rec in run["records"]
                   if rec.get("extra", {}).get("hypothesis_met") is False]
        assert marked == not_met and len(marked) == len(by_rule)
        assert {rec["id"].split("_r0_")[0] for rec in marked} == {"cutoff_hypothesis",
                                                                  "second_order"}
        assert all(rec["margin"] is None or rec["margin"] < 0 for rec in marked)
        assert any(rec["margin"] is None for rec in marked)

    def test_tiny_chart_disc_ball_verifies(self, tmp_path, capsys):
        # r0 = 0.001 about node (48, 22): no point of the old 160^2 chart-disc
        # sample lay near enough, and verify ended in a ValueError traceback
        cfg = base_config(metric={"family": "poincare_perturbed", "eps": 0.3},
                          grid={"n_theta": 34, "n_r": 64}, exhaustion={"radii": [0.8]},
                          audit={"r0_list": [0.001]})
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, cfg), str(out)) == 0
        capsys.readouterr()
        assert cmd_verify(str(out)) == 0
        assert capsys.readouterr().err == ""
        (run,) = json.loads((out / "verify" / "report.json").read_text())["runs"]
        lower = [rec for rec in run["records"] if rec["id"].startswith("lower_bound_")]
        assert "lower_bound_r0_0.001_node_48_22" in [rec["id"] for rec in lower]
        # each ball's bound on max -K is at least -K at its centre
        grid, metric = PolarGrid(64, 34, 0.8, kind="disc"), ConformalDiscMetric(1.0, 0.9, 0.3)
        for rec in lower:
            i, j = rec["extra"]["node"]
            assert rec["pass"]
            assert rec["extra"]["ball_max_neg_K"] >= -metric.curvature_at(grid.q1[i], grid.q2[j])

    def test_missing_artifacts_exit_2(self, tmp_path, capsys):
        # a missing run directory is reported in one line; taking its lock
        # does not create it
        missing = tmp_path / "nowhere"
        for command, run in (("verify", cmd_verify), ("embed", cmd_embed)):
            assert run(str(missing)) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"{command}: ") and err.count("\n") == 1
            assert not missing.exists()

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

    def test_failed_newton_step_exit_3_with_trace(self, tmp_path, capsys, monkeypatch):
        # a block step that fails its backward-error check stops Newton
        monkeypatch.setattr(solver, "_BLOCK_BACKWARD_TOL", -1.0)
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, conformal_config()), str(out)) == 3
        assert "backward error" in capsys.readouterr().err
        assert (out / "trace_failed.csv").exists()

    def test_failed_curvature_check_exit_4(self, tmp_path, capsys):
        # on a 32 x 32 grid the eps 0.3 chart disc's rescaled metric misses
        # K = -1 by 1.3e-2, above the default curvature_check_tol of 1e-2
        cfg = conformal_config(radii=(0.8,))
        cfg["grid"] = {"n_theta": 32, "n_r": 32}
        out = str(tmp_path / "run")
        assert main(["all", "--config", write_config(tmp_path, cfg), "--out", out]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("embed audit: rescaled metric is not hyperbolic")
        assert cmd_embed(out) == 4
        assert capsys.readouterr().err == err

    def test_failed_pullback_gate_exit_4(self, tmp_path, capsys):
        # the mesh and the audit are written; the gate's failure is one line
        cfg = base_config(audit={"r0_list": [1.0], "pullback_tol": 1e-12})
        out = tmp_path / "run"
        assert main(["all", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 4
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("embed audit: pullback error ") and line.endswith(" exceeds 1e-12")
        audit = json.loads((out / "embed" / "audit.json").read_text())
        assert audit["pullback_rel_err"] > 1e-12
        assert (out / "embed" / "surface.obj").stat().st_size > 0

    def test_nan_curvature_fails_embed_exit_4(self, tmp_path, capsys):
        # on this 16 x 16 grid of the radius-30 ball the rescaled metric's
        # curvature, formed in Cartesian components, is NaN; embed passed its
        # audits on it (exit 0 after a flood of numpy warnings) and wrote bare
        # NaN into audit.json
        cfg = base_config(grid={"n_theta": 16, "n_r": 16},
                          exhaustion={"radii": [30.0], "l_obs": 24.0})
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cmd_solve(write_config(tmp_path, cfg), str(out)) == 0
            assert cmd_verify(str(out)) == 0
            capsys.readouterr()
            assert cmd_embed(str(out)) == 4
        assert capsys.readouterr().err == (
            "embed audit: rescaled metric is not hyperbolic to tolerance: max |K+1| = nan "
            "> 1.0e-02 (audit.curvature_check_tol)\n")
        assert not (out / "embed").exists()
        for path in out.rglob("*.json"):
            json.loads(path.read_text(), parse_constant=pytest.fail)

    def test_all_returns_a_failed_solve_code(self, tmp_path, capsys):
        cfg = base_config(metric={"family": "radial_pinched", "base": 1.0, "amp": 1.0},
                          solver={"tol": 1e-10, "max_iter": 1},
                          exhaustion={"radii": [3.0], "l_obs": 1.0})
        out = tmp_path / "run"
        assert main(["all", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert (out / "trace_failed.csv").exists()
        assert not (out / "verify").exists() and not (out / "embed").exists()

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
        bounds = ConformalDiscMetric(1.0, 0.9, 0.3).bounds
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

    @pytest.mark.parametrize("eps", [800.0, -800.0, 1e6, 450.0, 700.0, -700.0])
    def test_chart_refusing_its_constants_exit_2(self, tmp_path, capsys, eps):
        # each value passes validation, but the chart's c2 and c3 are not
        # finite floats (|eps| 800 and beyond), or its psi^2 rho^2 on the rim
        # is not (from |eps| 389.2); solve builds the metric before it takes
        # the lock, so it writes nothing (it ended in a ZeroDivisionError
        # traceback, or in numpy overflow warnings and exit 3)
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, conformal_config(eps=eps)), str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: metric: ") and err.count("\n") == 1
        assert f"eps {eps!r}" in err
        assert not out.exists()

    def test_uncertified_converged_field_exit_3(self, tmp_path, capsys):
        # at eps 20 Newton meets its residual on the interior, but the
        # audit-grade top ring is not admissible (min eigenvalue -1.6e3): a
        # non-convergence with its trace, not a ValueError traceback
        cfg = conformal_config(eps=20.0, radii=(0.8,))
        cfg["grid"] = {"n_theta": 64, "n_r": 64}
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, cfg), str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver did not converge: ") and err.count("\n") == 1
        assert "not admissible" in err
        assert (out / "trace_failed.csv").exists()

    def test_unfit_radius_is_reported(self, tmp_path, capsys):
        # no ball of radius 3 fits the disc (its centre is at most 1.95 from
        # the rim), so no record is about one, and the report says so
        cfg = conformal_config(radii=(0.8,))
        cfg["audit"] = {"r0_list": [1.0, 3.0]}
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, cfg), str(out)) == 0
        capsys.readouterr()
        assert cmd_verify(str(out)) == 0
        lines = capsys.readouterr().out.splitlines()
        (run,) = json.loads((out / "verify" / "report.json").read_text())["runs"]
        assert run["r0_not_audited"] == [3.0]
        assert not any("_r0_3_" in rec["id"] for rec in run["records"])
        assert any("_r0_1_" in rec["id"] for rec in run["records"])
        assert [line for line in lines if "r0_not_audited" in line] == [
            "l=0.8 r0_not_audited: [3.0] (no probe ball of these radii fits the solved domain)"]

    def test_conformal_solve_routed_through_exhaustion(self, tmp_path):
        # the one-ball schedule gives the field of a direct disc solve
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, conformal_config()), str(out)) == 0
        u = np.loadtxt(out / "fields" / "u_000.csv", delimiter=",", skiprows=1,
                       usecols=2).reshape(24, 16)
        direct = solve_dirichlet(DirichletProblem(
            ConformalDiscMetric(1.0, 0.9, 0.3), PolarGrid(24, 16, 0.7, kind="disc")))
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

    def test_chart_disc_cutoff_audits(self, tmp_path):
        # r0 = 1.5 passes verify's filter on a perturbed chart disc and meets
        # the smallness hypothesis, so the cutoff and second-order audits run
        # on shooting distances
        cfg = conformal_config(radii=(0.8,))
        cfg["grid"] = {"n_theta": 8, "n_r": 8}
        cfg["audit"] = {"r0_list": [1.5]}
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, cfg), str(out)) == 0
        assert cmd_verify(str(out)) == 0
        (run,) = json.loads((out / "verify" / "report.json").read_text())["runs"]
        for name in ("cutoff_range", "cutoff_gradient", "cutoff_hessian", "second_order"):
            records = [r for r in run["records"] if r["id"].startswith(f"{name}_r0_1.5")]
            assert len(records) == 4, name  # the centre and three probes
            assert all(r["pass"] for r in records), name
        assert not any(r["id"].startswith("cutoff_hypothesis") for r in run["records"])
        assert all(r["extra"]["hypothesis_met"] for r in run["records"]
                   if r["id"].startswith("second_order"))


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


def _last_delta(out):
    rows = (out / "convergence.csv").read_text().splitlines()[1:]
    return float(rows[-1].split(",")[1])


class TestExhaustionEnd:
    """fields/meta.json records how the exhaustion ended."""

    def test_radial_run_records_last_delta(self, tmp_path):
        # on the pinched metric the delta at l = 3 is near 5e-4: above tol
        # 1e-5, below tol 1e-3
        for tol, met in ((1e-5, False), (1e-3, True)):
            cfg = base_config(
                metric={"family": "radial_pinched", "base": 1.0, "amp": 1.0},
                grid={"n_theta": 16, "nodes_per_unit": 8},
                exhaustion={"radii": [2.0, 3.0], "l_obs": 1.0, "tol": tol})
            out = tmp_path / f"run{tol:g}"
            assert cmd_solve(write_config(tmp_path, cfg), str(out)) == (0 if met else 6)
            meta = json.loads((out / "fields" / "meta.json").read_text())
            assert meta["last_delta"] == _last_delta(out)
            assert meta["met_tol"] is met
            assert meta["diverged"] is False
            n = len(meta["radii"])
            assert len(meta["residual"]) == len(meta["residual_floor"]) == n
            assert meta["floor_limited"] == [False] * n
            assert max(meta["residual"]) <= 1e-10

    def test_unmet_tol_exits_6_after_verify_and_embed(self, tmp_path, capsys):
        cfg = base_config(
            metric={"family": "radial_pinched", "base": 1.0, "amp": 1.0},
            grid={"n_theta": 16, "nodes_per_unit": 8},
            exhaustion={"radii": [2.0, 3.0], "l_obs": 1.0, "tol": 1e-5})
        out = tmp_path / "run"
        assert main(["all", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 6
        assert "above its tol" in capsys.readouterr().err
        assert json.loads((out / "fields" / "meta.json").read_text())["met_tol"] is False
        assert json.loads((out / "verify" / "report.json").read_text())["mandatory_pass"]
        assert (out / "embed" / "surface.obj").exists()

    def test_readme_example_meets_its_tol(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        example = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
        out = tmp_path / "run"
        assert main(["solve", "--config", write_config(tmp_path, example), "--out", str(out)]) == 0
        assert json.loads((out / "fields" / "meta.json").read_text())["met_tol"] is True

    def test_chart_disc_has_no_delta(self, tmp_path):
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, conformal_config()), str(out)) == 0
        meta = json.loads((out / "fields" / "meta.json").read_text())
        assert meta["last_delta"] is None and meta["met_tol"] is None
        assert meta["diverged"] is False
        # how Newton ended on the one ball
        assert meta["residual"][0] <= 1e-10 or meta["floor_limited"] == [True]
        assert meta["residual"][0] <= max(1e-10, meta["residual_floor"][0])
        assert meta["floor_limited"] in ([True], [False])

    def test_divergence_writes_a_readable_partial_run(self, tmp_path, monkeypatch, capsys):
        real = cli.run_exhaustion

        def diverging(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), diverged=True)

        monkeypatch.setattr(cli, "run_exhaustion", diverging)
        out = tmp_path / "run"
        assert cmd_solve(write_config(tmp_path, base_config()), str(out)) == 3
        assert "exhaustion diverged" in capsys.readouterr().err
        meta = json.loads((out / "fields" / "meta.json").read_text())
        assert meta["diverged"] is True
        assert meta["last_delta"] == _last_delta(out)
        assert len(meta["radii"]) == 2
        assert cmd_verify(str(out)) == 0  # verify reads the partial run


class TestAtomicArtifacts:
    """A writer that fails mid-write leaves the previous file and no temp file."""

    @staticmethod
    def _writers():
        g = PolarGrid(4, 8, 1.0)
        bad_field = type("Field", (), {"grid": g, "values": np.full(g.shape, "x", dtype=object)})
        bad_mesh = type("Mesh", (), {"vertices": np.zeros((2, 3)), "faces": [(0, 1, "x")]})
        return {
            "json": lambda p: cli._dump_json({"a": 1, "z": object()}, p),
            "convergence": lambda p: cli._write_convergence([None], p),
            "trace": lambda p: cli._write_trace([(0, 1.0, 1.0, 1.0), (1,)], p),
            "field_csv": lambda p: cli.write_field_csv(bad_field, p),
            "obj": lambda p: cli.write_obj(bad_mesh, p),
        }

    @pytest.mark.parametrize("name", ["json", "convergence", "trace", "field_csv", "obj"])
    def test_failed_write_keeps_previous_file(self, tmp_path, name):
        path = tmp_path / "artifact"
        path.write_text("previous\n")
        with pytest.raises((TypeError, AttributeError, ValueError)):
            self._writers()[name](str(path))
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


class TestStartup:
    # the radial Newton step needs no scipy; the delta at l = 3 (about
    # 5e-4) is above tol 1e-5, so solve exits 6
    RADIAL = (base_config(
        metric={"family": "radial_pinched", "base": 1.0, "amp": 1.0},
        grid={"n_theta": 16, "nodes_per_unit": 8},
        exhaustion={"radii": [2.0, 3.0], "l_obs": 1.0, "tol": 1e-5}), 6)
    # the non-radial Newton step is a block step, with no splu; the grid is
    # fine enough for embed's curvature check
    CHART_DISC = ({**conformal_config(radii=(0.8,)), "grid": {"n_theta": 64, "n_r": 64}}, 0)
    # what solve never runs, and what embed alone never needs
    SOLVE_UNUSED = ("lorentz_embed.estimates", "lorentz_embed.geodesics",
                    "lorentz_embed.embed", "numpy.polynomial")
    EMBED_UNUSED = ("lorentz_embed.estimates", "lorentz_embed.geodesics")

    @staticmethod
    def _env():
        """The environment of a fresh interpreter that finds this package."""
        src = str(Path(lorentz_embed.__file__).resolve().parents[1])
        return {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}

    def _fresh(self, script):
        """Run ``script`` in a fresh interpreter that finds this package."""
        done = subprocess.run([sys.executable, "-c", script], env=self._env(),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    def test_module_entry_point_writes_the_in_process_bytes(self, tmp_path):
        # each command as users run it, in an interpreter of its own that
        # ends through the exit hook, gives the in-process run's artifacts
        cfg_path = write_config(tmp_path, base_config())
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        for args in (["solve", "--config", cfg_path], ["verify"], ["embed"]):
            done = subprocess.run([sys.executable, "-m", "lorentz_embed.cli", *args,
                                   "--out", str(fresh)], env=self._env(),
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            assert main([*args, "--out", str(here)]) == 0
        written = sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
        assert written == sorted(p.relative_to(here) for p in here.rglob("*") if p.is_file())
        assert len(written) == 10  # .lock among them, empty on both sides
        for name in written:
            if name.name != "runmeta.json":
                assert (fresh / name).read_bytes() == (here / name).read_bytes(), name

    def _assert_loads_no_scipy(self, tmp_path, cfg, solve_rc):
        # importing the CLI, and solve, verify and embed of the run, load
        # numpy alone
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / "run")
        self._fresh(
            "import sys\n"
            "import lorentz_embed.cli as cli\n"
            "def scipy_modules():\n"
            "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not scipy_modules(), ('import', scipy_modules())\n"
            f"assert cli.cmd_solve({cfg_path!r}, {out!r}) == {solve_rc}\n"
            "assert not scipy_modules(), ('solve', scipy_modules())\n"
            f"assert cli.cmd_verify({out!r}) == 0\n"
            f"assert cli.cmd_embed({out!r}) == 0\n"
            "assert not scipy_modules(), ('verify, embed', scipy_modules())\n"
        )

    def test_radial_pipeline_loads_no_scipy(self, tmp_path):
        self._assert_loads_no_scipy(tmp_path, *self.RADIAL)

    def test_no_module_imports_scipy(self):
        # the runs above see only the paths they take; an import statement
        # on any other path shows here
        found = []
        for path in sorted(Path(lorentz_embed.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] == "scipy"]
        assert found == []

    def test_chart_disc_pipeline_loads_no_scipy(self, tmp_path):
        self._assert_loads_no_scipy(tmp_path, *self.CHART_DISC)

    @pytest.mark.parametrize("case", ["RADIAL", "CHART_DISC"])
    def test_each_command_loads_only_its_stages(self, tmp_path, case):
        # solve loads no audit or embedding stage, verify loads no embed,
        # and embed in an interpreter of its own loads no audit stage
        cfg, solve_rc = getattr(self, case)
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / "run")
        preamble = (
            "import sys\n"
            "import lorentz_embed.cli as cli\n"
            "def loaded(names):\n"
            "    return [m for m in names if m in sys.modules]\n"
        )
        self._fresh(
            preamble
            + f"assert cli.cmd_solve({cfg_path!r}, {out!r}) == {solve_rc}\n"
            f"assert loaded({self.SOLVE_UNUSED!r}) == [], loaded({self.SOLVE_UNUSED!r})\n"
            f"assert cli.cmd_verify({out!r}) == 0\n"
            "assert 'lorentz_embed.estimates' in sys.modules\n"
            "assert 'lorentz_embed.embed' not in sys.modules\n"
        )
        self._fresh(
            preamble
            + f"assert cli.cmd_embed({out!r}) == 0\n"
            "assert 'lorentz_embed.embed' in sys.modules\n"
            f"assert loaded({self.EMBED_UNUSED!r}) == [], loaded({self.EMBED_UNUSED!r})\n"
        )

    def test_verify_loads_geodesics_only_for_a_distance_field(self, tmp_path):
        # the smallness hypothesis fails at every probe of this disc, so no
        # distance field is solved, and neither geodesics nor numpy.polynomial
        # (which geodesics needs for its quadrature nodes) is loaded
        cfg_path = write_config(tmp_path, conformal_config())
        out = str(tmp_path / "run")
        unused = ("lorentz_embed.geodesics", "numpy.polynomial")
        self._fresh(
            "import json, sys\n"
            "import lorentz_embed.cli as cli\n"
            f"assert cli.cmd_solve({cfg_path!r}, {out!r}) == 0\n"
            f"assert cli.cmd_verify({out!r}) == 0\n"
            f"assert [m for m in {unused!r} if m in sys.modules] == []\n"
            f"report = json.load(open({out!r} + '/verify/report.json'))\n"
            "ids = [r['id'] for run in report['runs'] for r in run['records']]\n"
            "assert any(i.startswith('cutoff_hypothesis_') for i in ids)\n"
            "assert not any(i.startswith('cutoff_range_') for i in ids)\n"
        )

    def test_commands_call_stages_through_cli(self, tmp_path, monkeypatch):
        # span tracers wrap these names on cli; verify and embed must call
        # what is bound there when they run, not a copy taken earlier
        calls = []
        for name in ("run_estimate_suite", "build_embedding", "export_graph", "write_obj"):
            def spy(*args, _real=getattr(cli, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, spy)
        out = str(tmp_path / "run")
        assert cmd_solve(write_config(tmp_path, base_config()), out) == 0
        assert calls == []
        assert cmd_verify(out) == 0
        assert calls == ["run_estimate_suite"] * 2  # one suite per ball
        assert cmd_embed(out) == 0
        assert calls[2:] == ["build_embedding", "export_graph", "write_obj"]

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_stage"):
            cli.no_such_stage


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

    @pytest.mark.parametrize("content", ["exited", "live", "1", "", "not a pid", "0", "group"])
    def test_leftover_lock_blocks_nothing(self, tmp_path, capsys, content):
        # the kernel holds the lock, not the file: a .lock left by an exited
        # run, or holding a live or reused PID, a process group id, nothing
        # or no PID at all, blocks no command and gives no note
        out = tmp_path / "run"
        out.mkdir()
        content = {"exited": str(self._exited_pid()), "live": str(os.getpid()),
                   "group": str(-self._exited_pid())}.get(content, content)
        (out / ".lock").write_text(content)
        capsys.readouterr()
        assert cmd_solve(write_config(tmp_path, base_config()), str(out)) == 0
        assert capsys.readouterr().err == ""
        assert (out / ".lock").read_text() == content

    @pytest.mark.parametrize("command", ["solve", "verify", "embed"])
    def test_live_lock_exit_5(self, tmp_path, capsys, command):
        # each command refuses a directory another writer holds, in one line
        # naming the lock file, and writes nothing
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        out.mkdir()
        if command != "solve":
            assert cmd_solve(cfg_path, str(out)) == 0
        if command == "embed":
            assert cmd_verify(str(out)) == 0
        run = {"solve": lambda: cmd_solve(cfg_path, str(out)),
               "verify": lambda: cmd_verify(str(out)),
               "embed": lambda: cmd_embed(str(out))}[command]
        capsys.readouterr()
        with _locked_dir(str(out)):  # a second open file conflicts within one process
            before = sorted((p, p.stat().st_mtime_ns) for p in out.rglob("*"))
            assert run() == 5
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: ") and err.count("\n") == 1
        assert str(out / ".lock") in err and "Traceback" not in err
        assert sorted((p, p.stat().st_mtime_ns) for p in out.rglob("*")) == before
        assert (out / ".lock").read_text() == ""

    @pytest.mark.parametrize("command", ["verify", "embed"])
    def test_lock_taken_before_the_run_is_read(self, tmp_path, capsys, monkeypatch,
                                               command):
        # a run that a live solve holds is not read: the lock comes first
        out = tmp_path / "run"
        reads = []

        def spy(*args, **kwargs):
            reads.append(args)
            raise FileNotFoundError("config.json missing from run directory")

        monkeypatch.setattr(cli, "_load_run", spy)
        run = {"verify": cmd_verify, "embed": cmd_embed}[command]
        with _locked_dir(str(out)):
            assert run(str(out)) == 5
        assert reads == []
        assert "locked" in capsys.readouterr().err

    def test_killed_holder_frees_the_lock(self, tmp_path, capsys):
        # a holder killed with SIGKILL runs no cleanup; the kernel drops its
        # lock, so the next command runs
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        holder = subprocess.Popen(
            [sys.executable, "-c",
             "import sys\n"
             "from lorentz_embed.cli import _locked_dir\n"
             f"with _locked_dir({str(out)!r}):\n"
             "    print('locked', flush=True)\n"
             "    sys.stdin.read()\n"],
            env=TestStartup._env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            assert holder.stdout.readline() == "locked\n"
            assert cmd_solve(cfg_path, str(out)) == 5
            assert cmd_verify(str(out)) == 5
            assert cmd_embed(str(out)) == 5
            assert capsys.readouterr().err.count("locked by another run") == 3
            holder.send_signal(signal.SIGKILL)
            assert holder.wait(timeout=60) == -signal.SIGKILL
            assert cmd_solve(cfg_path, str(out)) == 0
        finally:
            holder.kill()
            holder.wait()
            holder.stdin.close()
            holder.stdout.close()
