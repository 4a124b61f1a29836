import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    ])
    def test_malformed_field_named(self, section, value, field):
        cfg, errors = validate_config(base_config(**{section: value}))
        assert cfg is None
        assert any(e.startswith(f"{field}:") for e in errors), errors

    def test_smallest_radial_grid_accepted(self):
        cfg, errors = validate_config(base_config(grid={"n_theta": 16, "n_r": 7}))
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
        # grid lie within l_obs = 1: valid for solve and verify, too few to embed
        cfg = base_config(grid={"n_theta": 16, "n_r": 7},
                          exhaustion={"radii": [2.0, 3.0], "l_obs": 1.0, "tol": 1e-5})
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / "run")
        assert cmd_solve(cfg_path, out) == 0
        assert cmd_verify(out) == 0
        capsys.readouterr()
        assert cmd_embed(out) == 2
        err = capsys.readouterr().err
        assert "exhaustion.l_obs" in err and "Traceback" not in err
        assert not (Path(out) / "embed").exists()

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
