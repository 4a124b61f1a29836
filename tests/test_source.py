"""Checks on the package source itself, read as syntax trees."""

import ast
import dataclasses
import inspect
from pathlib import Path

import lorentz_embed
from lorentz_embed import estimates
from lorentz_embed.grid import ChartData, ScalarField
from lorentz_embed.metric import ConformalDiscMetric, WarpedPolarMetric

SRC = Path(lorentz_embed.__file__).parent


def _private_definitions(tree):
    """Module-level ``_private`` functions, classes and constants of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_every_private_helper_is_referenced():
    # a helper that only its own definition names is code that never runs,
    # such as a constant left behind by the function that read it
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, lineno in _private_definitions(tree):
            defined[name] = f"{path.name}:{lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert len(defined) > 50  # the walk found the package
    assert sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in used) == []


def _loaded_names(node):
    """Each name an expression in ``node`` reads: loaded names and attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_public_definition_is_referenced():
    # a public function or class that no code of the package calls, past its
    # own body, serves only demos and tests: it belongs on their side
    defined, used = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used.extend(_loaded_names(tree))
        defined.extend((f"{path.name}:{node.name}", node) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                       and not node.name.startswith("_"))
    assert len(defined) > 40  # the walk found the package
    unused = [where for where, node in defined
              if used.count(node.name) <= list(_loaded_names(node)).count(node.name)]
    assert unused == []


def test_no_chart_kind_branches():
    # each chart family answers the audits' geometry as methods in metric.py,
    # so no module names a kind of chart to branch on
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert "geodesic_polar" not in text and "conformal_polar" not in text, path.name
    assert not hasattr(WarpedPolarMetric, "kind")
    assert not hasattr(ConformalDiscMetric, "kind")


def test_probe_ball_audits_take_no_optional_inputs():
    # each localized audit reads one ProbeBall, so no parameter stands in for
    # a value the caller may or may not hold; only estimates places probes
    for fn in (estimates.check_lower_bound, estimates.build_cutoff,
               estimates.check_second_order):
        defaults = {name: p.default for name, p in inspect.signature(fn).parameters.items()}
        assert None not in defaults.values(), (fn.__name__, defaults)
    assert "center_distance" not in (SRC / "cli.py").read_text()


def test_psi_grad_is_read_in_one_place():
    # grad phi = grad psi / (2 psi) has one definition, ConformalDiscMetric.phi_grad;
    # every other reader of the conformal symbols goes through it
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "psi_grad":
                    calls.append(f"{path.name}:{node.lineno}")
    assert len(calls) == 1 and calls[0].startswith("metric.py:"), calls
    assert "psi_grad" in inspect.getsource(ConformalDiscMetric.phi_grad)


def test_conformal_chart_is_its_parameters():
    # the perturbed Poincare chart is built from its three parameters alone,
    # and derives its certificate itself: no factory, closure or optional
    # distance callable; psi, grad psi and K are methods, and the ball maximum
    # of -K is a closed form, not a chart-disc sample
    assert [f.name for f in dataclasses.fields(ConformalDiscMetric) if f.init] == [
        "scale", "domain_radius", "eps"]
    text = (SRC / "metric.py").read_text()
    for name in ("_chart_disc_sample", "DISC_SAMPLES", "psi_log_laplacian", "lru_cache",
                 "replace("):
        assert name not in text, name
    chart = next(node for node in ast.parse(text).body
                 if getattr(node, "name", None) == "ConformalDiscMetric")
    assert not [node for node in ast.walk(chart) if isinstance(node, ast.Lambda)]


def test_one_distance_contract():
    # every chart answers rim_distance and distance_field from its own
    # fields, so no module asks a chart whether it has a distance formula
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert "center_distance" not in text and "make_poincare" not in text, path.name
    for cls in (WarpedPolarMetric, ConformalDiscMetric):
        assert callable(cls.rim_distance) and callable(cls.distance_field)
    tree = ast.parse((SRC / "estimates.py").read_text())
    tests = [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
             and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
             and "metric" in {n.attr for n in ast.walk(node.left)
                              if isinstance(n, ast.Attribute)}
             | {n.id for n in ast.walk(node.left) if isinstance(n, ast.Name)}]
    assert tests == [], [ast.unparse(node) for node in tests]


def test_chart_data_holds_what_the_metric_returns():
    # charts are orthogonal: the diagonal metric, the curvature and the six
    # Christoffel symbols, with nothing derived from them and no g12
    arrays = [f.name for f in dataclasses.fields(ChartData) if f.name not in ("grid", "column")]
    assert arrays == ["g11", "g22", "K", "gamma1_11", "gamma1_12", "gamma1_22",
                      "gamma2_11", "gamma2_12", "gamma2_22"]
    named = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        named += [f"{path.name}:{getattr(node, 'lineno', '?')}"
                  for node in ast.walk(tree)
                  if "g12" in (getattr(node, "id", None), getattr(node, "attr", None),
                               getattr(node, "arg", None))]
    assert named == []


def test_theta_constancy_is_tested_in_one_place():
    # ScalarField.column is the one test; other modules read it
    naming = [path.name for path in sorted(SRC.glob("*.py"))
              if "_ring_constant" in path.read_text()]
    assert naming == ["grid.py"]
    assert "_ring_constant" in inspect.getsource(ScalarField)


def test_only_cli_writes_artifacts():
    # each artifact format's writer sits beside its reader in cli; no other
    # module opens a file or holds a row format
    naming = [f"{path.name} {word}" for path in sorted(SRC.glob("*.py"))
              for word in ("open(", "atomic_write", "os.replace", "%.17g")
              if path.name != "cli.py" and word in path.read_text()]
    assert naming == []
    assert "%.17g" in (SRC / "cli.py").read_text()


def test_each_stage_owns_its_verdict():
    # the exhaustion says how it ended, estimates builds and words every
    # record under one rule, and the embedding audit names the gates it
    # fails: cli writes those verdicts and decides none of them
    cli_text = (SRC / "cli.py").read_text()
    for name in ("by_rule", "isnan", "DivergenceError"):
        assert name not in cli_text, name
    gate_words = {"pullback_tol", "pinching_slack", "pullback_rel_err", "pinching_margin_cone",
                  "pinching_margin_lower", "pinching_margin_upper"}
    gates = [ast.unparse(node) for node in ast.walk(ast.parse(cli_text))
             if isinstance(node, ast.Compare)
             and gate_words & ({getattr(n, "value", None) for n in ast.walk(node)}
                               | set(_loaded_names(node)))]
    assert gates == []
    calls = [(path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "EstimateRecord"]
    record = next(node for node in ast.parse((SRC / "estimates.py").read_text()).body
                  if getattr(node, "name", None) == "_record")
    inside = range(record.lineno, record.end_lineno + 1)
    assert calls and [c for c in calls if c[0] != "estimates.py" or c[1] not in inside] == []


def test_the_kernel_holds_the_run_lock():
    # an flock dies with its holder: no lock file is probed for a live PID
    # or created exclusively and reclaimed
    naming = [f"{path.name} {word}" for path in sorted(SRC.glob("*.py"))
              for word in ("os.kill", "O_EXCL")
              if word in path.read_text()]
    assert naming == []
    assert "fcntl.flock" in (SRC / "cli.py").read_text()


def test_one_schedule_per_run():
    # every grid a command reads is one of config.json's schedule, which
    # validate_config builds once: cli constructs no PolarGrid, only the
    # validator's grid check constructs an ExhaustionSchedule, and each of
    # the schedule's rules is written once, in the schedule
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}

    def called(node):
        return getattr(node.func, "id", getattr(node.func, "attr", None))

    cli_calls = {called(node) for node in ast.walk(trees["cli.py"])
                 if isinstance(node, ast.Call)}
    assert "PolarGrid" not in cli_calls and "PolarGrid" not in set(_loaded_names(trees["cli.py"]))
    constructs = [node for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and called(node) == "ExhaustionSchedule"]
    check_grids = next(node for node in trees["cli.py"].body
                       if getattr(node, "name", None) == "_check_grids")
    assert len(constructs) == 1 and constructs[0] in set(ast.walk(check_grids))
    texts = {name: (SRC / name).read_text() for name in trees}
    assert [name for name, text in texts.items() if "make_schedule" in text] == []
    rules = ("must be a strictly increasing positive list", "must be 'standard' or 'midpoint'",
             "must be <= radii[0] - 1", "must be < radii[0] on a chart disc")
    assert [(name, rule) for name, text in texts.items() for rule in rules if rule in text] \
        == [("exhaustion.py", rule) for rule in rules]
