"""Every function the span tracer in perfbench/spans.py wraps must exist.

``spans.install`` replaces each ``(module, attribute)`` in ``TARGETS`` with
a recording wrapper and calls ``getattr`` on it, so a binding lost in a
refactor would crash every traced benchmark run.  The module is loaded by
path; nothing is installed, and wrappers are only built on a private
recorder.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS_MODULE = _spans()
TARGETS = SPANS_MODULE.TARGETS


def test_targets_nonempty():
    assert len(TARGETS) > 0


@pytest.mark.parametrize("module_name, attr",
                         [(t[0], t[1]) for t in TARGETS],
                         ids=[f"{t[0]}.{t[1]}" for t in TARGETS])
def test_binding_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr))


def test_distance_span_takes_the_suite_call():
    # run_estimate_suite passes reach= by keyword; the wrapper and its
    # attribute reader must accept that call
    from lorentz_embed import estimates
    from lorentz_embed.grid import PolarGrid
    from lorentz_embed.metric import make_hyperbolic

    (name, attrs), = [(t[2], t[3]) for t in TARGETS
                      if t[:2] == ("lorentz_embed.estimates", "distance_field")]
    recorder = SPANS_MODULE.Recorder()
    traced = recorder.wrap(estimates.distance_field, name, attrs)
    grid = PolarGrid(8, 8, 2.0)
    d = traced(make_hyperbolic(1.0), grid, (3, 0), reach=0.5)
    assert d.shape == grid.shape
    (span,) = recorder.spans
    assert span["name"] == name and span["end"] >= span["start"]
    assert span["attrs"] == {"targets": grid.n1 * grid.n2}
