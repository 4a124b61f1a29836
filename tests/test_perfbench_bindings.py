"""Every function the span tracer in perfbench/spans.py wraps must exist.

``spans.install`` replaces each ``(module, attribute)`` in ``TARGETS`` with
a recording wrapper and calls ``getattr`` on it, so a binding lost in a
refactor would crash every traced benchmark run.  The module is loaded by
path and only read; nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


def test_targets_nonempty():
    assert len(TARGETS) > 0


@pytest.mark.parametrize("module_name, attr",
                         [(t[0], t[1]) for t in TARGETS],
                         ids=[f"{t[0]}.{t[1]}" for t in TARGETS])
def test_binding_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr))
