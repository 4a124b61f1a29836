"""Every demo script runs to completion from a copy, writing only beside it."""

import runpy
import shutil
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def _snapshot(path):
    if not path.exists():
        return None
    return sorted((p.name, p.stat().st_mtime_ns) for p in path.iterdir())


def test_demos_found():
    assert {p.stem for p in DEMOS} >= {"conformal_chart", "hyperboloid_model",
                                       "pinched_surface"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch):
    before = _snapshot(DEMO_DIR / "demo_out")
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    # outputs land in demo_out/ next to the copy, never in the source tree
    assert _snapshot(DEMO_DIR / "demo_out") == before
    written = tmp_path / "demo_out"
    assert written.exists() == ("demo_out" in demo.read_text())
    if written.exists():
        assert all(p.stat().st_size > 0 for p in written.iterdir())
