"""The benchmark's reference gate, in-process: each workload's seed-0 solve
matches ``perfbench/reference/<workload>.npz`` within ``REFERENCE_TOL``.

``perfbench/run.py`` is loaded by path, through its own ``WORKLOADS``,
``final_field``, ``load_reference`` and ``reference_stride``.  It is
registered in ``sys.modules`` before it runs, because its dataclasses look
their module up there.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from lorentz_embed.cli import cmd_solve

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


PERFBENCH = _run_module()


@pytest.mark.parametrize("workload", sorted(PERFBENCH.WORKLOADS))
def test_seed0_solve_matches_reference(workload, tmp_path):
    reference = PERFBENCH.load_reference(workload)
    assert reference is not None, f"no reference stored for {workload}"
    config = PERFBENCH.write_config(str(tmp_path), "config.json",
                                    PERFBENCH.WORKLOADS[workload].config(0))
    out = str(tmp_path / "run")
    assert cmd_solve(config, out) == 0
    u = PERFBENCH.final_field(out)
    stride = PERFBENCH.reference_stride(u.shape)
    sub = u[::stride[0], ::stride[1]]
    assert sub.shape == reference.shape
    assert float(np.max(np.abs(sub - reference))) <= PERFBENCH.REFERENCE_TOL
