"""Regenerate the stored seed-0 reference fields in perfbench/reference/.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Solves each workload's seed-0 config with the CLI of the working tree and
stores its final field, subsampled by ``run.reference_stride``, as
``reference/<workload>.npz``.  Run it only when a change is meant to alter
the computed answer, and say so where the change is described.
"""

import os
import shutil
import sys

import numpy as np

import run


def main(names):
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    for name in names or sorted(run.WORKLOADS):
        work = os.path.join(run.WORK, f"reference-{name}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        config_path = run.write_config(work, "config.json", run.WORKLOADS[name].config(0))
        pipeline = run.run_pipeline(work, "solve", ("solve",), config_path,
                                    run.now() + run.DEADLINE_S)
        if not pipeline.commands[0].ok:
            print(f"{name}: solve failed; see {work}", file=sys.stderr)
            return 1
        u = run.final_field(pipeline.out_dir)
        stride = run.reference_stride(u.shape)
        np.savez_compressed(run.reference_path(name), u=u[::stride[0], ::stride[1]])
        print(f"{name}: stored {u.shape} field at stride {stride}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
