"""Self-test of the benchmark on a tiny config; takes about half a minute.

    python3 perfbench/selftest.py

Checks that an untraced run prints every end-to-end metric of
BENCHMARK.json with its unit, that a traced run prints every per-layer
metric, that a corrupted artifact counts as a failure in error_rate, and
that run.py refuses to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import make_reference
import run


def tiny_config(seed):
    config = run.pinched_config(seed, 16, 8)
    config["exhaustion"].update(radii=[2.0, 3.0], tol=1e-2)
    return config


TINY = run.Workload("tiny", ("solve", "verify", "embed"), tiny_config, True)


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest: FAILED: {message}")


def declared(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def check_metrics(result, section):
    expect(result is not None, f"no result for {section}")
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(printed == declared(section),
           f"{section}: printed {sorted(printed)} != declared {sorted(declared(section))}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
           f"{section}: tiny run not correct: {result}")


def main():
    work = os.path.join(run.WORK, "selftest")
    shutil.rmtree(work, ignore_errors=True)
    run.WORKLOADS[TINY.name] = TINY
    run.REFERENCE_DIR = os.path.join(work, "reference")
    expect(make_reference.main([TINY.name]) == 0, "could not store the tiny reference")
    result = run.measure(TINY, 1, 0.0, False, work=os.path.join(work, "plain"))
    check_metrics(result, "end_to_end")
    for name, metric in result["metrics"].items():
        expect(metric["value"] > 0, f"{name} is not positive")

    traced = run.measure(TINY, 1, 0.0, True, work=os.path.join(work, "traced"))
    check_metrics(traced, "per_layer")
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    expect(layers["metric.build_calls"] == 3, "metric built once per command")
    expect(layers["geodesics.distance_field_calls"] > 0, "verify ran no distance field")

    # Corrupt the last field of a finished run, then rerun verify and embed on it.
    out_dir = os.path.join(work, "plain", "rep0")
    with open(os.path.join(out_dir, "fields", "u_001.csv"), "w", encoding="utf-8") as fh:
        fh.write("r,theta,value\n0.1,0.0,not-a-number\n")
    with open(os.path.join(out_dir, "embed", "audit.json"), "w", encoding="utf-8") as fh:
        fh.write("{truncated")
    deadline = run.now() + run.DEADLINE_S
    commands = [run.run_command(work, f"corrupt.{cmd}", [cmd, "--out", out_dir], deadline)
                for cmd in ("verify", "embed")]
    ledger = run.Ledger()
    ledger.add("corrupt", *run.check_outputs(run.Pipeline(out_dir, commands), TINY.name,
                                             ("verify", "embed"), tiny_config(1), False,
                                             None))
    failed = {line for line in ledger.lines if "FAIL" in line}
    expect(ledger.error_rate > 0, "a corrupted artifact did not raise error_rate")
    expect(any("verify exit 0" in line for line in failed), "verify accepted a corrupt CSV")
    expect(any("embed audit" in line for line in failed), "corrupt audit.json passed")

    # Without the package sources the benchmark must fail and print no result.
    bare = os.path.join(work, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pinched-all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"run.py without sources: rc={proc.returncode}, stdout={proc.stdout!r}")
    print(f"selftest: ok (error_rate {ledger.error_rate:.3f} after corruption)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
