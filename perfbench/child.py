"""Run one ``lorentz-embed`` command in a fresh interpreter and time it.

    python3 perfbench/child.py RESULT.json [--trace] [-- CLI ARGS...]

Imports ``lorentz_embed.cli`` (found through PYTHONPATH), calls ``main``
with the CLI arguments and writes RESULT.json: the monotonic clock after
the import and around ``main``, the exit code, the peak RSS of this
process and, with --trace, the spans recorded around the package's public
functions.  Without CLI arguments only the import is timed.
"""

import json
import resource
import sys
import time
import traceback

import lorentz_embed.cli

CLOCK = time.CLOCK_MONOTONIC


def main():
    imported = time.clock_gettime(CLOCK)
    result_path, *rest = sys.argv[1:]
    trace = bool(rest) and rest[0] == "--trace"
    if trace:
        rest = rest[1:]
    argv = rest[1:] if rest and rest[0] == "--" else rest
    result = {"imported": imported, "rc": None, "spans": []}
    recorder = None
    if trace:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)
    try:
        if argv:
            result["main_start"] = time.clock_gettime(CLOCK)
            try:
                if recorder is None:
                    rc = lorentz_embed.cli.main(argv)
                else:
                    rc = recorder.call("cli.main", lorentz_embed.cli.main, (argv,))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                rc = 1
            result["main_end"] = time.clock_gettime(CLOCK)
            result["rc"] = rc
        else:
            result["rc"] = 0
    finally:
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if recorder is not None:
            result["spans"] = recorder.spans
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
