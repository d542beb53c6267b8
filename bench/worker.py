"""One benchmark session in a fresh interpreter.

Usage: python3 worker.py SRC_DIR TRACE

Imports ffperiods.cli from SRC_DIR, installs the span recorder when TRACE
is 1, prints "ready", then reads one JSON line {"jobs": [...]} from stdin,
calls ffperiods.cli.main(argv) for each job in order, and prints one JSON
line with the per-job results, the session's wall time and peak RSS.
"""

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def run_job(cli, job):
    saved = {k: os.environ.get(k) for k in job["env"]}
    os.environ.update(job["env"])
    out, err = io.StringIO(), io.StringIO()
    exc = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job["argv"])
    except SystemExit as stop:  # argparse rejects the command line
        rc = stop.code if isinstance(stop.code, int) else 2
    except Exception:
        rc, exc = 1, traceback.format_exc()
    seconds = perf_counter() - t0
    for k, v in saved.items():
        if v is None:
            os.environ.pop(k, None)
        else:
            os.environ[k] = v
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "exc": exc,
            "seconds": seconds}


def main(argv):
    src, trace = argv[1], argv[2] == "1"
    sys.path.insert(0, src)
    from ffperiods import cli

    recorder = None
    if trace:
        from layers import RESULT_HOOKS
        from spans import Recorder

        recorder = Recorder(RESULT_HOOKS).install()
    proto = sys.stdout
    proto.write("ready\n")
    proto.flush()
    jobs = json.loads(sys.stdin.readline())["jobs"]
    t0 = perf_counter()
    results = [run_job(cli, job) for job in jobs]
    wall = perf_counter() - t0
    payload = {
        "wall_s": wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": results,
    }
    if recorder is not None:
        payload["trace"] = recorder.summary()
    proto.write(json.dumps(payload) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
