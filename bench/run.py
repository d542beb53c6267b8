"""The ffperiods benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run is a closed loop with one client.  A session spawns a fresh
interpreter (bench/worker.py), which imports ffperiods.cli from ./src and
calls ffperiods.cli.main(argv) for each job of the workload, one after
another, so every session pays cold caches once, as a user's shell session
would.  The run repeats sessions with the same seeded job list until
--seconds is used up (at least three), checks every job's output against
bench/oracle.py, and reports medians over the sessions.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the kernel
microbenchmarks, then alternates untraced and traced sessions and prints
the per-layer metrics.  Either way the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}, and a full run record goes
to bench/results/.  Inputs a workload keeps as known failures run in a
session of their own; they are recorded with their reasons and count in
the per-layer fail_ratio, not in the timed sessions.
"""

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
from kernels import KERNELS  # noqa: E402
from layers import Context, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SESSIONS = 3
SETUP_PROBES = 8  # extra spawns with no jobs, for a steadier setup_s median
HARD_STOP_S = 140  # a run must end within 180 s
SESSION_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def _worker_env():
    env = dict(os.environ)
    env.pop("FFP_TOWER_BOUND", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _cm_path(workdir, cm):
    return str((workdir / ("cm_%d_%d_%d.json" % cm)).relative_to(ROOT))


def write_cm_files(jobs, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        if job.cm is not None:
            q_v, f, e = job.cm
            (ROOT / _cm_path(workdir, job.cm)).write_text(json.dumps(
                {"schema": "1", "q_v": q_v, "components": [{"f": f, "e": e, "tame": True}]}))


def run_session(jobs, trace, workdir):
    """Spawn a fresh worker, run the jobs, return its payload plus setup_s."""
    spec = {"jobs": [
        {"argv": [a.replace("{cm}", _cm_path(workdir, job.cm)) if job.cm else a
                  for a in job.argv],
         "env": job.env}
        for job in jobs
    ]}
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(SRC), "1" if trace else "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=_worker_env(), text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out, err = proc.communicate(json.dumps(spec) + "\n", timeout=SESSION_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError("worker failed (exit %s): %s" % (proc.returncode, err.strip()[-500:]))
    payload = json.loads(out)
    payload["setup_s"] = setup_s
    for job, result in zip(jobs, payload["jobs"]):
        result["id"] = job.id
        result["reason"] = oracle.check(job, result)
    return payload


def run_kernels():
    values = {}
    for name in KERNELS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "kernels.py"), str(SRC), name],
            capture_output=True, text=True, cwd=ROOT, env=_worker_env(),
            timeout=SESSION_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError("kernel %s failed: %s" % (name, proc.stderr.strip()[-500:]))
        values[name] = json.loads(proc.stdout.splitlines()[-1])["value"]
    return values


def repeat_sessions(seconds, run_once, minimum, start):
    """Call run_once() until the next call would end more than `seconds`
    after `start`, but at least `minimum` times unless that would overrun
    HARD_STOP_S."""
    done, first = [], perf_counter()
    while True:
        done.append(run_once())
        now = perf_counter()
        next_end = now - start + (now - first) / len(done)
        if next_end > HARD_STOP_S or (len(done) >= minimum and next_end > seconds):
            return done


def _nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)), 1) - 1]


def end_to_end(sessions, setups):
    """Medians over sessions.  Each job's time is its mean over the
    sessions, which smooths the machine's fast and slow spells better than a
    median of a few samples; job_p50_s and job_p90_s are taken over those,
    so they do not depend on how many sessions fit in the run."""
    per_job = [statistics.mean(times) for times in zip(
        *([j["seconds"] for j in s["jobs"]] for s in sessions))]
    attempted = sum(len(s["jobs"]) for s in sessions)
    passed = sum(1 for s in sessions for j in s["jobs"] if j["reason"] is None)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(s["wall_s"] for s in sessions), "s"),
        "job_p50_s": (statistics.median(per_job), "s"),
        "job_p90_s": (_nearest_rank(per_job, 90), "s"),
        "peak_rss_mib": (statistics.median(s["peak_rss_mib"] for s in sessions), "MiB"),
        "pass_ratio": (passed / attempted, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _merge_traces(traces):
    """Span times are the median over traced sessions; counts repeat exactly."""
    first = traces[0]
    spans = {
        name: {"calls": rec["calls"],
               "total_s": statistics.median(t["spans"][name]["total_s"] for t in traces),
               "self_s": statistics.median(t["spans"][name]["self_s"] for t in traces)}
        for name, rec in first["spans"].items()
    }
    return {"spans": spans, "span_count": first["span_count"], "counts": first["counts"],
            "gauges": first["gauges"]}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _job_rows(session):
    return [{"id": j["id"], "seconds": j["seconds"], "rc": j["rc"], "reason": j["reason"]}
            for j in session["jobs"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-jobs", type=int, default=None,
                        help="keep only the first N jobs (the self-check's minimal runs)")
    args = parser.parse_args(argv)

    if not (SRC / "ffperiods" / "cli.py").is_file():
        print("error: no ffperiods sources under %s" % SRC, file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "ffperiods"), quiet=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workload = WORKLOADS[args.workload]
    jobs = workload.jobs(args.seed)[:args.max_jobs]
    workdir = BENCH / ".work" / str(os.getpid())
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version, "platform": platform.platform(),
        "nproc": os.cpu_count(), "commit": git_commit(),
        "workloads": {w["name"]: {"jobs": len(WORKLOADS[w["name"]].jobs(args.seed)),
                                  "why": w["why"]} for w in spec["workloads"]},
    }
    try:
        write_cm_files(jobs + list(workload.known_failures), workdir)
        start = perf_counter()
        if args.trace:
            kernels = run_kernels()
            pairs = repeat_sessions(args.seconds, lambda: (run_session(jobs, False, workdir),
                                                           run_session(jobs, True, workdir)),
                                    1, start)
            plain = [p[0] for p in pairs]
            traced = [p[1] for p in pairs]
            sessions = plain + traced
        else:
            sessions = repeat_sessions(args.seconds, lambda: run_session(jobs, False, workdir),
                                       MIN_SESSIONS, start)
            setups = [s["setup_s"] for s in sessions]
            setups += [run_session([], False, workdir)["setup_s"] for _ in range(SETUP_PROBES)]
        probe = (run_session(list(workload.known_failures), False, workdir)
                 if workload.known_failures else {"jobs": []})
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(s["jobs"]) for s in sessions)
    failed = sum(1 for s in sessions for j in s["jobs"] if j["reason"] is not None)
    if args.trace:
        all_jobs = [j for s in sessions for j in s["jobs"]] + probe["jobs"]
        ctx = Context(
            _merge_traces([s["trace"] for s in traced]), kernels,
            [j["rc"] for j in traced[0]["jobs"] + probe["jobs"]],
            statistics.median(s["wall_s"] for s in traced)
            / statistics.median(s["wall_s"] for s in plain),
            sum(1 for j in all_jobs if j["reason"] is not None) / len(all_jobs),
        )
        metrics = per_layer(ctx)
        record["trace"] = vars(ctx)
    else:
        metrics = end_to_end(sessions, setups)
    record.update({
        "samples": {"sessions": len(sessions),
                    "jobs_per_session": len(jobs), "job_times": attempted},
        "sessions": [{"setup_s": s["setup_s"], "wall_s": s["wall_s"],
                      "peak_rss_mib": s["peak_rss_mib"], "traced": "trace" in s,
                      "jobs": _job_rows(s)} for s in sessions],
        "known_failures": _job_rows(probe),
        "metrics": metrics,
    })
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    out = results / ("%s-seed%d-trace%d.json" % (workload.name, args.seed, args.trace))
    out.write_text(json.dumps(record, indent=1, default=str))

    print("workload %s, seed %d: %d sessions x %d jobs = %d job samples, %d failed"
          % (workload.name, args.seed, len(sessions), len(jobs), attempted, failed))
    for job in probe["jobs"]:
        print("known failure: %s -> %s" % (job["id"], job["reason"] or "passes now"))
    for name, m in metrics.items():
        print("%-40s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
