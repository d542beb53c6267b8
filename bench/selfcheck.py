"""Quick self-check of the benchmark, so no metric can be dropped silently.

Usage (from the repository root): python3 bench/selfcheck.py

Checks that BENCHMARK.json keeps to its format and declares the workloads
of workloads.py; that the oracle rejects wrong outputs; that a minimal run
(first two jobs, one second) of every workload passes the oracle and prints
exactly the declared end-to-end metrics with their units; that known
failures come back with a reason; and that a minimal traced run prints
exactly the declared per-layer metrics with their units.  Exits 0 when all
checks pass.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
from layers import METRICS  # noqa: E402
from workloads import WORKLOADS, carlitz_job, omega_job  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
METRIC_KEYS = {"end_to_end": {"name", "unit", "better", "bound"},
               "per_layer": {"name", "unit", "better"}}

failures = []


def check(ok, what):
    print("%s %s" % ("PASS" if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json has exactly the contract's keys")
    check(spec["paths"] == ["bench"] and spec["command"][1:] == ["bench/run.py"],
          "command runs bench/run.py and paths is [bench]")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
          "run_seconds is a whole number in 1..60")
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(WORKLOADS), "declared workloads match workloads.py")
    check(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
              for w in spec["workloads"]), "every workload has a one-line why")
    all_names = names + [m["name"] for kind in METRIC_KEYS for m in spec[kind]]
    check(all(NAME.match(n) for n in all_names) and len(set(all_names)) == len(all_names),
          "names are well formed and used once")
    for kind, keys in METRIC_KEYS.items():
        check(all(set(m) == keys and UNIT.match(m["unit"])
                  and m["better"] in ("higher", "lower") for m in spec[kind]),
              "%s metrics have exactly %s and a well-formed unit" % (kind, sorted(keys)))
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bounds are in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s is declared in s, lower is better, with the largest bound")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]]
          == [(name, unit) for name, unit, _ in METRICS],
          "per_layer matches layers.METRICS, names and units")


def check_oracle():
    job = omega_job(3, 1, 2, (0, 0), (0, 1), "64")
    good = "\n".join("%s: 3/4" % k for k in ("series valuation", "closed form",
                                              "Z - mu route")) + "\nagreement: yes\n"
    result = {"rc": 0, "exc": None, "err": "", "out": good}
    check(oracle.check(job, result) is None, "oracle accepts the right omega output")
    check(oracle.check(job, dict(result, out=good.replace("3/4", "1/4", 1))) is not None,
          "oracle rejects a wrong valuation")
    check(oracle.check(job, dict(result, rc=1, err="error: boom\n")) is not None,
          "oracle rejects a nonzero exit")
    place = {"place": "t", "degree": 1, "q_v": 2, "log_abs": "-1/1", "z_v_at_1": "1/1",
             "hat_order": 1, "via_series": True}
    data = {"q": 2, "total": "0/1", "infty": "2/1",
            "places": [place, dict(place, place="t + 1")]}
    cjob = carlitz_job(2, 1, 1)
    result = dict(result, out=json.dumps(data))
    check(oracle.check(cjob, result) is None, "oracle accepts the right carlitz output")
    data["places"].pop()
    check(oracle.check(cjob, dict(result, out=json.dumps(data))) is not None,
          "oracle rejects a missing place")
    check([oracle.necklace(2, d) for d in range(1, 11)] == [2, 1, 2, 3, 6, 9, 18, 30, 56, 99],
          "necklace counts over F_2")


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--max-jobs", "2"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    if proc.returncode != 0:
        return None, proc.stderr.strip()
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def check_runs(spec):
    for kind, trace, workloads in (("end_to_end", 0, list(WORKLOADS)),
                                   ("per_layer", 1, ["carlitz-sweep"])):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        for name in workloads:
            result, text = run(name, trace)
            check(result is not None, "%s --trace %d runs (%s)"
                  % (name, trace, "ok" if result else text[-300:]))
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  "%s --trace %d passes the oracle" % (name, trace))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, "%s --trace %d prints every %s metric with its unit"
                  % (name, trace, kind))
            known = len(WORKLOADS[name].known_failures)
            reasons = [line for line in text.splitlines() if line.startswith("known failure:")]
            check(len(reasons) == known and all("->" in r for r in reasons),
                  "%s --trace %d reports its %d known failures with reasons"
                  % (name, trace, known))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_oracle()
    check_runs(spec)
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
