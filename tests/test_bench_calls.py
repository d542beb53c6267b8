"""The benchmark's calls into ffperiods, made once each: the tower, recursion,
tame-datum and A-motive kernels of bench/kernels.py, the result hooks of
bench/layers.py, and one traced worker session with the span recorder
installed.  A change that breaks `bench/run.py --trace 1` fails here."""

import json
import os
import subprocess
import sys

import pytest

from ffperiods.carlitz import carlitz_v_log_abs, finite_places
from ffperiods.towers import LocalFieldTower

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(ROOT, "bench"))
import kernels  # noqa: E402
import layers  # noqa: E402


@pytest.mark.parametrize("name", ["towers.k.extend_lift_ms", "towers.k.recursion_ms",
                                  "lfunctions.k.tame_ms", "amotive.k.bridge_ms"])
def test_kernel_runs(name):
    assert kernels.KERNELS[name]() >= 0


class Recorder:
    def __init__(self):
        self.counts, self.gauges = {}, {}

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def gauge_max(self, key, value):
        self.gauges[key] = max(self.gauges.get(key, value), value)


def test_result_hooks_read_what_the_package_returns():
    rec = Recorder()
    base = LocalFieldTower.base(4, bound=10 ** 6)
    hooks = layers.RESULT_HOOKS
    hooks["towers.LocalFieldTower.extend_unramified"](rec, base.extend_unramified(2))
    hooks["towers.LocalFieldTower.extend_eisenstein"](
        rec, base.extend_eisenstein({0: -base.uniformizer()}, degree=3))
    hooks["carlitz.carlitz_v_log_abs"](rec, carlitz_v_log_abs(2, finite_places(2, 1)[0], 1))
    assert rec.gauges == {"towers.max_degree": 3}
    assert rec.counts == {"carlitz.via_series": 1}


def test_traced_worker_session(tmp_path):
    # one omega job with e > 1 (its zeta coordinates need a reversion) and one
    # carlitz job, through bench/worker.py with the span recorder installed
    cm = tmp_path / "cm.json"
    cm.write_text(json.dumps({"schema": "1", "q_v": 3,
                              "components": [{"f": 1, "e": 2, "tame": True}]}))
    jobs = [{"argv": ["omega", "--cm", str(cm), "--phi", "(0,0,0)", "--psi", "(0,0,0)"],
             "env": {}},
            {"argv": ["carlitz", "--q", "2", "--max-degree", "2", "--depth", "1",
                      "--format", "json"], "env": {}}]
    env = {k: v for k, v in os.environ.items() if k != "FFP_TOWER_BOUND"}
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "worker.py"),
                           os.path.join(ROOT, "src"), "1"],
                          input=json.dumps({"jobs": jobs}) + "\n", capture_output=True,
                          text=True, cwd=ROOT, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    ready, line = proc.stdout.splitlines()
    payload = json.loads(line)
    assert ready == "ready"
    assert [job["rc"] for job in payload["jobs"]] == [0, 0], payload["jobs"]
    spans = payload["trace"]["spans"]
    for name in ("coeffseries.reversion", "series.TruncSeries.__mul__",
                 "towers.LocalFieldTower.extend_eisenstein", "carlitz.carlitz_v_log_abs"):
        assert spans.get(name, {}).get("calls"), name
