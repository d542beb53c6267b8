"""The benchmark's calls into ffperiods, made once each: the tower, recursion,
tame-datum and A-motive kernels of bench/kernels.py and the result hooks of
bench/layers.py.  A change that breaks `bench/run.py --trace 1` fails here."""

import os
import sys

import pytest

from ffperiods.carlitz import carlitz_v_log_abs, finite_places
from ffperiods.towers import LocalFieldTower

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "bench"))
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
