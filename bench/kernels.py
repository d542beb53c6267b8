"""Kernel microbenchmarks behind the per-layer `*.k.*` metrics.

Usage: python3 kernels.py SRC_DIR NAME

Runs one kernel in this (fresh) process and prints {"value": ...} in the
kernel's unit.  A fresh process per kernel keeps caches that a CLI session
pays for once (log tables, embeddings, re-expansions) from hiding the cost.
Inputs are fixed, so every run times the same work.
"""

import json
import random
import statistics
import sys
from time import perf_counter


def _per_op_ns(op, pairs, reps=5):
    """Median over `reps` of the time per `op(a, b)`, loop overhead removed."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        for a, b in pairs:
            op(a, b)
        t1 = perf_counter()
        for a, b in pairs:
            pass
        t2 = perf_counter()
        times.append(((t1 - t0) - (t2 - t1)) / len(pairs) * 1e9)
    return statistics.median(times)


def _field_pairs(p, k, n=100000):
    from ffperiods.fields import FqField

    field = FqField(p, k)
    elems = [x for x in field.elements() if not x.is_zero()]
    rng = random.Random(1)
    pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(n)]
    pairs[0][0] * pairs[0][1]  # the first multiplication builds the log tables
    return pairs


def mul_F9_ns():
    return _per_op_ns(lambda a, b: a * b, _field_pairs(3, 2))


def add_F9_ns():
    return _per_op_ns(lambda a, b: a + b, _field_pairs(3, 2))


def mul_F256_ns():
    return _per_op_ns(lambda a, b: a * b, _field_pairs(2, 8))


def irreducibles_F4_d5_s():
    from ffperiods.fields import FqField, monic_irreducibles

    t0 = perf_counter()
    monic_irreducibles(FqField(2, 2), 5)
    return perf_counter() - t0


def _dense_series(n, seed):
    from ffperiods.fields import FqField
    from ffperiods.series import TruncSeries

    field = FqField(3, 2)
    elems = [x for x in field.elements() if not x.is_zero()]
    rng = random.Random(seed)
    return TruncSeries(field, {i: rng.choice(elems) for i in range(n)}, prec=n)


def _median_ms(fn, reps):
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _series_mul_ms(n, reps):
    a, b = _dense_series(n, 1), _dense_series(n, 2)
    return _median_ms(lambda: a * b, reps)


def _series_inv_ms(n, reps):
    a = _dense_series(n, 3)
    return _median_ms(a.inv, reps)


def mul_n50_ms():
    return _series_mul_ms(50, 15)


def mul_n200_ms():
    return _series_mul_ms(200, 5)


def inv_n50_ms():
    return _series_inv_ms(50, 5)


def inv_n200_ms():
    return _series_inv_ms(200, 1)


def extend_lift_ms():
    """F_9((z)), then X^2 + zX - z, then X^3 + pi X - pi (each step forces a
    fixed-point re-expansion), and a dense base element lifted to the top."""
    from ffperiods.towers import LocalFieldTower

    def once():
        base = LocalFieldTower.base(9, bound=10 ** 6)
        z = base.uniformizer()
        t2 = base.extend_eisenstein([-z, z])
        pi = t2.uniformizer()
        t3 = t2.extend_eisenstein([-pi, pi, t2.zero()])
        t3.lift(base.element({i: base.residue.gen for i in range(24)}, prec=24))

    once()  # field construction and embeddings, paid once per session
    return _median_ms(once, 5)


def recursion_ms():
    """The twisted recursion l_0 = -z, l_n^2 + z l_n = l_(n-1) over F_2 to depth 3."""
    from ffperiods.towers import LocalFieldTower, solve_frobenius_recursion

    def once():
        tower = LocalFieldTower.base(2, bound=10 ** 6)
        solve_frobenius_recursion(tower, tower.uniformizer(), 2, 3)

    once()
    return _median_ms(once, 5)


def tame_ms():
    """LocalGaloisDatum.tame over the whole omega-deep grid, once, as a
    session pays it: groups, classes and mu values from the Kummer towers."""
    from ffperiods.lfunctions import LocalGaloisDatum

    from workloads import tame_data

    t0 = perf_counter()
    for q_v, f, e in tame_data():
        LocalGaloisDatum.tame(q_v, f, e)
    return (perf_counter() - t0) * 1e3


def bridge_ms():
    """The A-motive bridge at the degree-2 place t^2 + t + 1 over F_2: the
    local shtuka to depth 4, its determinant and the hat order at zeta."""
    from ffperiods.amotive import (amotive_to_local_shtuka, carlitz_model,
                                   shtuka_determinant, z_series_hat_order)
    from ffperiods.fields import FqField, PolyFq

    place = PolyFq(FqField(2, 1), [1, 1, 1])

    def once():
        model = carlitz_model(2, place)
        det = shtuka_determinant(amotive_to_local_shtuka(model, place, depth=4), 5)
        if z_series_hat_order(det, model.tower.uniformizer()) != 1:
            raise AssertionError("bridge hat order is not 1")

    once()
    return _median_ms(once, 5)


KERNELS = {
    "fields.k.mul_F9_ns": mul_F9_ns,
    "fields.k.add_F9_ns": add_F9_ns,
    "fields.k.mul_F256_ns": mul_F256_ns,
    "fields.k.irreducibles_F4_d5_s": irreducibles_F4_d5_s,
    "series.k.mul_n50_ms": mul_n50_ms,
    "series.k.mul_n200_ms": mul_n200_ms,
    "series.k.inv_n50_ms": inv_n50_ms,
    "series.k.inv_n200_ms": inv_n200_ms,
    "towers.k.extend_lift_ms": extend_lift_ms,
    "towers.k.recursion_ms": recursion_ms,
    "lfunctions.k.tame_ms": tame_ms,
    "amotive.k.bridge_ms": bridge_ms,
}


def main(argv):
    sys.path.insert(0, argv[1])
    print(json.dumps({"value": KERNELS[argv[2]]()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
