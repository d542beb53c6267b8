"""The benchmark's workloads: fixed job pools and the seeded pick from them.

A job is one `ffperiods` command line plus what the oracle needs to check
its output.  Each workload draws, for every stratum of its pool, one job
chosen by the seed.  Strata group jobs of like cost, so the load is
comparable across seeds while the inputs differ.  The strata run in a fixed
order: jobs share field tables, embeddings and the live heap, so the order
decides which job pays for them.  Within a session every job is distinct;
jobs share only what the mathematics shares (the same q_v, the same residue
field).  Why each workload exists is stated once, in BENCHMARK.json.
"""

import random
from dataclasses import dataclass, field

# omega-deep: raise the tower cap so max_recursion_depth reaches 3 on the
# small data (it stops at the cap of 3 or at this bound).
DEEP_TOWER_BOUND = "100000"
# big-residue: depth 1 over q_v up to 2^18 needs towers of degree ~ e q_v^2.
BIG_TOWER_BOUND = "1000000000000"


@dataclass(frozen=True)
class Job:
    """One CLI call.  `cm` is (q_v, f, e) for omega jobs: the runner writes
    that cm.json and substitutes its path for the "{cm}" argument."""

    id: str
    argv: tuple
    env: dict = field(default_factory=dict)
    kind: str = "omega"  # "carlitz" or "omega"
    params: dict = field(default_factory=dict)
    cm: tuple = None


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple  # each a tuple of interchangeable Jobs
    # inputs that fail at the seed commit; run apart from the timed sessions
    known_failures: tuple = ()

    def jobs(self, seed):
        rng = random.Random("%s:%d" % (self.name, seed))
        return [rng.choice(stratum) for stratum in self.strata]


def carlitz_job(q, max_degree, depth):
    return Job(
        id="carlitz q=%d deg<=%d depth=%d" % (q, max_degree, depth),
        argv=("carlitz", "--q", str(q), "--max-degree", str(max_degree),
              "--depth", str(depth), "--format", "json"),
        kind="carlitz",
        params={"q": q, "max_degree": max_degree},
    )


def omega_job(q_v, f, e, phi, psi, env, depth=None):
    argv = ("omega", "--cm", "{cm}", "--phi", "(0,%d,%d)" % phi, "--psi", "(0,%d,%d)" % psi)
    if depth is not None:
        argv += ("--depth", str(depth))
    return Job(
        id="omega q_v=%d f=%d e=%d phi=(0,%d,%d) psi=(0,%d,%d)" % ((q_v, f, e) + phi + psi),
        argv=argv,
        env={"FFP_TOWER_BOUND": env},
        params={"q_v": q_v, "f": f, "e": e, "phi": phi, "psi": psi},
        cm=(q_v, f, e),
    )


# (q, max_degree, depth): 28 to 506 places each.  No other job has the same
# cost as one of these, so this workload's inputs do not depend on the seed.
CARLITZ_GRID = ((2, 10, 1), (3, 5, 2), (4, 5, 1), (5, 3, 2), (7, 3, 1), (8, 2, 2),
                (9, 3, 1), (11, 3, 2), (13, 2, 1), (16, 2, 2))


def tame_data():
    """(q_v, f, e) with q_v <= 9, f <= 3, e <= 8, e | q_v^f - 1, q_v^f <= 81."""
    out = []
    for q_v in (2, 3, 4, 5, 7, 8, 9):
        for f in (1, 2, 3):
            if q_v ** f > 81:
                continue
            out.extend((q_v, f, e) for e in range(1, 9) if (q_v ** f - 1) % e == 0)
    return out


def translates(f, e, shape):
    """The pairs (phi, phi + shape) for every embedding phi = (j, k): the same
    valuation case with the same cost, moved around the component."""
    dj, dk = shape
    return [((j, k), ((j + dj) % f, (k + dk) % e)) for j in range(f) for k in range(e)]


def pair_shape(index, f, e):
    """Cycle the three closed-form cases (phi = psi, same residue part,
    different residue part) over the data, where the datum has them."""
    shapes = [(0, 0)] + ([(0, 1)] if e > 1 else []) + ([(1, 0)] if f > 1 else [])
    return shapes[index % len(shapes)]


BIG_FIELDS = tuple(sorted([2 ** k for k in range(8, 19)]
                          + [3 ** 7, 3 ** 8, 3 ** 9, 5 ** 5, 7 ** 4, 11 ** 3, 13 ** 3]))
# the log tables stop at 2^17 (fields._LOG_TABLE_LIMIT), so any e > 1 at
# 2^18, which needs a root of unity, dies with "field too large for log tables"
TABLE_LIMIT = 2 ** 17


def big_residue_stratum(index, q_v):
    """The smallest e > 1 dividing q_v - 1, which needs a root of unity and so
    the log tables, where the tables exist; e = 1 otherwise.  The cost moves
    with e, so e is fixed and the seed picks among the translates."""
    e = min([e for e in range(2, 9) if (q_v - 1) % e == 0 and q_v <= TABLE_LIMIT] or [1])
    return tuple(omega_job(q_v, 1, e, phi, psi, BIG_TOWER_BOUND, depth=1)
                 for phi, psi in translates(1, e, pair_shape(index, 1, e)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="carlitz-sweep",
            strata=tuple((carlitz_job(*qdd),) for qdd in CARLITZ_GRID),
        ),
        Workload(
            name="omega-deep",
            strata=tuple(
                tuple(omega_job(q_v, f, e, phi, psi, DEEP_TOWER_BOUND)
                      for phi, psi in translates(f, e, pair_shape(i, f, e)))
                for i, (q_v, f, e) in enumerate(tame_data())
            ),
        ),
        Workload(
            name="big-residue",
            strata=tuple(big_residue_stratum(i, q_v) for i, q_v in enumerate(BIG_FIELDS)),
            known_failures=tuple(
                omega_job(2 ** 18, 1, e, (0, 0), (0, 1), BIG_TOWER_BOUND, depth=1)
                for e in (3, 7)
            ),
        ),
    )
}
