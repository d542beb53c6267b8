"""Rewrite the golden corpus of CLI output (tests/golden/corpus.json).

Usage, from the repository root:

    PYTHONPATH=src python tests/golden/rewrite.py [--out PATH]

Runs every job below in this process and records its argv, environment,
inline input files, exit code and the sha256 of its stdout and stderr.
tests/test_golden.py replays the corpus and wants every record unchanged.
Rewrite it only for a deliberate change of output, and list the records
that change in CHANGES.md.

The jobs: every job of the benchmark's omega-deep and big-residue pools
(with big-residue's known failures) and of carlitz-sweep, read from
bench/workloads.py; a fixed, seeded sample of tame omega jobs off those
pools; the README's examples; and one job for each message the CLI exits 2
(or 1) with.
"""

import argparse
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(ROOT, "bench")]

from ffperiods.cmshtuka import DEFAULT_TOWER_BOUND  # noqa: E402
from golden_replay import replay  # noqa: E402
from workloads import BIG_FIELDS, WORKLOADS, tame_data  # noqa: E402


def cm_text(q_v, f, e):
    """The cm.json that bench/run.py writes for an omega job."""
    return json.dumps({"schema": "1", "q_v": q_v,
                       "components": [{"f": f, "e": e, "tame": True}]})


def job(id, argv, files=None, env=None):
    files = {name: text if isinstance(text, str) else json.dumps(text)
             for name, text in (files or {}).items()}
    return {"id": id, "argv": list(argv), "env": dict(env or {}), "files": files}


def pool_jobs():
    out = []
    for name in ("omega-deep", "big-residue", "carlitz-sweep"):
        w = WORKLOADS[name]
        for j in [j for stratum in w.strata for j in stratum] + list(w.known_failures):
            files = {"cm.json": cm_text(*j.cm)} if j.cm else {}
            argv = [a.replace("{cm}", "cm.json") for a in j.argv]
            out.append(job("%s: %s" % (name, j.id), argv, files, j.env))
    return out


# the off-grid sample: tame data with q_v <= 32, residue fields up to 2^10
# and e <= 12 that no pool holds, at the default tower bound (None) and a few
# raised ones; each job's bound admits at least depth 0, and psi - phi takes
# every shape in turn
OFF_GRID_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)
OFF_GRID_BOUNDS = (None, None, None, 256, 4096, 100000)
OFF_GRID_SHAPES = ((0, 0), (0, 1), (1, 0), (1, 1))  # psi - phi in (j, k)


def off_grid_jobs(count=50):
    pooled = set(tame_data()) | {(q, 1, e) for q in BIG_FIELDS for e in range(1, 13)}
    data = [(q_v, f, e) for q_v in OFF_GRID_QS for f in range(1, 11) if q_v ** f <= 1024
            for e in range(1, 13) if (q_v ** f - 1) % e == 0 and (q_v, f, e) not in pooled]
    rng = random.Random("golden off-grid sample")
    out, ids = [], set()
    while len(out) < count:
        dj, dk = OFF_GRID_SHAPES[len(out) % len(OFF_GRID_SHAPES)]
        fits = {b: [(q, f, e) for q, f, e in data if f > dj and e > dk
                    and f * e * (q ** f - 1) <= (b or DEFAULT_TOWER_BOUND)] for b in OFF_GRID_BOUNDS}
        bound = rng.choice([b for b in OFF_GRID_BOUNDS if fits[b]])
        q_v, f, e = rng.choice(fits[bound])
        j, k = rng.randrange(f), rng.randrange(e)
        phi, psi = "(0,%d,%d)" % (j, k), "(0,%d,%d)" % ((j + dj) % f, (k + dk) % e)
        rec = omega("off-grid q_v=%d f=%d e=%d phi=%s psi=%s bound=%s"
                    % (q_v, f, e, phi, psi, bound or "default"), cm_text(q_v, f, e), phi, psi,
                    env={} if bound is None else {"FFP_TOWER_BOUND": str(bound)})
        if rec["id"] not in ids:
            ids.add(rec["id"])
            out.append(rec)
    return out


README_CM = {"schema": "1", "q_v": 3, "components": [
    {"f": 1, "e": 2, "tame": True},
    {"f": 1, "e": 2, "tame": False, "diff_valuation": "3/2", "pairwise": [[0, 1, "1/2"]]}],
    "cm_type": {"(0,0,0)": 1}}
README_TAME = {"schema": "1", "q_v": 2, "mode": "tame", "f": 2, "e": 3}
README_TABLE = {"schema": "1", "q_v": 2, "mode": "table", "elements": ["id", "g"],
                "table": {"id": {"id": "id", "g": "g"}, "g": {"id": "g", "g": "id"}},
                "inertia": ["id", "g"], "frobenius_coset": ["id", "g"],
                "mu": {"id": "1/2", "g": "-1/2"}}
README_REG = {"schema": "1", "q": 2, "genus": 0, "character": "trivial",
              "explicit": [{"label": "t", "degree": 1, "x": "-1/1"}]}


def readme_jobs():
    return [
        job("readme: carlitz table", ["carlitz", "--q", "2", "--max-degree", "2",
                                      "--depth", "2", "--format", "table"]),
        job("readme: carlitz json", ["carlitz", "--q", "3", "--format", "json"]),
        job("readme: omega", ["omega", "--cm", "cm.json", "--phi", "(0,0,0)",
                              "--psi", "(0,0,1)"], {"cm.json": README_CM}),
        job("readme: omega wild component", ["omega", "--cm", "cm.json", "--phi", "(1,0,0)",
                                             "--psi", "(1,0,1)"], {"cm.json": README_CM}),
        job("readme: zv trivial", ["zv", "--galois", "galois.json", "--char", "trivial"],
            {"galois.json": README_TAME}),
        job("readme: zv pair", ["zv", "--galois", "galois.json", "--char", "pair",
                                "--phi", "(1,0)", "--psi", "(0,0)"],
            {"galois.json": README_TAME}),
        job("readme: zv table", ["zv", "--galois", "galois.json", "--char", "trivial"],
            {"galois.json": README_TABLE}),
        job("readme: zv tame f = 40", ["zv", "--galois", "galois.json", "--char", "trivial"],
            {"galois.json": dict(README_TAME, q_v=4, f=40, e=1)}),
        job("readme: regularize", ["regularize", "--config", "reg.json"],
            {"reg.json": README_REG}),
    ]


TAME_CM = {"schema": "1", "q_v": 3, "components": [{"f": 1, "e": 2, "tame": True}]}
TABLE_NO_MU = {k: v for k, v in README_TABLE.items() if k != "mu"}
USER_REG = {"schema": "1", "q": 2, "genus": 0, "character": "user",
            "l_infty": {"num": ["1"], "den": ["1"]}}


def omega(id, cm, phi="(0,0,0)", psi="(0,0,0)", extra=(), env=None):
    return job("omega: " + id, ["omega", "--cm", "cm.json", "--phi", phi, "--psi", psi]
               + list(extra), {"cm.json": cm}, env)


def zv(id, galois, extra=(), char=None):
    files = {"galois.json": galois}
    argv = ["zv", "--galois", "galois.json"] + list(extra)
    if char is not None:
        files["char.json"] = char
        argv += ["--char-file", "char.json"]
    return job("zv: " + id, argv, files)


def regularize(id, config):
    return job("regularize: " + id, ["regularize", "--config", "reg.json"],
               {"reg.json": config})


def message_jobs():
    """One job per exit-2 message of the CLI, and its exit-1 messages that
    plain input reaches."""
    return [
        job("argparse: not an integer", ["carlitz", "--q", "x"], env={"COLUMNS": "80"}),
        job("carlitz: not a prime power", ["carlitz", "--q", "6"]),
        job("carlitz: q above 16", ["carlitz", "--q", "1000003"]),
        job("carlitz: max-degree below 1", ["carlitz", "--q", "2", "--max-degree", "0"]),
        job("carlitz: negative depth", ["carlitz", "--q", "2", "--depth", "-1"]),
        job("omega: missing file", ["omega", "--cm", "missing.json", "--phi", "(0,0,0)",
                                    "--psi", "(0,0,0)"]),
        omega("not JSON", "{\"schema\": "),
        omega("wrong schema", {"schema": "0", "q_v": 2}),
        omega("not an object", []),
        omega("q_v not a prime power", dict(TAME_CM, q_v=6)),
        omega("q_v a string", dict(TAME_CM, q_v="3")),
        omega("bad component", dict(TAME_CM, components=[{"f": 0, "e": 1}])),
        omega("f not a JSON integer",
              '{"schema": "1", "q_v": 3, "components": [{"f": 1e400, "e": 2}]}'),
        omega("tame not a bool", dict(TAME_CM, components=[{"f": 1, "e": 2, "tame": "false"}])),
        omega("pairwise index not an integer",
              dict(TAME_CM, components=[{"f": 1, "e": 2, "pairwise": [[0, 1.9, "1/2"]]}])),
        omega("components not a list of objects", dict(TAME_CM, components="ab")),
        omega("no components", dict(TAME_CM, components=[])),
        omega("cm_type not a map", dict(TAME_CM, cm_type=[])),
        omega("cm_type value not an integer", dict(TAME_CM, cm_type={"(0,0,0)": "a"})),
        omega("malformed embedding", TAME_CM, phi="(0,0)"),
        omega("missing component", TAME_CM, phi="(1,0,0)"),
        omega("embedding out of range", TAME_CM, psi="(0,0,2)"),
        omega("components differ", dict(TAME_CM, components=TAME_CM["components"] * 2),
              psi="(1,0,0)"),
        omega("wild component without tables",
              dict(TAME_CM, components=[{"f": 1, "e": 2, "tame": False}])),
        omega("negative depth", TAME_CM, extra=["--depth", "-1"]),
        omega("FFP_TOWER_BOUND not an integer", TAME_CM, env={"FFP_TOWER_BOUND": "abc"}),
        omega("FFP_TOWER_BOUND below 1", TAME_CM, env={"FFP_TOWER_BOUND": "-5"}),
        omega("tower above the cap", TAME_CM, psi="(0,0,1)", extra=["--depth", "40"]),
        omega("cap below depth 0", TAME_CM, env={"FFP_TOWER_BOUND": "1"}),
        omega("explicit depth above the cap, checked before the field is built",
              {"schema": "1", "q_v": 256, "components": [{"f": 32, "e": 1, "tame": True}]},
              extra=["--depth", "0"]),
        omega("tower degree too long to print",
              {"schema": "1", "q_v": 2, "components": [{"f": 20000, "e": 1}]}),
        omega("twelve-digit prime q_v",
              {"schema": "1", "q_v": 999999999989,
               "components": [{"f": 1, "e": 1, "tame": True}]}),
        zv("q_v not a prime power", dict(README_TAME, q_v=6)),
        zv("bad tame datum", dict(README_TAME, e=0)),
        zv("f not a JSON integer", '{"schema": "1", "q_v": 2, "mode": "tame", "f": 1e400, "e": 3}'),
        zv("bad table datum", dict(README_TABLE, table={"id": README_TABLE["table"]["id"]})),
        zv("unknown mode", dict(README_TAME, mode="wild")),
        zv("class function without values", README_TAME, char={"schema": "1", "values": []}),
        zv("class function misses a value", README_TAME,
           char={"schema": "1", "values": {"(0,0)": "1"}}),
        zv("bad rational", README_TABLE, char={"schema": "1", "values": {"id": "1/0", "g": 1}}),
        zv("rational not a string", README_TABLE,
           char={"schema": "1", "values": {"id": 0.5, "g": 1}}),
        zv("pair on a table datum", README_TABLE, ["--char", "pair", "--phi", "(0,0)",
                                                   "--psi", "(0,0)"]),
        zv("pair without psi", README_TAME, ["--char", "pair", "--phi", "(0,0)"]),
        zv("malformed pair", README_TAME, ["--char", "pair", "--phi", "(0)", "--psi", "(0,0)"]),
        zv("pair out of range", README_TAME, ["--char", "pair", "--phi", "(0,0)",
                                              "--psi", "(5,-3)"]),
        zv("mu missing", TABLE_NO_MU, ["--char", "trivial"]),
        regularize("q not a prime power", dict(README_REG, q=6)),
        regularize("genus not an integer", dict(README_REG, genus="a")),
        regularize("no l_infty", {k: v for k, v in USER_REG.items() if k != "l_infty"}),
        regularize("zero l_infty denominator",
                   dict(USER_REG, l_infty={"num": ["1"], "den": ["0"]})),
        regularize("l_infty not a map", dict(USER_REG, l_infty=[])),
        regularize("explicit not a list", dict(README_REG, explicit=5)),
        regularize("row degree not an integer",
                   dict(README_REG, explicit=[{"degree": "a", "x": "1"}])),
        regularize("row degree below 1", dict(README_REG, explicit=[{"degree": 0, "x": "1"}])),
        regularize("user row without z_v_at_1",
                   dict(USER_REG, explicit=[{"degree": 1, "x": "1"}])),
        regularize("rational too long to print",
                   dict(README_REG, explicit=[{"label": "t", "degree": 20000, "x": "1"}])),
        regularize("row degree too large to build",
                   dict(README_REG, q=3, explicit=[{"label": "t", "degree": 10 ** 8, "x": "1"}])),
        regularize("pole at s = 0 (exit 1)",
                   dict(USER_REG, l_infty={"num": ["1"], "den": ["1", "-1"]})),
    ]


def jobs():
    return pool_jobs() + off_grid_jobs() + readme_jobs() + message_jobs()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=os.path.join(HERE, "corpus.json"))
    args = parser.parse_args()
    records = []
    with tempfile.TemporaryDirectory() as workdir:
        for rec in jobs():
            rec.update(replay(rec, workdir))
            records.append(rec)
    ids = [r["id"] for r in records]
    if len(set(ids)) != len(ids):
        raise SystemExit("duplicate record ids")
    lines = ",\n".join(json.dumps(r, ensure_ascii=False) for r in records)
    with open(args.out, "w", encoding="utf-8") as fh:  # one record a line
        fh.write('{"schema": "1", "records": [\n%s\n]}\n' % lines)
    print("%d records written to %s" % (len(records), args.out))


if __name__ == "__main__":
    main()
