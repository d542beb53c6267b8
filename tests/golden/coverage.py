"""List the functions of src/ffperiods that no golden corpus job enters.

Usage, from the repository root:

    PYTHONPATH=src python tests/golden/coverage.py [--records PATH] [--cover]

Replays every record of tests/golden/corpus.json in this process, as
tests/test_golden.py does, under sys.setprofile, and records each function
and method of src/ffperiods that gets entered.  It prints every function
that was neither entered nor named in ALLOWED below, and every ALLOWED
pattern that matches no function, or only functions that were entered, one
a line, and exits 1 if it printed anything.

--records PATH replays only the record ids listed in that JSON file.
--cover replays the whole corpus, then writes to tests/golden/cover.json
a small set of record ids that together enter everything the corpus
enters, checked by replaying that set in a fresh interpreter.
tests/test_coverage.py replays the set, so a tier-1 run keeps this check.

The replay runs from a cold start: the profiler is set before ffperiods is
imported, so functions called at import time count, and the field and
period caches start empty, so work that a warm cache would skip counts.
"""

import argparse
import ast
import fnmatch
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus.json")
COVER = os.path.join(HERE, "cover.json")
sys.path.insert(0, os.path.dirname(HERE))

# Functions that no corpus job enters and that stay anyway: a pattern
# (fnmatch, on "module.Qualname") per line, grouped by the reason.
ALLOWED = {
    "the reprs, hashes, equality, copying and immutability of public classes": (
        "*.__repr__", "*.__hash__", "*.__eq__", "records.FrozenRecord.__reduce__",
        "records.FrozenRecord.__setattr__",
    ),
    "the CM-type routes and the Galois group law, on a path with ROADMAP items 8 and 12": (
        "cmshtuka.CMComponent.degree", "cmshtuka.CMAlgebra.embeddings",
        "cmshtuka.LocalShtukaStd.*", "cmshtuka.std_shtuka", "cmshtuka.component_uniformizer",
        "cmshtuka.PeriodElement.zeta_coeffs", "cmshtuka.tau_invariant_unit_part",
        "cmshtuka._lift_eps", "cmshtuka.ScalingData.*", "cmshtuka.integral_u_omega",
        "cmshtuka._unit_factor_w*", "cmshtuka.cm_period_valuation",
        "cmshtuka.averaged_period_valuation", "cmshtuka.galois_character_check",
        "cmshtuka._omega_from_family.<locals>.expand",
        "lfunctions.cm_characters", "lfunctions.cm_characters.<locals>.d_of",
        "lfunctions.LocalGaloisDatum.compose", "lfunctions.LocalGaloisDatum.inverse",
        "lfunctions.LocalGaloisDatum.conjugate",
        "lfunctions.LocalGaloisDatum.from_table.<locals>.inverse",
    ),
    "the root solvers those routes call (ROADMAP item 8)": (
        "towers._newton", "towers.newton_root", "towers.newton_root.<locals>.*",
        "towers.unit_nth_root", "towers.unit_nth_root_with_extension",
        "towers.solve_additive_twist", "towers._residue_twist_root",
        "towers.TowerElem.frobenius_power", "towers.TowerElem.coeff_frobenius",
        "towers.TowerElem.scale_residue_int", "towers.TameAut.__mul__",
        "towers.TameAut.inverse", "towers.LocalFieldTower.level_uniformizer",
        "coeffseries.poly_at_series", "series.TruncSeries.frobenius_coeffs",
    ),
    "the A-motive bridge, on a path once each Carlitz place is certified (ROADMAP item 10)": (
        "amotive.*",
    ),
    "called from src/ on inputs the corpus does not reach": (
        "fields._embedding.<locals>.embed", "fields._embedding.<locals>.embed_prime",
        "series.TruncSeries.map_coeffs", "towers._is_below",
    ),
    "called by the benchmark (bench/kernels.py)": (
        "towers.LocalFieldTower.element",
    ),
    "formats the totals of carlitz.CrossCheckError messages": (
        "lfunctions.LogQValue.__str__",
    ),
}


def package_dir():
    """src/ffperiods, found without importing it."""
    return importlib.util.find_spec("ffperiods").submodule_search_locations[0]


def functions(pkg):
    """{(path, first line): "module.Qualname"} for every def in the package.
    The first line is that of the code object: the first decorator's."""
    out = {}
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(pkg, fname))
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[path, line] = name
                    walk(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, fname[:-3] + ".")
    return out


def load_records(ids_path=None):
    with open(CORPUS, encoding="utf-8") as fh:
        records = json.load(fh)["records"]
    if ids_path is None:
        return records
    with open(ids_path, encoding="utf-8") as fh:
        ids = json.load(fh)
    by_id = {r["id"]: r for r in records}
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise SystemExit("record ids not in the corpus: %r" % missing)
    return [by_id[i] for i in ids]


def replay_traced(records):
    """[set of (path, first line) entered] per record, from a cold start."""
    per_record, entered = [], set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        from golden_replay import replay  # imports ffperiods under the profiler
        with tempfile.TemporaryDirectory() as workdir:
            for rec in records:
                replay(rec, workdir)
                per_record.append(set(entered))
                entered.clear()
    finally:
        sys.setprofile(None)
    return [{(os.path.realpath(f), line) for f, line in s} for s in per_record]


def report(names, entered):
    """The lines to print: functions neither entered nor allowed, then
    allow-list patterns that match no function, or only entered ones."""
    patterns = [p for group in ALLOWED.values() for p in group]
    unentered = [name for key, name in sorted(names.items()) if key not in entered]
    lines = ["not entered: " + name for name in unentered
             if not any(fnmatch.fnmatchcase(name, p) for p in patterns)]
    for p in patterns:
        if not fnmatch.filter(names.values(), p):
            lines.append("allow-list entry matches nothing: " + p)
        elif not fnmatch.filter(unentered, p):
            lines.append("allow-list entry matches only entered functions: " + p)
    return lines


def greedy_cover(per_record, names):
    """Indices of a few records whose union enters every function the
    corpus enters."""
    sets = [s & names.keys() for s in per_record]
    left, chosen = set().union(*sets), []
    while left:
        best = max(range(len(sets)), key=lambda i: len(sets[i] & left))
        chosen.append(best)
        left -= sets[best]
    return chosen


def write_cover(records, per_record, names):
    """Write the cover set, then replay it in a fresh interpreter, which
    starts colder than the full replay did and so should enter no less."""
    with open(COVER, "w", encoding="utf-8") as fh:
        json.dump([records[i]["id"] for i in greedy_cover(per_record, names)], fh,
                  indent=0, ensure_ascii=False)
        fh.write("\n")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--records", COVER],
                          capture_output=True, text=True)
    if proc.returncode or proc.stdout or proc.stderr:
        raise SystemExit("the cover set, replayed alone, reports:\n" + proc.stdout + proc.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", help="JSON list of the record ids to replay")
    parser.add_argument("--cover", action="store_true",
                        help="write a small set of records that enters the same functions")
    args = parser.parse_args()
    names = functions(package_dir())
    records = load_records(args.records)
    per_record = replay_traced(records)
    lines = report(names, set().union(*per_record))
    for line in lines:
        print(line)
    if args.cover and not lines:
        write_cover(records, per_record, names)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
