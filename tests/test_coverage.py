"""Every function of src/ffperiods is entered by a CLI job, or is allowed.

tests/golden/coverage.py replays the golden corpus under sys.setprofile and
lists the functions that no record enters and its allow-list does not
name, and the allow-list entries that name nothing unentered.  This replays
the records of tests/golden/cover.json, which together enter everything the
whole corpus enters (`coverage.py --cover` picks them), in a fresh
interpreter: this process has imported ffperiods and warmed its caches
already, so it would miss what only an import or a cold cache runs.
"""

import os
import subprocess
import sys

import ffperiods

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")


def test_cover_set_enters_every_function_off_the_allow_list():
    src = os.path.dirname(os.path.dirname(ffperiods.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, os.path.join(GOLDEN, "coverage.py"),
                           "--records", os.path.join(GOLDEN, "cover.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
