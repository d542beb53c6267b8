"""Byte identity of the CLI: replay the golden corpus in this process.

Every record of tests/golden/corpus.json must give the same exit code and
the same stdout and stderr bytes (compared by sha256) as when it was
recorded.  A deliberate output change rewrites the corpus with
tests/golden/rewrite.py and names the changed records in CHANGES.md.
"""

import json
import os

from golden_replay import replay

CORPUS = os.path.join(os.path.dirname(__file__), "golden", "corpus.json")


def test_golden_corpus_replays_byte_identical(tmp_path):
    with open(CORPUS, encoding="utf-8") as fh:
        records = json.load(fh)["records"]
    changed = []
    for rec in records:
        got = replay(rec, str(tmp_path))
        want = {k: rec[k] for k in got}
        if got != want:
            changed.append((rec["id"], want, got))
    assert not changed, "%d of %d records changed, first: %r" % (
        len(changed), len(records), changed[:3])
