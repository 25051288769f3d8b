"""The pinned slice of `tools/corpus_digest.py`'s corpus.

Every other corpus entry is classified, verified and asked `word-eq` on
its seeded word pairs in process, and the sha256 of the answers must match
`PINNED`.  A change that alters an answer on purpose records the new digest
here (`python3 tools/corpus_digest.py --digest` prints it) and lists the
change.
"""

from __future__ import annotations

import corpus_digest

PINNED = {
    "entries": 238,
    "sha256": "dcc5b4b90399b63272bae0a17cb2cf6364cd52ab06cada3a4c1e47a6af8e3f8a",
}


def test_corpus_slice_answers_match_the_pinned_digest():
    entries = corpus_digest.corpus()[corpus_digest.SLICE]
    assert len(entries) == PINNED["entries"]
    assert corpus_digest.digest(corpus_digest.answer(entries)) == PINNED["sha256"]


def test_corpus_covers_every_source_and_family():
    entries = corpus_digest.corpus()
    sources = {entry["id"].split("/")[0] for entry in entries}
    assert sources == {
        "random_descriptor", "inputs", "fixture", "finite_image", "embedded", "heisenberg"
    }
    families = {entry["family"] for entry in entries}
    assert families == {
        "rank_one_q", "bsbar", "metabelian_h31", "lattice_by_z", "asc_hnn_kb", "affine_q2"
    }
