"""The pinned slice of `tools/corpus_digest.py`'s corpus.

Every other corpus entry is classified and verified in process, and the
sha256 of the answers must match `PINNED`.  A change that alters an answer
on purpose records the new digest here (`python3 tools/corpus_digest.py
--digest` prints it) and lists the change.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = {
    "entries": 215,
    "sha256": "59899ae0854bc7ab426552a87da8f7b26305f3843961b94b20cb7757036002d1",
}


def _tool():
    spec = importlib.util.spec_from_file_location("corpus_digest", ROOT / "tools" / "corpus_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_slice_answers_match_the_pinned_digest():
    tool = _tool()
    entries = tool.corpus()[tool.SLICE]
    assert len(entries) == PINNED["entries"]
    assert tool.digest(tool.answer(entries)) == PINNED["sha256"]


def test_corpus_covers_every_source_and_family():
    entries = _tool().corpus()
    sources = {entry["id"].split("/")[0] for entry in entries}
    assert sources == {"random_descriptor", "inputs", "fixture", "finite_image"}
    families = {entry["family"] for entry in entries}
    assert families == {
        "rank_one_q", "bsbar", "metabelian_h31", "lattice_by_z", "asc_hnn_kb", "affine_q2"
    }
