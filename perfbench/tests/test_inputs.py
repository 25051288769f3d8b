"""Seeded inputs: the same seed gives the same bytes, another seed other
bytes, and a classify_sweep run never repeats a descriptor."""

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import rep  # noqa: E402

ROOT = HERE.parent


def _descriptor_texts(seed: int) -> list[str]:
    texts = []
    for family, make in inputs.GENERATORS.items():
        rng = inputs.rng_for("test", seed, family)
        texts += [make(rng).text for _ in range(5)]
    return texts


def _words(seed: int) -> list:
    out = []
    for family, make in inputs.GENERATORS.items():
        rng = inputs.rng_for("test", seed, family)
        desc = make(rng)
        for _ in range(10):
            w1 = inputs.random_word(rng, desc.generators, 24)
            out += [w1, inputs.insert_relators(rng, w1, desc)]
    return out


def _workload_files(workload: str, seed: int, rep_index: int) -> dict[str, bytes]:
    """Descriptor files and op arguments a repetition's set-up produces."""
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ops = rep.WORKLOADS[workload](seed, rep_index, work)
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    files["ops"] = repr([op.label for op in ops]).encode()
    return files


def test_same_seed_same_bytes():
    assert _descriptor_texts(3) == _descriptor_texts(3)
    assert _words(3) == _words(3)
    for workload in ("word_problem", "classify_sweep", "long_words"):
        assert _workload_files(workload, 3, 1) == _workload_files(workload, 3, 1)


def test_other_seed_other_bytes():
    assert _descriptor_texts(3) != _descriptor_texts(4)
    assert _words(3) != _words(4)
    for workload in ("word_problem", "classify_sweep"):
        assert _workload_files(workload, 3, 0) != _workload_files(workload, 4, 0)


def test_classify_sweep_never_repeats_a_descriptor():
    for seed in (0, 1):
        for rep_index in range(8):
            generated, forms = rep.classify_inputs(seed, rep_index)
            keys = [d.text for d in generated] + [text for _, text in forms]
            assert len(set(keys)) == len(keys)


def test_large_parameters_have_six_or_seven_digits():
    generated, _ = rep.classify_inputs(0, 0)
    large = generated[-rep.CS_LARGE :]
    for desc in large:
        values = dict(line.split(" = ") for line in desc.text.splitlines())
        assert desc.family == "bsbar"
        assert all(6 <= len(values[k].lstrip("-")) <= 7 for k in ("m", "n"))
