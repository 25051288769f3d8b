"""Compare the classify, verify and word-eq answers of two commits over a
fixed corpus.

    python3 tools/corpus_digest.py --parent <rev> --change <rev>
    python3 tools/corpus_digest.py --digest

The corpus is built once, from this checkout, and is the same for both
commits; each entry carries its three seeded `word-eq` pairs, drawn on the
generator names that this checkout's hirsch3 reads from the entry:
  - `random_descriptor` draws from `tests/test_classifier.py`
  - `perfbench/inputs.py` descriptors of every family (read, not changed)
  - the descriptor files under `perfbench/fixtures`
  - affine groups whose linear image is {I, A} for a reflection A
  - each `lattice_by_z` entry embedded in `affine_q2` as a = (I, e1),
    b = (I, e2), t = (M, 0)
  - Heisenberg groups: `metabelian_h31` with m = n = p = q = 1 and
    e in {-3, -2, -1, 1, 2, 3}

Each commit answers it in a fresh `git archive`, in one child process whose
hirsch3 comes from that tree: `hirsch3 classify --format json` and
`hirsch3 verify --seed 0 --trials 5` per entry, and `hirsch3 word-eq` on
the entry's word pairs, whose output prints both normal forms; each
answer is (exit code, output without the envelope's version, error text).
The entries that differ are printed grouped by command, family and
exit-code transition.

`--digest` answers the pinned slice (every other entry) with this checkout
and prints its sha256, the value that `tests/test_corpus_digest.py` pins.
A change that alters an answer on purpose records the new value there.
Standard library only, apart from building the corpus, which imports this
checkout's hirsch3 and test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import defaultdict
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
TRIALS = 5
COUNTS = {"random_descriptor": 240, "inputs": 10, "finite_image": 120}  # inputs: per family
HEISENBERG_E = (-3, -2, -1, 1, 2, 3)
SLICE = slice(None, None, 2)
EXAMPLES = 3  # entries printed per group of differences
COMMANDS = ("classify", "verify", "word_eq")


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # `perfbench/inputs.py` defines dataclasses, and building one looks its
    # module up in `sys.modules`; hirsch3 itself has none
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# --- the corpus -------------------------------------------------------------------


def _random_descriptor_entries(count: int) -> list[dict]:
    from hirsch3.cli import serialize_descriptor_file
    from hirsch3.families import DescriptorFile, family_of
    from test_classifier import random_descriptor

    rng = random.Random(f"corpus:{SEED}:random_descriptor")
    out = []
    for idx in range(count):
        desc = random_descriptor(rng)
        text = serialize_descriptor_file(DescriptorFile(desc))
        out.append({"id": f"random_descriptor/{idx:03d}", "family": family_of(desc).tag, "text": text})
    return out


def _finite_image_text(inputs, rng: random.Random) -> str:
    """One or two translations and one or two generators over a reflection
    A (diag(1, -1) or the swap, maybe conjugated), in random order, with
    translations in (1/6) Z^2."""
    a = rng.choice(((F(1), F(0), F(0), F(-1)), (F(0), F(1), F(1), F(0))))
    if rng.random() < 0.5:
        while True:
            p = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4))
            if p[0] * p[3] != p[1] * p[2]:
                break
        a = inputs.mat_mul(inputs.mat_mul(p, a), inputs.mat_inv(p))
    parts = [(F(1), F(0), F(0), F(1))] * rng.randint(1, 2) + [a] * rng.randint(1, 2)
    rng.shuffle(parts)
    names = [f"g{idx}" for idx in range(len(parts))]
    lines = ["family = affine_q2", f"generators = {' '.join(names)}"]
    for name, m in zip(names, parts):
        shift = [F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(2)]
        lines.append(f"gen.{name}.linear = {inputs.fmt_qs(m)}")
        lines.append(f"gen.{name}.translation = {inputs.fmt_qs(shift)}")
    return "\n".join(lines) + "\n"


def _embedded_text(lattice_text: str) -> str:
    """The `affine_q2` text of a `lattice_by_z` entry's group, with its
    matrix M copied from the `matrix =` line."""
    matrix = next(line.split("=", 1)[1].strip() for line in lattice_text.splitlines()
                  if line.startswith("matrix"))
    return (
        "family = affine_q2\ngenerators = a b t\n"
        "gen.a.linear = 1 0 0 1\ngen.a.translation = 1 0\n"
        "gen.b.linear = 1 0 0 1\ngen.b.translation = 0 1\n"
        f"gen.t.linear = {matrix}\ngen.t.translation = 0 0\n"
    )


def _word(rng: random.Random, names: tuple[str, ...]) -> str:
    if not names:  # a rank-one group with no generators
        return "1"
    letters = range(rng.randint(1, 5))
    return " ".join(f"{rng.choice(names)}^{rng.choice((-2, -1, 1, 2))}" for _ in letters)


def _word_pairs(entry_id: str, names: tuple[str, ...]) -> list[list[str]]:
    """Three seeded word pairs on the entry's generators: two random words,
    a power against the same power spelled as a shorter one times its base,
    and a squared commutator against a product."""
    rng = random.Random(f"corpus:{SEED}:word_eq:{entry_id}")
    w1, w2, w3 = (_word(rng, names) for _ in range(3))
    k = rng.choice((-7, -3, 2, 5, 9))
    return [[w1, w2], [f"({w1})^{k}", f"({w1})^{k - 1} {w1}"], [f"[{w2}, {w3}]^2", f"{w3} {w2}"]]


def corpus() -> list[dict]:
    """Every entry as {"id", "family", "text", "pairs"}, in a fixed order;
    "pairs" are its `word-eq` pairs on the generator names that this
    checkout's hirsch3 reads from the text."""
    for path in (ROOT / "src", ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from hirsch3.cli import parse_descriptor_text
    from hirsch3.families import family_of

    inputs = _load(ROOT / "perfbench" / "inputs.py", "perfbench_inputs")
    out = _random_descriptor_entries(COUNTS["random_descriptor"])
    for family, make in inputs.GENERATORS.items():
        rng = inputs.rng_for("corpus", SEED, family)
        for idx in range(COUNTS["inputs"]):
            out.append({"id": f"inputs/{family}/{idx:02d}", "family": family, "text": make(rng).text})
    for path in sorted((ROOT / "perfbench" / "fixtures").glob("*.toml")):
        text = path.read_text()
        family = next(line.split("=", 1)[1].strip() for line in text.splitlines()
                      if line.startswith("family"))
        out.append({"id": f"fixture/{path.stem}", "family": family, "text": text})
    rng = random.Random(f"corpus:{SEED}:finite_image")
    for idx in range(COUNTS["finite_image"]):
        text = _finite_image_text(inputs, rng)
        out.append({"id": f"finite_image/{idx:03d}", "family": "affine_q2", "text": text})
    for entry in [e for e in out if e["family"] == "lattice_by_z"]:
        entry_id = f"embedded/{entry['id']}"
        out.append({"id": entry_id, "family": "affine_q2", "text": _embedded_text(entry["text"])})
    for idx, e in enumerate(HEISENBERG_E):
        text = f"family = metabelian_h31\nm = 1\nn = 1\np = 1\nq = 1\ne = {e}\n"
        out.append({"id": f"heisenberg/{idx}", "family": "metabelian_h31", "text": text})
    for entry in out:
        desc = parse_descriptor_text(entry["text"]).descriptor
        entry["pairs"] = _word_pairs(entry["id"], family_of(desc).generator_names(desc))
    return out


# --- answers ----------------------------------------------------------------------


def _run(argv: list[str]) -> list:
    """(exit code, stdout without the envelope's version, stderr) of one
    in-process command; a traceback counts as exit 1 with its last line."""
    from hirsch3 import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a crash is an answer too
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=err)
    text = out.getvalue()
    if text.startswith("{"):
        data = json.loads(text)
        data.pop("version", None)
        text = json.dumps(data, sort_keys=True)
    return [code, text, err.getvalue()]


def answer(entries: list[dict]) -> list[dict]:
    """Each entry's classify, verify and word-eq answers, with the hirsch3
    on sys.path."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "descriptor.toml")
        for entry in entries:
            Path(path).write_text(entry["text"])
            out.append({
                "id": entry["id"],
                "family": entry["family"],
                "classify": _run(["classify", path, "--format", "json"]),
                "verify": _run(["verify", path, "--seed", str(SEED), "--trials", str(TRIALS)]),
                "word_eq": [_run(["word-eq", path, *pair]) for pair in entry["pairs"]],
            })
    return out


def digest(answers: list[dict]) -> str:
    return hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()


# --- two commits ------------------------------------------------------------------


def _answers_at(commit: str, corpus_file: str, scratch: str | None) -> list[dict]:
    from bench_pairs import archive, extracted  # tools/ is on sys.path when run as a script

    with extracted(archive(commit), scratch) as tree:
        env = {**os.environ, "PYTHONPATH": str(Path(tree) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, str(Path(__file__).resolve()), "--answer", corpus_file]
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"answering at {commit} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def differences(parent: list[dict], change: list[dict]) -> dict:
    """(command, family, parent exit, change exit) -> the ids that differ."""
    groups: dict[tuple, list[str]] = defaultdict(list)
    for old, new in zip(parent, change):
        for command in COMMANDS:
            if old[command] != new[command]:
                key = (command, old["family"], _codes(old[command]), _codes(new[command]))
                groups[key].append(old["id"])
    return groups


def _codes(result: list):
    """The exit code of one answer, or the tuple of a word-eq list's."""
    return tuple(r[0] for r in result) if isinstance(result[0], list) else result[0]


def _summary(result: list) -> str:
    """The first line of the error text, or the exit code when there is none."""
    code, _, err = result
    return err.strip().splitlines()[0][:100] if err.strip() else f"exit {code}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="revision answered first")
    parser.add_argument("--change", help="revision compared with it")
    parser.add_argument("--digest", action="store_true", help="print the pinned slice's sha256")
    parser.add_argument("--scratch", help="directory for the extracted trees")
    parser.add_argument("--answer", metavar="CORPUS", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.answer:  # the child of one commit's tree
        import hirsch3

        here = Path.cwd().resolve() / "src" / "hirsch3"
        if Path(hirsch3.__file__).resolve().parent != here:
            raise SystemExit(f"imported hirsch3 from {hirsch3.__file__}, not from {here}")
        json.dump(answer(json.loads(Path(args.answer).read_text())), sys.stdout)
        return 0
    if args.digest:
        entries = corpus()[SLICE]
        print(f"{len(entries)} entries, sha256 {digest(answer(entries))}")
        return 0
    if not (args.parent and args.change):
        parser.error("give --parent and --change, or --digest")

    entries = corpus()
    answers = {}
    with tempfile.TemporaryDirectory(dir=args.scratch) as tmp:
        corpus_file = str(Path(tmp) / "corpus.json")
        Path(corpus_file).write_text(json.dumps(entries))
        for side, rev in (("parent", args.parent), ("change", args.change)):
            answers[side] = _answers_at(rev, corpus_file, args.scratch)
    groups = differences(answers["parent"], answers["change"])
    by_id = {side: {a["id"]: a for a in answers[side]} for side in answers}
    print(f"{len(entries)} entries; parent {args.parent}, change {args.change}")
    print(f"{sum(map(len, groups.values()))} answers differ in {len(groups)} groups")
    for (command, family, old, new), ids in sorted(groups.items()):
        print(f"{command} {family} exit {old} -> {new}: {len(ids)}")
        for entry_id in ids[:EXAMPLES]:
            before, after = by_id["parent"][entry_id][command], by_id["change"][entry_id][command]
            if command == "word_eq":  # the first pair whose answers differ
                before, after = next((o, n) for o, n in zip(before, after) if o != n)
            before, after = _summary(before), _summary(after)
            print(f"  {entry_id}: {before!r} -> {after!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
