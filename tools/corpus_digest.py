"""Compare the classify and verify answers of two commits over a fixed corpus.

    python3 tools/corpus_digest.py --parent <rev> --change <rev>
    python3 tools/corpus_digest.py --digest

The corpus is built once, from this checkout, and is the same for both
commits:
  - `random_descriptor` draws from `tests/test_classifier.py`
  - `perfbench/inputs.py` descriptors of every family (read, not changed)
  - the descriptor files under `perfbench/fixtures`
  - affine groups whose linear image is {I, A} for a reflection A

Each commit answers it in a fresh `git archive`, in one child process whose
hirsch3 comes from that tree: `hirsch3 classify --format json` and
`hirsch3 verify --seed 0 --trials 5` per entry, each as (exit code, output
without the envelope's version, error text).  The entries that differ are
printed grouped by command, family and exit-code transition.

`--digest` answers the pinned slice (every other entry) with this checkout
and prints its sha256, the value that `tests/test_corpus_digest.py` pins.
A change that alters an answer on purpose records the new value there.  Standard library only, apart from the `random_descriptor` draws,
which import hirsch3 and the test suite.
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
import tarfile
import tempfile
from collections import defaultdict
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
TRIALS = 5
COUNTS = {"random_descriptor": 240, "inputs": 10, "finite_image": 120}  # inputs: per family
SLICE = slice(None, None, 2)
EXAMPLES = 3  # entries printed per group of differences


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# --- the corpus -------------------------------------------------------------------


def _random_descriptor_entries(count: int) -> list[dict]:
    for path in (ROOT / "src", ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
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


def corpus() -> list[dict]:
    """Every entry as {"id", "family", "text"}, in a fixed order."""
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
    """Each entry's classify and verify answers, with the hirsch3 on sys.path."""
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
            })
    return out


def digest(answers: list[dict]) -> str:
    return hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()


# --- two commits ------------------------------------------------------------------


def _answers_at(commit: str, corpus_file: str, scratch: str | None) -> list[dict]:
    tar = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tempfile.TemporaryDirectory(dir=scratch) as tree:
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(tree)
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
        for command in ("classify", "verify"):
            if old[command] != new[command]:
                key = (command, old["family"], old[command][0], new[command][0])
                groups[key].append(old["id"])
    return groups


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
            before = _summary(by_id["parent"][entry_id][command])
            after = _summary(by_id["change"][entry_id][command])
            print(f"  {entry_id}: {before!r} -> {after!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
