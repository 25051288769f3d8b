"""Run the benchmark on two commits in alternating pairs and write BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent <rev> --change <rev> --number <n> \
        --claim long_words ops_per_s --first-seed 31 \
        --workloads long_words=10 verify_fixtures=4 word_problem=4 classify_sweep=4

Each run is ``python3 perfbench/run.py --workload <w> --seed <s> --seconds
25 --trace 0`` inside a fresh ``git archive`` of its commit, so no run sees
bytecode or results that an earlier run left behind.  Pair i of a workload
runs both sides at seed first_seed + i; the parent runs first in even pairs
and the change in odd ones.  The output has the shape of BENCH_13.json plus
a ``summary``: per workload and end-to-end metric, each side's median and
quartiles, the pairs the change won (ties count for neither side) and a
``verdict``, and per workload each side's total of failed operations.

The verdict (`verdict`) reads the metric's relative ``bound`` in
BENCHMARK.json and is, checked in order: "ok" when every change run beats
every parent run; "unresolved" when the parent's interquartile range is
more than the bound times its median; "worse" when the change's median is
worse than the parent's by more than the bound times the parent's median;
else "ok".  Every metric that is not "ok" is printed on stderr.

``--claim`` is optional; without it the report's ``claimed`` is null.  A
claim holds (`claim_holds`) when the change wins at least nine tenths of
the claimed workload's pairs, the medians differ by more than the parent's
interquartile range, and no more operations fail at the change than at the
parent.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 25  # the run length of the pair protocol


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def archive(commit: str) -> bytes:
    return subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout


@contextlib.contextmanager
def extracted(tar: bytes, scratch: str | None) -> Iterator[str]:
    """A fresh directory holding the archive `tar`, removed on exit."""
    with tempfile.TemporaryDirectory(dir=scratch) as tree:
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(tree)
        yield tree


def run_once(tar: bytes, workload: str, seed: int, scratch: str | None) -> dict:
    """The result object of one benchmark run in a fresh tree of `tar`."""
    with extracted(tar, scratch) as tree:
        cmd = [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """"ok", "unresolved" or "worse" for one metric's runs; see the module
    docstring."""
    sign = 1 if better == "higher" else -1
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "ok"
    spread = quartiles(parent)
    limit = bound * abs(spread["median"])
    if spread["q3"] - spread["q1"] > limit:
        return "unresolved"
    if sign * (statistics.median(change) - spread["median"]) < -limit:
        return "worse"
    return "ok"


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric, given as BENCHMARK.json's entry with its "better" and
    "bound": each side's median and quartiles, the change's wins and the
    verdict; under "failed", each side's total of failed operations."""
    out: dict = {"failed": {"parent": 0, "change": 0}}
    for run in runs:
        out["failed"][run["side"]] += run["result"]["failed"]
    for metric, spec in metrics.items():
        by_pair: dict[int, dict[str, float]] = {}
        for run in runs:
            value = run["result"]["metrics"][metric]["value"]
            by_pair.setdefault(run["pair"], {})[run["side"]] = value
        sign = 1 if spec["better"] == "higher" else -1
        parent = [p["parent"] for p in by_pair.values()]
        change = [p["change"] for p in by_pair.values()]
        out[metric] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(by_pair),
            "verdict": verdict(parent, change, spec["better"], spec["bound"]),
        }
    return out


def claim_holds(summary: dict, metric: str) -> bool:
    """Whether one workload's summary bears out a gain in `metric`."""
    claim = summary[metric]
    parent_iqr = claim["parent"]["q3"] - claim["parent"]["q1"]
    return (
        claim["change_wins"] >= 0.9 * claim["pairs"]
        and abs(claim["change"]["median"] - claim["parent"]["median"]) > parent_iqr
        and summary["failed"]["change"] <= summary["failed"]["parent"]
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision measured as the parent")
    parser.add_argument("--change", required=True, help="revision measured as the change")
    parser.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    parser.add_argument("--workloads", nargs="+", required=True, metavar="NAME=PAIRS")
    parser.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"),
                        help="the gain to test; omitted when the change claims none")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--scratch", help="directory for the extracted trees")
    args = parser.parse_args()

    plan = {}
    for item in args.workloads:
        name, _, pairs = item.partition("=")
        if not pairs.isdigit() or int(pairs) < 1:
            parser.error(f"--workloads entry {item!r} is not NAME=PAIRS")
        plan[name] = int(pairs)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    metrics = {m["name"]: m for m in end_to_end}
    if args.claim:
        claimed_workload, claimed_metric = args.claim
        if claimed_workload not in plan:
            parser.error(f"the claimed workload {claimed_workload!r} is not in --workloads")
        if claimed_metric not in metrics:
            parser.error(f"{claimed_metric!r} is not an end-to-end metric of BENCHMARK.json")
    commits = {side: git("rev-parse", "--short", rev) for side, rev in
               (("parent", args.parent), ("change", args.change))}
    tars = {side: archive(commit) for side, commit in commits.items()}

    runs: dict[str, list[dict]] = {}
    for workload, pairs in plan.items():
        runs[workload] = []
        for pair in range(pairs):
            seed = args.first_seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(tars[side], workload, seed, args.scratch)
                runs[workload].append({"side": side, "pair": pair, "seed": seed, "result": result})
                ops = result["metrics"]["ops_per_s"]["value"]
                print(f"{workload} pair {pair} seed {seed} {side}: {ops:.1f} ops/s, "
                      f"failed {result['failed']}", file=sys.stderr, flush=True)

    summary = {workload: summarize(rs, metrics) for workload, rs in runs.items()}
    claimed = None
    if args.claim:
        claimed = {
            "workload": claimed_workload,
            "metric": claimed_metric,
            "pairs": plan[claimed_workload],
            "seeds": f"{args.first_seed}-{args.first_seed + plan[claimed_workload] - 1}",
            "holds": claim_holds(summary[claimed_workload], claimed_metric),
        }
    report = {
        "change": git("log", "-1", "--format=%s", args.change),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        "command": (
            f"python3 perfbench/run.py --workload <w> --seed <seed> --seconds "
            f"{SECONDS} --trace 0, each run in a fresh git archive of its "
            "commit, alternating which side runs first"
        ),
        "claimed": claimed,
        "summary": summary,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, by_metric in summary.items():
        for metric in metrics:
            if by_metric[metric]["verdict"] != "ok":
                print(f"{workload} {metric}: {by_metric[metric]['verdict']}", file=sys.stderr)
    outcome = "no claim" if claimed is None else (
        f"claim {'holds' if claimed['holds'] else 'does not hold'}")
    print(f"wrote {out.name}; {outcome}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
