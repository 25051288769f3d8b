"""Benchmark for hirsch3: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a source checkout; hirsch3 is imported from the
checkout's ``src`` directory and never installed.  Every repetition runs in
a fresh interpreter (``rep.py``), one after another.

``--trace 0`` repeats the workload until ``--seconds`` would be exceeded and
reports the end-to-end metrics.  ``--trace 1`` runs repetition 0 once
untraced and once with spans around every layer's public functions, and
reports the per-layer metrics plus the tracing overhead.

The last line of standard output is the result object; the line before it
records the machine, the code and the run's details.  Both are also written
to ``.perfbench/results/``.  A failed or wrong answer counts in ``failed``;
a run that cannot be carried out exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from rep import WORKLOADS  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 150


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong answer)."""


def spawn(
    workload: str,
    seed: int,
    rep: int,
    trace: int = 0,
    setup_only: bool = False,
) -> dict:
    spawned_at = time.perf_counter()
    cmd = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--rep", str(rep),
        "--trace", str(trace),
        "--spawned-at", repr(spawned_at),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # a fixed hash seed keeps set and dict layouts, and so the per-layer
    # counts, identical from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"repetition {rep} of {workload} ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise HarnessError(f"repetition {rep} of {workload} exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(latencies: list[float]):
    """The highest of a few percentiles with at least ten samples beyond
    it (nearest rank), as (percentile, seconds); None when too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str], int]:
    spawn(workload, seed, 0, setup_only=True)  # compiles bytecode; not counted
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        reps.append(spawn(workload, seed, len(reps)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    probes = []
    while len(reps) + len(probes) < SETUP_SAMPLES:
        probes.append(spawn(workload, seed, 0, setup_only=True))

    def summary(prefix: str) -> dict:
        latencies = [x for r in reps for x in r[prefix + "latencies"]]
        tail = tail_latency(latencies)
        return {
            "setup_s": statistics.median(r[prefix + "setup_s"] for r in reps + probes),
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1000,
            "cpu_s": statistics.median(r[prefix + "cpu_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "op_tail_ms": None
            if tail is None
            else {"percentile": tail[0], "value": tail[1] * 1000, "samples": len(latencies)},
        }

    metrics = summary("")
    detail = {
        "repetitions": len(reps),
        "setup_samples": len(reps) + len(probes),
        "op_tail_ms": metrics.pop("op_tail_ms"),
        "unscaled": summary("raw_"),
    }
    failures = [f for r in reps for f in r["failures"]]
    return metrics, detail, failures, sum(len(r["latencies"]) for r in reps)


def measure_traced(workload: str, seed: int) -> tuple[dict, dict, list[str], int]:
    spawn(workload, seed, 0, setup_only=True)
    plain = spawn(workload, seed, 0)
    traced = spawn(workload, seed, 0, trace=1)

    def overhead(prefix: str) -> float:
        return sum(traced[prefix + "latencies"]) / sum(plain[prefix + "latencies"]) - 1

    metrics = dict(traced["layers"])
    # wall time, unscaled: the speed probe's chunk runs inside the measured
    # process and may itself slow down with the tracer's work
    metrics["trace.overhead"] = overhead("raw_")
    metrics["trace.op_coverage"] = traced["op_coverage"]
    detail = {
        "spans": traced["spans"],
        "spans_file": traced["spans_file"],
        "scaled_overhead": overhead(""),
    }
    failures = plain["failures"] + traced["failures"]
    return metrics, detail, failures, len(plain["latencies"]) + len(traced["latencies"])


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hirsch3").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into an exception, so subprocess.run kills the running
    # repetition before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "hirsch3" / "__init__.py").is_file():
        print(f"error: no hirsch3 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            values, detail, failures, attempted = measure_traced(args.workload, args.seed)
            units = dict(PER_LAYER)
        else:
            values, detail, failures, attempted = measure(args.workload, args.seed, args.seconds)
            units = dict(END_TO_END)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        **detail,
        "failures": failures[:20],
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"detail": detail, "result": result}, indent=2) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
