"""One repetition of a workload, in a fresh interpreter.

``run.py`` starts this file once per repetition, so hirsch3's process-wide
caches (``verify._aff6_pow``, ``verify._mat_pow_cached`` and
``classify._analyze_affine``) start empty, as they do for every CLI user.
The loop is closed: one operation at a time, no threads.

Set-up (importing hirsch3, writing descriptor files, generating inputs)
ends when the first operation starts.  Each operation is timed alone; its
answer is checked after the clock stops.  The last line of standard output
is one JSON object with the repetition's numbers.

    python3 perfbench/rep.py --workload word_problem --seed 1 --rep 0 \
        --trace 0 --spawned-at <time.perf_counter() of the parent>

Times are scaled to a reference CPU speed by ``speed.SpeedProbe``;
``--spawned-at`` shares the probe's clock, CLOCK_MONOTONIC on Linux.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from speed import SpeedProbe  # noqa: E402

FIXTURE_DIR = HERE / "fixtures"
REFERENCE = json.loads((HERE / "reference.json").read_text())


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    # returns None when the answer is right, else what is wrong with it
    check: Callable[[object], Optional[str]]


def _cli(argv: list[str]):
    """Run ``hirsch3 <argv>`` in process; (exit code, stdout)."""
    from hirsch3 import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _write(work: Path, name: str, text: str) -> str:
    path = work / name
    path.write_text(text)
    return str(path)


# --- verify_fixtures ------------------------------------------------------------


def verify_fixtures(seed: int, rep: int, work: Path) -> list[Op]:
    vseed = (seed + rep) % (1 << 64)
    expected_sha = REFERENCE["verify_sha256_seed0"] if vseed == 0 else {}
    ops = []
    for name, code in REFERENCE["verify_exit_codes"].items():
        path = _write(work, f"{name}.toml", (FIXTURE_DIR / f"{name}.toml").read_text())

        def check(result, name=name, code=code):
            got_code, out = result
            if got_code != code:
                return f"verify {name}: exit {got_code}, expected {code}"
            if name in expected_sha:
                digest = hashlib.sha256(out.encode()).hexdigest()
                if digest != expected_sha[name]:
                    return f"verify {name} at seed 0: report sha256 {digest} differs"
            return None

        argv = ["verify", path, "--seed", str(vseed)]
        ops.append(Op(name, lambda argv=argv: _cli(argv), check))
    return ops


# --- word_problem ---------------------------------------------------------------

WP_DESCRIPTORS = 6  # per family and repetition
WP_PAIRS = 60  # per descriptor
WP_MAX_LENGTH = 24


def word_problem(seed: int, rep: int, work: Path) -> list[Op]:
    from hirsch3 import verify
    from hirsch3.cli import load_descriptor_file
    from hirsch3.families import ops_for
    from hirsch3.words import Word

    ops = []
    for family, make in inputs.GENERATORS.items():
        rng = inputs.rng_for("word_problem", seed, f"{rep}:{family}")
        for k in range(WP_DESCRIPTORS):
            desc = make(rng)
            loaded = load_descriptor_file(_write(work, f"{family}{k}.toml", desc.text))
            group = ops_for(loaded.descriptor)
            for _ in range(WP_PAIRS):
                w1 = inputs.random_word(rng, desc.generators, WP_MAX_LENGTH)
                forced = rng.random() < 0.5
                if forced:
                    w2 = inputs.insert_relators(rng, w1, desc)
                else:
                    w2 = inputs.random_word(rng, desc.generators, WP_MAX_LENGTH)
                pair = (Word.of(w1), Word.of(w2))

                # looked up at call time, so a traced run sees the call
                def run(group=group, g=loaded.descriptor, pair=pair):
                    normal = group.word_eq(*pair)
                    try:
                        return normal, verify.oracle_word_eq(g, *pair)
                    except verify.VerifyResourceError:
                        return normal, None

                def check(result, forced=forced, family=family):
                    normal, oracle = result
                    if oracle is None:
                        return f"{family}: oracle budget skip"
                    if normal != oracle:
                        return f"{family}: normal form says {normal}, oracle {oracle}"
                    if forced and not normal:
                        return f"{family}: relator-equal words evaluate unequal"
                    return None

                ops.append(Op(family, run, check))
    return ops


# --- long_words -----------------------------------------------------------------

# (fixture, base word, exponent): ``(base)^k`` goes through the quadratic
# ``Word.__pow__`` of the parser and then the family's normal form;
# ``y^k`` is one syllable and goes through the linear ``affine_pow``.  The
# exponents are sized so that each of these super-linear paths costs
# between 0.2 and 1 s per operation at the parent commit.
LONG_WORDS = (
    ("bs12_rtimes", "t u a", 500),
    ("bs12_rtimes", "t u a t^-1", 600),
    ("z_plus_z2", "s x", 200),
    ("d_infty_amalgam", "u v", 500),
    ("d_infty_amalgam", "y", 8000),
    ("f_mod_kprime", "v x", 500),
    ("lattice_sol", "t a", 600),
    ("lattice_asc", "t a", 600),
    ("bsbar_23", "t a", 600),
)


def long_words(seed: int, rep: int, work: Path) -> list[Op]:
    from hirsch3.cli import load_descriptor_file
    from hirsch3.verify import oracle_word_eq
    from hirsch3.words import Word

    rng = inputs.rng_for("long_words", seed, str(rep))
    ops = []
    for fixture, base, k0 in LONG_WORDS:
        path = _write(work, f"{fixture}.toml", (FIXTURE_DIR / f"{fixture}.toml").read_text())
        gens, relators = inputs.FIXTURE_PRESENTATIONS[fixture]
        k = k0 + rng.randint(0, k0 // 20)
        base_word = inputs.parse_simple_word(base)
        if len(base_word) == 1:
            text1, word1 = f"{base}^{k}", [(base_word[0][0], k)]
        else:
            text1, word1 = f"({base})^{k}", base_word * k
        if rng.random() < 0.5:
            conj = inputs.random_word(rng, gens, 4)
            suffix = conj + list(rng.choice(relators)) + inputs.inverse(conj)
        else:
            suffix = [(rng.choice(gens), rng.choice((1, -1)))]
        text2 = f"{text1} {inputs.format_word(suffix)}"
        argv = ["word-eq", path, text1, text2]
        words = (word1, word1 + suffix)

        def check(result, path=path, words=words):
            code, out = result
            if code != 0:
                return f"word-eq {path}: exit {code}"
            desc = load_descriptor_file(path).descriptor
            expected = oracle_word_eq(desc, *(Word.of(inputs.reduce_word(w)) for w in words))
            verdict = out.split("\n", 1)[0]
            if verdict != ("equal" if expected else "unequal"):
                return f"word-eq {path}: printed {verdict!r}, oracle says {expected}"
            return None

        ops.append(Op(fixture, lambda argv=argv: _cli(argv), check))
    return ops


# --- classify_sweep -------------------------------------------------------------

# per repetition: generated descriptors per family, those with 6-7 digit
# parameters, and simplify round trips
CS_PER_FAMILY = 15
CS_LARGE = 4
CS_SIMPLIFY = 20
GOLDEN = (
    "bs12_rtimes",
    "bsbar_23",
    "d_infty_amalgam",
    "f_mod_kprime",
    "lattice_asc",
    "lattice_sol",
    "nonconstructible_ratios",
    "z_plus_z2",
)


def unique_stream(rng, make, count: int, seen: set, key=lambda x: x.text) -> list:
    """The first ``count`` items of ``make(rng)`` whose keys are not in
    ``seen``; their keys are added to it."""
    out = []
    misses = 0
    while len(out) < count:
        item = make(rng)
        if key(item) in seen:
            misses += 1
            if misses > 10 * count + 1000:
                raise RuntimeError("input space too small for a run without repeats")
            continue
        seen.add(key(item))
        out.append(item)
    return out


def classify_inputs(seed: int, rep: int):
    """Repetition ``rep``'s descriptors, and (StandardForm, presentation
    text) pairs, none repeated.  A repetition is a fresh interpreter, so
    ``_analyze_affine``'s cache starts empty in each; uniqueness within the
    repetition is enough for the cache never to answer a descriptor."""
    seen: set = set()

    def chunk(label, make, count, key=lambda x: x.text):
        rng = inputs.rng_for("classify_sweep", seed, f"{label}:{rep}")
        return unique_stream(rng, make, count, seen, key)

    generated = []
    for family, make in inputs.GENERATORS.items():
        if family == "bsbar":
            make = lambda rng: inputs.bsbar(rng, hi=60)  # noqa: E731
        generated += chunk(family, make, CS_PER_FAMILY)
    generated += chunk(
        "bsbar-large", lambda rng: inputs.bsbar(rng, lo=10**5, hi=10**7 - 1), CS_LARGE
    )

    def expanded(rng):
        sf = inputs.standard_form(rng)
        return sf, inputs.expanded_presentation(rng, sf, rng.randint(1, 3))

    forms = chunk("simplify", expanded, CS_SIMPLIFY, key=lambda x: x[1])
    return generated, forms


def classify_sweep(seed: int, rep: int, work: Path) -> list[Op]:
    golden_dir = ROOT / "tests" / "golden"
    golden = {}
    for name in GOLDEN + tuple(inputs.AFFINE_FIXTURES):
        data = json.loads((golden_dir / f"{name}.json").read_text())
        data.pop("version")
        golden[name] = data
    generated, forms = classify_inputs(seed, rep)
    ops = []

    def classify_op(label, path, check):
        argv = ["classify", path, "--format", "json"]
        return Op(label, lambda: _cli(argv), check)

    def envelope(result):
        code, out = result
        if code != 0:
            raise ValueError(f"exit {code}")
        data = json.loads(out)
        data.pop("version")
        return data

    for name in GOLDEN:
        path = _write(work, f"{name}.toml", (FIXTURE_DIR / f"{name}.toml").read_text())

        def check(result, name=name):
            try:
                data = envelope(result)
            except ValueError as exc:
                return f"classify {name}: {exc}"
            return None if data == golden[name] else f"classify {name}: envelope differs from golden"

        ops.append(classify_op(name, path, check))

    for idx, desc in enumerate(generated):
        path = _write(work, f"gen{idx}.toml", desc.text)

        def check(result, desc=desc, path=path):
            try:
                report = envelope(result)["report"]
            except ValueError as exc:
                return f"classify {path}: {exc}"
            if desc.conjugate_of is not None:
                if report != golden[desc.conjugate_of]["report"]:
                    return f"classify {path}: conjugate of {desc.conjugate_of} reports differently"
            elif report["hirsch_length"] != inputs.FAMILY_HIRSCH[desc.family]:
                return f"classify {path}: hirsch length {report['hirsch_length']}"
            return None

        ops.append(classify_op(desc.family, path, check))

    for idx, (sf, text) in enumerate(forms):
        path = _write(work, f"pres{idx}.txt", text)

        def check(result, sf=sf, path=path):
            code, out = result
            if code != 0:
                return f"simplify {path}: exit {code}"
            first = out.split("\n", 1)[0]
            return None if first == sf.line() else f"simplify {path}: {first!r}, expected {sf.line()!r}"

        ops.append(Op("simplify", lambda argv=["simplify", path]: _cli(argv), check))

    # interleave the kinds, the same way on every run
    inputs.rng_for("classify_sweep", seed, f"order:{rep}").shuffle(ops)
    return ops


# each workload function takes (seed, rep, work dir) and writes its input
# files to the work dir
WORKLOADS = {
    "verify_fixtures": verify_fixtures,
    "word_problem": word_problem,
    "long_words": long_words,
    "classify_sweep": classify_sweep,
}


# --- one repetition ---------------------------------------------------------------


def _cpu() -> float:
    """User plus system CPU seconds of this process and its children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run(args, probe: SpeedProbe) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import hirsch3

    if Path(hirsch3.__file__).resolve().parent != ROOT / "src" / "hirsch3":
        raise RuntimeError(f"imported hirsch3 from {hirsch3.__file__}, not from {ROOT}/src")
    scratch = ROOT / ".perfbench" / "work"
    scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        ops = WORKLOADS[args.workload](args.seed, args.rep, work)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        setup_end = time.perf_counter()
        if args.setup_only:
            probe.stop()
            return {
                "setup_s": probe.scaled(args.spawned_at, setup_end),
                "raw_setup_s": setup_end - args.spawned_at,
            }
        spans, failures, results = [], [], []
        cpu0 = _cpu()
        for idx, op in enumerate(ops):
            if tracer is not None:
                tracer.op, tracer.op_label = idx, op.label
                span = tracer.begin("op")
            t0 = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # a crash in hirsch3 is a failed op
                result, error = None, f"{op.label}: {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end(span)
            spans.append((t0, t1))
            results.append((op, result, error))
        cpu = _cpu() - cpu0
        # before the checks, which build words and results of their own
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probe.stop()
        if tracer is not None:
            tracer.uninstall()
        for op, result, error in results:
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:  # e.g. the reference oracle gave up
                    error = f"{op.label}: check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append(error)
        loop = (spans[0][0], spans[-1][1])
        out = {
            "setup_s": probe.scaled(args.spawned_at, setup_end),
            "raw_setup_s": setup_end - args.spawned_at,
            "latencies": [probe.scaled(t0, t1) for t0, t1 in spans],
            "raw_latencies": [t1 - t0 for t0, t1 in spans],
            "cpu_s": probe.scaled(*loop, cpu=cpu),
            "raw_cpu_s": cpu,
            "peak_rss_mb": peak_rss_mb,
            "failures": failures,
        }
        if tracer is not None:
            spans_dir = ROOT / ".perfbench" / "trace"
            spans_dir.mkdir(parents=True, exist_ok=True)
            spans_file = spans_dir / f"{args.workload}-seed{args.seed}-rep{args.rep}.tsv"
            tracing.write_spans(tracer.spans, spans_file)
            out["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters)
            out["op_coverage"] = tracing.op_coverage(tracer.spans)
            out["spans"] = len(tracer.spans)
            out["spans_file"] = str(spans_file.relative_to(ROOT))
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    probe = SpeedProbe()
    probe.start()
    print(json.dumps(run(args, probe)))


if __name__ == "__main__":
    main()
