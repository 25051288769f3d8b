"""Spans around the public functions of each hirsch3 layer.

The benchmark's own wrappers replace module and class attributes of
hirsch3, including the names one module imported from another (such as
``classify.prime_factors``), so every call through a public name records a
span: name, start, end, parent span and operation id.  Spans stay in
memory and are written out when the run ends.  Nothing here runs unless a
traced run installs it; the untraced runs never import this module's
wrappers into hirsch3.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

FAMILY_TAGS = {
    "RankOneQ": "rank_one_q",
    "BSbar": "bsbar",
    "MetabelianH31": "metabelian_h31",
    "LatticeByZ": "lattice_by_z",
    "AscHNNKb": "asc_hnn_kb",
    "AffineQ2": "affine_q2",
}
TAGS = tuple(FAMILY_TAGS.values())
VERIFY_FIXTURES = (
    "d_infty_amalgam",
    "z_plus_z2",
    "f_mod_kprime",
    "bsbar_23",
    "bs12_rtimes",
    "lattice_sol",
    "lattice_asc",
    "corrupted_d_infty",
)
CLASSIFY_STEPS = (
    "hirsch_length",
    "radical_info",
    "quotient_type",
    "derived_length",
    "is_polycyclic",
    "fp_status",
    "cohomological_dimension",
    "coherence_status",
    "minimax_series",
)
CLI_COMMANDS = ("classify", "verify", "word-eq", "simplify")


def _per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out: list[tuple[str, str]] = []
    for tag in TAGS:
        out += [
            (f"families.of_word.{tag}.calls", "count"),
            (f"families.of_word.{tag}.letters", "count"),
            (f"families.of_word.{tag}.self_s", "s"),
            (f"families.mul_inv.{tag}.calls", "count"),
            (f"families.mul_inv.{tag}.self_s", "s"),
            (f"families.max_bits.{tag}", "bits"),
        ]
    out += [(f"verify.run_harness.{name}.s", "s") for name in VERIFY_FIXTURES]
    for step in ("check_relations", "radical_certificate", "fp_cone_bruteforce", "endo_index"):
        out.append((f"verify.{step}.self_s", "s"))
    out += [
        ("verify.oracle_word_eq.calls", "count"),
        ("verify.oracle_word_eq.self_s", "s"),
        ("verify.oracle_word_eq.budget_skips", "count"),
        ("verify.commutator_depth_search.calls", "count"),
        ("verify.commutator_depth_search.self_s", "s"),
        ("verify.rewrite_closure_eq.calls", "count"),
        ("verify.rewrite_closure_eq.self_s", "s"),
        ("verify.rewrite_closure_eq.undecided", "count"),
        ("words.parse_word.calls", "count"),
        ("words.parse_word.self_s", "s"),
        ("words.parse_word.letters_out", "count"),
        ("words.parse_presentation.self_s", "s"),
        ("rationals.prime_factors.calls", "count"),
        ("rationals.prime_factors.self_s", "s"),
        ("rationals.prime_factors.max_digits", "digits"),
        ("rationals.mult_rank.self_s", "s"),
        ("rationals.conjugate_to_integral.self_s", "s"),
        ("rationals.Mat2Q.pow.calls", "count"),
        ("rationals.Mat2Q.pow.self_s", "s"),
    ]
    for tag in TAGS:
        out += [(f"classify.classify.{tag}.calls", "count"), (f"classify.classify.{tag}.self_s", "s")]
    out += [(f"classify.{step}.self_s", "s") for step in CLASSIFY_STEPS]
    out += [
        ("simplify.standardize.calls", "count"),
        ("simplify.standardize.self_s", "s"),
        ("simplify.expand_standard_form.self_s", "s"),
    ]
    out += [(f"cli.main.{cmd}.self_s", "s") for cmd in CLI_COMMANDS]
    out += [
        ("cli.load_descriptor_file.self_s", "s"),
        ("trace.overhead", "ratio"),
        ("trace.op_coverage", "ratio"),
    ]
    return out


PER_LAYER = _per_layer_names()


# --- recording ------------------------------------------------------------------


class Tracer:
    """Spans as lists ``[name, start, end, parent, op]``; parent -1 is a
    top-level span.  Counters are keyed by metric name."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self.op_label = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, after=None, on_error=None):
        """``fn`` recording one span per call.  ``name`` is a string or a
        function of the call's arguments; ``after(label, args, result)`` and
        ``on_error(label, exc)`` update counters outside the span."""

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = self.begin(label)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.end(idx)
                if on_error is not None:
                    on_error(label, exc)
                raise
            self.end(idx)
            if after is not None:
                after(label, args, result)
            return result

        return traced

    def patch_function(self, module, attr: str, name, after=None, on_error=None) -> None:
        """Replace ``module.attr`` and every hirsch3 module global bound to
        the same function object."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, after, on_error)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("hirsch3"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name, after=None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, after))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] += amount

    def raise_to(self, key: str, value: int) -> None:
        if value > self.counters[key]:
            self.counters[key] = value


def bit_size(x) -> int:
    """Largest numerator, denominator or integer bit length inside x."""
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, tuple):
        return max((bit_size(v) for v in x), default=0)
    if dataclasses.is_dataclass(x):
        return max((bit_size(getattr(x, f.name)) for f in dataclasses.fields(x)), default=0)
    return 0


def _letters(word) -> int:
    return sum(abs(e) for _, e in word.syllables)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer named in PER_LAYER."""
    from hirsch3 import cli, classify, families, rationals, simplify, verify, words

    def tag_of(desc) -> str:
        return FAMILY_TAGS[type(desc).__name__]

    def element_bits(label, args, result):
        tag = label.split(".")[2]
        tracer.raise_to(f"families.max_bits.{tag}", bit_size(result))

    def of_word_done(label, args, result):
        tracer.bump(f"{label}.letters", _letters(args[1]))
        element_bits(label, args, result)

    ops_cls = families.GroupOps
    tracer.patch_method(ops_cls, "of_word", lambda a: f"families.of_word.{tag_of(a[0].desc)}", of_word_done)
    for attr in ("mul", "inv"):
        tracer.patch_method(ops_cls, attr, lambda a: f"families.mul_inv.{tag_of(a[0].desc)}", element_bits)

    def budget_skip(label, exc):
        if isinstance(exc, verify.VerifyResourceError):
            tracer.bump("verify.oracle_word_eq.budget_skips")

    def closure_done(label, args, result):
        if result is None:
            tracer.bump("verify.rewrite_closure_eq.undecided")

    tracer.patch_function(verify, "run_harness", lambda a: f"verify.run_harness.{tracer.op_label}")
    for step in ("check_relations", "radical_certificate", "fp_cone_bruteforce", "endo_index", "commutator_depth_search"):
        tracer.patch_function(verify, step, f"verify.{step}")
    tracer.patch_function(verify, "oracle_word_eq", "verify.oracle_word_eq", on_error=budget_skip)
    tracer.patch_function(verify, "rewrite_closure_eq", "verify.rewrite_closure_eq", closure_done)

    def parsed(label, args, result):
        tracer.bump("words.parse_word.letters_out", _letters(result))

    tracer.patch_function(words, "parse_word", "words.parse_word", parsed)
    tracer.patch_function(words, "parse_presentation", "words.parse_presentation")

    def factored(label, args, result):
        tracer.raise_to("rationals.prime_factors.max_digits", len(str(abs(args[0]))))

    tracer.patch_function(rationals, "prime_factors", "rationals.prime_factors", factored)
    tracer.patch_function(rationals, "mult_rank", "rationals.mult_rank")
    tracer.patch_function(rationals, "conjugate_to_integral", "rationals.conjugate_to_integral")
    tracer.patch_method(rationals.Mat2Q, "pow", "rationals.Mat2Q.pow")

    tracer.patch_function(classify, "classify", lambda a: f"classify.classify.{tag_of(a[0])}")
    for step in CLASSIFY_STEPS:
        tracer.patch_function(classify, step, f"classify.{step}")

    tracer.patch_function(simplify, "standardize", "simplify.standardize")
    tracer.patch_function(simplify, "expand_standard_form", "simplify.expand_standard_form")

    tracer.patch_function(cli, "main", lambda a: f"cli.main.{a[0][0]}")
    tracer.patch_function(cli, "load_descriptor_file", "cli.load_descriptor_file")


# --- analysis -------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval covered by the
    union of its child spans' intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_metrics(spans, counters) -> dict[str, float]:
    """Every PER_LAYER metric except the two ``trace.`` ratios, which need
    the untraced run; a layer that never ran reports zero."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        calls[name] += 1
        self_s[name] += own
        total_s[name] += span[2] - span[1]
    out: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if metric in counters:
            out[metric] = counters[metric]
        elif kind == "calls":
            out[metric] = calls.get(base, 0)
        elif kind == "self_s":
            out[metric] = self_s.get(base, 0.0)
        elif kind == "s":
            out[metric] = total_s.get(base, 0.0)
        else:
            out[metric] = 0
    return out


def op_coverage(spans) -> float:
    """Share of the top-level op spans' time that layer spans cover."""
    op_time = 0.0
    op_self = 0.0
    for span, own in zip(spans, self_times(spans)):
        if span[3] < 0:
            op_time += span[2] - span[1]
            op_self += own
    return (op_time - op_self) / op_time if op_time else 0.0


def write_spans(spans, path) -> None:
    with open(path, "w") as out:
        out.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
        for idx, (name, start, end, parent, op) in enumerate(spans):
            out.write(f"{op}\t{idx}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
