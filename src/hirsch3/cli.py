"""Command-line front end: descriptor files in and reports out.

Descriptor files are flat key-value text.  Each non-blank line outside a
comment is `key = value`, split on the first equals sign so presentation
strings may themselves contain one.  Grammar:

    family = bsbar | metabelian_h31 | lattice_by_z | asc_hnn_kb
             | rank_one_q | affine_q2
    name = <identifier>                        (optional)
    notes = <free text>                        (optional)
    presentation = < g1, g2 | w1 = w2, ... >   (optional, one line)

    # bsbar
    m = <int>        n = <int>
    # metabelian_h31
    m, n, p, q = <int>      e = <rational like 1 or 2/3>
    # lattice_by_z
    matrix = <four space-separated rationals, row major>
    # asc_hnn_kb
    e, f, d = <int>
    # rank_one_q
    generators = <space-separated rationals>
    # affine_q2
    generators = <space-separated identifiers>
    gen.<name>.linear = <four rationals, row major>
    gen.<name>.translation = <two rationals>

Every integer, numerator and denominator of a parameter is at most 64 bits.

Exit codes: 0 success, 2 input error, 3 internal invariant violation,
4 verification failure.  Every module refuses an input by raising an
`InputError`; `main` alone prints its message as one `error:` line and
returns 2, as it does for an output integer past Python's integer-to-string
limit, and the commands print nothing before their output is built.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

from . import InputError, __version__
from .classify import ClassificationReport, InvariantViolation, classify
from .families import FAMILY_BY_TAG, DescriptorFile, family_of, ops_for
from .rationals import parse_rational, rational_bits
from .words import (
    ParseError,
    format_presentation,
    format_word,
    parse_presentation,
    parse_tree,
)

# `verify` (with `oracles`) and `simplify` are imported inside the one command
# that uses each, so a fresh `classify` or `word-eq` never loads them.

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_VERIFY = 4

# bit limit on each integer parameter and on each numerator and denominator
# of a rational one: below it deterministic Miller-Rabin is exact
MAX_PARAM_BITS = 64

# rational-list kinds of `take` and their required lengths
_LIST_COUNTS = {"rationals": None, "matrix": 4, "vector": 2}

# the shipped fixtures, in `examples list` order: each is the descriptor file
# `examples/<name>.toml` beside this module, which `examples emit` copies
EXAMPLES = (
    "d_infty_amalgam",
    "z_plus_z2",
    "f_mod_kprime",
    "bsbar_23",
    "bs12_rtimes",
    "lattice_sol",
    "lattice_asc",
)


class DescriptorFileError(InputError):
    """Malformed descriptor file; the message carries a line reference."""


# --- parsing ------------------------------------------------------------------


def _split_lines(text: str) -> list[tuple[int, str, str]]:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DescriptorFileError(
                f"line {lineno}: expected 'key = value', got {line!r}"
            )
        key, value = line.split("=", 1)
        entries.append((lineno, key.strip(), value.strip()))
    return entries


def _read_number(key: str, value: str, lineno: int, kind: str):
    """value read as an int or a rational, refused unless it parses and its
    numerator and denominator fit in MAX_PARAM_BITS."""
    read, what = (
        (int, "an integer") if kind == "int" else (parse_rational, "a rational")
    )
    try:
        x = read(value)
    except ValueError:
        raise DescriptorFileError(
            f"line {lineno}: key {key!r} expects {what}, got {value!r}"
        ) from None
    if rational_bits(x) > MAX_PARAM_BITS:
        raise DescriptorFileError(
            f"line {lineno}: key {key!r} is past the limit of {MAX_PARAM_BITS} "
            "bits for an integer, numerator or denominator"
        )
    return x


def parse_descriptor_text(text: str) -> DescriptorFile:
    entries = _split_lines(text)
    fields: dict[str, tuple[int, str]] = {}
    for lineno, key, value in entries:
        if key in fields:
            raise DescriptorFileError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = (lineno, value)

    if "family" not in fields:
        raise DescriptorFileError("missing required key 'family'")
    family_line, family = fields.pop("family")
    if family not in FAMILY_BY_TAG:
        raise DescriptorFileError(
            f"line {family_line}: unknown family {family!r}; expected one of "
            + ", ".join(FAMILY_BY_TAG)
        )

    name = fields.pop("name", (0, None))[1]
    notes = fields.pop("notes", (0, None))[1]
    presentation_text = fields.pop("presentation", (0, None))[1]
    presentation = None
    if presentation_text is not None:
        try:
            presentation = parse_presentation(presentation_text)
        except ParseError as exc:
            raise DescriptorFileError(f"presentation: {exc}") from None

    def take(key: str, kind: str):
        if key not in fields:
            raise DescriptorFileError(f"missing required key {key!r}")
        lineno, value = fields.pop(key)
        if kind == "names":
            return value.split()
        if kind in ("int", "rational"):
            return _read_number(key, value, lineno, kind)
        parts = value.split()
        count = _LIST_COUNTS[kind]
        if count is not None and len(parts) != count:
            raise DescriptorFileError(
                f"line {lineno}: key {key!r} expects {count} rationals, "
                f"got {len(parts)}"
            )
        return [_read_number(key, p, lineno, "rational") for p in parts]

    try:
        desc = FAMILY_BY_TAG[family].parse(take)
    except ValueError as exc:
        if isinstance(exc, DescriptorFileError):
            raise
        raise DescriptorFileError(f"invalid {family} parameters: {exc}") from None

    if fields:
        stray = min(fields.items(), key=lambda kv: kv[1][0])
        raise DescriptorFileError(
            f"line {stray[1][0]}: unknown key {stray[0]!r} for family {family!r}"
        )
    return DescriptorFile(desc, name, notes, presentation)


def _read_text(path: str | Path) -> str:
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8")
    except OSError as exc:
        raise DescriptorFileError(f"cannot read {p}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DescriptorFileError(
            f"cannot read {p}: byte {exc.start} is not valid UTF-8"
        ) from None


def load_descriptor_file(path: str | Path) -> DescriptorFile:
    return parse_descriptor_text(_read_text(path))


def example_text(name: str) -> str:
    """The text of the shipped fixture `name`."""
    if name not in EXAMPLES:
        known = ", ".join(EXAMPLES)
        raise InputError(f"unknown fixture {name!r}; known fixtures: {known}")
    return _read_text(Path(__file__).parent / "examples" / f"{name}.toml")


# --- serialization and digests --------------------------------------------------


def serialize_descriptor_file(df: DescriptorFile) -> str:
    family = family_of(df.descriptor)
    lines = [f"family = {family.tag}"]
    if df.name is not None:
        lines.append(f"name = {df.name}")
    if df.notes is not None:
        lines.append(f"notes = {df.notes}")
    lines += [f"{key} = {value}" for key, value in family.fields(df.descriptor)]
    if df.presentation is not None:
        lines.append(f"presentation = {format_presentation(df.presentation)}")
    return "\n".join(lines) + "\n"


def input_digest(df: DescriptorFile) -> str:
    """Digest of the mathematical payload: descriptor plus presentation,
    independent of cosmetic name and notes."""
    canonical = serialize_descriptor_file(
        DescriptorFile(df.descriptor, None, None, df.presentation)
    )
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def _envelope(df: DescriptorFile, report: dict, notes: list[str]) -> dict:
    return {
        "tool": "hirsch3",
        "version": __version__,
        "input_digest": input_digest(df),
        "report": report,
        "notes": notes,
    }


def _dump_json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# --- notes ----------------------------------------------------------------------


def classification_notes(report: ClassificationReport) -> list[str]:
    """Short statements of the structural facts the report relies on."""
    notes = ["all invariants are computed exactly over the rationals"]
    ct = report.constructible_type
    if ct is not None:
        kind = type(ct).__name__
        if kind == "Type1":
            notes.append(
                "a positive cone point of the dilation data yields an "
                "ascending extension with integral class "
                f"{ct.n}, hence a finite presentation"
            )
        elif kind == "Type2":
            notes.append(
                "the action is conjugate to an integral non-unimodular "
                "matrix, an ascending extension of a rank-two lattice"
            )
        else:
            notes.append(
                "a unimodular integral action makes the group polycyclic "
                "and the fundamental group of a closed three-manifold"
            )
    elif report.hirsch_length == 3 and not report.finitely_presentable:
        notes.append(
            "no positive cone of the dilation data meets an integral "
            "class, so the group admits no finite presentation"
        )
    if report.hirsch_length == 3:
        notes.append(
            "derived length, coherence, and dimension bounds follow from "
            "the radical and its infinite cyclic or dihedral quotient data"
        )
    return notes


def verification_notes(report_json: dict) -> list[str]:
    notes = [
        "randomized checks with a fixed seed; passing is evidence, "
        "not certification"
    ]
    resource = [
        c["name"]
        for c in report_json["checks"]
        if "budget" in c.get("note", "") or "window" in c.get("note", "")
    ]
    if resource:
        notes.append(
            "resource-bounded checks (see notes): " + ", ".join(resource)
        )
    return notes


# --- report rendering -------------------------------------------------------------


def _render_text(df: DescriptorFile, report: ClassificationReport) -> str:
    data = report.to_json()
    ct = data["constructible_type"]
    if ct is None:
        ct_text = "none"
    elif ct["kind"] == "Type1":
        ct_text = f"Type1 (n = {ct['n']})"
    elif ct["kind"] == "Type2":
        ct_text = f"Type2 (base {ct['base']})"
    else:
        ct_text = "Type3"
    md = data["manifold_dim"]
    if md["exact"] is not None:
        md_text = str(md["exact"])
    elif md["upper"] is not None:
        md_text = f"[{md['lower']}, {md['upper']}] (open)"
    else:
        md_text = f">= {md['lower']}"
    quotient = data["quotient"]["tag"] if data["quotient"] else "none"
    lines = [
        f"hirsch length:            {data['hirsch_length']}",
        f"radical:                  hirsch {data['radical']['hirsch']}, "
        + ("abelian" if data["radical"]["is_abelian"] else "nonabelian")
        + f", {data['radical']['module_description']}",
        f"radical quotient:         {quotient}",
        f"derived length:           {data['derived_length']}",
        f"polycyclic:               {_yn(data['polycyclic'])}",
        f"finitely presentable:     {_yn(data['finitely_presentable'])}",
        f"constructible:            {_yn(data['constructible'])}",
        f"constructible type:       {ct_text}",
        f"FP2:                      {data['fp2']['value']}",
        f"coherent:                 {data['coherent']['value']}",
        f"cohomological dimension:  {data['cohomological_dimension']}",
        f"minimax:                  {_yn(data['minimax']['value'])}"
        + (
            " (sections " + ", ".join(data["minimax"]["sections"]) + ")"
            if data["minimax"]["sections"]
            else ""
        ),
        f"manifold dimension:       {md_text}",
    ]
    header = []
    if df.name:
        header.append(f"name:                     {df.name}")
    return "\n".join(header + lines) + "\n"


def _yn(value: bool) -> str:
    return "true" if value else "false"


# --- commands -----------------------------------------------------------------


def cmd_classify(args) -> int:
    df = load_descriptor_file(args.path)
    report = classify(df.descriptor)
    if args.format == "json":
        data = _envelope(df, report.to_json(), classification_notes(report))
        sys.stdout.write(_dump_json(data))
    else:
        sys.stdout.write(_render_text(df, report))
    return EXIT_OK


def cmd_word_eq(args) -> int:
    df = load_descriptor_file(args.path)
    ops = ops_for(df.descriptor)
    trees = [parse_tree(w, ops.generator_names) for w in (args.word1, args.word2)]
    g1, g2 = (ops.of_tree(tree) for tree in trees)
    lines = "".join(
        f"  {format_word(tree.word)}  =  {ops.family.format_element(g)}\n"
        for tree, g in zip(trees, (g1, g2))
    )
    sys.stdout.write(("equal" if g1 == g2 else "unequal") + "\n" + lines)
    return EXIT_OK


def cmd_simplify(args) -> int:
    from .simplify import standardize

    text = _read_text(args.path)
    stripped = text.strip()
    if stripped.startswith("<"):
        pres = parse_presentation(stripped)
    else:  # the unstripped text keeps the line numbers of its errors
        pres = parse_descriptor_text(text).presentation
    if pres is None:
        raise InputError("the file carries no presentation")
    sf = standardize(pres)
    sys.stdout.write(
        f"standard form: m={sf.m} n={sf.n} p={sf.p} q={sf.q} c={sf.c}\n"
        f"{sf.text()}\n"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import TrialConfig, run_harness

    df = load_descriptor_file(args.path)
    cfg = TrialConfig(seed=args.seed, trials=args.trials, window=args.window)
    report = run_harness(df.descriptor, cfg, presentation=df.presentation)
    data = report.to_json()
    sys.stdout.write(_dump_json(_envelope(df, data, verification_notes(data))))
    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_examples(args) -> int:
    if args.action == "list":
        for name in EXAMPLES:
            print(f"{name:18s} {parse_descriptor_text(example_text(name)).notes}")
        return EXIT_OK
    if not args.fixture:
        raise InputError("emit needs a fixture name")
    text = example_text(args.fixture)
    out = Path(args.dir or ".") / f"{args.fixture}.toml"
    try:
        out.write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc.strerror}") from None
    print(out)
    return EXIT_OK


# --- entry point -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused: building
    costs more than most commands, and `parse_args` keeps no state between
    calls."""
    parser = argparse.ArgumentParser(
        prog="hirsch3",
        description="Classify, query, and verify torsion-free solvable "
        "groups of Hirsch length at most three.",
    )
    parser.add_argument(
        "--version", action="version", version=f"hirsch3 {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a descriptor file")
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("word-eq", help="decide equality of two words")
    p.add_argument("path")
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(run=cmd_word_eq)

    p = sub.add_parser(
        "simplify", help="collapse a presentation to standard form"
    )
    p.add_argument("path")
    p.set_defaults(run=cmd_simplify)

    p = sub.add_parser("verify", help="run the randomized harness")
    p.add_argument("path")
    p.add_argument("--trials", type=int, default=150)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=int, default=12)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("examples", help="list or emit shipped fixtures")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("fixture", nargs="?")
    p.add_argument("--dir", default=None)
    p.set_defaults(run=cmd_examples)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        print(
            "error: an integer to print is longer than Python's integer-to-string "
            f"limit of {sys.get_int_max_str_digits()} digits",
            file=sys.stderr,
        )
        return EXIT_INPUT
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
