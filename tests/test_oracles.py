"""Tests for the word oracles: an import audit that keeps them independent
of the normal-form code, and their agreement with a `Fraction` reference.

The reference below is the oracle as it was written on `Fraction`s, kept
here the way `TestElementKernels` keeps its reference formulas.  The
property compares verdicts *and* `VerifyResourceError`s at small size
budgets, so the per-syllable pre-check, the fast bit-length bound and the
exact gcd fallback all decide some examples.
"""

from __future__ import annotations

import ast
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hirsch3 import oracles  # noqa: E402
from hirsch3.families import (  # noqa: E402
    FAMILIES,
    AffineQ2,
    AscHNNKb,
    BSbar,
    LatticeByZ,
    MetabelianH31,
    RankOneQ,
    affine_linear,
    affine_map,
    affine_translation,
    family_of,
    ops_for,
)
from hirsch3.oracles import VerifyResourceError, endo_index, oracle_word_eq  # noqa: E402
from hirsch3.rationals import Mat2Q, binary_power  # noqa: E402
from hirsch3.words import Word  # noqa: E402
from test_families import image_membership, kb_inv, kb_mul, mat_apply  # noqa: E402
from test_properties import DESCRIPTORS  # noqa: E402

F = Fraction


# --- the import audit ------------------------------------------------------------

# descriptor classes, the descriptor union and the family lookup; no element
# algebra
ALLOWED_FROM_FAMILIES = {cls.__name__ for cls in FAMILIES} | {
    "GroupDescriptor",
    "family_of",
}


def _package_module(node: ast.ImportFrom) -> str:
    """The module an import reads from, relative to the hirsch3 package."""
    module = node.module or ""
    return module.removeprefix("hirsch3.") if node.level == 0 else module


def import_violations(source: str) -> list[str]:
    """Imports that would let the oracles share arithmetic with the code
    they check: anything from `rationals`, anything from `families` but
    descriptor classes and `family_of`, and either module whole."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.removeprefix("hirsch3.") in ("families", "rationals"):
                    found.append(f"{node.lineno}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            module = _package_module(node)
            for alias in node.names:
                if module == "" and alias.name in ("families", "rationals"):
                    found.append(f"{node.lineno}: module {alias.name}")
                elif module == "rationals" or (
                    module == "families" and alias.name not in ALLOWED_FROM_FAMILIES
                ):
                    found.append(f"{node.lineno}: {alias.name} from {module}")
    return found


def private_reads(source: str) -> list[str]:
    """Reads of a private attribute `x._name`: the normal form's cached
    tables (`_kernel`, `_powers`) and BSbar's metabelian view
    are all private, so an oracle that reads none shares none of them."""
    return [
        f"{node.lineno}: .{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
    ]


class TestImportAudit:
    SOURCE = Path(oracles.__file__).read_text()

    def test_oracles_import_only_descriptors_from_families(self):
        assert import_violations(self.SOURCE) == []

    def test_oracles_do_not_import_fractions(self):
        tree = ast.parse(self.SOURCE)
        modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        modules += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        assert "fractions" not in modules

    @pytest.mark.parametrize(
        "line",
        [
            "from .families import kb_mul",
            "from .families import BSbar, affine_compose",
            "from .families import *",
            "from .rationals import Mat2Q",
            "from hirsch3.rationals import binary_power",
            "from hirsch3.families import ops_for",
            "from . import families",
            "import hirsch3.rationals",
        ],
    )
    def test_audit_catches_shared_arithmetic(self, line):
        assert import_violations(self.SOURCE + "\n" + line + "\n")

    def test_oracles_read_no_private_attribute(self):
        assert private_reads(self.SOURCE) == []

    @pytest.mark.parametrize(
        "line",
        ["t, u = desc._kernel", "desc._meta", "f = desc._iterates", "x = g.__class__._powers"],
    )
    def test_private_audit_catches_cached_tables(self, line):
        assert private_reads(self.SOURCE + "\n" + line + "\n")

    def test_private_audit_allows_dunders(self):
        assert private_reads("x = f.__name__\n") == []

    def test_audit_allows_descriptors(self):
        line = "from .families import AffineQ2, AscHNNKb, family_of"
        assert import_violations(line) == []

    def test_every_family_has_an_oracle(self):
        assert set(oracles._ORACLES) == set(FAMILIES)


# --- names outside the family -------------------------------------------------------

UNKNOWN_NAME_CASES = {
    "lattice_by_z": (LatticeByZ(Mat2Q.of(2, 1, 1, 1)), Word.gen("b")),
    "rank_one_q": (RankOneQ((F(1), F(1, 2))), Word.identity()),
    "bsbar": (BSbar(2, 3), Word.gen("a")),
    "metabelian_h31": (MetabelianH31(1, 2, 1, 3, F(1)), Word.gen("u")),
    "heisenberg": (MetabelianH31(1, 1, 1, 1, F(1)), Word.gen("u")),
    "asc_hnn_kb": (AscHNNKb(1, 0, 2), Word.gen("y")),
    "affine_q2": (
        AffineQ2((("x", affine_map(Mat2Q.identity(), (F(1), F(0)))),)),
        Word.gen("x"),
    ),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_NAME_CASES))
def test_every_oracle_rejects_a_name_outside_the_family(case):
    # an unknown name is a KeyError, never read as some generator or as 1
    desc, other = UNKNOWN_NAME_CASES[case]
    for name in ("z", "g01"):
        with pytest.raises(KeyError):
            oracle_word_eq(desc, Word.gen(name), other)


# --- the Fraction reference ---------------------------------------------------------


class _PreCheck(VerifyResourceError):
    """The reference's per-syllable pre-check ran out."""


class _Guard(VerifyResourceError):
    """The reference's after-syllable size guard ran out."""


def _bits(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def _guard(parts, max_bits: int) -> None:
    if sum(_bits(p) for p in parts) > max_bits:
        raise _Guard()


def _pre_check(exp: int, bits: int, max_bits: int) -> None:
    if abs(exp) * max(bits, 1) > max_bits:
        raise _PreCheck()


def _ref_aff1_word(gens, w: Word, max_bits: int):
    # x -> scale x + offset as (scale, offset)
    scale, offset = F(1), F(0)
    for name, exp in w.syllables:
        g_scale, g_offset = gens[name]
        _pre_check(exp, _bits(g_scale), max_bits)
        p_scale = g_scale**exp
        if g_scale == 1:
            p_offset = g_offset * exp
        else:
            p_offset = g_offset * (p_scale - 1) / (g_scale - 1)
        scale, offset = scale * p_scale, scale * p_offset + offset
        _guard((scale, offset), max_bits)
    return scale, offset


def _ref_bsbar(desc: BSbar, w: Word, max_bits: int):
    gens = {"a": (F(1), F(1)), "t": (desc.ratio, F(0))}
    return _ref_aff1_word(gens, w, max_bits), w.exponent_sum("t")


def _ref_meta(desc: MetabelianH31, w: Word, max_bits: int):
    r1, r2, e = desc.t_ratio, desc.u_ratio, desc.e
    if r1 == 1 and r2 == 1 and e != 0:
        # the Heisenberg triple (i, j, z) as (x, y) -> (x + i y + z, y + j)
        gens = {
            "t": (F(1), F(1), F(0), F(1), F(0), F(0)),
            "u": (F(1), F(0), F(0), F(1), F(0), F(1)),
            "a": (F(1), F(0), F(0), F(1), F(-1) / e, F(0)),
        }
        return _ref_six_word(gens, w, max_bits)
    if r2 != 1:
        tau, ups = r1 * e / (r2 - 1), F(0)
    elif r1 != 1:
        tau, ups = F(0), r1 * e / (1 - r1)
    else:
        tau = ups = F(0)
    gens = {"a": (F(1), F(1)), "t": (r1, tau), "u": (r2, ups)}
    sums = (w.exponent_sum("t"), w.exponent_sum("u"))
    return _ref_aff1_word(gens, w, max_bits), sums


def _ref_lattice(desc: LatticeByZ, w: Word, max_bits: int):
    mat = desc.matrix
    mat_bits = max(max(_bits(x) for x in mat.entries()), 1)
    k, vx, vy = 0, F(0), F(0)
    for name, exp in w.syllables:
        if name == "t":
            k += exp
            if abs(k) * mat_bits > max_bits:
                raise _PreCheck()
        else:
            step = (F(exp), F(0)) if name == "a" else (F(0), F(exp))
            sx, sy = mat_apply(mat.pow(k), step)
            vx, vy = vx + sx, vy + sy
            _guard((vx, vy), max_bits)
    return vx, vy, k


def _ref_hnnkb(desc: AscHNNKb, w: Word, max_bits: int):
    first = {"x": (F(1), F(1, 2)), "y": (F(1), F(0)), "s": (F(desc.e), F(0))}
    second = {"x": (F(-1), F(0)), "y": (F(1), F(1)), "s": (F(desc.d), F(-desc.f, 2))}
    fx = _ref_aff1_word(first, w, max_bits)
    fy = _ref_aff1_word(second, w, max_bits)
    return fx, fy, w.exponent_sum("s")


def _ref_rank_one(desc: RankOneQ, w: Word, max_bits: int):
    names = ops_for(desc).generator_names
    total = sum((w.exponent_sum(n) * g for n, g in zip(names, desc.generators)), F(0))
    _guard((total,), max_bits)
    return total


def _six_compose(f, g):
    fa, fb, fc, fd, fx, fy = f
    ga, gb, gc, gd, gx, gy = g
    return (
        fa * ga + fb * gc,
        fa * gb + fb * gd,
        fc * ga + fd * gc,
        fc * gb + fd * gd,
        fa * gx + fb * gy + fx,
        fc * gx + fd * gy + fy,
    )


def _six_inverse(f):
    a, b, c, d, x, y = f
    det = a * d - b * c
    ia, ib, ic, id_ = d / det, -b / det, -c / det, a / det
    return (ia, ib, ic, id_, -(ia * x + ib * y), -(ic * x + id_ * y))


_SIX_ID = (F(1), F(0), F(0), F(1), F(0), F(0))


def _six_bits(f) -> int:
    return max(map(_bits, f))


def _ref_six_word(sixes, w: Word, max_bits: int):
    out = _SIX_ID
    for name, exp in w.syllables:
        six = sixes[name]
        _pre_check(exp, max(_bits(x) for x in six), max_bits)
        base = six if exp >= 0 else _six_inverse(six)
        power = binary_power(base, abs(exp), _six_compose, _SIX_ID, _six_bits)
        out = _six_compose(out, power)
        _guard(out, max_bits)
    return out


def _ref_affine(desc: AffineQ2, w: Word, max_bits: int):
    sixes = {
        name: (*affine_linear(f).entries(), *affine_translation(f)) for name, f in desc.generators
    }
    return _ref_six_word(sixes, w, max_bits)


_REFERENCE = {
    BSbar: _ref_bsbar,
    MetabelianH31: _ref_meta,
    LatticeByZ: _ref_lattice,
    AscHNNKb: _ref_hnnkb,
    RankOneQ: _ref_rank_one,
    AffineQ2: _ref_affine,
}


def reference_word_eq(desc, w1: Word, w2: Word, max_bits: int) -> bool:
    value = _REFERENCE[type(desc)]
    return value(desc, w1, max_bits) == value(desc, w2, max_bits)


def _outcome(word_eq, *args):
    """The verdict, or which budget check stopped the evaluation."""
    try:
        return word_eq(*args)
    except _PreCheck:
        return "pre-check"
    except _Guard:
        return "guard"
    except VerifyResourceError:
        return "budget"


# --- agreement on generated descriptors ----------------------------------------------

# small budgets make every check fire; the default keeps the plain path
BUDGETS = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64, 96, 128, oracles._DEFAULT_MAX_BITS)

exponents = st.one_of(
    st.integers(-3, 3).filter(bool), st.integers(-40, 40).filter(bool)
)


def _words(names: tuple[str, ...], max_syllables: int):
    syllable = st.tuples(st.sampled_from(names), exponents)
    return st.lists(syllable, max_size=max_syllables).map(Word.of)


@st.composite
def _case(draw, family: str):
    """A descriptor, two words and a budget; half the time the second word
    is the first with a conjugated defining relator inserted."""
    desc = draw(DESCRIPTORS[family])
    names = ops_for(desc).generator_names
    w1 = draw(_words(names, 8))
    relators = family_of(desc).presentation(desc).relators
    if relators and draw(st.booleans()):
        conj = draw(_words(names, 3))
        relator = draw(st.sampled_from(relators)) ** draw(st.sampled_from((1, -1)))
        cut = draw(st.integers(0, len(w1.syllables)))
        head, tail = Word.of(w1.syllables[:cut]), Word.of(w1.syllables[cut:])
        w2 = head * conj * relator * conj.inv() * tail
    else:
        w2 = draw(_words(names, 8))
    return desc, w1, w2, draw(st.sampled_from(BUDGETS))


# what each family's examples must include: both verdicts, the reference's
# pre-check and size guard, and the exact fallback reaching a verdict.
# Rank-one sums have no per-syllable pre-check.
EVERY_OUTCOME = {True, False, "pre-check", "guard", "fallback"}
EXPECTED = {"rank_one_q": EVERY_OUTCOME - {"pre-check"}}


@pytest.mark.parametrize("family", sorted(DESCRIPTORS))
def test_oracle_agrees_with_fraction_reference(family, monkeypatch):
    seen: Counter = Counter()
    reduced = oracles._reduced

    def counted_reduced(*args):
        out = reduced(*args)
        seen["fallback"] += 1
        return out

    monkeypatch.setattr(oracles, "_reduced", counted_reduced)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(_case(family))
    def check(case):
        desc, w1, w2, max_bits = case
        expected = _outcome(reference_word_eq, desc, w1, w2, max_bits)
        got = _outcome(oracle_word_eq, desc, w1, w2, max_bits)
        assert got == (expected if isinstance(expected, bool) else "budget")
        seen[expected] += 1

    check()
    assert EXPECTED.get(family, EVERY_OUTCOME) <= set(seen), seen


# affine descriptors have no defining relators of their own
@pytest.mark.parametrize("family", sorted(set(DESCRIPTORS) - {"affine_q2"}))
def test_defining_relators_are_one_in_both_evaluators(family):
    # most relator-laced pairs above stop on a small budget before a
    # verdict, so a wrong generator in one evaluator could pass there
    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(DESCRIPTORS[family])
    def check(desc):
        for relator in family_of(desc).presentation(desc).relators:
            assert oracle_word_eq(desc, relator, Word()), (desc, relator)
            assert reference_word_eq(desc, relator, Word(), oracles._DEFAULT_MAX_BITS), (desc, relator)

    check()


# --- the Klein-bottle coset enumeration ---------------------------------------------


def _reference_endo_index(phi: AscHNNKb) -> int:
    """The enumeration on the normal form's Klein-bottle algebra, over the
    grid of `endo_index`, testing each cell against every coset so far."""
    reps: list[tuple[int, int]] = []
    for a in range(2 * abs(phi.e) + 2):
        for b in range(abs(phi.d) + 2):
            g = (a, b)
            if not any(image_membership(phi, kb_mul(g, kb_inv(rep))) for rep in reps):
                reps.append(g)
    return len(reps)


def test_endo_index_matches_the_normal_form_algebra():
    for e in (-5, -3, -1, 1, 3, 5):
        for f in range(-3, 4):
            for d in (-4, -3, -2, -1, 1, 2, 3, 4):
                phi = AscHNNKb(e, f, d)
                index = _reference_endo_index(phi)
                assert (endo_index(phi), index) == (abs(e * d), abs(e * d)), phi
