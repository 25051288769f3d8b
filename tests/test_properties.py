"""Property tests: normal forms against the word oracle on generated
descriptors of every family, the relation lattice of a ratio pair against a
brute-force scan, and the affine analysis of `classify` against its
`Fraction` reference.

Hypothesis runs derandomized, so every run draws the same examples, and a
failure is reported as a shrunk counterexample (descriptor and words).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hirsch3 import classify as classify_module  # noqa: E402
from hirsch3.classify import ClassifyError  # noqa: E402
from hirsch3.families import (  # noqa: E402
    AffineMap2,
    AffineQ2,
    AscHNNKb,
    BSbar,
    LatticeByZ,
    MetabelianH31,
    RankOneQ,
    affine_compose,
    affine_inverse,
    family_of,
    ops_for,
)
from hirsch3.rationals import Mat2Q, complement_vector, relation_lattice  # noqa: E402
from hirsch3.verify import oracle_word_eq  # noqa: E402
from hirsch3.words import Word  # noqa: E402

F = Fraction

small_rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
nonzero_rationals = small_rationals.filter(bool)


def _bsbar(r: Fraction) -> BSbar:
    return BSbar(r.denominator, r.numerator)


@st.composite
def _meta(draw) -> MetabelianH31:
    r1, r2 = draw(nonzero_rationals), draw(nonzero_rationals)
    # any prime of m divides the locus, so e = k / m^s lies in Z[1/locus]
    e = F(draw(st.integers(-3, 3)), r1.denominator ** draw(st.integers(0, 1)))
    return MetabelianH31(r1.denominator, r1.numerator, r2.denominator, r2.numerator, e)


entries = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3)))
matrices = (
    st.tuples(entries, entries, entries, entries)
    .map(lambda e: Mat2Q.of(*e))
    .filter(lambda m: m.det() != 0)
)


@st.composite
def _affine(draw) -> AffineQ2:
    names = ("p", "q", "r")[: draw(st.integers(1, 3))]
    gens = []
    for name in names:
        shift = (draw(small_rationals), draw(small_rationals))
        gens.append((name, AffineMap2(draw(matrices), shift)))
    return AffineQ2(tuple(gens))


DESCRIPTORS = {
    "rank_one_q": st.lists(nonzero_rationals, min_size=1, max_size=3).map(
        lambda gens: RankOneQ(tuple(gens))
    ),
    "bsbar": nonzero_rationals.map(_bsbar),
    "metabelian_h31": _meta(),
    "lattice_by_z": matrices.map(LatticeByZ),
    "asc_hnn_kb": st.builds(
        AscHNNKb,
        st.sampled_from((-5, -3, -1, 1, 3, 5)),
        st.integers(-3, 3),
        st.sampled_from((-3, -2, -1, 1, 2, 3)),
    ),
    "affine_q2": _affine(),
}


def _words(names: tuple[str, ...], max_syllables: int):
    syllable = st.tuples(st.sampled_from(names), st.integers(-3, 3).filter(bool))
    return st.lists(syllable, max_size=max_syllables).map(Word.of)


@st.composite
def _case(draw, family: str):
    """A descriptor and two words; half the time the second word is the
    first with a conjugated defining relator inserted, so equal pairs are
    drawn as often as unequal ones."""
    desc = draw(DESCRIPTORS[family])
    names = ops_for(desc).generator_names
    w1 = draw(_words(names, 8))
    relators = [r for _, r in family_of(desc).relations(desc)]
    if relators and draw(st.booleans()):
        conj = draw(_words(names, 3))
        relator = draw(st.sampled_from(relators)) ** draw(st.sampled_from((1, -1)))
        cut = draw(st.integers(0, len(w1.syllables)))
        head, tail = Word.of(w1.syllables[:cut]), Word.of(w1.syllables[cut:])
        w2 = head * conj * relator * conj.inv() * tail
    else:
        w2 = draw(_words(names, 8))
    return desc, w1, w2


@pytest.mark.parametrize("family", sorted(DESCRIPTORS))
def test_normal_form_agrees_with_oracle(family):
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(_case(family))
    def check(case):
        desc, w1, w2 = case
        ops = ops_for(desc)
        expected = oracle_word_eq(desc, w1, w2)
        assert ops.word_eq(w1, w2) == expected
        # the same verdict through mul and inv
        quotient = ops.mul(ops.of_word(w1), ops.inv(ops.of_word(w2)))
        assert ops.is_identity(quotient) == expected

    check()


# --- the relation lattice of a ratio pair -------------------------------------------


@st.composite
def ratio_pairs(draw):
    """Two signed rationals over at most three small primes; half the time
    both are powers of one rational, so dependent pairs are drawn often."""
    primes = draw(st.lists(st.sampled_from((2, 3, 5)), unique=True, max_size=3))
    exponents = st.lists(st.integers(-3, 3), min_size=len(primes), max_size=len(primes))
    signs = st.sampled_from((1, -1))

    def product():
        return prod((F(p) ** e for p, e in zip(primes, draw(exponents))), start=F(1))

    if draw(st.booleans()):
        base = product()
        return tuple(draw(signs) * base ** draw(st.integers(-3, 3)) for _ in range(2))
    return tuple(draw(signs) * product() for _ in range(2))


def _in_integer_span(basis, v):
    """Whether v is an integer combination of the independent 2-vectors."""
    if not basis:
        return v == (0, 0)
    if len(basis) == 1:
        (a, b), (i, j) = basis[0], v
        if i * b != j * a:
            return False
        return (i % a == 0) if a else (j % b == 0)
    (a1, b1), (a2, b2) = basis
    det = a1 * b2 - a2 * b1
    return (v[0] * b2 - v[1] * a2) % det == 0 and (a1 * v[1] - b1 * v[0]) % det == 0


BOX = range(-6, 7)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(ratio_pairs())
def test_relation_lattice_against_brute_force(pair):
    r1, r2 = pair
    lattice = relation_lattice(pair)
    relations = lattice.relations()
    assert len(relations) == 2 - lattice.rank
    for i, j in relations:
        assert r1**i * r2**j == 1
    units = [(i, j) for i in BOX for j in BOX if abs(r1**i * r2**j) == 1]
    for i, j in units:
        if r1**i * r2**j == 1:
            assert _in_integer_span(relations, (i, j)), (pair, (i, j))
    if units == [(0, 0)]:
        unit_rank = 0
    elif all(i * b == j * a for i, j in units for a, b in units):
        unit_rank = 1
    else:
        unit_rank = 2
    assert lattice.rank == 2 - unit_rank
    assert lattice.has_minus_one == any(r1**i * r2**j == -1 for i, j in units)
    for v in lattice.kernel:
        i, j = complement_vector(v)
        assert v[0] * j - v[1] * i in (1, -1)


# --- the affine analysis against its Fraction reference ---------------------------
#
# `classify` explores affine words on the integer kernel and stops the
# translation search at rank two.  The helpers below are the `Fraction`
# versions it replaced, kept as the reference the way `TestElementKernels`
# keeps its formulas: a BFS over `Mat2Q` products, the full depth-4
# translation search and the span closure of what it found.


def _ref_linear_closure(mats, cap=24):
    closure = {Mat2Q.identity()}
    frontier = [Mat2Q.identity()]
    gens = []
    for m in mats:
        gens.extend((m, m.inverse()))
    while frontier:
        nxt = []
        for g in frontier:
            for m in gens:
                prod_gm = g * m
                if prod_gm not in closure:
                    closure.add(prod_gm)
                    nxt.append(prod_gm)
                    if len(closure) > cap:
                        return None
        frontier = nxt
    return closure


def _ref_pure_translations(desc, depth=4):
    gens = []
    for _, gen_map in desc.generators:
        gens.extend((gen_map, affine_inverse(gen_map)))
    seen = {AffineMap2.identity()}
    frontier = [AffineMap2.identity()]
    found = []
    for _ in range(depth):
        nxt = []
        for g in frontier:
            for m in gens:
                composed = affine_compose(g, m)
                if composed in seen:
                    continue
                seen.add(composed)
                nxt.append(composed)
                if composed.linear == Mat2Q.identity() and composed.translation != (0, 0):
                    found.append(composed.translation)
        frontier = nxt
    return found


def _ref_span_rank(vectors, mats):
    basis = []

    def insert(v):
        if len(basis) == 2 or v == (0, 0):
            return False
        if basis and basis[0][0] * v[1] - basis[0][1] * v[0] == 0:
            return False
        basis.append(v)
        return True

    for v in vectors:
        insert(v)
    changed = True
    while changed and len(basis) < 2:
        changed = False
        for m in mats:
            for v in list(basis):
                if insert(m.apply(v)):
                    changed = True
    return len(basis)


def _ref_translation_rank(desc):
    linear = [gen_map.linear for _, gen_map in desc.generators]
    return _ref_span_rank(_ref_pure_translations(desc), linear)


def _analysis(desc):
    try:
        return classify_module._analyze_affine(desc)
    except ClassifyError as exc:
        return str(exc)


def _ref_analysis(desc, rank):
    with mock.patch.object(classify_module, "_linear_closure", _ref_linear_closure), \
            mock.patch.object(classify_module, "_translation_rank", lambda _: rank):
        return _analysis(desc)


_REFLECTION = Mat2Q.of(1, 0, 0, -1)
_FINITE_ORDER = [
    _REFLECTION,
    Mat2Q.of(0, 1, 1, 0),
    Mat2Q.of(-1, 0, 0, -1),  # order 2
    Mat2Q.of(0, -1, 1, -1),  # order 3
    Mat2Q.of(0, -1, 1, 0),  # order 4
    Mat2Q.of(1, -1, 1, 0),  # order 6
]
_HYPERBOLIC = [Mat2Q.of(2, 1, 1, 1), Mat2Q.of(1, 1, 1, 2), Mat2Q.of(2, 0, 0, F(1, 3))]
_SCALAR = [Mat2Q.of(2, 0, 0, 2), Mat2Q.of(F(-1, 3), 0, 0, F(-1, 3))]


@st.composite
def _linear_parts(draw) -> Mat2Q:
    """Identity, a finite-order matrix (reflection or rotation of order 2,
    3, 4 or 6) up to a rational conjugation, a hyperbolic or a scalar
    matrix, or any invertible small rational matrix."""
    kind = draw(
        st.sampled_from(("identity", "identity", "finite", "hyperbolic", "scalar", "random"))
    )
    if kind == "identity":
        return Mat2Q.identity()
    if kind in ("hyperbolic", "scalar"):
        return draw(st.sampled_from(_HYPERBOLIC if kind == "hyperbolic" else _SCALAR))
    if kind == "random":
        return draw(matrices)
    m = draw(st.sampled_from(_FINITE_ORDER))
    if draw(st.booleans()):
        p = draw(matrices)
        m = p * m * p.inverse()
    return m


@st.composite
def _affine_groups(draw) -> AffineQ2:
    names = ("p", "q", "r", "s")[: draw(st.integers(1, 4))]
    gens = []
    for name in names:
        shift = (draw(small_rationals), draw(small_rationals))
        gens.append((name, AffineMap2(draw(_linear_parts()), shift)))
    return AffineQ2(tuple(gens))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_affine_groups())
def test_affine_analysis_agrees_with_fraction_reference(desc):
    linear = [gen_map.linear for _, gen_map in desc.generators]
    assert classify_module._linear_closure(linear) == _ref_linear_closure(linear)
    rank = _ref_translation_rank(desc)
    assert classify_module._translation_rank(desc) == rank
    assert _analysis(desc) == _ref_analysis(desc, rank)


def test_translation_rank_closes_under_the_linear_parts():
    # p and q commute linearly, so the words up to depth four find only
    # translations along (1, 0); r's shear moves that line, so only the
    # closure under the linear parts makes the rank two
    desc = AffineQ2(
        (
            ("p", AffineMap2(Mat2Q.of(2, 0, 0, 1), (F(0), F(0)))),
            ("q", AffineMap2(Mat2Q.of(1, 0, 0, 3), (F(1), F(0)))),
            ("r", AffineMap2(Mat2Q.of(1, 0, 1, 1), (F(0), F(0)))),
        )
    )
    assert {y for _, y in _ref_pure_translations(desc)} == {0}
    assert classify_module._translation_rank(desc) == _ref_translation_rank(desc) == 2
    assert classify_module._translation_rank(AffineQ2(desc.generators[:2])) == 1
