"""Property tests: normal forms against the word oracle on generated
descriptors of every family, the relation lattice of a ratio pair against a
brute-force scan, the affine analysis of `classify` against its `Fraction`
reference, the classifier's closed forms against the searches they replaced,
the JSON shape of classification reports, the reported derived length against
the commutator search, the abstract's BS(1,n) rtimes Z as ascending HNN
extensions of cohomological dimension 3, the descriptor-file round trip,
`factorint` against trial division, `valuation` against repeated division,
the commutator exponent of `standardize` against the integer exponent
table, the command line on fixture files with one value replaced, and the
word product and power against free reduction of the spelled-out word.

Hypothesis runs derandomized, so every run draws the same examples, and a
failure is reported as a shrunk counterexample (descriptor and words).
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import signal
from fractions import Fraction
from math import gcd, prod
from pathlib import Path
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hirsch3 import classify as classify_module  # noqa: E402
from hirsch3 import InputError, cli  # noqa: E402
from hirsch3.classify import ClassifyError, classify  # noqa: E402
from hirsch3.cli import (  # noqa: E402
    DescriptorFile,
    input_digest,
    parse_descriptor_text,
    serialize_descriptor_file,
)
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
from hirsch3.fixtures import FIXTURES, corrupted_d_infty  # noqa: E402
from hirsch3.rationals import (  # noqa: E402
    Mat2Q,
    complement_vector,
    factorint,
    matrix_order,
    prime_factors,
    radical_of,
    relation_lattice,
    valuation,
)
from hirsch3.simplify import (  # noqa: E402
    ConjugateAtom,
    SimplifyError,
    SolvabilityError,
    StandardForm,
    standardize,
)
from hirsch3.verify import TrialConfig, commutator_depth_search, oracle_word_eq  # noqa: E402
from hirsch3.words import Presentation, Word  # noqa: E402
from test_families import BS1nAut, bs1n_ext_to_meta  # noqa: E402
from test_simplifier import atom_product_word, comm_ut, exponent_law, pres_with  # noqa: E402

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
# `classify` closes the finite linear image on the integer kernel and reads
# the translation rank off one product per generator.  The helpers below are
# the `Fraction` searches it replaced, kept as the reference the way
# `TestElementKernels` keeps its formulas: a BFS over `Mat2Q` products, the
# full depth-4 translation search and the span closure of what it found.
# Every product the closed form takes is a word of length two, so on the
# shapes `classify` accepts the search finds the same rank.


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
            mock.patch.object(classify_module, "_translation_rank", lambda *_: rank):
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
    assert _analysis(desc) == _ref_analysis(desc, _ref_translation_rank(desc))


_SUPPORTED_IMAGES = [
    (),
    (_REFLECTION,),
    (Mat2Q.of(2, 1, 1, 1),),
    (Mat2Q.of(1, 1, 0, 1),),
    (_REFLECTION, Mat2Q.of(2, -1, 3, -2)),
    (Mat2Q.of(0, 1, 1, 0), Mat2Q.of(F(1, 3), F(2, 3), F(4, 3), F(-1, 3))),
]


@st.composite
def _affine_groups_repeating_parts(draw) -> AffineQ2:
    """2-4 generators whose linear parts repeat those of one of the image
    shapes `classify` accepts: the draws reach the products g s_A^-1 of two
    generators with one linear part A.  Each translation is zero, a small
    multiple of one vector, or any small vector, so every rank occurs."""
    parts = (Mat2Q.identity(), *draw(st.sampled_from(_SUPPORTED_IMAGES)))
    line = draw(st.sampled_from(((1, 0), (0, 1), (1, -1))))
    gens = []
    for name in ("p", "q", "r", "s")[: draw(st.integers(2, 4))]:
        kind = draw(st.sampled_from(("zero", "line", "any")))
        k = F(draw(st.integers(-2, 2)), draw(st.integers(1, 3)))
        any_vector = (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
        x, y = line if kind == "line" else any_vector
        shift = (F(0), F(0)) if kind == "zero" else (k * x, k * y)
        gens.append((name, AffineMap2(draw(st.sampled_from(parts)), shift)))
    return AffineQ2(tuple(gens))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_affine_groups_repeating_parts())
def test_translation_rank_of_repeated_parts_agrees_with_search(desc):
    assert _analysis(desc) == _ref_analysis(desc, _ref_translation_rank(desc))


@pytest.mark.parametrize(
    "linear, rank",
    [(Mat2Q.of(2, 1, 1, 1), 2), (Mat2Q.of(2, 0, 0, 3), 1)],
    ids=["moved", "kept"],
)
def test_translation_rank_closes_under_the_linear_parts(linear, rank):
    # x translates along (1, 0) and t has no translation, so every product
    # of two generators translates along that line; only t's linear part can
    # move it, and the hyperbolic one does
    desc = AffineQ2(
        (
            ("x", AffineMap2(Mat2Q.identity(), (F(1), F(0)))),
            ("t", AffineMap2(linear, (F(0), F(0)))),
        )
    )
    assert {y for _, y in _ref_pure_translations(desc, depth=2)} == {0}
    assert classify_module._translation_rank(desc, (linear,)) == rank
    assert _ref_translation_rank(desc) == rank


def test_translation_rank_counts_a_reflection_square():
    # the glide reflection g fixes the line of x's translation (1, 0), so
    # only g^2, a translation by (0, 2), makes the rank two
    glide = Mat2Q.of(-1, 0, 0, 1)
    desc = AffineQ2(
        (
            ("x", AffineMap2(Mat2Q.identity(), (F(1), F(0)))),
            ("g", AffineMap2(glide, (F(0), F(1)))),
        )
    )
    assert classify_module._translation_rank(desc, (glide,)) == 2
    assert _ref_translation_rank(desc) == 2


# --- involutions in a finite linear image {I, A} --------------------------------
#
# `classify` refuses such a group as torsion on one gcd.  A refusal is checked
# by building the involution as a word, s times a product of powers of the
# translation seeds, and evaluating it with the oracle; an acceptance by
# searching every element of word length at most 5 for one.


@st.composite
def _finite_image_groups(draw) -> AffineQ2:
    """One or two translations and one or two generators over a reflection
    A, in any order.  A is diag(1, -1) or the swap, maybe conjugated, and
    each translation has coordinates in (1/6) Z, so both answers occur."""
    a = draw(st.sampled_from((_REFLECTION, Mat2Q.of(0, 1, 1, 0))))
    if draw(st.booleans()):
        p = draw(matrices)
        a = p * a * p.inverse()
    coordinates = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    parts = [Mat2Q.identity()] * draw(st.integers(1, 2)) + [a] * draw(st.integers(1, 2))
    gens = []
    for idx, m in enumerate(draw(st.permutations(parts))):
        shift = (draw(coordinates), draw(coordinates))
        gens.append((f"g{idx}", AffineMap2(m, shift)))
    return AffineQ2(tuple(gens))


def _integer_solution(values: list[int], target: int):
    """Integers n with sum(n_i values_i) = target, or None."""
    g, coeffs = 0, [0] * len(values)
    for idx, v in enumerate(values):
        # extended Euclid on (g, v): x g + y v = gcd
        (r0, x0, y0), (r1, x1, y1) = (g, 1, 0), (v, 0, 1)
        while r1:
            q = r0 // r1
            (r0, x0, y0), (r1, x1, y1) = (r1, x1, y1), (r0 - q * r1, x0 - q * x1, y0 - q * y1)
        coeffs = [c * x0 for c in coeffs]
        coeffs[idx] = y0
        g = r0
    if g == 0:
        return coeffs if target == 0 else None
    return [c * (target // g) for c in coeffs] if target % g == 0 else None


def _involution_word(desc: AffineQ2):
    """s times a product of seed powers that squares to 1, or None."""
    a = next(g.linear for _, g in desc.generators if g.linear != Mat2Q.identity())
    s = next(name for name, g in desc.generators if g.linear == a)
    seeds = [Word.gen(s) ** 2]
    for name, g in desc.generators:
        if g.linear == Mat2Q.identity():
            seeds.append(Word.gen(name))
        elif name != s:
            seeds.append(Word.gen(name) * Word.gen(s).inv())

    def on_line(t):  # (I + A) t
        return (t[0] + a.a * t[0] + a.b * t[1], t[1] + a.c * t[0] + a.d * t[1])

    vectors = [on_line(ops_for(desc).of_word(w).translation) for w in seeds]
    target = on_line(dict(desc.generators)[s].translation)
    k = 0 if any(v[0] for v in vectors + [target]) else 1
    den = prod(x.denominator for x in [v[k] for v in vectors] + [target[k]])
    n = _integer_solution([int(v[k] * den) for v in vectors], -int(target[k] * den))
    if n is None:
        return None
    word = Word.gen(s)
    for seed, power in zip(seeds, n):
        word = word * seed**power
    return word


def _short_involution(desc: AffineQ2, length: int = 5):
    letters = []
    for _, g in desc.generators:
        letters += [g, affine_inverse(g)]
    one = AffineMap2.identity()
    seen, frontier = {one}, [one]
    for _ in range(length):
        frontier = [affine_compose(g, m) for g in frontier for m in letters]
        frontier = [g for g in dict.fromkeys(frontier) if g not in seen]
        seen.update(frontier)
    return next((g for g in seen if g != one and affine_compose(g, g) == one), None)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_finite_image_groups())
def test_finite_image_torsion_refusal_matches_an_involution(desc):
    try:
        classify(desc)
    except ClassifyError as exc:
        if "translation rank 2" in str(exc):
            return
        assert str(exc) == "affine descriptor presents a group with torsion"
        word = _involution_word(desc)
        assert word is not None
        assert not oracle_word_eq(desc, word, Word())
        assert oracle_word_eq(desc, word * word, Word())
    else:
        assert _involution_word(desc) is None
        assert _short_involution(desc) is None


# --- the closed forms against the searches they replaced ---------------------------
#
# `matrix_order`, `_is_plus_minus_unipotent` and `cone_integer_point` decide
# their questions in closed form.  The searches they replaced are kept here
# as the reference, the way `TestElementKernels` keeps its formulas: a power
# loop up to the largest finite order in GL(2, Q), a squared shift by +-I,
# and a two-variable Fourier-Motzkin elimination.


def _ref_matrix_order(m):
    power = Mat2Q.identity()
    for k in range(1, 7):
        power = power * m
        if power == Mat2Q.identity():
            return k
    return None


def _ref_is_plus_minus_unipotent(m):
    for sign in (1, -1):
        shifted = Mat2Q(m.a - sign, m.b, m.c, m.d - sign)
        if shifted * shifted == Mat2Q.of(0, 0, 0, 0):
            return True
    return False


def _ref_halfplane_witness(rows):
    """A rational point with row . x >= 1 for every row, or None."""
    lowers = [(F(a), F(b)) for a, b in rows if a > 0]
    uppers = [(F(a), F(b)) for a, b in rows if a < 0]
    jlow = jhigh = None

    def tighten(low, high, a, b):
        # a * j >= b
        if a > 0:
            bound = b / a
            low = bound if low is None else max(low, bound)
        elif a < 0:
            bound = b / a
            high = bound if high is None else min(high, bound)
        elif b > 0:
            return None
        return low, high

    for a, b in rows:
        if a == 0:
            got = tighten(jlow, jhigh, F(b), F(1))
            if got is None:
                return None
            jlow, jhigh = got
    for al, bl in lowers:
        for au, bu in uppers:
            # (1 - bl j)/al <= (1 - bu j)/au with al > 0 > au
            got = tighten(jlow, jhigh, al * bu - au * bl, al - au)
            if got is None:
                return None
            jlow, jhigh = got
    if jlow is not None and jhigh is not None and jlow > jhigh:
        return None
    if jlow is not None:
        j = jlow
    elif jhigh is not None:
        j = jhigh
    else:
        j = F(0)
    ilow = ihigh = None
    for a, b in lowers:
        bound = (1 - b * j) / a
        ilow = bound if ilow is None else max(ilow, bound)
    for a, b in uppers:
        bound = (1 - b * j) / a
        ihigh = bound if ihigh is None else min(ihigh, bound)
    if ilow is not None and ihigh is not None and ilow > ihigh:
        return None
    i = ilow if ilow is not None else (ihigh if ihigh is not None else F(0))
    assert all(a * i + b * j >= 1 for a, b in rows)
    return i, j


@st.composite
def _closed_form_matrices(draw) -> Mat2Q:
    """Any small rational matrix, singular ones included, or a rational
    conjugate of a finite-order, unipotent or -unipotent matrix."""
    kind = draw(st.sampled_from(("random", "finite", "unipotent")))
    if kind == "random":
        return Mat2Q.of(*draw(st.tuples(entries, entries, entries, entries)))
    if kind == "finite":
        m = draw(st.sampled_from(_FINITE_ORDER))
    else:
        sign = draw(st.sampled_from((1, -1)))
        m = Mat2Q.of(sign, draw(small_rationals), 0, sign)
    p = draw(matrices)
    return p * m * p.inverse()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_closed_form_matrices())
def test_matrix_closed_forms_agree_with_search(m):
    assert matrix_order(m) == _ref_matrix_order(m)
    assert classify_module._is_plus_minus_unipotent(m) == _ref_is_plus_minus_unipotent(m)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=6))
def test_cone_integer_point_agrees_with_fourier_motzkin(rows):
    point = classify_module.cone_integer_point(rows)
    assert (point is None) == (_ref_halfplane_witness(rows) is None)
    if point is not None:
        assert all(a * point[0] + b * point[1] >= 1 for a, b in rows)


# --- classification reports as JSON --------------------------------------------------


def _shape(value) -> object:
    return frozenset(value) if isinstance(value, dict) else type(value).__name__


GOLDEN_SHAPES: dict[str, set] = {}
for _path in sorted((Path(__file__).parent / "golden").glob("*.json")):
    if not _path.name.startswith("verify_seed"):
        for _key, _value in json.loads(_path.read_text())["report"].items():
            GOLDEN_SHAPES.setdefault(_key, set()).add(_shape(_value))

CLASSIFY_CASES = {**DESCRIPTORS, "affine_q2_shapes": _affine_groups()}


@pytest.mark.parametrize("family", sorted(CLASSIFY_CASES))
def test_classify_report_is_plain_json_with_golden_keys(family):
    """`classify` refuses only with an `InputError` (`ClassifyError` or
    `FactorBudgetError`), and its report serializes to plain JSON data
    (lists, not tuples) shaped like the golden reports."""

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(CLASSIFY_CASES[family])
    def check(desc):
        try:
            data = classify(desc).to_json()
        except InputError:
            return
        assert json.loads(json.dumps(data)) == data
        assert set(data) == set(GOLDEN_SHAPES)
        for key, value in data.items():
            assert _shape(value) in GOLDEN_SHAPES[key], (key, value)

    check()


@pytest.mark.parametrize("family", sorted(DESCRIPTORS))
def test_derived_length_agrees_with_commutator_search(family):
    """No iterated commutator of depth d survives in a group of reported
    derived length d, and one of depth d - 1 is found when d >= 2."""

    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(DESCRIPTORS[family])
    def check(desc):
        try:
            d = classify(desc).derived_length
        except InputError:
            return
        cfg = TrialConfig(seed=0, trials=40)
        assert commutator_depth_search(desc, min(max(d, 1), 3), cfg) is None
        if d >= 2:
            assert commutator_depth_search(desc, d - 1, cfg) is not None

    check()


# --- the abstract's BS(1,n) rtimes Z --------------------------------------------------


@st.composite
def _bs1n_extensions(draw) -> MetabelianH31:
    """BS(1,n) rtimes Z for an automorphism a -> a^c, t -> t a^b, with c a
    unit and b an element of Z[1/n]."""
    n = draw(st.integers(2, 12)) * draw(st.sampled_from((1, -1)))
    primes = prime_factors(n)
    c = draw(st.sampled_from((1, -1))) * prod(
        (F(p) ** draw(st.integers(-2, 2)) for p in primes), start=F(1)
    )
    b = F(draw(st.integers(-3, 3)), radical_of(n) ** draw(st.integers(0, 2)))
    return bs1n_ext_to_meta(n, BS1nAut(c, b))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_bs1n_extensions())
def test_bs1n_extensions_are_ascending_hnn_of_cd_3(desc):
    """The paper's BS(1,n) rtimes Z: Hirsch length and cohomological
    dimension 3, finitely presentable but not polycyclic, so an ascending
    HNN extension of Z^2 or of the Klein bottle group (Type1 or Type2)."""
    report = classify(desc)
    assert report.hirsch_length == report.cohomological_dimension == 3
    assert report.finitely_presentable and not report.polycyclic
    assert type(report.constructible_type).__name__ in ("Type1", "Type2")


# --- the descriptor-file round trip ----------------------------------------------------


_identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True)


@st.composite
def _named_affine(draw) -> AffineQ2:
    names = draw(st.lists(_identifiers, min_size=1, max_size=3, unique=True))
    return AffineQ2(
        tuple(
            (name, AffineMap2(draw(matrices), (draw(small_rationals), draw(small_rationals))))
            for name in names
        )
    )


@st.composite
def _descriptor_files(draw) -> DescriptorFile:
    """A descriptor of any family, with or without a presentation over its
    generator names."""
    desc = draw(st.one_of(*DESCRIPTORS.values(), _named_affine()))
    presentation = None
    names = ops_for(desc).generator_names
    if names and draw(st.booleans()):
        relators = draw(st.lists(_words(names, 4), max_size=3))
        presentation = Presentation(names, tuple(relators))
    return DescriptorFile(desc, draw(st.none() | _identifiers), None, presentation)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_descriptor_files())
def test_descriptor_file_round_trip(df):
    back = parse_descriptor_text(serialize_descriptor_file(df))
    assert back == df
    assert input_digest(back) == input_digest(df)


# --- factorization against trial division ----------------------------------------------


def _trial_division(n: int) -> dict[int, int]:
    """Prime -> exponent map of |n| by trial division, the reference that
    `rationals.factorint` replaced."""
    n, out, d = abs(n), {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(st.integers(1, 2**26), min_size=1, max_size=3), st.sampled_from((1, -1)))
def test_factorint_agrees_with_trial_division(factors, sign):
    # the reference factors each operand, never the product of up to 78
    # bits, whose prime factors above 2^10 Pollard-Brent has to find
    expected: dict[int, int] = {}
    for f in factors:
        for p, e in _trial_division(f).items():
            expected[p] = expected.get(p, 0) + e
    got = factorint(sign * prod(factors))
    assert got == expected
    assert list(got) == sorted(got)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    st.integers(-40, 40).filter(lambda p: abs(p) > 1),
    st.integers(0, 70),
    st.integers(-(10**6), 10**6).filter(bool),
)
def test_valuation_agrees_with_repeated_division(p, v, unit):
    n = rest = unit * p**v
    expected = 0
    while rest % p == 0:
        rest //= p
        expected += 1
    assert valuation(n, p) == expected >= v


# --- the commutator exponent against the exponent table ---------------------------------


@st.composite
def _coprime_pair(draw) -> tuple[int, int]:
    x = draw(st.just(1) | st.integers(1, 6))  # x = 1 half the time: solvable
    y = draw(st.integers(-7, 7).filter(lambda y: y != 0 and gcd(x, y) == 1))
    return x, y


_atoms = st.lists(
    st.builds(ConjugateAtom, st.integers(-3, 3), st.integers(-3, 3), st.integers(-5, 5)),
    min_size=1,
    max_size=5,
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_coprime_pair(), _coprime_pair(), _atoms)
def test_commutator_exponent_is_the_table_total_over_n(tpair, upair, atoms):
    (m, n), (p, q) = tpair, upair
    window = max((max(abs(a.i), abs(a.j)) for a in atoms), default=0)
    N, table = exponent_law(m, n, p, q, window)
    c = Fraction(sum(a.exponent * table[(a.i, a.j)] for a in atoms), N)
    pres = pres_with(m, n, p, q, comm_ut() * atom_product_word(atoms).inv())
    if c.denominator != 1:
        with pytest.raises(SimplifyError, match="commutator exponent is not an integer"):
            standardize(pres)
    elif m != 1 and abs(n) != 1:
        with pytest.raises(SolvabilityError):
            standardize(pres)
    else:
        assert standardize(pres) == StandardForm(m, n, p, q, int(c))


# --- the command line on mutated fixture files ------------------------------------------

_FUZZ_FILES = (*FIXTURES, corrupted_d_infty())
# what replaces one value of a fixture file: degenerate, malformed, overlong,
# 64-bit and just past each power-of-two size class
_FUZZ_VALUES = (
    "0",
    "-1",
    "1/0",
    "x#",
    "9" * 30,
    str(2**64),
    f"1/{2**33 + 1}",
    *(str(2**k + s) for k in (9, 17, 33, 61) for s in (-1, 1)),
)


@st.composite
def _mutated_files(draw) -> tuple[str, tuple[str, ...]]:
    """A fixture's file text with one value replaced, and the fixture's
    generator names.  A value is a parameter, one entry of a list of them,
    a whole presentation or one number in it."""
    fixture = draw(st.sampled_from(_FUZZ_FILES))
    lines = cli.serialize_descriptor_file(fixture).splitlines(keepends=True)
    spots = [
        (idx, match.span())
        for idx, line in enumerate(lines)
        if (key := line.split(" = ", 1)[0]) not in ("family", "name", "notes")
        for pattern in ((r"< .*", r"\d+") if key == "presentation" else (r"\S+",))
        for match in re.compile(pattern).finditer(line, len(key) + 3)
    ]
    idx, (start, end) = draw(st.sampled_from(spots))
    line = lines[idx]
    lines[idx] = line[:start] + draw(st.sampled_from(_FUZZ_VALUES)) + line[end:]
    return "".join(lines), ops_for(fixture.descriptor).generator_names


class _Overtime(Exception):
    pass


def _overtime(signum, frame):
    raise _Overtime("a command ran past 5 s")


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_mutated_files())
def test_every_command_answers_a_mutated_file(tmp_path_factory, mutated):
    # every command answers or refuses, with no traceback and within the alarm
    text, names = mutated
    path = tmp_path_factory.getbasetemp() / "mutated.toml"
    path.write_text(text)
    first, last = names[0], names[-1]
    commands = (
        ["classify", str(path)],
        ["word-eq", str(path), f"{first} {last}", f"{last} {first}"],
        ["simplify", str(path)],
        ["verify", str(path), "--trials", "10"],
    )
    previous = signal.signal(signal.SIGALRM, _overtime)
    try:
        for argv in commands:
            signal.alarm(5)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in (0, 2, 3, 4), argv
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# --- the word product and power -------------------------------------------------


@st.composite
def _seam_pairs(draw):
    """Reduced words u and v where v opens with the inverse of u's last few
    syllables, so their seam cancels that deep; half the time the deepest
    of those has its exponent shifted, so it merges instead of cancelling."""
    syllables = st.lists(st.tuples(st.sampled_from("abc"), st.integers(-3, 3)), max_size=8)
    u = Word.of(draw(syllables))
    depth = draw(st.integers(0, len(u.syllables)))
    undo = list(Word(u.syllables[len(u.syllables) - depth :]).inv().syllables)
    if undo and draw(st.booleans()):
        g, e = undo[-1]
        undo[-1] = (g, e + draw(st.integers(-3, 3)))
    return u, Word.of(undo + draw(syllables))


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(_seam_pairs(), st.integers(-7, 7))
def test_word_product_and_power_agree_with_free_reduction(pair, k):
    u, v = pair
    assert u * v == Word.of(u.syllables + v.syllables)
    for w in (u, v.inv() * u * v):  # the conjugate is peeled to its core first
        base = w if k >= 0 else w.inv()
        assert w**k == Word.of(base.syllables * abs(k))
