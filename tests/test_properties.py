"""Property tests: normal forms against the word oracle on generated
descriptors of every family, and the relation lattice of a ratio pair
against a brute-force scan.

Hypothesis runs derandomized, so every run draws the same examples, and a
failure is reported as a shrunk counterexample (descriptor and words).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hirsch3.families import (  # noqa: E402
    AffineMap2,
    AffineQ2,
    AscHNNKb,
    BSbar,
    LatticeByZ,
    MetabelianH31,
    RankOneQ,
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
