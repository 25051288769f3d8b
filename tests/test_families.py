"""Element algebra for every group family: frozen examples and group laws."""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import pytest

from hirsch3.families import (
    AffineMap2,
    AffineQ2,
    AscHNNKb,
    BSbar,
    BrittonElem,
    KbElem,
    LatticeByZ,
    LatticeElem,
    MetaH31Elem,
    MetabelianH31,
    RankOneQ,
    affine_compose,
    affine_inverse,
    affine_of_word,
    affine_pow,
    _iterate_apply,
    _lattice_of_ints,
    _meta_of_ints,
    hnnkb_of_word,
    hnnkb_reduce,
    kb_inv,
    kb_mul,
    lattice_inv,
    lattice_mul,
    lattice_of_word,
    meta_inv,
    meta_mul,
    meta_of_word,
    ops_for,
    rankone_of_word,
)
from hirsch3.rationals import Mat2Q, in_localized, radical_of
from hirsch3.words import Word, parse_word
from test_rationals import is_unit_localized

F = Fraction


def rand_word(rng, names, syllables=8, max_exp=3):
    pairs = [
        (rng.choice(names), rng.randint(-max_exp, max_exp))
        for _ in range(rng.randint(0, syllables))
    ]
    return Word.of(pairs)


D_INFTY = AffineQ2(
    (
        ("u", AffineMap2(Mat2Q.of(1, 0, 0, -1), (F(1, 2), F(0)))),
        ("v", AffineMap2(Mat2Q.of(2, -1, 3, -2), (F(0), F(-1)))),
        ("y", AffineMap2(Mat2Q.identity(), (F(0), F(1)))),
    )
)

FAMILIES = [
    RankOneQ((F(1, 2), F(1, 3))),
    BSbar(2, 3),
    MetabelianH31(1, 2, 1, 3, F(1)),
    MetabelianH31(2, 3, 1, 5, F(5, 6)),
    LatticeByZ(Mat2Q.of(0, -2, 1, 0)),
    AscHNNKb(1, 0, 2),
    AscHNNKb(3, 1, -2),
    D_INFTY,
]


def test_rank_one_normal_form_reads_only_g1_to_gn():
    desc = RankOneQ((F(1, 2), F(1, 3)))
    assert rankone_of_word(desc, parse_word("g1^4 g2^-3")) == F(1)
    for name in ("g01", "g0", "g3", "g", "x"):
        expected = rf"unknown generator '{name}' \(expected g1\.\.g2\)"
        with pytest.raises(ValueError, match=expected):
            rankone_of_word(desc, Word.gen(name))


class TestDescriptorValidation:
    def test_bsbar(self):
        with pytest.raises(ValueError):
            BSbar(0, 2)
        with pytest.raises(ValueError):
            BSbar(2, 4)
        with pytest.raises(ValueError):
            BSbar(1, 0)
        assert BSbar(2, -3).ratio == F(-3, 2)
        assert BSbar(2, 3).locus == 6

    def test_meta(self):
        with pytest.raises(ValueError):
            MetabelianH31(1, 2, 1, 3, F(1, 5))
        with pytest.raises(ValueError):
            MetabelianH31(2, 4, 1, 3, F(0))
        with pytest.raises(ValueError):
            MetabelianH31(1, 2, 0, 3, F(0))
        desc = MetabelianH31(2, 3, 1, 5, F(7, 30))
        assert desc.locus == 30
        assert desc.t_ratio == F(3, 2)

    def test_hnn(self):
        with pytest.raises(ValueError, match="e must be odd"):
            AscHNNKb(0, 1, 1)
        with pytest.raises(ValueError, match="e must be odd"):
            AscHNNKb(2, 0, 3)
        with pytest.raises(ValueError, match="d must be nonzero"):
            AscHNNKb(1, 0, 0)

    def test_lattice(self):
        with pytest.raises(ValueError):
            LatticeByZ(Mat2Q.of(1, 1, 1, 1))

    def test_affine(self):
        with pytest.raises(ValueError):
            AffineQ2((("u", AffineMap2(Mat2Q.of(1, 1, 1, 1), (F(0), F(0)))),))
        with pytest.raises(ValueError):
            AffineQ2(
                (
                    ("u", AffineMap2.identity()),
                    ("u", AffineMap2.identity()),
                )
            )


def bsbar_of_word(desc, w):
    return ops_for(desc).of_word(w)


def bsbar_elem(u, k):
    # a^u t^k, which BSbar keeps as the metabelian a^u t^k u^0
    return MetaH31Elem(u, k, 0)


class TestBSbar:
    def test_frozen_values(self):
        desc = BSbar(2, 3)
        assert bsbar_of_word(desc, parse_word("t a t^-1")) == bsbar_elem(F(3, 2), 0)
        assert bsbar_of_word(desc, parse_word("t a^2 t^-1")) == bsbar_elem(F(3), 0)
        assert bsbar_of_word(desc, Word()) == bsbar_elem(F(0), 0)

    def test_defining_relator(self):
        for desc in [BSbar(2, 3), BSbar(1, -2), BSbar(3, -5)]:
            relator = parse_word(f"t a^{desc.m} t^-1 a^{-desc.n}")
            assert bsbar_of_word(desc, relator) == bsbar_elem(F(0), 0)

    def test_rejects_unknown_generator(self):
        with pytest.raises(ValueError):
            bsbar_of_word(BSbar(2, 3), parse_word("a u"))


class TestMeta:
    def test_commuting_when_untwisted(self):
        desc = MetabelianH31(1, 2, 1, 3, F(0))
        assert meta_of_word(desc, parse_word("u t")) == meta_of_word(desc, parse_word("t u"))

    def test_twisted_product(self):
        # u t = t a^e u, and the leading a-syllable picks up one t-conjugation
        desc = MetabelianH31(1, 2, 1, 3, F(1))
        got = meta_of_word(desc, parse_word("u t"))
        assert got == meta_of_word(desc, parse_word("t a u"))
        assert got == MetaH31Elem(F(2), 1, 1)

    def test_defining_relators(self):
        for desc in [
            MetabelianH31(1, 2, 1, 3, F(1)),
            MetabelianH31(2, 3, 1, 5, F(2)),
            MetabelianH31(3, -2, 2, 7, F(0)),
        ]:
            e = desc.e
            assert e.denominator == 1
            relators = [
                f"t a^{desc.m} t^-1 a^{-desc.n}",
                f"u a^{desc.p} u^-1 a^{-desc.q}",
                f"u t u^-1 a^{-e.numerator} t^-1",
            ]
            for text in relators:
                assert meta_of_word(desc, parse_word(text)) == MetaH31Elem(F(0), 0, 0)

    def test_coordinates_stay_localized(self):
        desc = MetabelianH31(2, 3, 1, 5, F(5, 6))
        rng = random.Random(31)
        for _ in range(200):
            w = rand_word(rng, ["a", "t", "u"], syllables=10)
            g = meta_of_word(desc, w)
            assert in_localized(g.x, desc.locus)

    def test_associativity_random_triples(self):
        desc = MetabelianH31(1, 2, 1, 3, F(1))
        rng = random.Random(17)

        def rand_elem():
            num = rng.randint(-20, 20)
            den = 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 3)
            return MetaH31Elem(F(num, den), rng.randint(-3, 3), rng.randint(-3, 3))

        for _ in range(500):
            g1, g2, g3 = rand_elem(), rand_elem(), rand_elem()
            assert meta_mul(desc, meta_mul(desc, g1, g2), g3) == meta_mul(
                desc, g1, meta_mul(desc, g2, g3)
            )


class TestLattice:
    def test_mul_conjugation(self):
        m = Mat2Q.of(2, 0, 0, 1)
        t = LatticeElem((F(0), F(0)), 1)
        a = LatticeElem((F(1), F(0)), 0)
        t_inv = LatticeElem((F(0), F(0)), -1)
        desc = LatticeByZ(m)
        got = lattice_mul(desc, lattice_mul(desc, t, a), t_inv)
        assert got == LatticeElem((F(2), F(0)), 0)

    def test_inverse_law(self):
        desc = LatticeByZ(Mat2Q.of(0, -2, 1, 0))
        rng = random.Random(43)
        for _ in range(100):
            w = rand_word(rng, ["a", "b", "t"], syllables=8)
            g = lattice_of_word(desc, w)
            gi = lattice_of_word(desc, w.inv())
            assert lattice_mul(desc, g, gi) == LatticeElem((F(0), F(0)), 0)


class TestKb:
    def test_frozen_values(self):
        x, y = KbElem(1, 0), KbElem(0, 1)
        assert kb_mul(kb_mul(x, y), kb_inv(x)) == KbElem(0, -1)
        assert kb_mul(y, x) == KbElem(1, -1)
        assert kb_mul(KbElem(0, 0), y) == y

    def test_relator(self):
        x, y = KbElem(1, 0), KbElem(0, 1)
        assert kb_mul(kb_mul(kb_mul(x, y), kb_inv(x)), y) == KbElem(0, 0)


POWERS = [
    (Mat2Q.pow, Mat2Q.__mul__, Mat2Q.inverse, Mat2Q.identity(), Mat2Q.of(F(1, 2), 1, -3, 2)),
    (affine_pow, affine_compose, affine_inverse, AffineMap2.identity(), dict(D_INFTY.generators)["v"]),
]


@pytest.mark.parametrize("power, mul, inv, one, x", POWERS, ids=["mat2q", "affine"])
def test_power_matches_repeated_product(power, mul, inv, one, x):
    for k in range(-5, 6):
        expect = one
        for _ in range(abs(k)):
            expect = mul(expect, x if k >= 0 else inv(x))
        assert power(x, k) == expect


class TestKbEndo:
    def test_generator_images(self):
        phi = AscHNNKb(1, 0, 2)
        assert kb_endo_apply(phi, KbElem(0, 1)) == KbElem(0, 2)
        x, y = KbElem(1, 0), KbElem(0, 1)
        assert kb_endo_apply(phi, kb_mul(x, y)) == kb_mul(x, KbElem(0, 2))

    def test_homomorphism(self):
        rng = random.Random(53)
        for phi in [AscHNNKb(1, 0, 2), AscHNNKb(3, 1, -2), AscHNNKb(-1, 2, 3)]:
            for _ in range(1000):
                g = KbElem(rng.randint(-6, 6), rng.randint(-6, 6))
                h = KbElem(rng.randint(-6, 6), rng.randint(-6, 6))
                assert kb_endo_apply(phi, kb_mul(g, h)) == kb_mul(
                    kb_endo_apply(phi, g), kb_endo_apply(phi, h)
                )

    def test_image_membership_matches_enumeration(self):
        rng = random.Random(59)
        for phi in [AscHNNKb(1, 0, 2), AscHNNKb(3, 1, 2), AscHNNKb(-3, 2, -2)]:
            image = {
                kb_endo_apply(phi, KbElem(a, b))
                for a in range(-8, 9)
                for b in range(-8, 9)
            }
            for _ in range(300):
                g = KbElem(rng.randint(-6, 6), rng.randint(-6, 6))
                claimed = image_membership(phi, g)
                assert claimed == (g in image) or claimed
                if claimed:
                    assert kb_endo_apply(phi, _endo_preimage(phi, g)) == g
                else:
                    assert g not in image


class TestHnnKb:
    def test_frozen_reductions(self):
        desc = AscHNNKb(1, 0, 2)
        assert hnnkb_of_word(desc, parse_word("s^-1 x s")) == BrittonElem(0, KbElem(1, 0), 0)
        assert hnnkb_of_word(desc, parse_word("s^-1 y s")) == BrittonElem(1, KbElem(0, 1), 1)

    def test_stable_letter_relators(self):
        for desc in [AscHNNKb(1, 0, 2), AscHNNKb(3, 1, -2), AscHNNKb(-1, 2, 5)]:
            rel_x = f"s x s^-1 y^{-desc.f} x^{-desc.e}"
            rel_y = f"s y s^-1 y^{-desc.d}"
            for text in [rel_x, rel_y, "x y x^-1 y"]:
                got = hnnkb_of_word(desc, parse_word(text))
                assert got == BrittonElem(0, KbElem(0, 0), 0), text

    def test_inverse_law(self):
        rng = random.Random(61)
        desc = AscHNNKb(1, 0, 2)
        ops = ops_for(desc)
        for _ in range(300):
            word = rand_word(rng, ["x", "y", "s"], syllables=8, max_exp=2)
            g = ops.of_word(word)
            assert ops.mul(g, ops.inv(g)) == ops.identity()
            assert ops.mul(ops.inv(g), g) == ops.identity()

    def test_britton_equality_well_defined(self):
        rng = random.Random(67)
        desc = AscHNNKb(3, 1, 2)
        ops = ops_for(desc)
        relators = [
            parse_word(f"s x s^-1 y^{-desc.f} x^{-desc.e}"),
            parse_word(f"s y s^-1 y^{-desc.d}"),
            parse_word("x y x^-1 y"),
        ]
        for _ in range(300):
            w1 = rand_word(rng, ["x", "y", "s"], syllables=6, max_exp=2)
            conj = rand_word(rng, ["x", "y", "s"], syllables=3, max_exp=2)
            inserted = conj * rng.choice(relators) * conj.inv()
            cut = rng.randint(0, len(w1.syllables))
            w2 = Word.of(w1.syllables[:cut] + inserted.syllables + w1.syllables[cut:])
            assert ops.of_word(w1) == ops.of_word(w2)
            w3 = rand_word(rng, ["x", "y", "s"], syllables=4, max_exp=2)
            assert ops.of_word(w1 * w3) == ops.of_word(w2 * w3)
            assert ops.of_word(w3 * w1) == ops.of_word(w3 * w2)


class TestAffine:
    def test_frozen_values(self):
        u_sq = affine_of_word(D_INFTY, parse_word("u^2"))
        assert u_sq == AffineMap2(Mat2Q.identity(), (F(1), F(0)))
        v_sq = affine_of_word(D_INFTY, parse_word("v^2"))
        assert v_sq == AffineMap2(Mat2Q.identity(), (F(1), F(1)))
        assert v_sq == affine_of_word(D_INFTY, parse_word("u^2 y"))
        assert affine_of_word(D_INFTY, Word()) == AffineMap2.identity()

    def test_source_presentation_relators(self):
        # the three defining relations, written as w1 = w2 pairs
        pairs = [
            ("u y u^-1", "y^-1"),
            ("v y v^-1", "v^-2 y^-1"),
            ("v^2", "u^2 y"),
        ]
        for lhs, rhs in pairs:
            assert affine_of_word(D_INFTY, parse_word(lhs)) == affine_of_word(
                D_INFTY, parse_word(rhs)
            )

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            affine_of_word(D_INFTY, parse_word("w"))


def _rational(rng) -> Fraction:
    # mixes coprime denominators and values written non-reduced, like 2/4
    k = rng.choice((1, 2, 3))
    return F(rng.randint(-9, 9) * k, rng.choice((1, 2, 3, 4, 5, 7, 9)) * k)


def _random_maps(seed: int, count: int) -> list[AffineMap2]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        lin = Mat2Q(*(_rational(rng) for _ in range(4)))
        if lin.det() != 0:
            out.append(AffineMap2(lin, (_rational(rng), _rational(rng))))
    return out


class TestAffineKernel:
    MAPS = _random_maps(61, 60)

    def test_compose_matches_matrix_formula(self):
        for f, g in zip(self.MAPS, self.MAPS[1:] + self.MAPS[:1]):
            fg = affine_compose(f, g)
            b = f.linear.apply(g.translation)
            assert fg.linear == f.linear * g.linear
            assert fg.translation == (b[0] + f.translation[0], b[1] + f.translation[1])
            v = (F(3, 7), F(-5, 2))
            assert fg.apply(v) == f.apply(g.apply(v))

    def test_inverse_is_two_sided(self):
        # the sample covers both signs of the determinant
        assert {f.linear.det() > 0 for f in self.MAPS} == {True, False}
        for f in self.MAPS:
            inv = affine_inverse(f)
            assert affine_compose(f, inv) == AffineMap2.identity()
            assert affine_compose(inv, f) == AffineMap2.identity()
            assert inv.linear == f.linear.inverse()

    def test_storage_is_canonical(self):
        for f, g in zip(self.MAPS, self.MAPS[1:]):
            for h in (f, affine_compose(f, g), affine_inverse(f), affine_pow(f, -3)):
                assert h.ints[0] > 0
                assert gcd(*h.ints) == 1

    def test_equal_maps_written_differently_are_equal(self):
        # products carry common factors in all seven integers until the
        # gcd normalization removes them
        for f in self.MAPS:
            for same in (
                affine_compose(affine_compose(f, f), affine_inverse(f)),
                affine_compose(affine_pow(f, 3), affine_pow(f, -2)),
            ):
                assert same == f and hash(same) == hash(f)
        assert AffineMap2(Mat2Q.of(F(2, 4), 0, 0, 1), (F(3, 6), 0)) == AffineMap2(
            Mat2Q.of(F(1, 2), 0, 0, 1), (F(1, 2), 0)
        )

    def test_singular_linear_part_rejected(self):
        for lin in (Mat2Q.of(1, 2, 2, 4), Mat2Q.of(F(1, 2), F(1, 3), F(3, 2), 1), Mat2Q.of(0, 0, 0, 0)):
            with pytest.raises(ValueError):
                AffineMap2(lin, (F(1), F(0)))


# Fraction reference of the element formulas, as they were written before the
# integer kernel: (u, k), (x, i, j) and (v, k) tuples of Fractions and ints.


def _ref_bsbar_mul(desc, g1, g2):
    return (g1[0] + desc.ratio ** g1[1] * g2[0], g1[1] + g2[1])


def _ref_bsbar_inv(desc, g):
    return (-(desc.ratio ** -g[1]) * g[0], -g[1])


def _ref_geom(r, k):
    return F(k) if r == 1 else (r**k - 1) / (r - 1)


def _ref_meta_prepend_u(desc, s, g):
    if s == 0:
        return g
    r1, r2, e = desc.t_ratio, desc.u_ratio, desc.e
    x, i, j = g
    eps = 1 if s > 0 else -1
    x = x * r2**s
    if i != 0 and e != 0:
        delta = 1 if i > 0 else -1
        c0 = {(1, 1): e, (1, -1): -e * r1, (-1, 1): -e / r2, (-1, -1): e * r1 / r2}[(eps, delta)]
        crossing = c0 * _ref_geom(r1**-delta, abs(i)) * _ref_geom(r2**eps, abs(s))
        x += crossing * r1**i
    return (x, i, j + s)


def _ref_meta_mul(desc, g1, g2):
    x, i, j = _ref_meta_prepend_u(desc, g1[2], g2)
    return (g1[0] + x * desc.t_ratio ** g1[1], i + g1[1], j)


def _ref_meta_inv(desc, g):
    x, i, j = g
    return _ref_meta_prepend_u(desc, -j, (-x * desc.t_ratio**-i, -i, 0))


def _ref_lattice_mul(mat, g1, g2):
    w = mat.pow(g1[1]).apply(g2[0])
    return ((g1[0][0] + w[0], g1[0][1] + w[1]), g1[1] + g2[1])


def _ref_lattice_inv(mat, g):
    w = mat.pow(-g[1]).apply(g[0])
    return ((-w[0], -w[1]), -g[1])


def _localized(rng, primes):
    den = 1
    for p in primes:
        den *= p ** rng.randint(0, 3)
    return F(rng.randint(-40, 40) * rng.choice((1, 1, 6)), den)


class TestElementKernels:
    """BSbar, MetabelianH31 and LatticeByZ elements on integers over one
    gcd-normalized denominator, against the Fraction formulas above."""

    BSBARS = [BSbar(2, 3), BSbar(1, -2), BSbar(3, -5), BSbar(1, 1)]
    METAS = [
        MetabelianH31(1, 2, 1, 3, F(1)),
        MetabelianH31(2, 3, 1, 5, F(5, 6)),
        MetabelianH31(3, -2, 2, 7, F(0)),
        MetabelianH31(1, -1, 1, 2, F(-1, 2)),
        MetabelianH31(1, 2, 1, 1, F(3)),
    ]
    LATTICES = [
        LatticeByZ(Mat2Q.of(2, 1, 1, 1)),
        LatticeByZ(Mat2Q.of(0, -2, 1, 0)),
        LatticeByZ(Mat2Q.of(F(1, 2), F(-3, 4), 1, F(1, 2))),
        LatticeByZ(Mat2Q.of(1, 2, 0, 3)),
    ]

    def _bsbar_pairs(self, desc, rng):
        for _ in range(60):
            g1 = (_localized(rng, (2, 3, 5)), rng.randint(-7, 7))
            g2 = (_localized(rng, (2, 3, 5)), rng.randint(-7, 7))
            yield g1, g2, bsbar_elem(*g1), bsbar_elem(*g2)

    def _meta_pairs(self, desc, rng):
        for _ in range(60):
            g1 = (_localized(rng, (2, 3, 5, 7)), rng.randint(-6, 6), rng.randint(-6, 6))
            g2 = (_localized(rng, (2, 3, 5, 7)), rng.randint(-6, 6), rng.randint(-6, 6))
            yield g1, g2, MetaH31Elem(*g1), MetaH31Elem(*g2)

    def _lattice_pairs(self, desc, rng):
        for _ in range(60):
            g1 = ((_localized(rng, (2, 3)), _localized(rng, (2, 3))), rng.randint(-6, 6))
            g2 = ((_localized(rng, (2, 3)), _localized(rng, (2, 3))), rng.randint(-6, 6))
            yield g1, g2, LatticeElem(*g1), LatticeElem(*g2)

    def test_bsbar_matches_fraction_reference(self):
        rng = random.Random(71)
        for desc in self.BSBARS:
            ops = ops_for(desc)
            for g1, g2, e1, e2 in self._bsbar_pairs(desc, rng):
                got = ops.mul(e1, e2)
                assert (got.x, got.i) == _ref_bsbar_mul(desc, g1, g2) and got.j == 0
                got = ops.inv(e1)
                assert (got.x, got.i) == _ref_bsbar_inv(desc, g1) and got.j == 0

    def test_meta_matches_fraction_reference(self):
        rng = random.Random(73)
        for desc in self.METAS:
            for g1, g2, e1, e2 in self._meta_pairs(desc, rng):
                got = meta_mul(desc, e1, e2)
                assert (got.x, got.i, got.j) == _ref_meta_mul(desc, g1, g2)
                got = meta_inv(desc, e1)
                assert (got.x, got.i, got.j) == _ref_meta_inv(desc, g1)

    def test_lattice_matches_fraction_reference(self):
        rng = random.Random(79)
        for desc in self.LATTICES:
            for g1, g2, e1, e2 in self._lattice_pairs(desc, rng):
                got = lattice_mul(desc, e1, e2)
                assert (got.v, got.k) == _ref_lattice_mul(desc.matrix, g1, g2)
                got = lattice_inv(desc, e1)
                assert (got.v, got.k) == _ref_lattice_inv(desc.matrix, g1)

    def test_powers_past_the_cached_reach(self):
        # exponents beyond the per-descriptor tables are computed on the spot
        bsbar, meta, lattice = self.BSBARS[0], self.METAS[1], self.LATTICES[0]
        for k in (300, -301):
            g = (F(5, 4), k)
            got = ops_for(bsbar).mul(bsbar_elem(*g), bsbar_elem(*g))
            assert (got.x, got.i) == _ref_bsbar_mul(bsbar, g, g)
            m = (F(7, 6), k, -k)
            got = meta_mul(meta, MetaH31Elem(*m), MetaH31Elem(*m))
            assert (got.x, got.i, got.j) == _ref_meta_mul(meta, m, m)
            v = ((F(1, 2), F(3)), k)
            got = lattice_inv(lattice, LatticeElem(*v))
            assert (got.v, got.k) == _ref_lattice_inv(lattice.matrix, v)

    def test_storage_is_canonical(self):
        rng = random.Random(83)
        cases = (
            (self.BSBARS, self._bsbar_pairs, 2),
            (self.METAS, self._meta_pairs, 2),
            (self.LATTICES, self._lattice_pairs, 3),
        )
        for descs, pairs, width in cases:
            for desc in descs:
                ops = ops_for(desc)
                names = list(ops.generator_names)
                for _, _, e1, e2 in pairs(desc, rng):
                    w = rand_word(rng, names, syllables=6)
                    for h in (e1, ops.mul(e1, e2), ops.inv(e1), ops.of_word(w)):
                        assert h.ints[0] > 0
                        assert gcd(*h.ints[:width]) == 1

    def test_equal_elements_written_differently_are_equal(self):
        # (g h) h^-1 carries common factors until the gcd normalization
        rng = random.Random(89)
        cases = (
            (self.BSBARS, self._bsbar_pairs),
            (self.METAS, self._meta_pairs),
            (self.LATTICES, self._lattice_pairs),
        )
        for descs, pairs in cases:
            for desc in descs:
                ops = ops_for(desc)
                for _, _, e1, e2 in pairs(desc, rng):
                    same = ops.mul(ops.mul(e1, e2), ops.inv(e2))
                    assert same == e1 and hash(same) == hash(e1)
                    same = ops.mul(ops.inv(e2), ops.mul(e2, e1))
                    assert same == e1 and hash(same) == hash(e1)

    @pytest.mark.parametrize("desc", FAMILIES, ids=lambda d: type(d).__name__)
    def test_descriptor_pickles_after_filling_its_tables(self, desc):
        ops = ops_for(desc)
        w = Word.of([(name, 2) for name in ops.generator_names] * 2)
        g = ops.mul(ops.of_word(w), ops.inv(ops.of_word(w.inv())))
        back = pickle.loads(pickle.dumps(desc))
        assert back == desc and repr(back) == repr(desc)
        assert ops_for(back).of_word(w * w) == g

    def test_constructors_round_trip(self):
        rng = random.Random(97)
        for _ in range(200):
            u, v = _localized(rng, (2, 3, 5)), (_localized(rng, (2, 3)), _localized(rng, (2, 7)))
            k, j = rng.randint(-9, 9), rng.randint(-9, 9)
            g = MetaH31Elem(u, k, j)
            assert (g.x, g.i, g.j) == (u, k, j) and g == MetaH31Elem(g.x, g.i, g.j)
            g = LatticeElem(v, k)
            assert (g.v, g.k) == (v, k) and g == LatticeElem(g.v, g.k)
        # non-reduced integers normalize to the constructor's value
        assert _meta_of_ints(40, 100, -1, 3) == MetaH31Elem(F(5, 2), -1, 3)
        assert _lattice_of_ints(6, 3, 9, 4) == LatticeElem((F(1, 2), F(3, 2)), 4)
        assert _lattice_of_ints(4, 2, 1, 0) == LatticeElem((F(1, 2), F(1, 4)), 0)
        assert hash(_lattice_of_ints(6, 0, 12, 1)) == hash(LatticeElem((F(0), F(2)), 1))


def kb_endo_apply(phi: AscHNNKb, g: KbElem) -> KbElem:
    # phi(x^a y^b) = (x^e y^f)^a y^(d b), and e odd gives (x^e y^f)^2 = x^(2e)
    return KbElem(phi.e * g.a, phi.f * (g.a & 1) + phi.d * g.b)


def image_membership(phi: AscHNNKb, g: KbElem) -> bool:
    if g.a % phi.e != 0:
        return False
    alpha = g.a // phi.e
    return (g.b - phi.f * (alpha & 1)) % phi.d == 0


def _endo_preimage(phi: AscHNNKb, g: KbElem) -> KbElem:
    alpha = g.a // phi.e
    return KbElem(alpha, (g.b - phi.f * (alpha & 1)) // phi.d)


def _kb_power(g, k):
    out = KbElem(0, 0)
    for _ in range(abs(k)):
        out = kb_mul(out, g if k > 0 else kb_inv(g))
    return out


@pytest.mark.parametrize("e, f, d", [(1, 0, 2), (3, 1, -2), (-1, 2, 3), (-3, -4, -1), (5, 7, 4), (-5, 1, -3)])
def test_kb_endo_closed_forms_match_generator_images(e, f, d):
    # phi(x^a y^b) = phi(x)^a phi(y)^b with phi(x) = x^e y^f, phi(y) = y^d
    phi = AscHNNKb(e, f, d)
    for a in range(-6, 7):
        for b in range(-6, 7):
            expect = kb_mul(_kb_power(KbElem(e, f), a), _kb_power(KbElem(0, d), b))
            assert kb_endo_apply(phi, KbElem(a, b)) == expect
            # phi^k in closed form against k applications of phi
            iterated = KbElem(a, b)
            for k in range(5):
                assert _iterate_apply(phi, k, KbElem(a, b)) == iterated
                iterated = kb_endo_apply(phi, iterated)


def _reduce_step_by_step(desc, i, g, j):
    while i > 0 and j > 0 and image_membership(desc, g):
        g, i, j = _endo_preimage(desc, g), i - 1, j - 1
    return BrittonElem(i, g, j)


@pytest.mark.parametrize("e", [-3, -1, 1, 5])
@pytest.mark.parametrize("d", [-2, -1, 1, 4])
def test_hnnkb_reduce_takes_every_step_at_once(e, d):
    # past a period of the preimages, or by the inverse of an onto phi
    rng = random.Random(e * 10 + d)
    for f in (-5, 0, 1, 7):
        desc = AscHNNKb(e, f, d)
        for _ in range(30):
            g = KbElem(rng.choice((0, rng.randint(-60, 60))), rng.randint(-60, 60))
            i, j = rng.randint(0, 700), rng.randint(0, 700)
            assert hnnkb_reduce(desc, i, g, j) == _reduce_step_by_step(desc, i, g, j)


def test_hnnkb_reduce_answers_huge_exponents():
    # x = phi(x); y -> y^-1 has period 2; phi onto: x y^5 -> x y^(5 - 3n)
    n = 10**30
    x = KbElem(1, 0)
    assert hnnkb_reduce(AscHNNKb(1, 0, 2), n, x, n + 2) == BrittonElem(0, x, 2)
    assert hnnkb_reduce(AscHNNKb(3, 0, -1), n + 1, KbElem(0, 1), n + 1) == BrittonElem(
        0, KbElem(0, -1), 0
    )
    assert hnnkb_reduce(AscHNNKb(-1, 3, 1), n, KbElem(1, 5), n + 3) == BrittonElem(
        0, KbElem(1, 5 - 3 * n), 3
    )
    # chains of 200,000 and 50,000 preimage steps, counted as valuations
    g = KbElem(1, 2**200_000)
    m = n - 200_000
    assert hnnkb_reduce(AscHNNKb(1, 0, 2), n, g, n) == BrittonElem(m, KbElem(1, 1), m)
    g = KbElem(3**50_000, 0)
    assert hnnkb_reduce(AscHNNKb(3, 1, 1), 60_000, g, 50_001) == BrittonElem(
        10_000, KbElem(1, -50_000), 1
    )


@pytest.mark.parametrize("e, f, d", [(1, 2, 1), (-1, 3, -1), (3, 1, 2), (1, -4, -3)])
def test_iterate_of_a_huge_power_matches_repeated_application(e, f, d):
    phi = AscHNNKb(e, f, d)
    for g in (KbElem(0, 0), KbElem(1, 0), KbElem(0, -2), KbElem(-3, 5)):
        iterated = g
        for _ in range(300):
            iterated = kb_endo_apply(phi, iterated)
        assert _iterate_apply(phi, 300, g) == iterated


@dataclass(frozen=True)
class BS1nAut:
    """Automorphism of BSbar(1,n): a |-> a^c (c a unit of Z[1/n]), t |-> t a^b."""

    c: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", F(self.c))
        object.__setattr__(self, "b", F(self.b))


def bs1n_ext_to_meta(n: int, theta: BS1nAut) -> MetabelianH31:
    """Realize BSbar(1,n) rtimes_theta Z inside the three-generator family.

    The new stable letter u acts on the fiber by multiplication by c and
    twists t by a^b, which is exactly the (m=1, n, p, q, e) presentation with
    q/p = c and e = b.
    """
    if abs(n) < 2:
        raise ValueError("|n| must be at least 2")
    locus = radical_of(n)
    if theta.c == 0 or not is_unit_localized(theta.c, locus):
        raise ValueError(f"{theta.c} is not a unit of Z[1/{locus}]")
    if not in_localized(theta.b, locus):
        raise ValueError(f"{theta.b} is not in Z[1/{locus}]")
    q, p = theta.c.numerator, theta.c.denominator
    return MetabelianH31(m=1, n=n, p=p, q=q, e=theta.b)


class TestExtensionEmbedding:
    def test_unit_check(self):
        with pytest.raises(ValueError):
            bs1n_ext_to_meta(2, BS1nAut(F(3), F(0)))
        with pytest.raises(ValueError):
            bs1n_ext_to_meta(1, BS1nAut(F(1), F(0)))

    def test_frozen_values(self):
        desc = bs1n_ext_to_meta(6, BS1nAut(F(2, 3), F(0)))
        assert (desc.t_ratio, desc.u_ratio) == (F(6), F(2, 3))
        desc = bs1n_ext_to_meta(2, BS1nAut(F(-1), F(0)))
        assert (desc.t_ratio, desc.u_ratio) == (F(2), F(-1))

    def test_twist_carries_over(self):
        desc = bs1n_ext_to_meta(2, BS1nAut(F(-1), F(1, 2)))
        assert desc.e == F(1, 2)


class TestHomomorphismProperty:
    @pytest.mark.parametrize("desc", FAMILIES, ids=lambda d: type(d).__name__)
    def test_of_word_is_homomorphism(self, desc):
        ops = ops_for(desc)
        rng = random.Random(order_seed(desc))
        names = list(ops.generator_names)
        for _ in range(10_000):
            w1 = rand_word(rng, names, syllables=5, max_exp=3)
            w2 = rand_word(rng, names, syllables=5, max_exp=3)
            assert ops.of_word(w1 * w2) == ops.mul(ops.of_word(w1), ops.of_word(w2))

    @pytest.mark.parametrize("desc", FAMILIES, ids=lambda d: type(d).__name__)
    def test_associativity_and_inverses(self, desc):
        ops = ops_for(desc)
        rng = random.Random(order_seed(desc) + 1)
        names = list(ops.generator_names)
        for _ in range(500):
            g1 = ops.of_word(rand_word(rng, names, syllables=5))
            g2 = ops.of_word(rand_word(rng, names, syllables=5))
            g3 = ops.of_word(rand_word(rng, names, syllables=5))
            assert ops.mul(ops.mul(g1, g2), g3) == ops.mul(g1, ops.mul(g2, g3))
            assert ops.mul(g1, ops.inv(g1)) == ops.identity()
            assert ops.mul(ops.inv(g1), g1) == ops.identity()


def order_seed(desc) -> int:
    return sum(ord(ch) for ch in repr(desc)) % 100_000
