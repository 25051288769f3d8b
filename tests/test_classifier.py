"""Classification reports: frozen examples, cross-field rules, invariances."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, prod
from typing import Iterable

import pytest

from hirsch3 import classify as classify_module
from hirsch3.classify import (
    ClassifyError,
    InvariantViolation,
    ManifoldDim,
    QuotientType,
    Type1,
    Type2,
    Type3,
    _enforce_report_invariants,
    _module_growth_ranks,
    _rank2_module_moduli,
    classify,
    cohomological_dimension,
    coherence_status,
    cone_integer_point,
    derived_length,
    fp_status,
    hirsch_length,
    is_polycyclic,
    minimax_series,
    quotient_type,
    radical_info,
)
from hirsch3.families import (
    AffineMap2,
    AffineQ2,
    AscHNNKb,
    BSbar,
    LatticeByZ,
    MetabelianH31,
    FAMILIES,
    RankOneQ,
    affine_compose,
    affine_of_word,
    meta_of_word,
)
from hirsch3.fixtures import fixture_named
from hirsch3.oracles import oracle_word_eq
from hirsch3.rationals import Mat2Q, prime_factors, rational_valuation
from hirsch3.words import Word

F = Fraction
I2 = Mat2Q.identity()


def meta(r1: Fraction, r2: Fraction, e=0) -> MetabelianH31:
    r1, r2 = F(r1), F(r2)
    return MetabelianH31(r1.denominator, r1.numerator, r2.denominator, r2.numerator, F(e))


def translation(x, y) -> AffineMap2:
    return AffineMap2(I2, (F(x), F(y)))


def dihedral_affine() -> AffineQ2:
    """Two glide reflections whose linear product has infinite order."""
    u = AffineMap2(Mat2Q.of(1, 0, 0, -1), (F(1, 2), F(0)))
    v = AffineMap2(Mat2Q.of(2, -1, 3, -2), (F(0), F(1, 2)))
    return AffineQ2(
        (("u", u), ("v", v), ("x", translation(1, 0)), ("y", translation(0, 1)))
    )


def nonintegral_dihedral_affine() -> AffineQ2:
    """Reflection pair whose composite has trace 2/3: not FP2."""
    u = AffineMap2(Mat2Q.of(1, 0, 0, -1), (F(1, 2), F(0)))
    v = AffineMap2(
        Mat2Q.of(F(1, 3), F(2, 3), F(4, 3), F(-1, 3)), (F(0), F(3, 2))
    )
    return AffineQ2(
        (("u", u), ("v", v), ("x", translation(1, 0)), ("y", translation(0, 1)))
    )


# --- Hirsch length -----------------------------------------------------------


def test_hirsch_length_frozen_examples():
    assert hirsch_length(BSbar(2, 3)) == 2
    assert hirsch_length(meta(2, 3)) == 3
    assert hirsch_length(RankOneQ((F(1, 2), F(1, 3)))) == 1
    assert hirsch_length(RankOneQ((F(0),))) == 0
    assert hirsch_length(LatticeByZ(Mat2Q.of(2, 1, 1, 1))) == 3
    assert hirsch_length(AscHNNKb(1, 0, 2)) == 3
    assert hirsch_length(dihedral_affine()) == 3


# --- radical -----------------------------------------------------------------


def test_radical_rank_one_module():
    info = radical_info(meta(2, 3))
    assert info.hirsch == 1
    assert info.module_description == "Z[1/6]"
    assert info.is_abelian


def test_radical_gains_multiplicative_kernel():
    info = radical_info(meta(2, -2))
    assert info.hirsch == 2
    assert info.is_abelian


def test_radical_of_unipotent_action_is_everything():
    info = radical_info(LatticeByZ(Mat2Q.of(1, 1, 0, 1)))
    assert info.hirsch == 3
    assert not info.is_abelian


def test_radical_of_finite_order_action():
    info = radical_info(LatticeByZ(Mat2Q.of(F(1, 2), F(-3, 4), 1, F(1, 2))))
    assert info.hirsch == 3
    assert info.is_abelian


def test_radical_of_affine_shear_is_everything():
    shear = AffineQ2(
        (
            ("t", AffineMap2(Mat2Q.of(1, 1, 0, 1), (F(0), F(0)))),
            ("x", translation(1, 0)),
            ("y", translation(0, 1)),
        )
    )
    info = radical_info(shear)
    assert info.hirsch == 3
    assert not info.is_abelian
    assert quotient_type(shear) == QuotientType("VirtuallyTrivial")
    assert is_polycyclic(shear)
    assert minimax_series(shear) == ["Z", "Z", "Z"]


def test_radical_of_bsbar():
    assert radical_info(BSbar(2, 3)).module_description == "Z[1/6]"
    assert radical_info(BSbar(2, 3)).hirsch == 1
    assert radical_info(BSbar(1, -1)).hirsch == 2


def test_radical_of_ascending_kb_extension():
    info = radical_info(AscHNNKb(1, 0, 2))
    assert info.hirsch == 2
    assert info.module_description == "sublattice of Q^2, divisible ranks {2: 1}"
    assert info.is_abelian
    assert radical_info(AscHNNKb(1, 0, 1)).hirsch == 3
    assert radical_info(AscHNNKb(-1, 2, -1)).hirsch == 3


def test_radical_abelian_flag_tracks_twist():
    assert radical_info(meta(1, 1, 0)).is_abelian
    assert not radical_info(meta(1, 1, 1)).is_abelian
    assert radical_info(meta(1, -1, 0)).is_abelian
    # the sign-kernel elements t and u^2 still commute when e != 0
    assert radical_info(meta(1, -1, 1)).is_abelian


# --- quotient by the radical -------------------------------------------------


def test_quotient_tags():
    assert quotient_type(meta(2, 3)) == QuotientType("Z2")
    assert quotient_type(AscHNNKb(1, 0, 2)) == QuotientType("ZplusZ2")
    assert quotient_type(dihedral_affine()) == QuotientType("Dinfty")
    assert quotient_type(meta(2, -2)) == QuotientType("ZplusZ2")
    assert quotient_type(meta(2, 2)) == QuotientType("Z")
    assert quotient_type(LatticeByZ(Mat2Q.of(2, 1, 1, 1))) == QuotientType("Z")
    assert quotient_type(meta(1, 1, 1)) == QuotientType("VirtuallyTrivial")


def test_quotient_requires_full_hirsch_length():
    with pytest.raises(ClassifyError):
        quotient_type(BSbar(1, 2))


# --- derived length ----------------------------------------------------------


def test_derived_length_frozen_examples():
    assert derived_length(BSbar(1, 1)) == 1
    assert derived_length(meta(2, 3, 1)) == 2
    assert derived_length(dihedral_affine()) == 3
    assert derived_length(RankOneQ((F(0),))) == 0
    assert derived_length(meta(1, 1, 1)) == 2


def test_derived_length_dihedral_with_shared_reflection_line():
    # both reflections negate the y axis, so commutators are translations
    # along it together with unipotent parts fixing it: metabelian
    u = AffineMap2(Mat2Q.of(1, 0, 0, -1), (F(1, 2), F(0)))
    v = AffineMap2(Mat2Q.of(1, 0, 1, -1), (F(1, 2), F(0)))
    desc = AffineQ2(
        (("u", u), ("v", v), ("x", translation(1, 0)), ("y", translation(0, 1)))
    )
    assert derived_length(desc) == 2
    report = classify(desc)
    assert report.radical.hirsch == 3
    assert report.polycyclic
    assert report.quotient == QuotientType("VirtuallyTrivial")
    assert derived_length(nonintegral_dihedral_affine()) == 3


# --- polycyclicity -----------------------------------------------------------


def test_polycyclic_frozen_examples():
    assert is_polycyclic(LatticeByZ(Mat2Q.of(2, 1, 1, 1)))
    assert not is_polycyclic(LatticeByZ(Mat2Q.of(0, -2, 1, 0)))
    assert not is_polycyclic(AscHNNKb(1, 0, 2))
    assert is_polycyclic(AscHNNKb(1, 0, 1))
    assert is_polycyclic(BSbar(1, -1))
    assert not is_polycyclic(BSbar(1, 2))
    assert is_polycyclic(meta(-1, 1, 2))
    assert not is_polycyclic(meta(2, 3))


def test_polycyclic_is_conjugation_invariant():
    rng = random.Random(20260819)
    mats = [
        Mat2Q.of(2, 1, 1, 1),
        Mat2Q.of(0, -2, 1, 0),
        Mat2Q.of(F(1, 2), F(-3, 4), 1, F(1, 2)),
        Mat2Q.of(2, 0, 0, 3),
    ]
    for _ in range(50):
        entries = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
        p = Mat2Q.of(*entries)
        if p.det() == 0:
            continue
        for m in mats:
            conj = p * m * p.inverse()
            assert is_polycyclic(LatticeByZ(conj)) == is_polycyclic(LatticeByZ(m))


# --- finite presentability and constructible type ----------------------------


def test_fp_with_integer_cone_point():
    fp, ctype, fp2 = fp_status(meta(2, 3))
    assert fp
    assert ctype == Type1(6)
    assert fp2.value is True


def test_fp_fails_off_the_cone():
    fp, ctype, fp2 = fp_status(meta(F(2, 3), 5))
    assert not fp
    assert ctype is None
    assert fp2.value is None


def test_fp_for_unimodular_class_matrix():
    fp, ctype, _ = fp_status(LatticeByZ(Mat2Q.of(F(1, 2), F(-3, 4), 1, F(1, 2))))
    assert fp
    assert ctype == Type3()


def test_fp_for_ascending_lattice_matrix():
    fp, ctype, fp2 = fp_status(LatticeByZ(Mat2Q.of(0, -2, 1, 0)))
    assert fp
    assert ctype == Type2("Z2")
    assert fp2.value is True


def test_fp_for_kb_extension_and_bsbar():
    assert fp_status(AscHNNKb(1, 0, 2))[1] == Type2("Kb")
    assert fp_status(AscHNNKb(3, 1, 2))[1] == Type2("Kb")
    fp, ctype, fp2 = fp_status(BSbar(2, 3))
    assert not fp and ctype is None and fp2.value is False
    fp, ctype, _ = fp_status(BSbar(1, 4))
    assert fp and ctype is None


def test_fp_for_rank_one_multiplicative_image():
    # image generated by 2: ascending, hence presentable
    fp, ctype, _ = fp_status(meta(2, F(1, 2)))
    assert fp and ctype == Type2("Z2")
    # sign-twisted kernel changes the base
    fp, ctype, _ = fp_status(meta(-1, 4))
    assert fp and ctype == Type2("Kb")
    # image generated by 2/3: not presentable
    fp, ctype, fp2 = fp_status(meta(F(2, 3), F(3, 2)))
    assert not fp and ctype is None and fp2.value is False


def test_type1_witness_is_smallest_realized_ratio():
    assert fp_status(meta(12, 18))[1] == Type1(12)
    assert fp_status(meta(2, F(3, 2)))[1] == Type1(6)
    assert fp_status(meta(-2, 3))[1] == Type1(-6)


# --- the valuation cone ------------------------------------------------------


def brute_force_cone(rows, bound=12):
    for i in range(-bound, bound + 1):
        for j in range(-bound, bound + 1):
            if all(a * i + b * j >= 1 for a, b in rows):
                return (i, j)
    return None


def test_cone_frozen_examples():
    assert cone_integer_point([(1, 0), (0, 1)]) is not None
    # parallel rows: the cone is a half-plane, which holds the rows
    assert cone_integer_point([(2, -1), (4, -2)]) is not None
    assert cone_integer_point([(1, 0), (-1, 0)]) is None
    # pairwise non-opposite rows with an empty cone
    assert cone_integer_point([(1, 0), (-1, 1), (0, -1)]) is None


def rows_of_ratios(r1: Fraction, r2: Fraction):
    primes = set(prime_factors(r1.numerator * r1.denominator))
    primes |= set(prime_factors(r2.numerator * r2.denominator))
    return [
        (rational_valuation(r1, p), rational_valuation(r2, p))
        for p in sorted(primes)
        if p > 1
    ]


def test_cone_matches_brute_force_on_random_ratio_pairs():
    rng = random.Random(7)
    primes = (2, 3, 5, 7)
    checked = 0
    while checked < 200:
        def ratio():
            return prod(
                (F(p) ** rng.randint(-1, 1) for p in primes), start=F(1)
            )
        r1, r2 = ratio(), ratio()
        if abs(r1) == 1 and abs(r2) == 1:
            continue
        rows = rows_of_ratios(r1, r2)
        exact = cone_integer_point(rows)
        brute = brute_force_cone(rows)
        assert (exact is None) == (brute is None), (r1, r2)
        if exact is not None:
            assert all(a * exact[0] + b * exact[1] >= 1 for a, b in rows)
        checked += 1


# --- cohomological dimension -------------------------------------------------


def test_cd_frozen_examples():
    assert cohomological_dimension(BSbar(1, 2)) == 2
    assert cohomological_dimension(BSbar(2, 3)) == 3
    assert cohomological_dimension(meta(F(2, 3), 5)) == 4
    assert cohomological_dimension(RankOneQ((F(1, 2),))) == 1
    assert cohomological_dimension(RankOneQ((F(0),))) == 0
    assert cohomological_dimension(AscHNNKb(1, 0, 2)) == 3


# --- coherence ---------------------------------------------------------------


def test_coherence_frozen_examples():
    assert coherence_status(meta(2, 3)).value is False
    assert coherence_status(AscHNNKb(1, 0, 2)).value is True
    assert coherence_status(LatticeByZ(Mat2Q.of(0, -2, 1, F(1, 2)))).value is False
    assert coherence_status(meta(F(2, 3), 5)).value is None
    assert coherence_status(meta(1, 1, 1)).value is True


def test_coherence_requires_full_hirsch_length():
    with pytest.raises(ClassifyError):
        coherence_status(BSbar(2, 3))


# --- minimax sections --------------------------------------------------------


def test_minimax_frozen_examples():
    assert minimax_series(BSbar(2, 3)) == ["Z[1/6]", "Z"]
    assert minimax_series(meta(2, 3)) == ["Z[1/6]", "Z", "Z"]
    assert minimax_series(LatticeByZ(Mat2Q.of(2, 1, 1, 1))) == ["Z", "Z", "Z"]
    assert minimax_series(LatticeByZ(Mat2Q.of(0, -2, 1, 0))) == [
        "Z[1/2]",
        "Z[1/2]",
        "Z",
    ]
    assert minimax_series(LatticeByZ(Mat2Q.of(2, 0, 0, 3))) == [
        "Z[1/2]",
        "Z[1/3]",
        "Z",
    ]
    assert minimax_series(LatticeByZ(Mat2Q.of(6, 0, 0, 1))) == ["Z", "Z[1/6]", "Z"]
    assert minimax_series(AscHNNKb(1, 0, 2)) == ["Z[1/2]", "Z", "finite", "Z"]
    assert minimax_series(nonintegral_dihedral_affine()) == [
        "Z[1/3]",
        "Z[1/3]",
        "Z",
        "finite",
    ]


def test_module_moduli_distinguish_eigenvalue_supports():
    # same divisible ranks, different section moduli
    assert _module_growth_ranks(Mat2Q.of(2, 0, 0, 3)) == {2: 1, 3: 1}
    assert _module_growth_ranks(Mat2Q.of(6, 0, 0, 1)) == {2: 1, 3: 1}
    for m, moduli in ((Mat2Q.of(2, 0, 0, 3), (2, 3)), (Mat2Q.of(6, 0, 0, 1), (1, 6))):
        assert _rank2_module_moduli(m, _module_growth_ranks(m)) == moduli


def eigenvalue_valuations(m: Mat2Q, p: int) -> tuple[Fraction, Fraction]:
    """Valuations of the two eigenvalues, from the hull of the char poly."""
    vd = rational_valuation(m.det(), p)
    if m.trace() != 0:
        vt = rational_valuation(m.trace(), p)
        if 2 * vt <= vd:
            return F(vt), F(vd - vt)
    return F(vd, 2), F(vd, 2)


# --- a lattice-growth reference kept here, not in the package ---------------


@dataclass(frozen=True)
class _Lattice2:
    """Full-rank sublattice of Q^2: integer rows (a, b), (0, c) over den.

    Canonical: a, c > 0, 0 <= b < c, gcd(den, a, b, c) = 1; equality of
    values is then equality of lattices.
    """

    den: int
    a: int
    b: int
    c: int

    @classmethod
    def standard(cls) -> "_Lattice2":
        return cls(1, 1, 0, 1)

    @classmethod
    def from_rows(cls, den: int, rows: Iterable[tuple[int, int]]) -> "_Lattice2":
        rows = [list(r) for r in rows if r != (0, 0)]
        # clear the first column down to one row by Euclid
        while True:
            live = [r for r in rows if r[0] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda r: abs(r[0]))
            small, big = live[0], live[1]
            qu = big[0] // small[0]
            big[0] -= qu * small[0]
            big[1] -= qu * small[1]
            rows = [r for r in rows if r != [0, 0]]
        first = next((r for r in rows if r[0] != 0), None)
        if first is None:
            raise ValueError("lattice is not full rank")
        a, b = (first[0], first[1]) if first[0] > 0 else (-first[0], -first[1])
        c = 0
        for r in rows:
            if r[0] == 0:
                c = gcd(c, abs(r[1]))
        if c == 0:
            raise ValueError("lattice is not full rank")
        b %= c
        g = gcd(gcd(den, a), gcd(b, c))
        return cls(den // g, a // g, b // g, c // g)

    def vectors(self) -> list[tuple[Fraction, Fraction]]:
        return [(F(self.a, self.den), F(self.b, self.den)), (F(0), F(self.c, self.den))]

    def covolume(self) -> Fraction:
        return F(self.a * self.c, self.den * self.den)


def _lattice_sum(den: int, lats: list[list[tuple[Fraction, Fraction]]]) -> _Lattice2:
    rows = []
    for vecs in lats:
        for v in vecs:
            rows.append((int(v[0] * den), int(v[1] * den)))
    return _Lattice2.from_rows(den, rows)


def _lattice_grow(mat: Mat2Q, lat: _Lattice2) -> _Lattice2:
    """lat + M lat + M^-1 lat, canonicalized."""
    inv = mat.inverse()
    vecs = lat.vectors()
    images = [v for v in vecs]
    images += [mat.apply(v) for v in vecs]
    images += [inv.apply(v) for v in vecs]
    den = 1
    for v in images:
        for x in v:
            den = den * x.denominator // gcd(den, x.denominator)
    return _lattice_sum(den, [images])


def lattice_span(mat: Mat2Q, cutoff: int) -> _Lattice2:
    """Subgroup generated by {M^k e_i : |k| <= cutoff}, exactly."""
    lat = _Lattice2.standard()
    for _ in range(cutoff):
        lat = _lattice_grow(mat, lat)
    return lat


def test_module_growth_ranks_match_lattice_growth():
    rng = random.Random(11)
    mats = [
        Mat2Q.of(2, 0, 0, 1),
        Mat2Q.of(0, -2, 1, 0),
        Mat2Q.of(2, 1, 1, 1),
        Mat2Q.of(F(1, 2), F(-3, 4), 1, F(1, 2)),
        Mat2Q.of(2, 0, 0, F(1, 2)),
        Mat2Q.of(2, 0, 0, 3),
        Mat2Q.of(6, 0, 0, 1),
        Mat2Q.of(F(1, 3), F(2, 3), F(4, 3), F(-1, 3)) * Mat2Q.of(1, 0, 0, -1),
    ]
    for _ in range(20):
        m = Mat2Q.of(*(F(rng.randint(-4, 4), rng.choice((1, 1, 2))) for _ in range(4)))
        if m.det() != 0:
            mats.append(m)
    for m in mats:
        primes = set(prime_factors(m.det().numerator * m.det().denominator))
        primes |= set(prime_factors(m.trace().denominator))
        ranks = _module_growth_ranks(m)
        gain = F(1)
        for p in sorted(primes):
            s1, s2 = eigenvalue_valuations(m, p)
            assert ranks.get(p, 0) == int(s1 != 0) + int(s2 != 0), (m, p)
            gain *= F(p) ** (abs(s1) + abs(s2))
        # past the transient, each saturation step grows by a constant
        # index: p to the total eigenvalue valuation in absolute value
        before = lattice_span(m, 5).covolume()
        after = lattice_span(m, 6).covolume()
        assert before / after == gain, m


# --- manifold dimensions -----------------------------------------------------


def test_manifold_frozen_examples():
    assert classify(LatticeByZ(Mat2Q.of(2, 1, 1, 1))).manifold_dim == ManifoldDim(3, 3, 3)
    assert classify(meta(2, 3)).manifold_dim == ManifoldDim(5, 5, 5)
    assert classify(AscHNNKb(1, 0, 2)).manifold_dim == ManifoldDim(5, 6, None)
    assert classify(meta(F(2, 3), 5)).manifold_dim == ManifoldDim(5, None, None)
    assert classify(BSbar(1, 2)).manifold_dim == ManifoldDim(4, 4, 4)
    assert classify(BSbar(2, 3)).manifold_dim == ManifoldDim(4, None, None)


# --- aggregate reports -------------------------------------------------------


def test_report_for_kb_extension():
    report = classify(AscHNNKb(1, 0, 2))
    assert report.hirsch_length == 3
    assert report.radical.hirsch == 2
    assert report.quotient == QuotientType("ZplusZ2")
    assert report.derived_length == 2
    assert not report.polycyclic
    assert report.finitely_presentable
    assert report.constructible_type == Type2("Kb")
    assert report.cohomological_dimension == 3
    assert report.coherent.value is True


def test_report_for_nonintegral_dihedral_extension():
    report = classify(nonintegral_dihedral_affine())
    assert report.quotient == QuotientType("Dinfty")
    assert report.derived_length == 3
    assert report.fp2.value is False
    assert report.cohomological_dimension == 4
    assert report.manifold_dim == ManifoldDim(5, None, None)


def test_report_for_flat_klein_bottle():
    report = classify(BSbar(1, -1))
    assert report.polycyclic
    assert report.cohomological_dimension == 2
    assert report.constructible_type == Type3()
    assert report.manifold_dim == ManifoldDim(2, 2, 2)


def test_report_json_shape():
    report = classify(meta(2, 3))
    data = report.to_json()
    assert list(data) == [
        "hirsch_length",
        "radical",
        "quotient",
        "derived_length",
        "polycyclic",
        "finitely_presentable",
        "constructible",
        "fp2",
        "coherent",
        "cohomological_dimension",
        "minimax",
        "constructible_type",
        "manifold_dim",
    ]
    assert data["fp2"]["value"] in ("true", "false", "unknown")
    assert isinstance(data["fp2"]["note"], str) and data["fp2"]["note"]
    assert data["quotient"] == {"tag": "Z2"}
    assert data["constructible_type"] == {"kind": "Type1", "n": 6}
    assert data["minimax"]["sections"] == ["Z[1/6]", "Z", "Z"]
    unknown = classify(meta(F(2, 3), 5)).to_json()
    assert unknown["fp2"]["value"] == "unknown"
    assert unknown["constructible_type"] is None


# --- basis-change invariance -------------------------------------------------


def gl2z_random(rng: random.Random) -> tuple[int, int, int, int]:
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(3)
        if kind == 0:
            k = rng.choice((-1, 1))
            a, b = a + k * c, b + k * d
        elif kind == 1:
            k = rng.choice((-1, 1))
            c, d = c + k * a, d + k * b
        else:
            a, b, c, d = c, d, a, b
    return a, b, c, d


def change_basis(desc: MetabelianH31, mat: tuple[int, int, int, int]) -> MetabelianH31:
    alpha, beta, gamma, delta = mat
    r1 = desc.t_ratio**alpha * desc.u_ratio**beta
    r2 = desc.t_ratio**gamma * desc.u_ratio**delta
    tw = Word.gen("t", alpha) * Word.gen("u", beta)
    uw = Word.gen("t", gamma) * Word.gen("u", delta)
    commutator = uw * tw * uw.inv() * tw.inv()
    residue = meta_of_word(desc, commutator)
    assert residue.i == 0 and residue.j == 0
    twist = residue.x / r1
    return MetabelianH31(r1.denominator, r1.numerator, r2.denominator, r2.numerator, twist)


def test_reports_survive_basis_changes():
    rng = random.Random(3511)
    bases = [
        meta(2, 3),
        meta(2, 3, 1),
        meta(F(2, 3), 5),
        meta(2, -2, F(1, 2)),
        meta(2, F(1, 2)),
        meta(-1, 4),
        meta(1, 1, 1),
        meta(1, -1, 1),
        meta(12, 18),
    ]
    for desc in bases:
        want = classify(desc).to_json()
        for _ in range(50):
            changed = change_basis(desc, gl2z_random(rng))
            assert classify(changed).to_json() == want, (desc, changed)


# --- report rules over random descriptors ------------------------------------


def random_descriptor(rng: random.Random):
    kind = rng.randrange(8)
    if kind == 0:
        gens = tuple(
            F(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(rng.randint(0, 3))
        )
        return RankOneQ(gens)
    if kind == 1:
        while True:
            m, n = rng.randint(1, 6), rng.randint(-6, 6)
            if n and Fraction(n, m).denominator == m:
                return BSbar(Fraction(n, m).denominator, Fraction(n, m).numerator)
    if kind == 2:
        def ratio():
            while True:
                value = F(rng.randint(-9, 9), rng.randint(1, 9))
                if value:
                    return value
        return meta(ratio(), ratio(), rng.randint(-2, 2))
    if kind == 3:
        while True:
            m = Mat2Q.of(
                *(F(rng.randint(-5, 5), rng.choice((1, 1, 1, 2, 3))) for _ in range(4))
            )
            if m.det() != 0:
                return LatticeByZ(m)
    if kind == 4:
        e = rng.choice((-5, -3, -1, 1, 3, 5))
        d = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        return AscHNNKb(e, rng.randint(-3, 3), d)
    if kind == 5:
        return AffineQ2(
            (
                ("x", translation(F(rng.randint(1, 3)), 0)),
                ("y", translation(0, F(rng.randint(1, 3)))),
            )
        )
    if kind == 6:
        linear = Mat2Q.of(rng.choice((1, 2, 3)), 0, 0, rng.choice((1, 3, 5)))
        if linear == I2:
            linear = Mat2Q.of(2, 0, 0, 1)
        return AffineQ2(
            (
                ("t", AffineMap2(linear, (F(0), F(0)))),
                ("x", translation(1, 0)),
                ("y", translation(0, 1)),
            )
        )
    while True:
        p = Mat2Q.of(*(F(rng.randint(-3, 3)) for _ in range(4)))
        if p.det() == 0:
            continue
        r1 = Mat2Q.of(1, 0, 0, -1)
        r2 = p * r1 * p.inverse()
        order = 1
        power = r1 * r2
        while order <= 6 and power != I2:
            power = power * (r1 * r2)
            order += 1
        if order > 6:
            u = AffineMap2(r1, (F(1, 2), F(0)))
            v = AffineMap2(r2, (F(0), F(1, 2)))
            return AffineQ2(
                (("u", u), ("v", v), ("x", translation(1, 0)), ("y", translation(0, 1)))
            )


def test_report_rules_hold_on_random_descriptors():
    rng = random.Random(90125)
    allowed = {1: {"Z2"}, 2: {"Z", "Dinfty", "ZplusZ2"}, 3: {"VirtuallyTrivial"}}
    for _ in range(1000):
        desc = random_descriptor(rng)
        report = classify(desc)
        h = report.hirsch_length
        assert report.finitely_presentable == report.constructible
        if report.constructible:
            assert report.cohomological_dimension == h
        elif h > 0:
            assert report.cohomological_dimension == h + 1
        if report.polycyclic:
            assert report.constructible_type == Type3()
            assert report.coherent.value is True
            assert report.manifold_dim == ManifoldDim(h, h, h)
        assert report.radical.hirsch <= h
        if h == 3:
            assert report.quotient is not None
            assert report.quotient.tag in allowed[report.radical.hirsch]
        else:
            assert report.quotient is None
        infinite = sum(1 for s in report.minimax.sections if s != "finite")
        assert infinite == h
        if report.fp2.value is None:
            assert not report.finitely_presentable
            assert report.radical.hirsch == 1
        if isinstance(report.constructible_type, Type1):
            realized = report.constructible_type.n
            assert abs(realized) > 1
        if isinstance(report.constructible_type, (Type1, Type2)):
            assert not report.polycyclic and report.finitely_presentable


# Each case breaks a valid fixture report so that its own check is the
# first of `_enforce_report_invariants` to fail.
REPORT_BREAKS = {
    "derived-length": (
        "lattice_sol",
        lambda r: replace(r, derived_length=4),
        "solvable groups of Hirsch length at most 3 have derived length at most 3",
    ),
    "type-at-h-cd-3": (
        "lattice_sol",
        lambda r: replace(r, constructible_type=None),
        "groups with Hirsch length and cd 3 must be of type 1, 2 or 3",
    ),
    "type3-polycyclic": (
        "lattice_sol",
        lambda r: replace(r, polycyclic=False),
        "groups of type 3 must be polycyclic",
    ),
    "polycyclic-type3": (
        "lattice_sol",
        lambda r: replace(r, constructible_type=Type2("Z2")),
        "polycyclic groups must be of type 3",
    ),
    "radical-hirsch": (
        "lattice_sol",
        lambda r: replace(r, radical=replace(r.radical, hirsch=4)),
        "radical Hirsch length exceeds the group's",
    ),
    "quotient-tag": (
        "lattice_sol",
        lambda r: replace(r, quotient=QuotientType("VirtuallyTrivial")),
        "quotient tag is not allowed for this radical",
    ),
    "minimax-sections": (
        "lattice_sol",
        lambda r: replace(r, minimax=replace(r.minimax, sections=("Z", "Z"))),
        "minimax sections must account for the Hirsch length",
    ),
    "fp2": (
        "lattice_sol",
        lambda r: replace(r, fp2=replace(r.fp2, value=False)),
        "finitely presentable groups are FP2",
    ),
}


@pytest.mark.parametrize("case", list(REPORT_BREAKS))
def test_each_report_invariant_names_its_violation(case):
    fixture, breaks, message = REPORT_BREAKS[case]
    report = classify(fixture_named(fixture).descriptor)
    _enforce_report_invariants(report)
    with pytest.raises(InvariantViolation) as err:
        _enforce_report_invariants(breaks(report))
    assert str(err.value) == message


def test_every_family_has_one_invariants_function():
    assert set(classify_module._INVARIANTS) == set(FAMILIES)


@pytest.mark.parametrize(
    "fixture, helper", [("bs12_rtimes", "_type1_ratio"), ("f_mod_kprime", "_analyze_affine")]
)
def test_classify_runs_each_expensive_helper_once(monkeypatch, fixture, helper):
    original = getattr(classify_module, helper)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(classify_module, helper, counted)
    classify(fixture_named(fixture).descriptor)
    assert len(calls) == 1


@pytest.mark.parametrize("fixture", ["d_infty_amalgam", "f_mod_kprime"])
def test_affine_classify_composes_at_most_45_maps(monkeypatch, fixture):
    # the commutation test takes two products per pair of generators, the
    # linear closure stops once it passes 12 elements, and the translation
    # rank takes one product per generator
    original = classify_module.affine_compose
    calls = []

    def counted(f, g):
        calls.append(None)
        return original(f, g)

    monkeypatch.setattr(classify_module, "affine_compose", counted)
    classify(fixture_named(fixture).descriptor)
    assert len(calls) <= 45


def test_d_infty_amalgam_holds_an_involution():
    # The shipped fixture is not torsion-free: v y is the reflection
    # [2 -1 3 -2] with translation (-1, -3), which that reflection negates.
    # Its golden report assumes a torsion-free group; the infinite dihedral
    # shape is not tested for involutions yet (ROADMAP item 1).
    desc = fixture_named("d_infty_amalgam").descriptor
    word = Word.of((("v", 1), ("y", 1)))
    vy = affine_of_word(desc, word)
    assert vy.linear == Mat2Q.of(2, -1, 3, -2) and vy.translation == (-1, -3)
    assert vy != AffineMap2.identity()
    assert affine_compose(vy, vy) == AffineMap2.identity()
    assert not oracle_word_eq(desc, word, Word())
    assert oracle_word_eq(desc, word * word, Word())


def test_public_steps_match_the_report():
    rng = random.Random(31337)
    for _ in range(200):
        desc = random_descriptor(rng)
        report = classify(desc)
        assert hirsch_length(desc) == report.hirsch_length
        assert radical_info(desc) == report.radical
        assert derived_length(desc) == report.derived_length
        assert is_polycyclic(desc) == report.polycyclic
        assert fp_status(desc) == (
            report.finitely_presentable, report.constructible_type, report.fp2
        )
        assert cohomological_dimension(desc) == report.cohomological_dimension
        assert minimax_series(desc) == list(report.minimax.sections)
        if report.hirsch_length == 3:
            assert quotient_type(desc) == report.quotient
            assert coherence_status(desc) == report.coherent
        else:
            for step in (quotient_type, coherence_status):
                with pytest.raises(ClassifyError):
                    step(desc)
