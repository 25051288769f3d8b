"""Exact arithmetic: localized rationals, multiplicative rank, 2x2 integrality."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from math import prod
from typing import Optional

import pytest

from hirsch3 import InputError, rationals
from hirsch3.classify import QuotientType
from hirsch3.families import AffineQ2, MetabelianH31
from hirsch3.rationals import (
    MAX_POWER_BITS,
    FactorBudgetError,
    Mat2Q,
    bounded_pow,
    complement_vector,
    conjugate_to_integral,
    factorint,
    format_rational,
    in_localized,
    integer_row_kernel,
    is_unimodular_integral_class,
    matrix_order,
    mult_rank,
    parse_rational,
    prime_factors,
    radical_of,
    rational_valuation,
    relation_lattice,
    valuation,
)
from hirsch3.verify import fp_cone_bruteforce

F = Fraction


# --- references kept here, not in the package -------------------------------


def is_unit_localized(x: Fraction, d: int) -> bool:
    """Is x a unit of Z[1/d], i.e. +-(a product of powers of primes dividing d)?

    0 is never a unit.  1 and -1 are units for every locus.
    """
    if d < 1:
        raise ValueError("locus must be a positive integer")
    return x != 0 and in_localized(x, d) and in_localized(1 / x, d)


def integralize(m: Mat2Q) -> Optional[tuple[Mat2Q, Mat2Q]]:
    """Explicit conjugation (P, N) with N = P^-1 m P integral, or None: the
    witness that `conjugate_to_integral` is checked against.

    For non-scalar m, pick x = (1,0) unless it is an eigenvector (try (0,1)
    then), and take P = [x | m x].  Cayley-Hamilton makes the new matrix the
    companion matrix [[0, -det], [1, tr]].  Matrices with both standard basis
    vectors eigenvectors are diagonal; passing the criterion they are already
    integral, so P = I.
    """
    if not conjugate_to_integral(m):
        return None
    if m.b == 0 and m.c == 0:
        # diagonal with integral trace and det is integral (monic quadratic)
        return Mat2Q.identity(), m
    if m.c != 0:
        p = Mat2Q(Fraction(1), m.a, Fraction(0), m.c)
    else:
        p = Mat2Q(Fraction(0), m.b, Fraction(1), m.d)
    n = p.inverse() * m * p
    if not all(x.denominator == 1 for x in n.entries()):
        raise AssertionError("companion form must be integral here")
    return p, n


def rand_fraction(rng, lo=-9, hi=9):
    num = rng.randint(lo, hi)
    den = rng.randint(1, hi)
    return F(num, den)


def rand_nonzero_fraction(rng, lo=-9, hi=9):
    while True:
        x = rand_fraction(rng, lo, hi)
        if x != 0:
            return x


def rand_invertible(rng, lo=-9, hi=9) -> Mat2Q:
    while True:
        m = Mat2Q(*(rand_fraction(rng, lo, hi) for _ in range(4)))
        if m.det() != 0:
            return m


class TestParsing:
    def test_roundtrip(self):
        for text, val in [("3/4", F(3, 4)), ("-2", F(-2)), ("0", F(0)), ("6/4", F(3, 2))]:
            assert parse_rational(text) == val
        assert format_rational(F(-3, 4)) == "-3/4"
        assert format_rational(F(5)) == "5"
        assert parse_rational(format_rational(F(22, 7))) == F(22, 7)

    def test_rejects_junk(self):
        for bad in ["", "1/0", "a/b", "1.5.2"]:
            with pytest.raises(ValueError):
                parse_rational(bad)


class TestFactoring:
    def test_prime_factors(self):
        assert prime_factors(360) == [2, 3, 5]
        assert prime_factors(-7) == [7]
        assert prime_factors(1) == []
        assert radical_of(360) == 30

    def test_strong_pseudoprimes_are_split(self):
        # strong pseudoprimes to the first 9 and to the first 12 prime bases:
        # only the 13th base, 41, exposes the second
        assert factorint(3825123056546413051) == {149491: 1, 747451: 1, 34233211: 1}
        assert factorint(318665857834031151167461) == {399165290221: 1, 798330580441: 1}

    def test_trial_division_past_the_miller_rabin_bound(self):
        # 1031^9 puts n past 3.3 * 10^24, so trial division goes on past 2^10
        # until the cofactor, a product of two 20-bit primes, is below it
        n = -(1031**9) * 1000003 * 1000033
        assert factorint(n) == {1031: 9, 1000003: 1, 1000033: 1}
        assert factorint(2**100 * 3) == {2: 100, 3: 1}

    def test_step_budget_bounds_pollard_brent_and_trial_division(self, monkeypatch):
        semiprime = 4294967291 * 4294967279  # the two largest 32-bit primes
        assert factorint(semiprime) == {4294967279: 1, 4294967291: 1}
        monkeypatch.setattr(rationals, "FACTOR_STEPS", 1000)
        with pytest.raises(FactorBudgetError, match="20-digit integer needs more than 1000"):
            factorint(semiprime)
        with pytest.raises(FactorBudgetError, match="37-digit"):
            factorint((2**61 - 1) ** 2)  # above the Miller-Rabin bound, no prime below 2^61
        assert factorint(1031**9 * 1033) == {1031: 9, 1033: 1}

    def test_step_budget_refuses_a_product_of_two_40_bit_primes(self):
        # 1010610212239 * 1531891455277 needs about 3.3 million Pollard-Brent
        # steps; the budget stops it short, inside the 1 s probe bound
        with pytest.raises(FactorBudgetError, match="25-digit integer needs more than 2000000"):
            factorint(1548145148744599546535203)

    def test_valuation(self):
        assert rational_valuation(F(4, 3), 2) == 2
        assert rational_valuation(F(4, 3), 3) == -1
        assert rational_valuation(F(5), 2) == 0

    def test_lattice_primes_of_numerators_and_denominators(self):
        assert relation_lattice((F(12, 35), F(-7, 11))).primes == (2, 3, 5, 7, 11)
        assert relation_lattice((F(1), F(-1))).primes == ()


class TestLocalized:
    def test_membership(self):
        assert in_localized(F(5, 6), 6)
        assert in_localized(F(7), 1)
        assert not in_localized(F(1, 5), 6)
        assert in_localized(F(3, 8), 2)

    def test_units(self):
        assert is_unit_localized(F(-8, 9), 6)
        assert not is_unit_localized(F(0), 6)
        assert not is_unit_localized(F(3), 2)
        assert is_unit_localized(F(1), 1)
        assert is_unit_localized(F(-1), 1)

    def test_closure_under_ring_ops(self):
        rng = random.Random(11)
        for _ in range(500):
            d = rng.choice([2, 6, 10, 30])
            primes = prime_factors(d)

            def member():
                num = rng.randint(-40, 40)
                den = 1
                for p in primes:
                    den *= p ** rng.randint(0, 3)
                return F(num, den)

            x, y = member(), member()
            assert in_localized(x + y, d)
            assert in_localized(x * y, d)
            assert in_localized(x - y, d)


def small_ratios(rng, count: int) -> list[Fraction]:
    """+-2^i 3^j with |i|, |j| <= 2, so that relations are common and short."""
    return [
        rng.choice((-1, 1)) * F(2) ** rng.randint(-2, 2) * F(3) ** rng.randint(-2, 2)
        for _ in range(count)
    ]


def product(ratios, exponents) -> Fraction:
    return prod((r**e for r, e in zip(ratios, exponents)), start=F(1))


def span(vectors, box) -> set[tuple[int, int]]:
    """The combinations of vectors in Z^2 with coefficients in the box."""
    combos = itertools.product(box, repeat=len(vectors))
    return {tuple(sum(c * v[i] for c, v in zip(cs, vectors)) for i in range(2)) for cs in combos}


def rank_and_sign(ratios) -> tuple[int, bool]:
    lattice = relation_lattice(ratios)
    return lattice.rank, lattice.has_minus_one


class TestMultRank:
    def test_known_values(self):
        assert rank_and_sign([F(2), F(3)]) == (2, False)
        assert rank_and_sign([F(4), F(8)]) == (1, False)
        assert rank_and_sign([F(2), F(-2)]) == (1, True)
        assert rank_and_sign([F(1)]) == (0, False)
        assert rank_and_sign([F(-1)]) == (0, True)
        assert rank_and_sign([F(2, 3), F(3, 2)]) == (1, False)
        assert rank_and_sign([F(6), F(10), F(15)]) == (3, False)
        assert rank_and_sign([]) == (0, False)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            relation_lattice([F(0)])

    def test_invariance(self):
        # rank and sign torsion are properties of the generated subgroup
        rng = random.Random(7)
        for _ in range(300):
            ratios = [rand_nonzero_fraction(rng) for _ in range(rng.randint(1, 4))]
            base = rank_and_sign(ratios)
            assert mult_rank(ratios) == base
            shuffled = ratios[:]
            rng.shuffle(shuffled)
            assert rank_and_sign(shuffled) == base
            i = rng.randrange(len(ratios))
            inverted = ratios[:]
            inverted[i] = 1 / inverted[i]
            assert rank_and_sign(inverted) == base
            if len(ratios) >= 2:
                j = rng.randrange(len(ratios))
                if j != i:
                    merged = ratios[:]
                    merged[i] = merged[i] * merged[j]
                    assert rank_and_sign(merged) == base


class TestRelationLattice:
    def test_frozen_examples(self):
        lattice = relation_lattice((F(-4), F(8)))
        assert (lattice.primes, lattice.rows) == ((2,), ((2,), (3,)))
        assert (lattice.rank, lattice.has_minus_one) == (1, True)
        assert lattice.relations() == [(6, -4)]
        lattice = relation_lattice((F(-1), F(-1)))
        assert (lattice.rank, lattice.has_minus_one) == (0, True)
        assert lattice.relations() == [(1, 1), (2, 0)]

    def test_rows_are_the_valuations(self):
        rng = random.Random(41)
        for _ in range(100):
            ratios = [rand_nonzero_fraction(rng) for _ in range(rng.randint(1, 3))]
            lattice = relation_lattice(ratios)
            primes = {p for r in ratios for p in prime_factors(r.numerator * r.denominator)}
            assert lattice.primes == tuple(sorted(primes))
            valuations = [tuple(rational_valuation(r, p) for p in lattice.primes) for r in ratios]
            assert lattice.rows == tuple(valuations)

    def test_kernel_vectors_multiply_out_to_their_sign(self):
        rng = random.Random(43)
        for _ in range(200):
            ratios = small_ratios(rng, rng.randint(1, 3))
            lattice = relation_lattice(ratios)
            assert len(lattice.kernel) == len(ratios) - lattice.rank
            for v, odd in zip(lattice.kernel, lattice.odd):
                assert product(ratios, v) == (-1 if odd else 1)

    def test_relations_multiply_out_to_one(self):
        rng = random.Random(47)
        for _ in range(200):
            ratios = small_ratios(rng, rng.randint(1, 3))
            lattice = relation_lattice(ratios)
            assert len(lattice.relations()) == len(lattice.kernel)
            assert all(product(ratios, v) == 1 for v in lattice.relations())

    def test_kernel_holds_every_small_relation(self):
        # exponent pairs in a box that multiply out to +-1 are integer
        # combinations of the kernel, and -1 is reached just when has_minus_one
        rng = random.Random(53)
        box = range(-4, 5)
        for _ in range(100):
            ratios = small_ratios(rng, 2)
            lattice = relation_lattice(ratios)
            units = [a for a in itertools.product(box, box) if abs(product(ratios, a)) == 1]
            assert set(units) <= span(lattice.kernel, box)
            assert any(product(ratios, a) == -1 for a in units) == lattice.has_minus_one

    def test_relations_hold_every_small_relation(self):
        rng = random.Random(59)
        box = range(-4, 5)
        for _ in range(100):
            ratios = small_ratios(rng, 2)
            ones = {a for a in itertools.product(box, box) if product(ratios, a) == 1}
            assert ones <= span(relation_lattice(ratios).relations(), box)


class TestRowKernel:
    def test_simple(self):
        ker = integer_row_kernel([[2], [3]], 1)
        assert len(ker) == 1
        (a, b) = ker[0]
        assert 2 * a + 3 * b == 0 and (a, b) != (0, 0)
        # saturation: (3,-2) itself must be reachable, not only (6,-4)
        assert abs(a) == 3 and abs(b) == 2

    def test_full_rank(self):
        assert integer_row_kernel([[1, 0], [0, 1]], 2) == []


class TestIntegrality:
    def test_criterion_examples(self):
        assert conjugate_to_integral(Mat2Q.of(F(1, 2), F(-3, 4), 1, F(1, 2)))
        assert not conjugate_to_integral(Mat2Q.of(F(1, 2), 0, 0, 1))
        assert not conjugate_to_integral(Mat2Q.of(F(2, 3), 0, 0, F(1, 5)))
        with pytest.raises(ValueError):
            conjugate_to_integral(Mat2Q.of(1, 1, 1, 1))

    def test_integralize_worked_example(self):
        m = Mat2Q.of(F(1, 2), F(-3, 4), 1, F(1, 2))
        p, n = integralize(m)
        assert p.entries() == (F(1), F(1, 2), F(0), F(1))
        assert n.entries() == (F(0), F(-1), F(1), F(1))
        assert p.inverse() * m * p == n

    def test_integralize_scalar_and_diagonal(self):
        p, n = integralize(Mat2Q.of(3, 0, 0, 3))
        assert p == Mat2Q.identity() and n == Mat2Q.of(3, 0, 0, 3)
        p, n = integralize(Mat2Q.of(2, 0, 0, -5))
        assert p == Mat2Q.identity()

    def test_integralize_refuses(self):
        assert integralize(Mat2Q.of(F(1, 2), 0, 0, 1)) is None

    def test_unimodular_class(self):
        assert is_unimodular_integral_class(Mat2Q.of(0, -2, F(1, 2), 0))
        assert is_unimodular_integral_class(Mat2Q.of(2, 1, 1, 1) * Mat2Q.of(1, 0, 0, 1))
        assert not is_unimodular_integral_class(Mat2Q.of(0, -2, 1, 0))
        assert not is_unimodular_integral_class(Mat2Q.of(F(1, 2), 0, 0, 2))

    def test_conjugation_invariance(self):
        # the three predicates depend only on the conjugacy class
        rng = random.Random(99)
        for _ in range(1000):
            m = rand_invertible(rng)
            p = rand_invertible(rng, -5, 5)
            mc = p.inverse() * m * p
            assert mc.det() == m.det() and mc.trace() == m.trace()
            assert conjugate_to_integral(mc) == conjugate_to_integral(m)
            assert is_unimodular_integral_class(mc) == is_unimodular_integral_class(m)

    def test_integralize_exact_on_conjugates(self):
        rng = random.Random(101)
        for _ in range(500):
            while True:
                m = Mat2Q.of(*(rng.randint(-9, 9) for _ in range(4)))
                if m.det() != 0:
                    break
            p = rand_invertible(rng, -4, 4)
            hidden = p.inverse() * m * p
            assert conjugate_to_integral(hidden)
            q, n = integralize(hidden)
            assert all(x.denominator == 1 for x in n.entries())
            assert q.inverse() * hidden * q == n
            assert n.det() == m.det() and n.trace() == m.trace()


class TestMat2Q:
    def test_pow(self):
        m = Mat2Q.of(0, -2, 1, 0)
        assert m.pow(0) == Mat2Q.identity()
        assert m.pow(2) == Mat2Q.of(-2, 0, 0, -2)
        assert m.pow(-1) * m == Mat2Q.identity()
        assert m.pow(5) == m * m * m * m * m
        assert m.pow(-3) == m.inverse() * m.inverse() * m.inverse()

    def test_pow_within_the_power_budget(self):
        # a unipotent power stays small however large the exponent
        assert Mat2Q.of(1, 1, 0, 1).pow(2**61) == Mat2Q.of(1, 2**61, 0, 1)
        assert Mat2Q.of(0, -1, 1, 0).pow(-(10**30) - 1) == Mat2Q.of(0, 1, -1, 0)
        # the square 2^(2^18) is one bit past the budget, 2^(2^17) is within
        assert Mat2Q.of(2, 0, 0, 1).pow(2**17).bits() == 2**17 + 1
        refusal = f"^a power would have more than {MAX_POWER_BITS} bits$"
        with pytest.raises(InputError, match=refusal):
            Mat2Q.of(2, 0, 0, 1).pow(2**18)
        with pytest.raises(InputError):
            Mat2Q.of(2, 1, 1, 1).pow(-(2**61))

    def test_matrix_order(self):
        cases = {
            Mat2Q.identity(): 1,
            Mat2Q.of(1, 0, 0, -1): 2,
            Mat2Q.of(0, -1, 1, -1): 3,
            Mat2Q.of(0, -1, 1, 0): 4,
            Mat2Q.of(1, -1, 1, 0): 6,
            Mat2Q.of(2, 1, 1, 1): None,
            Mat2Q.of(1, 1, 0, 1): None,
            Mat2Q.of(0, F(1, 2), 2, 0): 2,
            Mat2Q.of(-1, 0, 0, -1): 2,
            Mat2Q.of(-1, 1, 0, -1): None,
        }
        for m, order in cases.items():
            assert matrix_order(m) == order


class TestBoundedPow:
    def test_units_and_zero_take_any_exponent(self):
        assert bounded_pow(1, 10**30) == 1
        assert bounded_pow(-1, 10**30 + 1) == -1
        assert bounded_pow(F(-1), -(2**61)) == 1
        assert bounded_pow(0, 2**61) == 0

    def test_refuses_only_past_the_budget(self):
        # |k| (bit length - 1) is a lower bound on the bits of x^k
        assert bounded_pow(2, MAX_POWER_BITS).bit_length() == MAX_POWER_BITS + 1
        assert bounded_pow(F(1, 3), -MAX_POWER_BITS) == 3**MAX_POWER_BITS
        for x, k in ((2, MAX_POWER_BITS + 1), (F(1, 2), -(2**61)), (F(-5, 4), MAX_POWER_BITS)):
            with pytest.raises(InputError, match="more than 262144 bits"):
                bounded_pow(x, k)


# argument guards across the package that no other test reaches: each refuses
# a caller's bad argument with its own exception type and message
GUARDS = {
    "QuotientType": (lambda: QuotientType("X"), ValueError, "unknown quotient tag"),
    "MetabelianH31": (lambda: MetabelianH31(1, 2, 1, 0, F(1)), ValueError, "n and q must be nonzero"),
    "AffineQ2": (lambda: AffineQ2(()), ValueError, "at least one generator required"),
    "factorint": (lambda: factorint(0), ValueError, "0 has no prime factorization"),
    "radical_of": (lambda: radical_of(0), ValueError, "radical of 0 is undefined"),
    "valuation": (lambda: valuation(0, 2), ValueError, "valuation of 0 is undefined"),
    "rational_valuation": (lambda: rational_valuation(F(0), 2), ValueError, "valuation of 0 is undefined"),
    "in_localized": (lambda: in_localized(F(1, 2), 0), ValueError, "locus must be a positive integer"),
    "complement_vector": (lambda: complement_vector((2, 4)), AssertionError, "kernel vector is not primitive"),
    "Mat2Q.inverse": (lambda: Mat2Q.of(1, 2, 2, 4).inverse(), ZeroDivisionError, "matrix is singular"),
    "is_unimodular_integral_class": (
        lambda: is_unimodular_integral_class(Mat2Q.of(1, 2, 2, 4)),
        ValueError,
        "criterion assumes an invertible matrix",
    ),
    "fp_cone_bruteforce": (lambda: fp_cone_bruteforce((F(2), F(3), F(5)), 4), ValueError, "expected exactly two ratios"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS)
def test_argument_guard_refuses(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message)) as exc_info:
        call()
    assert exc_info.type is error
