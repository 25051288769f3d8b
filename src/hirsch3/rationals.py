"""Exact arithmetic helpers: localized integers Z[1/D], multiplicative rank
of rational tuples, and integrality criteria for 2x2 rational matrices.

Everything here is exact (fractions.Fraction / int); no floats anywhere.
Factorization is trial division, sized for desk-scale inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Optional, Sequence, TypeVar

Rational = Fraction
T = TypeVar("T")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction, rejecting junk with a clear error."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(x: Fraction) -> str:
    """Inverse of parse_rational: "p/q", or "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def prime_factors(n: int) -> list[int]:
    """Distinct primes of |n|, ascending. n must be nonzero."""
    if n == 0:
        raise ValueError("0 has no prime factorization")
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def primes_of(*xs: Fraction) -> set[int]:
    """Distinct primes of the numerators and denominators of nonzero xs."""
    primes: set[int] = set()
    for x in xs:
        primes |= set(prime_factors(x.numerator))
        primes |= set(prime_factors(x.denominator))
    return primes


def binary_power(x: T, k: int, mul: Callable[[T, T], T], identity: T) -> T:
    """x^k for k >= 0 by square-and-multiply; mul must be associative."""
    out = identity
    while k:
        if k & 1:
            out = mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return out


def factorint(n: int) -> dict[int, int]:
    """Prime -> exponent map for |n|; n must be nonzero."""
    if n == 0:
        raise ValueError("0 has no prime factorization")
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def radical_of(n: int) -> int:
    """Square-free kernel of |n|: the product of its distinct primes."""
    if n == 0:
        raise ValueError("radical of 0 is undefined")
    r = 1
    for p in prime_factors(n):
        r *= p
    return r


def padic_valuation(n: int, p: int) -> int:
    """Exponent of p in n. n must be nonzero."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def rational_valuation(x: Fraction, p: int) -> int:
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    return padic_valuation(x.numerator, p) - padic_valuation(x.denominator, p)


def _supported_by(n: int, d: int) -> bool:
    # True when every prime of |n| divides d; gcd-stripping, no factorization.
    n = abs(n)
    if n == 0:
        return False
    while n > 1:
        g = gcd(n, d)
        if g == 1:
            return False
        while n % g == 0:
            n //= g
    return True


def in_localized(x: Fraction, d: int) -> bool:
    """Is x in Z[1/d]? Every prime of the (reduced) denominator must divide d."""
    if d < 1:
        raise ValueError("locus must be a positive integer")
    return x.denominator == 1 or _supported_by(x.denominator, d)


def is_unit_localized(x: Fraction, d: int) -> bool:
    """Is x a unit of Z[1/d], i.e. +-(a product of powers of primes dividing d)?

    0 is never a unit.  1 and -1 are units for every locus.
    """
    if d < 1:
        raise ValueError("locus must be a positive integer")
    if x == 0:
        return False
    num, den = abs(x.numerator), x.denominator
    return (num == 1 or _supported_by(num, d)) and (den == 1 or _supported_by(den, d))


@dataclass(frozen=True)
class PrimeVector:
    """Factored form of a nonzero rational: sign and prime exponent vector."""

    sign: int
    exponents: tuple[tuple[int, int], ...]  # (prime, exponent), ascending, no zeros

    @classmethod
    def from_rational(cls, x: Fraction) -> "PrimeVector":
        if x == 0:
            raise ValueError("0 has no factored form")
        exps = factorint(x.numerator) if abs(x.numerator) != 1 else {}
        for p, e in factorint(x.denominator).items():
            exps[p] = exps.get(p, 0) - e
        pairs = tuple(sorted((p, e) for p, e in exps.items() if e != 0))
        return cls(1 if x > 0 else -1, pairs)

    def to_rational(self) -> Fraction:
        out = Fraction(self.sign)
        for p, e in self.exponents:
            out *= Fraction(p) ** e
        return out


def _row_sub(target: list[int], source: list[int], q: int) -> None:
    for k in range(len(target)):
        target[k] -= q * source[k]


def integer_row_kernel(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Basis of the lattice {a in Z^n : sum_i a_i * rows[i] = 0}.

    Unimodular row reduction on [rows | I]; rows whose left half dies give the
    kernel exactly (saturated, not just finite index), which matters for the
    sign character in mult_rank.
    """
    n = len(rows)
    work = [list(rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    r = 0
    for c in range(width):
        while True:
            live = [i for i in range(r, n) if work[i][c] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(work[i][c]))
            work[r], work[i0] = work[i0], work[r]
            finished = True
            for i in range(r + 1, n):
                if work[i][c]:
                    _row_sub(work[i], work[r], work[i][c] // work[r][c])
                    if work[i][c]:
                        finished = False
            if finished:
                r += 1
                break
    return [row[width:] for row in work[r:]]


def mult_rank(ratios: Sequence[Fraction]) -> tuple[int, bool]:
    """Rank of the subgroup of Q* generated by the ratios, and whether it
    contains -1.

    The torsion-free part is the integer rank of the prime-exponent vectors;
    -1 is present exactly when the sign character is nontrivial on the kernel
    lattice of those vectors.
    """
    vecs = []
    for x in ratios:
        if x == 0:
            raise ValueError("0 generates nothing in Q*")
        vecs.append(PrimeVector.from_rational(x))
    primes = sorted({p for v in vecs for p, _ in v.exponents})
    cols = {p: i for i, p in enumerate(primes)}
    rows = []
    for v in vecs:
        row = [0] * len(primes)
        for p, e in v.exponents:
            row[cols[p]] = e
        rows.append(row)
    kernel = integer_row_kernel(rows, len(primes))
    rank = len(rows) - len(kernel)
    signs = [0 if v.sign > 0 else 1 for v in vecs]
    has_minus_one = any(
        sum(a * s for a, s in zip(vec, signs)) % 2 == 1 for vec in kernel
    )
    return rank, has_minus_one


@dataclass(frozen=True)
class Mat2Q:
    """Immutable 2x2 matrix over Q with exact arithmetic."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @classmethod
    def of(cls, a, b, c, d) -> "Mat2Q":
        return cls(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    @classmethod
    def identity(cls) -> "Mat2Q":
        return cls.of(1, 0, 0, 1)

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def trace(self) -> Fraction:
        return self.a + self.d

    def __mul__(self, other: "Mat2Q") -> "Mat2Q":
        return Mat2Q(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2Q":
        det = self.det()
        if det == 0:
            raise ZeroDivisionError("matrix is singular")
        return Mat2Q(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def pow(self, k: int) -> "Mat2Q":
        base = self if k >= 0 else self.inverse()
        return binary_power(base, abs(k), Mat2Q.__mul__, Mat2Q.identity())

    def apply(self, v: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in (self.a, self.b, self.c, self.d))

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)


def matrix_order(m: Mat2Q) -> Optional[int]:
    """Multiplicative order of m, or None when it is infinite.

    Finite-order elements of GL(2,Q) have order 1, 2, 3, 4, or 6, so trying
    powers up to 6 is exact.
    """
    power = Mat2Q.identity()
    for k in range(1, 7):
        power = power * m
        if power == Mat2Q.identity():
            return k
    return None


def conjugate_to_integral(m: Mat2Q) -> bool:
    """Is m conjugate in GL(2,Q) to an integer matrix?

    Criterion: both det(m) and tr(m) are integers.  Requires det != 0.
    """
    det = m.det()
    if det == 0:
        raise ValueError("criterion assumes an invertible matrix")
    return det.denominator == 1 and m.trace().denominator == 1


def integralize(m: Mat2Q) -> Optional[tuple[Mat2Q, Mat2Q]]:
    """Explicit conjugation (P, N) with N = P^-1 m P integral, or None.

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
    if not n.is_integral():
        raise AssertionError("companion form must be integral here")
    return p, n


def is_unimodular_integral_class(m: Mat2Q) -> bool:
    """Conjugate to GL(2,Z): determinant +-1 and integer trace."""
    det = m.det()
    if det == 0:
        raise ValueError("criterion assumes an invertible matrix")
    return det in (1, -1) and m.trace().denominator == 1
