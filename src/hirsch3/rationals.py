"""Exact arithmetic helpers: localized integers Z[1/D], the multiplicative
relations of rational tuples, and integrality criteria for 2x2 rational
matrices.

Everything here is exact (fractions.Fraction / int); no floats anywhere.
`factorint` is the one factorization: trial division by the small primes,
then Pollard-Brent, with each factor proved prime by Miller-Rabin on the
first 13 prime bases, which is exact below 3.3 * 10^24.  A larger cofactor
is trial-divided down to that bound, so no answer rests on a probabilistic
test; past `FACTOR_STEPS` steps of that trial division and of Pollard-Brent
it raises `FactorBudgetError` instead.  `relation_lattice` factors a tuple
of ratios once into a `RelationLattice`: the prime-exponent rows, the
integer kernel of those rows with the sign of each kernel vector, the rank
of the generated subgroup of Q*, whether it contains -1, and the exact
relation basis.  No other module imports `factorint` or
`integer_row_kernel`; `MetabelianH31` caches its ratio pair's lattice, and
`complement_vector` completes a primitive relation to a basis of Z^2.
`bounded_pow` and `binary_power`, which watches its squares with a size
function, refuse a power past `MAX_POWER_BITS` bits with an `InputError`.
Values here are `Fraction`s and `int`s; the integer-tuple forms of group
elements and matrices over one denominator live in `families`.
`valuation` is the one p-adic valuation of an integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Optional, Sequence, TypeVar

from . import InputError

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
    return list(factorint(n))


# A power past this many bits is refused: one gcd at this size takes about
# 0.1 s (2-core VM, Python 3.11), the benchmark's long words reach 1,340 bits,
# and 3^(2^17 + 1) has 207,746
MAX_POWER_BITS = 1 << 18
_POWER_REFUSED = f"a power would have more than {MAX_POWER_BITS} bits"


def binary_power(
    x: T, k: int, mul: Callable[[T, T], T], identity: T, bits: Callable[[T], int]
) -> T:
    """x^k for k >= 0 by square-and-multiply; mul must be associative.  An
    InputError once a square has more than MAX_POWER_BITS bits by `bits`."""
    out = identity
    while k:
        if k & 1:
            out = mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
            if bits(x) > MAX_POWER_BITS:
                raise InputError(_POWER_REFUSED)
    return out


def rational_bits(x: Fraction | int) -> int:
    """The larger bit length of x's numerator and denominator."""
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def bounded_pow(x: T, k: int) -> T:
    """x ** k for an int or Fraction x, or an InputError when it is sure to
    have more than MAX_POWER_BITS bits: the numerator or denominator of x^k
    has more than |k| (rational_bits(x) - 1) bits."""
    if abs(k) * (rational_bits(x) - 1) > MAX_POWER_BITS:
        raise InputError(_POWER_REFUSED)
    return x**k


# Miller-Rabin on these bases is a proof of primality below _MR_EXACT_BELOW
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
_TRIAL_BELOW = 1 << 10
# 10 times the Pollard-Brent steps of the worst of 20 products of two random
# 32-bit primes (about 200,000), so that a number past it is refused within
# about 1 s: on a 2-core VM with Python 3.11 this budget is about 0.4 s of
# trial division of a 122-bit number or 0.9 s of Pollard-Brent
FACTOR_STEPS = 2_000_000


class FactorBudgetError(InputError):
    """`factorint` ran past FACTOR_STEPS steps."""


def _primes_below(n: int) -> tuple[int, ...]:
    """The sieve of Eratosthenes."""
    composite = bytearray(n)
    for p in range(2, isqrt(n) + 1):
        if not composite[p]:
            composite[p * p :: p] = b"\x01" * len(range(p * p, n, p))
    return tuple(p for p in range(2, n) if not composite[p])


_SMALL_PRIMES = _primes_below(_TRIAL_BELOW)


def factorint(n: int) -> dict[int, int]:
    """Prime -> exponent map for |n|, ascending; n must be nonzero.

    Trial division takes out the primes below 2^10.  A cofactor below
    _MR_EXACT_BELOW is then split by Pollard-Brent and certified prime by
    Miller-Rabin, and a larger one is trial-divided until it gets there.
    Those two steps share one budget of FACTOR_STEPS; past it,
    `FactorBudgetError`.
    """
    if n == 0:
        raise ValueError("0 has no prime factorization")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            e = 1
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    else:
        out.update(_large_factors(n))
        return out
    if n > 1:
        out[n] = 1
    return out


class _Steps:
    """What is left of one `factorint` call's step budget."""

    def __init__(self, n: int) -> None:
        self.left, self.digits = FACTOR_STEPS, len(str(n))

    def spend(self, steps: int) -> None:
        self.left -= steps
        if self.left < 0:
            raise FactorBudgetError(
                f"factoring a {self.digits}-digit integer needs more than {FACTOR_STEPS} steps"
            )


def _large_factors(n: int) -> dict[int, int]:
    """Prime -> exponent map, ascending, of an n whose primes are all above 2^10."""
    out: dict[int, int] = {}
    steps = _Steps(n)
    start = d = _TRIAL_BELOW + 1
    stop = start + 2 * FACTOR_STEPS
    while n >= _MR_EXACT_BELOW and d * d <= n:
        if d == stop:  # one trial division past the budget
            steps.spend(FACTOR_STEPS + 1)
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    steps.spend((d - start) // 2)
    for p in ([n] if d * d > n else sorted(_split(n, steps))):
        if p > 1:
            out[p] = out.get(p, 0) + 1
    return out


def _split(n: int, steps: _Steps) -> list[int]:
    """Primes of n with multiplicity, for 41 < n < _MR_EXACT_BELOW."""
    if _is_prime(n):
        return [n]
    f = _pollard_brent(n, steps)
    return _split(f, steps) + _split(n // f, steps)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd 41 < n < _MR_EXACT_BELOW."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, steps: _Steps) -> int:
    """A proper factor of an odd composite n (Brent, BIT 20, 1980).

    The walk x -> x^2 + c starts at 2 with c = 1, 2, ..., so the factor
    found depends on n alone; products of |x - y| are batched 128 at a time
    into one gcd, and a batch that overshoots to n is replayed step by step.
    Each run of the walk spends its steps before it takes them; a replay
    retakes steps already spent.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            steps.spend(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps.spend(min(128, r - k))
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def radical_of(n: int) -> int:
    """Square-free kernel of |n|: the product of its distinct primes."""
    if n == 0:
        raise ValueError("radical of 0 is undefined")
    r = 1
    for p in prime_factors(n):
        r *= p
    return r


def valuation(n: int, p: int) -> int:
    """The largest v with p^v dividing n != 0, for |p| > 1: divide by p,
    p^2, p^4, ... while that divides, then by the same powers downward."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v, powers = 0, [p]
    while n % powers[-1] == 0:
        n //= powers[-1]
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] ** 2)
    for k in reversed(range(len(powers) - 1)):
        if n % powers[k] == 0:
            n //= powers[k]
            v += 1 << k
    return v


def rational_valuation(x: Fraction, p: int) -> int:
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    return valuation(x.numerator, p) - valuation(x.denominator, p)


def in_localized(x: Fraction, d: int) -> bool:
    """Is x in Z[1/d]? Every prime of the (reduced) denominator must divide d."""
    if d < 1:
        raise ValueError("locus must be a positive integer")
    # strip the denominator's common factors with d; no factorization
    n = x.denominator
    while n > 1:
        g = gcd(n, d)
        if g == 1:
            return False
        while n % g == 0:
            n //= g
    return True


def _row_sub(target: list[int], source: list[int], q: int) -> None:
    for k in range(len(target)):
        target[k] -= q * source[k]


def integer_row_kernel(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Basis of the lattice {a in Z^n : sum_i a_i * rows[i] = 0}.

    Unimodular row reduction on [rows | I]; rows whose left half dies give the
    kernel exactly (saturated, not just finite index), which matters for the
    sign character in relation_lattice.
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


@dataclass(frozen=True)
class RelationLattice:
    """Multiplicative relations among nonzero rationals r_1, ..., r_n.

    `rows[k]` holds the valuations of r_k at `primes`, ascending.  `kernel`
    is a basis of the valuation relations {a in Z^n : prod r_k^a_k = +-1},
    and `odd[v]` says whether kernel[v] multiplies out to -1 rather than 1.
    """

    primes: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    kernel: tuple[tuple[int, ...], ...]
    odd: tuple[bool, ...]

    @property
    def rank(self) -> int:
        """Rank of the subgroup of Q* that the ratios generate."""
        return len(self.rows) - len(self.kernel)

    @property
    def has_minus_one(self) -> bool:
        """Whether that subgroup contains -1."""
        return any(self.odd)

    def relations(self) -> list[tuple[int, ...]]:
        """Basis of {a in Z^n : prod r_k^a_k = 1}, signs included."""
        odd = [v for v, flag in zip(self.kernel, self.odd) if flag]
        if not odd:
            return list(self.kernel)
        v0 = odd[0]
        basis = [v for v, flag in zip(self.kernel, self.odd) if not flag]
        for v in odd[1:]:
            basis.append(tuple(a + b for a, b in zip(v, v0)))
        basis.append(tuple(2 * a for a in v0))
        return basis


def relation_lattice(ratios: Sequence[Fraction]) -> RelationLattice:
    """The relation lattice of nonzero rationals, factored once.

    The torsion-free part of the generated subgroup has the integer rank of
    the prime-exponent rows; -1 lies in it exactly when the sign character is
    nontrivial on the kernel lattice of those rows.
    """
    exponents = []
    for x in ratios:
        if x == 0:
            raise ValueError("0 generates nothing in Q*")
        exps = factorint(x.numerator)
        exps.update((p, -e) for p, e in factorint(x.denominator).items())
        exponents.append(exps)
    primes = tuple(sorted({p for exps in exponents for p in exps}))
    rows = tuple(tuple(exps.get(p, 0) for p in primes) for exps in exponents)
    kernel = tuple(map(tuple, integer_row_kernel(rows, len(primes))))
    negative = [x < 0 for x in ratios]
    odd = tuple(sum(a for a, neg in zip(v, negative) if neg) % 2 == 1 for v in kernel)
    return RelationLattice(primes, rows, kernel, odd)


def mult_rank(ratios: Sequence[Fraction]) -> tuple[int, bool]:
    """Rank of the subgroup of Q* generated by the ratios, and whether it
    contains -1."""
    lattice = relation_lattice(ratios)
    return lattice.rank, lattice.has_minus_one


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = a x + b y."""
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


def complement_vector(v: tuple[int, int]) -> tuple[int, int]:
    """(i, j) with v[0] j - v[1] i = 1, for a primitive v."""
    g, x, y = ext_gcd(v[0], v[1])
    if g != 1:
        raise AssertionError("kernel vector is not primitive")
    return (-y, x)


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

    def is_unipotent(self) -> bool:
        """Whether the characteristic polynomial is (x - 1)^2."""
        return self.trace() == 2 and self.det() == 1

    def is_reflection(self) -> bool:
        """Order two and determinant -1, by Cayley-Hamilton on x^2 - 1."""
        return self.trace() == 0 and self.det() == -1

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
        return binary_power(base, abs(k), Mat2Q.__mul__, Mat2Q.identity(), Mat2Q.bits)

    def bits(self) -> int:
        """The largest `rational_bits` of an entry."""
        return max(map(rational_bits, self.entries()))

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)


def matrix_order(m: Mat2Q) -> Optional[int]:
    """Multiplicative order of m, or None when it is infinite.

    A finite-order m is diagonalizable with root-of-unity eigenvalues of
    degree at most 2 over Q, so its characteristic polynomial is one of
    x^2 + x + 1, x^2 + 1, x^2 - x + 1 (orders 3, 4, 6, det 1), x^2 - 1
    (order 2, det -1), or (x -+ 1)^2, where only m = +-I is diagonalizable.
    """
    if m.b == m.c == 0 and m.a == m.d and abs(m.a) == 1:
        return 1 if m.a == 1 else 2
    det, tr = m.det(), m.trace()
    if det == -1:
        return 2 if tr == 0 else None
    return {-1: 3, 0: 4, 1: 6}.get(tr) if det == 1 else None


def conjugate_to_integral(m: Mat2Q) -> bool:
    """Is m conjugate in GL(2,Q) to an integer matrix?

    Criterion: both det(m) and tr(m) are integers.  Requires det != 0.
    """
    det = m.det()
    if det == 0:
        raise ValueError("criterion assumes an invertible matrix")
    return det.denominator == 1 and m.trace().denominator == 1


def is_unimodular_integral_class(m: Mat2Q) -> bool:
    """Conjugate to GL(2,Z): determinant +-1 and integer trace."""
    det = m.det()
    if det == 0:
        raise ValueError("criterion assumes an invertible matrix")
    return det in (1, -1) and m.trace().denominator == 1
