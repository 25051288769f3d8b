"""Group descriptors, normal forms, and word evaluation for the supported
families of torsion-free solvable groups.

Families and their generator names:

  RankOneQ        g1, g2, ...   subgroup of (Q, +) given by rational generators
  BSbar           a, t          Z[1/mn] rtimes Z, t a t^-1 = a^(n/m)
  MetabelianH31   a, t, u       <a,t,u | t a^m t^-1 = a^n, u a^p u^-1 = a^q,
                                          u t u^-1 = t a^e>, abelianized fiber
  LatticeByZ      a, b, t       L rtimes_M Z; a, b are the standard basis of
                                Z^2 inside L, t acts by M
  AscHNNKb        x, y, s       ascending HNN extension of the Klein bottle
                                group <x,y | x y x^-1 = y^-1> along
                                phi(x) = x^e y^f, phi(y) = y^d; s g s^-1 = phi(g)
  AffineQ2        as declared   exact affine maps of Q^2

Normal-form conventions: left action t a t^-1 = a^(n/m); MetabelianH31
normal form a^x t^i u^j with t before u; HNN normal form s^-i g s^j with
g not in im(phi) whenever i, j > 0.

Element storage.  An element is its plain tuple of integers, with no
wrapper class: every rational coordinate is kept over one positive
denominator, gcd-normalized, so `==` and `hash` are exact, products stay in
integer arithmetic, and each operation unpacks its tuples in place:

  MetabelianH31   (den, x, i, j)            a^(x/den) t^i u^j; BSbar's too,
                                            with j = 0 (see `BSbar._meta`)
  LatticeByZ      (den, x, y, k)            ((x, y)/den) t^k
  AffineQ2        (den, a, b, c, d, x, y)   v |-> ([[a, b], [c, d]] v + (x, y)) / den
  AscHNNKb        (i, a, b, j)              s^-i x^a y^b s^j, reduced
  RankOneQ        a single `Fraction`

The identities are the constants `META_IDENTITY` (BSbar's too),
`LATTICE_IDENTITY`, `HNNKB_IDENTITY` and `AFFINE_IDENTITY`.  An affine
descriptor's generators are elements too, built from `Fraction`s by
`affine_map` and read back by `affine_linear` and `affine_translation`.
Each descriptor caches, as integer pairs or tuples, what its products need
for exponents up to `_TABLE_REACH`.  A `MetabelianH31` keeps two tables,
t[i] = (r1^i, r1 G(r1, i)) and u[s] = (r2^s, e G(r2, s)) with G(r, k) =
(r^k - 1)/(r - 1), because u^s a^x t^i = a^(x r2^s + e G(r2, s) r1 G(r1,
i)) t^i u^s; a `LatticeByZ` keeps the matrix powers M^k; an `AffineQ2`
keeps one table of powers g^k per generator g, so a word costs one
composition per syllable after its first; an `AscHNNKb` is the three
integers of its endomorphism phi, and `_iterate_apply` applies phi^k by a
closed form.  A `LatticeByZ`'s matrix powers are `affine_pow`s of the
translation-free map v |-> M v.  A `MetabelianH31` also caches its ratio
pair's `RelationLattice`, factored once, which `locus`, `classify` and
`verify` read.

Each power that a word's exponent can make large goes through
`rationals.bounded_pow` or a `binary_power` that watches its squares, so
one past `MAX_POWER_BITS` raises an `InputError`; a huge exponent whose
value stays small is answered at once (`_iterate_apply`, `hnnkb_reduce`).
`GroupOps.of_tree` evaluates a parsed word by `words.evaluate`, each
power (w)^k by a `binary_power` of w's value that reads the family's
`bits`, so a power costs O(log k) products, and it refuses a product of
the word's factors past the same bound.

`FAMILIES` maps each descriptor type to its `Family` record: file tag,
generator names, element algebra, descriptor-file form, display and
defining presentation, one DSL text per family that `words` parses.
`GroupOps` and the command line dispatch through it.
`DescriptorFile` adds the name, notes and presentation that a descriptor
file may carry; `cli` parses and writes it, and ships seven as files.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from math import gcd, lcm, prod
from typing import Any, Callable, Iterable, Optional, Union

from . import InputError, Record
from .rationals import (
    MAX_POWER_BITS,
    Mat2Q,
    RelationLattice,
    binary_power,
    bounded_pow,
    format_rational,
    in_localized,
    rational_bits,
    relation_lattice,
    valuation,
)
from .words import (
    Presentation,
    Product,
    Word,
    evaluate,
    is_generator_name,
    parse_presentation,
)

F = Fraction


def _over_common_denominator(values: Iterable[Fraction]) -> tuple[int, ...]:
    """(den, *nums) with values = nums / den: den is the least common
    denominator, so den > 0 and gcd(den, *nums) = 1."""
    values = tuple(values)
    den = 1
    for v in values:
        den = den * v.denominator // gcd(den, v.denominator)
    return (den, *(v.numerator * (den // v.denominator) for v in values))


# --- affine maps of Q^2 -----------------------------------------------------


AFFINE_IDENTITY = (1, 1, 0, 0, 1, 0, 0)


def affine_map(linear: Mat2Q, translation: tuple[Fraction, Fraction]) -> tuple:
    """v |-> linear v + translation as its element (den, a, b, c, d, x, y):
    the linear part is [[a, b], [c, d]] / den and the translation (x, y) / den,
    with den > 0 and gcd(den, a, b, c, d, x, y) = 1, so `==` is exact."""
    f = _over_common_denominator((*linear.entries(), F(translation[0]), F(translation[1])))
    if f[1] * f[4] == f[2] * f[3]:
        raise ValueError("affine map must have invertible linear part")
    return f


def affine_linear(f: tuple) -> Mat2Q:
    den, a, b, c, d, _, _ = f
    return Mat2Q(F(a, den), F(b, den), F(c, den), F(d, den))


def affine_translation(f: tuple) -> tuple[Fraction, Fraction]:
    den, _, _, _, _, x, y = f
    return (F(x, den), F(y, den))


def is_unipotent(f: tuple) -> bool:
    """Whether the linear part has trace 2 and determinant 1."""
    den, a, b, c, d, _, _ = f
    return a + d == 2 * den and a * d - b * c == den * den


def is_translation(f: tuple) -> bool:
    """Whether the linear part is the identity."""
    den, a, b, c, d, _, _ = f
    return a == d == den and b == c == 0


def _affine(n: int, a: int, b: int, c: int, d: int, x: int, y: int) -> tuple:
    """The tuple after gcd normalization; n > 0 is the caller's."""
    g = gcd(n, a, b, c, d, x, y)
    if g == 1:
        return (n, a, b, c, d, x, y)
    return (n // g, a // g, b // g, c // g, d // g, x // g, y // g)


def affine_compose(f: tuple, g: tuple) -> tuple:
    """(f o g): apply g first."""
    fn, fa, fb, fc, fd, fx, fy = f
    gn, ga, gb, gc, gd, gx, gy = g
    return _affine(
        fn * gn,
        fa * ga + fb * gc,
        fa * gb + fb * gd,
        fc * ga + fd * gc,
        fc * gb + fd * gd,
        fa * gx + fb * gy + gn * fx,
        fc * gx + fd * gy + gn * fy,
    )


def affine_inverse(f: tuple) -> tuple:
    # (A v + t) / n inverts to n adj(A) w / det(A) - adj(A) t / det(A)
    n, a, b, c, d, x, y = f
    det = a * d - b * c
    sign = 1 if det > 0 else -1
    return _affine(
        sign * det,
        sign * n * d,
        -sign * n * b,
        -sign * n * c,
        sign * n * a,
        sign * (b * y - d * x),
        sign * (c * x - a * y),
    )


def affine_pow(f: tuple, k: int) -> tuple:
    base, n = (f, k) if k >= 0 else (affine_inverse(f), -k)
    return binary_power(base, n, affine_compose, AFFINE_IDENTITY, int_bits)


def _linear_ints(f: tuple, k: int) -> tuple[int, int, int, int, int]:
    """(den, a, b, c, d) of the linear part of f^k, for a translation-free f."""
    return affine_pow(f, k)[:5]


def int_bits(ints: Iterable[int]) -> int:
    """The largest bit length of the integers, such as an element's."""
    return max(x.bit_length() for x in ints)


# --- cached integer tables -------------------------------------------------

# Exponents beyond this are recomputed on every use: an entry costs memory
# linear in its exponent, so one long word cannot fill a table with them.
_TABLE_REACH = 256


class _Table(dict):
    """k |-> of(k), computed on first use and kept for |k| <= _TABLE_REACH.

    A descriptor keeps its tables in its instance `__dict__`, through
    `cached_property`; it pickles by its constructor, without them.
    """

    __slots__ = ("of",)

    def __init__(self, of: Callable[[int], Any]) -> None:
        super().__init__()
        self.of = of

    def __missing__(self, k: int):
        value = self.of(k)
        if -_TABLE_REACH <= k <= _TABLE_REACH:
            self[k] = value
        return value


def _pair(x: Fraction) -> tuple[int, int]:
    """x as its reduced integers (numerator, denominator > 0)."""
    return (x.numerator, x.denominator)


# --- descriptors ------------------------------------------------------------


class RankOneQ(Record):
    _fields = ("generators",)

    def __init__(self, generators: tuple[Fraction, ...]) -> None:
        self._set(tuple(F(x) for x in generators))

    @cached_property
    def _numerators(self) -> tuple[dict[str, int], int]:
        """Each generator's numerator by name, over the common denominator."""
        den, *nums = _over_common_denominator(self.generators)
        return dict(zip(_rankone_names(self), nums)), den


class BSbar(Record):
    _fields = ("m", "n")

    def __init__(self, m: int, n: int) -> None:
        if m < 1:
            raise ValueError("m must be a positive integer")
        if n == 0:
            raise ValueError("n must be nonzero")
        if gcd(m, n) != 1:
            raise ValueError("m and n must be coprime")
        self._set(m, n)

    @property
    def ratio(self) -> Fraction:
        return F(self.n, self.m)

    @property
    def locus(self) -> int:
        return self._meta.locus

    @cached_property
    def _meta(self) -> "MetabelianH31":
        """The group again, as <a, t> in MetabelianH31(m, n, 1, 1, 0), where u
        acts trivially: BSbar words run on its element algebra."""
        return MetabelianH31(self.m, self.n, 1, 1, F(0))


class MetabelianH31(Record):
    _fields = ("m", "n", "p", "q", "e")

    def __init__(self, m: int, n: int, p: int, q: int, e: Fraction) -> None:
        if m < 1 or p < 1:
            raise ValueError("m and p must be positive integers")
        if n == 0 or q == 0:
            raise ValueError("n and q must be nonzero")
        if gcd(m, n) != 1 or gcd(p, q) != 1:
            raise ValueError("(m,n) and (p,q) must be coprime pairs")
        e = F(e)
        ring = abs(m * n * p * q)
        if not in_localized(e, ring):
            raise ValueError(f"e must lie in Z[1/{ring}]")
        self._set(m, n, p, q, e)

    @property
    def locus(self) -> int:
        # (m, n) and (p, q) are coprime, so the primes of n/m and q/p are those of mnpq
        return prod(self.ratio_lattice.primes)

    @property
    def t_ratio(self) -> Fraction:
        return F(self.n, self.m)

    @property
    def u_ratio(self) -> Fraction:
        return F(self.q, self.p)

    @cached_property
    def ratio_lattice(self) -> RelationLattice:
        """The relations r1^i r2^j = 1 between t_ratio and u_ratio."""
        return relation_lattice((self.t_ratio, self.u_ratio))

    @cached_property
    def _kernel(self) -> tuple[_Table, _Table]:
        """The t and u tables of `_meta_entry`, as the module docstring says."""
        r1, r2 = self.t_ratio, self.u_ratio
        return _Table(partial(_meta_entry, r1, r1)), _Table(partial(_meta_entry, r2, self.e))


class LatticeByZ(Record):
    _fields = ("matrix",)

    def __init__(self, matrix: Mat2Q) -> None:
        if matrix.det() == 0:
            raise ValueError("acting matrix must be invertible")
        self._set(matrix)

    @cached_property
    def _powers(self) -> "_Table":
        return _Table(partial(_linear_ints, affine_map(self.matrix, (0, 0))))


class AscHNNKb(Record):
    """The ascending HNN extension along phi(x) = x^e y^f, phi(y) = y^d on
    <x,y | x y x^-1 = y^-1>; the descriptor is phi itself.

    e must be odd: x^e y^f must invert y under conjugation, and it flips the
    sign by (-1)^e.  Nonzero e and d make phi injective.
    """

    _fields = ("e", "f", "d")

    def __init__(self, e: int, f: int, d: int) -> None:
        if e % 2 == 0:
            raise ValueError("e must be odd")
        if d == 0:
            raise ValueError("d must be nonzero")
        self._set(e, f, d)


class AffineQ2(Record):
    _fields = ("generators",)

    def __init__(self, generators: tuple[tuple[str, tuple], ...]) -> None:
        """`generators` are (name, element) pairs, as `affine_map` builds."""
        names = [name for name, _ in generators]
        if not names:
            raise ValueError("at least one generator required")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        for name in names:
            if not is_generator_name(name):
                raise ValueError(f"generator name {name!r} is not an identifier")
        for name, f in generators:  # what `affine_map` guarantees
            if not (isinstance(f, tuple) and len(f) == 7 and all(type(v) is int for v in f)
                    and f[0] >= 1 and f == _affine(*f) and f[1] * f[4] != f[2] * f[3]):
                raise ValueError(f"generator {name!r} is not a canonical invertible affine map")
        self._set(generators)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators)

    @cached_property
    def _powers(self) -> dict[str, "_Table"]:
        """Each generator's table of powers, by name."""
        return {name: _Table(partial(affine_pow, f)) for name, f in self.generators}


GroupDescriptor = Union[RankOneQ, BSbar, MetabelianH31, LatticeByZ, AscHNNKb, AffineQ2]


# --- MetabelianH31 ----------------------------------------------------------


def _meta(den: int, num: int, i: int, j: int) -> tuple:
    """a^(num/den) t^i u^j after gcd normalization; den > 0 is the caller's."""
    g = gcd(den, num)
    return (den, num, i, j) if g == 1 else (den // g, num // g, i, j)


def _meta_entry(r: Fraction, c: Fraction, k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(r^k, c G(r, k)) as integer pairs (num, den), where G(r, k) =
    (r^k - 1)/(r - 1) for every integer k and G(1, k) = k."""
    rk = bounded_pow(r, k)
    return _pair(rk), _pair(c * (k if r == 1 else (rk - 1) / (r - 1)))


def _meta_u_step(
    kern: tuple[_Table, _Table], s: int, den: int, num: int, i: int
) -> tuple[int, int]:
    """u^s a^(num/den) t^i = a^(num'/den') t^i u^s with x' = x r2^s + (e G(r2, s))
    (r1 G(r1, i)), one entry of each table; returns (den', num'), not reduced."""
    t, u = kern
    (p, q), (gn, gd) = u[s]
    _, (cn, cd) = t[i]
    if cn and gn:
        scale = cd * gd
        return den * q * scale, num * p * scale + cn * gn * den * q
    return den * q, num * p


def meta_mul(desc: MetabelianH31, g1: tuple, g2: tuple) -> tuple:
    # prepend u^j1, then t^i1, then a^x1 to g2
    kern = desc._kernel
    d1, x1, i1, j1 = g1
    den, num, i2, j2 = g2
    if j1:
        den, num = _meta_u_step(kern, j1, den, num, i2)
    (p, q), _ = kern[0][i1]
    den, num = den * q, num * p
    return _meta(den * d1, num * d1 + x1 * den, i1 + i2, j1 + j2)


def meta_inv(desc: MetabelianH31, g: tuple) -> tuple:
    # u^-j t^-i a^-x
    kern = desc._kernel
    den, num, i, j = g
    (p, q), _ = kern[0][-i]
    den, num = den * q, -num * p
    if j:
        den, num = _meta_u_step(kern, -j, den, num, -i)
    return _meta(den, num, -i, -j)


def meta_of_word(desc: MetabelianH31, w: Word, names: str = "a, t, u") -> tuple:
    """The word's normal form; names "a, t" refuses u, for BSbar's words."""
    kern = desc._kernel
    den, num, i, j = 1, 0, 0, 0
    for g, e in reversed(w.syllables):
        if g == "a":
            num += e * den  # stays reduced
            continue
        if g == "t":
            (p, q), _ = kern[0][e]
            den, num, i = den * q, num * p, i + e
        elif g == "u" and names == "a, t, u":
            den, num = _meta_u_step(kern, e, den, num, i)
            j += e
        else:
            raise ValueError(f"unknown generator {g!r} (expected {names})")
        c = gcd(den, num)
        den, num = den // c, num // c
    return (den, num, i, j)


META_IDENTITY = (1, 0, 0, 0)


# --- lattice-by-Z -----------------------------------------------------------


def _lattice(den: int, x: int, y: int, k: int) -> tuple:
    """(x, y) / den t^k after gcd normalization; den > 0 is the caller's."""
    g = gcd(den, x, y)
    return (den, x, y, k) if g == 1 else (den // g, x // g, y // g, k)


def lattice_mul(desc: LatticeByZ, g1: tuple, g2: tuple) -> tuple:
    # v1 + M^k1 v2
    d1, x1, y1, k1 = g1
    d2, x2, y2, k2 = g2
    n, a, b, c, d = desc._powers[k1]
    scale = n * d2
    return _lattice(
        d1 * scale,
        x1 * scale + d1 * (a * x2 + b * y2),
        y1 * scale + d1 * (c * x2 + d * y2),
        k1 + k2,
    )


def lattice_inv(desc: LatticeByZ, g: tuple) -> tuple:
    # -M^-k v
    den, x, y, k = g
    n, a, b, c, d = desc._powers[-k]
    return _lattice(n * den, -(a * x + b * y), -(c * x + d * y), -k)


def lattice_of_word(desc: LatticeByZ, w: Word) -> tuple:
    den, x, y, k = 1, 0, 0, 0
    powers = desc._powers
    for g, e in reversed(w.syllables):
        if g == "t":
            n, a, b, c, d = powers[e]
            den, x, y, k = den * n, a * x + b * y, c * x + d * y, k + e
            q = gcd(den, x, y)
            den, x, y = den // q, x // q, y // q
        elif g == "a":
            x += e * den  # stays reduced
        elif g == "b":
            y += e * den
        else:
            raise ValueError(f"unknown generator {g!r} (expected a, b, t)")
    return (den, x, y, k)


LATTICE_IDENTITY = (1, 0, 0, 0)


# --- Klein bottle group and its ascending HNN extensions --------------------


def hnnkb_reduce(desc: AscHNNKb, i: int, a: int, b: int, j: int) -> tuple:
    """s^-i x^a y^b s^j reduced: i, j > 0 only when x^a y^b, in the Klein
    bottle group <x, y | x y x^-1 = y^-1>, is outside im(phi)."""
    # s^-1 h s = phi^-1(h) for h in im(phi), one s pair per step.  A step maps
    # x^a y^b to x^(a/e) y^((b - c)/d) with c = f (a mod 2), the same at every
    # step as e is odd.  With B = (d - 1) b + c, the b after n steps is
    # (B/d^n - c)/(d - 1), an integer exactly when d^n divides B, so the
    # steps number min(i, j, v_e(a), v_d(B)), a valuation counted only when
    # |e| > 1 and a != 0, or |d| > 1 and B != 0.  |d| = 1 gives b - n c
    # (d = 1) or period 2 (d = -1).
    e, f, d = desc.e, desc.f, desc.d
    c = f * (a & 1)
    n = min(i, j)
    if n <= 0 or a % e or (b - c) % d:  # not one step
        return (i, a, b, j)
    if a and abs(e) > 1:
        n = min(n, valuation(a, e))
    shifted = (d - 1) * b + c  # B
    if abs(d) > 1 and shifted:
        n = min(n, valuation(shifted, d))
        b = (shifted // d**n - c) // (d - 1)
    elif d == 1:
        b -= n * c
    elif d == -1 and n % 2:
        b = c - b
    return (i - n, a and a // e**n, b, j - n)


HNNKB_IDENTITY = (0, 0, 0, 0)


def _iterate_apply(phi: AscHNNKb, k: int, a: int, b: int) -> tuple[int, int]:
    """phi^k(x^a y^b) for k >= 0, with only the powers that it needs, each
    within MAX_POWER_BITS: phi(x^a y^b) = (x^e y^f)^a y^(d b) = x^(e a)
    y^(f (a mod 2) + d b), as e odd gives (x^e y^f)^2 = x^(2e), so by
    induction phi^k(x) = x^(e^k) y^(f (1 + d + ... + d^(k-1))) and
    phi^k(y) = y^(d^k)."""
    if not k:
        return a, b
    e, f, d = phi.e, phi.f, phi.d
    twist = f and a & 1
    dk = bounded_pow(d, k) if b or (twist and d != 1) else 1
    b *= dk
    if twist:
        b += f * (k if d == 1 else (dk - 1) // (d - 1))
    return a and a * bounded_pow(e, k), b


def hnnkb_mul(desc: AscHNNKb, g1: tuple, g2: tuple) -> tuple:
    # x^a1 y^b1 x^a2 y^b2 = x^(a1 + a2) y^(+-b1 + b2), - for odd a2
    i1, a1, b1, j1 = g1
    i2, a2, b2, j2 = g2
    if j1 >= i2:
        shift = j1 - i2
        a2, b2 = _iterate_apply(desc, shift, a2, b2)
        return hnnkb_reduce(desc, i1, a1 + a2, (-b1 if a2 & 1 else b1) + b2, shift + j2)
    shift = i2 - j1
    a1, b1 = _iterate_apply(desc, shift, a1, b1)
    return hnnkb_reduce(desc, i1 + shift, a1 + a2, (-b1 if a2 & 1 else b1) + b2, j2)


def hnnkb_inv(desc: AscHNNKb, g: tuple) -> tuple:
    i, a, b, j = g
    return hnnkb_reduce(desc, j, -a, b if a & 1 else -b, i)


def hnnkb_of_word(desc: AscHNNKb, w: Word) -> tuple:
    out = HNNKB_IDENTITY
    for g, e in w.syllables:
        if g == "x":
            step = (0, e, 0, 0)
        elif g == "y":
            step = (0, 0, e, 0)
        elif g == "s":
            step = (-e, 0, 0, 0) if e < 0 else (0, 0, 0, e)
        else:
            raise ValueError(f"unknown generator {g!r} (expected x, y, s)")
        out = hnnkb_mul(desc, out, step)
    return out


# --- rank-one subgroups of Q ------------------------------------------------


def rankone_of_word(desc: RankOneQ, w: Word) -> Fraction:
    nums, den = desc._numerators
    total = 0
    for g, e in w.syllables:
        if g not in nums:
            raise ValueError(f"unknown generator {g!r} (expected g1..g{len(desc.generators)})")
        total += e * nums[g]
    return F(total, den)


# --- affine word evaluation -------------------------------------------------


def affine_of_word(desc: AffineQ2, w: Word) -> tuple:
    powers = desc._powers
    out = None
    for g, e in w.syllables:
        if g not in powers:
            raise ValueError(f"unknown generator {g!r}")
        out = powers[g][e] if out is None else affine_compose(out, powers[g][e])
    return AFFINE_IDENTITY if out is None else out


# --- display and defining presentations ---------------------------------------


def _mat_values(m: Mat2Q) -> str:
    return " ".join(format_rational(v) for v in (m.a, m.b, m.c, m.d))


def _syllables(*pairs: tuple[str, object]) -> str:
    parts = []
    for name, exp in pairs:
        if exp == 0:
            continue
        if exp == 1:
            parts.append(name)
        elif isinstance(exp, Fraction) and exp.denominator != 1:
            parts.append(f"{name}^({format_rational(exp)})")
        else:
            parts.append(f"{name}^{exp}")
    return " ".join(parts) if parts else "1"


def _hnnkb_format(g: tuple) -> str:
    i, a, b, j = g
    core = _syllables(("x", a), ("y", b))
    parts = []
    if i:
        parts.append(f"s^-{i}")
    if core != "1":
        parts.append(core)
    if j:
        parts.append(f"s^{j}")
    return " ".join(parts) if parts else "1"


def _affine_format(g: tuple) -> str:
    tx, ty = affine_translation(g)
    return (
        f"linear [{_mat_values(affine_linear(g))}], "
        f"translation ({format_rational(tx)}, {format_rational(ty)})"
    )


def _lattice_describe(desc: LatticeByZ) -> str:
    m = desc.matrix
    row1 = f"[{format_rational(m.a)}, {format_rational(m.b)}]"
    row2 = f"[{format_rational(m.c)}, {format_rational(m.d)}]"
    return f"LatticeByZ([{row1}, {row2}])"


def _int_fields(desc, keys: str) -> list[tuple[str, str]]:
    return [(k, str(getattr(desc, k))) for k in keys]


def _affine_fields(desc: AffineQ2) -> list[tuple[str, str]]:
    out = [("generators", " ".join(desc.names))]
    for gname, f in desc.generators:
        tx, ty = affine_translation(f)
        out.append((f"gen.{gname}.linear", _mat_values(affine_linear(f))))
        out.append((f"gen.{gname}.translation", f"{format_rational(tx)} {format_rational(ty)}"))
    return out


def _affine_parse(take) -> AffineQ2:
    names = take("generators", "names")
    maps = {}
    for gname in dict.fromkeys(names):  # each key is taken once; AffineQ2 refuses repeats
        lin = take(f"gen.{gname}.linear", "matrix")
        tr = take(f"gen.{gname}.translation", "vector")
        maps[gname] = affine_map(Mat2Q.of(*lin), (tr[0], tr[1]))
    return AffineQ2(tuple((gname, maps[gname]) for gname in names))


def _rankone_names(desc: RankOneQ) -> tuple[str, ...]:
    return tuple(f"g{i + 1}" for i in range(len(desc.generators)))


def _rankone_presentation(desc: RankOneQ) -> Presentation:
    names = _rankone_names(desc)
    rels = [f"{gi} {gj} = {gj} {gi}" for i, gi in enumerate(names) for gj in names[i + 1 :]]
    return parse_presentation(f"< {', '.join(names)} | {', '.join(rels)} >")


def _lattice_presentation(desc: LatticeByZ) -> Presentation:
    """For g = a, b: t g^k t^-1 = a^x b^y, (x, y) = k M g for the least k making it integral."""
    m = desc.matrix
    ka, kb = lcm(m.a.denominator, m.c.denominator), lcm(m.b.denominator, m.d.denominator)
    return parse_presentation(
        f"< a, b, t | [a, b], t a^{ka} t^-1 = a^{m.a * ka} b^{m.c * ka}, "
        f"t b^{kb} t^-1 = a^{m.b * kb} b^{m.d * kb} >"
    )


# --- the family table ---------------------------------------------------------


class Family(Record):
    """Everything one family of descriptors needs outside classification and
    the verifier's oracles.

    `identity` is an element, not a function.  `mul`, `inv` and `of_word`
    take the descriptor first; `bits(g)` is the largest bit length of an
    integer in g's normal form, which a power watches on every square.
    `parse(take)` builds a descriptor from
    `take(key, kind)`, the value of a descriptor-file key read as kind
    "int", "rational", "rationals", "matrix" (four rationals), "vector" (two
    rationals) or "names".  `fields(desc)` lists the descriptor's (key,
    value) file lines in file order.  `presentation(desc)` is the family's
    defining presentation, parsed from its DSL text, whose relators hold in
    the element model; an affine descriptor's has no relators, and a
    descriptor file gives it its own.
    """

    __slots__ = _fields = (
        "tag", "generator_names", "identity", "mul", "inv", "of_word", "bits",
        "parse", "fields", "describe", "format_element", "presentation",
    )

    def __init__(
        self, tag: str, generator_names: Callable[[Any], tuple[str, ...]], identity: Any,
        mul: Callable[[Any, Any, Any], Any], inv: Callable[[Any, Any], Any],
        of_word: Callable[[Any, Word], Any], bits: Callable[[Any], int],
        parse: Callable[[Callable[[str, str], Any]], Any],
        fields: Callable[[Any], list[tuple[str, str]]], describe: Callable[[Any], str],
        format_element: Callable[[Any], str], presentation: Callable[[Any], Presentation],
    ) -> None:
        self._set(
            tag, generator_names, identity, mul, inv, of_word, bits,
            parse, fields, describe, format_element, presentation,
        )


FAMILIES: dict[type, Family] = {
    BSbar: Family(
        tag="bsbar",
        generator_names=lambda d: ("a", "t"),
        identity=META_IDENTITY,
        mul=lambda d, g1, g2: meta_mul(d._meta, g1, g2),
        inv=lambda d, g: meta_inv(d._meta, g),
        of_word=lambda d, w: meta_of_word(d._meta, w, "a, t"),
        bits=int_bits,
        parse=lambda take: BSbar(*[take(k, "int") for k in "mn"]),
        fields=lambda d: _int_fields(d, "mn"),
        describe=lambda d: f"BSbar(m={d.m}, n={d.n})",
        format_element=lambda g: _syllables(("a", F(g[1], g[0])), ("t", g[2])),
        presentation=lambda d: parse_presentation(
            f"< a, t | t a^{d.m} t^-1 = a^{d.n}, [a, t a t^-1] >"
        ),
    ),
    MetabelianH31: Family(
        tag="metabelian_h31",
        generator_names=lambda d: ("a", "t", "u"),
        identity=META_IDENTITY,
        mul=meta_mul,
        inv=meta_inv,
        of_word=meta_of_word,
        bits=int_bits,
        parse=lambda take: MetabelianH31(
            *[take(k, "int") for k in "mnpq"], take("e", "rational")
        ),
        fields=lambda d: _int_fields(d, "mnpq") + [("e", format_rational(d.e))],
        describe=lambda d: (
            f"MetabelianH31(m={d.m}, n={d.n}, p={d.p}, q={d.q}, "
            f"e={format_rational(d.e)})"
        ),
        format_element=lambda g: _syllables(("a", F(g[1], g[0])), ("t", g[2]), ("u", g[3])),
        presentation=lambda d: parse_presentation(
            f"< a, t, u | t a^{d.m} t^-1 = a^{d.n}, u a^{d.p} u^-1 = a^{d.q}, "
            f"[u, t]^{(d.e * d.t_ratio).denominator} = a^{(d.e * d.t_ratio).numerator}, "
            "[a, t a t^-1], [a, u a u^-1], [t a t^-1, u a u^-1] >"
        ),
    ),
    LatticeByZ: Family(
        tag="lattice_by_z",
        generator_names=lambda d: ("a", "b", "t"),
        identity=LATTICE_IDENTITY,
        mul=lattice_mul,
        inv=lattice_inv,
        of_word=lattice_of_word,
        bits=int_bits,
        parse=lambda take: LatticeByZ(Mat2Q.of(*take("matrix", "matrix"))),
        fields=lambda d: [("matrix", _mat_values(d.matrix))],
        describe=_lattice_describe,
        format_element=lambda g: _syllables(
            ("a", F(g[1], g[0])), ("b", F(g[2], g[0])), ("t", g[3])
        ),
        presentation=_lattice_presentation,
    ),
    AscHNNKb: Family(
        tag="asc_hnn_kb",
        generator_names=lambda d: ("x", "y", "s"),
        identity=HNNKB_IDENTITY,
        mul=hnnkb_mul,
        inv=hnnkb_inv,
        of_word=hnnkb_of_word,
        bits=int_bits,
        parse=lambda take: AscHNNKb(*[take(k, "int") for k in "efd"]),
        fields=lambda d: _int_fields(d, "efd"),
        describe=lambda d: f"AscHNNKb(e={d.e}, f={d.f}, d={d.d})",
        format_element=_hnnkb_format,
        presentation=lambda d: parse_presentation(
            f"< x, y, s | x y x^-1 = y^-1, s x s^-1 = x^{d.e} y^{d.f}, s y s^-1 = y^{d.d} >"
        ),
    ),
    RankOneQ: Family(
        tag="rank_one_q",
        generator_names=_rankone_names,
        identity=F(0),
        mul=lambda d, g1, g2: g1 + g2,
        inv=lambda d, g: -g,
        of_word=rankone_of_word,
        bits=rational_bits,
        parse=lambda take: RankOneQ(tuple(take("generators", "rationals"))),
        fields=lambda d: [("generators", " ".join(map(format_rational, d.generators)))],
        describe=lambda d: f"RankOneQ({', '.join(map(format_rational, d.generators))})",
        format_element=format_rational,
        presentation=_rankone_presentation,
    ),
    AffineQ2: Family(
        tag="affine_q2",
        generator_names=lambda d: d.names,
        identity=AFFINE_IDENTITY,
        mul=lambda d, f, g: affine_compose(f, g),
        inv=lambda d, f: affine_inverse(f),
        of_word=affine_of_word,
        bits=int_bits,
        parse=_affine_parse,
        fields=_affine_fields,
        describe=lambda d: f"AffineQ2({', '.join(d.names)})",
        format_element=_affine_format,
        presentation=lambda d: Presentation(d.names, ()),
    ),
}

FAMILY_BY_TAG: dict[str, Family] = {fam.tag: fam for fam in FAMILIES.values()}


def family_of(desc: GroupDescriptor) -> Family:
    try:
        return FAMILIES[type(desc)]
    except KeyError:
        raise TypeError(f"unknown descriptor {desc!r}") from None


class DescriptorFile(Record):
    __slots__ = _fields = ("descriptor", "name", "notes", "presentation")

    def __init__(
        self, descriptor: GroupDescriptor, name: Optional[str] = None,
        notes: Optional[str] = None, presentation: Optional[Presentation] = None,
    ) -> None:
        self._set(descriptor, name, notes, presentation)


# --- uniform interface ------------------------------------------------------


class GroupOps:
    """Uniform element algebra for one descriptor.

    Elements are the family's normal forms, plain integer tuples (a
    `Fraction` for `RankOneQ`); `of_word` evaluates a free word on the
    family's named generators, and `of_tree` a parsed one with its powers
    kept.
    """

    def __init__(self, desc: GroupDescriptor) -> None:
        self.desc = desc
        self.family = family_of(desc)

    @property
    def generator_names(self) -> tuple[str, ...]:
        return self.family.generator_names(self.desc)

    def identity(self):
        return self.family.identity

    def mul(self, g1, g2):
        return self.family.mul(self.desc, g1, g2)

    def inv(self, g):
        return self.family.inv(self.desc, g)

    def of_word(self, w: Word):
        return self.family.of_word(self.desc, w)

    def of_tree(self, tree: Product):
        """The value of a parsed word, equal to `of_word(tree.word)`; a
        square in a power, or a product of factors, past `MAX_POWER_BITS`
        by `Family.bits` is refused."""
        bits = self.family.bits

        def mul(g, h):
            if bits(gh := self.mul(g, h)) > MAX_POWER_BITS:
                raise InputError(f"a product would have more than {MAX_POWER_BITS} bits")
            return gh

        power = partial(binary_power, mul=self.mul, identity=self.identity(), bits=bits)
        return evaluate(tree, self.of_word, mul, self.inv, power)

    def is_identity(self, g) -> bool:
        return g == self.identity()

    def word_eq(self, w1: Word, w2: Word) -> bool:
        return self.of_word(w1) == self.of_word(w2)


def ops_for(desc: GroupDescriptor) -> GroupOps:
    return GroupOps(desc)
