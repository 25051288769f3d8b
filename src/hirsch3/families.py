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

Element storage.  Every rational coordinate is kept as integers over one
positive denominator, gcd-normalized, so `==` and `hash` are exact and
products stay in integer arithmetic:

  MetaH31Elem     ints = (den, x, i, j)     a^(x/den) t^i u^j; BSbar's too,
                                            with j = 0 (see `BSbar._meta`)
  LatticeElem     ints = (den, x, y, k)     ((x, y)/den) t^k
  AffineMap2      ints = (den, a, b, c, d, x, y)
                                            v |-> ([[a, b], [c, d]] v + (x, y)) / den
  BrittonElem     integers already (s-exponents and a KbElem x^a y^b)
  RankOneQ        a single `Fraction`

The constructors take `Fraction` coordinates, and `.x`, `.v`, `.linear`
and `.translation` read them back as `Fraction`s.  The identities are the
constants `META_IDENTITY` (BSbar's too), `LATTICE_IDENTITY`, `KB_IDENTITY`,
`HNNKB_IDENTITY` and `AffineMap2.identity()`.  Each descriptor caches, as
integer pairs or tuples, what its products need for exponents up to
`_TABLE_REACH`.  A `MetabelianH31` keeps two tables, t[i] = (r1^i,
r1 G(r1, i)) and u[s] = (r2^s, e G(r2, s)) with G(r, k) = (r^k - 1)/(r - 1),
because u^s a^x t^i = a^(x r2^s + e G(r2, s) r1 G(r1, i)) t^i u^s; a
`LatticeByZ` keeps the matrix powers M^k; an `AffineQ2` keeps one table
of powers g^k per generator g, so a word costs one composition per
syllable after its first; an `AscHNNKb` is the three
integers of its endomorphism phi, and `_iterate_apply` applies phi^k by a
closed form.  A `MetabelianH31` also caches its ratio pair's
`RelationLattice`, factored once, which `locus`, `classify` and `verify`
read.

Each power that a word's exponent can make large goes through
`rationals.bounded_pow` or a `binary_power` that watches its squares, so
one past `MAX_POWER_BITS` raises an `InputError`; a huge exponent whose
value stays small is answered at once (`_iterate_apply`, `hnnkb_reduce`).

`FAMILIES` maps each descriptor type to its `Family` record: file tag,
generator names, element algebra, descriptor-file form, display and
defining relations.  `GroupOps` and the command line dispatch through it.
`DescriptorFile` adds the name, notes and presentation that a descriptor
file may carry; `cli` parses and writes it, and `fixtures` ships some.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, prod
from typing import Any, Callable, Iterable, Optional, Union

from . import InputError
from .rationals import (
    Mat2Q,
    RelationLattice,
    binary_power,
    bounded_pow,
    format_rational,
    in_localized,
    relation_lattice,
    valuation,
)
from .words import Presentation, Word, commutator, format_word, is_generator_name

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


@dataclass(frozen=True, init=False)
class AffineMap2:
    """v |-> linear v + translation, with invertible linear part.

    Stored as seven integers `ints = (den, a, b, c, d, x, y)`: the linear
    part is [[a, b], [c, d]] / den and the translation is (x, y) / den, with
    den > 0 and gcd(den, a, b, c, d, x, y) = 1.  That form is canonical, so
    `==` and `hash` are exact.
    """

    ints: tuple[int, int, int, int, int, int, int]

    def __init__(self, linear: Mat2Q, translation: tuple[Fraction, Fraction]) -> None:
        ints = _over_common_denominator(
            (*linear.entries(), F(translation[0]), F(translation[1]))
        )
        _, a, b, c, d, _, _ = ints
        if a * d - b * c == 0:
            raise ValueError("affine map must have invertible linear part")
        object.__setattr__(self, "ints", ints)

    @classmethod
    def identity(cls) -> "AffineMap2":
        return _AFFINE_IDENTITY

    @property
    def linear(self) -> Mat2Q:
        den, a, b, c, d, _, _ = self.ints
        return Mat2Q(F(a, den), F(b, den), F(c, den), F(d, den))

    @property
    def translation(self) -> tuple[Fraction, Fraction]:
        den, _, _, _, _, x, y = self.ints
        return (F(x, den), F(y, den))

    def apply(self, v: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
        den, a, b, c, d, x, y = self.ints
        return (F(a * v[0] + b * v[1] + x, den), F(c * v[0] + d * v[1] + y, den))

    def is_unipotent(self) -> bool:
        """Whether the linear part has trace 2 and determinant 1."""
        den, a, b, c, d, _, _ = self.ints
        return a + d == 2 * den and a * d - b * c == den * den

    def is_translation(self) -> bool:
        """Whether the linear part is the identity."""
        den, a, b, c, d, _, _ = self.ints
        return a == d == den and b == c == 0


def _affine_of_ints(den: int, a: int, b: int, c: int, d: int, x: int, y: int) -> AffineMap2:
    """The map with these integers after gcd normalization; den > 0 and an
    invertible linear part are the caller's to guarantee."""
    g = gcd(den, a, b, c, d, x, y)
    if g != 1:
        den, a, b, c, d, x, y = den // g, a // g, b // g, c // g, d // g, x // g, y // g
    out = object.__new__(AffineMap2)
    object.__setattr__(out, "ints", (den, a, b, c, d, x, y))
    return out


_AFFINE_IDENTITY = _affine_of_ints(1, 1, 0, 0, 1, 0, 0)


def affine_compose(f: AffineMap2, g: AffineMap2) -> AffineMap2:
    """(f o g): apply g first."""
    fn, fa, fb, fc, fd, fx, fy = f.ints
    gn, ga, gb, gc, gd, gx, gy = g.ints
    return _affine_of_ints(
        fn * gn,
        fa * ga + fb * gc,
        fa * gb + fb * gd,
        fc * ga + fd * gc,
        fc * gb + fd * gd,
        fa * gx + fb * gy + gn * fx,
        fc * gx + fd * gy + gn * fy,
    )


def affine_inverse(f: AffineMap2) -> AffineMap2:
    # (A v + t) / n inverts to n adj(A) w / det(A) - adj(A) t / det(A)
    n, a, b, c, d, x, y = f.ints
    det = a * d - b * c
    sign = 1 if det > 0 else -1
    return _affine_of_ints(
        sign * det,
        sign * n * d,
        -sign * n * b,
        -sign * n * c,
        sign * n * a,
        sign * (b * y - d * x),
        sign * (c * x - a * y),
    )


def affine_pow(f: AffineMap2, k: int) -> AffineMap2:
    base, n = (f, k) if k >= 0 else (affine_inverse(f), -k)
    return binary_power(base, n, affine_compose, AffineMap2.identity(), _affine_bits)


def _affine_bits(f: AffineMap2) -> int:
    return max(x.bit_length() for x in f.ints)


# --- cached integer tables -------------------------------------------------

# Exponents beyond this are recomputed on every use: an entry costs memory
# linear in its exponent, so one long word cannot fill a table with them.
_TABLE_REACH = 256


class _Table(dict):
    """k |-> of(k), computed on first use and kept for |k| <= _TABLE_REACH.

    `of` is a module-level function or a `partial` of one, so a descriptor
    holding tables still pickles.
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


def _matrix_power(m: Mat2Q, k: int) -> tuple[int, ...]:
    """M^k as integers (den, a, b, c, d): M^k = [[a, b], [c, d]] / den."""
    return _over_common_denominator(m.pow(k).entries())


# --- descriptors ------------------------------------------------------------


@dataclass(frozen=True)
class RankOneQ:
    generators: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(F(x) for x in self.generators))

    @cached_property
    def _numerators(self) -> tuple[dict[str, int], int]:
        """Each generator's numerator by name, over the common denominator."""
        den, *nums = _over_common_denominator(self.generators)
        return dict(zip(_rankone_names(self), nums)), den


@dataclass(frozen=True)
class BSbar:
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if self.n == 0:
            raise ValueError("n must be nonzero")
        if gcd(self.m, self.n) != 1:
            raise ValueError("m and n must be coprime")

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


@dataclass(frozen=True)
class MetabelianH31:
    m: int
    n: int
    p: int
    q: int
    e: Fraction

    def __post_init__(self) -> None:
        if self.m < 1 or self.p < 1:
            raise ValueError("m and p must be positive integers")
        if self.n == 0 or self.q == 0:
            raise ValueError("n and q must be nonzero")
        if gcd(self.m, self.n) != 1 or gcd(self.p, self.q) != 1:
            raise ValueError("(m,n) and (p,q) must be coprime pairs")
        object.__setattr__(self, "e", F(self.e))
        ring = abs(self.m * self.n * self.p * self.q)
        if not in_localized(self.e, ring):
            raise ValueError(f"e must lie in Z[1/{ring}]")

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


@dataclass(frozen=True)
class LatticeByZ:
    matrix: Mat2Q

    def __post_init__(self) -> None:
        if self.matrix.det() == 0:
            raise ValueError("acting matrix must be invertible")

    @cached_property
    def _powers(self) -> "_Table":
        return _Table(partial(_matrix_power, self.matrix))


@dataclass(frozen=True)
class AscHNNKb:
    """The ascending HNN extension along phi(x) = x^e y^f, phi(y) = y^d on
    <x,y | x y x^-1 = y^-1>; the descriptor is phi itself.

    e must be odd: x^e y^f must invert y under conjugation, and it flips the
    sign by (-1)^e.  Nonzero e and d make phi injective.
    """

    e: int
    f: int
    d: int

    def __post_init__(self) -> None:
        if self.e % 2 == 0:
            raise ValueError("e must be odd")
        if self.d == 0:
            raise ValueError("d must be nonzero")


@dataclass(frozen=True)
class AffineQ2:
    generators: tuple[tuple[str, AffineMap2], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.generators]
        if not names:
            raise ValueError("at least one generator required")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        for name in names:
            if not is_generator_name(name):
                raise ValueError(f"generator name {name!r} is not an identifier")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators)

    @cached_property
    def _powers(self) -> dict[str, "_Table"]:
        """Each generator's table of powers, by name."""
        return {name: _Table(partial(affine_pow, g)) for name, g in self.generators}


GroupDescriptor = Union[RankOneQ, BSbar, MetabelianH31, LatticeByZ, AscHNNKb, AffineQ2]


# --- MetabelianH31 ----------------------------------------------------------


@dataclass(frozen=True, init=False)
class MetaH31Elem:
    """Normal form a^x t^i u^j, stored as integers `ints = (den, num, i, j)`
    with x = num / den, den > 0 and gcd(num, den) = 1."""

    ints: tuple[int, int, int, int]

    def __init__(self, x: Fraction, i: int, j: int) -> None:
        x = F(x)
        object.__setattr__(self, "ints", (x.denominator, x.numerator, i, j))

    @property
    def x(self) -> Fraction:
        return F(self.ints[1], self.ints[0])

    @property
    def i(self) -> int:
        return self.ints[2]

    @property
    def j(self) -> int:
        return self.ints[3]


def _meta_of_ints(den: int, num: int, i: int, j: int) -> MetaH31Elem:
    """a^(num/den) t^i u^j after gcd normalization; den > 0 is the caller's."""
    g = gcd(den, num)
    if g != 1:
        den, num = den // g, num // g
    out = object.__new__(MetaH31Elem)
    object.__setattr__(out, "ints", (den, num, i, j))
    return out


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


def meta_mul(desc: MetabelianH31, g1: MetaH31Elem, g2: MetaH31Elem) -> MetaH31Elem:
    # prepend u^j1, then t^i1, then a^x1 to g2
    kern = desc._kernel
    d1, x1, i1, j1 = g1.ints
    den, num, i2, j2 = g2.ints
    if j1:
        den, num = _meta_u_step(kern, j1, den, num, i2)
    (p, q), _ = kern[0][i1]
    den, num = den * q, num * p
    return _meta_of_ints(den * d1, num * d1 + x1 * den, i1 + i2, j1 + j2)


def meta_inv(desc: MetabelianH31, g: MetaH31Elem) -> MetaH31Elem:
    # u^-j t^-i a^-x
    kern = desc._kernel
    den, num, i, j = g.ints
    (p, q), _ = kern[0][-i]
    den, num = den * q, -num * p
    if j:
        den, num = _meta_u_step(kern, -j, den, num, -i)
    return _meta_of_ints(den, num, -i, -j)


def meta_of_word(desc: MetabelianH31, w: Word, names: str = "a, t, u") -> MetaH31Elem:
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
    return _meta_of_ints(den, num, i, j)


META_IDENTITY = _meta_of_ints(1, 0, 0, 0)


# --- lattice-by-Z -----------------------------------------------------------


@dataclass(frozen=True, init=False)
class LatticeElem:
    """v t^k with v = (x, y) / den in the acted-on subgroup, stored as
    integers `ints = (den, x, y, k)` with den > 0 and gcd(den, x, y) = 1."""

    ints: tuple[int, int, int, int]

    def __init__(self, v: tuple[Fraction, Fraction], k: int) -> None:
        ints = (*_over_common_denominator((F(v[0]), F(v[1]))), k)
        object.__setattr__(self, "ints", ints)

    @property
    def v(self) -> tuple[Fraction, Fraction]:
        den, x, y, _ = self.ints
        return (F(x, den), F(y, den))

    @property
    def k(self) -> int:
        return self.ints[3]


def _lattice_of_ints(den: int, x: int, y: int, k: int) -> LatticeElem:
    """(x, y) / den t^k after gcd normalization; den > 0 is the caller's."""
    g = gcd(den, x, y)
    if g != 1:
        den, x, y = den // g, x // g, y // g
    out = object.__new__(LatticeElem)
    object.__setattr__(out, "ints", (den, x, y, k))
    return out


def lattice_mul(desc: LatticeByZ, g1: LatticeElem, g2: LatticeElem) -> LatticeElem:
    # v1 + M^k1 v2
    d1, x1, y1, k1 = g1.ints
    d2, x2, y2, k2 = g2.ints
    n, a, b, c, d = desc._powers[k1]
    scale = n * d2
    return _lattice_of_ints(
        d1 * scale,
        x1 * scale + d1 * (a * x2 + b * y2),
        y1 * scale + d1 * (c * x2 + d * y2),
        k1 + k2,
    )


def lattice_inv(desc: LatticeByZ, g: LatticeElem) -> LatticeElem:
    # -M^-k v
    den, x, y, k = g.ints
    n, a, b, c, d = desc._powers[-k]
    return _lattice_of_ints(n * den, -(a * x + b * y), -(c * x + d * y), -k)


def lattice_of_word(desc: LatticeByZ, w: Word) -> LatticeElem:
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
    return _lattice_of_ints(den, x, y, k)


LATTICE_IDENTITY = _lattice_of_ints(1, 0, 0, 0)


# --- Klein bottle group and its ascending HNN extensions --------------------


@dataclass(frozen=True)
class KbElem:
    """x^a y^b in <x, y | x y x^-1 = y^-1>."""

    a: int
    b: int


KB_IDENTITY = KbElem(0, 0)


def kb_mul(g1: KbElem, g2: KbElem) -> KbElem:
    sign = -1 if g2.a % 2 else 1
    return KbElem(g1.a + g2.a, sign * g1.b + g2.b)


def kb_inv(g: KbElem) -> KbElem:
    sign = -1 if g.a % 2 else 1
    return KbElem(-g.a, -sign * g.b)


@dataclass(frozen=True)
class BrittonElem:
    """s^-i g s^j, reduced: i, j > 0 only when g is outside im(phi)."""

    i: int
    g: KbElem
    j: int


def hnnkb_reduce(desc: AscHNNKb, i: int, g: KbElem, j: int) -> BrittonElem:
    # s^-1 h s = phi^-1(h) for h in im(phi), one s pair per step.  A step maps
    # x^a y^b to x^(a/e) y^((b - c)/d) with c = f (a mod 2), the same at every
    # step as e is odd.  With B = (d - 1) b + c, the b after n steps is
    # (B/d^n - c)/(d - 1), an integer exactly when d^n divides B, so the
    # steps number min(i, j, v_e(a), v_d(B)), a valuation counted only when
    # |e| > 1 and a != 0, or |d| > 1 and B != 0.  |d| = 1 gives b - n c
    # (d = 1) or period 2 (d = -1).
    e, f, d = desc.e, desc.f, desc.d
    a, b = g.a, g.b
    c = f * (a & 1)
    n = min(i, j)
    if n <= 0 or a % e or (b - c) % d:  # not one step
        return BrittonElem(i, g, j)
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
    return BrittonElem(i - n, KbElem(a and a // e**n, b), j - n)


HNNKB_IDENTITY = BrittonElem(0, KB_IDENTITY, 0)


def _iterate_apply(phi: AscHNNKb, k: int, g: KbElem) -> KbElem:
    """phi^k(g) for k >= 0, with only the powers that g needs, each within
    MAX_POWER_BITS: phi(x^a y^b) = (x^e y^f)^a y^(d b) = x^(e a)
    y^(f (a mod 2) + d b), as e odd gives (x^e y^f)^2 = x^(2e), so by
    induction phi^k(x) = x^(e^k) y^(f (1 + d + ... + d^(k-1))) and
    phi^k(y) = y^(d^k)."""
    if not k:
        return g
    e, f, d = phi.e, phi.f, phi.d
    twist = f and g.a & 1
    dk = bounded_pow(d, k) if g.b or (twist and d != 1) else 1
    b = g.b * dk
    if twist:
        b += f * (k if d == 1 else (dk - 1) // (d - 1))
    return KbElem(g.a and g.a * bounded_pow(e, k), b)


def hnnkb_mul(desc: AscHNNKb, g1: BrittonElem, g2: BrittonElem) -> BrittonElem:
    if g1.j >= g2.i:
        shift = g1.j - g2.i
        base = kb_mul(g1.g, _iterate_apply(desc, shift, g2.g))
        return hnnkb_reduce(desc, g1.i, base, shift + g2.j)
    shift = g2.i - g1.j
    base = kb_mul(_iterate_apply(desc, shift, g1.g), g2.g)
    return hnnkb_reduce(desc, g1.i + shift, base, g2.j)


def hnnkb_inv(desc: AscHNNKb, g: BrittonElem) -> BrittonElem:
    return hnnkb_reduce(desc, g.j, kb_inv(g.g), g.i)


def hnnkb_of_word(desc: AscHNNKb, w: Word) -> BrittonElem:
    out = HNNKB_IDENTITY
    for g, e in w.syllables:
        if g == "x":
            step = BrittonElem(0, KbElem(e, 0), 0)
        elif g == "y":
            step = BrittonElem(0, KbElem(0, e), 0)
        elif g == "s":
            step = BrittonElem(-e, KB_IDENTITY, 0) if e < 0 else BrittonElem(0, KB_IDENTITY, e)
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


def affine_of_word(desc: AffineQ2, w: Word) -> AffineMap2:
    powers = desc._powers
    out = None
    for g, e in w.syllables:
        if g not in powers:
            raise ValueError(f"unknown generator {g!r}")
        out = powers[g][e] if out is None else affine_compose(out, powers[g][e])
    return _AFFINE_IDENTITY if out is None else out


# --- display and defining relations -------------------------------------------


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


def _hnnkb_format(g: BrittonElem) -> str:
    core = _syllables(("x", g.g.a), ("y", g.g.b))
    parts = []
    if g.i:
        parts.append(f"s^-{g.i}")
    if core != "1":
        parts.append(core)
    if g.j:
        parts.append(f"s^{g.j}")
    return " ".join(parts) if parts else "1"


def _affine_format(g: AffineMap2) -> str:
    tx, ty = g.translation
    return (
        f"linear [{_mat_values(g.linear)}], "
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
    for gname, gmap in desc.generators:
        tx, ty = gmap.translation
        out.append((f"gen.{gname}.linear", _mat_values(gmap.linear)))
        out.append((f"gen.{gname}.translation", f"{format_rational(tx)} {format_rational(ty)}"))
    return out


def _affine_parse(take) -> AffineQ2:
    names = take("generators", "names")
    maps = {}
    for gname in dict.fromkeys(names):  # each key is taken once; AffineQ2 refuses repeats
        lin = take(f"gen.{gname}.linear", "matrix")
        tr = take(f"gen.{gname}.translation", "vector")
        maps[gname] = AffineMap2(Mat2Q.of(*lin), (tr[0], tr[1]))
    return AffineQ2(tuple((gname, maps[gname]) for gname in names))


def _relation(lhs: Word, rhs: Word) -> tuple[str, Word]:
    return (f"{format_word(lhs)} = {format_word(rhs)}", lhs * rhs.inv())


def _rankone_names(desc: RankOneQ) -> tuple[str, ...]:
    return tuple(f"g{i + 1}" for i in range(len(desc.generators)))


def _rankone_relations(desc: RankOneQ) -> list[tuple[str, Word]]:
    names = _rankone_names(desc)
    out = []
    for i, gi in enumerate(names):
        for gj in names[i + 1 :]:
            lhs = Word.gen(gi) * Word.gen(gj)
            out.append(_relation(lhs, Word.gen(gj) * Word.gen(gi)))
    return out


def _bsbar_relations(desc: BSbar) -> list[tuple[str, Word]]:
    a, t = Word.gen("a"), Word.gen("t")
    conj = t * a * t.inv()
    return [
        _relation(t * a**desc.m * t.inv(), a**desc.n),
        (f"[a, {format_word(conj)}] = 1", commutator(a, conj)),
    ]


# The twist relation spells [u, t]^k out letter by letter, 4k letters for the
# twist denominator k; past this bound the relator is refused unbuilt.
MAX_TWIST_LETTERS = 10_000


def _meta_relations(desc: MetabelianH31) -> list[tuple[str, Word]]:
    a, t, u = Word.gen("a"), Word.gen("t"), Word.gen("u")
    twist = desc.e * desc.t_ratio
    k = twist.denominator
    if 4 * k > MAX_TWIST_LETTERS:
        raise InputError(
            f"the twist relator [u, t]^{k} would have {4 * k} letters, "
            f"over the bound of {MAX_TWIST_LETTERS}"
        )
    power = int(twist * k)
    conj_t = t * a * t.inv()
    conj_u = u * a * u.inv()
    return [
        _relation(t * a**desc.m * t.inv(), a**desc.n),
        _relation(u * a**desc.p * u.inv(), a**desc.q),
        (f"[u, t]^{k} = a^{power}", commutator(u, t) ** k * a ** (-power)),
        (f"[a, {format_word(conj_t)}] = 1", commutator(a, conj_t)),
        (f"[a, {format_word(conj_u)}] = 1", commutator(a, conj_u)),
        (
            f"[{format_word(conj_t)}, {format_word(conj_u)}] = 1",
            commutator(conj_t, conj_u),
        ),
    ]


def _lattice_relations(desc: LatticeByZ) -> list[tuple[str, Word]]:
    a, b, t = Word.gen("a"), Word.gen("b"), Word.gen("t")
    m = desc.matrix
    out = [("[a, b] = 1", commutator(a, b))]
    for gen_word, col in ((a, (m.a, m.c)), (b, (m.b, m.d))):
        dens = (col[0].denominator, col[1].denominator)
        k = dens[0] * dens[1] // gcd(dens[0], dens[1])
        x, y = int(col[0] * k), int(col[1] * k)
        lhs = t * gen_word**k * t.inv()
        out.append(_relation(lhs, a**x * b**y))
    return out


def _hnnkb_relations(desc: AscHNNKb) -> list[tuple[str, Word]]:
    x, y, s = Word.gen("x"), Word.gen("y"), Word.gen("s")
    return [
        _relation(x * y * x.inv(), y**-1),
        _relation(s * x * s.inv(), x**desc.e * y**desc.f),
        _relation(s * y * s.inv(), y**desc.d),
    ]


# --- the family table ---------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """Everything one family of descriptors needs outside classification and
    the verifier's oracles.

    `identity` is an element, not a function.  `mul`, `inv` and `of_word`
    take the descriptor first.  `parse(take)` builds a descriptor from
    `take(key, kind)`, the value of a descriptor-file key read as kind
    "int", "rational", "rationals", "matrix" (four rationals), "vector" (two
    rationals) or "names".  `fields(desc)` lists the descriptor's (key,
    value) file lines in file order.  `relations` gives relator words, with
    display labels, that hold in the element model; affine descriptors have
    none here and take theirs from a presentation.
    """

    tag: str
    generator_names: Callable[[Any], tuple[str, ...]]
    identity: Any
    mul: Callable[[Any, Any, Any], Any]
    inv: Callable[[Any, Any], Any]
    of_word: Callable[[Any, Word], Any]
    parse: Callable[[Callable[[str, str], Any]], Any]
    fields: Callable[[Any], list[tuple[str, str]]]
    describe: Callable[[Any], str]
    format_element: Callable[[Any], str]
    relations: Callable[[Any], list[tuple[str, Word]]]


FAMILIES: dict[type, Family] = {
    BSbar: Family(
        tag="bsbar",
        generator_names=lambda d: ("a", "t"),
        identity=META_IDENTITY,
        mul=lambda d, g1, g2: meta_mul(d._meta, g1, g2),
        inv=lambda d, g: meta_inv(d._meta, g),
        of_word=lambda d, w: meta_of_word(d._meta, w, "a, t"),
        parse=lambda take: BSbar(*[take(k, "int") for k in "mn"]),
        fields=lambda d: _int_fields(d, "mn"),
        describe=lambda d: f"BSbar(m={d.m}, n={d.n})",
        format_element=lambda g: _syllables(("a", g.x), ("t", g.i)),
        relations=_bsbar_relations,
    ),
    MetabelianH31: Family(
        tag="metabelian_h31",
        generator_names=lambda d: ("a", "t", "u"),
        identity=META_IDENTITY,
        mul=meta_mul,
        inv=meta_inv,
        of_word=meta_of_word,
        parse=lambda take: MetabelianH31(
            *[take(k, "int") for k in "mnpq"], take("e", "rational")
        ),
        fields=lambda d: _int_fields(d, "mnpq") + [("e", format_rational(d.e))],
        describe=lambda d: (
            f"MetabelianH31(m={d.m}, n={d.n}, p={d.p}, q={d.q}, "
            f"e={format_rational(d.e)})"
        ),
        format_element=lambda g: _syllables(("a", g.x), ("t", g.i), ("u", g.j)),
        relations=_meta_relations,
    ),
    LatticeByZ: Family(
        tag="lattice_by_z",
        generator_names=lambda d: ("a", "b", "t"),
        identity=LATTICE_IDENTITY,
        mul=lattice_mul,
        inv=lattice_inv,
        of_word=lattice_of_word,
        parse=lambda take: LatticeByZ(Mat2Q.of(*take("matrix", "matrix"))),
        fields=lambda d: [("matrix", _mat_values(d.matrix))],
        describe=_lattice_describe,
        format_element=lambda g: _syllables(("a", g.v[0]), ("b", g.v[1]), ("t", g.k)),
        relations=_lattice_relations,
    ),
    AscHNNKb: Family(
        tag="asc_hnn_kb",
        generator_names=lambda d: ("x", "y", "s"),
        identity=HNNKB_IDENTITY,
        mul=hnnkb_mul,
        inv=hnnkb_inv,
        of_word=hnnkb_of_word,
        parse=lambda take: AscHNNKb(*[take(k, "int") for k in "efd"]),
        fields=lambda d: _int_fields(d, "efd"),
        describe=lambda d: f"AscHNNKb(e={d.e}, f={d.f}, d={d.d})",
        format_element=_hnnkb_format,
        relations=_hnnkb_relations,
    ),
    RankOneQ: Family(
        tag="rank_one_q",
        generator_names=_rankone_names,
        identity=F(0),
        mul=lambda d, g1, g2: g1 + g2,
        inv=lambda d, g: -g,
        of_word=rankone_of_word,
        parse=lambda take: RankOneQ(tuple(take("generators", "rationals"))),
        fields=lambda d: [("generators", " ".join(map(format_rational, d.generators)))],
        describe=lambda d: f"RankOneQ({', '.join(map(format_rational, d.generators))})",
        format_element=format_rational,
        relations=_rankone_relations,
    ),
    AffineQ2: Family(
        tag="affine_q2",
        generator_names=lambda d: d.names,
        identity=_AFFINE_IDENTITY,
        mul=lambda d, f, g: affine_compose(f, g),
        inv=lambda d, f: affine_inverse(f),
        of_word=affine_of_word,
        parse=_affine_parse,
        fields=_affine_fields,
        describe=lambda d: f"AffineQ2({', '.join(d.names)})",
        format_element=_affine_format,
        relations=lambda d: [],
    ),
}

FAMILY_BY_TAG: dict[str, Family] = {fam.tag: fam for fam in FAMILIES.values()}


def family_of(desc: GroupDescriptor) -> Family:
    try:
        return FAMILIES[type(desc)]
    except KeyError:
        raise TypeError(f"unknown descriptor {desc!r}") from None


@dataclass(frozen=True)
class DescriptorFile:
    descriptor: GroupDescriptor
    name: Optional[str] = None
    notes: Optional[str] = None
    presentation: Optional[Presentation] = None


# --- uniform interface ------------------------------------------------------


class GroupOps:
    """Uniform element algebra for one descriptor.

    Elements are the family's immutable normal forms; `of_word` evaluates a
    free word on the family's named generators.
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

    def is_identity(self, g) -> bool:
        return g == self.identity()

    def word_eq(self, w1: Word, w2: Word) -> bool:
        return self.of_word(w1) == self.of_word(w2)


def ops_for(desc: GroupDescriptor) -> GroupOps:
    return GroupOps(desc)
