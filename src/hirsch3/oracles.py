"""Independent word oracles, and the Klein-bottle coset enumeration.

Each family's oracle evaluates a word syllable by syllable in a faithful
representation of the group, on unnormalized integers that are exact up to
one common scalar.  Every value is a 1-D affine map x -> (p x + q) / r as
(p, q, r), a 2-D affine map v -> ([[a, b], [c, d]] v + (x, y)) / s as
(a, b, c, d, x, y, s), or a rank-one integer sum:

  BSbar          a 1-D map, with the t-exponent sum
  MetabelianH31  the same, with the t- and u-exponent sums; when
                 r1 = r2 = 1 and e != 0, the Heisenberg group, the 2-D map
                 (x, y) -> (x + i y + z, y + j) of the triple (i, j, z)
  LatticeByZ     (k, X, Y, S): the word is t^k after the translation
                 (X, Y) / S, with M^k a translation-free 2-D map
  AscHNNKb       two 1-D maps, one per coordinate, with the s-exponent sum
  AffineQ2       a 2-D map
  RankOneQ       one integer over the generators' common denominator

Products are plain integer products with no gcd, so a value carries every
common factor its word produced.  `oracle_word_eq` evaluates both words in
full and compares them once, by cross-multiplication.  Nothing here shares
arithmetic with the gcd-normalized element algebra of `families`, reads a
private attribute, or imports `rationals`; `tests/test_oracles.py` checks.

The size budget is that of reduced fractions.  Before a syllable g^k,
|k| times the largest size of g's reduced coefficients may not pass
`max_bits` (for LatticeByZ: |k| times that of the acting matrix, at each
t syllable).  After each syllable, the sizes of the value's coordinates in
lowest terms, numerator plus denominator bit length each, may not sum past
`max_bits`.  Unreduced bit lengths bound that sum from above, so only when
they pass `max_bits` is the value divided by its gcd and the exact sum
taken.  A word over budget raises `VerifyResourceError`.

`endo_index` counts the cosets of the image of an `AscHNNKb`'s Klein-bottle
endomorphism with its own product and image membership on (a, b) pairs,
testing each cell only against the coset that a closed form names.  It
sizes its own grid, (2|e| + 2)(|d| + 2) cells, which holds one element of
every coset, so the count it returns is the index or, for a wrong closed
form, more; a grid past `MAX_COSET_CELLS` is refused with an `InputError`.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import TYPE_CHECKING, Callable

from . import InputError
from .families import (
    AffineQ2,
    AscHNNKb,
    BSbar,
    LatticeByZ,
    MetabelianH31,
    RankOneQ,
    family_of,
)

if TYPE_CHECKING:
    from .families import GroupDescriptor
    from .words import Word

__all__ = ["VerifyResourceError", "oracle_word_eq", "endo_index"]


class VerifyResourceError(RuntimeError):
    """The size budget ran out before the oracle reached a verdict.
    Distinct from a negative verdict."""


_DEFAULT_MAX_BITS = 1 << 17

# Powers of generators and matrices, shared by every word evaluated.
_POW_CACHE = 4096
# Per-descriptor generator tables.
_GEN_CACHE = 256


def _over_budget() -> VerifyResourceError:
    return VerifyResourceError("word evaluation exceeded the size budget")


def _fraction_bits(num: int, den: int) -> int:
    """Numerator plus denominator bit length of num / den in lowest terms."""
    g = gcd(num, den)
    return (num // g).bit_length() + (den // g).bit_length()


def _reduced(
    nums: tuple[int, ...], den: int, max_bits: int
) -> tuple[tuple[int, ...], int]:
    """nums / den divided through by their gcd.  Raises when the fractions
    nums[i] / den in lowest terms are together larger than max_bits."""
    g = gcd(den, *nums)
    nums, den = tuple(x // g for x in nums), den // g
    if sum(_fraction_bits(x, den) for x in nums) > max_bits:
        raise _over_budget()
    return nums, den


# --- one-dimensional affine maps ---------------------------------------------

# x -> (p x + q) / r as (p, q, r), and the size of the reduced scale p / r,
# which bounds the pre-check of a generator's powers
_Aff1Gen = tuple[int, int, int, int]


def _aff1_gen(scale_num: int, scale_den: int, off_num: int, off_den: int) -> _Aff1Gen:
    """x -> scale x + offset, for scale and offset given as fractions."""
    p, q, r = scale_num * off_den, off_num * scale_den, scale_den * off_den
    g = gcd(p, q, r)
    return (p // g, q // g, r // g, max(_fraction_bits(scale_num, scale_den), 1))


@lru_cache(maxsize=_POW_CACHE)
def _aff1_pow(p: int, q: int, r: int, k: int) -> tuple[int, int, int]:
    """(x -> (p x + q) / r) composed with itself k times."""
    if k < 0:
        p, q, r, k = r, -q, p, -k
    # the offset is q / r times the geometric sum of (p / r)^i, i < k
    pk, rk = p**k, r**k
    geom = (pk - rk) // (p - r) if p != r else k * r ** (k - 1)
    return (pk, q * geom, rk)


def _aff1_word(gens: dict[str, _Aff1Gen], w: Word, max_bits: int) -> tuple[int, int, int]:
    p, q, r = 1, 0, 1
    for name, exp in w.syllables:
        gp, gq, gr, bits = gens[name]
        if abs(exp) * bits > max_bits:
            raise _over_budget()
        if exp != 1:
            gp, gq, gr = _aff1_pow(gp, gq, gr, exp)
        # the map so far, applied after this syllable's
        p, q, r = p * gp, p * gq + q * gr, r * gr
        if p.bit_length() + q.bit_length() + 2 * r.bit_length() > max_bits:
            (p, q), r = _reduced((p, q), r, max_bits)
    return p, q, r


_SHIFT = _aff1_gen(1, 1, 1, 1)

# An oracle's value: exact integers, and affine maps as integer tuples over
# their last entry.  Two values are equal when the integers are and each
# pair of maps is proportional.
_Value = tuple[object, tuple[tuple[int, ...], ...]]


@lru_cache(maxsize=_GEN_CACHE)
def _bsbar_gens(desc: BSbar) -> dict[str, _Aff1Gen]:
    return {"a": _SHIFT, "t": _aff1_gen(desc.n, desc.m, 0, 1)}


def _bsbar_value(desc: BSbar, w: Word, max_bits: int) -> _Value:
    return w.exponent_sum("t"), (_aff1_word(_bsbar_gens(desc), w, max_bits),)


@lru_cache(maxsize=_GEN_CACHE)
def _hnnkb_gens(desc: AscHNNKb) -> tuple[dict[str, _Aff1Gen], ...]:
    # all three generators have diagonal linear parts, so the coordinates
    # evolve as independent 1-D affine maps
    first = {
        "x": _aff1_gen(1, 1, 1, 2),
        "y": _aff1_gen(1, 1, 0, 1),
        "s": _aff1_gen(desc.e, 1, 0, 1),
    }
    second = {
        "x": _aff1_gen(-1, 1, 0, 1),
        "y": _SHIFT,
        "s": _aff1_gen(desc.d, 1, -desc.f, 2),
    }
    return first, second


def _hnnkb_value(desc: AscHNNKb, w: Word, max_bits: int) -> _Value:
    first, second = _hnnkb_gens(desc)
    maps = (_aff1_word(first, w, max_bits), _aff1_word(second, w, max_bits))
    return w.exponent_sum("s"), maps


# --- two-dimensional affine maps ---------------------------------------------

# v -> ([[a, b], [c, d]] v + (x, y)) / s as (a, b, c, d, x, y, s)
_Aff6 = tuple[int, int, int, int, int, int, int]
# a map, and the largest size of its reduced coefficients, which bounds the
# pre-check of its powers
_Aff6Gen = tuple[_Aff6, int]
_AFF6_ID = (1, 0, 0, 1, 0, 0, 1)


def _aff6_gen(a: int, b: int, c: int, d: int, x: int, y: int, s: int) -> _Aff6Gen:
    bits = max(_fraction_bits(v, s) for v in (a, b, c, d, x, y))
    return (a, b, c, d, x, y, s), max(bits, 1)


def _aff6_mul(f: _Aff6, g: _Aff6) -> _Aff6:
    """f after g."""
    fa, fb, fc, fd, fx, fy, fs = f
    ga, gb, gc, gd, gx, gy, gs = g
    return (
        fa * ga + fb * gc,
        fa * gb + fb * gd,
        fc * ga + fd * gc,
        fc * gb + fd * gd,
        fa * gx + fb * gy + fx * gs,
        fc * gx + fd * gy + fy * gs,
        fs * gs,
    )


@lru_cache(maxsize=_POW_CACHE)
def _aff6_pow(f: _Aff6, k: int) -> _Aff6:
    """f composed with itself k times, by repeated squaring."""
    if k < 0:
        # (A v + t) / s inverts to (s adj(A) w - adj(A) t) / det(A)
        a, b, c, d, x, y, s = f
        f, k = (s * d, -s * b, -s * c, s * a, b * y - d * x, c * x - a * y, a * d - b * c), -k
    out = _AFF6_ID
    while k:
        if k & 1:
            out = _aff6_mul(out, f)
        k >>= 1
        if k:
            f = _aff6_mul(f, f)
    return out


def _aff6_word(gens: dict[str, _Aff6Gen], w: Word, max_bits: int) -> _Aff6:
    a, b, c, d, x, y, s = _AFF6_ID
    for name, exp in w.syllables:
        g, bits = gens[name]
        if abs(exp) * bits > max_bits:
            raise _over_budget()
        if exp != 1:
            g = _aff6_pow(g, exp)
        a, b, c, d, x, y, s = _aff6_mul((a, b, c, d, x, y, s), g)
        size = (
            a.bit_length() + b.bit_length() + c.bit_length() + d.bit_length()
            + x.bit_length() + y.bit_length() + 6 * s.bit_length()
        )
        if size > max_bits:
            (a, b, c, d, x, y), s = _reduced((a, b, c, d, x, y), s, max_bits)
    return a, b, c, d, x, y, s


@lru_cache(maxsize=_GEN_CACHE)
def _affine_gens(desc: AffineQ2) -> dict[str, _Aff6Gen]:
    return {
        name: _aff6_gen(a, b, c, d, x, y, den) for name, (den, a, b, c, d, x, y) in desc.generators
    }


def _affine_value(desc: AffineQ2, w: Word, max_bits: int) -> _Value:
    return (), (_aff6_word(_affine_gens(desc), w, max_bits),)


# --- MetabelianH31 -----------------------------------------------------------


@lru_cache(maxsize=_GEN_CACHE)
def _meta_gens(desc: MetabelianH31) -> tuple[Callable, dict]:
    """The word loop and the generators it reads: 1-D maps, or 2-D maps in
    the Heisenberg case r1 = r2 = 1 and e != 0.  r1 = n / m is 1 exactly
    when n == m, as m and n are coprime; so for r2."""
    m, n, p, q = desc.m, desc.n, desc.p, desc.q
    en, ed = desc.e.numerator, desc.e.denominator
    if n == m and q == p and en:
        # the triple (i, j, z) acts as (x, y) -> (x + i y + z, y + j): t is
        # (1, 0, 0), u is (0, 1, 0) and a is (0, 0, -1/e), the 1/e-th root
        # of the central commutator
        z = abs(en)
        return _aff6_word, {
            "t": _aff6_gen(1, 1, 0, 1, 0, 0, 1),
            "u": _aff6_gen(1, 0, 0, 1, 0, 1, 1),
            "a": _aff6_gen(z, 0, 0, z, -ed if en > 0 else ed, 0, z),
        }
    t_off = u_off = (0, 1)
    if q != p:
        # tau = r1 e / (r2 - 1)
        t_off = (n * en * p, m * ed * (q - p))
    elif n != m:
        # upsilon = r1 e / (1 - r1)
        u_off = (n * en, ed * (m - n))
    return _aff1_word, {"a": _SHIFT, "t": _aff1_gen(n, m, *t_off), "u": _aff1_gen(q, p, *u_off)}


def _meta_value(desc: MetabelianH31, w: Word, max_bits: int) -> _Value:
    # in the Heisenberg case the sums are the map's entries i and j
    word, gens = _meta_gens(desc)
    sums = (w.exponent_sum("t"), w.exponent_sum("u"))
    return sums, (word(gens, w, max_bits),)


# --- LatticeByZ --------------------------------------------------------------


@lru_cache(maxsize=_GEN_CACHE)
def _lattice_gens(desc: LatticeByZ) -> _Aff6Gen:
    """The acting matrix as a translation-free map over its entries' common
    denominator."""
    entries = desc.matrix.entries()
    s = lcm(*(x.denominator for x in entries))
    a, b, c, d = (x.numerator * (s // x.denominator) for x in entries)
    return _aff6_gen(a, b, c, d, 0, 0, s)


def _lattice_value(desc: LatticeByZ, w: Word, max_bits: int) -> _Value:
    # the linear part of any product is a power of the acting matrix, so
    # the value is one exponent and one translation vector
    mat, mat_bits = _lattice_gens(desc)
    k, x, y, s = 0, 0, 0, 1
    power: _Aff6 | None = _AFF6_ID
    for name, exp in w.syllables:
        if name == "t":
            k += exp
            if abs(k) * mat_bits > max_bits:
                raise _over_budget()
            power = None
            continue
        if name not in ("a", "b"):
            raise KeyError(name)
        if power is None:
            power = _aff6_pow(mat, k)
        pa, pb, pc, pd, _, _, ps = power
        # M^k applied to exp times the first or the second basis vector
        sx, sy = (pa * exp, pc * exp) if name == "a" else (pb * exp, pd * exp)
        x, y, s = x * ps + sx * s, y * ps + sy * s, s * ps
        if x.bit_length() + y.bit_length() + 2 * s.bit_length() > max_bits:
            (x, y), s = _reduced((x, y), s, max_bits)
    return k, ((x, y, s),)


# --- RankOneQ ----------------------------------------------------------------


@lru_cache(maxsize=_GEN_CACHE)
def _rank_one_gens(desc: RankOneQ) -> tuple[dict[str, int], int]:
    """Each generator's numerator over the common denominator."""
    den = lcm(*(g.denominator for g in desc.generators))
    nums = (g.numerator * (den // g.denominator) for g in desc.generators)
    return dict(zip(family_of(desc).generator_names(desc), nums)), den


def _rank_one_value(desc: RankOneQ, w: Word, max_bits: int) -> _Value:
    nums, den = _rank_one_gens(desc)
    total = sum(nums[name] * exp for name, exp in w.syllables)
    if total.bit_length() + den.bit_length() > max_bits:
        _reduced((total,), den, max_bits)
    return total, ()


# --- dispatch ----------------------------------------------------------------

_ORACLES: dict[type, Callable[[object, Word, int], _Value]] = {
    BSbar: _bsbar_value,
    MetabelianH31: _meta_value,
    LatticeByZ: _lattice_value,
    AscHNNKb: _hnnkb_value,
    RankOneQ: _rank_one_value,
    AffineQ2: _affine_value,
}


def _proportional(v1: tuple[int, ...], v2: tuple[int, ...]) -> bool:
    """Whether v1 / v1[-1] == v2 / v2[-1]."""
    d1, d2 = v1[-1], v2[-1]
    return all(x1 * d2 == x2 * d1 for x1, x2 in zip(v1, v2))


def oracle_word_eq(
    desc: GroupDescriptor,
    w1: Word,
    w2: Word,
    max_bits: int = _DEFAULT_MAX_BITS,
) -> bool:
    """Decide w1 = w2 by evaluating a faithful representation syllable by
    syllable, independently of the normal-form code.

    Raises VerifyResourceError when intermediate values outgrow max_bits,
    which is a resource verdict, not an inequality verdict.
    """
    family_of(desc)  # refuses an unknown descriptor
    value = _ORACLES[type(desc)]
    key1, maps1 = value(desc, w1, max_bits)
    key2, maps2 = value(desc, w2, max_bits)
    return key1 == key2 and all(map(_proportional, maps1, maps2))


# --- Klein bottle endomorphism index -----------------------------------------

# the most grid cells `endo_index` enumerates
MAX_COSET_CELLS = 1_000_000


def endo_index(phi: AscHNNKb) -> int:
    """Index of the image of phi by right-coset enumeration over the grid
    x^a y^b with 0 <= a < 2|e| + 2 and 0 <= b < |d| + 2, in
    <x, y | x y x^-1 = y^-1>.

    A cell g = x^a y^b joins the coset of the first cell h = x^c y^y with the
    same hint only if g h^-1 = x^(a - c) y^((-1)^c (b - y)) lies in the image
    phi(x^al y^be) = x^(e al) y^(f (al mod 2) + d be); else it is fresh.  The
    hint is the coset's element x^a0 y^b0, 0 <= a0 < |e|, 0 <= b0 < |d|,
    with phi(x^al y^be) x^a y^b = x^(e al + a) y^((-1)^a (f (al mod 2) +
    d be) + b) and al = (a0 - a)/e.  Every hint cell lies on the grid, and
    both parities of a // |e|, which the hint's twist reads, occur on it;
    so right hints count exactly |e d| cosets, and a wrong hint counts more.

    Raises InputError when the grid has more than MAX_COSET_CELLS cells.
    """
    e, f, d = phi.e, phi.f, phi.d
    ae, ad = abs(e), abs(d)
    rows, cols = 2 * ae + 2, ad + 2
    if rows * cols > MAX_COSET_CELLS:
        raise InputError(
            f"the coset enumeration grid would have {rows * cols} cells, "
            f"over the bound of {MAX_COSET_CELLS}"
        )
    first: dict[int, tuple[int, int]] = {}  # a0 |d| + b0 |-> the first cell with it
    count = 0
    for a in range(rows):
        row = (a % ae) * ad
        twist = f * ((a // ae) % 2)  # (a0 - a)/e has the parity of a // |e|
        if a % 2:
            twist = -twist
        for b in range(cols):
            c, y = first.setdefault(row + (b + twist) % ad, (a, b))
            if c != a or y != b:
                al, rem = divmod(a - c, e)
                if not rem and ((y - b if c % 2 else b - y) - f * (al % 2)) % d == 0:
                    continue
            count += 1
    return count
