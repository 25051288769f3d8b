"""Seeded inputs for the benchmark workloads.

Standard library only, and never imports hirsch3: the program under test
receives the descriptor files and words made here, so a change to the
program cannot change its own inputs.  Every generator takes a
``random.Random`` built by ``rng_for``; the same workload, seed and label
always give the same bytes.

Words are lists of syllables ``(generator, exponent)``.  Descriptor texts
follow the flat ``key = value`` format of the hirsch3 README.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from math import gcd
from typing import Optional

# Hirsch length of every member of a family, used as an independent check
# on the classify reports of generated descriptors.
FAMILY_HIRSCH = {
    "rank_one_q": 1,
    "bsbar": 2,
    "metabelian_h31": 3,
    "lattice_by_z": 3,
    "asc_hnn_kb": 3,
}

Syllables = list[tuple[str, int]]


def rng_for(workload: str, seed: int, label: str) -> random.Random:
    # string seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{label}")


@dataclass(frozen=True)
class Descriptor:
    family: str
    text: str
    generators: tuple[str, ...]
    relators: tuple[tuple[tuple[str, int], ...], ...]
    # name of the shipped fixture this one is an affine conjugate of
    conjugate_of: Optional[str] = None


# --- words --------------------------------------------------------------------


def reduce_word(pairs) -> Syllables:
    stack: list[list] = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return [(g, e) for g, e in stack]


def inverse(word) -> Syllables:
    return [(g, -e) for g, e in reversed(word)]


def letters(word) -> list[tuple[str, int]]:
    out = []
    for g, e in word:
        out.extend([(g, 1 if e > 0 else -1)] * abs(e))
    return out


def format_word(word) -> str:
    if not word:
        return "1"
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in word)


def random_word(rng: random.Random, gens, max_length: int) -> Syllables:
    length = rng.randint(0, max_length)
    return reduce_word((rng.choice(gens), rng.choice((1, -1))) for _ in range(length))


def insert_relators(rng: random.Random, word, desc: Descriptor) -> Syllables:
    """The word with one to three conjugated relators (or their inverses)
    inserted at random letter positions: equal to it in the group."""
    out = letters(word)
    for _ in range(rng.randint(1, 3)):
        relator = list(rng.choice(desc.relators))
        if rng.random() < 0.5:
            relator = inverse(relator)
        conj = random_word(rng, desc.generators, 4)
        piece = letters(conj + relator + inverse(conj))
        pos = rng.randint(0, len(out))
        out[pos:pos] = piece
    return reduce_word(out)


def parse_simple_word(text: str) -> Syllables:
    """Juxtaposed powers like ``v^-2 y^-1``; ``1`` is the empty word."""
    out = []
    for tok in text.split():
        if tok == "1":
            continue
        gen, _, exp = tok.partition("^")
        out.append((gen, int(exp) if exp else 1))
    return reduce_word(out)


def relators_of(relations: list[str]) -> tuple[tuple[tuple[str, int], ...], ...]:
    out = []
    for rel in relations:
        lhs, _, rhs = rel.partition("=")
        word = parse_simple_word(lhs) + inverse(parse_simple_word(rhs or "1"))
        out.append(tuple(reduce_word(word)))
    return tuple(out)


# --- rationals and matrices ---------------------------------------------------


def fmt_q(x: F) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_qs(xs) -> str:
    return " ".join(fmt_q(F(x)) for x in xs)


def mat_mul(a, b):
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def mat_inv(a):
    det = a[0] * a[3] - a[1] * a[2]
    return (a[3] / det, -a[1] / det, -a[2] / det, a[0] / det)


def mat_apply(a, v):
    return (a[0] * v[0] + a[1] * v[1], a[2] * v[0] + a[3] * v[1])


# --- the two affine fixtures, as data -------------------------------------------

# (name, linear part row major, translation) per generator, and relations;
# the same maps and presentations as the shipped fixtures.
AFFINE_FIXTURES = {
    "d_infty_amalgam": (
        (
            ("u", (1, 0, 0, -1), (F(1, 2), 0)),
            ("v", (2, -1, 3, -2), (0, -1)),
            ("y", (1, 0, 0, 1), (0, 1)),
        ),
        ["u y u^-1 = y^-1", "v y v^-1 = v^-2 y^-1", "v^2 = u^2 y"],
    ),
    "f_mod_kprime": (
        (
            ("u", (1, 0, 0, -1), (F(1, 2), 0)),
            ("v", (F(1, 3), F(2, 3), F(4, 3), F(-1, 3)), (0, F(3, 2))),
            ("x", (1, 0, 0, 1), (1, 0)),
            ("y", (1, 0, 0, 1), (0, 1)),
        ),
        ["u^2 = x", "u y u^-1 = y^-1", "v^2 = x y", "v y^3 v^-1 = x^2 y^-1"],
    ),
}


# generators and relators of the shipped fixtures, for long_words
FIXTURE_PRESENTATIONS = {
    name: (tuple(g for g, _, _ in gens), relators_of(relations))
    for name, (gens, relations) in AFFINE_FIXTURES.items()
}
FIXTURE_PRESENTATIONS.update(
    {
        "bs12_rtimes": (
            ("a", "t", "u"),
            relators_of(["t a t^-1 = a^2", "u a u^-1 = a^3", "u t u^-1 = t a"]),
        ),
        "z_plus_z2": (
            ("x", "y", "s"),
            relators_of(["x y x^-1 = y^-1", "s x s^-1 = x", "s y s^-1 = y^2"]),
        ),
        "bsbar_23": (("a", "t"), relators_of(["t a^2 t^-1 = a^3"])),
        "lattice_sol": (
            ("a", "b", "t"),
            relators_of(["a b a^-1 b^-1 = 1", "t a t^-1 = a^2 b", "t b t^-1 = a b"]),
        ),
        "lattice_asc": (
            ("a", "b", "t"),
            relators_of(["a b a^-1 b^-1 = 1", "t a t^-1 = b", "t b t^-1 = a^-2"]),
        ),
    }
)


def _presentation_text(gens, relations) -> str:
    return f"< {', '.join(gens)} | {', '.join(relations)} >"


def affine_conjugate(rng: random.Random, fixture: str) -> Descriptor:
    """P g P^-1 for every generator g of an affine fixture, with P a random
    rational affine map: an isomorphic group with the same presentation."""
    gens, relations = AFFINE_FIXTURES[fixture]
    while True:
        lin = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4))
        if lin[0] * lin[3] - lin[1] * lin[2] != 0:
            break
    shift = (F(rng.randint(-4, 4), rng.randint(1, 4)), F(rng.randint(-4, 4), rng.randint(1, 4)))
    inv = mat_inv(lin)
    names = [g for g, _, _ in gens]
    lines = ["family = affine_q2", f"generators = {' '.join(names)}"]
    for name, a, t in gens:
        a = tuple(F(x) for x in a)
        conj = mat_mul(mat_mul(lin, a), inv)
        moved = mat_apply(conj, shift)
        lt = mat_apply(lin, (F(t[0]), F(t[1])))
        trans = (lt[0] - moved[0] + shift[0], lt[1] - moved[1] + shift[1])
        lines.append(f"gen.{name}.linear = {fmt_qs(conj)}")
        lines.append(f"gen.{name}.translation = {fmt_qs(trans)}")
    lines.append(f"presentation = {_presentation_text(names, relations)}")
    return Descriptor(
        "affine_q2",
        "\n".join(lines) + "\n",
        tuple(names),
        relators_of(relations),
        conjugate_of=fixture,
    )


# --- the other families -------------------------------------------------------


def _coprime_pair(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    while True:
        m = rng.randint(1, hi)
        n = rng.choice((1, -1)) * rng.randint(lo, hi)
        if gcd(m, n) == 1:
            return m, n


def rank_one_q(rng: random.Random) -> Descriptor:
    vals = [
        F(rng.choice((1, -1)) * rng.randint(1, 12), rng.randint(1, 12))
        for _ in range(rng.randint(2, 3))
    ]
    gens = tuple(f"g{i + 1}" for i in range(len(vals)))
    rels = []
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            gi, gj = gens[i], gens[j]
            rels.append([(gi, 1), (gj, 1), (gi, -1), (gj, -1)])
            # gi^(pj qi) = gj^(pi qj) for gi = pi/qi, gj = pj/qj
            x = vals[j].numerator * vals[i].denominator
            y = vals[i].numerator * vals[j].denominator
            g = gcd(x, y)
            rels.append([(gi, x // g), (gj, -(y // g))])
    text = f"family = rank_one_q\ngenerators = {fmt_qs(vals)}\n"
    return Descriptor("rank_one_q", text, gens, tuple(tuple(r) for r in rels))


def bsbar(rng: random.Random, lo: int = 1, hi: int = 7) -> Descriptor:
    """Coprime m in [lo, hi] and n with |n| in [lo, hi]."""
    m, n = _coprime_pair(rng, lo, hi)
    while m < lo:
        m, n = _coprime_pair(rng, lo, hi)
    text = f"family = bsbar\nm = {m}\nn = {n}\n"
    rels = relators_of(
        [f"t a^{m} t^-1 = a^{n}", "a t a t^-1 a^-1 t a^-1 t^-1 = 1"]
    )
    return Descriptor("bsbar", text, ("a", "t"), rels)


def metabelian_h31(rng: random.Random) -> Descriptor:
    m, n = _coprime_pair(rng, 1, 6)
    p, q = _coprime_pair(rng, 1, 6)
    e = rng.randint(-3, 3)
    text = f"family = metabelian_h31\nm = {m}\nn = {n}\np = {p}\nq = {q}\ne = {e}\n"
    rels = relators_of(
        [
            f"t a^{m} t^-1 = a^{n}",
            f"u a^{p} u^-1 = a^{q}",
            f"u t u^-1 = t a^{e}",
        ]
    )
    return Descriptor("metabelian_h31", text, ("a", "t", "u"), rels)


def lattice_by_z(rng: random.Random) -> Descriptor:
    while True:
        den = rng.choice((1, 1, 1, 2))
        mat = tuple(F(rng.randint(-4, 4), den) for _ in range(4))
        if mat[0] * mat[3] - mat[1] * mat[2] != 0:
            break
    rels = ["a b a^-1 b^-1 = 1"]
    # column k of the matrix is the image of generator k under t
    for gen, col in (("a", (mat[0], mat[2])), ("b", (mat[1], mat[3]))):
        k = max(c.denominator for c in col)
        rels.append(f"t {gen}^{k} t^-1 = a^{int(col[0] * k)} b^{int(col[1] * k)}")
    text = f"family = lattice_by_z\nmatrix = {fmt_qs(mat)}\n"
    return Descriptor("lattice_by_z", text, ("a", "b", "t"), relators_of(rels))


def asc_hnn_kb(rng: random.Random) -> Descriptor:
    e = rng.choice((1, -1)) * rng.choice((1, 3, 5))
    f = rng.randint(-6, 6)
    d = rng.choice((1, -1)) * rng.randint(1, 5)
    text = f"family = asc_hnn_kb\ne = {e}\nf = {f}\nd = {d}\n"
    rels = relators_of(
        ["x y x^-1 = y^-1", f"s x s^-1 = x^{e} y^{f}", f"s y s^-1 = y^{d}"]
    )
    return Descriptor("asc_hnn_kb", text, ("x", "y", "s"), rels)


def affine_q2(rng: random.Random) -> Descriptor:
    return affine_conjugate(rng, rng.choice(sorted(AFFINE_FIXTURES)))


GENERATORS = {
    "rank_one_q": rank_one_q,
    "bsbar": bsbar,
    "metabelian_h31": metabelian_h31,
    "lattice_by_z": lattice_by_z,
    "asc_hnn_kb": asc_hnn_kb,
    "affine_q2": affine_q2,
}


# --- standard forms for the simplifier ----------------------------------------


@dataclass(frozen=True)
class StandardForm:
    m: int
    n: int
    p: int
    q: int
    c: int

    def line(self) -> str:
        return f"standard form: m={self.m} n={self.n} p={self.p} q={self.q} c={self.c}"


def _atom(i: int, j: int, k: int) -> Syllables:
    """t^i u^j a^k u^-j t^-i."""
    return [("t", i), ("u", j), ("a", k), ("u", -j), ("t", -i)]


def _zero_pair(rng: random.Random, r1: F, r2: F) -> Syllables:
    """Two conjugate atoms whose ratio-weighted exponents cancel."""
    while True:
        i1, j1, i2, j2 = (rng.randint(-2, 2) for _ in range(4))
        if (i1, j1) != (i2, j2):
            break
    ratio = (r1**i2 * r2**j2) / (r1**i1 * r2**j1)
    w = rng.randint(1, 2) * rng.choice((-1, 1))
    return _atom(i1, j1, w * ratio.numerator) + _atom(i2, j2, -w * ratio.denominator)


def standard_form(rng: random.Random) -> StandardForm:
    """Solvable parameters: m = 1 or |n| = 1 (no nonsolvable BS subgroup)."""
    while True:
        m, n = _coprime_pair(rng, 1, 5)
        p, q = _coprime_pair(rng, 1, 5)
        if m == 1 or abs(n) == 1:
            return StandardForm(m, n, p, q, rng.randint(-6, 6))


def expanded_presentation(rng: random.Random, sf: StandardForm, obfuscators: int) -> str:
    """The standard form's three relators, the commutator thickened by a
    zero-weight atom pair, plus redundant zero-weight relators."""
    r1, r2 = F(sf.n, sf.m), F(sf.q, sf.p)
    rel_t = [("t", 1), ("a", sf.m), ("t", -1), ("a", -sf.n)]
    rel_u = [("u", 1), ("a", sf.p), ("u", -1), ("a", -sf.q)]
    c_atoms = _atom(0, 0, sf.c) + _zero_pair(rng, r1, r2)
    rel_c = [("u", 1), ("t", 1), ("u", -1), ("t", -1)] + inverse(c_atoms)
    rels = [rel_t, rel_u, rel_c]
    rels += [_zero_pair(rng, r1, r2) for _ in range(obfuscators)]
    words = [format_word(reduce_word(r)) for r in rels]
    return _presentation_text(("a", "t", "u"), words) + "\n"
