"""Reduction of three-generator presentations to a commutator standard form.

The presentations handled here have generators a, t, u, two conjugation
relators t a^m t^-1 a^-n and u a^p u^-1 a^-q, one relator equating the
commutator [u, t] with a product of conjugates of a, and optionally some
redundant relators that are themselves products of conjugates of a.
`standardize` collapses such a presentation to the five integers
(m, n, p, q, c), where c is the exponent with [u, t] = a^c.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import InputError
from .words import Presentation, Word, commutator, format_presentation


class SimplifyError(InputError):
    """Input presentation falls outside the accepted fragment."""


class SolvabilityError(SimplifyError):
    """Recovered Baumslag-Solitar parameters admit a nonsolvable subgroup."""


GENS = ("a", "t", "u")

_COMMUTATOR_UT = commutator(Word.gen("u"), Word.gen("t"))


def _check_pair(x: int, y: int) -> None:
    if x == 0 or y == 0:
        raise SimplifyError("conjugation exponents must be nonzero")
    if gcd(x, y) != 1:
        raise SimplifyError(f"conjugation exponents {x}, {y} are not coprime")


@dataclass(frozen=True)
class ConjugateAtom:
    """The element b_{i,j}^k where b_{i,j} = t^i u^j a u^-j t^-i."""

    i: int
    j: int
    exponent: int


def atom_decomposition(w: Word) -> list[ConjugateAtom] | None:
    """Parse a reduced word as a product of conjugate atoms.

    Shells open with t letters, then u letters; nuclei are a-syllables.
    Adjacent atoms may share shell letters after free reduction, so the
    scan tracks the open t and u counts instead of matching brackets.
    Returns None when the word lies outside the fragment.
    """
    ts = 0
    us = 0
    atoms: list[ConjugateAtom] = []
    for sym, exp in w.syllables:
        if sym == "a":
            atoms.append(ConjugateAtom(ts, us, exp))
        elif sym == "u":
            us += exp
        elif sym == "t":
            if us != 0:
                return None
            ts += exp
        else:
            return None
    if ts != 0 or us != 0:
        return None
    return atoms


def _ratio_weight(atoms: list[ConjugateAtom], r1: Fraction, r2: Fraction) -> Fraction:
    total = Fraction(0)
    for atom in atoms:
        total += atom.exponent * r1**atom.i * r2**atom.j
    return total


@dataclass(frozen=True)
class StandardForm:
    """Presentation data < a, t, u | t a^m t^-1 = a^n, u a^p u^-1 = a^q, [u,t] = a^c >."""

    m: int
    n: int
    p: int
    q: int
    c: int

    def __post_init__(self) -> None:
        _check_pair(self.m, self.n)
        _check_pair(self.p, self.q)
        if self.m < 0 or self.p < 0:
            raise SimplifyError("left conjugation exponents are normalized positive")

    def presentation(self) -> Presentation:
        return expand_standard_form(self)

    def text(self) -> str:
        return format_presentation(self.presentation())


def _conjugation_data(r: Word) -> tuple[str, int, int] | None:
    """Match s a^mu s^-1 a^nu (s one of t, u), up to rotation and direction.

    Returns (s, m, n) for the relation s a^m s^-1 = a^n with m > 0, or None.
    """
    syl = list(r.syllables)
    if len(syl) != 4:
        return None
    if syl[0][0] == "a":
        syl = syl[1:] + syl[:1]
    (s1, e1), (a1, mu), (s2, e2), (a2, nu) = syl
    if a1 != "a" or a2 != "a" or s1 != s2 or s1 not in ("t", "u"):
        return None
    if e1 + e2 != 0 or abs(e1) != 1:
        return None
    if e1 == -1:
        mu, nu = -nu, -mu
    m, n = mu, -nu
    if m < 0:
        m, n = -m, -n
    if gcd(m, n) != 1:
        return None
    return s1, m, n


def standardize(pres: Presentation) -> StandardForm:
    """Collapse an accepted presentation to its StandardForm.

    The commutator relator [u,t] C^-1 contributes, for each atom b_{i,j}^k
    of C, the term k * (n/m)^i * (q/p)^j; their sum is the commutator
    exponent c and must be an integer.  Redundant relators must be atom
    products of total exponent zero and are dropped.
    """
    if set(pres.generators) != set(GENS):
        raise SimplifyError("expected exactly the generators a, t, u")

    conj: dict[str, tuple[int, int]] = {}
    rest: list[Word] = []
    for r in pres.relators:
        data = _conjugation_data(r)
        if data is not None and data[0] not in conj:
            conj[data[0]] = (data[1], data[2])
        else:
            rest.append(r)
    if "t" not in conj:
        raise SimplifyError("missing conjugation relator for t")
    if "u" not in conj:
        raise SimplifyError("missing conjugation relator for u")
    m, n = conj["t"]
    p, q = conj["u"]
    r1 = Fraction(n, m)
    r2 = Fraction(q, p)

    commutator_atoms: list[ConjugateAtom] | None = None
    for r in rest:
        if r.exponent_sum("t") != 0 or r.exponent_sum("u") != 0:
            raise SimplifyError("relator has nonzero weight in t or u")
        direct = atom_decomposition(r)
        if direct is not None:
            if _ratio_weight(direct, r1, r2) != 0:
                raise SimplifyError(
                    "redundant relator has nonzero total exponent"
                )
            continue
        as_comm = atom_decomposition(r.inv() * _COMMUTATOR_UT)
        if as_comm is None:
            raise SimplifyError(
                "relator is not a product of conjugate atoms (out of fragment)"
            )
        if commutator_atoms is not None:
            raise SimplifyError("multiple commutator relators")
        commutator_atoms = as_comm
    if commutator_atoms is None:
        raise SimplifyError("missing commutator relator")

    c = _ratio_weight(commutator_atoms, r1, r2)
    if c.denominator != 1:
        raise SimplifyError("commutator exponent is not an integer")

    if m != 1 and abs(n) != 1:
        raise SolvabilityError(
            f"parameters ({m},{n}) present a nonsolvable Baumslag-Solitar subgroup"
        )
    return StandardForm(m, n, p, q, int(c))


def expand_standard_form(sf: StandardForm) -> Presentation:
    """Regenerate the a,t,u-presentation of a StandardForm."""
    rel_t = Word.of((("t", 1), ("a", sf.m), ("t", -1), ("a", -sf.n)))
    rel_u = Word.of((("u", 1), ("a", sf.p), ("u", -1), ("a", -sf.q)))
    rel_c = _COMMUTATOR_UT * Word.gen("a", -sf.c)
    return Presentation(GENS, (rel_t, rel_u, rel_c))
