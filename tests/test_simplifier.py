"""Tests for the presentation simplifier."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hirsch3.families import META_IDENTITY, MetabelianH31, meta_of_word
from hirsch3.rationals import mult_rank, prime_factors
from hirsch3.simplify import (
    ConjugateAtom,
    SimplifyError,
    SolvabilityError,
    StandardForm,
    _check_pair,
    atom_decomposition,
    expand_standard_form,
    standardize,
)
from hirsch3.words import Presentation, Word, parse_presentation


def comm_ut() -> Word:
    return Word.of((("u", 1), ("t", 1), ("u", -1), ("t", -1)))


def atom_word(atom: ConjugateAtom) -> Word:
    """b_{i,j}^k = t^i u^j a^k u^-j t^-i."""
    return Word.of(
        (("t", atom.i), ("u", atom.j), ("a", atom.exponent), ("u", -atom.j), ("t", -atom.i))
    )


def atom_product_word(atoms: list[ConjugateAtom]) -> Word:
    w = Word.identity()
    for atom in atoms:
        w = w * atom_word(atom)
    return w


def pres_with(m, n, p, q, *rest: Word) -> Presentation:
    rel_t = Word.of((("t", 1), ("a", m), ("t", -1), ("a", -n)))
    rel_u = Word.of((("u", 1), ("a", p), ("u", -1), ("a", -q)))
    return Presentation(("a", "t", "u"), (rel_t, rel_u) + rest)


# --- exponent tables --------------------------------------------------------


def exponent_law(m: int, n: int, p: int, q: int, L: int):
    """Exponent table for conjugates of a within the window [-L, L]^2: the
    integer reference for the commutator exponent that `standardize` sums
    as fractions.

    Returns (N, table) where N = (mnpq)^L and table maps (i, j) to the
    integer e(i, j) = N * (n/m)^i * (q/p)^j.
    """
    _check_pair(m, n)
    _check_pair(p, q)
    if L < 0:
        raise SimplifyError("window size must be nonnegative")
    N = (m * n * p * q) ** L
    r1 = Fraction(n, m)
    r2 = Fraction(q, p)
    table: dict[tuple[int, int], int] = {}
    for i in range(-L, L + 1):
        for j in range(-L, L + 1):
            e = N * r1**i * r2**j
            if e.denominator != 1:
                raise SimplifyError(f"exponent e({i},{j}) is not an integer")
            table[(i, j)] = int(e)
    return N, table


def test_exponent_table_small_window():
    N, table = exponent_law(1, 2, 1, 3, 1)
    assert N == 6
    assert table[(1, 0)] == 12
    assert table[(-1, -1)] == 1
    assert table[(0, 0)] == N
    assert len(table) == 9


def test_exponent_table_trivial_window():
    assert exponent_law(1, 2, 1, 3, 0) == (1, {(0, 0): 1})


def test_exponent_table_recurrence():
    m, n, p, q, L = 2, 3, 1, 5, 2
    N, table = exponent_law(m, n, p, q, L)
    assert N == (m * n * p * q) ** L
    assert table[(0, 0)] == N
    for (i, j), e in table.items():
        if (i + 1, j) in table:
            assert Fraction(table[(i + 1, j)], e) == Fraction(n, m)
        if (i, j + 1) in table:
            assert Fraction(table[(i, j + 1)], e) == Fraction(q, p)


def test_exponent_table_rejects_bad_parameters():
    with pytest.raises(SimplifyError):
        exponent_law(2, 4, 1, 3, 1)
    with pytest.raises(SimplifyError):
        exponent_law(0, 1, 1, 3, 1)
    with pytest.raises(SimplifyError):
        exponent_law(1, 2, 1, 3, -1)


# --- atom words -------------------------------------------------------------


def test_atom_scan_inverts_products():
    rng = random.Random(7)
    for _ in range(200):
        atoms = [
            ConjugateAtom(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-3, 3))
            for _ in range(rng.randint(0, 5))
        ]
        word = atom_product_word(atoms)
        back = atom_decomposition(word)
        assert back is not None
        totals: dict[tuple[int, int], int] = {}
        for a in atoms:
            totals[(a.i, a.j)] = totals.get((a.i, a.j), 0) + a.exponent
        back_totals: dict[tuple[int, int], int] = {}
        for a in back:
            back_totals[(a.i, a.j)] = back_totals.get((a.i, a.j), 0) + a.exponent
        assert {k: v for k, v in totals.items() if v} == {
            k: v for k, v in back_totals.items() if v
        }


def test_atom_scan_shares_shells():
    word = atom_product_word([ConjugateAtom(1, 0, 2), ConjugateAtom(1, 1, 3)])
    assert word.syllables == (
        ("t", 1),
        ("a", 2),
        ("u", 1),
        ("a", 3),
        ("u", -1),
        ("t", -1),
    )
    assert atom_decomposition(word) == [
        ConjugateAtom(1, 0, 2),
        ConjugateAtom(1, 1, 3),
    ]


def test_atom_scan_rejects_crossed_shells():
    crossed = Word.of((("u", 1), ("t", 1), ("a", 1), ("t", -1), ("u", -1)))
    assert atom_decomposition(crossed) is None
    assert atom_decomposition(Word.of((("t", 1), ("a", 1)))) is None
    assert atom_decomposition(Word.of((("s", 1), ("a", 1), ("s", -1)))) is None


# --- standardize ------------------------------------------------------------


def test_standardize_recovers_plain_form():
    sf = StandardForm(1, 2, 1, 3, 1)
    assert standardize(sf.presentation()) == sf
    assert standardize(parse_presentation(sf.text())) == sf


def test_standard_form_text_is_stable():
    sf = StandardForm(1, 2, 1, 3, 1)
    assert sf.text() == "< a, t, u | t a t^-1 a^-2, u a u^-1 a^-3, u t u^-1 t^-1 a^-1 >"


def test_standardize_weighs_commutator_atoms():
    c_word = atom_product_word([ConjugateAtom(1, 0, 1), ConjugateAtom(0, 0, -2)])
    pres = pres_with(1, 2, 1, 3, comm_ut() * c_word.inv())
    assert standardize(pres) == StandardForm(1, 2, 1, 3, 0)


def test_standardize_drops_zero_weight_relator():
    c_word = atom_product_word([ConjugateAtom(1, 0, 1), ConjugateAtom(0, 0, -2)])
    extra = atom_product_word([ConjugateAtom(1, 1, 1), ConjugateAtom(0, 0, -6)])
    pres = pres_with(1, 2, 1, 3, comm_ut() * c_word.inv(), extra)
    assert standardize(pres) == StandardForm(1, 2, 1, 3, 0)


def test_standardize_rejects_nonzero_extra():
    extra = atom_product_word([ConjugateAtom(1, 0, 1)])
    pres = pres_with(1, 2, 1, 3, comm_ut(), extra)
    with pytest.raises(SimplifyError, match="nonzero total exponent"):
        standardize(pres)


def test_standardize_rejects_weighted_relator():
    pres = pres_with(1, 2, 1, 3, comm_ut(), Word.of((("t", 2), ("a", 1))))
    with pytest.raises(SimplifyError, match="weight"):
        standardize(pres)


def test_standardize_rejects_crossed_shells():
    crossed = Word.of(
        (("u", 1), ("t", 1), ("a", 1), ("t", -1), ("u", -1), ("a", -1))
    )
    pres = pres_with(1, 2, 1, 3, comm_ut(), crossed)
    with pytest.raises(SimplifyError, match="fragment"):
        standardize(pres)


def test_standardize_rejects_fractional_commutator_exponent():
    c_word = atom_product_word([ConjugateAtom(-1, 0, 1)])
    pres = pres_with(1, 2, 1, 3, comm_ut() * c_word.inv())
    with pytest.raises(SimplifyError, match="integer"):
        standardize(pres)


def test_standardize_solvability_post_check():
    pres = pres_with(2, 3, 1, 5, comm_ut())
    with pytest.raises(SolvabilityError):
        standardize(pres)


def test_standardize_requires_single_commutator():
    with pytest.raises(SimplifyError, match="missing commutator"):
        standardize(pres_with(1, 2, 1, 3))
    two = pres_with(
        1, 2, 1, 3, comm_ut() * Word.gen("a", -1), comm_ut() * Word.gen("a", -2)
    )
    with pytest.raises(SimplifyError, match="multiple commutator"):
        standardize(two)


def test_standardize_requires_both_conjugation_relators():
    rel_t = Word.of((("t", 1), ("a", 1), ("t", -1), ("a", -2)))
    pres = Presentation(("a", "t", "u"), (rel_t, comm_ut()))
    with pytest.raises(SimplifyError, match="conjugation relator for u"):
        standardize(pres)


def test_standardize_routes_duplicate_conjugation_to_extras():
    dup = Word.of((("t", 1), ("a", 1), ("t", -1), ("a", -2)))
    pres = pres_with(1, 2, 1, 3, comm_ut(), dup)
    assert standardize(pres) == StandardForm(1, 2, 1, 3, 0)


def _random_standard_form(rng: random.Random) -> StandardForm:
    if rng.random() < 0.5:
        m = 1
        n = rng.choice([2, 3, 4, 5, 6]) * rng.choice((-1, 1))
    else:
        m = rng.choice([2, 3, 4, 5])
        n = rng.choice((-1, 1))
    while True:
        p = rng.randint(1, 5)
        q = rng.randint(1, 5) * rng.choice((-1, 1))
        from math import gcd

        if gcd(p, q) == 1:
            break
    return StandardForm(m, n, p, q, rng.randint(-4, 4))


def _zero_pair(rng: random.Random, r1: Fraction, r2: Fraction) -> list[ConjugateAtom]:
    """Two atoms in the window [-2, 2]^2 whose ratio-weighted exponents
    cancel exactly."""
    while True:
        i1, j1, i2, j2 = (rng.randint(-2, 2) for _ in range(4))
        if (i1, j1) != (i2, j2):
            break
    ratio = (r1**i2 * r2**j2) / (r1**i1 * r2**j1)
    w = rng.randint(1, 2) * rng.choice((-1, 1))
    return [
        ConjugateAtom(i1, j1, w * ratio.numerator),
        ConjugateAtom(i2, j2, -w * ratio.denominator),
    ]


def expand_obfuscated(sf: StandardForm, obfuscators: int, rng: random.Random) -> Presentation:
    """`expand_standard_form(sf)` with `obfuscators` redundant relators
    appended, each a two-atom product of total exponent zero; with any, the
    commutator's right-hand side may also be thickened by a zero-weight atom
    pair."""
    if not obfuscators:
        return expand_standard_form(sf)
    r1, r2 = Fraction(sf.n, sf.m), Fraction(sf.q, sf.p)
    c_atoms = [ConjugateAtom(0, 0, sf.c)]
    if rng.random() < 0.5:
        c_atoms.extend(_zero_pair(rng, r1, r2))
    extras = [atom_product_word(_zero_pair(rng, r1, r2)) for _ in range(obfuscators)]
    rel_c = comm_ut() * atom_product_word(c_atoms).inv()
    return pres_with(sf.m, sf.n, sf.p, sf.q, rel_c, *extras)


def test_round_trip_with_obfuscation():
    rng = random.Random(20260819)
    for _ in range(100):
        sf = _random_standard_form(rng)
        pres = expand_obfuscated(sf, rng.randint(0, 3), rng)
        assert standardize(pres) == sf


def standard_form_to_descriptor(sf: StandardForm) -> MetabelianH31:
    """Descriptor of the same group: the twist e satisfies [u,t] = a^{e n/m}."""
    return MetabelianH31(sf.m, sf.n, sf.p, sf.q, Fraction(sf.c * sf.m, sf.n))


def test_descriptor_feed_kills_input_relators():
    rng = random.Random(11)
    for _ in range(25):
        sf = _random_standard_form(rng)
        desc = standard_form_to_descriptor(sf)
        pres = expand_obfuscated(sf, rng.randint(0, 3), rng)
        for rel in pres.relators:
            assert meta_of_word(desc, rel) == META_IDENTITY


# --- basis normalization, a change-of-basis search kept here ---------------


def _pair_of_ratio(r: Fraction) -> tuple[int, int]:
    return r.denominator, r.numerator


def _normalized(r1: Fraction, r2: Fraction) -> bool:
    m, n = _pair_of_ratio(r1)
    p, q = _pair_of_ratio(r2)
    if m % p != 0 or n % q != 0:
        return False
    fresh = set(prime_factors(m) + prime_factors(n)) - set(prime_factors(p) + prime_factors(q))
    return bool(fresh)


def _rank_two(r1: Fraction, r2: Fraction) -> bool:
    # Multiplicative independence: no nonzero (x, y) with r1^x r2^y = 1.
    rank, _ = mult_rank([r1, r2])
    return rank == 2


def normalize_basis(m: int, n: int, p: int, q: int):
    """Change basis of the acting Z^2 so p' | m', q' | n' with a fresh prime.

    Returns (m', n', p', q', change) where change rows express the new
    basis in the old one: t' = t^A u^B, u' = t^C u^D with AD - BC = +-1.
    Tries the identity, then shears t -> t u^s, then small general basis
    changes each followed by a shear scan.
    """
    _check_pair(m, n)
    _check_pair(p, q)
    r1 = Fraction(n, m)
    r2 = Fraction(q, p)
    if not _rank_two(r1, r2):
        raise SimplifyError("conjugation ratios are multiplicatively dependent")

    for base in _basis_candidates():
        (A, B), (C, D) = base
        s1 = r1**A * r2**B
        s2 = r1**C * r2**D
        shear = _shear_scan(s1, s2)
        if shear is None:
            continue
        s, t1 = shear
        change = ((A + s * C, B + s * D), (C, D))
        mp, np_ = _pair_of_ratio(t1)
        pp, qp = _pair_of_ratio(s2)
        return mp, np_, pp, qp, change
    raise SimplifyError("no small basis change normalizes these ratios")


def _shear_scan(r1: Fraction, r2: Fraction, bound: int = 64):
    """Smallest s (by |s|, positive first) with t -> t u^s normalized."""
    for s in _signed_range(bound):
        t1 = r1 * r2**s
        if _normalized(t1, r2):
            return s, t1
    return None


def _signed_range(bound: int):
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def _basis_candidates(limit: int = 3):
    yield ((1, 0), (0, 1))
    seen = {((1, 0), (0, 1))}
    for size in range(1, limit + 1):
        span = range(-size, size + 1)
        for A in span:
            for B in span:
                for C in span:
                    for D in span:
                        if A * D - B * C not in (1, -1):
                            continue
                        key = ((A, B), (C, D))
                        if key in seen or max(abs(A), abs(B), abs(C), abs(D)) != size:
                            continue
                        seen.add(key)
                        yield key


def test_normalize_basis_shear_example():
    assert normalize_basis(2, 3, 4, 5) == (8, 15, 4, 5, ((1, 1), (0, 1)))


def test_normalize_basis_small_ratios():
    assert normalize_basis(1, 2, 1, 3) == (1, 6, 1, 3, ((1, 1), (0, 1)))


def test_normalize_basis_identity_when_normalized():
    assert normalize_basis(1, 6, 1, 3) == (1, 6, 1, 3, ((1, 0), (0, 1)))


def _check_normalized_output(m, n, p, q, result):
    m2, n2, p2, q2, change = result
    (A, B), (C, D) = change
    assert A * D - B * C in (1, -1)
    r1 = Fraction(n, m)
    r2 = Fraction(q, p)
    assert Fraction(n2, m2) == r1**A * r2**B
    assert Fraction(q2, p2) == r1**C * r2**D
    assert m2 % p2 == 0
    assert n2 % q2 == 0
    from hirsch3.rationals import prime_factors

    assert set(prime_factors(m2) + prime_factors(n2)) - set(prime_factors(p2) + prime_factors(q2))


def test_normalize_basis_needs_general_change():
    result = normalize_basis(1, 6, 3, 2)
    _check_normalized_output(1, 6, 3, 2, result)
    assert result[4] != ((1, 0), (0, 1))


def test_normalize_basis_rank_error():
    with pytest.raises(SimplifyError, match="dependent"):
        normalize_basis(1, 2, 1, 2)


def test_normalize_basis_random_postconditions():
    rng = random.Random(3)
    from math import gcd

    tried = 0
    while tried < 50:
        m, p = rng.randint(1, 6), rng.randint(1, 6)
        n = rng.randint(1, 9) * rng.choice((-1, 1))
        q = rng.randint(1, 9) * rng.choice((-1, 1))
        if gcd(m, n) != 1 or gcd(p, q) != 1:
            continue
        try:
            result = normalize_basis(m, n, p, q)
        except SimplifyError:
            from hirsch3.rationals import mult_rank

            rank, _ = mult_rank([Fraction(n, m), Fraction(q, p)])
            assert rank < 2
            tried += 1
            continue
        _check_normalized_output(m, n, p, q, result)
        tried += 1
