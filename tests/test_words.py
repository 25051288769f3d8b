"""Word algebra and the presentation DSL."""

from __future__ import annotations

import random
import time

import pytest

from hirsch3 import InputError
from hirsch3.words import (
    MAX_POWER_SYLLABLES,
    MAX_SPELLED_SYLLABLES,
    ParseError,
    Power,
    Presentation,
    Word,
    evaluate,
    format_presentation,
    format_word,
    parse_presentation,
    parse_tree,
    parse_word,
)


def w(text: str) -> Word:
    return parse_word(text)


class TestReduce:
    def test_cancellation(self):
        assert Word.of([("a", 1), ("a", -1)]) == Word()
        assert Word.of([("t", 2), ("a", 0), ("t", -1)]) == Word.gen("t")
        assert Word.of([("a", 1), ("b", 1), ("b", -1), ("a", 2)]) == Word.gen("a", 3)

    def test_idempotent_and_shrinking(self):
        rng = random.Random(5)
        for _ in range(300):
            pairs = [
                (rng.choice("abc"), rng.randint(-3, 3)) for _ in range(rng.randint(0, 12))
            ]
            once = Word.of(pairs)
            assert Word.of(once.syllables) == once
            assert once.length() <= sum(abs(e) for _, e in pairs)
            for (g1, _), (g2, _) in zip(once.syllables, once.syllables[1:]):
                assert g1 != g2
            assert all(e != 0 for _, e in once.syllables)


class TestAlgebra:
    def test_group_laws(self):
        rng = random.Random(6)
        for _ in range(200):
            a = Word.of((rng.choice("xyz"), rng.randint(-2, 2)) for _ in range(4))
            b = Word.of((rng.choice("xyz"), rng.randint(-2, 2)) for _ in range(4))
            assert (a * b).inv() == b.inv() * a.inv()
            assert a * a.inv() == Word()
            assert a ** 3 == a * a * a
            assert a ** -2 == a.inv() * a.inv()
            assert a ** 0 == Word()

    def test_power_matches_repeated_product(self):
        for base in (w("t u a"), w("a t a^-1"), w("x^2 y x^-2"), w("a^-3"), Word()):
            for k in range(-5, 6):
                expect = Word()
                for _ in range(abs(k)):
                    expect = expect * (base if k >= 0 else base.inv())
                assert base ** k == expect

    def test_one_syllable_power_stays_one_syllable(self):
        # built in O(1): spelled out, a^(3 2^60) would not fit in memory
        assert (w("a^3") ** 2**60).syllables == (("a", 3 * 2**60),)
        assert (w("a^3") ** -(2**60)).syllables == (("a", -3 * 2**60),)

    def test_power_past_the_syllable_bound_is_refused_unbuilt(self):
        two = w("a b")
        over = MAX_POWER_SYLLABLES // 2 + 1
        for k in (over, -over, 10**30):
            with pytest.raises(InputError) as exc:
                two ** k
            assert f"would spell {2 * abs(k)} syllables" in str(exc.value)
        assert Word() ** 10**30 == Word()

    def test_product_past_the_syllable_bound_is_refused(self):
        # each factor is under the bound; a word or relator of two is not,
        # unless it stays at the bound exactly
        half = MAX_POWER_SYLLABLES // 4
        assert len(parse_word(f"(a b)^{half} (a b)^{half}").syllables) == MAX_POWER_SYLLABLES
        over = f"syllables, over the bound of {MAX_POWER_SYLLABLES}$"
        for text in (f"(a b)^{half} a b (a b)^{half}", f"[(a b)^{half}, a]"):
            with pytest.raises(InputError, match=over):
                parse_word(text)
        with pytest.raises(InputError, match=over):
            parse_presentation(f"< a, b | (a b)^{half} a b = (a b)^-{half} >")

    def test_long_words_are_built_whole(self):
        word = parse_word("(t u a)^200000 t")
        assert len(word.syllables) == 600_001
        assert word.syllables[-2:] == (("a", 1), ("t", 1))
        # a product of atoms with a seam that cancels all the way back
        assert parse_word("a b " * 1000 + "b^-1 a^-1 " * 999 + "b^-1") == w("a")

    def test_long_flat_product_is_linear(self):
        start = time.perf_counter()
        word = parse_word("a b " * 20000)
        assert time.perf_counter() - start < 1
        assert len(word.syllables) == 40_000

    def test_power_is_bounded_by_its_reduced_length(self):
        k = MAX_POWER_SYLLABLES
        assert w("a b a^-1") ** k == Word((("a", 1), ("b", k), ("a", -1)))
        assert w("a b a^-1") ** -k == Word((("a", 1), ("b", -k), ("a", -1)))
        assert parse_word("(t a t^-1)^400000") == w("t a^400000 t^-1")
        # the last syllable of each copy merges with the first of the next
        assert len((w("a b a^2") ** 400_000).syllables) == 800_001
        assert w("a b a^2") ** -2 == w("a^-2 b^-1 a^-3 b^-1 a^-1")
        with pytest.raises(InputError, match="would spell 1048579 syllables"):
            w("a b a^2") ** (k // 2 + 1)

    def test_exponent_sum(self):
        assert w("t a t^-1 a^-2").exponent_sum("t") == 0
        assert w("[u, t]").exponent_sum("u") == 0
        assert w("t^3").exponent_sum("a") == 0
        assert w("a^2 t a^-1").exponent_sum("a") == 1

    def test_exponent_sum_additive(self):
        rng = random.Random(7)
        for _ in range(200):
            a = Word.of((rng.choice("st"), rng.randint(-3, 3)) for _ in range(5))
            b = Word.of((rng.choice("st"), rng.randint(-3, 3)) for _ in range(5))
            for g in "st":
                assert (a * b).exponent_sum(g) == a.exponent_sum(g) + b.exponent_sum(g)

    def test_letters(self):
        assert list(w("a^2 t^-1").letters()) == [("a", 1), ("a", 1), ("t", -1)]


class TestParsing:
    def test_basic_presentation(self):
        p = parse_presentation("<a,t | t a^2 t^-1 = a^3>")
        assert p.generators == ("a", "t")
        assert p.relators == (w("t a^2 t^-1 a^-3"),)

    def test_three_relators(self):
        p = parse_presentation(
            "<u,v,y | u y u^-1 = y^-1, v y v^-1 = v^-2 y^-1, v^2 = u^2 y>"
        )
        assert len(p.relators) == 3
        assert p.relators[0] == w("u y u^-1 y")

    def test_sugar(self):
        assert w("[x, y]") == w("x y x^-1 y^-1")
        assert w("(a t)^2") == w("a t a t")
        assert w("(a t)^-1") == w("t^-1 a^-1")
        assert w("[x, y]^2") == w("x y x^-1 y^-1 x y x^-1 y^-1")
        assert w("1") == Word()
        assert w("a 1 b") == w("a b")

    def test_whitespace_insensitive(self):
        assert parse_presentation("<a,t|t a^2t^-1=a^3>") == parse_presentation(
            "  < a , t |  t a^2 t^-1 = a^3 >  "
        )

    def test_unknown_generator(self):
        with pytest.raises(ParseError) as exc:
            parse_presentation("<a | a^2 = b>")
        assert "unknown generator" in str(exc.value)
        assert exc.value.pos == len("<a | a^2 = ")

    def test_malformed_exponent(self):
        for bad in ["<a | a^>", "<a | a^x>", "<a | a^^2>"]:
            with pytest.raises(ParseError) as exc:
                parse_presentation(bad)
            assert "exponent" in str(exc.value)

    def test_overlong_integer_is_parse_error(self):
        # more digits than Python converts from a string by default
        for prefix in ("a^", "a^-", "t (a t)^"):
            text = prefix + "9" * 5000
            with pytest.raises(ParseError) as exc:
                parse_word(text)
            assert exc.value.pos == len(prefix.rstrip("-"))
            assert "digits" in str(exc.value)

    def test_unbalanced_delimiters(self):
        for bad in ["<a | (a a>", "<a | [a, a a>", "<a | a", "a | a>"]:
            with pytest.raises(ParseError):
                parse_presentation(bad)

    def test_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_presentation("<a | a @ a>")
        with pytest.raises(ParseError):
            parse_word("a 2 b")
        with pytest.raises(ParseError):
            parse_presentation("<a, a | a>")
        with pytest.raises(ParseError, match=r"^expected a word \(at index 0\)$"):
            parse_word("")

    def test_word_generator_restriction(self):
        assert parse_word("a t", ["a", "t"]) == w("a t")
        with pytest.raises(ParseError):
            parse_word("a s", ["a", "t"])


class TestTree:
    def test_runs_and_powers(self):
        tree = parse_tree("a (t u a)^5 b c")
        assert tree.factors == (w("a"), Power(parse_tree("t u a"), 5, w("t u a") ** 5), w("b c"))
        assert tree.word == w("a") * w("t u a") ** 5 * w("b c")

    def test_powers_that_spell_one_run_are_runs(self):
        # exponent 1, trivial powers and powers of at most one syllable
        for text, flat in [
            ("a (b c) d", "a b c d"),
            ("a (b)^-1 d", "a b^-1 d"),
            ("[a, c^2]", "a c^2 a^-1 c^-2"),
            ("(a b)^0 c 1", "c"),
            ("(b a b^-1)^0", "1"),
            ("(a^2)^3 b", "a^6 b"),
            ("(a b b^-1 a^-1)^7", "1"),
        ]:
            assert parse_tree(text).factors == ((w(flat),) if flat != "1" else ()), text
        # an inverse of more than one syllable is the power -1 of its base
        for text, base, run in [("a (b c)^-1", "b c", "a"), ("[a b, c]", "a b", "a b c")]:
            tree = parse_tree(text)
            assert tree.factors[:2] == (w(run), Power(parse_tree(base), -1, w(base).inv())), text

    def test_inverse_of_a_power_negates_its_exponent(self):
        # the inverse shares its base, so the power inside keeps exponent 3
        # and is taken once; the spelled word negates it
        tree = parse_tree("((a b)^3 c)^-1")
        (inverse,) = tree.factors
        assert inverse.exp == -1 and inverse.base == parse_tree("(a b)^3 c")
        assert tree.word == w("c^-1") * w("a b") ** -3
        commutator = parse_tree("[(a b)^2, c]")
        square, _, x_inverse, _ = commutator.factors
        assert (square.exp, x_inverse.exp) == (2, -1)
        assert x_inverse.base.factors[0] is square
        assert commutator.word == w("a b a b c b^-1 a^-1 b^-1 a^-1 c^-1")

    def test_runs_are_joined_and_never_empty(self):
        rng = random.Random(9)
        atoms = ["a", "b^-2", "a^-1", "1", "(a b)^3", "[a, b^2]^-2", "(a (b a)^2)^-3"]
        for _ in range(200):
            text = " ".join(rng.choice(atoms) for _ in range(rng.randint(1, 6)))
            factors = parse_tree(text).factors
            runs = [isinstance(f, Word) for f in factors]
            assert not any(a and b for a, b in zip(runs, runs[1:])), text
            assert all(f.syllables for f in factors if isinstance(f, Word)), text

    def test_evaluate_in_the_free_group_spells_the_word(self):
        # the free group's own operations, so each value is a reduced word
        rng = random.Random(13)
        atoms = ["a", "b^-2", "(a b)^3", "(a b)^-3", "[a, b^2]^-2", "[(a b)^4, a b]", "(b a)^2"]
        for _ in range(300):
            tree = parse_tree(" ".join(rng.choice(atoms) for _ in range(rng.randint(1, 6))))
            assert evaluate(tree, lambda x: x, Word.__mul__, Word.inv, Word.__pow__) == tree.word

    @pytest.mark.parametrize(
        "k, spelled", [(MAX_SPELLED_SYLLABLES // 2, True), (MAX_SPELLED_SYLLABLES // 2 + 1, False)]
    )
    def test_cancelled_power_is_spelled_only_up_to_the_bound(self, k, spelled):
        # (a b)^(k + 40000) (a b)^-40000 spells (a b)^k, 2k syllables, in Z
        tree = parse_tree(f"(a b)^{k + 40000} (a b)^-40000")
        seen = []
        value = evaluate(
            tree,
            lambda x: seen.append(x) or x.exponent_sum("a"),
            lambda g, h: g + h,
            lambda g: -g,
            lambda g, n: g * n,
        )
        assert value == k
        assert (tree.word in seen) is spelled


class TestRoundTrip:
    def test_fixed_point(self):
        texts = [
            "<a,t | t a^2 t^-1 = a^3>",
            "<u,v,y | u y u^-1 = y^-1, v y v^-1 = v^-2 y^-1, v^2 = u^2 y>",
            "<a, t, u | [u, t] = a, t a t^-1 = a^2>",
            "< x | >",
        ]
        for text in texts:
            p1 = parse_presentation(text)
            printed = format_presentation(p1)
            p2 = parse_presentation(printed)
            assert p1 == p2
            assert format_presentation(p2) == printed

    def test_word_roundtrip(self):
        rng = random.Random(8)
        for _ in range(200):
            word = Word.of((rng.choice("atu"), rng.randint(-4, 4)) for _ in range(6))
            assert parse_word(format_word(word)) == word


class TestPresentationType:
    def test_validates_relators(self):
        with pytest.raises(ValueError):
            Presentation(("a",), (Word.gen("b"),))
