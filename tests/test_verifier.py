"""Tests for the independent oracles and the randomized harness."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import hirsch3.verify as verify_module
from hirsch3 import InputError
from hirsch3.classify import Type1, classify
from hirsch3.cli import EXAMPLES, example_text, load_descriptor_file, parse_descriptor_text
from hirsch3.families import (
    FAMILIES,
    AffineQ2,
    AscHNNKb,
    BSbar,
    DescriptorFile,
    GroupOps,
    LatticeByZ,
    MetabelianH31,
    RankOneQ,
    affine_map,
    family_of,
    is_unipotent,
    ops_for,
)
from hirsch3.rationals import Mat2Q, relation_lattice
from hirsch3.verify import (
    _CANDIDATE_CAP,
    MAX_WORD_LENGTH,
    CheckResult,
    _VERIFIERS,
    _RadicalModel,
    _certificate_checks,
    _quotient_check,
    _quotient_dihedral,
    _quotient_finite,
    _quotient_z,
    _quotient_z2,
    _quotient_z_plus_z2,
    _relators,
    TrialConfig,
    VerifyResourceError,
    _child_rng,
    check_relations,
    commutator_depth_search,
    endo_index,
    fp_cone_bruteforce,
    nested_commutator,
    oracle_word_eq,
    radical_certificate,
    random_word,
    rewrite_closure_eq,
    run_harness,
)
from hirsch3.words import Word, parse_presentation, parse_word

F = Fraction

CFG = TrialConfig(seed=11, trials=60)


def fixture_named(name: str) -> DescriptorFile:
    """The shipped fixture `name`, parsed from its package file."""
    return parse_descriptor_text(example_text(name))


FIXTURES = tuple(fixture_named(name) for name in EXAMPLES)

# the negative control: d_infty_amalgam with u's glide translation moved from
# 1/2 to 1/3, so the relator v^2 = u^2 y fails while the linear parts hold
CORRUPTED_D_INFTY = load_descriptor_file(
    Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "corrupted_d_infty.toml"
)


def failing(report) -> list[CheckResult]:
    return [c for c in report.checks if not c.passed]


class TestTrialConfig:
    def test_defaults_are_valid(self):
        cfg = TrialConfig()
        assert cfg.trials >= 1

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrialConfig(seed=-1)
        with pytest.raises(ValueError):
            TrialConfig(seed=1 << 64)
        with pytest.raises(ValueError):
            TrialConfig(trials=0)


class TestDefiningRelations:
    def test_every_family_relator_evaluates_to_identity(self):
        descriptors = [
            BSbar(2, 3),
            BSbar(1, -1),
            MetabelianH31(1, 2, 1, 3, F(1)),
            MetabelianH31(1, 1, 1, 1, F(2)),
            MetabelianH31(2, 3, 1, 1, F(1, 2)),
            LatticeByZ(Mat2Q.of(2, 1, 1, 1)),
            LatticeByZ(Mat2Q.of(0, -2, 1, 0)),
            AscHNNKb(1, 0, 2),
            AscHNNKb(3, 1, 2),
            RankOneQ((F(1, 2), F(5, 3))),
        ]
        for desc in descriptors:
            ops = ops_for(desc)
            relators = ops.family.presentation(desc).relators
            assert relators, desc
            for relator in relators:
                assert ops.is_identity(ops.of_word(relator)), (desc, relator)

    def test_check_relations_accepts_fixture_presentations(self):
        for fixture in FIXTURES:
            if fixture.presentation is None:
                continue
            result = check_relations(fixture.descriptor, fixture.presentation)
            assert result.passed, (fixture.name, result.counterexample)

    def test_corrupted_fixture_fails_with_offending_relator(self):
        bad = CORRUPTED_D_INFTY
        result = check_relations(bad.descriptor, bad.presentation)
        assert not result.passed
        assert result.counterexample is not None
        assert "v^2" in result.counterexample

    def test_failing_family_relator_is_named_by_its_word(self, monkeypatch):
        wrong = parse_presentation("< a, t | t a^2 t^-1 = a^4, [a, t a t^-1] >")
        family = replace(FAMILIES[BSbar], presentation=lambda d: wrong)
        monkeypatch.setitem(FAMILIES, BSbar, family)
        result = check_relations(BSbar(2, 3))
        assert (result.counterexample, result.trials) == ("t a^2 t^-1 a^-4", 2)

    def test_presentation_with_unknown_generator_is_input_error(self):
        stray = parse_presentation("< a, t, z | z >")
        with pytest.raises(InputError) as exc:
            check_relations(BSbar(2, 3), stray)
        assert str(exc.value) == "relator uses unknown generator 'z'; the generators are a, t"

    def test_affine_without_presentation_is_vacuous(self):
        desc = fixture_named("d_infty_amalgam").descriptor
        result = check_relations(desc)
        assert result.passed
        assert "presentation" in result.note


class TestRelatorGate:
    @pytest.mark.parametrize("fixture", FIXTURES + (CORRUPTED_D_INFTY,), ids=lambda f: f.name)
    def test_every_fixture_passes_with_file_and_family_relators(self, fixture):
        family = _relators(fixture.descriptor, None)
        assert family == family_of(fixture.descriptor).presentation(fixture.descriptor).relators
        if fixture.presentation is not None:
            own = _relators(fixture.descriptor, fixture.presentation)
            assert own == fixture.presentation.relators

    def test_family_relators_of_every_verify_path_go_through_the_gate(self, monkeypatch):
        calls = []
        gate = verify_module._relators
        monkeypatch.setattr(
            verify_module, "_relators", lambda *args: calls.append(args[1]) or gate(*args)
        )
        run_harness(AscHNNKb(1, 0, 2), TrialConfig(trials=2))
        assert calls == [None, None, None]  # run_harness, check_relations, _endo_checks


class TestOracleAgreement:
    DESCRIPTORS = [
        BSbar(2, 3),
        BSbar(3, -2),
        MetabelianH31(1, 2, 1, 3, F(1)),
        MetabelianH31(1, 1, 1, 1, F(2)),
        MetabelianH31(3, 2, 1, 5, F(0)),
        LatticeByZ(Mat2Q.of(0, -2, 1, 0)),
        LatticeByZ(Mat2Q.of(2, 1, 1, 1)),
        AscHNNKb(1, 0, 2),
        AscHNNKb(3, 1, 2),
        RankOneQ((F(1, 2), F(5, 3))),
    ]

    @pytest.mark.parametrize(
        "desc", DESCRIPTORS, ids=[repr(d) for d in DESCRIPTORS]
    )
    def test_matches_normal_form_on_random_pairs(self, desc):
        ops = ops_for(desc)
        names = list(ops.generator_names)
        rng = random.Random(f"oracle-agreement:{desc!r}")
        for _ in range(200):
            w1 = random_word(rng, names, 10)
            w2 = random_word(rng, names, 10)
            assert oracle_word_eq(desc, w1, w2) == ops.word_eq(w1, w2)

    @pytest.mark.parametrize(
        "desc", DESCRIPTORS, ids=[repr(d) for d in DESCRIPTORS]
    )
    def test_relator_insertion_preserves_equality(self, desc):
        ops = ops_for(desc)
        names = list(ops.generator_names)
        relators = ops.family.presentation(desc).relators
        rng = random.Random(f"oracle-lacing:{desc!r}")
        for _ in range(80):
            w = random_word(rng, names, 8)
            relator = relators[rng.randrange(len(relators))]
            conj = random_word(rng, names, 3)
            laced = w * conj * relator * conj.inv()
            assert oracle_word_eq(desc, w, laced)

    def test_resource_budget_raises_instead_of_grinding(self):
        desc = BSbar(2, 3)
        huge = Word.of([("t", -200000), ("a", 1), ("t", 200000)])
        with pytest.raises(VerifyResourceError):
            oracle_word_eq(desc, huge, Word.identity())

    def test_unequal_words_are_distinguished(self):
        desc = AscHNNKb(1, 0, 2)
        assert not oracle_word_eq(desc, parse_word("y"), parse_word("y^-1"))
        assert not oracle_word_eq(desc, parse_word("s y"), parse_word("y s"))
        assert oracle_word_eq(desc, parse_word("s y s^-1"), parse_word("y^2"))


def _choice_random_word(rng: random.Random, names, max_length: int) -> Word:
    """`random_word` as it was first written, by `randint` and two `choice`
    calls per letter: the reference for its `getrandbits` draw rule."""
    length = rng.randint(1, max_length)
    return Word.of((rng.choice(names), rng.choice((-1, 1))) for _ in range(length))


class TestRandomWord:
    NAMES = ("x", "y", "s", "t", "u", "a", "b")

    @pytest.mark.parametrize("count", range(1, 8))
    def test_draws_what_choice_draws(self, count):
        # the same word and the same generator state afterwards, so a CPython
        # whose `choice` draws differently fails here by name
        names = self.NAMES[:count]
        for max_length in range(1, 18):
            for idx in range(40):
                seed = f"random-word:{count}:{max_length}:{idx}"
                ours, ref = random.Random(seed), random.Random(seed)
                assert random_word(ours, names, max_length) == (
                    _choice_random_word(ref, names, max_length)
                )
                assert ours.random() == ref.random()

    def test_empty_length_range_is_refused_like_randint(self):
        with pytest.raises(ValueError):
            random.Random(0).randint(1, 0)
        with pytest.raises(ValueError):
            random_word(random.Random(0), ("x",), 0)


class TestRewriteClosure:
    RELATORS = [
        parse_word("x y x^-1 y"),
        parse_word("s x s^-1 x^-1"),
        parse_word("s y s^-1 y^-2"),
    ]

    def test_meets_on_relator_laced_pairs(self):
        w = parse_word("x y")
        laced = w * parse_word("x y x^-1 y")
        assert rewrite_closure_eq(self.RELATORS, w, laced) is True

    def test_conjugated_insertion(self):
        w = parse_word("y x")
        laced = parse_word("y") * parse_word("s y s^-1 y^-2") * parse_word("x")
        assert rewrite_closure_eq(self.RELATORS, w, laced) is True

    def test_never_returns_false(self):
        # Distinct elements exhaust the budget; the contract is None, not a
        # definitive inequality claim
        out = rewrite_closure_eq(self.RELATORS, parse_word("x"), parse_word("y"))
        assert out is None
        # with no relators a frontier empties before any budget is met
        assert rewrite_closure_eq([], parse_word("x"), parse_word("y")) is None

    def test_identical_words_short_circuit(self):
        w = parse_word("x y s")
        assert rewrite_closure_eq(self.RELATORS, w, w) is True

    # Recorded with the closure over `Word`s, before it ran on letter tuples:
    # every `britton_vs_rewriting` trial at seeds 0-5 meets on both groups.
    @pytest.mark.parametrize("desc", [AscHNNKb(1, 0, 2), AscHNNKb(3, 1, 2)], ids=repr)
    @pytest.mark.parametrize("seed", range(6))
    def test_britton_trial_verdicts_are_pinned(self, monkeypatch, desc, seed):
        verdicts = []

        def recorded(relators, w1, w2):
            verdicts.append(rewrite_closure_eq(relators, w1, w2))
            return verdicts[-1]

        monkeypatch.setattr(verify_module, "rewrite_closure_eq", recorded)
        cfg = TrialConfig(seed=seed, trials=30)
        verify_module._endo_checks(desc, cfg, classify(desc))
        assert verdicts == [True] * 30

    def test_stops_on_the_visit_budget(self, monkeypatch):
        # the closures meet at exactly the 4917th visited word, so a change in
        # the order the moves and positions are tried shows here
        w1 = parse_word("y^2 s^-2")
        w2 = parse_word("y^2 s^-2 x^-1 s x s^-1 y s^-1 y^-2 s")
        assert verify_module._CLOSURE_VISITS == 4000
        assert rewrite_closure_eq(self.RELATORS, w1, w2) is None
        monkeypatch.setattr(verify_module, "_CLOSURE_VISITS", 4916)
        assert rewrite_closure_eq(self.RELATORS, w1, w2) is None
        monkeypatch.setattr(verify_module, "_CLOSURE_VISITS", 4917)
        assert rewrite_closure_eq(self.RELATORS, w1, w2) is True

    def test_stops_on_the_letter_budget(self, monkeypatch):
        # s x s^-1 = x^199 is a relator of 202 letters, two past the budget
        desc = AscHNNKb(199, 0, 1)
        relators = family_of(desc).presentation(desc).relators
        assert verify_module._CLOSURE_LETTERS == 200
        assert [r.length() for r in relators] == [4, 202, 4]
        assert rewrite_closure_eq(relators, Word.identity(), relators[1]) is None
        monkeypatch.setattr(verify_module, "_CLOSURE_LETTERS", 202)
        assert rewrite_closure_eq(relators, Word.identity(), relators[1]) is True


class TestCommutatorDepth:
    def test_nested_commutator_shape(self):
        a, b = Word.gen("a"), Word.gen("t")
        c = nested_commutator([a, b])
        assert c == a * b * a.inv() * b.inv()
        with pytest.raises(ValueError):
            nested_commutator([a, b, a])

    def test_metabelian_fixture_depth_two_but_not_one(self):
        desc = fixture_named("bs12_rtimes").descriptor
        assert commutator_depth_search(desc, 2, CFG) is None
        witness = commutator_depth_search(desc, 1, CFG)
        assert witness is not None
        ops = ops_for(desc)
        assert not ops.is_identity(ops.of_word(witness))

    def test_dihedral_fixture_depth_three_but_not_two(self):
        desc = fixture_named("d_infty_amalgam").descriptor
        assert commutator_depth_search(desc, 3, CFG) is None
        witness = commutator_depth_search(desc, 2, CFG)
        assert witness is not None
        ops = ops_for(desc)
        assert not ops.is_identity(ops.of_word(witness))

    def test_depth_bounds_validated(self):
        with pytest.raises(ValueError):
            commutator_depth_search(BSbar(2, 3), 4, CFG)
        with pytest.raises(ValueError):
            commutator_depth_search(BSbar(2, 3), 0, CFG)

    @staticmethod
    def word_level_search(desc, depth, cfg):
        # evaluates each whole nested-commutator word, in the search's order
        ops = ops_for(desc)
        names = ops.generator_names
        width = 1 << depth
        for tup in itertools.islice(
            itertools.product(names, repeat=width), _CANDIDATE_CAP
        ):
            w = nested_commutator([Word.gen(n) for n in tup])
            if not ops.is_identity(ops.of_word(w)):
                return w
        for idx in range(cfg.trials):
            rng = _child_rng(cfg.seed, f"commutator-depth-{depth}", idx)
            words = [
                random_word(rng, names, MAX_WORD_LENGTH) for _ in range(width)
            ]
            w = nested_commutator(words)
            if not ops.is_identity(ops.of_word(w)):
                return w
        return None

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize(
        "fixture",
        FIXTURES + (CORRUPTED_D_INFTY,),
        ids=[f.name for f in FIXTURES] + ["corrupted_d_infty"],
    )
    def test_element_search_matches_word_level_search(self, fixture, depth):
        for seed in (0, 1):
            cfg = TrialConfig(seed=seed, trials=20)
            expected = self.word_level_search(fixture.descriptor, depth, cfg)
            assert commutator_depth_search(fixture.descriptor, depth, cfg) == expected


class TestFpCone:
    def test_frozen_examples(self):
        assert fp_cone_bruteforce((F(2), F(3)), 12) == (1, 1)
        assert fp_cone_bruteforce((F(2), F(3, 2)), 12) == (2, 1)
        assert fp_cone_bruteforce((F(2, 3), F(5)), 12) is None

    def test_requires_rank_two(self):
        with pytest.raises(ValueError):
            fp_cone_bruteforce((F(2), F(4)), 12)
        with pytest.raises(ValueError):
            fp_cone_bruteforce((F(1), F(3)), 12)

    def test_agrees_with_classifier_on_random_ratio_pairs(self):
        primes = [2, 3, 5, 7]
        rng = random.Random("fp-cone-consistency")
        tested = 0
        while tested < 40:
            num = primes[rng.randrange(4)] ** rng.randrange(1, 3)
            den = primes[rng.randrange(4)] ** rng.randrange(0, 2)
            r1 = F(num, den)
            num = primes[rng.randrange(4)] ** rng.randrange(1, 3)
            den = primes[rng.randrange(4)] ** rng.randrange(0, 2)
            r2 = F(num, den)
            if relation_lattice((r1, r2)).rank != 2:
                continue
            tested += 1
            desc = MetabelianH31(
                r1.denominator, r1.numerator, r2.denominator, r2.numerator, F(0)
            )
            point = fp_cone_bruteforce((r1, r2), 12)
            ctype = classify(desc).constructible_type
            if point is not None:
                i, j = point
                value = r1**i * r2**j
                assert value.denominator == 1 and abs(value) >= 2
                assert isinstance(ctype, Type1)
            else:
                assert not isinstance(ctype, Type1)


class TestEndoIndex:
    def test_frozen_examples(self):
        assert endo_index(AscHNNKb(1, 0, 2)) == 2
        assert endo_index(AscHNNKb(1, 0, 1)) == 1
        assert endo_index(AscHNNKb(3, 1, 2)) == 6

    def test_index_is_ed_for_small_parameters(self):
        for e in (1, -1, 3, -3, 5, -5):
            for d in range(-5, 6):
                if d == 0:
                    continue
                assert endo_index(AscHNNKb(e, 0, d)) == abs(e * d)

    def test_nonzero_twist_does_not_change_index(self):
        assert endo_index(AscHNNKb(3, 2, -2)) == 6
        assert endo_index(AscHNNKb(-1, 1, 3)) == 3


def claiming_radical_hirsch(desc, hirsch: int):
    """desc's classification report with the radical's Hirsch length
    replaced: a wrong claim for the certificate to reject."""
    report = classify(desc)
    return replace(report, radical=replace(report.radical, hirsch=hirsch))


def _shear_radical_example(v_linear: Mat2Q) -> AffineQ2:
    # the radical holds the shear (u v)^2, which does not commute with y;
    # every unipotent word of length at most 3 is a translation
    return AffineQ2(
        (
            ("u", affine_map(Mat2Q.of(1, 0, 0, -1), (F(1, 2), F(0)))),
            ("v", affine_map(v_linear, (F(0), F(1, 2)))),
            ("x", affine_map(Mat2Q.identity(), (F(1), F(0)))),
            ("y", affine_map(Mat2Q.identity(), (F(0), F(1)))),
        )
    )


class TestRadicalCertificate:
    DESCRIPTORS = [
        BSbar(2, 3),
        BSbar(1, 1),
        BSbar(1, -1),
        MetabelianH31(1, 2, 1, 3, F(1)),
        MetabelianH31(1, 1, 1, 1, F(2)),
        MetabelianH31(1, 2, 1, -2, F(0)),
        LatticeByZ(Mat2Q.of(2, 1, 1, 1)),
        LatticeByZ(Mat2Q.of(0, -1, 1, 0)),
        LatticeByZ(Mat2Q.of(1, 1, 0, 1)),
        AscHNNKb(1, 0, 2),
        AscHNNKb(1, 2, -1),
        AscHNNKb(-1, 1, 1),
        AscHNNKb(3, 1, 2),
        RankOneQ((F(1, 2), F(5, 3))),
        _shear_radical_example(Mat2Q.of(-1, -2, 0, 1)),
        _shear_radical_example(Mat2Q.of(-1, F(2, 3), 0, 1)),
    ]

    @pytest.mark.parametrize(
        "desc", DESCRIPTORS, ids=[repr(d) for d in DESCRIPTORS]
    )
    def test_passes_on_true_radical(self, desc):
        report = radical_certificate(desc, CFG)
        assert not failing(report), [
            (c.name, c.counterexample) for c in failing(report)
        ]

    def test_passes_on_affine_fixtures(self):
        for name in ("d_infty_amalgam", "f_mod_kprime"):
            report = radical_certificate(fixture_named(name).descriptor, CFG)
            assert not failing(report), name

    def test_undersized_claim_is_rejected(self):
        desc = BSbar(1, 1)
        report = radical_certificate(desc, CFG, report=claiming_radical_hirsch(desc, 1))
        names = {c.name for c in failing(report)}
        assert "radical_detects_outside" in names

    def test_undersized_lattice_claim_is_rejected(self):
        desc = LatticeByZ(Mat2Q.of(1, 1, 0, 1))
        report = radical_certificate(desc, CFG, report=claiming_radical_hirsch(desc, 2))
        names = {c.name for c in failing(report)}
        assert "radical_detects_outside" in names

    def test_undersized_metabelian_claim_is_rejected(self):
        desc = MetabelianH31(1, 2, 1, 2, F(0))
        report = radical_certificate(desc, CFG, report=claiming_radical_hirsch(desc, 1))
        assert failing(report)


def _even_y_shift(g) -> bool:
    # unipotent with translation in Z x 2Z: too small for d_infty_amalgam
    y = Fraction(g[6], g[0])
    return is_unipotent(g) and y.denominator == 1 and y.numerator % 2 == 0


def _hnn_even(g) -> bool:
    i, a, _, j = g
    return j == i and a % 2 == 0


_D_INFTY = fixture_named("d_infty_amalgam").descriptor
# d_infty_amalgam with a dilation added: no dihedral witness pair reduces it
_D_INFTY_DILATED = AffineQ2(
    _D_INFTY.generators
    + (("w", affine_map(Mat2Q.of(2, 0, 0, 2), (F(0), F(0)))),)
)
_META = MetabelianH31(1, 2, 1, 3, F(1))


class TestQuotientWitnesses:
    """The radical-quotient check given a wrong witness or too small a
    radical: each driver's failure paths, with their counterexample and
    trial count."""

    CASES = [
        (BSbar(2, 3), lambda g: g[2] == 0, (_quotient_z, "a"), "a^1 lies in the radical", 1),
        (
            BSbar(2, 3),
            lambda g: g[2] == 0,
            (_quotient_z, "t^2"),
            "a sampled element does not reduce to the radical by a power of t^2",
            25,
        ),
        (_META, lambda g: g[1] == 0 and g[2] == g[3] == 0, (_quotient_z2, "t", "u"), "[t, u] is not in the radical", 1),
        (_META, lambda g: g[2] == g[3] == 0, (_quotient_z2, "t", "t"), "t^-4 t^4 lies in the radical", 10),
        (
            _META,
            lambda g: g[2] == g[3] == 0,
            (_quotient_z2, "t", "u^2"),
            "a sampled element does not reduce to the radical by powers of t and u^2",
            707,
        ),
        (AscHNNKb(1, 0, 2), _hnn_even, (_quotient_z_plus_z2, "s", "y"), "y lies in the radical", 2),
        (AscHNNKb(1, 0, 2), _hnn_even, (_quotient_z_plus_z2, "s", "x^2"), "x^2 lies in the radical", 2),
        (
            AscHNNKb(1, 0, 2),
            lambda g: g[3] - g[0] == 0 and g[1] == 0,
            (_quotient_z_plus_z2, "s", "x"),
            "x^2 is not in the radical",
            2,
        ),
        (
            AscHNNKb(1, 1, 2),
            lambda g: _hnn_even(g) and g[2] == 0,
            (_quotient_z_plus_z2, "s", "x"),
            "[s, x] is not in the radical",
            3,
        ),
        (AscHNNKb(1, 0, 2), _hnn_even, (_quotient_z_plus_z2, "y", "x"), "y^1 lies in the radical", 5),
        (AscHNNKb(1, 0, 2), _hnn_even, (_quotient_z_plus_z2, "x y", "x"), "(x y)^1 x lies in the radical", 5),
        (
            AscHNNKb(1, 0, 2),
            _hnn_even,
            (_quotient_z_plus_z2, "s^2", "x"),
            "a sampled element does not reduce to the radical by powers of s^2 and x",
            54,
        ),
        (_D_INFTY, is_unipotent, (_quotient_dihedral, "u", "y"), "a dihedral witness lies in the radical", 4),
        (
            _D_INFTY,
            _even_y_shift,
            (_quotient_dihedral, "u", "v"),
            "a squared dihedral witness is not in the radical",
            4,
        ),
        (_D_INFTY, is_unipotent, (_quotient_dihedral, "u", "u y"), "(u u y)^1 lies in the radical", 5),
        (
            _D_INFTY_DILATED,
            is_unipotent,
            (_quotient_dihedral, "u", "v"),
            "a sampled element does not reduce to the radical by the dihedral witnesses",
            56,
        ),
        (
            BSbar(2, 3),
            lambda g: g[2] == 0,
            (_quotient_finite,),
            "no small power of t enters the radical",
            13,
        ),
        (
            _META,
            lambda g: g[2] == 0 or g[3] == 0,
            (_quotient_finite,),
            "no small power of u^-1 t^-1 u t^-1 u enters the radical",
            18,
        ),
    ]

    @pytest.mark.parametrize(
        "desc, member, quotient, message, trials",
        CASES,
        ids=[f"{c[2][0].__name__}-{i}" for i, c in enumerate(CASES)],
    )
    def test_wrong_witness_fails(self, desc, member, quotient, message, trials):
        driver, *words = quotient
        model = _RadicalModel(True, (), member, partial(driver, *map(parse_word, words)))
        result = _quotient_check(ops_for(desc), model, TrialConfig())
        assert result.passed is False
        assert (result.counterexample, result.trials) == (message, trials)

    def test_radical_that_is_not_normal_fails(self):
        # <a> alone is not normal in BSbar(2, 3): t a t^-1 = a^(3/2)
        desc = BSbar(2, 3)
        a, t = Word.gen("a"), Word.gen("t")
        model = _RadicalModel(
            True, (a,), lambda g: g[2] == 0 and g[0] == 1, partial(_quotient_z, t)
        )
        normal = _certificate_checks(ops_for(desc), model, TrialConfig())[1]
        assert (normal.name, normal.passed) == ("radical_normal", False)
        assert (normal.counterexample, normal.trials) == ("t a t^-1", 3)

    def test_generator_outside_the_radical_fails(self):
        # t acts on a by the ratio 3/2, so it lies outside the radical
        desc = BSbar(2, 3)
        a, t = Word.gen("a"), Word.gen("t")
        model = _RadicalModel(True, (a, t), lambda g: g[2] == 0, partial(_quotient_z, t))
        generators = _certificate_checks(ops_for(desc), model, TrialConfig())[0]
        assert (generators.name, generators.passed) == ("radical_generators", False)
        assert (generators.counterexample, generators.trials) == ("t", 2)


def forced_failure(desc, name: str) -> str:
    """The counterexample of the check `name` in desc's harness at seed 0,
    which a monkeypatch makes fail: its verdict, its JSON and the report's
    all say so."""
    report = run_harness(desc, TrialConfig(seed=0, trials=20))
    (check,) = [c for c in report.checks if c.name == name]
    assert check.passed is False
    assert check.to_json()["passed"] is False
    assert report.to_json()["passed"] is False
    return check.counterexample


_BS12 = fixture_named("bs12_rtimes").descriptor


class TestFailingBranches:
    """The failing branch of each check that no input reaches unpatched,
    forced by replacing one name in `verify` or `GroupOps.word_eq`."""

    def test_normal_form_disagrees_with_oracle(self, monkeypatch):
        real = verify_module.oracle_word_eq
        monkeypatch.setattr(verify_module, "oracle_word_eq", lambda d, w1, w2: not real(d, w1, w2))
        assert forced_failure(BSbar(2, 3), "word_eq_oracle") == (
            "a^-3 t a^-1 t^2 vs a^-3 t a^-1 t^3 a^2 t a^-2 t^-1 a t^-1 a^3 t a^-2 t^-1: "
            "normal form says True, oracle says False"
        )

    def test_relator_consequence_evaluates_unequal(self, monkeypatch):
        monkeypatch.setattr(verify_module, "oracle_word_eq", lambda d, w1, w2: False)
        monkeypatch.setattr(GroupOps, "word_eq", lambda self, w1, w2: False)
        assert forced_failure(BSbar(2, 3), "word_eq_oracle") == (
            "a^-3 t a^-1 t^2 vs a^-3 t a^-1 t^3 a^2 t a^-2 t^-1 a t^-1 a^3 t a^-2 t^-1 "
            "differ only by relators but evaluate unequal"
        )

    def test_no_commutator_one_level_down(self, monkeypatch):
        real = verify_module.commutator_depth_search
        monkeypatch.setattr(
            verify_module,
            "commutator_depth_search",
            lambda desc, depth, cfg: None if depth == 1 else real(desc, depth, cfg),
        )
        assert forced_failure(BSbar(2, 3), "commutator_depth_1_witness") == (
            "no nonvanishing commutator found one level down"
        )

    @pytest.mark.parametrize(
        "desc, point, message",
        [
            (
                MetabelianH31(2, 3, 1, 5, F(0)),
                (1, 0),
                "brute force found (1, 0) but the classifier does not report an "
                "ascending integral form",
            ),
            (
                _BS12,
                None,
                "classifier reports an ascending integral form but the brute force "
                "scan up to 12 found no cone point",
            ),
            (_BS12, (-1, 0), "cone point (-1, 0) has non-integral value 1/2"),
        ],
        ids=["point-without-type1", "type1-without-point", "non-integral-point"],
    )
    def test_fp_cone_disagreement(self, monkeypatch, desc, point, message):
        monkeypatch.setattr(verify_module, "fp_cone_bruteforce", lambda ratios, window: point)
        assert forced_failure(desc, "fp_cone") == message

    def test_endo_index_mismatch(self, monkeypatch):
        monkeypatch.setattr(verify_module, "endo_index", lambda desc: 5)
        assert forced_failure(AscHNNKb(1, 0, 2), "endo_index") == (
            "coset enumeration gives 5, expected 2"
        )

    def test_britton_misses_a_relator_consequence(self, monkeypatch):
        monkeypatch.setattr(GroupOps, "word_eq", lambda self, w1, w2: False)
        assert forced_failure(AscHNNKb(1, 0, 2), "britton_vs_rewriting") == (
            "s x^-2 s vs s x^-2 y s y^-1 s^-1 y s: Britton reduction misses a "
            "relator consequence"
        )


class TestVerifierTable:
    def test_every_family_has_one_verifier(self):
        assert set(_VERIFIERS) == set(FAMILIES)

    def test_unknown_descriptor_is_a_type_error(self):
        with pytest.raises(TypeError, match="unknown descriptor"):
            oracle_word_eq(object(), Word.identity(), Word.identity())
        with pytest.raises(TypeError, match="unknown descriptor"):
            classify(object())


class TestHarness:
    def test_fixtures_pass(self):
        for fixture in FIXTURES:
            report = run_harness(
                fixture.descriptor, CFG, presentation=fixture.presentation
            )
            assert not failing(report), (
                fixture.name,
                [(c.name, c.counterexample) for c in failing(report)],
            )

    def test_presentation_with_unknown_generator_is_refused(self):
        stray = parse_presentation("< a, t, z | z >")
        with pytest.raises(InputError, match=r"^relator uses unknown generator 'z'; "):
            run_harness(BSbar(2, 3), TrialConfig(trials=1), stray)

    def test_report_is_deterministic_for_fixed_seed(self):
        desc = MetabelianH31(1, 2, 1, 3, F(1))
        first = run_harness(desc, CFG).to_json()
        second = run_harness(desc, CFG).to_json()
        assert first == second

    def test_ascending_hnn_reports_endo_checks(self):
        report = run_harness(AscHNNKb(1, 0, 2), CFG)
        names = [c.name for c in report.checks]
        assert "endo_index" in names
        assert "britton_vs_rewriting" in names

    def test_report_serializes_to_plain_json(self):
        import json

        report = run_harness(BSbar(2, 3), CFG)
        data = report.to_json()
        assert json.loads(json.dumps(data)) == data
        for check in data["checks"]:
            assert set(check) >= {"name", "passed", "trials", "seed"}


def _translation(x, y) -> tuple:
    return affine_map(Mat2Q.identity(), (F(x), F(y)))


_XY = (("x", _translation(1, 0)), ("y", _translation(0, 1)))
_DEPTH_2 = ["commutator_depth_2_vanishes", "commutator_depth_1_witness"]
_RADICAL = ["radical_generators", "radical_normal", "radical_abelian", "radical_detects_outside"]


class TestHarnessBranches:
    """One `run_harness` per radical-model or family-scan branch that the
    fixtures do not reach: the checks run, in order, and their notes."""

    CASES = {
        "affine-abelian": (
            AffineQ2(_XY),
            ["relations", "word_eq_oracle", "commutator_depth_1_vanishes", *_RADICAL, "radical_quotient"],
            {
                "relations": "no relator set available; supply a presentation",
                "commutator_depth_1_vanishes": "derived length 1",
                "radical_detects_outside": "no elements outside the claimed radical were sampled",
                "radical_quotient": "radical is the whole group",
            },
        ),
        "affine-quotient-z": (
            AffineQ2(_XY + (("t", affine_map(Mat2Q.of(2, 1, 1, 1), (F(0), F(0)))),)),
            ["relations", "word_eq_oracle", *_DEPTH_2, *_RADICAL, "radical_quotient"],
            {
                "relations": "no relator set available; supply a presentation",
                "commutator_depth_2_vanishes": "derived length 2",
                "commutator_depth_1_witness": "x t x^-1 t^-1",
            },
        ),
        "lattice-t-squared": (
            LatticeByZ(Mat2Q.of(-1, 1, 0, -1)),
            [
                "relations",
                "word_eq_oracle",
                *_DEPTH_2,
                "radical_generators",
                "radical_normal",
                "radical_nonabelian_witness",
                "radical_detects_outside",
                "radical_quotient",
            ],
            {
                "commutator_depth_2_vanishes": "derived length 2",
                "commutator_depth_1_witness": "a t a^-1 t^-1",
                "radical_nonabelian_witness": "[b, t^2] != 1",
            },
        ),
        "meta-rank-one-without-minus-one": (
            MetabelianH31(1, 2, 1, 4, F(0)),
            ["relations", "word_eq_oracle", *_DEPTH_2, *_RADICAL, "radical_quotient"],
            {
                "commutator_depth_2_vanishes": "derived length 2",
                "commutator_depth_1_witness": "a t a^-1 t^-1",
            },
        ),
        "hnn-e1-d1": (
            AscHNNKb(1, 0, 1),
            [
                "relations",
                "word_eq_oracle",
                *_DEPTH_2,
                *_RADICAL,
                "radical_quotient",
                "endo_index",
                "britton_vs_rewriting",
            ],
            {
                "commutator_depth_2_vanishes": "derived length 2",
                "commutator_depth_1_witness": "x y x^-1 y^-1",
            },
        ),
        "meta-no-cone-point-conclusive": (
            MetabelianH31(3, 2, 7, 5, F(0)),
            ["relations", "word_eq_oracle", *_DEPTH_2, *_RADICAL, "radical_quotient", "fp_cone"],
            {
                "commutator_depth_2_vanishes": "derived length 2",
                "commutator_depth_1_witness": "a t a^-1 t^-1",
            },
        ),
        "meta-no-cone-point-window-too-small": (
            MetabelianH31(11, 2, 3, 13, F(0)),
            ["relations", "word_eq_oracle", *_DEPTH_2, *_RADICAL, "radical_quotient", "fp_cone"],
            {
                "commutator_depth_2_vanishes": "derived length 2",
                "commutator_depth_1_witness": "a t a^-1 t^-1",
                "fp_cone": "window may be too small to conclude",
            },
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_checks_and_notes(self, case):
        desc, names, notes = self.CASES[case]
        report = run_harness(desc, TrialConfig(seed=11, trials=20))
        assert report.passed
        assert [c.name for c in report.checks] == names
        assert {c.name: c.note for c in report.checks if c.note} == notes

    def test_case_shapes(self):
        assert classify(self.CASES["affine-quotient-z"][0]).quotient.tag == "Z"
        lattice = self.CASES["meta-rank-one-without-minus-one"][0].ratio_lattice
        assert (lattice.rank, lattice.has_minus_one) == (1, False)
        for case in ("meta-no-cone-point-conclusive", "meta-no-cone-point-window-too-small"):
            desc = self.CASES[case][0]
            assert fp_cone_bruteforce((desc.t_ratio, desc.u_ratio), 12) is None
            assert classify(desc).constructible_type is None
