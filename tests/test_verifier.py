"""Tests for the independent oracles and the randomized harness."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import hirsch3.verify as verify_module
from hirsch3.classify import classify
from hirsch3.families import (
    FAMILIES,
    AffineMap2,
    AffineQ2,
    AscHNNKb,
    BSbar,
    GroupOps,
    LatticeByZ,
    MetabelianH31,
    RankOneQ,
    ops_for,
)
from hirsch3.fixtures import FIXTURES, corrupted_d_infty, fixture_named
from hirsch3.rationals import Mat2Q, mult_rank
from hirsch3.verify import (
    _CANDIDATE_CAP,
    MAX_WORD_LENGTH,
    CheckResult,
    _VERIFIERS,
    _RadicalModel,
    _certificate_checks,
    _quotient_check,
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
from hirsch3.words import Word, parse_word

F = Fraction

CFG = TrialConfig(seed=11, trials=60)


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
            relations = ops.family.relations(desc)
            assert relations, desc
            for label, relator in relations:
                assert ops.is_identity(ops.of_word(relator)), (desc, label)

    def test_check_relations_accepts_fixture_presentations(self):
        for fixture in FIXTURES:
            if fixture.presentation is None:
                continue
            result = check_relations(fixture.descriptor, fixture.presentation)
            assert result.passed, (fixture.name, result.counterexample)

    def test_corrupted_fixture_fails_with_offending_relator(self):
        bad = corrupted_d_infty()
        result = check_relations(bad.descriptor, bad.presentation)
        assert not result.passed
        assert result.counterexample is not None
        assert "v^2" in result.counterexample

    def test_affine_without_presentation_is_vacuous(self):
        desc = fixture_named("d_infty_amalgam").descriptor
        result = check_relations(desc)
        assert result.passed
        assert "presentation" in result.note


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
        relations = ops.family.relations(desc)
        rng = random.Random(f"oracle-lacing:{desc!r}")
        for _ in range(80):
            w = random_word(rng, names, 8)
            _, relator = relations[rng.randrange(len(relations))]
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

    def test_identical_words_short_circuit(self):
        w = parse_word("x y s")
        assert rewrite_closure_eq(self.RELATORS, w, w) is True


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
        FIXTURES + (corrupted_d_infty(),),
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
        from hirsch3.classify import Type1, fp_status

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
            rank, _ = mult_rank((r1, r2))
            if rank != 2:
                continue
            tested += 1
            desc = MetabelianH31(
                r1.denominator, r1.numerator, r2.denominator, r2.numerator, F(0)
            )
            point = fp_cone_bruteforce((r1, r2), 12)
            _, ctype, _ = fp_status(desc)
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
            ("u", AffineMap2(Mat2Q.of(1, 0, 0, -1), (F(1, 2), F(0)))),
            ("v", AffineMap2(v_linear, (F(0), F(1, 2)))),
            ("x", AffineMap2(Mat2Q.identity(), (F(1), F(0)))),
            ("y", AffineMap2(Mat2Q.identity(), (F(0), F(1)))),
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
    y = g.translation[1]
    return g.is_unipotent() and y.denominator == 1 and y.numerator % 2 == 0


def _hnn_even(g) -> bool:
    return g.j == g.i and g.g.a % 2 == 0


_D_INFTY = fixture_named("d_infty_amalgam").descriptor
# d_infty_amalgam with a dilation added: no dihedral witness pair reduces it
_D_INFTY_DILATED = AffineQ2(
    _D_INFTY.generators
    + (("w", AffineMap2(Mat2Q.of(2, 0, 0, 2), (F(0), F(0)))),)
)
_META = MetabelianH31(1, 2, 1, 3, F(1))


class TestQuotientWitnesses:
    """The radical-quotient check given a wrong witness or too small a
    radical: each driver's failure paths, with their counterexample and
    trial count."""

    CASES = [
        (BSbar(2, 3), lambda g: g.i == 0, ("Z", "a"), "a^1 lies in the radical", 1),
        (
            BSbar(2, 3),
            lambda g: g.i == 0,
            ("Z", "t^2"),
            "a sampled element does not reduce to the radical by a power of t^2",
            25,
        ),
        (_META, lambda g: g.x == 0 and g.i == g.j == 0, ("Z2", "t", "u"), "[t, u] is not in the radical", 1),
        (_META, lambda g: g.i == g.j == 0, ("Z2", "t", "t"), "t^-4 t^4 lies in the radical", 10),
        (
            _META,
            lambda g: g.i == g.j == 0,
            ("Z2", "t", "u^2"),
            "a sampled element does not reduce to the radical by powers of t and u^2",
            707,
        ),
        (AscHNNKb(1, 0, 2), _hnn_even, ("ZplusZ2", "s", "y"), "y lies in the radical", 2),
        (AscHNNKb(1, 0, 2), _hnn_even, ("ZplusZ2", "s", "x^2"), "x^2 lies in the radical", 2),
        (
            AscHNNKb(1, 0, 2),
            lambda g: g.j - g.i == 0 and g.g.a == 0,
            ("ZplusZ2", "s", "x"),
            "x^2 is not in the radical",
            2,
        ),
        (
            AscHNNKb(1, 1, 2),
            lambda g: _hnn_even(g) and g.g.b == 0,
            ("ZplusZ2", "s", "x"),
            "[s, x] is not in the radical",
            3,
        ),
        (AscHNNKb(1, 0, 2), _hnn_even, ("ZplusZ2", "y", "x"), "y^1 lies in the radical", 5),
        (AscHNNKb(1, 0, 2), _hnn_even, ("ZplusZ2", "x y", "x"), "(x y)^1 x lies in the radical", 5),
        (
            AscHNNKb(1, 0, 2),
            _hnn_even,
            ("ZplusZ2", "s^2", "x"),
            "a sampled element does not reduce to the radical by powers of s^2 and x",
            54,
        ),
        (_D_INFTY, AffineMap2.is_unipotent, ("Dinfty", "u", "y"), "a dihedral witness lies in the radical", 4),
        (
            _D_INFTY,
            _even_y_shift,
            ("Dinfty", "u", "v"),
            "a squared dihedral witness is not in the radical",
            4,
        ),
        (_D_INFTY, AffineMap2.is_unipotent, ("Dinfty", "u", "u y"), "(u u y)^1 lies in the radical", 5),
        (
            _D_INFTY_DILATED,
            AffineMap2.is_unipotent,
            ("Dinfty", "u", "v"),
            "a sampled element does not reduce to the radical by the dihedral witnesses",
            56,
        ),
        (
            BSbar(2, 3),
            lambda g: g.i == 0,
            ("VirtuallyTrivial",),
            "no small power of t enters the radical",
            13,
        ),
        (
            _META,
            lambda g: g.i == 0 or g.j == 0,
            ("VirtuallyTrivial",),
            "no small power of u^-1 t^-1 u t^-1 u enters the radical",
            18,
        ),
    ]

    @pytest.mark.parametrize(
        "desc, member, quotient, message, trials",
        CASES,
        ids=[f"{c[2][0]}-{i}" for i, c in enumerate(CASES)],
    )
    def test_wrong_witness_fails(self, desc, member, quotient, message, trials):
        tag, *words = quotient
        model = _RadicalModel(
            True, (), member, (tag, *(parse_word(w) for w in words))
        )
        result = _quotient_check(desc, ops_for(desc), model, TrialConfig())
        assert result.passed is False
        assert (result.counterexample, result.trials) == (message, trials)

    def test_radical_that_is_not_normal_fails(self):
        # <a> alone is not normal in BSbar(2, 3): t a t^-1 = a^(3/2)
        desc = BSbar(2, 3)
        model = _RadicalModel(
            True, (Word.gen("a"),), lambda g: g.i == 0 and g.x.denominator == 1, ("Z", Word.gen("t"))
        )
        normal = _certificate_checks(desc, ops_for(desc), model, TrialConfig())[1]
        assert (normal.name, normal.passed) == ("radical_normal", False)
        assert (normal.counterexample, normal.trials) == ("t a t^-1", 3)


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
        with pytest.raises(TypeError):
            oracle_word_eq(object(), Word.identity(), Word.identity())


class TestHarness:
    def test_fixtures_pass(self):
        for fixture in FIXTURES:
            report = run_harness(
                fixture.descriptor, CFG, relators=fixture.presentation
            )
            assert not failing(report), (
                fixture.name,
                [(c.name, c.counterexample) for c in failing(report)],
            )

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


def _translation(x, y) -> AffineMap2:
    return AffineMap2(Mat2Q.identity(), (F(x), F(y)))


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
            AffineQ2(_XY + (("t", AffineMap2(Mat2Q.of(2, 1, 1, 1), (F(0), F(0)))),)),
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
