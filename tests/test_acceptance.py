"""Acceptance suite: one test per release criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Every check is exact; the two timed criteria assert
their stated wall-clock budgets.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

from hirsch3 import cli
from hirsch3.classify import Type1, Type2, Type3, classify, is_polycyclic, quotient_type
from hirsch3.families import (
    AscHNNKb,
    BSbar,
    LatticeByZ,
    MetabelianH31,
    affine_compose,
    ops_for,
)
from hirsch3.fixtures import FIXTURES, corrupted_d_infty, fixture_named
from hirsch3.rationals import Mat2Q, conjugate_to_integral
from hirsch3.simplify import StandardForm, standardize
from hirsch3.verify import (
    TrialConfig,
    check_relations,
    commutator_depth_search,
    oracle_word_eq,
    radical_certificate,
    random_word,
    run_harness,
)
from test_rationals import integralize
from test_simplifier import expand_obfuscated, exponent_law

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


def _golden_report(name: str) -> dict:
    data = json.loads((GOLDEN / f"{name}.json").read_text())
    data.pop("version")
    return data


def _envelope_for_fixture(capsys, tmp_path, name: str) -> dict:
    code = cli.main(["examples", "emit", name, "--dir", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    code = cli.main(
        ["classify", str(tmp_path / f"{name}.toml"), "--format", "json"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    data.pop("version")
    return data


def test_criterion_1_word_oracle_agreement():
    descriptors = [
        BSbar(2, 3),
        MetabelianH31(1, 2, 1, 3, F(1)),
        LatticeByZ(Mat2Q.of(0, -2, 1, 0)),
        AscHNNKb(1, 0, 2),
    ]
    start = time.monotonic()
    mismatches = 0
    for desc in descriptors:
        ops = ops_for(desc)
        names = list(ops.generator_names)
        rng = random.Random(f"criterion-1:{desc!r}")
        for _ in range(10_000):
            w1 = random_word(rng, names, 24)
            w2 = random_word(rng, names, 24)
            if ops.word_eq(w1, w2) != oracle_word_eq(desc, w1, w2):
                mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 30.0, f"oracle agreement took {elapsed:.1f}s"


def _random_invertible_rational(rng: random.Random) -> Mat2Q:
    while True:
        entries = [
            F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)
        ]
        p = Mat2Q.of(*entries)
        if p.det() != 0:
            return p


def test_criterion_2_integral_conjugation_lemma():
    rng = random.Random("criterion-2")
    start = time.monotonic()
    for _ in range(1000):
        while True:
            m = Mat2Q.of(*(rng.randint(-9, 9) for _ in range(4)))
            if m.det() != 0:
                break
        p = _random_invertible_rational(rng)
        conj = p.inverse() * m * p
        assert conjugate_to_integral(conj)
        result = integralize(conj)
        assert result is not None
        p2, n = result
        assert p2.inverse() * conj * p2 == n
        assert all(e.denominator == 1 for e in n.entries())
    for _ in range(1000):
        while True:
            m = _random_invertible_rational(rng)
            if m.trace().denominator != 1 or m.det().denominator != 1:
                break
        assert not conjugate_to_integral(m)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"matrix reproduction took {elapsed:.1f}s"


def test_criterion_3_polycyclicity_criterion():
    rng = random.Random("criterion-3")
    for _ in range(200):
        eps = rng.choice((1, -1))
        companion = Mat2Q.of(0, -eps, 1, rng.randint(-9, 9))
        p = _random_invertible_rational(rng)
        m = p.inverse() * companion * p
        assert is_polycyclic(LatticeByZ(m))
    for _ in range(200):
        eps = rng.choice((1, -1))
        companion = Mat2Q.of(0, -2 * eps, 1, rng.randint(-9, 9))
        p = _random_invertible_rational(rng)
        m = p.inverse() * companion * p
        desc = LatticeByZ(m)
        assert not is_polycyclic(desc)
        assert conjugate_to_integral(m)
        ct = classify(desc).constructible_type
        assert isinstance(ct, Type2)


def test_criterion_4_derived_length_suite():
    cfg = TrialConfig(seed=20260819, trials=500)
    meta = fixture_named("bs12_rtimes").descriptor
    assert commutator_depth_search(meta, 2, cfg) is None
    witness = commutator_depth_search(meta, 1, cfg)
    assert witness is not None
    ops = ops_for(meta)
    assert not ops.is_identity(ops.of_word(witness))

    dihedral = fixture_named("d_infty_amalgam").descriptor
    assert commutator_depth_search(dihedral, 3, cfg) is None
    witness = commutator_depth_search(dihedral, 2, cfg)
    assert witness is not None
    ops = ops_for(dihedral)
    assert not ops.is_identity(ops.of_word(witness))

    for fixture in FIXTURES:
        assert commutator_depth_search(fixture.descriptor, 3, cfg) is None, fixture.name


def test_criterion_5_trichotomy_fixtures_golden(capsys, tmp_path):
    ct = classify(fixture_named("bs12_rtimes").descriptor).constructible_type
    assert ct == Type1(6)
    ct = classify(fixture_named("lattice_asc").descriptor).constructible_type
    assert ct == Type2("Z2")
    ct = classify(fixture_named("lattice_sol").descriptor).constructible_type
    assert ct == Type3()

    nonconstructible = MetabelianH31(3, 2, 1, 5, F(0))
    report = classify(nonconstructible)
    assert not report.constructible
    assert report.constructible_type is None
    assert report.cohomological_dimension == 4

    for name in ("bs12_rtimes", "lattice_asc", "lattice_sol"):
        assert _envelope_for_fixture(capsys, tmp_path, name) == _golden_report(
            name
        ), name
    path = tmp_path / "nonconstructible_ratios.toml"
    path.write_text(
        cli.serialize_descriptor_file(cli.DescriptorFile(nonconstructible))
    )
    capsys.readouterr()
    assert cli.main(["classify", str(path), "--format", "json"]) == 0
    actual = json.loads(capsys.readouterr().out)
    actual.pop("version")
    assert actual == _golden_report("nonconstructible_ratios")


def test_criterion_6_coherence_and_fp2():
    type1 = classify(fixture_named("bs12_rtimes").descriptor)
    assert type1.coherent.value is False
    for name in ("z_plus_z2", "lattice_asc"):
        report = classify(fixture_named(name).descriptor)
        assert isinstance(report.constructible_type, Type2), name
        assert report.coherent.value is True, name
    assert classify(BSbar(2, 3)).fp2.value is False


def _random_standard_form(rng: random.Random) -> StandardForm:
    small = [2, 3, 4, 5, 6]  # prime factors at most 5
    if rng.random() < 0.5:
        m, n = 1, rng.choice(small) * rng.choice((-1, 1))
    else:
        m, n = rng.choice(small[:-1]), rng.choice((-1, 1))
    while True:
        p = rng.randint(1, 5)
        q = rng.randint(1, 5) * rng.choice((-1, 1))
        if gcd(p, q) == 1:
            break
    return StandardForm(m, n, p, q, rng.randint(-4, 4))


def test_criterion_7_simplifier_round_trip():
    rng = random.Random("criterion-7")
    for _ in range(100):
        sf = _random_standard_form(rng)
        pres = expand_obfuscated(sf, rng.randint(0, 3), rng)
        assert standardize(pres) == sf
        for window in (0, 1, 2):
            total, table = exponent_law(sf.m, sf.n, sf.p, sf.q, window)
            assert total == (sf.m * sf.n * sf.p * sf.q) ** window
            assert table[(0, 0)] == total
            for (i, j), value in table.items():
                assert isinstance(value, int)
                if (i + 1, j) in table:
                    assert sf.m * table[(i + 1, j)] == sf.n * value
                if (i, j + 1) in table:
                    assert sf.p * table[(i, j + 1)] == sf.q * value


def test_criterion_8_fixture_certification():
    cfg = TrialConfig(seed=77, trials=80)
    for fixture in FIXTURES:
        relations = check_relations(fixture.descriptor, fixture.presentation)
        assert relations.passed, (fixture.name, relations.counterexample)
        report = radical_certificate(fixture.descriptor, cfg)
        bad = [c.name for c in report.checks if not c.passed]
        assert not bad, (fixture.name, bad)

    # dihedral quotient witnesses: involution squares land in the radical
    # while u v keeps infinite order in the quotient, scanned to order 50
    dihedral = fixture_named("d_infty_amalgam").descriptor
    assert quotient_type(dihedral).tag == "Dinfty"
    cert = radical_certificate(dihedral, cfg)
    quotient_checks = [c for c in cert.checks if c.name == "radical_quotient"]
    assert quotient_checks and quotient_checks[0].passed

    fmod = fixture_named("f_mod_kprime").descriptor
    report = classify(fmod)
    assert report.quotient is not None and report.quotient.tag == "Dinfty"
    assert report.fp2.value is False
    assert report.cohomological_dimension == 4
    maps = dict(fmod.generators)
    composite = affine_compose(maps["u"], maps["v"]).linear
    assert composite.trace() == F(2, 3)
    assert not conjugate_to_integral(composite)
    assert not conjugate_to_integral(composite.inverse())

    corrupted = corrupted_d_infty()
    relations = check_relations(corrupted.descriptor, corrupted.presentation)
    assert not relations.passed
    undersized = radical_certificate(BSbar(1, 1), cfg, hirsch_claim=1)
    assert any(not c.passed for c in undersized.checks)


def test_criterion_9_manifold_dimension_metadata(capsys, tmp_path):
    for name in ("lattice_sol", "d_infty_amalgam"):
        md = classify(fixture_named(name).descriptor).manifold_dim
        assert (md.lower, md.upper, md.exact) == (3, 3, 3), name
    md = classify(fixture_named("bs12_rtimes").descriptor).manifold_dim
    assert (md.lower, md.upper, md.exact) == (5, 5, 5)
    for name in ("z_plus_z2", "lattice_asc"):
        md = classify(fixture_named(name).descriptor).manifold_dim
        assert (md.lower, md.upper, md.exact) == (5, 6, None), name
    for name in ("lattice_sol", "bs12_rtimes", "z_plus_z2", "lattice_asc"):
        assert _envelope_for_fixture(capsys, tmp_path, name) == _golden_report(
            name
        ), name
