"""Tests for descriptor files, report envelopes, and the command surface."""

from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hirsch3 import classify as classify_module
from hirsch3 import InputError, cli
from hirsch3.classify import InvariantViolation
from hirsch3.families import (
    FAMILIES,
    AffineMap2,
    AffineQ2,
    AscHNNKb,
    BSbar,
    LatticeByZ,
    MetabelianH31,
    RankOneQ,
    ops_for,
)
from hirsch3.fixtures import FIXTURES, corrupted_d_infty, fixture_named
from hirsch3.rationals import Mat2Q

F = Fraction
# sha256 and exit code of each seed-0 and seed-1 verify report: a fixed seed
# must keep giving byte-identical reports whatever the code underneath
VERIFY_DIGESTS = {
    seed: json.loads(
        (Path(__file__).parent / "golden" / f"verify_seed{seed}_sha256.json").read_text()
    )
    for seed in (0, 1)
}
DIGEST_CASES = [
    (seed, name) for seed, digests in VERIFY_DIGESTS.items() for name in digests["reports"]
]


def run(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def emit(tmp_path: Path, name: str) -> Path:
    code = cli.main(["examples", "emit", name, "--dir", str(tmp_path)])
    assert code == 0
    return tmp_path / f"{name}.toml"


_UNIPOTENT = "family = lattice_by_z\nmatrix = 1 1 0 1\n"
_TRANSLATION = (
    "family = affine_q2\ngenerators = u\n"
    "gen.u.linear = 1 0 0 1\ngen.u.translation = 1 1\n"
)
_DILATION = (
    "family = affine_q2\ngenerators = u\n"
    "gen.u.linear = 2 0 0 1\ngen.u.translation = 0 1\n"
)


_I, _FLIP = "1 0 0 1", "1 0 0 -1"


def _affine_text(*gens: tuple[str, str, str]) -> str:
    """An affine_q2 file with these (name, linear, translation) generators."""
    names = " ".join(name for name, _, _ in gens)
    lines = "".join(
        f"gen.{name}.linear = {linear}\ngen.{name}.translation = {shift}\n"
        for name, linear, shift in gens
    )
    return f"family = affine_q2\ngenerators = {names}\n{lines}"


def _prime_translations(count: int) -> list[tuple[str, str, str]]:
    """Generators x0, x1, ... translating by (1/p, 0) for the first `count`
    primes p: parallel translations with many distinct short words."""
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return [(f"x{i}", "1 0 0 1", f"1/{p} 0") for i, p in enumerate(primes)]


def _descriptor_path(tmp_path: Path, name_or_text: str) -> Path:
    """A fixture's emitted file, or a file holding the given text."""
    if "\n" not in name_or_text:
        return emit(tmp_path, name_or_text)
    path = tmp_path / "descriptor.toml"
    path.write_text(name_or_text)
    return path


class TestDescriptorFiles:
    @pytest.mark.parametrize("fixture", FIXTURES, ids=[f.name for f in FIXTURES])
    def test_serialize_parse_round_trip(self, fixture):
        text = cli.serialize_descriptor_file(fixture)
        assert cli.parse_descriptor_text(text) == fixture

    def test_value_may_contain_equals_sign(self):
        text = (
            "family = asc_hnn_kb\ne = 1\nf = 0\nd = 2\n"
            "presentation = < x, y, s | x y x^-1 = y^-1, s x s^-1 = x, "
            "s y s^-1 = y^2 >\n"
        )
        df = cli.parse_descriptor_text(text)
        assert df.descriptor == AscHNNKb(1, 0, 2)
        assert df.presentation is not None
        assert len(df.presentation.relators) == 3

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nfamily = bsbar\nm = 2\n\n# more\nn = 3\n"
        assert cli.parse_descriptor_text(text).descriptor == BSbar(2, 3)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(cli.DescriptorFileError, match="line 2"):
            cli.parse_descriptor_text("family = bsbar\nno equals here\n")
        with pytest.raises(cli.DescriptorFileError, match="line 3"):
            cli.parse_descriptor_text("family = bsbar\nm = 2\nm = 3\n")
        with pytest.raises(cli.DescriptorFileError, match="integer"):
            cli.parse_descriptor_text("family = bsbar\nm = 2\nn = x\n")

    def test_unknown_family_and_stray_keys_rejected(self):
        with pytest.raises(cli.DescriptorFileError, match="unknown family"):
            cli.parse_descriptor_text("family = unicorn\n")
        with pytest.raises(cli.DescriptorFileError, match="unknown key"):
            cli.parse_descriptor_text("family = bsbar\nm = 2\nn = 3\nq = 1\n")
        with pytest.raises(cli.DescriptorFileError, match="missing"):
            cli.parse_descriptor_text("family = bsbar\nm = 2\n")

    def test_invalid_parameters_are_input_errors(self):
        with pytest.raises(cli.DescriptorFileError, match="bsbar"):
            cli.parse_descriptor_text("family = bsbar\nm = 0\nn = 3\n")

    def test_parameters_are_limited_to_64_bits(self):
        df = cli.parse_descriptor_text(f"family = bsbar\nm = 1\nn = {2**64 - 1}\n")
        assert df.descriptor == BSbar(1, 2**64 - 1)
        with pytest.raises(cli.DescriptorFileError, match="line 2: key 'matrix'.* 64 bits"):
            cli.parse_descriptor_text(f"family = lattice_by_z\nmatrix = 1 0 0 1/{2**64}\n")
        with pytest.raises(cli.DescriptorFileError, match="key 'generators'.* 64 bits"):
            cli.parse_descriptor_text(f"family = rank_one_q\ngenerators = 2 -{2**64}/3\n")

    def test_matrix_arity_checked(self):
        with pytest.raises(cli.DescriptorFileError, match="4 rationals"):
            cli.parse_descriptor_text("family = lattice_by_z\nmatrix = 1 2 3\n")

    def test_non_utf8_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.toml"
        path.write_bytes(b"family = bsbar\nname = caf\xe9\nm = 2\nn = 3\n")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2
        assert err.startswith("error: cannot read") and "UTF-8" in err

    def test_digest_ignores_cosmetic_fields(self):
        desc = LatticeByZ(Mat2Q.of(2, 1, 1, 1))
        a = cli.input_digest(cli.DescriptorFile(desc, "one", "note a"))
        b = cli.input_digest(cli.DescriptorFile(desc, "two", None))
        assert a == b
        assert a.startswith("sha256:")
        other = cli.input_digest(
            cli.DescriptorFile(LatticeByZ(Mat2Q.of(0, -2, 1, 0)))
        )
        assert other != a


class TestClassifyCommand:
    def test_text_report_fields(self, capsys, tmp_path):
        path = emit(tmp_path, "bsbar_23")
        capsys.readouterr()
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert "finitely presentable:     false" in out
        assert "cohomological dimension:  3" in out

    def test_json_envelope_is_stable_under_reserialization(self, capsys, tmp_path):
        path = emit(tmp_path, "lattice_sol")
        capsys.readouterr()
        code, out, _ = run(capsys, "classify", str(path), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert json.dumps(data, indent=2, sort_keys=True) + "\n" == out
        assert data["tool"] == "hirsch3"
        assert data["input_digest"].startswith("sha256:")
        assert data["report"]["constructible_type"] == {"kind": "Type3"}

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", str(tmp_path / "absent.toml"))
        assert code == 2
        assert "cannot read" in err

    def test_invariant_violation_is_internal_error(
        self, capsys, tmp_path, monkeypatch
    ):
        path = emit(tmp_path, "bsbar_23")
        capsys.readouterr()

        def boom(desc):
            raise InvariantViolation("induced report is inconsistent")

        monkeypatch.setattr(cli, "classify", boom)
        code, _, err = run(capsys, "classify", str(path))
        assert code == 3
        assert "internal error" in err

    def test_65_bit_parameter_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "big.toml"
        path.write_text(f"family = bsbar\nm = 1\nn = {2**64}\n")
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 3: key 'n'") and len(err.splitlines()) == 1
        assert "64 bits" in err

    def test_generator_name_no_word_spells_is_input_error(self, capsys, tmp_path):
        # "1" parses as the identity, so no word could name this generator
        text = _affine_text(("1", "1 0 0 1", "1 0"), ("x", "1 0 0 1", "0 1"))
        code, out, err = run(capsys, "classify", str(_descriptor_path(tmp_path, text)))
        assert (code, out) == (2, "")
        assert err == (
            "error: invalid affine_q2 parameters: generator name '1' is not an identifier\n"
        )

    def test_repeated_affine_generator_name_is_input_error(self, capsys, tmp_path):
        text = _affine_text(("x", "1 0 0 1", "1 0")).replace("generators = x", "generators = x x")
        code, out, err = run(capsys, "classify", str(_descriptor_path(tmp_path, text)))
        assert (code, out) == (2, "")
        assert err == "error: invalid affine_q2 parameters: generator names must be distinct\n"

    @pytest.mark.parametrize(
        "text",
        [
            "family = bsbar\nm = 1\nn = 1000000000000000003\n",
            "family = metabelian_h31\nm = 1\nn = 1000000000000000003\n"
            "p = 1\nq = 1000000000000000009\ne = 1\n",
        ],
        ids=["bsbar", "metabelian_h31"],
    )
    def test_19_digit_prime_parameters_classify_quickly(self, capsys, tmp_path, text):
        # Miller-Rabin proves each 60-bit parameter prime at once, where trial
        # division would take about 5 * 10^8 steps
        path = tmp_path / "primes.toml"
        path.write_text(text)
        start = time.monotonic()
        code, out, err = run(capsys, "classify", str(path))
        assert time.monotonic() - start < 1.0
        assert (code, err) == (0, "")
        assert "Z[1/1000000000000000" in out

    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_factoring_past_its_budget_is_input_error(self, capsys, tmp_path, command):
        # the determinant (2^61 - 1)^2 lies above the Miller-Rabin bound and
        # has no prime below 2^61, so trial division alone could never end
        path = tmp_path / "mersenne.toml"
        path.write_text(
            "family = lattice_by_z\n"
            "matrix = 2305843009213693951 0 0 2305843009213693951\n"
        )
        start = time.monotonic()
        code, out, err = run(capsys, command, str(path))
        assert time.monotonic() - start < 2.0
        assert (code, out) == (2, "")
        assert err.startswith("error: factoring a 37-digit integer needs more than")
        assert len(err.splitlines()) == 1

    def test_realized_ratio_past_its_budget_is_input_error(self, capsys, tmp_path):
        # the smallest realized ratio, 6 * 5^400 at (i, j) = (19, 21), lies
        # millions of candidates past the search budget
        path = tmp_path / "meta.toml"
        path.write_text(
            f"family = metabelian_h31\nm = {3**11}\nn = {10**10}\n"
            f"p = {2**9}\nq = {3**10 * 5**10}\ne = 0\n"
        )
        start = time.monotonic()
        code, out, err = run(capsys, "classify", str(path))
        assert time.monotonic() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            "error: the smallest realized ratio lies past the search budget "
            "of 40000 candidates\n"
        )

    def test_product_of_two_40_bit_primes_is_input_error(self, capsys, tmp_path):
        # the determinant is a 25-digit semiprime below the Miller-Rabin
        # bound, and Pollard-Brent needs about 3.3 million steps to split it
        path = tmp_path / "semiprime.toml"
        path.write_text("family = lattice_by_z\nmatrix = 1010610212239 0 0 1531891455277\n")
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (2, "")
        assert err == "error: factoring a 25-digit integer needs more than 2000000 steps\n"

    def test_sixty_parallel_translations_classify_quickly(self, capsys, tmp_path):
        # the translation rank takes one product per generator; parallel
        # translations never show a second direction that would end a search
        path = tmp_path / "translations.toml"
        path.write_text(_affine_text(*_prime_translations(60)))
        start = time.monotonic()
        code, out, err = run(capsys, "classify", str(path))
        assert time.monotonic() - start < 2.0
        assert (code, err) == (0, "")
        assert "hirsch length:            1\n" in out

    def test_file_without_family_is_input_error(self, capsys, tmp_path):
        path = _descriptor_path(tmp_path, "m = 2\nn = 3\n")
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out, err) == (2, "", "error: missing required key 'family'\n")

    @pytest.mark.parametrize(
        "gens",
        [
            # r r = 1
            (("x", _I, "1 0"), ("y", _I, "0 1"), ("r", _FLIP, "0 0")),
            # x^-1 s is (diag(1, -1), 0), an involution
            (("s", _FLIP, "1/2 0"), ("x", _I, "1/2 0"), ("y", _I, "0 1")),
            # infinite dihedral image with no translation: u u = 1
            (("u", _FLIP, "0 0"), ("v", "2 -1 3 -2", "0 0")),
        ],
        ids=["reflection", "glide-over-half-translation", "dinfty-no-translation"],
    )
    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_affine_group_with_torsion_is_input_error(self, capsys, tmp_path, gens, command):
        path = _descriptor_path(tmp_path, _affine_text(*gens))
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == "error: affine descriptor presents a group with torsion\n"

    def test_klein_bottle_group_still_classifies(self, capsys, tmp_path):
        # the glide's square (I, (1, 0)) is x, so no element over the
        # reflection squares to 1
        gens = (("g", _FLIP, "1/2 0"), ("x", _I, "1 0"), ("y", _I, "0 1"))
        path = _descriptor_path(tmp_path, _affine_text(*gens))
        code, out, err = run(capsys, "classify", str(path), "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)["report"]
        assert (report["hirsch_length"], report["cohomological_dimension"]) == (2, 2)
        assert report["minimax"]["sections"] == ["Z", "Z", "finite"]

    @pytest.mark.parametrize(
        "fixture", FIXTURES, ids=[f.name for f in FIXTURES]
    )
    def test_matches_committed_golden(self, capsys, tmp_path, fixture):
        path = emit(tmp_path, fixture.name)
        capsys.readouterr()
        code, out, _ = run(capsys, "classify", str(path), "--format", "json")
        assert code == 0
        golden = Path(__file__).parent / "golden" / f"{fixture.name}.json"
        expected = json.loads(golden.read_text())
        actual = json.loads(out)
        expected.pop("version")
        actual.pop("version")
        dump = lambda d: json.dumps(d, indent=2, sort_keys=True)
        assert dump(actual) == dump(expected)


class TestWordEqCommand:
    def test_equal_with_normal_forms(self, capsys, tmp_path):
        path = emit(tmp_path, "bsbar_23")
        capsys.readouterr()
        code, out, _ = run(capsys, "word-eq", str(path), "t a^2 t^-1", "a^3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "equal"
        assert lines[1].endswith("a^3")

    def test_unequal(self, capsys, tmp_path):
        path = emit(tmp_path, "bsbar_23")
        capsys.readouterr()
        code, out, _ = run(capsys, "word-eq", str(path), "a", "t")
        assert code == 0
        assert out.splitlines()[0] == "unequal"

    def test_kb_relator_is_identity(self, capsys, tmp_path):
        path = emit(tmp_path, "z_plus_z2")
        capsys.readouterr()
        code, out, _ = run(capsys, "word-eq", str(path), "x y x^-1 y", "1")
        assert code == 0
        assert out.splitlines()[0] == "equal"

    def test_fractional_normal_form_rendering(self, capsys, tmp_path):
        path = emit(tmp_path, "bsbar_23")
        capsys.readouterr()
        code, out, _ = run(capsys, "word-eq", str(path), "t^-1 a t", "a")
        assert code == 0
        assert out.splitlines()[0] == "unequal"
        assert "a^(2/3)" in out

    def test_unknown_generator_is_input_error(self, capsys, tmp_path):
        path = emit(tmp_path, "bsbar_23")
        capsys.readouterr()
        code, _, err = run(capsys, "word-eq", str(path), "z", "a")
        assert code == 2
        assert "error" in err

    def test_unprintable_normal_form_is_input_error(self, capsys, tmp_path):
        # a^(2^20000) has about 6,000 digits, past Python's default limit
        # on integer-to-string conversion
        path = emit(tmp_path, "bs12_rtimes")
        capsys.readouterr()
        code, out, err = run(capsys, "word-eq", str(path), "t^20000 a t^-20000", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "limit" in err

    def test_two_19_digit_prime_parameters_answer_quickly(self, capsys, tmp_path):
        # e is checked against Z[1/mnpq] by gcd stripping: nothing factors
        # the 120-bit product n q
        path = tmp_path / "primes.toml"
        path.write_text(
            "family = metabelian_h31\nm = 1\nn = 1000000000000000003\n"
            "p = 1\nq = 1000000000000000009\ne = 1\n"
        )
        start = time.monotonic()
        code, out, err = run(capsys, "word-eq", str(path), "a", "a")
        assert time.monotonic() - start < 1.0
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "equal"

    def test_overlong_word_power_is_input_error(self, capsys, tmp_path):
        # refused before a syllable is built: spelled out, it needs terabytes
        path = emit(tmp_path, "bs12_rtimes")
        capsys.readouterr()
        code, out, err = run(capsys, "word-eq", str(path), "(t u a)^1000000000000", "1")
        assert (code, out) == (2, "")
        assert err == (
            "error: a word of 3 syllables to the power 1000000000000 would spell "
            "3000000000000 syllables, over the bound of 1048576\n"
        )

    def test_overlong_exponent_is_input_error(self, capsys, tmp_path):
        path = emit(tmp_path, "bs12_rtimes")
        capsys.readouterr()
        code, out, err = run(capsys, "word-eq", str(path), "a^" + "9" * 5000, "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "digits" in err


    @pytest.mark.parametrize(
        "name, word, normal_form",
        [
            # x = phi(x), so each s pair cancels: one step per pair looped 2^61 times
            ("z_plus_z2", f"s^-{2**61 - 1} x s^{2**61 - 1}", "x"),
            # phi^(2^61 - 2)(x) = x needs no power of d = 2
            ("z_plus_z2", f"s x s^-{2**61 - 1} x^-1", f"s^-{2**61 - 2}"),
            # x y^(2^200000) takes 200,000 preimage steps, counted at once
            (
                "z_plus_z2",
                "s^-300000 x s^200000 y s^-200000 x^-1 s^300000",
                "s^-100000 y^-1 s^100000",
            ),
            (_UNIPOTENT, f"t^{2**61 - 1} a", f"a t^{2**61 - 1}"),
            (_TRANSLATION, f"u^{2**61 - 1}", f"translation ({2**61 - 1}, {2**61 - 1})"),
        ],
    )
    def test_huge_power_with_a_small_normal_form_answers_quickly(
        self, capsys, tmp_path, name, word, normal_form
    ):
        path = _descriptor_path(tmp_path, name)
        capsys.readouterr()
        start = time.monotonic()
        code, out, err = run(capsys, "word-eq", str(path), word, word)
        assert time.monotonic() - start < 2.0
        assert (code, err) == (0, "")
        assert out.splitlines()[1].endswith(normal_form)

    @pytest.mark.parametrize(
        "name, word",
        [
            ("bs12_rtimes", f"t^{2**61 - 1} a"),  # 2^(2^61 - 1)
            ("z_plus_z2", f"s y s^-{2**61 - 1}"),  # y^(2^(2^61 - 2))
            ("lattice_sol", f"t^{2**61 - 1} a"),  # a hyperbolic matrix's power
            (_DILATION, f"u^{2**61 - 1}"),  # an affine map's
        ],
    )
    def test_power_past_its_budget_is_input_error(self, capsys, tmp_path, name, word):
        path = _descriptor_path(tmp_path, name)
        capsys.readouterr()
        start = time.monotonic()
        code, out, err = run(capsys, "word-eq", str(path), word, "1")
        assert time.monotonic() - start < 2.0
        assert (code, out) == (2, "")
        assert err == "error: a power would have more than 262144 bits\n"

    def test_printable_passes_other_refusals_through(self):
        def refuse() -> str:
            raise InputError("not a digit limit")

        with pytest.raises(InputError, match="^not a digit limit$"):
            cli._printable("a normal form", refuse)


class TestSimplifyCommand:
    def test_round_trip_from_presentation_file(self, capsys, tmp_path):
        src = tmp_path / "pres.txt"
        src.write_text(
            "< a, t, u | t a t^-1 = a^2, u a u^-1 = a^5, "
            "u t u^-1 t^-1 = a^2 >\n"
        )
        code, out, _ = run(capsys, "simplify", str(src))
        assert code == 0
        assert "m=1 n=2 p=1 q=5 c=2" in out

    def test_out_of_fragment_diagnostic(self, capsys, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_text(
            "< a, t, u | t a^2 t^-1 = a^3, u a u^-1 = a^5, "
            "u t u^-1 t^-1 = a^2 >\n"
        )
        code, _, err = run(capsys, "simplify", str(src))
        assert code == 2
        assert "Baumslag-Solitar" in err

    def test_deep_commutator_atoms_answer_quickly(self, capsys, tmp_path):
        # atoms at depth 300 used to build a 601 x 601 table of exponents
        src = tmp_path / "deep.txt"
        src.write_text(
            "< a, t, u | t a t^-1 = a^2, u a u^-1 = a^3, "
            "[u, t] = a t^300 a t^-300 a^-1 >\n"
        )
        start = time.monotonic()
        code, out, err = run(capsys, "simplify", str(src))
        assert time.monotonic() - start < 0.5
        assert (code, err) == (0, "")
        assert f"m=1 n=2 p=1 q=3 c={2**300}\n" in out

    def test_unprintable_standard_form_is_input_error(self, capsys, tmp_path):
        # c = 2^100000 has more digits than Python converts to a string
        src = tmp_path / "huge.txt"
        src.write_text(
            "< a, t, u | t a t^-1 = a^2, u a u^-1 = a^3, "
            "[u, t] = a t^100000 a t^-100000 a^-1 >\n"
        )
        code, out, err = run(capsys, "simplify", str(src))
        assert (code, out) == (2, "")
        assert err == (
            "error: the standard form has an integer longer than Python's "
            f"integer-to-string limit of {sys.get_int_max_str_digits()} digits\n"
        )

    def test_huge_conjugate_power_is_input_error(self, capsys, tmp_path):
        # the atom t^K a t^-K weighs 2^K, refused before it is computed
        src = tmp_path / "huger.txt"
        src.write_text(
            "< a, t, u | t a t^-1 = a^2, u a u^-1 = a^3, "
            f"[u, t] = a t^{10**30} a t^-{10**30} a^-1 >\n"
        )
        start = time.monotonic()
        code, out, err = run(capsys, "simplify", str(src))
        assert time.monotonic() - start < 2.0
        assert (code, out) == (2, "")
        assert err == "error: a power would have more than 262144 bits\n"

    def test_descriptor_file_without_presentation_rejected(
        self, capsys, tmp_path
    ):
        path = emit(tmp_path, "bsbar_23")
        capsys.readouterr()
        code, _, err = run(capsys, "simplify", str(path))
        assert code == 2
        assert "no presentation" in err


class TestVerifyCommand:
    def test_fixture_passes_with_exit_zero(self, capsys, tmp_path):
        path = emit(tmp_path, "bsbar_23")
        capsys.readouterr()
        code, out, _ = run(capsys, "verify", str(path), "--trials", "40")
        assert code == 0
        data = json.loads(out)
        assert data["report"]["passed"] is True

    def test_corrupted_fixture_fails_with_exit_four(self, capsys, tmp_path):
        bad = corrupted_d_infty()
        path = tmp_path / "corrupted.toml"
        path.write_text(
            cli.serialize_descriptor_file(
                cli.DescriptorFile(
                    bad.descriptor, bad.name, None, bad.presentation
                )
            )
        )
        code, out, err = run(capsys, "verify", str(path), "--trials", "25")
        assert code == 4
        assert "relations" in err
        data = json.loads(out)
        assert data["report"]["passed"] is False

    def test_trivial_group_verifies(self, capsys, tmp_path):
        # a rank-one group with no generators is the trivial group: random
        # words over no letters are empty, not an IndexError
        path = tmp_path / "trivial.toml"
        path.write_text("family = rank_one_q\nname = trivial\ngenerators =\n")
        code, out, err = run(capsys, "verify", str(path), "--trials", "20")
        assert (code, err) == (0, "")
        checks = json.loads(out)["report"]["checks"]
        assert len(checks) == 8 and all(c["passed"] for c in checks)

    @pytest.mark.parametrize(
        "option",
        [
            ("--trials", "0"),
            ("--seed", "-1"),
            ("--window", "-1"),
            ("--window", "0"),
            ("--window", "101"),
        ],
        ids=["trials", "seed", "window-negative", "window-zero", "window-101"],
    )
    def test_out_of_range_option_is_input_error(self, capsys, tmp_path, option):
        path = emit(tmp_path, "bsbar_23")
        capsys.readouterr()
        code, out, err = run(capsys, "verify", str(path), *option)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        if option[0] == "--window":
            assert err == "error: window must be between 1 and 100\n"

    @staticmethod
    def _twist_file(tmp_path: Path, e: str) -> Path:
        # m = 1, n = 2, so the twist e n/m has half of e's denominator
        path = tmp_path / "twist.toml"
        path.write_text(f"family = metabelian_h31\nm = 1\nn = 2\np = 1\nq = 5\ne = {e}\n")
        return path

    def test_twist_relator_past_the_bound_is_input_error(self, capsys, tmp_path):
        # [u, t]^2560 would have 10,240 letters, just past the bound
        path = self._twist_file(tmp_path, "1/5120")
        code, out, err = run(capsys, "verify", str(path), "--trials", "1")
        assert (code, out) == (2, "")
        assert err == (
            "error: the twist relator [u, t]^2560 would have 10240 letters, "
            "over the bound of 10000\n"
        )
        code, out, err = run(capsys, "classify", str(path))
        assert (code, err) == (0, "")

    def test_twist_relator_at_the_bound_is_built(self, capsys, tmp_path):
        path = self._twist_file(tmp_path, "1/5000")  # [u, t]^2500, 10,000 letters
        code, out, err = run(capsys, "verify", str(path), "--trials", "1")
        assert (code, err) == (0, "")
        assert json.loads(out)["report"]["passed"] is True

    def test_huge_power_relator_gets_a_report(self, capsys, tmp_path):
        # the relator t a t^-1 = a^(2^60) holds a^(2^60) as one syllable
        path = tmp_path / "huge.toml"
        path.write_text(f"family = bsbar\nm = 1\nn = {2**60}\n")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (0, "")
        checks = {c["name"]: c for c in json.loads(out)["report"]["checks"]}
        assert checks["relations"]["passed"]
        assert checks["word_eq_oracle"]["note"] == "66 trials skipped on the size budget"

    @pytest.mark.parametrize(
        "efd, note",
        [
            ("1 0 129", ""),  # a 132-letter relator, inside the closure's budget
            ("1 0 257", "10 closures hit the budget"),
            ("1 0 513", "10 closures hit the budget"),
            ("257 0 1", "10 closures hit the budget"),
            ("1 1001 2", "10 closures hit the budget"),
            ("1 10001 2", "10 closures hit the budget"),
            (f"1 {2**61 - 1} 2", "10 closures hit the budget"),
            # grids that are long in one direction only
            ("501 0 1", "10 closures hit the budget"),
            ("999 3 2", "10 closures hit the budget"),
            ("1 0 200000", "10 closures hit the budget"),
        ],
    )
    def test_large_klein_bottle_endomorphism_answers_quickly(
        self, capsys, tmp_path, efd, note
    ):
        # the coset enumeration is linear in its (2|e| + 2)(|d| + 2) grid, and
        # the rewriting closure gives up on a relator past 200 letters before
        # spelling it out
        e, f, d = efd.split()
        path = tmp_path / "kb.toml"
        path.write_text(f"family = asc_hnn_kb\ne = {e}\nf = {f}\nd = {d}\n")
        start = time.monotonic()
        code, out, err = run(capsys, "verify", str(path), "--trials", "10")
        assert time.monotonic() - start < 2.0
        assert (code, err) == (0, "")
        checks = {c["name"]: c for c in json.loads(out)["report"]["checks"]}
        assert checks["britton_vs_rewriting"]["note"] == note

    def test_coset_grid_past_its_bound_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "kb.toml"
        path.write_text(f"family = asc_hnn_kb\ne = 1\nf = 0\nd = {2**61 - 1}\n")
        start = time.monotonic()
        code, out, err = run(capsys, "verify", str(path), "--trials", "10")
        assert time.monotonic() - start < 2.0
        assert (code, out) == (2, "")
        cells = 4 * (2**61 + 1)  # the grid is (2|e| + 2) x (|d| + 2)
        assert err == (
            f"error: the coset enumeration grid would have {cells} cells, "
            "over the bound of 1000000\n"
        )

    def test_huge_power_in_a_relator_is_input_error(self, capsys, tmp_path):
        # the word-problem trials put y next to the relator's s^-(10^30 - 1),
        # whose normal form holds d^(10^30 - 2) = 2^(10^30 - 2)
        path = tmp_path / "z.toml"
        path.write_text(
            emit(tmp_path, "z_plus_z2")
            .read_text()
            .replace("s x s^-1 x^-1", f"s x s^-{10**30 - 1} x^-1")
        )
        capsys.readouterr()
        start = time.monotonic()
        code, out, err = run(capsys, "verify", str(path), "--trials", "10")
        assert time.monotonic() - start < 2.0
        assert (code, out) == (2, "")
        assert err == "error: a power would have more than 262144 bits\n"

    @pytest.mark.parametrize(
        "gens, argv",
        [
            ([*_prime_translations(60), ("t", "2 1 1 1", "0 0")], ("--trials", "10")),
            (
                [
                    ("u", "1 0 0 -1", "1/2 0"),
                    ("v", "2 -1 3 -2", "0 -1"),
                    ("y", "1 0 0 1", "0 1"),
                    *_prime_translations(30),
                ],
                (),
            ),
        ],
        ids=["cyclic", "dinfty"],
    )
    def test_many_affine_generators_verify_quickly(self, capsys, tmp_path, gens, argv):
        # the radical's unipotent words stop at the first layer that fills
        # their lists, since the words of length three are cubic in number
        path = tmp_path / "affine.toml"
        path.write_text(_affine_text(*gens))
        start = time.monotonic()
        code, out, err = run(capsys, "verify", str(path), *argv)
        assert time.monotonic() - start < 3.0
        assert (code, err) == (0, "")
        assert json.loads(out)["report"]["checks"]

    def test_inconsistent_classification_is_internal_error(
        self, capsys, tmp_path, monkeypatch
    ):
        # verify certifies the report that classify cross-checks, so a report
        # that fails its cross-check is never certified
        path = emit(tmp_path, "bsbar_23")
        capsys.readouterr()

        def boom(report):
            raise InvariantViolation("induced report is inconsistent")

        monkeypatch.setattr(classify_module, "_enforce_report_invariants", boom)
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (3, "")
        assert err == "internal error: induced report is inconsistent\n"

    def test_classify_error_is_input_error(self, capsys, tmp_path):
        path = emit(tmp_path, "d_infty_amalgam")
        capsys.readouterr()
        text = path.read_text()
        assert "gen.v.linear = 2 -1 3 -2\n" in text
        path.write_text(text.replace("gen.v.linear = 2 -1 3 -2\n", "gen.v.linear = 2 1 3 -2\n"))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err == "error: affine descriptor has an unsupported linear image shape\n"
        assert run(capsys, "classify", str(path)) == (2, "", err)

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                "family = bsbar\nm = 1\nn = 2\n"
                "presentation = < a, t, z | t a t^-1 = a^2, z >\n",
                "'z'; the generators are a, t",
            ),
            (
                "family = affine_q2\ngenerators = x y\n"
                "gen.x.linear = 1 0 0 1\ngen.x.translation = 1 0\n"
                "gen.y.linear = 1 0 0 1\ngen.y.translation = 0 1\n"
                "presentation = < p, q | [p, q] >\n",
                "'p'; the generators are x, y",
            ),
        ],
        ids=["bsbar", "affine_q2"],
    )
    def test_presentation_with_unknown_generator_is_input_error(
        self, capsys, tmp_path, text, expected
    ):
        path = tmp_path / "stray.toml"
        path.write_text(text)
        code, out, err = run(capsys, "verify", str(path), "--trials", "1")
        assert (code, out) == (2, "")
        assert err == f"error: relator uses unknown generator {expected}\n"

    def test_fixed_seed_is_byte_identical(self, capsys, tmp_path):
        path = emit(tmp_path, "z_plus_z2")
        capsys.readouterr()
        args = ("verify", str(path), "--trials", "30", "--seed", "9")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert (code1, code2) == (0, 0)
        assert out1 == out2

    @pytest.mark.parametrize(
        "seed, name",
        DIGEST_CASES,
        ids=[name if seed == 0 else f"seed{seed}-{name}" for seed, name in DIGEST_CASES],
    )
    def test_seed_zero_report_matches_recorded_digest(self, capsys, tmp_path, seed, name):
        fixture = corrupted_d_infty() if name == "corrupted_d_infty" else fixture_named(name)
        path = tmp_path / f"{name}.toml"
        path.write_text(cli.serialize_descriptor_file(fixture))
        code, out, _ = run(capsys, "verify", str(path), "--seed", str(seed))
        expected = VERIFY_DIGESTS[seed]["reports"][name]
        assert code == expected["exit"]
        assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]

    def test_presentation_without_relators_keeps_the_family_relations(self, capsys, tmp_path):
        # the relations check falls back to the family's defining relations,
        # while the word-problem check gets no relators to insert
        path = tmp_path / "bsbar.toml"
        path.write_text("family = bsbar\nm = 2\nn = 3\npresentation = < a, t | >\n")
        code, out, _ = run(capsys, "verify", str(path), "--trials", "20")
        assert code == 0
        relations = json.loads(out)["report"]["checks"][0]
        assert (relations["name"], relations["trials"], relations["note"]) == ("relations", 2, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "cf5282f4aecd502b3954fc2d4ad410a332b6c58b94d6d0a93d0a6384617c6c58"
        )


class TestRenderText:
    def _lines(self, name: str) -> list[str]:
        fixture = fixture_named(name)
        return cli._render_text(fixture, classify_module.classify(fixture.descriptor)).splitlines()

    def test_type2_with_an_open_manifold_range(self):
        lines = self._lines("lattice_asc")
        assert lines[0] == "name:                     lattice_asc"
        assert "constructible type:       Type2 (base Z2)" in lines
        assert "manifold dimension:       [5, 6] (open)" in lines

    def test_type3(self):
        lines = self._lines("lattice_sol")
        assert "constructible type:       Type3" in lines
        assert "manifold dimension:       3" in lines


class TestExamplesCommand:
    def test_list_names_all_fixtures(self, capsys):
        code, out, _ = run(capsys, "examples", "list")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 7
        for fixture in FIXTURES:
            assert any(line.startswith(fixture.name) for line in lines)

    def test_emitted_file_parses_back(self, capsys, tmp_path):
        path = emit(tmp_path, "f_mod_kprime")
        df = cli.load_descriptor_file(path)
        assert df.name == "f_mod_kprime"
        assert df.presentation is not None

    def test_emit_unknown_fixture(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "examples", "emit", "nonesuch", "--dir", str(tmp_path)
        )
        assert code == 2
        assert "unknown fixture" in err

    def test_emit_to_missing_directory_is_input_error(self, capsys, tmp_path):
        missing = tmp_path / "absent"
        code, _, err = run(capsys, "examples", "emit", "bsbar_23", "--dir", str(missing))
        assert code == 2
        assert err.startswith("error: cannot write") and len(err.splitlines()) == 1

    def test_emit_requires_name(self, capsys, tmp_path):
        code, _, err = run(capsys, "examples", "emit", "--dir", str(tmp_path))
        assert code == 2


class TestElementRendering:
    def test_lattice_and_meta_forms(self):
        from hirsch3.families import ops_for
        from hirsch3.words import parse_word

        desc = MetabelianH31(1, 2, 1, 3, F(1))
        ops = ops_for(desc)
        g = ops.of_word(parse_word("a t u^-1"))
        assert ops.family.format_element(g) == "a t u^-1"
        assert ops.family.format_element(ops.identity()) == "1"

    def test_hnn_form_shows_britton_shape(self):
        from hirsch3.families import ops_for
        from hirsch3.words import parse_word

        desc = AscHNNKb(3, 1, 2)
        ops = ops_for(desc)
        g = ops.of_word(parse_word("s^-1 x s"))
        text = ops.family.format_element(g)
        assert "s^-1" in text and "s^1" in text


TABLE_EXAMPLES = [
    RankOneQ((F(1, 2), F(-3, 4), F(5))),
    BSbar(2, 3),
    MetabelianH31(2, 3, 1, 5, F(5, 6)),
    LatticeByZ(Mat2Q.of(F(1, 2), 1, -3, 2)),
    AscHNNKb(3, 1, -2),
    AffineQ2(
        (
            ("u", AffineMap2(Mat2Q.of(1, 0, 0, -1), (F(1, 2), F(0)))),
            ("y", AffineMap2(Mat2Q.identity(), (F(0), F(1)))),
        )
    ),
]


class TestFamilyTable:
    @pytest.mark.parametrize(
        "desc", TABLE_EXAMPLES, ids=lambda d: FAMILIES[type(d)].tag
    )
    def test_every_family_round_trips_and_satisfies_its_relations(self, desc):
        assert {type(d) for d in TABLE_EXAMPLES} == set(FAMILIES)
        df = cli.DescriptorFile(desc, "example", "one per family")
        back = cli.parse_descriptor_text(cli.serialize_descriptor_file(df))
        assert back.descriptor == desc
        assert cli.input_digest(back) == cli.input_digest(df)
        ops = ops_for(desc)
        for label, relator in FAMILIES[type(desc)].relations(desc):
            assert ops.is_identity(ops.of_word(relator)), label


def _isinstance_targets(node: ast.Call) -> list[str]:
    """Names in the class argument of an isinstance call."""
    if not (isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
        return []
    if len(node.args) != 2:
        return []
    target = node.args[1]
    parts = target.elts if isinstance(target, ast.Tuple) else [target]
    out = []
    for part in parts:
        if isinstance(part, ast.Name):
            out.append(part.id)
        elif isinstance(part, ast.Attribute):
            out.append(part.attr)
    return out


def test_only_families_branches_on_descriptor_type():
    # one place knows each family: other modules look a family up in a table
    # keyed by descriptor type instead of testing the type
    descriptors = {cls.__name__ for cls in FAMILIES}
    package = Path(cli.__file__).resolve().parent
    found = []
    for module in sorted(package.glob("*.py")):
        if module.name == "families.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Call):
                hits = descriptors.intersection(_isinstance_targets(node))
                found += [f"{module.name}:{node.lineno} {name}" for name in sorted(hits)]
    assert not found


def test_only_rationals_factors_or_takes_integer_kernels():
    # one place computes the relation lattice of the dilation ratios: no other
    # module imports or reaches for the factorization or the kernel routine
    owned = {"factorint", "integer_row_kernel"}
    package = Path(cli.__file__).resolve().parent
    found = []
    for module in sorted(package.glob("*.py")):
        if module.name == "rationals.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            found += [f"{module.name}:{node.lineno} {name}" for name in sorted(names & owned)]
    assert not found


# the package's layers, bottom to top: a module imports only from layers
# below its own
LAYERS = (
    ("__init__",),
    ("rationals", "words"),
    ("families",),
    ("classify", "oracles"),
    ("verify",),
    ("simplify",),
    ("fixtures",),
    ("cli",),
    ("__main__",),
)
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}


def upward_imports(module: str, source: str) -> list[str]:
    """The package modules that `module` imports from its own layer or one
    above it, anywhere in its source, function bodies included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] == "hirsch3"]
            targets = [n.removeprefix("hirsch3").removeprefix(".") or "__init__" for n in names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if base.split(".")[0] != "hirsch3":
                    continue
                base = base.removeprefix("hirsch3").removeprefix(".")
            # `from . import name` reads a module or a name of the package root
            targets = [base] if base else [a.name if a.name in RANK else "__init__" for a in node.names]
        else:
            continue
        found += [f"{node.lineno}: {t}" for t in targets if RANK[t] >= RANK[module]]
    return found


def test_imports_point_down_the_layers():
    package = Path(cli.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert {m.stem for m in modules} == set(RANK)
    found = [f"{m.name}:{hit}" for m in modules for hit in upward_imports(m.stem, m.read_text())]
    assert not found


@pytest.mark.parametrize(
    "module, line",
    [
        ("fixtures", "from .cli import DescriptorFile"),
        ("words", "def word():\n    from .families import ops_for"),
        ("classify", "from . import oracles"),
        ("rationals", "import hirsch3.words"),
        ("simplify", "from hirsch3.fixtures import FIXTURES"),
        ("cli", "from hirsch3 import __main__"),
    ],
)
def test_import_audit_catches_upward_imports(module, line):
    assert upward_imports(module, line + "\n")


class TestParserReuse:
    def test_one_process_prints_what_fresh_processes_print(self, capsys, tmp_path):
        # the parser is built once per process; every call must still print
        # what a fresh interpreter prints, after a usage error and --version too
        path = str(emit(tmp_path, "bs12_rtimes"))
        capsys.readouterr()
        calls = [
            ["classify", path],
            ["word-eq", path, "t a t^-1", "a^2"],
            ["simplify", path],
            ["verify", path, "--trials", "5"],
            ["verify", path, "--trials"],
            ["--version"],
            ["classify", path, "--format", "json"],
        ]
        src = str(Path(cli.__file__).resolve().parents[1])
        env_path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        fresh = [
            subprocess.Popen(
                [sys.executable, "-m", "hirsch3", *argv],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": env_path},
            )
            for argv in calls
        ]
        for argv, proc in zip(calls, fresh):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = proc.communicate(timeout=60)
            assert capsys.readouterr() == (out, err), argv
            assert code == proc.returncode, argv
        assert [proc.returncode for proc in fresh] == [0, 0, 0, 0, 2, 0, 0]


class TestCommandImports:
    # modules that a command must not load: a cold `classify` or `word-eq`
    # compiles neither the verifier nor the simplifier
    NOT_LOADED = {
        ("classify",): {"verify", "oracles", "fixtures", "simplify"},
        ("word-eq", "t a t^-1", "a^2"): {"verify", "oracles", "fixtures", "simplify"},
        ("simplify",): {"verify", "oracles", "fixtures"},
        ("examples", "list"): {"verify", "oracles"},
    }

    @pytest.mark.parametrize("argv", sorted(NOT_LOADED), ids=lambda argv: argv[0])
    def test_command_loads_only_what_it_runs(self, tmp_path, argv):
        path = str(emit(tmp_path, "bs12_rtimes"))
        args = list(argv) if argv[0] == "examples" else [argv[0], path, *argv[1:]]
        probe = (
            "import json, sys\n"
            "from hirsch3 import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env_path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", probe, *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": env_path},
            timeout=60,
        )
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, proc.stderr
        loaded = {m.split(".", 1)[1] for m in modules if m.startswith("hirsch3.")}
        assert {"cli", "families", "rationals", "words"} <= loaded
        assert not loaded & self.NOT_LOADED[argv]


class TestModuleEntryPoint:
    def test_python_dash_m_prints_help(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "hirsch3", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: hirsch3")
