"""The package's frozen records against the contract they share.

Every record is a plain class on `hirsch3.Record`: construction by
position or by keyword with the same defaults, `==` only within its own
class, `hash` of its field tuple, both inherited from the base, no
assignment, and the `repr` that the test ids and seeds read.  Importing
the commands loads neither `dataclasses` nor `inspect`.
"""

from __future__ import annotations

import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hirsch3
from hirsch3 import InputError, Record, classify, families, rationals, simplify, verify, words
from hirsch3.classify import (
    ClassificationReport,
    ManifoldDim,
    MinimaxInfo,
    QuotientType,
    RadicalInfo,
    TriState,
    Type1,
    Type2,
    Type3,
    _AffineData,
)
from hirsch3.families import (
    FAMILIES,
    AffineQ2,
    AscHNNKb,
    BSbar,
    DescriptorFile,
    Family,
    LatticeByZ,
    MetabelianH31,
    RankOneQ,
    affine_map,
)
from hirsch3.rationals import Mat2Q, RelationLattice
from hirsch3.simplify import SimplifyError, StandardForm
from hirsch3.verify import (
    CheckResult,
    TrialConfig,
    VerificationReport,
    _RadicalModel,
    _Verifier,
)
from hirsch3.words import Presentation, Word

F = Fraction
M = Mat2Q(F(2), F(1), F(1), F(1))
A = Word((("a", 2), ("t", -1)))
CHECK = CheckResult("relations", None, 5, 0, "one relator")


def _member(g) -> bool:
    return True


# class -> (every field's value in order, the defaults of the trailing fields)
RECORDS = {
    RelationLattice: (((2, 3), ((1, 0), (0, 1)), (), ()), {}),
    Mat2Q: ((F(2), F(1), F(1), F(1)), {}),
    Word: ((A.syllables,), {"syllables": ()}),
    Presentation: ((("a", "t"), (A,)), {}),
    RankOneQ: (((F(1, 2), F(3)),), {}),
    BSbar: ((2, 3), {}),
    MetabelianH31: ((1, 2, 1, 3, F(1, 2)), {}),
    LatticeByZ: ((M,), {}),
    AscHNNKb: ((3, 1, -2), {}),
    AffineQ2: (((("x", affine_map(Mat2Q.of(0, 1, 1, 0), (F(1, 2), 0))),),), {}),
    Family: (FAMILIES[BSbar]._values(), {}),
    DescriptorFile: (
        (BSbar(2, 3), "bs", "a note", Presentation(("a", "t"), (A,))),
        {"name": None, "notes": None, "presentation": None},
    ),
    TriState: ((None, "no witness"), {}),
    RadicalInfo: ((1, "Z[1/6]", True), {}),
    QuotientType: (("Z",), {}),
    Type1: ((2,), {}),
    Type2: (("Kb",), {}),
    Type3: ((), {}),
    MinimaxInfo: ((True, ("Z", "Z[1/6]")), {}),
    ManifoldDim: ((3, None, None), {}),
    ClassificationReport: (classify.classify(BSbar(2, 3))._values(), {}),
    _AffineData: ((1, "cyclic", M, True, (M,)), {}),
    StandardForm: ((2, 3, 1, 5, 7), {}),
    TrialConfig: ((1, 5, 3), {"seed": 0, "trials": 150, "window": 12}),
    CheckResult: (("relations", None, 5, 0, "one relator"), {"note": ""}),
    VerificationReport: (("BSbar(m=2, n=3)", 0, (CHECK,)), {}),
    _RadicalModel: ((True, (A,), _member, None, (A,)), {"more_words": ()}),
    _Verifier: ((_member, _member), {}),
}

# records that hold functions, which pickle cannot carry
UNPICKLED = {Family, _RadicalModel, _Verifier}


def test_every_record_class_is_listed():
    modules = (rationals, words, families, classify, simplify, verify)
    found = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Record) and value is not Record
    }
    assert found == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    values, defaults = RECORDS[cls]
    fields = cls._fields
    assert tuple(inspect.signature(cls).parameters) == fields
    record = cls(*values)
    field_tuple = tuple(getattr(record, name) for name in fields)
    assert field_tuple == values
    assert cls(**dict(zip(fields, values))) == record
    required = len(fields) - len(defaults)
    assert tuple(defaults) == fields[required:]
    short = cls(*values[:required])
    assert tuple(getattr(short, name) for name in fields[required:]) == tuple(defaults.values())

    assert record == cls(*values) and not record != cls(*values)
    assert record != field_tuple and field_tuple != record
    assert hash(record) == hash(field_tuple)
    name = fields[0] if fields else "anything"
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    if cls not in UNPICKLED:
        assert pickle.loads(pickle.dumps(record)) == record


def test_every_record_compares_and_hashes_by_the_base():
    # one path: equality and hash read the getter that `Record` builds
    assert [cls.__name__ for cls in RECORDS if {"__eq__", "__hash__"} & set(vars(cls))] == []


def test_records_of_different_classes_with_equal_fields_differ():
    assert Type1(2) != Type2(2) and TriState(True, "") != MinimaxInfo(True, "")


def test_verifier_checks_nothing_extra_by_default():
    assert _Verifier(_member).extra_checks(BSbar(2, 3), TrialConfig(), None) == []


REPRS = [
    (A, "Word(syllables=(('a', 2), ('t', -1)))"),
    (M, "Mat2Q(a=Fraction(2, 1), b=Fraction(1, 1), c=Fraction(1, 1), d=Fraction(1, 1))"),
    (RankOneQ((F(1, 2), 3)), "RankOneQ(generators=(Fraction(1, 2), Fraction(3, 1)))"),
    (BSbar(2, 3), "BSbar(m=2, n=3)"),
    (MetabelianH31(1, 2, 1, 3, F(1, 2)), "MetabelianH31(m=1, n=2, p=1, q=3, e=Fraction(1, 2))"),
    (
        LatticeByZ(M),
        "LatticeByZ(matrix=Mat2Q(a=Fraction(2, 1), b=Fraction(1, 1), "
        "c=Fraction(1, 1), d=Fraction(1, 1)))",
    ),
    (AscHNNKb(3, 1, -2), "AscHNNKb(e=3, f=1, d=-2)"),
    (AffineQ2(*RECORDS[AffineQ2][0]), "AffineQ2(generators=(('x', (2, 0, 2, 2, 0, 1, 0)),))"),
]


@pytest.mark.parametrize("record, text", REPRS, ids=[type(r).__name__ for r, _ in REPRS])
def test_repr_is_pinned(record, text):
    assert repr(record) == text


@pytest.mark.parametrize(
    "make, error, text",
    [
        (lambda: BSbar(0, 1), ValueError, "m must be a positive integer"),
        (lambda: BSbar(2, 4), ValueError, "m and n must be coprime"),
        (lambda: MetabelianH31(1, 2, 1, 3, F(1, 5)), ValueError, "e must lie in Z[1/6]"),
        (lambda: LatticeByZ(Mat2Q.of(1, 2, 2, 4)), ValueError, "acting matrix must be invertible"),
        (lambda: AscHNNKb(2, 1, 1), ValueError, "e must be odd"),
        (lambda: AffineQ2(()), ValueError, "at least one generator required"),
        (lambda: QuotientType("Q"), ValueError, "unknown quotient tag 'Q'"),
        (lambda: StandardForm(-2, 3, 1, 5, 7), SimplifyError,
         "left conjugation exponents are normalized positive"),
        (lambda: TrialConfig(window=0), InputError, "window must be between 1 and 100"),
        (lambda: Presentation(("a",), (A,)), InputError,
         "relator uses unknown generator 't'; the generators are a"),
    ],
)
def test_constructor_refusals_keep_their_type_and_text(make, error, text):
    with pytest.raises(error) as exc:
        make()
    assert type(exc.value) is error and str(exc.value) == text


def test_importing_the_commands_loads_no_dataclasses():
    src = str(Path(hirsch3.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import hirsch3.cli, hirsch3.simplify, hirsch3.verify\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
