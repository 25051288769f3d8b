"""Shipped example descriptors.

Each fixture is the `families.DescriptorFile` that `hirsch3 examples emit` writes:
a descriptor, a name, a short description in `notes`, and an optional finite
presentation whose relators the verifier evaluates against the element
model.  The two affine fixtures realize their presentations by explicit
rational affine maps; the relations are checked in the test suite, so the
matrices here are load-bearing, not illustrative.
"""

from __future__ import annotations

from fractions import Fraction

from . import InputError
from .families import (
    AffineMap2,
    AffineQ2,
    AscHNNKb,
    BSbar,
    DescriptorFile,
    LatticeByZ,
    MetabelianH31,
)
from .rationals import Mat2Q
from .words import parse_presentation

F = Fraction


def _translation(x, y) -> AffineMap2:
    return AffineMap2(Mat2Q.identity(), (F(x), F(y)))


def _d_infty_amalgam() -> AffineQ2:
    # u and v are glide reflections; their squares u^2 and u^2 y span the
    # translation lattice together with y, and the linear parts generate
    # an infinite dihedral group
    u = AffineMap2(Mat2Q.of(1, 0, 0, -1), (F(1, 2), F(0)))
    v = AffineMap2(Mat2Q.of(2, -1, 3, -2), (F(0), F(-1)))
    y = _translation(0, 1)
    return AffineQ2((("u", u), ("v", v), ("y", y)))


_D_INFTY_PRESENTATION = (
    "< u, v, y | u y u^-1 = y^-1, v y v^-1 = v^-2 y^-1, v^2 = u^2 y >"
)


def _f_mod_kprime() -> AffineQ2:
    # the composite of the two reflections has trace 2/3, so no power of
    # it stabilizes a lattice: the group is not finitely presentable
    u = AffineMap2(Mat2Q.of(1, 0, 0, -1), (F(1, 2), F(0)))
    v = AffineMap2(
        Mat2Q.of(F(1, 3), F(2, 3), F(4, 3), F(-1, 3)), (F(0), F(3, 2))
    )
    return AffineQ2(
        (("u", u), ("v", v), ("x", _translation(1, 0)), ("y", _translation(0, 1)))
    )


_F_MOD_KPRIME_PRESENTATION = (
    "< u, v, x, y | u^2 = x, u y u^-1 = y^-1, v^2 = x y, "
    "v y^3 v^-1 = x^2 y^-1 >"
)

_Z_PLUS_Z2_PRESENTATION = (
    "< x, y, s | x y x^-1 = y^-1, s x s^-1 = x, s y s^-1 = y^2 >"
)

_BS12_RTIMES_PRESENTATION = (
    "< a, t, u | t a t^-1 = a^2, u a u^-1 = a^3, u t u^-1 = t a >"
)


def _fixtures() -> tuple[DescriptorFile, ...]:
    return (
        DescriptorFile(
            _d_infty_amalgam(),
            "d_infty_amalgam",
            "amalgam of two flat Klein bottle groups over their common "
            "translation plane, with infinite dihedral quotient",
            parse_presentation(_D_INFTY_PRESENTATION),
        ),
        DescriptorFile(
            AscHNNKb(1, 0, 2),
            "z_plus_z2",
            "ascending extension of the Klein bottle group doubling the "
            "fiber, with quotient Z plus Z/2",
            parse_presentation(_Z_PLUS_Z2_PRESENTATION),
        ),
        DescriptorFile(
            _f_mod_kprime(),
            "f_mod_kprime",
            "dihedral extension with a non-integral dilation class: "
            "finitely generated, not FP2, cohomological dimension 4",
            parse_presentation(_F_MOD_KPRIME_PRESENTATION),
        ),
        DescriptorFile(
            BSbar(2, 3),
            "bsbar_23",
            "metabelianized two-three Baumslag-Solitar group: finitely "
            "generated, not finitely presentable",
        ),
        DescriptorFile(
            MetabelianH31(1, 2, 1, 3, F(1)),
            "bs12_rtimes",
            "rank-two dilation pair two and three with a unit twist: "
            "ascending with integral class six",
            parse_presentation(_BS12_RTIMES_PRESENTATION),
        ),
        DescriptorFile(
            LatticeByZ(Mat2Q.of(2, 1, 1, 1)),
            "lattice_sol",
            "hyperbolic unimodular lattice extension: polycyclic, a "
            "three-manifold group of solvable type",
        ),
        DescriptorFile(
            LatticeByZ(Mat2Q.of(0, -2, 1, 0)),
            "lattice_asc",
            "integral lattice extension of determinant two: ascending "
            "over the plane, coherent but not polycyclic",
        ),
    )


FIXTURES: tuple[DescriptorFile, ...] = _fixtures()


def fixture_named(name: str) -> DescriptorFile:
    for fixture in FIXTURES:
        if fixture.name == name:
            return fixture
    known = ", ".join(f.name for f in FIXTURES)
    raise InputError(f"unknown fixture {name!r}; known fixtures: {known}")


def corrupted_d_infty() -> DescriptorFile:
    """Negative control: the u glide translation is perturbed, so the
    relator v^2 = u^2 y fails while the linear parts stay intact."""
    base = _d_infty_amalgam()
    broken_u = AffineMap2(Mat2Q.of(1, 0, 0, -1), (F(1, 3), F(0)))
    gens = tuple(
        (name, broken_u if name == "u" else g) for name, g in base.generators
    )
    return DescriptorFile(
        AffineQ2(gens),
        "corrupted_d_infty",
        "negative control: perturbed glide translation breaks a relator",
        parse_presentation(_D_INFTY_PRESENTATION),
    )
