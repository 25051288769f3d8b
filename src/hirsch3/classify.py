"""Invariant computation for the supported descriptor families.

For each group this module computes the Hirsch length, Fitting radical
data, the quotient by the radical, derived length, polycyclicity, finite
presentability with its constructible type, FP2 and coherence values,
cohomological dimension, minimax section data, and the dimension range of
compact aspherical manifolds realizing the group.

Each family has one invariants function in `_INVARIANTS`, keyed by
descriptor type, that computes its own invariants once and hands them to
`_report`.  That builder derives the family-independent ones (cohomological
dimension, coherence, manifold dimensions) and cross-checks the finished
`ClassificationReport`, the one record that `classify` returns, the CLI
prints and `verify` certifies.  Callers read its fields; the public steps
below `classify` remain only for the benchmark's tracer.  Adding a family
means adding one invariants function to that table.

Scope notes.  The quotient type and coherence are fully specified only at
Hirsch length 3; `classify` fills those report fields for shorter groups
when an invariant forces the value and marks them not-computed otherwise.
Affine descriptors are supported in the shapes the fixture corpus uses:
trivial or finite linear image, a single infinite-order linear generator,
or two order-two reflections generating an infinite dihedral image.  The
affine analysis explores words on the integer `AffineMap2` kernel for a
finite linear image.  The translation subgroup is not searched: its rank is
read off its Schreier generators, one product per generator.  A finite
image {I, A} that holds an involution is refused as torsion
(`_has_involution`, one gcd on A's fixed line); the infinite dihedral shape
is not yet tested for involutions.

Refusals.  An input outside that scope raises `ClassifyError`, and so does
a ratio pair whose smallest realized ratio `_type1_ratio` does not reach
within its budget.  A ratio that `rationals.factorint` cannot factor within
its budget raises `FactorBudgetError`.  Both are `InputError`s, which the
command line turns into exit 2.  A report that fails its own cross-check raises
`InvariantViolation` instead, exit 3.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from math import gcd, isqrt, prod
from typing import Any, Callable, Optional, Sequence, Union

from . import InputError
from .families import (
    META_IDENTITY,
    AffineMap2,
    AffineQ2,
    AscHNNKb,
    BSbar,
    GroupDescriptor,
    LatticeByZ,
    MetabelianH31,
    RankOneQ,
    affine_compose,
    affine_inverse,
    meta_of_word,
)
from .rationals import (
    Mat2Q,
    complement_vector,
    conjugate_to_integral,
    is_unimodular_integral_class,
    matrix_order,
    prime_factors,
    radical_of,
    rational_valuation,
    valuation,
)
from .words import Word, commutator

F = Fraction


class ClassifyError(InputError):
    """Invalid or out-of-scope input to a classification operation."""


class InvariantViolation(RuntimeError):
    """A finished report failed one of its internal cross-checks."""


# --- report types -----------------------------------------------------------


QUOTIENT_TAGS = ("Z2", "Z", "Dinfty", "ZplusZ2", "VirtuallyTrivial")


@dataclass(frozen=True)
class TriState:
    """A yes/no/unknown answer; None means unknown.  The note says why."""

    value: Optional[bool]
    note: str

    @property
    def text(self) -> str:
        if self.value is None:
            return "unknown"
        return "true" if self.value else "false"


@dataclass(frozen=True)
class RadicalInfo:
    hirsch: int
    module_description: str
    is_abelian: bool


@dataclass(frozen=True)
class QuotientType:
    tag: str

    def __post_init__(self) -> None:
        if self.tag not in QUOTIENT_TAGS:
            raise ValueError(f"unknown quotient tag {self.tag!r}")


@dataclass(frozen=True)
class Type1:
    n: int


@dataclass(frozen=True)
class Type2:
    base: str  # "Z2" or "Kb" (or "Z" never: short groups carry no type)


@dataclass(frozen=True)
class Type3:
    """The polycyclic type; it has no parameter."""


ConstructibleType = Union[Type1, Type2, Type3, None]


@dataclass(frozen=True)
class MinimaxInfo:
    value: bool
    sections: tuple[str, ...]


@dataclass(frozen=True)
class ManifoldDim:
    lower: int
    upper: Optional[int]
    exact: Optional[int]


@dataclass(frozen=True)
class ClassificationReport:
    hirsch_length: int
    radical: RadicalInfo
    quotient: Optional[QuotientType]
    derived_length: int
    polycyclic: bool
    finitely_presentable: bool
    constructible: bool
    fp2: TriState
    coherent: TriState
    cohomological_dimension: int
    minimax: MinimaxInfo
    constructible_type: ConstructibleType
    manifold_dim: ManifoldDim

    def to_json(self) -> dict:
        return _json(self)


def _json(value: Any) -> Any:
    """Plain JSON data for a report value: a dataclass as its fields, except
    that a TriState's value is its text and a constructible type leads with
    its class name as "kind"; tuples become lists."""
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    if not is_dataclass(value):
        return value
    out = {"kind": type(value).__name__} if isinstance(value, (Type1, Type2, Type3)) else {}
    out.update((f.name, _json(getattr(value, f.name))) for f in fields(value))
    if isinstance(value, TriState):
        out["value"] = value.text
    return out


# --- matrix module analysis -------------------------------------------------


def _is_plus_minus_unipotent(m: Mat2Q) -> bool:
    """Whether (m - sI)^2 = 0 for s = 1 or -1: by Cayley-Hamilton, exactly
    when the characteristic polynomial is (x - s)^2."""
    return m.det() == 1 and abs(m.trace()) == 2


def _reflection_lines_coincide(reflections: tuple[Mat2Q, ...]) -> bool:
    """Whether the two involutions generating the linear image share their
    -1 eigenline.

    When they do, the whole commutator subgroup consists of translations
    along that line together with unipotent parts fixing it pointwise, so it
    is abelian; otherwise the second derived subgroup is nontrivial.
    """
    lines: list[tuple[Fraction, Fraction]] = []
    for m in reflections:
        # m - identity has rank one, so either nonzero column spans the
        # -1 eigenline
        col = (m.a - 1, m.c)
        if col == (0, 0):
            col = (m.b, m.d - 1)
        lines.append(col)
    (x1, y1), (x2, y2) = lines
    return x1 * y2 - y1 * x2 == 0


def _module_growth_ranks(m: Mat2Q) -> dict[int, int]:
    """Primes p where the smallest m- and m^-1-stable subgroup over Z^2 is
    p-divisible, with the number of independent divisible directions.

    The p-divisible rank equals the number of nonzero eigenvalue valuations,
    read off the lower hull of (0, v(det)), (1, v(tr)), (2, 0).
    """
    tr, det = m.trace(), m.det()
    primes = set(prime_factors(det.numerator))
    primes |= set(prime_factors(det.denominator))
    primes |= set(prime_factors(tr.denominator))
    out: dict[int, int] = {}
    for p in sorted(primes):
        vd = rational_valuation(det, p)
        vt = rational_valuation(tr, p) if tr != 0 else None
        if vt is not None and 2 * vt <= vd:
            rank = int(vt != 0) + int(vd - vt != 0)
        else:
            rank = 2 if vd != 0 else 0
        if rank:
            out[p] = rank
    return out


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return F(rn, rd)
    return None


def _support(x: Fraction) -> int:
    # numerator and denominator are coprime, so their radicals multiply to
    # the radical of their product without factoring it
    return radical_of(x.numerator) * radical_of(x.denominator)


def _rank2_module_moduli(m: Mat2Q, ranks: dict[int, int]) -> tuple[int, int]:
    """Section moduli (bottom, top) of a series for the m-saturation of Z^2,
    given m's `_module_growth_ranks`.

    With rational eigenvalues the saturation filters along eigenlines and
    each section is localized at the support of one eigenvalue.  Otherwise
    the divisible hull of any rational line collects only the primes that are
    divisible in both directions, and the quotient collects them all.
    """
    disc = m.trace() * m.trace() - 4 * m.det()
    root = _rational_sqrt(disc)
    if root is not None:
        l1 = (m.trace() + root) / 2
        l2 = (m.trace() - root) / 2
        pair = sorted((_support(l1), _support(l2)))
        return pair[0], pair[1]
    m_all = prod(ranks.keys(), start=1)
    m_top = prod((p for p, r in ranks.items() if r == 2), start=1)
    return m_top, m_all


def _ranks_description(ranks: dict[int, int]) -> str:
    if not ranks:
        return "Z^2"
    inner = ", ".join(f"{p}: {r}" for p, r in sorted(ranks.items()))
    return f"sublattice of Q^2, divisible ranks {{{inner}}}"


def _section_label(modulus: int) -> str:
    return "Z" if modulus == 1 else f"Z[1/{modulus}]"


# --- valuation cone (rank-one radical presentability) ------------------------


def cone_integer_point(rows: list[tuple[int, int]]) -> Optional[tuple[int, int]]:
    """An integer point of {x : row . x >= 1 for all rows}, or None.

    The region is nonempty exactly when the open cone {x : row . x > 0} is,
    and against integer rows an integer point of that cone already has
    row . x >= 1.  A nonempty open cone holds a row when all rows point the
    same way, and otherwise the sum of its two edge directions, each
    perpendicular to a row: perp(r_j) - perp(r_i) with perp(a, b) = (-b, a).
    So testing (0, 0), the rows and those differences is exact.
    """
    perps = [(-b, a) for a, b in rows]
    candidates = [(0, 0), *rows]
    candidates += [(p[0] - q[0], p[1] - q[1]) for p in perps for q in perps]
    for x, y in candidates:
        if all(a * x + b * y >= 1 for a, b in rows):
            return x, y
    return None


# The most candidate values `_type1_ratio` takes from its heap.  On 3,000
# random descriptors and 1,000 generated benchmark ones the search needed at
# most 8; 40,000 take about 0.4 s (2-core VM, Python 3.11).
_TYPE1_SEARCH_CAP = 40_000


def _type1_ratio(desc: MetabelianH31) -> int:
    """The realized integer ratio of smallest absolute value.

    Candidate absolute values are the integers divisible by every prime of
    the ratios and supported only on those primes, enumerated in increasing
    order; the exponent map is injective here, so each value is realized by
    at most one exponent pair, solved exactly from two independent rows.
    Past `_TYPE1_SEARCH_CAP` candidates it raises a `ClassifyError`: a
    budget, not an invariant, ran out.
    """
    r1, r2 = desc.t_ratio, desc.u_ratio
    primes = desc.ratio_lattice.primes
    base = list(zip(*desc.ratio_lattice.rows))
    pivot = None
    for idx1 in range(len(base)):
        for idx2 in range(idx1 + 1, len(base)):
            det = base[idx1][0] * base[idx2][1] - base[idx1][1] * base[idx2][0]
            if det != 0:
                pivot = (idx1, idx2, det)
                break
        if pivot:
            break
    if pivot is None:
        raise InvariantViolation("ratio pair is multiplicatively dependent")
    idx1, idx2, det = pivot
    start = prod(primes)
    heap = [start]
    seen = {start}
    for _ in range(_TYPE1_SEARCH_CAP):
        if not heap:
            break
        value = heapq.heappop(heap)
        targets = [valuation(value, p) for p in primes]
        num_i = targets[idx1] * base[idx2][1] - targets[idx2] * base[idx1][1]
        num_j = base[idx1][0] * targets[idx2] - base[idx2][0] * targets[idx1]
        if num_i % det == 0 and num_j % det == 0:
            i, j = num_i // det, num_j // det
            if all(a * i + b * j == t for (a, b), t in zip(base, targets)):
                sign = -1 if (r1 < 0 and i % 2) != (r2 < 0 and j % 2) else 1
                return sign * value
        for p in primes:
            nxt = value * p
            if nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, nxt)
    raise ClassifyError(
        f"the smallest realized ratio lies past the search budget of {_TYPE1_SEARCH_CAP} candidates"
    )


# --- affine analysis ---------------------------------------------------------


@dataclass(frozen=True)
class _AffineData:
    rank_t: int
    image: str  # "trivial" | "finite" | "cyclic" | "dinfty"
    composite: Optional[Mat2Q]
    abelian: bool
    linear: tuple[Mat2Q, ...]  # the distinct non-identity linear parts

    @property
    def hirsch(self) -> int:
        return self.rank_t + (self.image in ("cyclic", "dinfty"))


_LINEAR_CLOSURE_CAP = 12  # a finite subgroup of GL(2, Q) has at most 12 elements


def _linear_closure(mats: Sequence[Mat2Q]) -> Optional[set[Mat2Q]]:
    """The group the matrices generate if it is finite.

    The search composes translation-free `AffineMap2`s, whose gcd-normalized
    integers make set membership exact; only the kept elements become
    `Mat2Q`s.
    """
    identity = AffineMap2.identity()
    closure = {identity}
    frontier = [identity]
    gens = []
    for m in mats:
        g = AffineMap2(m, (0, 0))
        gens.extend((g, affine_inverse(g)))
    while frontier:
        nxt = []
        for g in frontier:
            for m in gens:
                prod_gm = affine_compose(g, m)
                if prod_gm not in closure:
                    closure.add(prod_gm)
                    nxt.append(prod_gm)
                    if len(closure) > _LINEAR_CLOSURE_CAP:
                        return None
        frontier = nxt
    return {g.linear for g in closure}


def _translation_rank(desc: AffineQ2, linear: tuple[Mat2Q, ...]) -> int:
    """Rank of the translation subgroup T of G, read off the generators.

    `linear`, the distinct non-identity linear parts, must present the linear
    image L with no relators but r^2 for its reflections r.  Let s_A be the
    first generator with linear part A, s_I the identity, and N the normal
    closure of the translations g s_A^-1 (A the linear part of g) and s_A^2
    (A a reflection).  The presented group maps onto G/N, which maps onto L;
    the composite is an isomorphism, so N = T.  Conjugation by g applies g's
    linear part to a translation, so span(T) is the smallest `linear`-stable
    subspace holding those vectors.  A translation's integers (x, y) point
    along its vector (x, y) / den, so directions are compared on integers.
    """
    inverses: dict[Mat2Q, AffineMap2] = {Mat2Q.identity(): AffineMap2.identity()}
    first: Optional[tuple[int, int]] = None
    for _, g in desc.generators:
        lin = g.linear
        if lin in inverses:
            seed = affine_compose(g, inverses[lin])
        else:
            inverses[lin] = affine_inverse(g)
            if not lin.is_reflection():
                continue
            seed = affine_compose(g, g)
        x, y = seed.ints[5:]
        if first is None and (x, y) != (0, 0):
            first = (x, y)
        elif first is not None and first[0] * y - first[1] * x != 0:
            return 2
    if first is None:
        return 0
    x, y = first  # one line: rank two exactly when some linear part moves it
    moved = any(x * (m.c * x + m.d * y) != y * (m.a * x + m.b * y) for m in linear)
    return 2 if moved else 1


def _has_involution(desc: AffineQ2, reflection: Mat2Q) -> bool:
    """Whether G, whose linear image is {I, A} for the reflection A, holds
    an involution.

    With s = (A, v) the first generator over A, the elements over A are
    (A, v + t) for t in the translation subgroup T, and (A, w)^2 =
    (I, (I + A) w); so an involution exists exactly when (I + A) v lies in
    (I + A) T.  T is spanned by s^2, each g s^-1 (g over A), the translation
    generators and their images under A, and (I + A) A = I + A, so (I + A) T
    is the cyclic subgroup of A's fixed line spanned by (I + A) t over the
    first three.  Membership is compared on one coordinate that is nonzero
    on that line.
    """
    row = (1 + reflection.a, reflection.b)
    if row == (0, 0):
        row = (reflection.c, 1 + reflection.d)
    v = next(g.translation for _, g in desc.generators if g.linear == reflection)
    target = row[0] * v[0] + row[1] * v[1]
    step = 2 * target  # from s^2 = (I, (I + A) v)
    for _, g in desc.generators:
        x, y = g.translation
        if g.linear == reflection:
            x, y = x - v[0], y - v[1]  # g s^-1 = (I, w - v) for g = (A, w)
        c = row[0] * x + row[1] * y
        step = F(gcd(step.numerator * c.denominator, c.numerator * step.denominator),
                 step.denominator * c.denominator)
    return target == 0 or (target / step).denominator == 1


def _analyze_affine(desc: AffineQ2) -> _AffineData:
    maps = [gen_map for _, gen_map in desc.generators]
    abelian = all(
        affine_compose(g, h) == affine_compose(h, g)
        for idx, g in enumerate(maps)
        for h in maps[idx + 1 :]
    )
    distinct = tuple(dict.fromkeys(g.linear for g in maps if g.linear != Mat2Q.identity()))
    closure = _linear_closure(distinct)
    if closure is not None:
        # a plane group with a finite-order linear part with no eigenvalue 1
        # has torsion, so a torsion-free finite image is trivial or a single
        # determinant -1 involution
        extra = [m for m in closure if m != Mat2Q.identity()]
        if any(m.det() != -1 for m in extra) or len(extra) > 1:
            raise ClassifyError("affine descriptor presents a group with torsion")
        image = "trivial" if not extra else "finite"
        composite = None
    elif len(distinct) == 1:
        image = "cyclic"
        composite = distinct[0]
    elif (
        len(distinct) == 2
        and all(m.is_reflection() for m in distinct)
        and matrix_order(distinct[0] * distinct[1]) is None
    ):
        image = "dinfty"
        composite = distinct[0] * distinct[1]
    else:
        raise ClassifyError("affine descriptor has an unsupported linear image shape")
    rank_t = _translation_rank(desc, distinct)
    if image in ("cyclic", "dinfty") and rank_t == 1:
        raise ClassifyError(
            "affine descriptor with rank-one translation part is not supported"
        )
    if image == "dinfty" and rank_t == 0:
        raise ClassifyError("affine descriptor presents a group with torsion")
    if image == "finite" and rank_t < 2:
        raise ClassifyError(
            "affine descriptor with finite nontrivial image needs translation rank 2"
        )
    if image == "finite" and _has_involution(desc, distinct[0]):
        raise ClassifyError("affine descriptor presents a group with torsion")
    return _AffineData(rank_t, image, composite, abelian, distinct)


# --- family predicates --------------------------------------------------------


def _meta_radical_abelian_h3(desc: MetabelianH31) -> bool:
    words = [Word.gen("a")]
    for i, j in desc.ratio_lattice.relations():
        words.append(Word.of((("t", i), ("u", j))))
    return all(
        meta_of_word(desc, commutator(w1, w2)) == META_IDENTITY
        for idx, w1 in enumerate(words)
        for w2 in words[idx + 1 :]
    )


_WHOLE = "whole group, virtually nilpotent"
_FP_IS_FP2 = "finitely presentable, hence FP2"
_E_NOTE = "the twist parameter does not change finite presentability"
_FP2 = TriState(True, _FP_IS_FP2)
_TYPE3 = (True, Type3(), _FP2)


def _ascending_type(matrix: Mat2Q) -> tuple[bool, ConstructibleType, TriState]:
    """Presentability data for a rank-two module extended by one matrix."""
    if is_unimodular_integral_class(matrix):
        return _TYPE3
    if conjugate_to_integral(matrix) or conjugate_to_integral(matrix.inverse()):
        return True, Type2("Z2"), _FP2
    return False, None, TriState(
        False,
        "with a radical of Hirsch length 2, FP2 already forces finite "
        "presentability, and neither the acting matrix nor its inverse is "
        "conjugate to an integer matrix",
    )


def _meta_fp_status(
    desc: MetabelianH31, kernel_rank: int, has_minus_one: bool
) -> tuple[bool, ConstructibleType, TriState]:
    """Presentability data for a metabelian descriptor that is not
    polycyclic."""
    if kernel_rank == 0:
        if cone_integer_point(list(zip(*desc.ratio_lattice.rows))) is None:
            return False, None, TriState(
                None,
                "whether an FP2 group with rank-one radical must be "
                "finitely presentable is an open question; " + _E_NOTE,
            )
        realized = _type1_ratio(desc)
        return True, Type1(realized), TriState(True, _FP_IS_FP2 + "; " + _E_NOTE)
    # rank-one multiplicative image: every per-prime valuation point of
    # (t_ratio, u_ratio) is a multiple of one direction, so the module is
    # tame exactly when the image generator or its inverse is an integer;
    # |r1^i r2^j| at a complement (i, j) of the one relation vector is
    # that generator or its inverse
    i, j = complement_vector(desc.ratio_lattice.kernel[0])
    generator = abs(desc.t_ratio**i * desc.u_ratio**j)
    if generator.denominator == 1 or generator.numerator == 1:
        return True, Type2("Kb" if has_minus_one else "Z2"), _FP2
    return False, None, TriState(
        False,
        "with a radical of Hirsch length 2, FP2 already forces finite "
        "presentability, and the rank-one multiplicative image is "
        "generated by a rational that is integral in neither direction",
    )


# --- one invariants function per family ----------------------------------------


def _coherence(
    hirsch: int, radical: RadicalInfo, polycyclic: bool, fp: bool, fp2: TriState
) -> TriState:
    if polycyclic:
        return TriState(True, "polycyclic groups are coherent")
    if hirsch != 3:
        if fp:
            return TriState(
                True,
                "every finitely generated subgroup is free abelian or an "
                "ascending extension of the same integral kind, hence "
                "finitely presentable",
            )
        return TriState(
            False, "the group itself is finitely generated but not "
            "finitely presentable"
        )
    if radical.hirsch >= 2:
        if fp2.value:
            return TriState(
                True,
                "FP2 groups whose radical has Hirsch length at least 2 are "
                "coherent",
            )
        return TriState(
            False, "the group itself is finitely generated but not FP2"
        )
    if fp:
        return TriState(
            False,
            "contains a finitely generated subgroup, an extension of "
            "Z[1/pq] by Z with p and q both greater than 1, that is not FP2",
        )
    return TriState(
        None,
        "coherence here reduces to the open question whether FP2 forces "
        "finite presentability when the radical has Hirsch length 1",
    )


def _manifold_dim(h: int, polycyclic: bool, fp: bool, ctype: ConstructibleType) -> ManifoldDim:
    if polycyclic:
        return ManifoldDim(h, h, h)
    if not fp:
        return ManifoldDim(h + 2, None, None)
    if h == 3:
        if isinstance(ctype, Type1):
            return ManifoldDim(5, 5, 5)
        return ManifoldDim(5, 6, None)
    # Hirsch length 2, finitely presentable, not polycyclic: an ascending
    # one-relator group, realized by an aspherical 4-manifold and by
    # nothing smaller
    return ManifoldDim(4, 4, 4)


def _report(
    hirsch: int,
    radical: RadicalInfo,
    quotient: Optional[QuotientType],
    derived_length: int,
    polycyclic: bool,
    fp: tuple[bool, ConstructibleType, TriState],
    sections: tuple[str, ...],
) -> ClassificationReport:
    """The report on a group from its family-specific invariants, with the
    family-independent ones derived and the whole cross-checked.

    `quotient` is None off Hirsch length 3; `fp` is the triple
    (finitely presentable, constructible type, FP2).
    """
    presentable, ctype, fp2 = fp
    report = ClassificationReport(
        hirsch_length=hirsch,
        radical=radical,
        quotient=quotient,
        derived_length=derived_length,
        polycyclic=polycyclic,
        finitely_presentable=presentable,
        constructible=presentable,
        fp2=fp2,
        coherent=_coherence(hirsch, radical, polycyclic, presentable, fp2),
        cohomological_dimension=hirsch if presentable else hirsch + 1,
        minimax=MinimaxInfo(True, sections),
        constructible_type=ctype,
        manifold_dim=_manifold_dim(hirsch, polycyclic, presentable, ctype),
    )
    _enforce_report_invariants(report)
    return report


def _quotient(radical: RadicalInfo, rank_two_tag: str) -> QuotientType:
    """The quotient by the radical at Hirsch length 3: Z2 over a rank-one
    radical, virtually trivial over the whole group, and the family's tag
    over a rank-two radical."""
    return QuotientType({1: "Z2", 3: "VirtuallyTrivial"}.get(radical.hirsch, rank_two_tag))


def _rank_one_invariants(desc: RankOneQ) -> ClassificationReport:
    h = 0 if all(x == 0 for x in desc.generators) else 1
    return _report(
        hirsch=h,
        radical=RadicalInfo(h, _WHOLE, True),
        quotient=None,
        derived_length=h,  # trivial or abelian
        polycyclic=True,
        fp=_TYPE3,
        sections=("Z",) * h,
    )


def _bsbar_invariants(desc: BSbar) -> ClassificationReport:
    label = _section_label(desc.locus)
    polycyclic = abs(desc.m * desc.n) == 1
    if desc.m == 1 and abs(desc.n) == 1:
        described = _WHOLE if desc.n == 1 else _ranks_description({})
        radical = RadicalInfo(2, described, True)
    else:
        radical = RadicalInfo(1, label, True)
    if polycyclic:
        fp = _TYPE3
    elif desc.m == 1:
        fp = True, None, _FP2
    else:
        fp = False, None, TriState(
            False,
            "extensions of Z[1/mn] by Z with m and |n| both greater than 1 "
            "are not FP2",
        )
    return _report(
        hirsch=2,
        radical=radical,
        quotient=None,
        derived_length=1 if desc.ratio == 1 else 2,
        polycyclic=polycyclic,
        fp=fp,
        sections=(label, "Z"),
    )


def _meta_invariants(desc: MetabelianH31) -> ClassificationReport:
    lattice = desc.ratio_lattice
    kernel_rank, has_minus_one = 2 - lattice.rank, lattice.has_minus_one
    label = _section_label(desc.locus)
    if kernel_rank == 0:
        radical = RadicalInfo(1, label, True)
    elif kernel_rank == 1:
        ranks = {p: 1 for p in lattice.primes}
        radical = RadicalInfo(2, _ranks_description(ranks), True)
    else:
        radical = RadicalInfo(3, _WHOLE, _meta_radical_abelian_h3(desc))
    polycyclic = abs(desc.t_ratio) == 1 and abs(desc.u_ratio) == 1
    abelian = desc.t_ratio == 1 and desc.u_ratio == 1 and desc.e == 0
    return _report(
        hirsch=3,
        radical=radical,
        quotient=_quotient(radical, "ZplusZ2" if has_minus_one else "Z"),
        derived_length=1 if abelian else 2,
        polycyclic=polycyclic,
        fp=_TYPE3 if polycyclic else _meta_fp_status(desc, kernel_rank, has_minus_one),
        sections=(label, "Z", "Z"),
    )


def _lattice_invariants(desc: LatticeByZ) -> ClassificationReport:
    m = desc.matrix
    ranks = _module_growth_ranks(m)
    if matrix_order(m) is not None:
        radical = RadicalInfo(3, _WHOLE, True)
    elif _is_plus_minus_unipotent(m):
        radical = RadicalInfo(3, _WHOLE, m == Mat2Q.identity())
    else:
        radical = RadicalInfo(2, _ranks_description(ranks), True)
    bottom, top = _rank2_module_moduli(m, ranks)
    return _report(
        hirsch=3,
        radical=radical,
        quotient=_quotient(radical, "Z"),
        derived_length=1 if m == Mat2Q.identity() else 2,
        polycyclic=is_unimodular_integral_class(m),
        fp=_TYPE3 if radical.hirsch == 3 else _ascending_type(m),
        sections=(_section_label(bottom), _section_label(top), "Z"),
    )


def _hnnkb_invariants(desc: AscHNNKb) -> ClassificationReport:
    polycyclic = abs(desc.e * desc.d) == 1
    e_primes, d_primes = prime_factors(desc.e), prime_factors(desc.d)
    if polycyclic:
        radical = RadicalInfo(3, _WHOLE, True)
    else:
        ranks: dict[int, int] = {}
        for p in e_primes + d_primes:
            ranks[p] = ranks.get(p, 0) + 1
        radical = RadicalInfo(2, _ranks_description(ranks), True)
    return _report(
        hirsch=3,
        radical=radical,
        quotient=_quotient(radical, "ZplusZ2"),
        derived_length=2,
        polycyclic=polycyclic,
        fp=_TYPE3 if polycyclic else (True, Type2("Kb"), _FP2),
        sections=(
            _section_label(prod(d_primes)),
            _section_label(prod(e_primes)),
            "finite",
            "Z",
        ),
    )


def _affine_invariants(desc: AffineQ2) -> ClassificationReport:
    data = _analyze_affine(desc)
    h, composite = data.hirsch, data.composite
    ranks: dict[int, int] = {}
    if composite is not None and data.rank_t == 2:
        ranks = _module_growth_ranks(composite)
    if data.image in ("trivial", "finite"):
        radical = RadicalInfo(h, _WHOLE, True)
    elif data.rank_t == 0:
        radical = RadicalInfo(1, _WHOLE, True)
    elif composite is not None and _is_plus_minus_unipotent(composite):
        radical = RadicalInfo(3, _WHOLE, data.abelian)
    else:
        radical = RadicalInfo(2, _ranks_description(ranks), True)
    if data.image == "trivial" and data.rank_t == 0:
        derived = 0
    elif data.abelian:
        derived = 1
    elif data.image == "dinfty" and not _reflection_lines_coincide(data.linear):
        derived = 3
    else:
        derived = 2
    polycyclic = not ranks  # the translations are finitely generated
    if polycyclic:
        fp = _TYPE3
    else:
        assert composite is not None
        fp = _ascending_type(composite)
    if data.rank_t == 2 and composite is not None:
        bottom, top = _rank2_module_moduli(composite, ranks)
        sections = [_section_label(bottom), _section_label(top)]
    else:
        sections = ["Z"] * data.rank_t
    sections += {
        "trivial": [], "finite": ["finite"], "cyclic": ["Z"], "dinfty": ["Z", "finite"]
    }[data.image]
    tag = "Dinfty" if data.image == "dinfty" else "Z"
    return _report(
        hirsch=h,
        radical=radical,
        quotient=_quotient(radical, tag) if h == 3 else None,
        derived_length=derived,
        polycyclic=polycyclic,
        fp=fp,
        sections=tuple(sections),
    )


_INVARIANTS: dict[type, Callable[[Any], ClassificationReport]] = {
    BSbar: _bsbar_invariants,
    MetabelianH31: _meta_invariants,
    LatticeByZ: _lattice_invariants,
    AscHNNKb: _hnnkb_invariants,
    RankOneQ: _rank_one_invariants,
    AffineQ2: _affine_invariants,
}


def classify(desc: GroupDescriptor) -> ClassificationReport:
    """The family's report on the group.  Read its fields; the public steps
    below remain only for the benchmark's tracer."""
    try:
        family = _INVARIANTS[type(desc)]
    except KeyError:
        raise TypeError(f"unknown descriptor {desc!r}") from None
    return family(desc)


def _at_hirsch_three(desc: GroupDescriptor, what: str) -> ClassificationReport:
    report = classify(desc)
    if report.hirsch_length != 3:
        raise ClassifyError(f"{what} classified at Hirsch length 3 only")
    return report


# --- operations ---------------------------------------------------------------

# Each step reads one report field.  No code in this package calls them:
# `perfbench/tracing.py` wraps them by name (`CLASSIFY_STEPS`), so they go
# with the tracer's change in ROADMAP item 3(a).


def hirsch_length(desc: GroupDescriptor) -> int:
    return classify(desc).hirsch_length


def radical_info(desc: GroupDescriptor) -> RadicalInfo:
    return classify(desc).radical


def quotient_type(desc: GroupDescriptor) -> QuotientType:
    return _at_hirsch_three(desc, "quotient type is").quotient


def derived_length(desc: GroupDescriptor) -> int:
    return classify(desc).derived_length


def is_polycyclic(desc: GroupDescriptor) -> bool:
    return classify(desc).polycyclic


def fp_status(desc: GroupDescriptor) -> tuple[bool, ConstructibleType, TriState]:
    report = classify(desc)
    return report.finitely_presentable, report.constructible_type, report.fp2


def cohomological_dimension(desc: GroupDescriptor) -> int:
    return classify(desc).cohomological_dimension


def coherence_status(desc: GroupDescriptor) -> TriState:
    return _at_hirsch_three(desc, "coherence is").coherent


def minimax_series(desc: GroupDescriptor) -> list[str]:
    return list(classify(desc).minimax.sections)


_ALLOWED_QUOTIENTS = {1: {"Z2"}, 2: {"Z", "Dinfty", "ZplusZ2"}, 3: {"VirtuallyTrivial"}}


def _enforce_report_invariants(report: ClassificationReport) -> None:
    def fail(message: str) -> None:
        raise InvariantViolation(message)

    if report.derived_length > 3:
        fail("solvable groups of Hirsch length at most 3 have derived length at most 3")
    if report.hirsch_length == report.cohomological_dimension == 3 and (
        report.constructible_type is None
    ):
        fail("groups with Hirsch length and cd 3 must be of type 1, 2 or 3")
    if isinstance(report.constructible_type, Type3) and not report.polycyclic:
        fail("groups of type 3 must be polycyclic")
    if report.polycyclic and not isinstance(report.constructible_type, Type3):
        fail("polycyclic groups must be of type 3")
    if report.radical.hirsch > report.hirsch_length:
        fail("radical Hirsch length exceeds the group's")
    if report.quotient is not None:
        allowed = _ALLOWED_QUOTIENTS.get(report.radical.hirsch, set())
        if report.quotient.tag not in allowed:
            fail("quotient tag is not allowed for this radical")
    infinite_sections = sum(1 for s in report.minimax.sections if s != "finite")
    if infinite_sections != report.hirsch_length:
        fail("minimax sections must account for the Hirsch length")
    if report.fp2.value is False and report.finitely_presentable:
        fail("finitely presentable groups are FP2")
