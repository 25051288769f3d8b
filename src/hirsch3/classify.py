"""Invariant computation for the supported descriptor families.

For each group this module computes the Hirsch length, Fitting radical
data, the quotient by the radical, derived length, polycyclicity, finite
presentability with its constructible type, FP2 and coherence values,
cohomological dimension, minimax section data, and the dimension range of
compact aspherical manifolds realizing the group.  `classify` aggregates
everything into a `ClassificationReport` and cross-checks the result.

Scope notes.  The quotient type, coherence, and manifold operations are
fully specified only at Hirsch length 3; `classify` fills those report
fields for shorter groups when an invariant forces the value and marks
them not-computed otherwise.  Affine descriptors are supported in the
shapes the fixture corpus uses: trivial or finite linear image, a single
infinite-order linear generator, or two order-two reflections generating
an infinite dihedral image.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod
from typing import Optional, Union

from .families import (
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
    meta_identity,
    meta_of_word,
)
from .rationals import (
    Mat2Q,
    conjugate_to_integral,
    is_unimodular_integral_class,
    matrix_order,
    mult_rank,
    prime_factors,
    primes_of,
    radical_of,
    rational_valuation,
)
from .words import Word

F = Fraction


class ClassifyError(ValueError):
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

    def to_json(self) -> dict:
        return {"value": self.text, "note": self.note}


@dataclass(frozen=True)
class RadicalInfo:
    hirsch: int
    module_description: str
    is_abelian: bool

    def to_json(self) -> dict:
        return {
            "hirsch": self.hirsch,
            "module_description": self.module_description,
            "is_abelian": self.is_abelian,
        }


@dataclass(frozen=True)
class QuotientType:
    tag: str

    def __post_init__(self) -> None:
        if self.tag not in QUOTIENT_TAGS:
            raise ValueError(f"unknown quotient tag {self.tag!r}")

    def to_json(self) -> dict:
        return {"tag": self.tag}


@dataclass(frozen=True)
class Type1:
    n: int

    def to_json(self) -> dict:
        return {"kind": "Type1", "n": self.n}


@dataclass(frozen=True)
class Type2:
    base: str  # "Z2" or "Kb" (or "Z" never: short groups carry no type)

    def to_json(self) -> dict:
        return {"kind": "Type2", "base": self.base}


@dataclass(frozen=True)
class Type3:
    def to_json(self) -> dict:
        return {"kind": "Type3"}


ConstructibleType = Union[Type1, Type2, Type3, None]


@dataclass(frozen=True)
class MinimaxInfo:
    value: bool
    sections: tuple[str, ...]

    def to_json(self) -> dict:
        return {"value": self.value, "sections": list(self.sections)}


@dataclass(frozen=True)
class ManifoldDim:
    lower: int
    upper: Optional[int]
    exact: Optional[int]

    def to_json(self) -> dict:
        return {"lower": self.lower, "upper": self.upper, "exact": self.exact}


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
        return {
            "hirsch_length": self.hirsch_length,
            "radical": self.radical.to_json(),
            "quotient": None if self.quotient is None else self.quotient.to_json(),
            "derived_length": self.derived_length,
            "polycyclic": self.polycyclic,
            "finitely_presentable": self.finitely_presentable,
            "constructible": self.constructible,
            "fp2": self.fp2.to_json(),
            "coherent": self.coherent.to_json(),
            "cohomological_dimension": self.cohomological_dimension,
            "minimax": self.minimax.to_json(),
            "constructible_type": (
                None
                if self.constructible_type is None
                else self.constructible_type.to_json()
            ),
            "manifold_dim": self.manifold_dim.to_json(),
        }


# --- matrix module analysis -------------------------------------------------


def _is_plus_minus_unipotent(m: Mat2Q) -> bool:
    for sign in (1, -1):
        shifted = Mat2Q(m.a - sign, m.b, m.c, m.d - sign)
        if shifted * shifted == Mat2Q.of(0, 0, 0, 0):
            return True
    return False


def _reflection_lines_coincide(desc: AffineQ2) -> bool:
    """Whether the two involutions generating the linear image share their
    -1 eigenline.

    When they do, the whole commutator subgroup consists of translations
    along that line together with unipotent parts fixing it pointwise, so it
    is abelian; otherwise the second derived subgroup is nontrivial.
    """
    distinct: list[Mat2Q] = []
    for _, gen_map in desc.generators:
        m = gen_map.linear
        if m != Mat2Q.identity() and m not in distinct:
            distinct.append(m)
    lines: list[tuple[Fraction, Fraction]] = []
    for m in distinct:
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
    return radical_of(abs(x.numerator) * x.denominator)


def _rank2_module_moduli(m: Mat2Q) -> tuple[int, int]:
    """Section moduli (bottom, top) of a series for the m-saturation of Z^2.

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
    ranks = _module_growth_ranks(m)
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


def _valuation_rows(r1: Fraction, r2: Fraction) -> list[tuple[int, int, int]]:
    """(p, v_p(r1), v_p(r2)) for every prime of either ratio."""
    return [
        (p, rational_valuation(r1, p), rational_valuation(r2, p))
        for p in sorted(primes_of(r1, r2))
    ]


def _halfplane_witness(
    rows: list[tuple[int, int]],
) -> Optional[tuple[Fraction, Fraction]]:
    """A rational point with row . x >= 1 for every row, or None.

    Two-variable Fourier-Motzkin: solve each constraint for the first
    coordinate, pair lower bounds against upper bounds to get one-variable
    constraints, and pick a point inside the surviving interval.
    """
    lowers = [(F(a), F(b)) for a, b in rows if a > 0]
    uppers = [(F(a), F(b)) for a, b in rows if a < 0]
    jlow: Optional[Fraction] = None
    jhigh: Optional[Fraction] = None

    def tighten(low: Optional[Fraction], high: Optional[Fraction], a: Fraction,
                b: Fraction) -> Optional[tuple[Optional[Fraction], Optional[Fraction]]]:
        # a * j >= b
        if a > 0:
            bound = b / a
            low = bound if low is None else max(low, bound)
        elif a < 0:
            bound = b / a
            high = bound if high is None else min(high, bound)
        elif b > 0:
            return None
        return low, high

    for a, b in rows:
        if a == 0:
            got = tighten(jlow, jhigh, F(b), F(1))
            if got is None:
                return None
            jlow, jhigh = got
    for al, bl in lowers:
        for au, bu in uppers:
            # (1 - bl j)/al <= (1 - bu j)/au with al > 0 > au
            got = tighten(jlow, jhigh, al * bu - au * bl, al - au)
            if got is None:
                return None
            jlow, jhigh = got
    if jlow is not None and jhigh is not None and jlow > jhigh:
        return None
    if jlow is not None:
        j = jlow
    elif jhigh is not None:
        j = jhigh
    else:
        j = F(0)
    ilow: Optional[Fraction] = None
    ihigh: Optional[Fraction] = None
    for a, b in lowers:
        bound = (1 - b * j) / a
        ilow = bound if ilow is None else max(ilow, bound)
    for a, b in uppers:
        bound = (1 - b * j) / a
        ihigh = bound if ihigh is None else min(ihigh, bound)
    if ilow is not None and ihigh is not None and ilow > ihigh:
        return None
    i = ilow if ilow is not None else (ihigh if ihigh is not None else F(0))
    if any(a * i + b * j < 1 for a, b in rows):
        raise InvariantViolation("feasibility witness failed its own system")
    return i, j


def cone_integer_point(rows: list[tuple[int, int]]) -> Optional[tuple[int, int]]:
    """An integer point of {x : row . x >= 1 for all rows}, or None.

    The region is closed under scaling by t >= 1, so clearing denominators
    of any rational witness stays inside it.
    """
    witness = _halfplane_witness(rows)
    if witness is None:
        return None
    i, j = witness
    scale = lcm(i.denominator, j.denominator)
    return int(i * scale), int(j * scale)


_TYPE1_SEARCH_CAP = 200_000


def _type1_ratio(r1: Fraction, r2: Fraction) -> int:
    """The realized integer ratio of smallest absolute value.

    Candidate absolute values are the integers divisible by every prime of
    the ratios and supported only on those primes, enumerated in increasing
    order; the exponent map is injective here, so each value is realized by
    at most one exponent pair, solved exactly from two independent rows.
    """
    rows = _valuation_rows(r1, r2)
    primes = [p for p, _, _ in rows]
    base = [(va, vb) for _, va, vb in rows]
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
        targets = [rational_valuation(F(value), p) for p in primes]
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
    raise InvariantViolation("realized ratio search exceeded its cap")


# --- affine analysis ---------------------------------------------------------


@dataclass(frozen=True)
class _AffineData:
    rank_t: int
    image: str  # "trivial" | "finite" | "cyclic" | "dinfty"
    image_order: Optional[int]
    composite: Optional[Mat2Q]
    abelian: bool

    @property
    def rank_l(self) -> int:
        return 1 if self.image in ("cyclic", "dinfty") else 0

    @property
    def hirsch(self) -> int:
        return self.rank_t + self.rank_l

    @property
    def ranks(self) -> dict[int, int]:
        if self.composite is None or self.rank_t < 2:
            return {}
        return _module_growth_ranks(self.composite)

    @property
    def translations_fg(self) -> bool:
        return not self.ranks


def _linear_closure(mats: list[Mat2Q], cap: int = 24) -> Optional[set[Mat2Q]]:
    """The group the matrices generate if it has at most cap elements."""
    closure = {Mat2Q.identity()}
    frontier = [Mat2Q.identity()]
    gens = []
    for m in mats:
        gens.extend((m, m.inverse()))
    while frontier:
        nxt = []
        for g in frontier:
            for m in gens:
                prod_gm = g * m
                if prod_gm not in closure:
                    closure.add(prod_gm)
                    nxt.append(prod_gm)
                    if len(closure) > cap:
                        return None
        frontier = nxt
    return closure


def _pure_translations(desc: AffineQ2, depth: int = 4) -> list[tuple[Fraction, Fraction]]:
    """Translation vectors of the identity-linear-part words up to depth."""
    gens: list[AffineMap2] = []
    for _, gen_map in desc.generators:
        gens.extend((gen_map, affine_inverse(gen_map)))
    seen = {AffineMap2.identity()}
    frontier = [AffineMap2.identity()]
    found: list[tuple[Fraction, Fraction]] = []
    for _ in range(depth):
        nxt = []
        for g in frontier:
            for m in gens:
                composed = affine_compose(g, m)
                if composed in seen:
                    continue
                seen.add(composed)
                nxt.append(composed)
                if composed.linear == Mat2Q.identity() and composed.translation != (0, 0):
                    found.append(composed.translation)
        frontier = nxt
    return found


def _span_rank(vectors: list[tuple[Fraction, Fraction]], mats: list[Mat2Q]) -> int:
    """Dimension of the smallest subspace containing the vectors and stable
    under the matrices."""
    basis: list[tuple[Fraction, Fraction]] = []

    def insert(v: tuple[Fraction, Fraction]) -> bool:
        if len(basis) == 2:
            return False
        if v == (0, 0):
            return False
        if basis:
            b = basis[0]
            if b[0] * v[1] - b[1] * v[0] == 0:
                return False
        basis.append(v)
        return True

    for v in vectors:
        insert(v)
    changed = True
    while changed and len(basis) < 2:
        changed = False
        for m in mats:
            for v in list(basis):
                if insert(m.apply(v)):
                    changed = True
    return len(basis)


@lru_cache(maxsize=None)
def _analyze_affine(desc: AffineQ2) -> _AffineData:
    maps = [gen_map for _, gen_map in desc.generators]
    nonid = [g.linear for g in maps if g.linear != Mat2Q.identity()]
    abelian = all(
        affine_compose(g, h) == affine_compose(h, g)
        for idx, g in enumerate(maps)
        for h in maps[idx + 1 :]
    )
    distinct: list[Mat2Q] = []
    for m in nonid:
        if m not in distinct:
            distinct.append(m)
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
        order: Optional[int] = len(closure)
    else:
        order = None
        if len(distinct) == 1:
            image = "cyclic"
            composite = distinct[0]
        elif (
            len(distinct) == 2
            and all(m.det() == -1 and matrix_order(m) == 2 for m in distinct)
            and matrix_order(distinct[0] * distinct[1]) is None
        ):
            image = "dinfty"
            composite = distinct[0] * distinct[1]
        else:
            raise ClassifyError(
                "affine descriptor has an unsupported linear image shape"
            )
    pure = _pure_translations(desc)
    rank_t = _span_rank(pure, [g.linear for g in maps])
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
    return _AffineData(rank_t, image, order, composite, abelian)


# --- family predicates --------------------------------------------------------


def _is_trivial(desc: GroupDescriptor) -> bool:
    if isinstance(desc, RankOneQ):
        return all(x == 0 for x in desc.generators)
    if isinstance(desc, AffineQ2):
        data = _analyze_affine(desc)
        return data.image == "trivial" and data.rank_t == 0
    return False


def _is_abelian(desc: GroupDescriptor) -> bool:
    if isinstance(desc, RankOneQ):
        return True
    if isinstance(desc, BSbar):
        return desc.ratio == 1
    if isinstance(desc, MetabelianH31):
        return desc.t_ratio == 1 and desc.u_ratio == 1 and desc.e == 0
    if isinstance(desc, LatticeByZ):
        return desc.matrix == Mat2Q.identity()
    if isinstance(desc, AscHNNKb):
        return False
    return _analyze_affine(desc).abelian


def _meta_kernel_rank(desc: MetabelianH31) -> int:
    rank, _ = mult_rank((desc.t_ratio, desc.u_ratio))
    return 2 - rank


def _meta_sign_kernel_basis(desc: MetabelianH31) -> list[tuple[int, int]]:
    """Basis of {(i, j) : t_ratio^i u_ratio^j = 1} when both ratios are +-1."""
    s1 = 1 if desc.t_ratio < 0 else 0
    s2 = 1 if desc.u_ratio < 0 else 0
    if (s1, s2) == (0, 0):
        return [(1, 0), (0, 1)]
    if (s1, s2) == (1, 0):
        return [(2, 0), (0, 1)]
    if (s1, s2) == (0, 1):
        return [(1, 0), (0, 2)]
    return [(1, 1), (0, 2)]


def _meta_words_commute(desc: MetabelianH31, w1: Word, w2: Word) -> bool:
    commutator = w1 * w2 * w1.inv() * w2.inv()
    return meta_of_word(desc, commutator) == meta_identity()


def _meta_radical_abelian_h3(desc: MetabelianH31) -> bool:
    words = [Word.gen("a")]
    for i, j in _meta_sign_kernel_basis(desc):
        words.append(Word.of((("t", i), ("u", j))) if i else Word.gen("u", j))
    return all(
        _meta_words_commute(desc, w1, w2)
        for idx, w1 in enumerate(words)
        for w2 in words[idx + 1 :]
    )


# --- operations ---------------------------------------------------------------


def hirsch_length(desc: GroupDescriptor) -> int:
    if isinstance(desc, RankOneQ):
        return 0 if _is_trivial(desc) else 1
    if isinstance(desc, BSbar):
        return 2
    if isinstance(desc, (MetabelianH31, LatticeByZ, AscHNNKb)):
        return 3
    return _analyze_affine(desc).hirsch


def radical_info(desc: GroupDescriptor) -> RadicalInfo:
    whole = "whole group, virtually nilpotent"
    if isinstance(desc, RankOneQ):
        return RadicalInfo(hirsch_length(desc), whole, True)
    if isinstance(desc, BSbar):
        if desc.m == 1 and abs(desc.n) == 1:
            if desc.n == 1:
                return RadicalInfo(2, whole, True)
            return RadicalInfo(2, _ranks_description({}), True)
        return RadicalInfo(1, _section_label(desc.locus), True)
    if isinstance(desc, MetabelianH31):
        kernel_rank = _meta_kernel_rank(desc)
        if kernel_rank == 0:
            return RadicalInfo(1, _section_label(desc.locus), True)
        if kernel_rank == 1:
            ranks = {p: 1 for p in prime_factors(desc.locus)}
            return RadicalInfo(2, _ranks_description(ranks), True)
        return RadicalInfo(3, whole, _meta_radical_abelian_h3(desc))
    if isinstance(desc, LatticeByZ):
        m = desc.matrix
        order = matrix_order(m)
        if order is not None:
            return RadicalInfo(3, whole, True)
        if _is_plus_minus_unipotent(m):
            return RadicalInfo(3, whole, m == Mat2Q.identity())
        return RadicalInfo(2, _ranks_description(_module_growth_ranks(m)), True)
    if isinstance(desc, AscHNNKb):
        if abs(desc.e * desc.d) == 1:
            return RadicalInfo(3, whole, True)
        ranks: dict[int, int] = {}
        for value in (desc.e, desc.d):
            for p in prime_factors(abs(value)) if abs(value) > 1 else []:
                ranks[p] = ranks.get(p, 0) + 1
        return RadicalInfo(2, _ranks_description(ranks), True)
    data = _analyze_affine(desc)
    if data.image in ("trivial", "finite"):
        return RadicalInfo(data.hirsch, whole, True)
    if data.rank_t == 0:
        return RadicalInfo(1, whole, True)
    if data.composite is not None and _is_plus_minus_unipotent(data.composite):
        return RadicalInfo(3, whole, data.abelian)
    return RadicalInfo(2, _ranks_description(data.ranks), True)


def quotient_type(desc: GroupDescriptor) -> QuotientType:
    if hirsch_length(desc) != 3:
        raise ClassifyError("quotient type is classified at Hirsch length 3 only")
    radical = radical_info(desc)
    if radical.hirsch == 1:
        return QuotientType("Z2")
    if radical.hirsch == 3:
        return QuotientType("VirtuallyTrivial")
    if isinstance(desc, MetabelianH31):
        _, has_minus_one = mult_rank((desc.t_ratio, desc.u_ratio))
        return QuotientType("ZplusZ2" if has_minus_one else "Z")
    if isinstance(desc, LatticeByZ):
        return QuotientType("Z")
    if isinstance(desc, AscHNNKb):
        return QuotientType("ZplusZ2")
    data = _analyze_affine(desc)
    return QuotientType("Dinfty" if data.image == "dinfty" else "Z")


def derived_length(desc: GroupDescriptor) -> int:
    if _is_trivial(desc):
        return 0
    if _is_abelian(desc):
        return 1
    if isinstance(desc, AffineQ2):
        if _analyze_affine(desc).image != "dinfty":
            return 2
        return 2 if _reflection_lines_coincide(desc) else 3
    return 2


def is_polycyclic(desc: GroupDescriptor) -> bool:
    if isinstance(desc, RankOneQ):
        return True
    if isinstance(desc, BSbar):
        return abs(desc.m * desc.n) == 1
    if isinstance(desc, MetabelianH31):
        return abs(desc.t_ratio) == 1 and abs(desc.u_ratio) == 1
    if isinstance(desc, LatticeByZ):
        return is_unimodular_integral_class(desc.matrix)
    if isinstance(desc, AscHNNKb):
        return abs(desc.e * desc.d) == 1
    data = _analyze_affine(desc)
    if data.image in ("trivial", "finite") or data.rank_t == 0:
        return True
    return data.translations_fg


_FP_IS_FP2 = "finitely presentable, hence FP2"
_E_NOTE = "the twist parameter does not change finite presentability"


def _rank2_fp_notes(fp: bool) -> TriState:
    if fp:
        return TriState(True, _FP_IS_FP2)
    return TriState(
        False,
        "with a radical of Hirsch length 2, FP2 already forces finite "
        "presentability, and neither the acting matrix nor its inverse is "
        "conjugate to an integer matrix",
    )


def _ascending_type(matrix: Mat2Q) -> tuple[bool, ConstructibleType, TriState]:
    """Presentability data for a rank-two module extended by one matrix."""
    if is_unimodular_integral_class(matrix):
        return True, Type3(), TriState(True, _FP_IS_FP2)
    if conjugate_to_integral(matrix) or conjugate_to_integral(matrix.inverse()):
        return True, Type2("Z2"), TriState(True, _FP_IS_FP2)
    return False, None, _rank2_fp_notes(False)


def fp_status(desc: GroupDescriptor) -> tuple[bool, ConstructibleType, TriState]:
    if isinstance(desc, RankOneQ):
        return True, Type3(), TriState(True, _FP_IS_FP2)
    if isinstance(desc, BSbar):
        if abs(desc.m * desc.n) == 1:
            return True, Type3(), TriState(True, _FP_IS_FP2)
        if desc.m == 1:
            return True, None, TriState(True, _FP_IS_FP2)
        return (
            False,
            None,
            TriState(
                False,
                "extensions of Z[1/mn] by Z with m and |n| both greater than 1 "
                "are not FP2",
            ),
        )
    if isinstance(desc, MetabelianH31):
        if is_polycyclic(desc):
            return True, Type3(), TriState(True, _FP_IS_FP2)
        kernel_rank = _meta_kernel_rank(desc)
        if kernel_rank == 0:
            rows = [(va, vb) for _, va, vb in
                    _valuation_rows(desc.t_ratio, desc.u_ratio)]
            point = cone_integer_point(rows)
            if point is None:
                return (
                    False,
                    None,
                    TriState(
                        None,
                        "whether an FP2 group with rank-one radical must be "
                        "finitely presentable is an open question; "
                        + _E_NOTE,
                    ),
                )
            realized = _type1_ratio(desc.t_ratio, desc.u_ratio)
            return (
                True,
                Type1(realized),
                TriState(True, _FP_IS_FP2 + "; " + _E_NOTE),
            )
        # rank-one multiplicative image: every per-prime valuation point of
        # (t_ratio, u_ratio) is a multiple of one direction, so the module is
        # tame exactly when the image generator or its inverse is an integer
        generator = _rank_one_image_generator(desc)
        if generator.denominator == 1 or generator.numerator == 1:
            _, has_minus_one = mult_rank((desc.t_ratio, desc.u_ratio))
            base = "Kb" if has_minus_one else "Z2"
            return True, Type2(base), TriState(True, _FP_IS_FP2)
        return (
            False,
            None,
            TriState(
                False,
                "with a radical of Hirsch length 2, FP2 already forces finite "
                "presentability, and the rank-one multiplicative image is "
                "generated by a rational that is integral in neither direction",
            ),
        )
    if isinstance(desc, LatticeByZ):
        if radical_info(desc).hirsch == 3:
            return True, Type3(), TriState(True, _FP_IS_FP2)
        return _ascending_type(desc.matrix)
    if isinstance(desc, AscHNNKb):
        if abs(desc.e * desc.d) == 1:
            return True, Type3(), TriState(True, _FP_IS_FP2)
        return True, Type2("Kb"), TriState(True, _FP_IS_FP2)
    data = _analyze_affine(desc)
    if is_polycyclic(desc):
        return True, Type3(), TriState(True, _FP_IS_FP2)
    assert data.composite is not None
    return _ascending_type(data.composite)


def _rank_one_image_generator(desc: MetabelianH31) -> Fraction:
    """Positive generator of the value group {|t_ratio^i u_ratio^j|}.

    Only valid when the valuation vectors of the two ratios span a rank-one
    lattice: both are then integer multiples of one primitive vector, and the
    value group is generated by that vector scaled by the gcd of the two
    multipliers.
    """
    rows = _valuation_rows(desc.t_ratio, desc.u_ratio)
    vec1 = tuple(va for _, va, _ in rows)
    vec2 = tuple(vb for _, _, vb in rows)
    pivot = next(k for k in range(len(rows)) if vec1[k] or vec2[k])
    base = vec1 if vec1[pivot] else vec2
    content = 0
    for x in base:
        content = gcd(content, x)
    prim = tuple(x // content for x in base)
    a = vec1[pivot] // prim[pivot] if any(vec1) else 0
    b = vec2[pivot] // prim[pivot] if any(vec2) else 0
    scale = gcd(a, b)
    value = F(1)
    for (p, _, _), exponent in zip(rows, prim):
        value *= F(p) ** (exponent * scale)
    return value


def cohomological_dimension(desc: GroupDescriptor) -> int:
    h = hirsch_length(desc)
    if h == 0:
        return 0
    if isinstance(desc, RankOneQ):
        return 1
    fp, _, _ = fp_status(desc)
    return h if fp else h + 1


def coherence_status(desc: GroupDescriptor) -> TriState:
    if hirsch_length(desc) != 3:
        raise ClassifyError("coherence is classified at Hirsch length 3 only")
    if is_polycyclic(desc):
        return TriState(True, "polycyclic groups are coherent")
    radical = radical_info(desc)
    fp, _, fp2 = fp_status(desc)
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
            "contains a finitely generated subgroup, an extension of Z[1/pq] "
            "by Z with p and q both greater than 1, that is not FP2",
        )
    return TriState(
        None,
        "coherence here reduces to the open question whether FP2 forces "
        "finite presentability when the radical has Hirsch length 1",
    )


def minimax_series(desc: GroupDescriptor) -> list[str]:
    if isinstance(desc, RankOneQ):
        return [] if _is_trivial(desc) else ["Z"]
    if isinstance(desc, BSbar):
        return [_section_label(desc.locus), "Z"]
    if isinstance(desc, MetabelianH31):
        return [_section_label(desc.locus), "Z", "Z"]
    if isinstance(desc, LatticeByZ):
        bottom, top = _rank2_module_moduli(desc.matrix)
        return [_section_label(bottom), _section_label(top), "Z"]
    if isinstance(desc, AscHNNKb):
        sections = [
            _section_label(radical_of(abs(desc.d))),
            _section_label(radical_of(abs(desc.e))),
            "finite",
            "Z",
        ]
        return sections
    data = _analyze_affine(desc)
    if data.rank_t == 2 and data.composite is not None:
        bottom, top = _rank2_module_moduli(data.composite)
        sections = [_section_label(bottom), _section_label(top)]
    else:
        sections = ["Z"] * data.rank_t
    if data.image == "finite":
        sections.append("finite")
    elif data.image == "cyclic":
        sections.append("Z")
    elif data.image == "dinfty":
        sections.extend(["Z", "finite"])
    return sections


def manifold_dim_info(desc: GroupDescriptor) -> ManifoldDim:
    if hirsch_length(desc) != 3:
        raise ClassifyError(
            "manifold dimensions are classified at Hirsch length 3 only"
        )
    return _manifold_general(desc)


def _manifold_general(desc: GroupDescriptor) -> ManifoldDim:
    h = hirsch_length(desc)
    if is_polycyclic(desc):
        return ManifoldDim(h, h, h)
    fp, ctype, _ = fp_status(desc)
    if not fp:
        return ManifoldDim(h + 2, None, None)
    if h == 3:
        if isinstance(ctype, Type1):
            return ManifoldDim(5, 5, 5)
        return ManifoldDim(5, 6, None)
    # Hirsch length 2, finitely presentable, not polycyclic: an ascending
    # one-relator group, realized by an aspherical 4-manifold and by nothing
    # smaller
    return ManifoldDim(4, 4, 4)


def classify(desc: GroupDescriptor) -> ClassificationReport:
    h = hirsch_length(desc)
    radical = radical_info(desc)
    fp, ctype, fp2 = fp_status(desc)
    polycyclic = is_polycyclic(desc)
    report = ClassificationReport(
        hirsch_length=h,
        radical=radical,
        quotient=quotient_type(desc) if h == 3 else None,
        derived_length=derived_length(desc),
        polycyclic=polycyclic,
        finitely_presentable=fp,
        constructible=fp,
        fp2=fp2,
        coherent=_coherence_for_report(desc, h, polycyclic, fp),
        cohomological_dimension=cohomological_dimension(desc),
        minimax=MinimaxInfo(True, tuple(minimax_series(desc))),
        constructible_type=ctype,
        manifold_dim=_manifold_general(desc),
    )
    _enforce_report_invariants(report)
    return report


def _coherence_for_report(
    desc: GroupDescriptor, h: int, polycyclic: bool, fp: bool
) -> TriState:
    if h == 3:
        return coherence_status(desc)
    if polycyclic:
        return TriState(True, "polycyclic groups are coherent")
    if fp:
        return TriState(
            True,
            "every finitely generated subgroup is free abelian or an "
            "ascending extension of the same integral kind, hence finitely "
            "presentable",
        )
    return TriState(
        False, "the group itself is finitely generated but not finitely "
        "presentable"
    )


_ALLOWED_QUOTIENTS = {1: {"Z2"}, 2: {"Z", "Dinfty", "ZplusZ2"}, 3: {"VirtuallyTrivial"}}


def _enforce_report_invariants(report: ClassificationReport) -> None:
    def fail(message: str) -> None:
        raise InvariantViolation(message)

    if report.finitely_presentable != report.constructible:
        fail("finite presentability and constructibility must agree")
    if report.constructible and report.cohomological_dimension != report.hirsch_length:
        fail("constructible groups must have cd equal to Hirsch length")
    if not report.constructible and report.hirsch_length > 0 and (
        report.cohomological_dimension != report.hirsch_length + 1
    ):
        fail("non-constructible groups must have cd equal to Hirsch length + 1")
    if report.polycyclic:
        if not isinstance(report.constructible_type, Type3):
            fail("polycyclic groups must be of type 3")
        if report.coherent.value is not True:
            fail("polycyclic groups must be coherent")
        if report.manifold_dim.exact != report.hirsch_length:
            fail("polycyclic groups must have exact manifold dimension h")
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
