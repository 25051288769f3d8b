"""Independent oracles and a randomized property harness.

Every claim the classifier and the family normal forms make is
cross-checked here by deliberately naive means: faithful representations
evaluated letter by letter, bounded rewriting closures, exhaustive scans
over small windows, and coset enumeration on a finite grid.  The oracles
share no logic with the normal-form code they test.

All verdicts are deterministic under a fixed seed.  Each named check and
each trial derives its own child generator, so results never depend on
execution order and individual trials could run concurrently.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

from .classify import ConstructibleType, Invariants, Type1, invariants
from .families import (
    AffineMap2,
    AffineQ2,
    AscHNNKb,
    BSbar,
    GroupDescriptor,
    KbElem,
    KbEndo,
    LatticeByZ,
    MetabelianH31,
    RankOneQ,
    affine_compose,
    family_of,
    kb_inv,
    kb_mul,
    image_membership,
    ops_for,
)
from .rationals import (
    Mat2Q,
    integer_row_kernel,
    matrix_order,
    mult_rank,
    primes_of,
    rational_valuation,
)
from .words import Presentation, Word, format_word

F = Fraction

__all__ = [
    "TrialConfig",
    "CheckResult",
    "VerificationReport",
    "VerifyResourceError",
    "defining_relations",
    "check_relations",
    "oracle_word_eq",
    "rewrite_closure_eq",
    "commutator_depth_test",
    "commutator_depth_search",
    "nested_commutator",
    "fp_cone_bruteforce",
    "endo_index",
    "radical_certificate",
    "run_harness",
    "random_word",
]


class VerifyResourceError(RuntimeError):
    """A size or enumeration budget ran out before the oracle reached a
    verdict.  Distinct from a negative verdict."""


@dataclass(frozen=True)
class TrialConfig:
    """Budget for one randomized verification run.

    The same seed always produces the same report.
    """

    seed: int = 0
    trials: int = 150
    max_word_length: int = 12
    parameter_bound: int = 50

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.max_word_length < 1:
            raise ValueError("max_word_length must be at least 1")
        if self.parameter_bound < 1:
            raise ValueError("parameter_bound must be at least 1")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    counterexample: Optional[str]
    trials: int
    seed: int
    note: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "counterexample": self.counterexample,
            "trials": self.trials,
            "seed": self.seed,
            "note": self.note,
        }


@dataclass(frozen=True)
class VerificationReport:
    descriptor: str
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


# --- randomness --------------------------------------------------------------


def _child_rng(seed: int, label: str, index: int) -> random.Random:
    # string seeding hashes with sha512, stable across platforms and runs
    return random.Random(f"{seed}:{label}:{index}")


def random_word(rng: random.Random, names: Sequence[str], max_length: int) -> Word:
    length = rng.randint(1, max_length)
    return Word.of(
        (rng.choice(names), rng.choice((-1, 1))) for _ in range(length)
    )


# --- defining relations -------------------------------------------------------

Relations = Sequence[tuple[str, Word]]


def defining_relations(desc: GroupDescriptor) -> list[tuple[str, Word]]:
    """Relator words, with display labels, that hold in the element model.

    Affine descriptors carry no canonical finite presentation here; supply
    one explicitly to `check_relations` instead.
    """
    return family_of(desc).relations(desc)


def _as_relations(
    relators: Union[Relations, Presentation, None], desc: GroupDescriptor
) -> list[tuple[str, Word]]:
    if relators is None:
        return list(defining_relations(desc))
    if isinstance(relators, Presentation):
        return [(format_word(r), r) for r in relators.relators]
    return list(relators)


def check_relations(
    desc: GroupDescriptor,
    relators: Union[Relations, Presentation, None] = None,
) -> CheckResult:
    """Evaluate every relator in the element model; all must be identity."""
    ops = ops_for(desc)
    relations = _as_relations(relators, desc)
    if not relations:
        return CheckResult(
            "relations",
            True,
            None,
            0,
            0,
            note="no relator set available; supply a presentation",
        )
    failures = [
        label
        for label, relator in relations
        if not ops.is_identity(ops.of_word(relator))
    ]
    return CheckResult(
        "relations",
        not failures,
        "; ".join(failures) if failures else None,
        len(relations),
        0,
    )


# --- independent word evaluation ---------------------------------------------

_DEFAULT_MAX_BITS = 1 << 17


def _bits(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def _guard_fractions(parts: Sequence[Fraction], max_bits: int) -> None:
    if sum(_bits(p) for p in parts) > max_bits:
        raise VerifyResourceError("word evaluation exceeded the size budget")


def _pow_guarded(base: Fraction, exp: int, max_bits: int) -> Fraction:
    if abs(exp) * max(_bits(base), 1) > max_bits:
        raise VerifyResourceError("word evaluation exceeded the size budget")
    return base**exp


@dataclass(frozen=True)
class _Aff1:
    """One-dimensional affine map x -> scale * x + offset."""

    scale: Fraction
    offset: Fraction

    def after(self, other: "_Aff1") -> "_Aff1":
        # self applied after other
        return _Aff1(self.scale * other.scale, self.scale * other.offset + self.offset)


_AFF1_ID = _Aff1(F(1), F(0))


def _aff1_pow(f: _Aff1, k: int, max_bits: int) -> _Aff1:
    """f composed with itself k times, by the geometric sum formula; valid
    for negative k as well."""
    scale = _pow_guarded(f.scale, k, max_bits)
    if f.scale == 1:
        offset = f.offset * k
    else:
        offset = f.offset * (scale - 1) / (f.scale - 1)
    return _Aff1(scale, offset)


def _oracle_aff1_word(
    gens: dict[str, _Aff1], w: Word, max_bits: int
) -> _Aff1:
    out = _AFF1_ID
    for name, exp in w.syllables:
        out = out.after(_aff1_pow(gens[name], exp, max_bits))
        _guard_fractions((out.scale, out.offset), max_bits)
    return out


def _oracle_bsbar(desc: BSbar, w: Word, max_bits: int):
    gens = {"a": _Aff1(F(1), F(1)), "t": _Aff1(desc.ratio, F(0))}
    tsum = sum(exp for name, exp in w.syllables if name == "t")
    return (_oracle_aff1_word(gens, w, max_bits), tsum)


def _heis_mul(g1: tuple, g2: tuple) -> tuple:
    i1, j1, z1 = g1
    i2, j2, z2 = g2
    return (i1 + i2, j1 + j2, z1 + z2 + i1 * j2)


def _heis_pow(g: tuple, k: int) -> tuple:
    i, j, z = g
    if k < 0:
        return _heis_pow((-i, -j, -z + i * j), -k)
    return (k * i, k * j, k * z + (k * (k - 1) // 2) * i * j)


def _oracle_meta(desc: MetabelianH31, w: Word, max_bits: int):
    r1, r2, e = desc.t_ratio, desc.u_ratio, desc.e
    tsum = sum(exp for name, exp in w.syllables if name == "t")
    usum = sum(exp for name, exp in w.syllables if name == "u")
    if r1 == 1 and r2 == 1 and e != 0:
        # integral Heisenberg triples (i, j, z) acting as unitriangular
        # matrices; a is the 1/e-th root of the central commutator
        gens = {
            "t": (F(1), F(0), F(0)),
            "u": (F(0), F(1), F(0)),
            "a": (F(0), F(0), F(-1) / e),
        }
        out = (F(0), F(0), F(0))
        for name, exp in w.syllables:
            out = _heis_mul(out, _heis_pow(gens[name], exp))
            _guard_fractions(out, max_bits)
        return out
    if r2 != 1:
        tau, ups = r1 * e / (r2 - 1), F(0)
    elif r1 != 1:
        tau, ups = F(0), r1 * e / (1 - r1)
    else:
        tau = ups = F(0)
    gens = {"a": _Aff1(F(1), F(1)), "t": _Aff1(r1, tau), "u": _Aff1(r2, ups)}
    return (_oracle_aff1_word(gens, w, max_bits), tsum, usum)


# affine maps as flat (a, b, c, d, tx, ty) tuples: the hot evaluation loop
# skips dataclass construction and its invertibility re-validation
_Aff6 = tuple

_AFF6_ID: _Aff6 = (F(1), F(0), F(0), F(1), F(0), F(0))


@lru_cache(maxsize=4096)
def _aff6_of(f: AffineMap2) -> _Aff6:
    return (*f.linear.entries(), *f.translation)


def _aff6_compose(f: _Aff6, g: _Aff6) -> _Aff6:
    fa, fb, fc, fd, fx, fy = f
    ga, gb, gc, gd, gx, gy = g
    return (
        fa * ga + fb * gc,
        fa * gb + fb * gd,
        fc * ga + fd * gc,
        fc * gb + fd * gd,
        fa * gx + fb * gy + fx,
        fc * gx + fd * gy + fy,
    )


def _aff6_inverse(f: _Aff6) -> _Aff6:
    a, b, c, d, x, y = f
    det = a * d - b * c
    ia, ib, ic, id_ = d / det, -b / det, -c / det, a / det
    return (ia, ib, ic, id_, -(ia * x + ib * y), -(ic * x + id_ * y))


@lru_cache(maxsize=4096)
def _aff6_pow(f: _Aff6, exp: int) -> _Aff6:
    if exp == 0:
        return _AFF6_ID
    base = f
    if exp < 0:
        base = _aff6_inverse(f)
        exp = -exp
    out = _AFF6_ID
    acc = base
    while exp:
        if exp & 1:
            out = _aff6_compose(out, acc)
        exp >>= 1
        if exp:
            acc = _aff6_compose(acc, acc)
    return out


def _oracle_affine_generic(
    gens: dict[str, AffineMap2], w: Word, max_bits: int
) -> _Aff6:
    sixes = {name: _aff6_of(f) for name, f in gens.items()}
    out = _AFF6_ID
    for name, exp in w.syllables:
        six = sixes[name]
        if abs(exp) * max(max(_bits(x) for x in six), 1) > max_bits:
            raise VerifyResourceError("word evaluation exceeded the size budget")
        out = _aff6_compose(out, _aff6_pow(six, exp))
        _guard_fractions(out, max_bits)
    return out


@lru_cache(maxsize=4096)
def _mat_pow_cached(mat: Mat2Q, k: int) -> Mat2Q:
    return mat.pow(k)


def _oracle_lattice(desc: LatticeByZ, w: Word, max_bits: int):
    # the linear part of any product is a power of the acting matrix, so
    # the state is one exponent and one translation vector
    mat = desc.matrix
    mat_bits = max(max(_bits(x) for x in mat.entries()), 1)
    k = 0
    vx = vy = F(0)
    for name, exp in w.syllables:
        if name == "t":
            k += exp
            if abs(k) * mat_bits > max_bits:
                raise VerifyResourceError(
                    "word evaluation exceeded the size budget"
                )
        else:
            step = (F(exp), F(0)) if name == "a" else (F(0), F(exp))
            sx, sy = _mat_pow_cached(mat, k).apply(step)
            vx += sx
            vy += sy
            _guard_fractions((vx, vy), max_bits)
    return (vx, vy, k)


def _oracle_hnnkb(desc: AscHNNKb, w: Word, max_bits: int):
    # all three generators have diagonal linear parts, so the coordinates
    # evolve as independent 1D affine maps
    first = {
        "x": _Aff1(F(1), F(1, 2)),
        "y": _AFF1_ID,
        "s": _Aff1(F(desc.e), F(0)),
    }
    second = {
        "x": _Aff1(F(-1), F(0)),
        "y": _Aff1(F(1), F(1)),
        "s": _Aff1(F(desc.d), F(-desc.f, 2)),
    }
    fx = _oracle_aff1_word(first, w, max_bits)
    fy = _oracle_aff1_word(second, w, max_bits)
    ssum = sum(exp for name, exp in w.syllables if name == "s")
    return (fx, fy, ssum)


def _oracle_value(desc: GroupDescriptor, w: Word, max_bits: int):
    if isinstance(desc, RankOneQ):
        names = ops_for(desc).generator_names
        total = sum(
            (w.exponent_sum(name) * g for name, g in zip(names, desc.generators)),
            start=F(0),
        )
        _guard_fractions((total,), max_bits)
        return total
    if isinstance(desc, BSbar):
        return _oracle_bsbar(desc, w, max_bits)
    if isinstance(desc, MetabelianH31):
        return _oracle_meta(desc, w, max_bits)
    if isinstance(desc, LatticeByZ):
        return _oracle_lattice(desc, w, max_bits)
    if isinstance(desc, AscHNNKb):
        return _oracle_hnnkb(desc, w, max_bits)
    return _oracle_affine_generic(dict(desc.generators), w, max_bits)


def oracle_word_eq(
    desc: GroupDescriptor,
    w1: Word,
    w2: Word,
    max_bits: int = _DEFAULT_MAX_BITS,
) -> bool:
    """Decide w1 = w2 by evaluating a faithful representation letter by
    letter, independently of the normal-form code.

    Raises VerifyResourceError when intermediate values outgrow max_bits,
    which is a resource verdict, not an inequality verdict.
    """
    return _oracle_value(desc, w1, max_bits) == _oracle_value(desc, w2, max_bits)


# --- rewriting closure --------------------------------------------------------


def rewrite_closure_eq(
    relators: Sequence[Word],
    w1: Word,
    w2: Word,
    max_length: Optional[int] = None,
    max_visited: int = 4000,
) -> Optional[bool]:
    """Bidirectional closure under relator insertion and free reduction.

    Returns True when the two closures meet, None when the length or node
    budget is exhausted first.  Never returns False: within a bounded
    window a failure to meet proves nothing.
    """
    moves: list[Word] = []
    for r in relators:
        for candidate in (r, r.inv()):
            if not candidate.is_identity() and candidate not in moves:
                moves.append(candidate)
    if w1 == w2:
        return True
    if max_length is None:
        longest = max((m.length() for m in moves), default=0)
        max_length = max(w1.length(), w2.length()) + 2 * longest + 2
    seen = ({w1: None}, {w2: None})
    frontier: tuple[list[Word], list[Word]] = ([w1], [w2])
    visited = 2
    moves_letters = [list(m.letters()) for m in moves]
    while frontier[0] and frontier[1]:
        side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        new: list[Word] = []
        for w in frontier[side]:
            letters = list(w.letters())
            for move_letters in moves_letters:
                for pos in range(len(letters) + 1):
                    candidate = Word.of(
                        letters[:pos] + move_letters + letters[pos:]
                    )
                    if candidate.length() > max_length:
                        continue
                    if candidate in seen[side]:
                        continue
                    seen[side][candidate] = None
                    new.append(candidate)
                    visited += 1
                    if candidate in seen[1 - side]:
                        return True
                    if visited >= max_visited:
                        return None
        frontier = (new, frontier[1]) if side == 0 else (frontier[0], new)
    return None


# --- commutator depth ---------------------------------------------------------


def nested_commutator(words: Sequence[Word]) -> Word:
    """Iterated commutator over 2**depth words, nested left and right."""
    n = len(words)
    if n & (n - 1):
        raise ValueError("need a power-of-two number of words")
    if n == 1:
        return words[0]
    left = nested_commutator(words[: n // 2])
    right = nested_commutator(words[n // 2 :])
    return left * right * left.inv() * right.inv()


_CANDIDATE_CAP = 512


def commutator_depth_search(
    desc: GroupDescriptor, depth: int, cfg: TrialConfig
) -> Optional[Word]:
    """A word witnessing a nonvanishing depth-fold iterated commutator, or
    None if none is found within the budget.

    Tries short deterministic generator tuples before random sampling, so
    witnesses are stable across runs.
    """
    if depth not in (1, 2, 3):
        raise ValueError("depth must be 1, 2, or 3")
    ops = ops_for(desc)
    names = ops.generator_names
    width = 1 << depth
    values: dict[tuple[Word, ...], object] = {}

    def value(leaves: tuple[Word, ...]):
        # the element of nested_commutator(leaves), each distinct leaf word
        # and inner commutator evaluated once: [l, r] = (l r)(r l)^-1.  The
        # candidate tuples share most of their inner commutators.
        if leaves not in values:
            if len(leaves) == 1:
                values[leaves] = ops.of_word(leaves[0])
            else:
                half = len(leaves) // 2
                left, right = value(leaves[:half]), value(leaves[half:])
                values[leaves] = ops.mul(
                    ops.mul(left, right), ops.inv(ops.mul(right, left))
                )
        return values[leaves]

    gens = [Word.gen(n) for n in names]
    for leaves in itertools.islice(
        itertools.product(gens, repeat=width), _CANDIDATE_CAP
    ):
        if not ops.is_identity(value(leaves)):
            return nested_commutator(leaves)
    for idx in range(cfg.trials):
        # random trials share almost no subtuples; keep only this trial's
        values.clear()
        rng = _child_rng(cfg.seed, f"commutator-depth-{depth}", idx)
        leaves = tuple(
            random_word(rng, names, cfg.max_word_length) for _ in range(width)
        )
        if not ops.is_identity(value(leaves)):
            return nested_commutator(leaves)
    return None


def commutator_depth_test(
    desc: GroupDescriptor, depth: int, cfg: TrialConfig
) -> bool:
    """True when every sampled depth-fold iterated commutator is trivial."""
    return commutator_depth_search(desc, depth, cfg) is None


# --- finite-presentability cone, brute force ----------------------------------


def fp_cone_bruteforce(
    ratios: Sequence[Fraction], window: int
) -> Optional[tuple[int, int]]:
    """Exhaustive scan for (i, j) with every prime valuation of
    ratios[0]**i * ratios[1]**j at least one.

    Requires a multiplicatively independent pair.  Scans by total size
    |i| + |j|, then by i, then positive j first, so the returned point is
    canonical.
    """
    if len(ratios) != 2:
        raise ValueError("expected exactly two ratios")
    r1, r2 = ratios
    rank, _ = mult_rank((r1, r2))
    if rank != 2:
        raise ValueError("ratios must be multiplicatively independent")
    primes = primes_of(r1, r2)
    for total in range(0, 2 * window + 1):
        for i in range(-min(total, window), min(total, window) + 1):
            rest = total - abs(i)
            if rest > window:
                continue
            for j in (rest, -rest) if rest else (0,):
                value = r1**i * r2**j
                if all(rational_valuation(value, p) >= 1 for p in primes):
                    return (i, j)
    return None


# --- Klein bottle endomorphism index -------------------------------------------


def endo_index(phi: KbEndo, bound: int) -> int:
    """Index of the image of phi by right-coset enumeration over the grid
    x^a y^b with 0 <= a, b < bound.

    Raises VerifyResourceError when the grid provably cannot certify the
    count: either every cell is a fresh coset, or a fresh coset still
    appears on the grid boundary.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    reps: list[KbElem] = []
    boundary_fresh = False
    for a in range(bound):
        for b in range(bound):
            g = KbElem(a, b)
            if any(
                image_membership(phi, kb_mul(g, kb_inv(rep))) for rep in reps
            ):
                continue
            reps.append(g)
            if a == bound - 1 or b == bound - 1:
                boundary_fresh = True
    if len(reps) == bound * bound:
        raise VerifyResourceError("index exceeds the enumeration grid")
    if boundary_fresh:
        raise VerifyResourceError("enumeration grid too small to certify the index")
    return len(reps)


# --- radical certificate --------------------------------------------------------


@dataclass(frozen=True)
class _RadicalModel:
    hirsch: int
    abelian: bool
    generator_words: tuple[Word, ...]
    member: Callable
    # ("Z", w) | ("Z2", w1, w2) | ("ZplusZ2", w_inf, w_tor)
    # | ("Dinfty", w_u, w_v) | ("VirtuallyTrivial",) | None for whole group
    quotient: Optional[tuple]


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


def _meta_valuation_kernel(r1: Fraction, r2: Fraction) -> list[tuple[int, int]]:
    plist = sorted(primes_of(r1, r2))
    if not plist:
        return [(1, 0), (0, 1)]
    rows = [
        [rational_valuation(r, p) for p in plist] for r in (r1, r2)
    ]
    kernel = integer_row_kernel(rows, len(plist))
    return [(int(v[0]), int(v[1])) for v in kernel]


def _meta_sign(r1: Fraction, r2: Fraction, vec: tuple[int, int]) -> int:
    value = r1 ** vec[0] * r2 ** vec[1]
    if abs(value) != 1:
        raise AssertionError("vector is not in the valuation kernel")
    return 1 if value == 1 else -1


def _meta_true_kernel_basis(desc: MetabelianH31) -> list[tuple[int, int]]:
    """Basis of {(i, j) : r1^i r2^j = 1}, signs included."""
    r1, r2 = desc.t_ratio, desc.u_ratio
    vecs = _meta_valuation_kernel(r1, r2)
    odd = [v for v in vecs if _meta_sign(r1, r2, v) == -1]
    even = [v for v in vecs if _meta_sign(r1, r2, v) == 1]
    if not odd:
        return vecs
    v0 = odd[0]
    basis = list(even)
    for v in odd[1:]:
        basis.append((v[0] + v0[0], v[1] + v0[1]))
    basis.append((2 * v0[0], 2 * v0[1]))
    return basis


def _complement_vector(v: tuple[int, int]) -> tuple[int, int]:
    g, x, y = _ext_gcd(v[0], v[1])
    if g != 1:
        raise AssertionError("kernel vector is not primitive")
    return (-y, x)


def _meta_power_word(vec: tuple[int, int]) -> Word:
    syllables = [(n, e) for n, e in (("t", vec[0]), ("u", vec[1])) if e]
    return Word.of(syllables)


def _is_unipotent(m: Mat2Q) -> bool:
    return m.trace() == 2 and m.det() == 1


def _affine_unipotent(g: AffineMap2) -> bool:
    # linear part [[a, b], [c, d]] / den has trace 2 and determinant 1
    den, a, b, c, d = g.ints[:5]
    return a + d == 2 * den and a * d - b * c == den * den


def _affine_radical_words(desc: AffineQ2, member: Callable) -> tuple[Word, ...]:
    ops = ops_for(desc)
    names = ops.generator_names
    found: list[Word] = []
    seen_values: list[AffineMap2] = []
    layer: list[tuple[Word, AffineMap2]] = [(Word.identity(), ops.identity())]
    for _ in range(3):
        next_layer: list[tuple[Word, AffineMap2]] = []
        for w, g in layer:
            for name in names:
                for exp in (1, -1):
                    w2 = w * Word.gen(name, exp)
                    if w2.length() <= w.length():
                        continue
                    g2 = ops.mul(g, ops.of_word(Word.gen(name, exp)))
                    next_layer.append((w2, g2))
                    if (
                        g2 != ops.identity()
                        and member(g2)
                        and g2 not in seen_values
                        and len(found) < 8
                    ):
                        seen_values.append(g2)
                        found.append(w2)
        layer = next_layer
    return tuple(found)


def _hnn_net(g) -> int:
    return g.j - g.i


def _radical_model(
    desc: GroupDescriptor, inv: Invariants, hirsch_claim: Optional[int] = None
) -> _RadicalModel:
    info = inv.radical
    claim = info.hirsch if hirsch_claim is None else hirsch_claim
    a, b, t, u = Word.gen("a"), Word.gen("b"), Word.gen("t"), Word.gen("u")
    x, y, s = Word.gen("x"), Word.gen("y"), Word.gen("s")

    if isinstance(desc, RankOneQ):
        if claim != inv.hirsch:
            raise ValueError("unsupported radical claim for this family")
        gens = tuple(Word.gen(n) for n in ops_for(desc).generator_names)
        return _RadicalModel(claim, True, gens, lambda g: True, None)

    if isinstance(desc, BSbar):
        ratio = desc.ratio
        true_h = 2 if abs(ratio) == 1 else 1
        if claim == true_h == 2:
            if ratio == 1:
                return _RadicalModel(2, True, (a, t), lambda g: True, None)
            return _RadicalModel(
                2,
                True,
                (a, t**2),
                lambda g: g.k % 2 == 0,
                ("VirtuallyTrivial",),
            )
        if claim == 1:
            # for |ratio| = 1 this is a deliberate undersized claim used as
            # a negative control
            return _RadicalModel(
                1, True, (a,), lambda g: g.k == 0, ("Z", t)
            )
        raise ValueError("unsupported radical claim for this family")

    if isinstance(desc, MetabelianH31):
        r1, r2 = desc.t_ratio, desc.u_ratio
        basis = _meta_true_kernel_basis(desc)
        true_claim = 1 + len(basis)

        @lru_cache(maxsize=None)
        def acts_trivially(i: int, j: int) -> bool:
            return r1**i * r2**j == 1

        def member(g) -> bool:
            return acts_trivially(g.i, g.j)

        if claim == true_claim:
            gens = [a] + [_meta_power_word(v) for v in basis]
            rank, has_minus_one = mult_rank((r1, r2))
            if rank == 2:
                quotient: Optional[tuple] = ("Z2", t, u)
            elif rank == 1:
                kernel_vec = _meta_valuation_kernel(r1, r2)[0]
                comp = _complement_vector(kernel_vec)
                w_inf = _meta_power_word(comp)
                if has_minus_one:
                    quotient = ("ZplusZ2", w_inf, _meta_power_word(kernel_vec))
                else:
                    quotient = ("Z", w_inf)
            else:
                quotient = ("VirtuallyTrivial",)
            return _RadicalModel(
                claim, info.is_abelian, tuple(gens), member, quotient
            )
        if claim == 1:
            return _RadicalModel(
                1, True, (a,), lambda g: g.i == 0 and g.j == 0, ("Z2", t, u)
            )
        raise ValueError("unsupported radical claim for this family")

    if isinstance(desc, LatticeByZ):
        m = desc.matrix

        def member(g) -> bool:
            return _is_unipotent(m.pow(g.k)) if g.k else True

        order = matrix_order(m)
        if claim == 3:
            if order is not None:
                return _RadicalModel(
                    3, True, (a, b, t**order), member, ("VirtuallyTrivial",)
                )
            if _is_unipotent(m):
                return _RadicalModel(
                    3, m == Mat2Q.identity(), (a, b, t), member, None
                )
            if _is_unipotent(m * m):
                return _RadicalModel(
                    3, False, (a, b, t**2), member, ("VirtuallyTrivial",)
                )
            raise ValueError("unsupported radical claim for this family")
        if claim == 2:
            return _RadicalModel(
                2, True, (a, b), lambda g: g.k == 0, ("Z", t)
            )
        raise ValueError("unsupported radical claim for this family")

    if isinstance(desc, AscHNNKb):
        e, d = desc.e, desc.d
        proper = abs(e * d) > 1
        if proper:
            if claim != 2:
                raise ValueError("unsupported radical claim for this family")
            return _RadicalModel(
                2,
                True,
                (x**2, y),
                lambda g: _hnn_net(g) == 0 and g.g.a % 2 == 0,
                ("ZplusZ2", s, x),
            )
        if claim != 3:
            raise ValueError("unsupported radical claim for this family")

        def member_unit(g) -> bool:
            net = _hnn_net(g)
            sign_x = 1 if (e == 1 or net % 2 == 0) else -1
            sign_y = (1 if (d == 1 or net % 2 == 0) else -1) * (
                1 if g.g.a % 2 == 0 else -1
            )
            return sign_x == 1 and sign_y == 1

        if e == 1 and d == 1:
            extra = s
        elif e == 1:
            extra = s * x
        else:
            extra = s**2
        return _RadicalModel(
            3, info.is_abelian, (x**2, y, extra), member_unit, ("VirtuallyTrivial",)
        )

    # affine
    if claim != info.hirsch:
        raise ValueError("unsupported radical claim for this family")
    maps = [g for _, g in desc.generators]
    if all(
        affine_compose(g1, g2) == affine_compose(g2, g1)
        for i, g1 in enumerate(maps)
        for g2 in maps[i + 1 :]
    ):
        # abelian group: the radical is everything, including generators
        # whose linear part is not unipotent (a faithful Z action, say)
        gens = tuple(Word.gen(n) for n in ops_for(desc).generator_names)
        return _RadicalModel(claim, True, gens, lambda g: True, None)

    gens = _affine_radical_words(desc, _affine_unipotent)
    quotient = _affine_quotient(desc, inv, claim)
    return _RadicalModel(claim, info.is_abelian, gens, _affine_unipotent, quotient)


def _affine_quotient(desc: AffineQ2, inv: Invariants, claim: int) -> Optional[tuple]:
    if claim == inv.hirsch:
        all_unipotent = all(_affine_unipotent(g) for _, g in desc.generators)
        return None if all_unipotent else ("VirtuallyTrivial",)
    tag = inv.quotient.tag if inv.hirsch == 3 else "Z"
    if tag == "Dinfty":
        reflections: list[tuple[str, Mat2Q]] = []
        for name, g in desc.generators:
            lin = g.linear
            if lin.det() == -1 and lin * lin == Mat2Q.identity():
                if all(lin != other for _, other in reflections):
                    reflections.append((name, lin))
        u_name, v_name = reflections[0][0], reflections[1][0]
        return ("Dinfty", Word.gen(u_name), Word.gen(v_name))
    for name, g in desc.generators:
        if not _affine_unipotent(g):
            return ("Z", Word.gen(name))
    raise AssertionError("no witness generator for the cyclic quotient")


def _commutes(ops, g1, g2) -> bool:
    return ops.mul(g1, g2) == ops.mul(g2, g1)


def _conjugate_word(conjugator: Optional[Word], w: Word) -> Word:
    return w if conjugator is None else conjugator * w * conjugator.inv()


def radical_certificate(
    desc: GroupDescriptor,
    cfg: TrialConfig,
    hirsch_claim: Optional[int] = None,
    inv: Optional[Invariants] = None,
) -> VerificationReport:
    """Randomized certificate for the claimed Fitting radical.

    Samples claimed-radical elements and checks commutativity, normality,
    that sampled outside elements fail to centralize, and that quotient
    witnesses satisfy the claimed quotient shape.  `hirsch_claim` overrides
    the classifier's claim, which turns the certificate into a negative
    control when the override is wrong.  `inv` is the descriptor's
    `classify.invariants` record when the caller already has it.
    """
    ops = ops_for(desc)
    names = ops.generator_names
    model = _radical_model(desc, inv or invariants(desc), hirsch_claim)
    checks: list[CheckResult] = []

    gen_words = list(model.generator_words)
    gen_elems = [ops.of_word(w) for w in gen_words]

    bad = [
        format_word(w)
        for w, g in zip(gen_words, gen_elems)
        if not model.member(g)
    ]
    checks.append(
        CheckResult(
            "radical_generators",
            not bad,
            "; ".join(bad) if bad else None,
            len(gen_words),
            cfg.seed,
        )
    )

    # normality: conjugates of radical generators stay inside.  The sample
    # keeps each element with its (conjugator, generator word); the word is
    # built only for a message.
    sample: list[tuple[object, tuple[Optional[Word], Word]]] = [
        (g, (None, w)) for w, g in zip(gen_words, gen_elems)
    ]
    normal_failure = None
    conj_count = 0
    deterministic_conjugators = [Word.gen(n, e) for n in names for e in (1, -1)]
    random_conjugators = []
    for idx in range(cfg.trials):
        rng = _child_rng(cfg.seed, "radical-normal", idx)
        random_conjugators.append(random_word(rng, names, cfg.max_word_length))
    for conjugator in deterministic_conjugators + random_conjugators:
        c_elem = ops.of_word(conjugator)
        c_inv = ops.inv(c_elem)
        for w, g in zip(gen_words, gen_elems):
            conj = ops.mul(ops.mul(c_elem, g), c_inv)
            conj_count += 1
            if not model.member(conj):
                normal_failure = format_word(_conjugate_word(conjugator, w))
                break
            if len(sample) < 4 * cfg.trials:
                sample.append((conj, (conjugator, w)))
        if normal_failure:
            break
    checks.append(
        CheckResult(
            "radical_normal",
            normal_failure is None,
            normal_failure,
            conj_count,
            cfg.seed,
        )
    )

    # commutativity of the sampled radical, or a witness against it
    def pair_text(src1, src2) -> str:
        return (
            f"[{format_word(_conjugate_word(*src1))}, "
            f"{format_word(_conjugate_word(*src2))}] != 1"
        )

    if model.abelian:
        failure = None
        pair_count = 0
        for i, (g1, src1) in enumerate(sample):
            for g2, src2 in sample[i + 1 : i + 6]:
                pair_count += 1
                if not _commutes(ops, g1, g2):
                    failure = pair_text(src1, src2)
                    break
            if failure:
                break
        checks.append(
            CheckResult(
                "radical_abelian",
                failure is None,
                failure,
                pair_count,
                cfg.seed,
            )
        )
    else:
        witness = None
        pair_count = 0
        for i, (g1, src1) in enumerate(sample):
            for g2, src2 in sample[i + 1 :]:
                pair_count += 1
                if not _commutes(ops, g1, g2):
                    witness = pair_text(src1, src2)
                    break
            if witness:
                break
        checks.append(
            CheckResult(
                "radical_nonabelian_witness",
                witness is not None,
                None if witness else "all sampled radical pairs commute",
                pair_count,
                cfg.seed,
                note=witness or "",
            )
        )

    # maximality: a genuine outside element twists the radical by a
    # non-unipotent action, so against some generator its iterated
    # commutators stay nontrivial at every depth.  An element whose
    # adjoint action dies within three steps on every generator would
    # extend the claimed radical to a larger nilpotent normal subgroup.
    def acts_non_nilpotently(g) -> bool:
        g_inv = ops.inv(g)
        for r in gen_elems:
            c = r
            alive = True
            for _ in range(3):
                c = ops.mul(ops.mul(g, c), ops.mul(g_inv, ops.inv(c)))
                if ops.is_identity(c):
                    alive = False
                    break
            if alive:
                return True
        return False

    outside: list[tuple[Word, object]] = []
    for name in names:
        w = Word.gen(name)
        g = ops.of_word(w)
        if not model.member(g):
            outside.append((w, g))
    for idx in range(cfg.trials):
        rng = _child_rng(cfg.seed, "radical-outside", idx)
        w = random_word(rng, names, cfg.max_word_length)
        g = ops.of_word(w)
        if not model.member(g):
            outside.append((w, g))
    absorbed = [
        format_word(w) for w, g in outside if not acts_non_nilpotently(g)
    ]
    note = "" if outside else "no elements outside the claimed radical were sampled"
    checks.append(
        CheckResult(
            "radical_detects_outside",
            not absorbed,
            "; ".join(absorbed[:3]) if absorbed else None,
            len(outside),
            cfg.seed,
            note=note,
        )
    )

    checks.append(_quotient_check(desc, ops, model, cfg))
    return VerificationReport(
        family_of(desc).describe(desc), cfg.seed, tuple(checks)
    )


def _quotient_check(
    desc: GroupDescriptor, ops, model: _RadicalModel, cfg: TrialConfig
) -> CheckResult:
    member = model.member
    names = ops.generator_names
    bound = cfg.parameter_bound

    def fail(msg: str, trials: int) -> CheckResult:
        return CheckResult("radical_quotient", False, msg, trials, cfg.seed)

    if model.quotient is None:
        return CheckResult(
            "radical_quotient",
            True,
            None,
            0,
            cfg.seed,
            note="radical is the whole group",
        )

    tag = model.quotient[0]
    trials = 0

    def reduces(g, steps: Sequence) -> bool:
        """Whether g lands in the radical after dividing out some product
        of quotient witness powers."""
        for candidate in steps:
            if member(ops.mul(g, candidate)):
                return True
        return False

    def power_ladder(w: Word, lo: int, hi: int) -> list:
        elem = ops.of_word(w)
        inv = ops.inv(elem)
        out = [ops.identity()]
        cur = ops.identity()
        for _ in range(hi):
            cur = ops.mul(cur, inv)
            out.append(cur)
        cur = ops.identity()
        fwd = ops.inv(inv)
        for _ in range(-lo):
            cur = ops.mul(cur, fwd)
            out.append(cur)
        return out

    if tag == "VirtuallyTrivial":
        for name in names:
            g = ops.of_word(Word.gen(name))
            power = ops.identity()
            ok = False
            for _ in range(12):
                power = ops.mul(power, g)
                trials += 1
                if member(power):
                    ok = True
                    break
            if not ok:
                return fail(f"no small power of {name} enters the radical", trials)
        for idx in range(min(cfg.trials, 40)):
            rng = _child_rng(cfg.seed, "quotient-finite", idx)
            w = random_word(rng, names, cfg.max_word_length)
            g = ops.of_word(w)
            power = ops.identity()
            ok = False
            for _ in range(12):
                power = ops.mul(power, g)
                trials += 1
                if member(power):
                    ok = True
                    break
            if not ok:
                return fail(
                    f"no small power of {format_word(w)} enters the radical",
                    trials,
                )
        return CheckResult("radical_quotient", True, None, trials, cfg.seed)

    if tag == "Z":
        (_, w) = model.quotient
        elem = ops.of_word(w)
        power = ops.identity()
        for k in range(1, min(bound, 24) + 1):
            power = ops.mul(power, elem)
            trials += 1
            if member(power):
                return fail(f"{format_word(w)}^{k} lies in the radical", trials)
        ladder = power_ladder(w, -24, 24)
        for idx in range(min(cfg.trials, 40)):
            rng = _child_rng(cfg.seed, "quotient-z", idx)
            g = ops.of_word(random_word(rng, names, cfg.max_word_length))
            trials += 1
            if not reduces(g, ladder):
                return fail(
                    "a sampled element does not reduce to the radical by a "
                    f"power of {format_word(w)}",
                    trials,
                )
        return CheckResult("radical_quotient", True, None, trials, cfg.seed)

    if tag == "Z2":
        (_, w1, w2) = model.quotient
        g1, g2 = ops.of_word(w1), ops.of_word(w2)
        comm = ops.mul(ops.mul(g1, g2), ops.inv(ops.mul(g2, g1)))
        trials += 1
        if not member(comm):
            return fail(
                f"[{format_word(w1)}, {format_word(w2)}] is not in the radical",
                trials,
            )
        for i in range(-4, 5):
            for j in range(-4, 5):
                if (i, j) == (0, 0):
                    continue
                trials += 1
                value = ops.mul(
                    ops.of_word(w1**i), ops.of_word(w2**j)
                )
                if member(value):
                    return fail(
                        f"{format_word(w1)}^{i} {format_word(w2)}^{j} lies in "
                        "the radical",
                        trials,
                    )
        ladder1 = power_ladder(w1, -12, 12)
        ladder2 = power_ladder(w2, -12, 12)
        for idx in range(min(cfg.trials, 25)):
            rng = _child_rng(cfg.seed, "quotient-z2", idx)
            g = ops.of_word(random_word(rng, names, cfg.max_word_length))
            hit = False
            for p1 in ladder1:
                if hit:
                    break
                step = ops.mul(g, p1)
                for p2 in ladder2:
                    trials += 1
                    if member(ops.mul(step, p2)):
                        hit = True
                        break
            if not hit:
                return fail(
                    "a sampled element does not reduce to the radical by "
                    f"powers of {format_word(w1)} and {format_word(w2)}",
                    trials,
                )
        return CheckResult("radical_quotient", True, None, trials, cfg.seed)

    if tag == "ZplusZ2":
        (_, w_inf, w_tor) = model.quotient
        g_tor = ops.of_word(w_tor)
        trials += 2
        if member(g_tor):
            return fail(f"{format_word(w_tor)} lies in the radical", trials)
        if not member(ops.mul(g_tor, g_tor)):
            return fail(
                f"{format_word(w_tor)}^2 is not in the radical", trials
            )
        g_inf = ops.of_word(w_inf)
        comm = ops.mul(
            ops.mul(g_inf, g_tor), ops.inv(ops.mul(g_tor, g_inf))
        )
        trials += 1
        if not member(comm):
            return fail(
                f"[{format_word(w_inf)}, {format_word(w_tor)}] is not in the "
                "radical",
                trials,
            )
        power = ops.identity()
        for k in range(1, min(bound, 24) + 1):
            power = ops.mul(power, g_inf)
            trials += 2
            if member(power):
                return fail(
                    f"{format_word(w_inf)}^{k} lies in the radical", trials
                )
            if member(ops.mul(power, g_tor)):
                return fail(
                    f"{format_word(w_inf)}^{k} {format_word(w_tor)} lies in "
                    "the radical",
                    trials,
                )
        ladder = power_ladder(w_inf, -24, 24)
        steps = ladder + [ops.mul(p, ops.inv(g_tor)) for p in ladder]
        for idx in range(min(cfg.trials, 40)):
            rng = _child_rng(cfg.seed, "quotient-zz2", idx)
            g = ops.of_word(random_word(rng, names, cfg.max_word_length))
            trials += 1
            if not reduces(g, steps):
                return fail(
                    "a sampled element does not reduce to the radical by "
                    f"powers of {format_word(w_inf)} and {format_word(w_tor)}",
                    trials,
                )
        return CheckResult("radical_quotient", True, None, trials, cfg.seed)

    # infinite dihedral
    (_, w_u, w_v) = model.quotient
    g_u, g_v = ops.of_word(w_u), ops.of_word(w_v)
    trials += 4
    if member(g_u) or member(g_v):
        return fail("a dihedral witness lies in the radical", trials)
    if not member(ops.mul(g_u, g_u)) or not member(ops.mul(g_v, g_v)):
        return fail("a squared dihedral witness is not in the radical", trials)
    product = ops.mul(g_u, g_v)
    power = ops.identity()
    for k in range(1, min(bound, 50) + 1):
        power = ops.mul(power, product)
        trials += 1
        if member(power):
            return fail(
                f"({format_word(w_u)} {format_word(w_v)})^{k} lies in the "
                "radical",
                trials,
            )
    ladder = []
    cur = ops.identity()
    inv_product = ops.inv(product)
    for _ in range(24):
        cur = ops.mul(cur, inv_product)
        ladder.append(cur)
    cur = ops.identity()
    for _ in range(24):
        cur = ops.mul(cur, product)
        ladder.append(cur)
    ladder.append(ops.identity())
    steps = ladder + [ops.mul(p, ops.inv(g_u)) for p in ladder]
    for idx in range(min(cfg.trials, 40)):
        rng = _child_rng(cfg.seed, "quotient-dinfty", idx)
        g = ops.of_word(random_word(rng, names, cfg.max_word_length))
        trials += 1
        if not reduces(g, steps):
            return fail(
                "a sampled element does not reduce to the radical by the "
                "dihedral witnesses",
                trials,
            )
    return CheckResult("radical_quotient", True, None, trials, cfg.seed)


# --- harness -------------------------------------------------------------------


def _word_eq_check(
    desc: GroupDescriptor,
    cfg: TrialConfig,
    relations: list[tuple[str, Word]],
) -> CheckResult:
    ops = ops_for(desc)
    names = ops.generator_names
    relator_words = [r for _, r in relations]
    mismatches: list[str] = []
    budget_skips = 0
    constructed_failures: list[str] = []
    for idx in range(cfg.trials):
        rng = _child_rng(cfg.seed, "word-eq", idx)
        w1 = random_word(rng, names, cfg.max_word_length)
        forced_equal = False
        if relator_words and rng.random() < 0.5:
            w2 = w1
            for _ in range(rng.randint(1, 3)):
                relator = rng.choice(relator_words)
                if rng.random() < 0.5:
                    relator = relator.inv()
                conj = random_word(rng, names, 4)
                insert = conj * relator * conj.inv()
                w2 = w2 * insert if rng.random() < 0.5 else insert * w2
            forced_equal = True
        else:
            w2 = random_word(rng, names, cfg.max_word_length)
        normal_form_eq = ops.word_eq(w1, w2)
        try:
            oracle_eq = oracle_word_eq(desc, w1, w2)
        except VerifyResourceError:
            budget_skips += 1
            continue
        if normal_form_eq != oracle_eq:
            mismatches.append(
                f"{format_word(w1)} vs {format_word(w2)}: normal form says "
                f"{normal_form_eq}, oracle says {oracle_eq}"
            )
            break
        if forced_equal and not normal_form_eq:
            constructed_failures.append(
                f"{format_word(w1)} vs {format_word(w2)} differ only by "
                "relators but evaluate unequal"
            )
            break
    problems = mismatches + constructed_failures
    note = (
        f"{budget_skips} trials skipped on the size budget"
        if budget_skips
        else ""
    )
    return CheckResult(
        "word_eq_oracle",
        not problems,
        problems[0] if problems else None,
        cfg.trials,
        cfg.seed,
        note=note,
    )


def _depth_checks(desc: GroupDescriptor, cfg: TrialConfig, dl: int) -> list[CheckResult]:
    out: list[CheckResult] = []
    upper = min(max(dl, 1), 3)
    witness = commutator_depth_search(desc, upper, cfg)
    out.append(
        CheckResult(
            f"commutator_depth_{upper}_vanishes",
            witness is None,
            format_word(witness) if witness is not None else None,
            cfg.trials,
            cfg.seed,
            note=f"derived length {dl}",
        )
    )
    if dl >= 2:
        lower_witness = commutator_depth_search(desc, dl - 1, cfg)
        out.append(
            CheckResult(
                f"commutator_depth_{dl - 1}_witness",
                lower_witness is not None,
                None
                if lower_witness is not None
                else "no nonvanishing commutator found one level down",
                cfg.trials,
                cfg.seed,
                note=format_word(lower_witness) if lower_witness else "",
            )
        )
    return out


def _fp_cone_check(
    desc: MetabelianH31, cfg: TrialConfig, window: int, ctype: ConstructibleType
) -> CheckResult:
    ratios = (desc.t_ratio, desc.u_ratio)
    point = fp_cone_bruteforce(ratios, window)
    classifier_type1 = isinstance(ctype, Type1)
    if point is not None:
        i, j = point
        if not classifier_type1:
            return CheckResult(
                "fp_cone",
                False,
                f"brute force found ({i}, {j}) but the classifier does not "
                "report an ascending integral form",
                1,
                cfg.seed,
            )
        value = ratios[0] ** i * ratios[1] ** j
        witness = ctype.n
        if value.denominator != 1 or abs(witness) < 2:
            return CheckResult(
                "fp_cone",
                False,
                f"cone point ({i}, {j}) has non-integral value {value}",
                1,
                cfg.seed,
            )
        return CheckResult(
            "fp_cone",
            True,
            None,
            1,
            cfg.seed,
            note=f"cone point ({i}, {j}), value {value}",
        )
    primes = primes_of(*ratios)
    conclusive = window >= 12 and all(p <= 7 for p in primes)
    if conclusive and classifier_type1:
        return CheckResult(
            "fp_cone",
            False,
            "classifier reports an ascending integral form but the brute "
            f"force scan up to {window} found no cone point",
            1,
            cfg.seed,
        )
    return CheckResult(
        "fp_cone",
        True,
        None,
        1,
        cfg.seed,
        note="" if conclusive else "window may be too small to conclude",
    )


def _endo_checks(desc: AscHNNKb, cfg: TrialConfig) -> list[CheckResult]:
    out: list[CheckResult] = []
    bound = max(2 * abs(desc.e), abs(desc.d)) + 2
    try:
        index = endo_index(desc.endo, bound)
        expected = abs(desc.e * desc.d)
        out.append(
            CheckResult(
                "endo_index",
                index == expected,
                None
                if index == expected
                else f"coset enumeration gives {index}, expected {expected}",
                1,
                cfg.seed,
            )
        )
    except VerifyResourceError as err:
        out.append(
            CheckResult("endo_index", False, str(err), 1, cfg.seed)
        )
    ops = ops_for(desc)
    names = ops.generator_names
    relators = [r for _, r in defining_relations(desc)]
    contradictions: list[str] = []
    inconclusive = 0
    trials = min(cfg.trials, 30)
    for idx in range(trials):
        rng = _child_rng(cfg.seed, "britton-rewriting", idx)
        w1 = random_word(rng, names, 5)
        relator = rng.choice(relators)
        if rng.random() < 0.5:
            relator = relator.inv()
        conj = random_word(rng, names, 2)
        w2 = w1 * conj * relator * conj.inv()
        closure = rewrite_closure_eq(relators, w1, w2)
        britton = ops.word_eq(w1, w2)
        if not britton:
            contradictions.append(
                f"{format_word(w1)} vs {format_word(w2)}: Britton reduction "
                "misses a relator consequence"
            )
            break
        if closure is True:
            continue
        inconclusive += 1
    out.append(
        CheckResult(
            "britton_vs_rewriting",
            not contradictions,
            contradictions[0] if contradictions else None,
            trials,
            cfg.seed,
            note=(
                f"{inconclusive} closures hit the budget" if inconclusive else ""
            ),
        )
    )
    return out


def run_harness(
    desc: GroupDescriptor,
    cfg: TrialConfig,
    relators: Union[Relations, Presentation, None] = None,
    window: int = 12,
) -> VerificationReport:
    """Full verification pass for one descriptor.

    Covers relator evaluation, the word-problem oracle, iterated
    commutator depth against the derived length, the radical certificate,
    and the family-specific scans.
    """
    inv = invariants(desc)
    relations = _as_relations(relators, desc)
    checks: list[CheckResult] = [check_relations(desc, relations or None)]
    checks.append(_word_eq_check(desc, cfg, relations))
    checks.extend(_depth_checks(desc, cfg, inv.derived_length))
    checks.extend(radical_certificate(desc, cfg, inv=inv).checks)
    if isinstance(desc, MetabelianH31):
        rank, _ = mult_rank((desc.t_ratio, desc.u_ratio))
        if rank == 2:
            checks.append(_fp_cone_check(desc, cfg, window, inv.fp[1]))
    if isinstance(desc, AscHNNKb):
        checks.extend(_endo_checks(desc, cfg))
    return VerificationReport(family_of(desc).describe(desc), cfg.seed, tuple(checks))
