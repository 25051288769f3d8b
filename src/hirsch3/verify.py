"""The randomized property harness, around the independent oracles.

Every claim the classifier and the family normal forms make is
cross-checked here by deliberately naive means: the faithful
representations and the Klein-bottle coset enumeration of `oracles`,
which share no arithmetic with the normal-form code, bounded rewriting
closures, and exhaustive scans over small windows.  `oracle_word_eq`,
`endo_index` and `VerifyResourceError` are re-exported from `oracles`.

Like `families.FAMILIES` and `classify._INVARIANTS`, `_VERIFIERS` holds
one record per descriptor type: the family's radical model and its own
extra checks.  The radical-quotient check has one driver per quotient tag
in `_QUOTIENT_DRIVERS`.

A check passes exactly when its counterexample is None; `CheckResult`
stores no other verdict.  All verdicts are deterministic under a fixed
seed.  Each named check and each trial derives its own child generator, so
results never depend on execution order and trials could run concurrently.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Optional, Sequence

from . import InputError
from .classify import ClassificationReport, Type1, classify
from .families import (
    AffineMap2,
    AffineQ2,
    AscHNNKb,
    BSbar,
    GroupDescriptor,
    LatticeByZ,
    MetabelianH31,
    RankOneQ,
    family_of,
    ops_for,
)
from .oracles import VerifyResourceError, endo_index, oracle_word_eq
from .rationals import (
    Mat2Q,
    complement_vector,
    matrix_order,
    rational_valuation,
    relation_lattice,
)
from .words import Presentation, Word, commutator, format_word

__all__ = [
    "TrialConfig",
    "CheckResult",
    "VerificationReport",
    "VerifyResourceError",
    "check_relations",
    "oracle_word_eq",
    "rewrite_closure_eq",
    "commutator_depth_search",
    "nested_commutator",
    "fp_cone_bruteforce",
    "endo_index",
    "radical_certificate",
    "run_harness",
    "random_word",
]


# the most letters a sampled random word has
MAX_WORD_LENGTH = 12

# The largest `window` admitted: the family scans' work grows faster than
# the square of the window.
MAX_WINDOW = 100


@dataclass(frozen=True)
class TrialConfig:
    """Budget for one randomized verification run: the seed, the number of
    random trials per check, and the window of the exhaustive scans.

    The same seed always produces the same report.  Each option out of its
    range raises an InputError here, so no caller checks it again.
    """

    seed: int = 0
    trials: int = 150
    window: int = 12

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 1 << 64:
            raise InputError("seed must fit in 64 bits")
        if self.trials < 1:
            raise InputError("trials must be at least 1")
        if not 1 <= self.window <= MAX_WINDOW:
            raise InputError(f"window must be between 1 and {MAX_WINDOW}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    counterexample: Optional[str]
    trials: int
    seed: int
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}


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
    if not names:
        return Word.identity()
    length = rng.randint(1, max_length)
    return Word.of(
        (rng.choice(names), rng.choice((-1, 1))) for _ in range(length)
    )


def _sampled_words(cfg: TrialConfig, label: str, names: Sequence[str], count: int):
    """`count` seeded random words, each drawn from its own child generator."""
    for idx in range(count):
        rng = _child_rng(cfg.seed, label, idx)
        yield random_word(rng, names, MAX_WORD_LENGTH)


# --- defining relations -------------------------------------------------------


def _relations(
    desc: GroupDescriptor, presentation: Optional[Presentation]
) -> list[tuple[str, Word]]:
    """The presentation's relators, labelled by their text, or the family's
    defining relations when there is no presentation."""
    if presentation is None:
        return family_of(desc).relations(desc)
    return [(format_word(r), r) for r in presentation.relators]


def check_relations(
    desc: GroupDescriptor, presentation: Optional[Presentation] = None
) -> CheckResult:
    """Evaluate every relator in the element model; all must be identity."""
    ops = ops_for(desc)
    relations = _relations(desc, presentation)
    if not relations:
        note = "no relator set available; supply a presentation"
        return CheckResult("relations", None, 0, 0, note=note)
    failures = [
        label
        for label, relator in relations
        if not ops.is_identity(ops.of_word(relator))
    ]
    return CheckResult("relations", "; ".join(failures) or None, len(relations), 0)


# --- rewriting closure --------------------------------------------------------


_CLOSURE_VISITS = 4000
# the most letters a move or either word may have: every candidate spells
# one of each out letter by letter
_CLOSURE_LETTERS = 200


def rewrite_closure_eq(
    relators: Sequence[Word], w1: Word, w2: Word
) -> Optional[bool]:
    """Bidirectional closure under relator insertion and free reduction.

    Returns True when the two closures meet, None when the letter, length
    or node budget is exhausted first.  Never returns False: within a
    bounded window a failure to meet proves nothing.
    """
    moves: list[Word] = []
    for r in relators:
        for candidate in (r, r.inv()):
            if not candidate.is_identity() and candidate not in moves:
                moves.append(candidate)
    if w1 == w2:
        return True
    longest = max((m.length() for m in moves), default=0)
    if max(longest, w1.length(), w2.length()) > _CLOSURE_LETTERS:
        return None
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
                    if visited >= _CLOSURE_VISITS:
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
    half = n // 2
    return commutator(nested_commutator(words[:half]), nested_commutator(words[half:]))


_CANDIDATE_CAP = 512


def _commutator(ops, g1, g2):
    """[g1, g2] = (g1 g2)(g2 g1)^-1."""
    return ops.mul(ops.mul(g1, g2), ops.inv(ops.mul(g2, g1)))


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
        # and inner commutator evaluated once.  The candidate tuples share
        # most of their inner commutators.
        if leaves not in values:
            if len(leaves) == 1:
                values[leaves] = ops.of_word(leaves[0])
            else:
                half = len(leaves) // 2
                values[leaves] = _commutator(
                    ops, value(leaves[:half]), value(leaves[half:])
                )
        return values[leaves]

    gens = [Word.gen(n) for n in names]
    for leaves in itertools.islice(
        itertools.product(gens, repeat=width), _CANDIDATE_CAP
    ):
        # an innermost [g, g] = 1 makes the whole commutator trivial
        if any(leaves[i] == leaves[i + 1] for i in range(0, width, 2)):
            continue
        if not ops.is_identity(value(leaves)):
            return nested_commutator(leaves)
    for idx in range(cfg.trials):
        # random trials share almost no subtuples; keep only this trial's
        values.clear()
        rng = _child_rng(cfg.seed, f"commutator-depth-{depth}", idx)
        leaves = tuple(
            random_word(rng, names, MAX_WORD_LENGTH) for _ in range(width)
        )
        if not ops.is_identity(value(leaves)):
            return nested_commutator(leaves)
    return None


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
    lattice = relation_lattice(ratios)
    if lattice.rank != 2:
        raise ValueError("ratios must be multiplicatively independent")
    primes = lattice.primes
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


# --- radical certificate --------------------------------------------------------


@dataclass(frozen=True)
class _RadicalModel:
    abelian: bool
    generator_words: tuple[Word, ...]
    member: Callable
    # ("Z", w) | ("Z2", w1, w2) | ("ZplusZ2", w_inf, w_tor)
    # | ("Dinfty", w_u, w_v) | ("VirtuallyTrivial",) | None for whole group
    quotient: Optional[tuple]
    # more radical words, added when a non-abelian radical's sample commutes
    more_words: tuple[Word, ...] = ()


_FINITE = ("VirtuallyTrivial",)


def _whole_abelian_group(desc: GroupDescriptor) -> _RadicalModel:
    gens = tuple(Word.gen(n) for n in ops_for(desc).generator_names)
    return _RadicalModel(True, gens, lambda g: True, None)


def _bsbar_radical(desc: BSbar, report: ClassificationReport) -> _RadicalModel:
    a, t = Word.gen("a"), Word.gen("t")
    if report.radical.hirsch == 1:
        # for |ratio| = 1 this is an undersized claim, a negative control
        return _RadicalModel(True, (a,), lambda g: g.i == 0, ("Z", t))
    if desc.ratio == 1:
        return _RadicalModel(True, (a, t), lambda g: True, None)
    return _RadicalModel(True, (a, t**2), lambda g: g.i % 2 == 0, _FINITE)


def _meta_power_word(vec: tuple[int, int]) -> Word:
    return Word.of((("t", vec[0]), ("u", vec[1])))


def _meta_radical(desc: MetabelianH31, report: ClassificationReport) -> _RadicalModel:
    r1, r2 = desc.t_ratio, desc.u_ratio
    a, t, u = Word.gen("a"), Word.gen("t"), Word.gen("u")
    lattice = desc.ratio_lattice
    basis = lattice.relations()
    if report.radical.hirsch == 1 + len(basis):

        @lru_cache(maxsize=None)
        def acts_trivially(i: int, j: int) -> bool:
            return r1**i * r2**j == 1

        def member(g) -> bool:
            return acts_trivially(g.i, g.j)

        if lattice.rank == 2:
            quotient: tuple = ("Z2", t, u)
        elif lattice.rank == 1:
            kernel_vec = lattice.kernel[0]
            w_inf = _meta_power_word(complement_vector(kernel_vec))
            if lattice.has_minus_one:
                quotient = ("ZplusZ2", w_inf, _meta_power_word(kernel_vec))
            else:
                quotient = ("Z", w_inf)
        else:
            quotient = _FINITE
        gens = (a, *(_meta_power_word(v) for v in basis))
        return _RadicalModel(report.radical.is_abelian, gens, member, quotient)
    # an undersized claim, a negative control
    return _RadicalModel(True, (a,), lambda g: g.i == 0 and g.j == 0, ("Z2", t, u))


def _lattice_radical(desc: LatticeByZ, report: ClassificationReport) -> _RadicalModel:
    a, b, t = Word.gen("a"), Word.gen("b"), Word.gen("t")
    m = desc.matrix
    if report.radical.hirsch == 2:
        return _RadicalModel(True, (a, b), lambda g: g.k == 0, ("Z", t))

    def member(g) -> bool:
        return m.pow(g.k).is_unipotent() if g.k else True

    order = matrix_order(m)
    if order is not None:
        return _RadicalModel(True, (a, b, t**order), member, _FINITE)
    if m.is_unipotent():
        return _RadicalModel(report.radical.is_abelian, (a, b, t), member, None)
    # m is -1 times a unipotent matrix
    return _RadicalModel(False, (a, b, t**2), member, _FINITE)


def _hnn_net(g) -> int:
    return g.j - g.i


def _hnnkb_radical(desc: AscHNNKb, report: ClassificationReport) -> _RadicalModel:
    e, d = desc.e, desc.d
    x, y, s = Word.gen("x"), Word.gen("y"), Word.gen("s")
    if report.radical.hirsch == 2:
        return _RadicalModel(
            True,
            (x**2, y),
            lambda g: _hnn_net(g) == 0 and g.g.a % 2 == 0,
            ("ZplusZ2", s, x),
        )

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
    gens = (x**2, y, extra)
    return _RadicalModel(report.radical.is_abelian, gens, member_unit, _FINITE)


def _affine_radical_words(
    desc: AffineQ2, abelian: bool
) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    """Words for unipotent elements: the first 8 distinct ones of length at
    most 3, and for a non-abelian claim up to 4 more that are not
    translations, from the same words and the squares of those of length at
    most 2.

    The short words alone can all be translations, or all parallel shears,
    in a radical that is not abelian; a sample of them then always commutes.
    The layers of words stop once both lists are full.  A unipotent word met
    while fewer than 8 are found joins them, so where they stop changes no list.
    """
    ops = ops_for(desc)
    one = ops.identity()
    letters = [
        (x, ops.of_word(x))
        for n in ops.generator_names
        for x in (Word.gen(n), Word.gen(n, -1))
    ]
    found: dict[AffineMap2, Word] = {}
    shears: dict[AffineMap2, Word] = {}

    def file(words: list[tuple[Word, AffineMap2]], join: bool) -> bool:
        for w, g in words:
            if g == one or g in found or not g.is_unipotent():
                continue
            if join and len(found) < 8:
                found[g] = w
            elif not abelian and len(shears) < 4 and not g.is_translation():
                shears.setdefault(g, w)
        return len(found) == 8 and (abelian or len(shears) == 4)

    layers = [[(Word.identity(), one)]]
    for _ in range(3):
        layers.append([
            (w * x, ops.mul(g, h))
            for w, g in layers[-1]
            for x, h in letters
            if (w * x).length() > w.length()
        ])
        if file(layers[-1], join=True):
            break
    else:
        file([(w * w, ops.mul(g, g)) for w, g in layers[1] + layers[2]], join=False)
    return tuple(found.values()), tuple(shears.values())


def _affine_radical(desc: AffineQ2, report: ClassificationReport) -> _RadicalModel:
    maps = [g for _, g in desc.generators]
    if report.derived_length <= 1:
        # abelian group: the radical is everything, including generators
        # whose linear part is not unipotent (a faithful Z action, say)
        return _whole_abelian_group(desc)
    if report.radical.hirsch == report.hirsch_length:
        quotient = None if all(g.is_unipotent() for g in maps) else _FINITE
    elif report.hirsch_length == 3 and report.quotient.tag == "Dinfty":
        # the first two generators with distinct reflection linear parts
        reflections: dict[Mat2Q, str] = {}
        for name, g in desc.generators:
            lin = g.linear
            if lin.is_reflection():
                reflections.setdefault(lin, name)
        u_name, v_name = list(reflections.values())[:2]
        quotient = ("Dinfty", Word.gen(u_name), Word.gen(v_name))
    else:
        names = [name for name, g in desc.generators if not g.is_unipotent()]
        if not names:
            raise AssertionError("no witness generator for the cyclic quotient")
        quotient = ("Z", Word.gen(names[0]))
    gens, more = _affine_radical_words(desc, report.radical.is_abelian)
    return _RadicalModel(
        report.radical.is_abelian, gens, AffineMap2.is_unipotent, quotient, more
    )


def _commutes(ops, g1, g2) -> bool:
    return ops.mul(g1, g2) == ops.mul(g2, g1)


def _conjugate_word(conjugator: Optional[Word], w: Word) -> Word:
    return w if conjugator is None else conjugator * w * conjugator.inv()


def radical_certificate(
    desc: GroupDescriptor,
    cfg: TrialConfig,
    report: Optional[ClassificationReport] = None,
) -> VerificationReport:
    """Randomized certificate for the Fitting radical that a report claims.

    Samples claimed-radical elements and checks commutativity, normality,
    that sampled outside elements fail to centralize, and that quotient
    witnesses satisfy the claimed quotient shape.  The claim is
    `report.radical`, `classify(desc)` when no report is given; a report
    whose radical Hirsch length is replaced by a wrong one makes the
    certificate a negative control.

    A non-abelian claim whose sample finds no witness is certified again
    with the model's `more_words` added to the radical's generators, so
    those words change only the reports that would otherwise fail.
    """
    ops = ops_for(desc)
    model = _VERIFIERS[type(desc)].radical(desc, report or classify(desc))
    checks = _certificate_checks(desc, ops, model, cfg)
    # checks[2] is the commutativity check: the witness check, given more words
    if model.more_words and not checks[2].passed:
        words = model.generator_words + model.more_words
        model = replace(model, generator_words=words, more_words=())
        checks = _certificate_checks(desc, ops, model, cfg)
    return VerificationReport(
        family_of(desc).describe(desc), cfg.seed, tuple(checks)
    )


_ALL_COMMUTE = "all sampled radical pairs commute"


def _certificate_checks(
    desc: GroupDescriptor, ops, model: _RadicalModel, cfg: TrialConfig
) -> list[CheckResult]:
    names = ops.generator_names
    checks: list[CheckResult] = []

    gen_words = list(model.generator_words)
    gen_elems = [ops.of_word(w) for w in gen_words]

    bad = [
        format_word(w)
        for w, g in zip(gen_words, gen_elems)
        if not model.member(g)
    ]
    checks.append(
        CheckResult("radical_generators", "; ".join(bad) or None, len(gen_words), cfg.seed)
    )

    # normality: conjugates of radical generators stay inside.  The sample
    # keeps each element with its (conjugator, generator word); the word is
    # built only for a message.
    sample: list[tuple[object, tuple[Optional[Word], Word]]] = [
        (g, (None, w)) for w, g in zip(gen_words, gen_elems)
    ]
    normal_failure = None
    conj_count = 0
    conjugators = [Word.gen(n, e) for n in names for e in (1, -1)]
    conjugators += _sampled_words(cfg, "radical-normal", names, cfg.trials)
    for conjugator in conjugators:
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
    checks.append(CheckResult("radical_normal", normal_failure, conj_count, cfg.seed))

    # commutativity of the sampled radical, each element against its next
    # five, or a witness against it from all pairs
    window = 5 if model.abelian else len(sample)
    pairs = (
        (first, second)
        for i, first in enumerate(sample)
        for second in sample[i + 1 : i + 1 + window]
    )
    pair = None
    pair_count = 0
    for (g1, src1), (g2, src2) in pairs:
        pair_count += 1
        if not _commutes(ops, g1, g2):
            pair = (
                f"[{format_word(_conjugate_word(*src1))}, "
                f"{format_word(_conjugate_word(*src2))}] != 1"
            )
            break
    if model.abelian:
        checks.append(CheckResult("radical_abelian", pair, pair_count, cfg.seed))
    else:
        checks.append(
            CheckResult(
                "radical_nonabelian_witness",
                None if pair else _ALL_COMMUTE,
                pair_count,
                cfg.seed,
                note=pair or "",
            )
        )

    # maximality: a genuine outside element twists the radical by a
    # non-unipotent action, so against some generator its iterated
    # commutators stay nontrivial at every depth.  An element whose
    # adjoint action dies within three steps on every generator would
    # extend the claimed radical to a larger nilpotent normal subgroup.
    def acts_non_nilpotently(g) -> bool:
        g_inv = ops.inv(g)
        for c in gen_elems:
            for _ in range(3):
                c = ops.mul(ops.mul(g, c), ops.mul(g_inv, ops.inv(c)))
                if ops.is_identity(c):
                    break
            else:
                return True
        return False

    outside: list[tuple[Word, object]] = []
    gens = (Word.gen(name) for name in names)
    samples = _sampled_words(cfg, "radical-outside", names, cfg.trials)
    for w in itertools.chain(gens, samples):
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
            "; ".join(absorbed[:3]) or None,
            len(outside),
            cfg.seed,
            note=note,
        )
    )

    checks.append(_quotient_check(desc, ops, model, cfg))
    return checks


# --- radical quotient ------------------------------------------------------------


class _QuotientRun:
    """One radical-quotient check: the element algebra, the claimed
    radical's membership test, and the membership trials made so far.

    Each driver below takes a run and the quotient witness words, and
    returns a counterexample message or None.
    """

    def __init__(self, ops, member: Callable, cfg: TrialConfig) -> None:
        self.ops, self.member, self.cfg = ops, member, cfg
        self.trials = 0

    def samples(self, label: str, cap: int):
        names, count = self.ops.generator_names, min(self.cfg.trials, cap)
        return _sampled_words(self.cfg, label, names, count)

    def ladder(self, g, reach: int) -> list:
        """The identity, then g^-1 ... g^-reach, then g ... g^reach."""
        ops = self.ops
        out = [ops.identity()]
        for step in (ops.inv(g), g):
            power = ops.identity()
            for _ in range(reach):
                power = ops.mul(power, step)
                out.append(power)
        return out

    def enters(self, g, steps: Sequence) -> bool:
        """Whether g times some step lies in the radical; one trial per
        step tried."""
        for step in steps:
            self.trials += 1
            if self.member(self.ops.mul(g, step)):
                return True
        return False

    def powers_stay_outside(
        self, g, cap: int, text: str, shifts=((None, ""),)
    ) -> Optional[str]:
        """No g^k with 1 <= k <= cap, nor g^k times a shift, lies in the
        radical; `text` and the shift's suffix name them."""
        ops, power = self.ops, self.ops.identity()
        for k in range(1, cap + 1):
            power = ops.mul(power, g)
            self.trials += len(shifts)
            for shift, suffix in shifts:
                if self.member(power if shift is None else ops.mul(power, shift)):
                    return f"{text}^{k}{suffix} lies in the radical"
        return None

    def samples_reduce(self, label: str, g, twist, by: str) -> Optional[str]:
        """Each sampled element enters the radical times g^k for some
        |k| <= 24, or times g^k twist^-1 when a twist is given."""
        ops = self.ops
        steps = self.ladder(g, 24)
        if twist is not None:
            twist_inv = ops.inv(twist)
            steps += [ops.mul(p, twist_inv) for p in steps]
        for w in self.samples(label, 40):
            h = ops.of_word(w)
            self.trials += 1
            if not any(self.member(ops.mul(h, step)) for step in steps):
                return f"a sampled element does not reduce to the radical by {by}"
        return None


def _power_base(w: Word) -> str:
    """w as the base of a power: in parentheses unless it is a single
    letter, so that (x y)^2 does not read as x y^2."""
    text = format_word(w)
    single_letter = len(w.syllables) == 1 and w.syllables[0][1] == 1
    return text if single_letter else f"({text})"


def _quotient_z(run: _QuotientRun, w: Word) -> Optional[str]:
    g, text = run.ops.of_word(w), format_word(w)
    return run.powers_stay_outside(g, 24, _power_base(w)) or run.samples_reduce(
        "quotient-z", g, None, f"a power of {text}"
    )


def _quotient_z2(run: _QuotientRun, w1: Word, w2: Word) -> Optional[str]:
    ops, member = run.ops, run.member
    g1, g2 = ops.of_word(w1), ops.of_word(w2)
    text1, text2 = format_word(w1), format_word(w2)
    run.trials += 1
    if not member(_commutator(ops, g1, g2)):
        return f"[{text1}, {text2}] is not in the radical"
    for i in range(-4, 5):
        for j in range(-4, 5):
            if (i, j) == (0, 0):
                continue
            run.trials += 1
            if member(ops.mul(ops.of_word(w1**i), ops.of_word(w2**j))):
                base1, base2 = _power_base(w1), _power_base(w2)
                return f"{base1}^{i} {base2}^{j} lies in the radical"
    ladder1, ladder2 = run.ladder(g1, 12), run.ladder(g2, 12)
    for w in run.samples("quotient-z2", 25):
        g = ops.of_word(w)
        if not any(run.enters(ops.mul(g, p1), ladder2) for p1 in ladder1):
            return (
                "a sampled element does not reduce to the radical by "
                f"powers of {text1} and {text2}"
            )
    return None


def _quotient_z_plus_z2(run: _QuotientRun, w_inf: Word, w_tor: Word) -> Optional[str]:
    ops, member = run.ops, run.member
    g_inf, g_tor = ops.of_word(w_inf), ops.of_word(w_tor)
    inf, tor = format_word(w_inf), format_word(w_tor)
    run.trials += 2
    if member(g_tor):
        return f"{tor} lies in the radical"
    if not member(ops.mul(g_tor, g_tor)):
        return f"{tor}^2 is not in the radical"
    run.trials += 1
    if not member(_commutator(ops, g_inf, g_tor)):
        return f"[{inf}, {tor}] is not in the radical"
    shifts = ((None, ""), (g_tor, f" {tor}"))
    base = _power_base(w_inf)
    return run.powers_stay_outside(g_inf, 24, base, shifts) or run.samples_reduce(
        "quotient-zz2", g_inf, g_tor, f"powers of {inf} and {tor}"
    )


def _quotient_dihedral(run: _QuotientRun, w_u: Word, w_v: Word) -> Optional[str]:
    ops, member = run.ops, run.member
    g_u, g_v = ops.of_word(w_u), ops.of_word(w_v)
    run.trials += 4
    if member(g_u) or member(g_v):
        return "a dihedral witness lies in the radical"
    if not member(ops.mul(g_u, g_u)) or not member(ops.mul(g_v, g_v)):
        return "a squared dihedral witness is not in the radical"
    product = ops.mul(g_u, g_v)
    text = f"({format_word(w_u)} {format_word(w_v)})"
    return run.powers_stay_outside(product, 50, text) or run.samples_reduce(
        "quotient-dinfty", product, g_u, "the dihedral witnesses"
    )


def _quotient_finite(run: _QuotientRun) -> Optional[str]:
    ops = run.ops
    gens = (Word.gen(name) for name in ops.generator_names)
    for w in itertools.chain(gens, run.samples("quotient-finite", 40)):
        g, power = ops.of_word(w), ops.identity()
        for _ in range(12):
            power = ops.mul(power, g)
            run.trials += 1
            if run.member(power):
                break
        else:
            return f"no small power of {format_word(w)} enters the radical"
    return None


_QUOTIENT_DRIVERS: dict[str, Callable[..., Optional[str]]] = {
    "Z": _quotient_z,
    "Z2": _quotient_z2,
    "ZplusZ2": _quotient_z_plus_z2,
    "Dinfty": _quotient_dihedral,
    "VirtuallyTrivial": _quotient_finite,
}


def _quotient_check(
    desc: GroupDescriptor, ops, model: _RadicalModel, cfg: TrialConfig
) -> CheckResult:
    if model.quotient is None:
        note = "radical is the whole group"
        return CheckResult("radical_quotient", None, 0, cfg.seed, note=note)
    tag, *witnesses = model.quotient
    run = _QuotientRun(ops, model.member, cfg)
    failure = _QUOTIENT_DRIVERS[tag](run, *witnesses)
    return CheckResult("radical_quotient", failure, run.trials, cfg.seed)


# --- harness -------------------------------------------------------------------


def _word_eq_check(
    desc: GroupDescriptor,
    cfg: TrialConfig,
    relations: list[tuple[str, Word]],
) -> CheckResult:
    ops = ops_for(desc)
    names = ops.generator_names
    relator_words = [r for _, r in relations]
    problem: Optional[str] = None
    budget_skips = 0
    for idx in range(cfg.trials):
        rng = _child_rng(cfg.seed, "word-eq", idx)
        w1 = random_word(rng, names, MAX_WORD_LENGTH)
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
            w2 = random_word(rng, names, MAX_WORD_LENGTH)
        normal_form_eq = ops.word_eq(w1, w2)
        try:
            oracle_eq = oracle_word_eq(desc, w1, w2)
        except VerifyResourceError:
            budget_skips += 1
            continue
        if normal_form_eq != oracle_eq:
            problem = (
                f"{format_word(w1)} vs {format_word(w2)}: normal form says "
                f"{normal_form_eq}, oracle says {oracle_eq}"
            )
        elif forced_equal and not normal_form_eq:
            problem = (
                f"{format_word(w1)} vs {format_word(w2)} differ only by "
                "relators but evaluate unequal"
            )
        if problem:
            break
    note = f"{budget_skips} trials skipped on the size budget" if budget_skips else ""
    return CheckResult("word_eq_oracle", problem, cfg.trials, cfg.seed, note=note)


def _depth_checks(desc: GroupDescriptor, cfg: TrialConfig, dl: int) -> list[CheckResult]:
    out: list[CheckResult] = []
    upper = min(max(dl, 1), 3)
    witness = commutator_depth_search(desc, upper, cfg)
    out.append(
        CheckResult(
            f"commutator_depth_{upper}_vanishes",
            format_word(witness) if witness is not None else None,
            cfg.trials,
            cfg.seed,
            note=f"derived length {dl}",
        )
    )
    if dl >= 2:
        lower = commutator_depth_search(desc, dl - 1, cfg)
        missing = "no nonvanishing commutator found one level down"
        out.append(
            CheckResult(
                f"commutator_depth_{dl - 1}_witness",
                None if lower is not None else missing,
                cfg.trials,
                cfg.seed,
                note=format_word(lower) if lower is not None else "",
            )
        )
    return out


def _fp_cone_check(
    desc: MetabelianH31, cfg: TrialConfig, report: ClassificationReport
) -> list[CheckResult]:
    """The brute-force cone scan against the classifier's constructible
    type; only multiplicatively independent ratio pairs have a cone."""
    ratios = (desc.t_ratio, desc.u_ratio)
    if desc.ratio_lattice.rank != 2:
        return []
    ctype = report.constructible_type
    point = fp_cone_bruteforce(ratios, cfg.window)
    classifier_type1 = isinstance(ctype, Type1)

    def result(counterexample: Optional[str], note: str = "") -> list[CheckResult]:
        return [CheckResult("fp_cone", counterexample, 1, cfg.seed, note=note)]

    if point is not None:
        i, j = point
        if not classifier_type1:
            return result(
                f"brute force found ({i}, {j}) but the classifier does not "
                "report an ascending integral form"
            )
        value = ratios[0] ** i * ratios[1] ** j
        if value.denominator != 1 or abs(ctype.n) < 2:
            return result(f"cone point ({i}, {j}) has non-integral value {value}")
        return result(None, note=f"cone point ({i}, {j}), value {value}")
    conclusive = cfg.window >= 12 and all(p <= 7 for p in desc.ratio_lattice.primes)
    if conclusive and classifier_type1:
        return result(
            "classifier reports an ascending integral form but the brute "
            f"force scan up to {cfg.window} found no cone point"
        )
    return result(None, note="" if conclusive else "window may be too small to conclude")


def _endo_checks(
    desc: AscHNNKb, cfg: TrialConfig, report: ClassificationReport
) -> list[CheckResult]:
    index, expected = endo_index(desc), abs(desc.e * desc.d)
    problem = None
    if index != expected:
        problem = f"coset enumeration gives {index}, expected {expected}"
    out = [CheckResult("endo_index", problem, 1, cfg.seed)]
    ops = ops_for(desc)
    names = ops.generator_names
    relators = [r for _, r in family_of(desc).relations(desc)]
    contradiction: Optional[str] = None
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
        if not ops.word_eq(w1, w2):
            contradiction = (
                f"{format_word(w1)} vs {format_word(w2)}: Britton reduction "
                "misses a relator consequence"
            )
            break
        if closure is not True:
            inconclusive += 1
    out.append(
        CheckResult(
            "britton_vs_rewriting",
            contradiction,
            trials,
            cfg.seed,
            note=f"{inconclusive} closures hit the budget" if inconclusive else "",
        )
    )
    return out


# --- the verifier table -----------------------------------------------------------


@dataclass(frozen=True)
class _Verifier:
    """What the verifier knows of one family besides its word oracle,
    which `oracles` keeps.

    `radical(desc, report)` is the radical model for the Hirsch length that
    `report.radical` claims.  `extra_checks(desc, cfg, report)` are the
    family's own scans, run after the radical certificate; they read their
    window from `cfg`.
    """

    radical: Callable[[Any, ClassificationReport], _RadicalModel]
    extra_checks: Callable[
        [Any, TrialConfig, ClassificationReport], list[CheckResult]
    ] = lambda desc, cfg, report: []


_VERIFIERS: dict[type, _Verifier] = {
    BSbar: _Verifier(_bsbar_radical),
    MetabelianH31: _Verifier(_meta_radical, _fp_cone_check),
    LatticeByZ: _Verifier(_lattice_radical),
    AscHNNKb: _Verifier(_hnnkb_radical, _endo_checks),
    RankOneQ: _Verifier(lambda desc, report: _whole_abelian_group(desc)),
    AffineQ2: _Verifier(_affine_radical),
}


def run_harness(
    desc: GroupDescriptor,
    cfg: TrialConfig,
    relators: Optional[Presentation] = None,
) -> VerificationReport:
    """Full verification pass for one descriptor.

    Covers relator evaluation, the word-problem oracle, iterated
    commutator depth against the derived length, the radical certificate,
    and the family-specific scans.  A presentation without relators gives
    the word-problem check no relators to insert, and leaves the relations
    check to the family's defining relations.
    """
    report = classify(desc)
    relations = _relations(desc, relators)
    checks: list[CheckResult] = [check_relations(desc, relators if relations else None)]
    checks.append(_word_eq_check(desc, cfg, relations))
    checks.extend(_depth_checks(desc, cfg, report.derived_length))
    checks.extend(radical_certificate(desc, cfg, report=report).checks)
    checks.extend(_VERIFIERS[type(desc)].extra_checks(desc, cfg, report))
    return VerificationReport(family_of(desc).describe(desc), cfg.seed, tuple(checks))
