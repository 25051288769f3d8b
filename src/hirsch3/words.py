"""Freely reduced words and a small presentation DSL.

Grammar: ``< g1, g2, ... | w1 = w2, w3, ... >``.  Words are juxtaposed
powers ``g^k`` (k defaults to 1) with parentheses, commutator sugar
``[x, y]`` = x y x^-1 y^-1, and ``1`` for the identity.  Whitespace never
matters.  Relations u = v are stored as relators uv^-1.

Equality here is free-group equality; group-level equality lives with the
group element models.

Every `Word` is freely reduced, so a product reduces only at the seam: the
last syllables of the left factor against the first of the right, with the
rest copied as it is.  A power w^k is spelled directly: w = p c p^-1 with c
cyclically reduced, and in c^k only each copy's last syllable can merge
with the next copy's first.  No parsed word passes `MAX_POWER_SYLLABLES`
syllables: a power past it is refused unbuilt, a product once joined.

The parser keeps the shape of what it read: `parse_tree` returns a
`Product` of factors, each a `Word` (a run of plain syllables) or a
`Power` (a parenthesized word or commutator to an exponent other than 1,
spelling more than one syllable), which shares its base node: an inverse
is the power -1, so [x, y] holds x and y once each.  Every node also
carries its word spelled out, its factors joined at their seams in one
pass, so a long product of atoms is linear; `parse_word` and
`parse_presentation` return those words.  `evaluate` takes a tree's value
in a group given by its operations, each power once per base by the
group's `power`; `families.GroupOps.of_tree` passes square-and-multiply,
so a power's cost grows with the exponent's bit length, not with the
exponent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, groupby
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, TypeVar, Union

from . import InputError

Syllable = tuple[str, int]
T = TypeVar("T")


class ParseError(InputError):
    """Syntax error in the DSL; `pos` is the 0-based index into the text."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at index {pos})")
        self.pos = pos


# A parsed word whose reduced form passes 2^20 syllables is refused: that is
# 8 MB of syllable pointers, and still 1.7 times (t u a)^200000.
MAX_POWER_SYLLABLES = 2**20

# The longest spelled word that `evaluate` takes for a cancelled power:
# `of_word` is quadratic on some words, 4.8 s on (t u a)^40000 in BS(1,2) x Z.
MAX_SPELLED_SYLLABLES = 2**16


def _reduced(pairs: Iterable[Syllable]) -> tuple[Syllable, ...]:
    stack: list[Syllable] = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
            if exp:
                stack.append((gen, exp))
        else:
            stack.append((gen, exp))
    return tuple(stack)


def _joined(words: Iterable["Word"]) -> "Word":
    """The product of reduced words, each joined to the product so far at
    its seam in one list, so it is linear in the total."""
    out: list[Syllable] = []
    for w in words:
        syl = w.syllables
        i, j, n = len(out), 0, len(syl)
        while i and j < n and out[i - 1][0] == syl[j][0]:
            exp = out[i - 1][1] + syl[j][1]
            if exp:
                out[i - 1] = (syl[j][0], exp)
                j += 1
                break
            i, j = i - 1, j + 1
        del out[i:]
        out.extend(syl[j:])
    return Word(tuple(out))


@dataclass(frozen=True)
class Word:
    """A freely reduced word over named generators.

    Construct via `Word.of` (which reduces) or the algebra below; the raw
    constructor trusts its input.
    """

    syllables: tuple[Syllable, ...] = ()

    @classmethod
    def of(cls, pairs: Iterable[Syllable]) -> "Word":
        return cls(_reduced(pairs))

    @classmethod
    def gen(cls, name: str, exp: int = 1) -> "Word":
        return cls(((name, exp),) if exp else ())

    @classmethod
    def identity(cls) -> "Word":
        return cls()

    def is_identity(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "Word") -> "Word":
        return _joined((self, other))

    def inv(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, k: int) -> "Word":
        syl, n = self.syllables, abs(k)
        if not syl or not k:
            return Word()
        d = 0  # peel w = p c p^-1 down to a cyclically reduced core c
        while 2 * d + 1 < len(syl) and syl[d] == (syl[-1 - d][0], -syl[-1 - d][1]):
            d += 1
        core = syl[d : len(syl) - d]
        if k < 0:  # w^-1 = p c^-1 p^-1
            core = Word(core).inv().syllables
        merges = core[0][0] == core[-1][0]  # each copy's end with the next one's start
        size = 2 * d + n * len(core) - (n - 1) * merges
        if size > MAX_POWER_SYLLABLES:
            raise InputError(
                f"a word of {len(syl)} syllables to the power {k} would "
                f"spell {size} syllables, over the bound of {MAX_POWER_SYLLABLES}"
            )
        if len(core) == 1:
            middle = ((core[0][0], core[0][1] * n),)
        elif merges:
            joint = (core[0][0], core[-1][1] + core[0][1])
            middle = core[:-1] + ((joint,) + core[1:-1]) * (n - 1) + core[-1:]
        else:
            middle = core * n
        return Word(syl[:d] + middle + syl[len(syl) - d :])

    def exponent_sum(self, gen: str) -> int:
        return sum(e for g, e in self.syllables if g == gen)

    def length(self) -> int:
        """Letter count, i.e. sum of |exponents|."""
        return sum(abs(e) for _, e in self.syllables)

    def generators(self) -> set[str]:
        return {g for g, _ in self.syllables}

    def letters(self) -> Iterator[Syllable]:
        """Yield one (generator, +-1) per letter."""
        for g, e in self.syllables:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield g, step


def commutator(x: Word, y: Word) -> Word:
    """[x, y] = x y x^-1 y^-1."""
    return x * y * x.inv() * y.inv()


def format_word(w: Word) -> str:
    if w.is_identity():
        return "1"
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in w.syllables)


class Power(NamedTuple):
    """`base` to the power `exp`; `word` is that power spelled out."""

    base: "Product"
    exp: int
    word: Word


Factor = Union[Word, Power]


class Product(NamedTuple):
    """A parsed word: the product of `factors`, where no two `Word`s are
    adjacent and none is the identity; `word` is the product spelled out."""

    factors: tuple[Factor, ...]
    word: Word


def _run(w: Word) -> Product:
    return Product((w,) if w.syllables else (), w)


def _concat(parts: Sequence[Union[Word, Product]]) -> Product:
    """The product of parsed atoms, generator powers or parsed words:
    adjacent runs joined into one, and the spelled words joined at their
    seams in one linear pass and refused past `MAX_POWER_SYLLABLES`."""
    if all(isinstance(p, Word) for p in parts):
        out = _run(_joined(parts))
    elif len(parts) == 1:
        return parts[0]
    else:
        factors: list[Factor] = []
        every = chain.from_iterable((p,) if isinstance(p, Word) else p.factors for p in parts)
        for is_run, group in groupby(every, key=lambda f: isinstance(f, Word)):
            if not is_run:
                factors.extend(group)
            elif (run := _joined(group)).syllables:
                factors.append(run)
        word = _joined(p if isinstance(p, Word) else p.word for p in parts)
        out = Product(tuple(factors), word)
    if (size := len(out.word.syllables)) > MAX_POWER_SYLLABLES:
        raise InputError(
            f"a product of {len(parts)} factors would spell {size} syllables, "
            f"over the bound of {MAX_POWER_SYLLABLES}"
        )
    return out


def _power(base: Product, k: int) -> Product:
    """base^k, sharing `base` rather than copying it.  The power is spelled
    out here, so its syllable bound is checked where the parser reads it."""
    if k == 1:
        return base
    word = base.word**k
    if len(word.syllables) <= 1:
        return _run(word)
    return Product((Power(base, k, word),), word)


def evaluate(
    tree: Product,
    of_word: Callable[[Word], T],
    mul: Callable[[T, T], T],
    inv: Callable[[T], T],
    power: Callable[[T, int], T],
) -> T:
    """The value of a parsed word in a group: each run by `of_word`, and
    each power (w)^k, an inverse too, by `power(value of w, |k|)`, once for
    each base and |k|, so d nested commutators cost O(d^2) products.

    A product that spells out to less than half of its longest power has
    cancelled that power against its neighbours, as in (w)^k w (w)^-k or
    [(w)^k, w]; its spelled word, if at most `MAX_SPELLED_SYLLABLES`, goes to
    `of_word` instead, since the power's own value may be too large to build.
    """
    powers: dict[tuple[int, int], T] = {}

    def value(tree: Product) -> T:
        spelled = [len(f.word.syllables) for f in tree.factors if isinstance(f, Power)]
        size = len(tree.word.syllables)
        if not tree.factors or size <= MAX_SPELLED_SYLLABLES and 2 * size < max(spelled, default=0):
            return of_word(tree.word)
        out = None
        for f in tree.factors:
            if isinstance(f, Word):
                g = of_word(f)
            else:
                key = (id(f.base), abs(f.exp))
                if key not in powers:
                    powers[key] = power(value(f.base), abs(f.exp))
                g = powers[key] if f.exp > 0 else inv(powers[key])
            out = g if out is None else mul(out, g)
        return out

    return value(tree)


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        check_generators(self.relators, self.generators)


def check_generators(relators: Iterable[Word], generators: Sequence[str]) -> None:
    """Refuse a relator that uses a generator outside `generators`."""
    for r in relators:
        if stray := r.generators().difference(generators):
            raise InputError(
                f"relator uses unknown generator {min(stray)!r}; "
                f"the generators are {', '.join(generators) or 'none'}"
            )


def format_presentation(p: Presentation) -> str:
    gens = ", ".join(p.generators)
    rels = ", ".join(format_word(r) for r in p.relators)
    return f"< {gens} | {rels} >"


# --- tokenizer / parser ---------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?\d+")

_PUNCT = set("<>|,=()[]^")


def is_generator_name(name: str) -> bool:
    """Whether a word can spell `name`: an identifier of the grammar."""
    return _IDENT_RE.fullmatch(name) is not None


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    toks: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            toks.append(("ident", m.group(), i))
            i = m.end()
            continue
        m = _INT_RE.match(text, i)
        if m:
            try:
                value = int(m.group())
            except ValueError:  # past Python's integer-string digit limit
                raise ParseError("integer has too many digits", i) from None
            toks.append(("int", value, i))
            i = m.end()
            continue
        if ch in _PUNCT:
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("eof", None, n))
    return toks


class _Parser:
    def __init__(self, text: str, allowed: Optional[set[str]]) -> None:
        self.toks = _tokenize(text)
        self.i = 0
        self.allowed = allowed

    def peek(self) -> tuple[str, object, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, object, int]:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, object, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return self.next()

    def maybe_exponent(self) -> int:
        if self.peek()[0] != "^":
            return 1
        self.next()
        kind, value, pos = self.peek()
        if kind != "int":
            raise ParseError("malformed exponent", pos)
        self.next()
        return int(value)  # type: ignore[arg-type]

    def atom(self) -> Union[Word, Product]:
        kind, value, pos = self.peek()
        if kind == "ident":
            self.next()
            name = str(value)
            if self.allowed is not None and name not in self.allowed:
                raise ParseError(f"unknown generator {name!r}", pos)
            return Word.gen(name, self.maybe_exponent())
        if kind == "int":
            if value != 1:
                raise ParseError(f"unexpected integer {value}", pos)
            self.next()
            self.maybe_exponent()
            return Word()
        if kind == "(":
            self.next()
            inner = self.word()
            self.expect(")", "')'")
            return _power(inner, self.maybe_exponent())
        if kind == "[":
            self.next()
            x = self.word()
            self.expect(",", "',' inside commutator")
            y = self.word()
            self.expect("]", "']'")
            base = _concat([x, y, _power(x, -1), _power(y, -1)])
            return _power(base, self.maybe_exponent())
        raise ParseError("expected a word", pos)

    def word(self) -> Product:
        parts = [self.atom()]
        while self.peek()[0] in ("ident", "int", "(", "["):
            parts.append(self.atom())
        return _concat(parts)


def parse_tree(text: str, generators: Optional[Sequence[str]] = None) -> Product:
    """Parse a standalone word, keeping its powers; restrict symbols when
    generators are given."""
    parser = _Parser(text, set(generators) if generators is not None else None)
    tree = parser.word()
    parser.expect("eof", "end of input")
    return tree


def parse_word(text: str, generators: Optional[Sequence[str]] = None) -> Word:
    """Parse a standalone word, spelled out."""
    return parse_tree(text, generators).word


def parse_presentation(text: str) -> Presentation:
    parser = _Parser(text, None)
    parser.expect("<", "'<'")
    gens: list[str] = []
    if parser.peek()[0] == "ident":
        while True:
            _, name, pos = parser.expect("ident", "generator name")
            if name in gens:
                raise ParseError(f"duplicate generator {name!r}", pos)
            gens.append(str(name))
            if parser.peek()[0] != ",":
                break
            parser.next()
    parser.expect("|", "'|'")
    parser.allowed = set(gens)
    relators: list[Word] = []
    if parser.peek()[0] != ">":
        while True:
            relator = parser.word()
            if parser.peek()[0] == "=":
                parser.next()
                relator = _concat([relator, _power(parser.word(), -1)])
            relators.append(relator.word)
            if parser.peek()[0] != ",":
                break
            parser.next()
    parser.expect(">", "'>' or ','")
    parser.expect("eof", "end of input")
    return Presentation(tuple(gens), tuple(relators))
