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
`Product` of factors, each a `Word` (a run of plain syllables) or a `Power`
of a shared base node: an inverse is the power -1, so [x, y] holds x and y
once each.  Adjacent powers of one word merge (`_merged`), since
g^a g^b = g^(a+b), so (w)^k w (w)^-k is the run w.  Every node also carries
its word spelled out, which `parse_word` and `parse_presentation` return.
`evaluate` folds a tree's factors in a group, each power once per base by
the group's `power` and each product of a shared prefix of factors once;
`families.GroupOps.of_tree` passes square-and-multiply, so a power costs
O(log k) products at its merged exponent k.
"""

from __future__ import annotations

import re
from itertools import chain, groupby
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, TypeVar, Union

from . import InputError, Record

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


class Word(Record):
    """A freely reduced word over named generators.

    Construct via `Word.of` (which reduces) or the algebra below; the raw
    constructor trusts its input.
    """

    __slots__ = _fields = ("syllables",)

    def __init__(self, syllables: tuple[Syllable, ...] = ()) -> None:
        object.__setattr__(self, "syllables", syllables)

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
    """`base` to the power `exp`."""

    base: "Product"
    exp: int


Factor = Union[Word, Power]


class Product(NamedTuple):
    """A parsed word: the product of `factors`, no run the identity and no
    two adjacent ones powers of one word; `word` is it spelled out."""

    factors: tuple[Factor, ...]
    word: Word


def _merged(f: Factor, g: Factor) -> Optional[Factor]:
    """f g as one factor, or None: two runs join, and two powers of one word,
    a run being its first power and (w^-1)^k being w^-k, add exponents."""
    if isinstance(f, Word) and isinstance(g, Word):
        return _joined((f, g))
    (b, j), (c, k) = (
        (h.base, h.exp) if isinstance(h, Power) else (Product((h,), h), 1) for h in (f, g)
    )
    if b.word != c.word:
        if len(b.word.syllables) != len(c.word.syllables) or b.word != c.word.inv():
            return None
        k = -k
    return Power(b, j + k) if j + k else Word()


def _concat(parts: Sequence[Union[Word, Product]]) -> Product:
    """The product of parsed atoms, generator powers or parsed words, its
    words joined in one linear pass and refused past `MAX_POWER_SYLLABLES`,
    and each factor merged into the one before it while `_merged` can."""
    if len(parts) == 1 and isinstance(parts[0], Product):
        return parts[0]
    word = _joined(p if isinstance(p, Word) else p.word for p in parts)
    if (size := len(word.syllables)) > MAX_POWER_SYLLABLES:
        raise InputError(
            f"a product of {len(parts)} factors would spell {size} syllables, "
            f"over the bound of {MAX_POWER_SYLLABLES}"
        )
    if all(isinstance(p, Word) for p in parts):
        return Product((word,) if word.syllables else (), word)
    factors: list[Factor] = []
    every = chain.from_iterable((p,) if isinstance(p, Word) else p.factors for p in parts)
    for is_run, group in groupby(every, key=lambda f: isinstance(f, Word)):
        for f in (_joined(group),) if is_run else group:
            while factors and (merged := _merged(factors[-1], f)) is not None:
                factors.pop()
                f = merged
            if not isinstance(f, Word) or f.syllables:
                factors.append(f)
    return Product(tuple(factors), word)


def _power(base: Product, k: int) -> Product:
    """base^k, sharing `base` rather than copying it, or (w)^(j k) for a
    base that is the one factor (w)^j.  The power is spelled out here, so
    its syllable bound is checked where the parser reads it."""
    if k == 1:
        return base
    word = base.word**k
    if len(word.syllables) <= 1:
        return _concat([word])
    if len(base.factors) == 1 and isinstance(inner := base.factors[0], Power):
        base, k = inner.base, inner.exp * k
    return Product((Power(base, k),), word)


def evaluate(
    tree: Product, of_word: Callable[[Word], T], mul: Callable[[T, T], T],
    inv: Callable[[T], T], power: Callable[[T, int], T],
) -> T:
    """The value of a parsed word in a group: its factors' values folded
    left by `mul`, each run by `of_word` and each power (w)^k, an inverse
    too, by `power(value of w, |k|)`, once for each base and |k|.  The folds
    share one trie of factors, each node the product of the factors on its
    path, so a fold multiplies only past its longest prefix in the trie,
    and d nested commutators cost O(d) products."""
    powers: dict[tuple[int, int], T] = {}
    trie: dict = {}

    def factor(f: Factor) -> T:
        if isinstance(f, Word):
            return of_word(f)
        key = (id(f.base), abs(f.exp))
        if key not in powers:
            powers[key] = power(value(f.base), abs(f.exp))
        return powers[key] if f.exp > 0 else inv(powers[key])

    def value(tree: Product) -> T:
        if not tree.factors:
            return of_word(Word())
        node = trie
        for f in tree.factors:
            key = f if isinstance(f, Word) else (id(f.base), f.exp)
            if key not in node:
                g = factor(f)
                node[key] = (g if node is trie else mul(product, g), {})
            product, node = node[key]
        return product

    return value(tree)


class Presentation(Record):
    __slots__ = _fields = ("generators", "relators")

    def __init__(self, generators: tuple[str, ...], relators: tuple[Word, ...]) -> None:
        self._set(generators, relators)
        check_generators(relators, generators)


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
