"""Freely reduced words and a small presentation DSL.

Grammar: ``< g1, g2, ... | w1 = w2, w3, ... >``.  Words are juxtaposed
powers ``g^k`` (k defaults to 1) with parentheses, commutator sugar
``[x, y]`` = x y x^-1 y^-1, and ``1`` for the identity.  Whitespace never
matters.  Relations u = v are stored as relators uv^-1.

Equality here is free-group equality; group-level equality lives with the
group element models.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from . import InputError

Syllable = tuple[str, int]


class ParseError(InputError):
    """Syntax error in the DSL; `pos` is the 0-based index into the text."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at index {pos})")
        self.pos = pos


def _reduced(pairs: Iterable[Syllable]) -> tuple[Syllable, ...]:
    stack: list[list] = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple((gen, exp) for gen, exp in stack)


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
        return Word.of(self.syllables + other.syllables)

    def inv(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, k: int) -> "Word":
        if len(self.syllables) == 1:  # one syllable (g, e k), not |k| of them
            g, e = self.syllables[0]
            return Word.gen(g, e * k)
        base = self if k >= 0 else self.inv()
        return Word.of(base.syllables * abs(k))

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


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        known = set(self.generators)
        for r in self.relators:
            stray = r.generators() - known
            if stray:
                raise InputError(
                    f"relator uses unknown generator {sorted(stray)[0]!r}; "
                    f"the generators are {', '.join(self.generators) or 'none'}"
                )


def format_presentation(p: Presentation) -> str:
    gens = ", ".join(p.generators)
    rels = ", ".join(format_word(r) for r in p.relators)
    return f"< {gens} | {rels} >"


# --- tokenizer / parser ---------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?\d+")

_PUNCT = set("<>|,=()[]^")


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

    def atom(self) -> Word:
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
            return inner ** self.maybe_exponent()
        if kind == "[":
            self.next()
            x = self.word()
            self.expect(",", "',' inside commutator")
            y = self.word()
            self.expect("]", "']'")
            return commutator(x, y) ** self.maybe_exponent()
        raise ParseError("expected a word", pos)

    def word(self) -> Word:
        out = self.atom()
        while self.peek()[0] in ("ident", "int", "(", "["):
            out = out * self.atom()
        return out


def parse_word(text: str, generators: Optional[Sequence[str]] = None) -> Word:
    """Parse a standalone word; restrict symbols when generators are given."""
    parser = _Parser(text, set(generators) if generators is not None else None)
    w = parser.word()
    parser.expect("eof", "end of input")
    return w


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
            lhs = parser.word()
            if parser.peek()[0] == "=":
                parser.next()
                rhs = parser.word()
                relators.append(lhs * rhs.inv())
            else:
                relators.append(lhs)
            if parser.peek()[0] != ",":
                break
            parser.next()
    parser.expect(">", "'>' or ','")
    parser.expect("eof", "end of input")
    return Presentation(tuple(gens), tuple(relators))
