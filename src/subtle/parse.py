"""The one boundary where user input enters the package.

``load_descriptor`` and ``check_descriptor`` read and check every JSON
object a user supplies (config, model, map and derivation files, and model
dicts), and ``Parser`` is the one recursive-descent scaffold under both
expression grammars: elements here and motives in ``motives``.

``parse_id`` reads block and map ids such as ``NpowBU:1:2`` and ``comp:3``, and
``parse_int`` the integers in them and in the ``--box`` and ``--seed`` flags.
``naming`` puts the field or expression an error is about in its message.

The element grammar: `+` for sums, `*` for products, `^` for powers,
parentheses, integer literals in ASCII digits (taken mod 2) and generator
names like `tau`, `rho`, `u3`, `c1`.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from operator import xor

from .errors import ExceedsBound, SubtleError, UnknownGenerator

# A parsed polynomial: set of monomials, each a sorted tuple of
# (name, exponent) pairs.  The empty tuple is the monomial 1.
RawMonomial = tuple[tuple[str, int], ...]
RawPoly = frozenset

# field tests shared by the descriptor kinds: (test, description)
STRING = (lambda v: isinstance(v, str), "a string")
STRINGS = (
    lambda v: isinstance(v, (list, tuple)) and all(isinstance(x, str) for x in v),
    "a list of strings",
)
ELEMENT_STRINGS = (
    lambda v: isinstance(v, dict) and all(isinstance(x, str) for x in v.values()),
    "an object mapping generators to element strings",
)


class ParseError(SubtleError):
    pass


@contextmanager
def naming(what: str, text=None):
    """Raise a ParseError, UnknownGenerator or ExceedsBound from the block
    again, of its own class, its message after ``what`` and, when it is a
    string, ``text``: so it says which field, image or expression it is about."""
    try:
        yield
    except (ParseError, UnknownGenerator, ExceedsBound) as exc:
        where = f"{what} {text!r}" if isinstance(text, str) else what
        raise type(exc)(f"{where}: {exc}") from None


def check_descriptor(value, what: str, fields: dict, required: tuple = ()) -> dict:
    """The entries of a descriptor object, checked against ``fields``.

    ``fields`` maps each known key to ``(test, description)``.  SubtleError,
    naming ``what`` and the key, when ``value`` is no object, holds an
    unknown key, a value failing its test or misses a ``required`` key.  A
    null value means the key is absent; the result leaves it out.
    """
    if not isinstance(value, dict):
        raise SubtleError(f"{what} must hold a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(fields), key=str)
    if unknown:
        raise SubtleError(f"{what}: unknown key {unknown[0]!r}; known: {', '.join(fields)}")
    present = {key: v for key, v in value.items() if v is not None}
    for key, v in present.items():
        test, description = fields[key]
        if not test(v):
            raise SubtleError(f"{what}: {key} must be {description}, got {v!r}")
    for key in required:
        if key not in present:
            raise SubtleError(f"{what}: {key} is required")
    return present


def parse_int(text: str, what: str, signed: bool = False, error=ParseError) -> int:
    """``text`` as an integer: ASCII digits, after one optional sign when
    ``signed``; otherwise ``error``, naming ``what`` and the text."""
    if not re.fullmatch("[+-]?[0-9]+" if signed else "[0-9]+", text):
        sign = "an optional" if signed else "no"
        raise error(f"bad {what}: {text!r} is not an integer (ASCII digits, {sign} sign)")
    return int(text)


def parse_id(text: str, what: str, error=ParseError) -> tuple[str, tuple[int, ...]]:
    """An id's name and parameters: an ASCII name, then ``:`` and ASCII digits
    per parameter; otherwise ``error``, naming ``what``, the id and its bad part."""
    name, *params = text.split(":")
    if not re.fullmatch("[A-Za-z][A-Za-z0-9]*", name):
        raise error(f"bad {what} {text!r}: {name!r} is not an ASCII name")
    return name, tuple(parse_int(p, f"{what} {text!r}", error=error) for p in params)


def load_descriptor(path, what: str, fields: dict, required: tuple = ()) -> dict:
    """The checked JSON object of a descriptor or config file."""
    with open(path, "r", encoding="utf-8") as fh:
        value = json.load(fh)
    return check_descriptor(value, f"{what} {path}", fields, required)


class Parser:
    """Recursive descent over a sum of products of factors.

    A grammar subclasses it with its token regex ``TOKEN`` (whitespace, then
    one group per token), its error class, the name of what it reads, and
    ``parse_factor``, ``add`` and ``mul``.  ``parse`` reads a whole string.
    """

    TOKEN: re.Pattern
    error = ParseError
    what = "expression"

    def __init__(self, text: str):
        self.tokens: list[str] = []
        self.pos = 0
        pos = 0
        while pos < len(text):
            m = self.TOKEN.match(text, pos)
            if not m:
                rest = text[pos:].lstrip()
                if not rest:
                    break
                raise self.error(
                    f"unexpected character {rest[0]!r} at position "
                    f"{len(text) - len(rest)} in {self.what}"
                )
            self.tokens.append(m.group(1))
            pos = m.end()

    @classmethod
    def parse(cls, text: str):
        parser = cls(text)
        value = parser.parse_sum()
        if parser.peek() is not None:
            raise cls.error(f"trailing input at token {parser.peek()!r}")
        return value

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise self.error(f"unexpected end of {self.what}")
        self.pos += 1
        return tok

    def expect(self, tok: str, message: str) -> None:
        if self.take() != tok:
            raise self.error(message)

    def parse_sum(self):
        value = self.parse_product()
        while self.peek() == "+":
            self.take()
            value = self.add(value, self.parse_product())
        return value

    def parse_product(self):
        value = self.parse_factor()
        while self.peek() == "*":
            self.take()
            value = self.mul(value, self.parse_factor())
        return value

    def parse_group(self):
        """The sum inside parentheses, after the opening one."""
        value = self.parse_sum()
        self.expect(")", "missing closing parenthesis")
        return value


def _mul(a: RawPoly, b: RawPoly) -> RawPoly:
    acc: set[RawMonomial] = set()
    for ma in a:
        for mb in b:
            exps: dict[str, int] = dict(ma)
            for name, e in mb:
                exps[name] = exps.get(name, 0) + e
            mono = tuple(sorted(exps.items()))
            if mono in acc:
                acc.remove(mono)
            else:
                acc.add(mono)
    return frozenset(acc)


def _power(poly: RawPoly, n: int) -> RawPoly:
    """poly^n by repeated squaring, so the cost grows with log n (a square
    over GF(2) has no more terms than its base)."""
    result: RawPoly = frozenset([()])
    while n:
        if n & 1:
            result = _mul(result, poly)
        n >>= 1
        if n:
            poly = _mul(poly, poly)
    return result


class _PolyParser(Parser):
    TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[0-9]+|[+*^()])")

    add = staticmethod(xor)
    mul = staticmethod(_mul)

    def parse_factor(self) -> RawPoly:
        poly = self.parse_atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ParseError(f"expected integer exponent, got {tok!r}")
            poly = _power(poly, int(tok))
        return poly

    def parse_atom(self) -> RawPoly:
        tok = self.take()
        if tok == "(":
            return self.parse_group()
        if tok.isdigit():
            return frozenset([()]) if int(tok) % 2 else frozenset()
        if tok.isidentifier():
            return frozenset([((tok, 1),)])
        raise ParseError(f"unexpected token {tok!r}")


def parse_poly(text: str) -> RawPoly:
    """Parse an element string into a set of name-exponent monomials."""
    return _PolyParser.parse(text)
