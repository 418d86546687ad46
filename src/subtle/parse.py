"""Parser for polynomial element strings over GF(2).

Syntax: `+` for sums, `*` for products, `^` for powers, parentheses, integer
literals (taken mod 2) and generator names like `tau`, `rho`, `u3`, `c1`.
This is the element grammar used by model descriptor files, map descriptor
files and the CLI.
"""

from __future__ import annotations

import json
import re

from .errors import SubtleError

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|[+*^()])")

# A parsed polynomial: set of monomials, each a sorted tuple of
# (name, exponent) pairs.  The empty tuple is the monomial 1.
RawMonomial = tuple[tuple[str, int], ...]
RawPoly = frozenset


class ParseError(SubtleError):
    pass


def load_descriptor(path, what: str) -> dict:
    """The JSON object in a descriptor or config file; SubtleError, naming
    ``what``, when the file holds any other JSON value."""
    with open(path, "r", encoding="utf-8") as fh:
        value = json.load(fh)
    if not isinstance(value, dict):
        raise SubtleError(f"{what} {path} must hold a JSON object")
    return value


def element_strings(value, what: str) -> dict:
    """A descriptor's generator -> element-string mapping, checked."""
    if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
        raise SubtleError(f"{what} must map generators to element strings, got {value!r}")
    return value


def tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse_expr(self) -> RawPoly:
        poly = self.parse_term()
        while self.peek() == "+":
            self.take()
            poly = poly ^ self.parse_term()
        return poly

    def parse_term(self) -> RawPoly:
        poly = self.parse_factor()
        while self.peek() == "*":
            self.take()
            poly = _mul(poly, self.parse_factor())
        return poly

    def parse_factor(self) -> RawPoly:
        poly = self.parse_atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ParseError(f"expected integer exponent, got {tok!r}")
            power = int(tok)
            result: RawPoly = frozenset([()])
            for _ in range(power):
                result = _mul(result, poly)
            poly = result
        return poly

    def parse_atom(self) -> RawPoly:
        tok = self.take()
        if tok == "(":
            poly = self.parse_expr()
            if self.take() != ")":
                raise ParseError("missing closing parenthesis")
            return poly
        if tok.isdigit():
            return frozenset([()]) if int(tok) % 2 else frozenset()
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            return frozenset([((tok, 1),)])
        raise ParseError(f"unexpected token {tok!r}")


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


def parse_poly(text: str) -> RawPoly:
    """Parse an element string into a set of name-exponent monomials."""
    parser = _Parser(tokenize(text))
    poly = parser.parse_expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input at token {parser.peek()!r}")
    return poly
