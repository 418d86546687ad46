"""Formal calculus of the motive blocks: tensor normal forms, the affine
quadric decomposition, torsor motives, and dimension-table evaluation.

A formal motive is a finite direct sum of atoms.  An atom is one of

    T          the unit (stored as the 0th power of the invertible block)
    N^k        k-th power of the invertible block, any integer k
    Ma         the quadratic-extension motive
    Mt         the one-diagonal cone block
    Xa         the idempotent Cech block
    Xt         its reduced companion

carrying a Tate twist/shift suffix (i)[j].  Tensor products rewrite by:

    N^a * N^b -> N^(a+b)        Ma * N^k -> Ma         Ma * Xa -> Ma
    N^k * Xa  -> Xa             Xa * Xa  -> Xa         Mt * N^k -> Mt[k]

with twists and shifts adding.  Pairs outside this table have no
decomposition here and raise UnsupportedTensor.  Non-split torsor motives
stay symbolic cone products.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .bigraded import PoincareTable, cell_images, standard_monomials
from .errors import SubtleError, UnsupportedAtom, UnsupportedTensor
from .gf2 import RowSpace
from .milnor import FieldModel
from .rings import block_presentation, block_table

BASES = ("N", "Ma", "Mt", "Xa", "Xt")
# bases whose table is a block's table
_ATOM_BLOCKS = {"Mt": "Mtilde", "Xa": "Xalpha", "Xt": "Xtilde"}
_BASE_RANK = {b: i for i, b in enumerate(BASES)}


@dataclass(frozen=True, order=True)
class Atom:
    base: str
    power: int = 0  # used by N only
    twist: int = 0
    shift: int = 0

    def __str__(self) -> str:
        if self.base == "N":
            head = "T" if self.power == 0 else f"N^{self.power}"
        else:
            head = self.base
        if self.twist or self.shift:
            head += f"({self.twist})[{self.shift}]"
        return head

    def sort_key(self):
        return (_BASE_RANK[self.base], self.power, self.twist, self.shift)


T_ATOM = Atom("N", 0)


@dataclass(frozen=True)
class FormalMotive:
    atoms: tuple[Atom, ...]

    @staticmethod
    def of(*atoms: Atom) -> "FormalMotive":
        return FormalMotive(tuple(sorted(atoms, key=Atom.sort_key)))

    def __add__(self, other: "FormalMotive") -> "FormalMotive":
        return FormalMotive.of(*(self.atoms + other.atoms))

    def __str__(self) -> str:
        if not self.atoms:
            return "0"
        return " + ".join(str(a) for a in self.atoms)


def atom_tensor(a: Atom, b: Atom) -> Atom:
    """Product of two atoms under the rewrite table; twists/shifts add."""
    twist = a.twist + b.twist
    shift = a.shift + b.shift
    x, y = sorted((a, b), key=lambda t: _BASE_RANK[t.base])
    if x.base == "N" and y.base == "N":
        return Atom("N", x.power + y.power, twist, shift)
    if x.base == "N" and y.base == "Ma":
        return Atom("Ma", 0, twist, shift)
    if x.base == "N" and y.base == "Mt":
        return Atom("Mt", 0, twist, shift + x.power)
    if x.base == "N" and y.base == "Xa":
        return Atom("Xa", 0, twist, shift)
    if x.base == "Ma" and y.base == "Xa":
        return Atom("Ma", 0, twist, shift)
    if x.base == "Xa" and y.base == "Xa":
        return Atom("Xa", 0, twist, shift)
    raise UnsupportedTensor(
        f"no decomposition rule for {x.base} * {y.base}"
    )


def motive_tensor(a: FormalMotive, b: FormalMotive) -> FormalMotive:
    """Distribute over direct sums, then rewrite each atom pair."""
    out = []
    for x in a.atoms:
        for y in b.atoms:
            out.append(atom_tensor(x, y))
    return FormalMotive.of(*out)


def affine_quadric_motive(n: int) -> FormalMotive:
    """Two-atom decomposition of the rank-n affine quadric block: the unit
    plus, by parity, a twisted unit or a twisted invertible block."""
    if n <= 0:
        raise SubtleError("affine quadric motive needs n >= 1")
    if n % 2 == 1:
        return FormalMotive.of(T_ATOM, Atom("N", 1, n, 2 * n - 1))
    return FormalMotive.of(T_ATOM, Atom("N", 0, n, 2 * n - 1))


@dataclass(frozen=True)
class ConeFactor:
    kind: str  # "c" or "ct"
    index: int

    def __str__(self) -> str:
        if self.kind == "c":
            return (
                f"Cone[-1](Xh ->[c{self.index}] "
                f"Xh({self.index})[{2 * self.index}])"
            )
        return (
            f"Cone[-1](Xh ->[ct{self.index}] "
            f"N^1 * Xh({self.index})[{2 * self.index}])"
        )


@dataclass(frozen=True)
class ConeProduct:
    """Unexpanded torsor motive: the class maps are data we cannot evaluate."""

    factors: tuple[ConeFactor, ...]

    def __str__(self) -> str:
        if not self.factors:
            return "T"
        return " * ".join(str(f) for f in self.factors)


def torsor_motive(n: int, split: bool):
    """Motive of the rank-n torsor as a product of cones over the classes.

    split=False keeps the symbolic cone product; split=True sets every class
    map to zero, so each cone splits into two atoms and the product expands
    to a 2^n-atom normal form.
    """
    if n < 0:
        raise SubtleError("torsor motive needs n >= 0")
    factors = tuple(
        ConeFactor("c" if i % 2 == 0 else "ct", i) for i in range(1, n + 1)
    )
    if not split:
        return ConeProduct(factors)
    result = FormalMotive.of(T_ATOM)
    for f in factors:
        if f.kind == "c":
            cone = FormalMotive.of(T_ATOM, Atom("N", 0, f.index, 2 * f.index - 1))
        else:
            cone = FormalMotive.of(T_ATOM, Atom("N", 1, f.index, 2 * f.index - 1))
        result = motive_tensor(result, cone)
    return result


# ----- cohomology tables --------------------------------------------------------


def malpha_table(model: FieldModel, wmax: int, dmax: int) -> PoincareTable:
    """Dimension table of the quadratic-extension block.

    Long-exact-sequence bookkeeping over the triangle linking it to the unit
    and the invertible block: the connecting map is multiplication by the
    unique nonzero class mu_1, whose per-cell ranks are computable, so every
    cell is determined.
    """
    h = block_table(model, "H", wmax, dmax + 1)
    n1 = block_table(model, "Npow:1", wmax, dmax + 1)
    # the presentations those tables read, for the products by mu_1
    h_pres = block_presentation(model, "H", wmax + dmax + 1)
    n1_pres = block_presentation(model, "Npow:1", wmax + dmax + 1)
    # H's generators are Npow:1's without the last one, mu1, so an H monomial
    # times mu1 is that monomial with a trailing exponent 1
    assert n1_pres.names == h_pres.names + ("mu1",)

    def times_mu1(m):
        return n1_pres.reduce_poly([m + (1,)])

    counts = []
    for w in range(wmax + 1):
        # rank[d + 1] is the rank of mu_1 on the (w)[d] cell; rank[0] stands for d = -1
        rank = [0]
        for d in range(dmax + 1):
            domain = standard_monomials(h_pres, w, d)
            target = standard_monomials(n1_pres, w, d + 1)
            rank.append(RowSpace(cell_images(domain, target, times_mu1)[1]).rank)
        counts.append(tuple(
            h.entry(w, d) + n1.entry(w, d) - rank[d + 1] - rank[d]
            for d in range(dmax + 1)
        ))
    return PoincareTable(wmax, dmax, tuple(counts))


def atom_table(model: FieldModel, atom: Atom, wmax: int, dmax: int) -> PoincareTable:
    if atom.base == "N":
        if atom.power >= 0:
            base = block_table(model, f"Npow:{atom.power}", wmax, dmax)
        elif atom.power == -1:
            base = block_table(model, "nbar", wmax, dmax)
        else:
            raise UnsupportedAtom(
                f"no dimension table for N^{atom.power} (only powers >= -1)"
            )
    elif atom.base == "Ma":
        base = malpha_table(model, wmax, dmax)
    elif atom.base in _ATOM_BLOCKS:
        base = block_table(model, _ATOM_BLOCKS[atom.base], wmax, dmax)
    else:
        raise UnsupportedAtom(f"unknown atom base {atom.base!r}")
    return base.shift(atom.twist, atom.shift)


def motive_cohomology(
    model: FieldModel, motive: FormalMotive, wmax: int, dmax: int
) -> PoincareTable:
    """Sum of shifted block tables, additive over the direct sum."""
    if isinstance(motive, ConeProduct):
        raise UnsupportedAtom(
            "non-split torsor motives are symbolic; expand a split one instead"
        )
    zero = tuple(tuple(0 for _ in range(dmax + 1)) for _ in range(wmax + 1))
    total = PoincareTable(wmax, dmax, zero)
    for atom in motive.atoms:
        total = total + atom_table(model, atom, wmax, dmax)
    return total


# ----- expression grammar -------------------------------------------------------

_MOTIVE_TOKEN = re.compile(r"\s*(N\^-?\d+|[A-Za-z]+|-?\d+|[+*()\[\]])")


class MotiveParseError(SubtleError):
    pass


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _MOTIVE_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise MotiveParseError(f"bad character {text[pos]!r} in motive expression")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _MParser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise MotiveParseError("unexpected end of motive expression")
        self.pos += 1
        return tok

    def parse_sum(self) -> FormalMotive:
        out = self.parse_product()
        while self.peek() == "+":
            self.take()
            out = out + self.parse_product()
        return out

    def parse_product(self) -> FormalMotive:
        out = self.parse_atom()
        while self.peek() == "*":
            self.take()
            out = motive_tensor(out, self.parse_atom())
        return out

    def parse_atom(self) -> FormalMotive:
        tok = self.take()
        if tok == "(":
            inner = self.parse_sum()
            if self.take() != ")":
                raise MotiveParseError("missing closing parenthesis")
            return inner
        if tok == "T":
            atom = Atom("N", 0)
        elif tok.startswith("N^"):
            atom = Atom("N", int(tok[2:]))
        elif tok == "N":
            atom = Atom("N", 1)
        elif tok in ("Ma", "Mt", "Xa", "Xt"):
            atom = Atom(tok)
        else:
            raise MotiveParseError(f"unknown atom {tok!r}")
        twist, shift = self.parse_suffix()
        if twist or shift:
            atom = Atom(atom.base, atom.power, twist, shift)
        return FormalMotive.of(atom)

    def parse_suffix(self) -> tuple[int, int]:
        if self.peek() != "(":
            return 0, 0
        self.take()
        twist = self.parse_int()
        if self.take() != ")":
            raise MotiveParseError("twist suffix: missing ')'")
        if self.take() != "[":
            raise MotiveParseError("twist suffix: missing '['")
        shift = self.parse_int()
        if self.take() != "]":
            raise MotiveParseError("twist suffix: missing ']'")
        return twist, shift

    def parse_int(self) -> int:
        tok = self.take()
        try:
            return int(tok)
        except ValueError as exc:
            raise MotiveParseError(f"expected integer, got {tok!r}") from exc


def parse_motive(text: str) -> FormalMotive:
    parser = _MParser(_tokenize(text))
    out = parser.parse_sum()
    if parser.peek() is not None:
        raise MotiveParseError(f"trailing input at token {parser.peek()!r}")
    return out
