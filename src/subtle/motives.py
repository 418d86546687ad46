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

from .bigraded import PoincareTable
from .errors import SubtleError, UnsupportedAtom, UnsupportedTensor
from .milnor import FieldModel
from .parse import ParseError, Parser, naming
from .rings import block_table

BASES = ("N", "Ma", "Mt", "Xa", "Xt")
# bases whose table is a block's table
_ATOM_BLOCKS = {"Mt": "Mtilde", "Xa": "Xalpha", "Xt": "Xtilde"}
_BASE_RANK = {b: i for i, b in enumerate(BASES)}


@dataclass(frozen=True, order=True, slots=True)
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
    # the lower-ranked base first; equal ranks keep the argument order
    x, y = (b, a) if _BASE_RANK[b.base] < _BASE_RANK[a.base] else (a, b)
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
    unique nonzero class mu_1, so (w)[d] reads H(w)[d] + Npow:1(w)[d] less
    r(w, d) and r(w, d - 1), r(w, d) the rank of mu_1 from H(w)[d] to
    Npow:1(w)[d+1].  That rank reads off Mtilde:

    * times mu_1 sends tau^k*m, m of Milnor degree d, to tau^(k-1)*alpha*m
      when k >= 1 and to m*mu_1 when k = 0;
    * both vanish exactly when m lies in Ann(alpha);
    * so r(w, d) = Mtilde(d)[d+1] for 0 <= d <= w, and 0 otherwise.
    """
    h = block_table(model, "H", wmax, dmax)
    n1 = block_table(model, "Npow:1", wmax, dmax)
    k = min(wmax, dmax)
    mt = block_table(model, "Mtilde", k, k + 1)

    def rank(w, d):
        return mt.entry(d, d + 1) if d <= w else 0

    counts = tuple(
        tuple(
            h.entry(w, d) + n1.entry(w, d) - rank(w, d) - rank(w, d - 1)
            for d in range(dmax + 1)
        )
        for w in range(wmax + 1)
    )
    return PoincareTable(wmax, dmax, counts)


def atom_table(model: FieldModel, atom: Atom, wmax: int, dmax: int) -> PoincareTable:
    if atom.base == "N":
        if atom.power >= 0:
            # a cell of degree d <= dmax holds no mu_i with i > dmax, and every
            # relation involving such a mu_i has degree >= i, so Npow:k reads
            # as Npow:dmax on the box: no k-generator module is built
            base = block_table(model, f"Npow:{min(atom.power, dmax)}", wmax, dmax)
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


class MotiveParseError(ParseError):
    pass


class _MotiveParser(Parser):
    TOKEN = re.compile(r"\s*(N\^-?[0-9]+|[A-Za-z]+|-?[0-9]+|[+*()\[\]])")
    error = MotiveParseError
    what = "motive expression"

    def add(self, a: FormalMotive, b: FormalMotive) -> FormalMotive:
        return a + b

    # a method, not ``staticmethod(motive_tensor)``: the name is looked up at
    # each call, so a wrapper bound to it in this module sees every product
    def mul(self, a: FormalMotive, b: FormalMotive) -> FormalMotive:
        return motive_tensor(a, b)

    def parse_factor(self) -> FormalMotive:
        tok = self.take()
        if tok == "(":
            return self.parse_group()
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
        if self.peek() == "(":
            self.take()
            twist = self.parse_int()
            self.expect(")", "twist suffix: missing ')'")
            self.expect("[", "twist suffix: missing '['")
            shift = self.parse_int()
            self.expect("]", "twist suffix: missing ']'")
            atom = Atom(atom.base, atom.power, twist, shift)
        return FormalMotive.of(atom)

    def parse_int(self) -> int:
        tok = self.take()
        try:
            return int(tok)
        except ValueError:
            raise MotiveParseError(f"expected integer, got {tok!r}") from None


def parse_motive(text: str) -> FormalMotive:
    """The motive of an expression; a parse error names the expression."""
    with naming("bad motive expression", text):
        return _MotiveParser.parse(text)
