"""Sq1 as a derivation of bidegree (0)[1] on presented algebras.

Generator values default to the standard table: Milnor symbols die, tau goes
to the model's designated {-1} class, mu goes to mu^2, and the subtle classes
follow Sq1(u_{2i}) = u_{2i+1} + u_1*u_{2i} and Sq1(u_{2i+1}) = u_1*u_{2i+1},
reading the odd-index class as the v generator when that is the one present.
Generators without a default (v, c, d, module mu_i) stay unknown; sq1_check
solves the descent constraints for them per graded piece and reports the
solution space instead of inventing a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .bigraded import (
    MILNOR,
    MODULE_GEN,
    TAU,
    AlgebraPresentation,
    Bidegree,
    Element,
    cell_images,
    standard_monomials,
)
from .errors import (
    BidegreeMismatch,
    ExceedsBound,
    MissingRhoDesignation,
    UnknownDerivationValue,
    UnknownGenerator,
)
from .gf2 import solve
from .milnor import FieldModel
from .parse import ELEMENT_STRINGS, load_descriptor
from .rings import block_presentation

SQ1_SHIFT = Bidegree(0, 1)


@dataclass(frozen=True, eq=False)
class Derivation:
    """Sq1 fixed by its known generator values; ``values`` is read-only, so
    it cannot drift from ``unknown``."""

    pres: AlgebraPresentation
    values: Mapping[str, Element]
    unknown: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))

    def value(self, name: str) -> Element:
        if name in self.unknown:
            raise UnknownDerivationValue(
                f"Sq1({name}) has no assigned value; run sq1_check to solve"
            )
        return self.values[name]

    def with_values(self, extra: dict[str, Element]) -> "Derivation":
        vals = dict(self.values)
        vals.update(extra)
        missing = tuple(u for u in self.unknown if u not in extra)
        return Derivation(self.pres, vals, missing)


def _default_value(pres: AlgebraPresentation, gen, model) -> Element | None:
    name = gen.name
    if gen.origin == MILNOR:
        return pres.zero()
    if gen.origin == TAU:
        if model is None or model.minus_one_string is None:
            raise MissingRhoDesignation(
                "model does not name a {-1} class; Sq1 on tau is undefined"
            )
        return pres.el(model.minus_one_string)
    if gen.origin == MODULE_GEN:
        return None
    if name == "mu":
        return pres.gen("mu") * pres.gen("mu")
    if name.startswith("u") and name[1:].isdigit():
        i = int(name[1:])
        u1 = pres.gen("u1")
        if i % 2 == 1:
            return u1 * pres.gen(name)
        succ = pres.zero()
        if f"u{i + 1}" in pres.index:
            succ = pres.gen(f"u{i + 1}")
        elif f"v{i + 1}" in pres.index:
            succ = pres.gen(f"v{i + 1}")
        return succ + u1 * pres.gen(name)
    return None


def sq1_define(pres: AlgebraPresentation, values: dict | None = None) -> Derivation:
    """Derivation with default values, optionally overridden per generator.

    Generators with neither default nor override are recorded as unknown; an
    override for a name that is no generator raises UnknownGenerator.
    """
    resolved: dict[str, Element] = {}
    unknown: list[str] = []
    overrides = values or {}
    for name in overrides:
        if name not in pres.index:
            raise UnknownGenerator(f"presentation has no generator {name!r}")
    for gen in pres.gens:
        if gen.name in overrides:
            val = pres.el(overrides[gen.name])
        else:
            val = _default_value(pres, gen, pres.model)
        if val is None:
            unknown.append(gen.name)
            continue
        if not val.is_zero() and val.bidegree() != gen.bidegree + SQ1_SHIFT:
            raise BidegreeMismatch(
                f"Sq1({gen.name}) must sit in {gen.bidegree + SQ1_SHIFT}, "
                f"got {val.bidegree()}"
            )
        resolved[gen.name] = val
    return Derivation(pres, resolved, tuple(unknown))


def load_derivation_descriptor(path: str, pres: AlgebraPresentation) -> Derivation:
    """Derivation from a JSON descriptor {"values": {gen: element-string}};
    generators absent from the file keep their defaults (or stay unknown),
    and a key that names no generator exits 2."""
    desc = load_descriptor(path, "derivation descriptor", {"values": ELEMENT_STRINGS})
    try:
        return sq1_define(pres, desc.get("values"))
    except UnknownGenerator as exc:
        raise UnknownGenerator(f"derivation descriptor values: {exc}") from None


def _leibniz(pres: AlgebraPresentation, poly, value) -> set:
    """The Leibniz expansion of Sq1 on a polynomial, before normal form.

    Each odd exponent of x_i in a monomial contributes rest * value(x_i), with
    rest the monomial with that exponent lowered by one; ``value`` maps a
    generator name to its Sq1 value, or to None for 0.
    """
    acc: set = set()
    for mono in poly:
        for idx, e in enumerate(mono):
            if e % 2 == 0:
                continue
            val = value(pres.names[idx])
            if val is None or val.is_zero():
                continue
            rest = list(mono)
            rest[idx] -= 1
            partial = Element(pres, frozenset([tuple(rest)]))
            acc ^= partial.product_monomials(val)
    return acc


def sq1_apply(der: Derivation, el: Element) -> Element:
    """Leibniz expansion followed by one normal form.

    The unreduced products rest * Sq1(x_i) are summed first and reduced once:
    full reduction is GF(2)-linear, so this is the sum of their normal forms.
    """
    pres = der.pres
    if el.pres is not pres:
        raise UnknownDerivationValue("element belongs to another presentation")
    b = el.bidegree()
    if b is not None and b.total + 1 > pres.truncation_bound:
        raise ExceedsBound("Sq1 image exceeds the truncation bound")
    return pres.element_from_monomials(_leibniz(pres, el.monomials, der.value))


def leibniz_offender(
    der: Derivation, wmax: int, dmax: int
) -> tuple[Element, Element] | None:
    """The first generator product x * c on which Leibniz fails, or None.

    On a ring presentation, checks Sq1(x*c) = Sq1(x)*c + x*Sq1(c) for every
    generator x whose bidegree lies in the box (wmax, dmax) and every standard
    monomial c with

        bidegree(x) + bidegree(c) <= (2*wmax, 2*dmax)  (componentwise), and
        total(x) + total(c) + 1 <= truncation bound.

    One w-major pass over the cells of c, each with the generators whose
    region covers it, computes Sq1(x) and Sq1(c) once each.  None certifies Leibniz
    Sq1(a*b) = Sq1(a)*b + a*Sq1(b) for all standard monomials a, b of the box
    with total(a) + total(b) + 1 <= bound, by induction on the degree of a.
    Degree 0 is a = 1, where Sq1(1) = 0.  Otherwise write a = x*a' for a
    generator x dividing a:

    - a' is standard, because standard monomials form an order ideal, and
      bidegree(x) <= bidegree(a') + bidegree(x) = bidegree(a), so x and a'
      lie in the box;
    - normal-form multiplication is associative below the bound, so
      a*b = x * nf(a'*b), and nf(a'*b) is a sum of standard monomials c of
      bidegree bidegree(a) - bidegree(x) + bidegree(b); these lie in the
      doubled box above, not in general in the box itself;
    - sq1_apply and multiplication are GF(2)-linear, so the pairs (x, c) give
      Sq1(a*b) = Sq1(x)*a'*b + x*Sq1(a'*b);
    - by induction on a', Sq1(a'*b) = Sq1(a')*b + a'*Sq1(b), and the pair
      (x, a') gives Sq1(a) = Sq1(x)*a' + x*Sq1(a'); substituting both gives
      Sq1(a*b) = Sq1(a)*b + a*Sq1(b).
    """
    pres = der.pres
    bound = pres.truncation_bound
    xs = []  # per generator x in the box: the w, d and total limits of c, x, Sq1(x)
    for gen in pres.gens:
        gb = gen.bidegree
        if gb.w <= wmax and gb.d <= dmax and gb.total + 1 <= bound:
            x = pres.gen(gen.name)
            limits = (2 * wmax - gb.w, 2 * dmax - gb.d, bound - 1 - gb.total)
            xs.append((limits, x, sq1_apply(der, x)))
    states: dict = {}
    for w in range(2 * wmax + 1):
        for d in range(2 * dmax + 1):
            pairs = [(x, sx) for (mw, md, mt), x, sx in xs if w <= mw and d <= md and w + d <= mt]
            if not pairs:
                continue
            for m in standard_monomials(pres, w, d, states):
                c = Element(pres, frozenset([m]))
                sc = sq1_apply(der, c)
                for x, sx in pairs:
                    if sq1_apply(der, x * c) != sx * c + x * sc:
                        return x, c
    return None


@dataclass(frozen=True)
class SqReport:
    label: str
    wmax: int
    dmax: int
    descends: bool
    offending_relation: str | None
    square_zero: bool
    square_zero_offender: str | None
    unknowns: tuple[tuple[str, int | None, str | None], ...]  # name, dim, value

    @property
    def ok(self) -> bool:
        return self.descends and self.square_zero

    def to_json_obj(self) -> dict:
        return {
            "descends": self.descends,
            "square_zero": self.square_zero,
            "box": [self.wmax, self.dmax],
            "offending_relation": self.offending_relation,
            "square_zero_offender": self.square_zero_offender,
            "unknowns": [
                {"generator": n, "solution_dim": dim, "value": val}
                for n, dim, val in self.unknowns
            ],
        }

    def render_text(self) -> str:
        lines = [f"Sq1 check {self.label} on box ({self.wmax},{self.dmax})"]
        for name, dim, val in self.unknowns:
            if dim is None:
                lines.append(f"  Sq1({name}): no admissible value")
            else:
                lines.append(
                    f"  Sq1({name}) = {val}  (solution space dimension {dim})"
                )
        lines.append(f"descends to quotient: {self.descends}")
        if self.offending_relation:
            lines.append(f"offending relation: {self.offending_relation}")
        lines.append(f"Sq1 o Sq1 = 0 on box: {self.square_zero}")
        if self.square_zero_offender:
            lines.append(f"square-zero offender: {self.square_zero_offender}")
        return "\n".join(lines)


def sq1_solve(der: Derivation) -> tuple[Derivation, tuple[tuple[str, int | None, str | None], ...]]:
    """Solve the descent constraints for unknown generator values.

    Asks nf(Sq1(r)) = 0 for every relation r, as one GF(2) linear system over
    the coordinates of all unknown values.  Sq1 is linear in the generator
    values: the known values give the target, and each unknown's basis
    monomial, taken alone as its value, gives one column.  Returns the solved
    derivation plus (name, solution dim, value) rows.
    """
    pres = der.pres
    if not der.unknown:
        return der, ()

    var_basis: dict[str, list] = {}
    values = [der.values.get]  # generator values of the target, then of each column
    for name in der.unknown:
        gen = pres.gens[pres.index[name]]
        cell = gen.bidegree + SQ1_SHIFT
        # a ring generator's value is a ring element: a module monomial as its
        # value would meet the module factor of a relation's monomial
        var_basis[name] = [
            b for b in standard_monomials(pres, cell.w, cell.d)
            if gen.origin == MODULE_GEN or pres.module_count(b) == 0
        ]
        for b in var_basis[name]:
            values.append({name: Element(pres, frozenset([b]))}.get)

    bits = [0] * len(values)
    row_offset = 0
    for rel in pres.relations:
        rb = pres.poly_bidegree(rel)
        if rb is None:
            continue
        dim, columns = cell_images(
            values, standard_monomials(pres, rb.w, rb.d + 1),
            lambda value: pres.reduce_poly(_leibniz(pres, rel, value)),
        )
        for i, column in enumerate(columns):
            bits[i] |= column << row_offset
        row_offset += dim

    particular, kernel = solve(bits[1:], bits[0])
    if particular is None:
        return der, tuple((name, None, None) for name in der.unknown)

    solved: dict[str, Element] = {}
    for name in der.unknown:
        basis = var_basis[name]
        solved[name] = pres.element_from_monomials(
            b for i, b in enumerate(basis) if particular >> i & 1
        )
        particular >>= len(basis)
    # per-generator slice of the global solution space dimension
    rows = tuple((name, len(kernel), str(solved[name])) for name in der.unknown)
    return der.with_values(solved), rows


def sq1_presentation(
    model: FieldModel, block: str, wmax: int, dmax: int
) -> AlgebraPresentation:
    """The block built with a bound that fits ``sq1_check`` on the box.

    The check applies Sq1 twice to every generator as well as to the box's
    monomials, and once to every relation, so the bound is max(wmax + dmax,
    largest generator total, largest relation total - 1) + 2.
    """
    pres = block_presentation(model, block, wmax + dmax + 2)
    top = max((g.bidegree.total for g in pres.gens), default=0)
    for rel in pres.relations:
        rb = pres.poly_bidegree(rel)
        if rb is not None:
            top = max(top, rb.total - 1)
    need = max(wmax + dmax, top) + 2
    if need > pres.truncation_bound:
        pres = block_presentation(model, block, need)
    return pres


def sq1_check(der: Derivation, wmax: int, dmax: int) -> tuple[SqReport, Derivation]:
    """Solve unknowns, then verify descent and square-zero on the box.

    Square-zero is certified from generators: a report with ``square_zero``
    true certifies Sq1(Sq1(m)) = 0 for every standard monomial m with
    total(m) + 2 <= bound, the whole box among them.  Once Sq1 descends (it
    sends every relation to 0) it is a derivation of the quotient below the
    bound, and in characteristic 2 so is its square:

        D(D(ab)) = D(D(a)*b + a*D(b))
                 = D(D(a))*b + D(a)*D(b) + D(a)*D(b) + a*D(D(b))
                 = D(D(a))*b + a*D(D(b)).

    So D(D(x)) = 0 for every generator x with total(x) + 2 <= bound gives
    D(D(m)) = 0 on every monomial m = x*m' with total(m) + 2 <= bound, by
    induction on the degree of m: every generator dividing m is such an x.
    """
    pres = der.pres
    if wmax + dmax + 2 > pres.truncation_bound:
        raise ExceedsBound("Sq1 check box needs bound >= wmax + dmax + 2")
    solved, unknown_rows = sq1_solve(der)
    label = pres.block_id or "presentation"

    descends = True
    offender = None
    if solved.unknown:
        descends = False
        offender = "unsolvable constraints for " + ", ".join(solved.unknown)
    else:
        for rel in pres.relations:
            img = sq1_apply(solved, Element(pres, rel))
            if not img.is_zero():
                descends = False
                offender = str(Element(pres, rel))
                break

    square = descends
    sq_offender = None
    if descends:
        for gen in pres.gens:
            if gen.bidegree.total + 2 > pres.truncation_bound:
                continue
            out = sq1_apply(solved, sq1_apply(solved, pres.gen(gen.name)))
            if not out.is_zero():
                square = False
                sq_offender = gen.name
                break

    report = SqReport(
        label, wmax, dmax, descends, offender, square, sq_offender, unknown_rows
    )
    return report, solved
