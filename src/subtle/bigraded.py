"""Engine for bigraded-commutative finitely presented algebras over GF(2).

Everything is graded by a pair (weight w, cohomological degree d), printed
"(w)[d]".  Coefficients are GF(2), so graded commutativity is plain
commutativity and elements are just sets of monomials; addition is symmetric
difference.

Normal forms come from a degree-truncated Buchberger completion: all
statements are certified only for total degree w + d up to the presentation's
``truncation_bound``.  H-module presentations (``is_module``: some generator
is a ``MODULE_GEN``) share the same machinery with two twists: a monomial may
contain at most one module-generator factor, and relation multipliers are
restricted to module-free monomials, which is exactly Groebner reduction in a
free module over the coefficient ring.

Monomial order: cohomological degree, then weight, then lexicographic with
later generators dominating.  Builders list generators Milnor first, then
tau, then class generators, so e.g. tau*d1 + alpha*c1 is d1-leading.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from operator import add, itemgetter, mul, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import parse as parse_mod
from .errors import (
    BoundTooSmall,
    EmptyGeneratorNameClash,
    ExceedsBound,
    InvalidModuleProduct,
    NegativeBidegree,
    NonHomogeneousRelation,
    RelationLeavesModule,
    SubtleError,
    UnknownGenerator,
    ZeroDivisorOfEverything,
)
from .gf2 import kernel_of_map
from .tables import PoincareTable, table_tensor  # re-exported: callers import them from here

Monomial = tuple[int, ...]
Poly = frozenset  # frozenset[Monomial]

MILNOR = "milnor"
TAU = "tau"
CLASS = "class"
MODULE_GEN = "module_generator"


@dataclass(frozen=True)
class Bidegree:
    w: int
    d: int

    def __add__(self, other: "Bidegree") -> "Bidegree":
        return Bidegree(self.w + other.w, self.d + other.d)

    @property
    def total(self) -> int:
        return self.w + self.d

    def __str__(self) -> str:
        return f"({self.w})[{self.d}]"


@dataclass(frozen=True)
class GenSpec:
    name: str
    bidegree: Bidegree
    origin: str = CLASS

    def __str__(self) -> str:
        return f"{self.name}{self.bidegree}"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class AlgebraPresentation:
    """Finitely presented bigraded algebra (or H-module) with a truncated
    Groebner basis.  Identity-based equality.  Immutable: construction sets
    every field, the ``model`` and ``block_id`` labels included, and any later
    assignment or deletion raises ``FrozenInstanceError``, an
    ``AttributeError``; ``index`` is a read-only mapping.  It is a module
    exactly when a generator is a ``MODULE_GEN``.

    ``relations`` take any form ``raw_to_poly`` reads.  Construction reads
    them and runs ``_check_presentation`` once, generators first, however the
    presentation is built.  Handed ``groebner=None`` it then completes
    itself at ``truncation_bound`` (``presentation_new``); a given basis, as
    from ``dataclasses.replace``, is taken as it is.
    """

    gens: Sequence[GenSpec]
    relations: Sequence
    groebner: Sequence[Poly] | None
    truncation_bound: int
    has_unit: bool = True
    model: object = None
    block_id: str | None = None
    names: tuple[str, ...] = field(init=False)
    index: Mapping[str, int] = field(init=False)
    gen_w: tuple[int, ...] = field(init=False)
    gen_d: tuple[int, ...] = field(init=False)
    module_idx: tuple[int, ...] = field(init=False)
    is_module: bool = field(init=False)
    _gb_tests: tuple[tuple, ...] = field(init=False)
    _cone: tuple[tuple[int, int], tuple[int, int]] | None = field(init=False)
    _walk: tuple = field(init=False)

    def __post_init__(self) -> None:
        gens = tuple(self.gens)
        for name, value in dict(
            gens=gens,
            names=tuple(g.name for g in gens),
            index=MappingProxyType({g.name: i for i, g in enumerate(gens)}),
            gen_w=tuple(g.bidegree.w for g in gens),
            gen_d=tuple(g.bidegree.d for g in gens),
            module_idx=tuple(i for i, g in enumerate(gens) if g.origin == MODULE_GEN),
        ).items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "is_module", bool(self.module_idx))
        relations = _check_presentation(self, self.relations)
        gb = self.groebner
        if gb is None:
            # a relation free of module generators is a coefficient-ring
            # relation and acts on every module component: it also enters
            # times each module generator, within the bound
            shifted = (
                frozenset(m[:i] + (m[i] + 1,) + m[i + 1:] for m in poly)
                for poly in relations if not any(map(self.module_count, poly))
                for i in self.module_idx
            )
            bound = self.truncation_bound
            work = [*relations, *(p for p in shifted if self.poly_bidegree(p).total <= bound)]
            gb = _buchberger(self, work, bound)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "groebner", tuple(gb))
        object.__setattr__(self, "_gb_tests", tuple(_divisor_test(self, g) for g in gb))
        object.__setattr__(self, "_cone", _generator_cone(self.gen_w, self.gen_d))
        object.__setattr__(self, "_walk", _walk_rules(self))

    # ----- monomial helpers -------------------------------------------------

    def mono_bidegree(self, m: Monomial) -> Bidegree:
        w = sum(map(mul, m, self.gen_w))
        d = sum(map(mul, m, self.gen_d))
        return Bidegree(w, d)

    def mono_key(self, m: Monomial):
        return (sum(map(mul, m, self.gen_d)), sum(map(mul, m, self.gen_w)), m[::-1])

    def module_count(self, m: Monomial) -> int:
        return sum(m[i] for i in self.module_idx)

    def mono_valid(self, m: Monomial) -> bool:
        return self.module_count(m) <= 1 if self.is_module else True

    def lead_monomial(self, p: Poly) -> Monomial:
        return max(p, key=self.mono_key)

    def poly_bidegree(self, p: Poly) -> Bidegree | None:
        """Common bidegree of all monomials, or None if mixed/zero."""
        gen_w, gen_d = self.gen_w, self.gen_d
        degs = {(sum(map(mul, m, gen_w)), sum(map(mul, m, gen_d))) for m in p}
        if len(degs) == 1:
            return Bidegree(*degs.pop())
        return None

    # ----- reduction --------------------------------------------------------

    def reduce_poly(self, p: Iterable[Monomial]) -> Poly:
        return _reduce_full(set(p), self._gb_tests, self.mono_key)

    # ----- element construction ---------------------------------------------

    def zero(self) -> "Element":
        return Element(self, frozenset())

    def one(self) -> "Element":
        return Element(self, frozenset([(0,) * len(self.gens)]))

    def gen(self, name: str) -> "Element":
        if name not in self.index:
            raise UnknownGenerator(f"no generator named {name!r}")
        m = [0] * len(self.gens)
        m[self.index[name]] = 1
        return self.element_from_monomials([tuple(m)])

    def element_from_monomials(self, monomials: Iterable[Monomial]) -> "Element":
        return Element(self, self.reduce_poly(monomials))

    def raw_to_poly(self, raw) -> Poly:
        """An unreduced monomial set from an element string, a parsed poly
        of (name, exponent) pairs, an Element of any presentation with these
        generator names, or a frozenset of exponent vectors over these
        generators (returned as it is)."""
        if isinstance(raw, Element):
            if raw.pres is not self:
                return self.raw_to_poly(raw.as_named())
            return raw.monomials
        if isinstance(raw, str):
            raw = parse_mod.parse_poly(raw)
        elif isinstance(raw, frozenset):
            first = next(iter(raw), None)
            if (
                first is not None
                and len(first) == len(self.gens)
                and all(isinstance(x, int) for x in first)
            ):
                return raw
        acc: set[Monomial] = set()
        for named in raw:
            m = [0] * len(self.gens)
            for name, e in named:
                if name not in self.index:
                    raise UnknownGenerator(f"no generator named {name!r}")
                m[self.index[name]] += e
            t = tuple(m)
            acc ^= {t}
        return frozenset(acc)

    def el(self, raw) -> "Element":
        """Normal form of a raw element (string, parsed poly, or Element); an
        Element of this presentation is one already and comes back as it is."""
        if isinstance(raw, Element) and raw.pres is self:
            return raw
        poly = self.raw_to_poly(raw)
        for m in poly:
            self._check_bound(m)
            if self.is_module and not self.mono_valid(m):
                raise InvalidModuleProduct(
                    "monomial with more than one module-generator factor"
                )
        return self.element_from_monomials(poly)

    def _check_bound(self, m: Monomial) -> None:
        """Refuse a monomial above the bound, where normal forms are not exact."""
        total = self.mono_bidegree(m).total
        if total > self.truncation_bound:
            raise ExceedsBound(
                f"monomial of total degree {total} exceeds bound {self.truncation_bound}"
            )

    # ----- extension ---------------------------------------------------------

    def extend_bound(self, bound: int) -> "AlgebraPresentation":
        """Return a presentation certified up to the larger bound, keeping
        ``model`` but, like ``quotient``, not ``block_id``: a block's
        relations are read at its own bound, so they need not present it here."""
        if bound <= self.truncation_bound:
            return self
        return presentation_new(
            self.gens, list(self.relations), bound, has_unit=self.has_unit, model=self.model
        )

@dataclass(frozen=True, eq=False)
class Element:
    """Element of a presentation, stored in normal form."""

    pres: AlgebraPresentation
    monomials: Poly

    def is_zero(self) -> bool:
        return not self.monomials

    def bidegree(self) -> Bidegree | None:
        return self.pres.poly_bidegree(self.monomials)

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.pres, self.monomials ^ other.monomials)

    def __mul__(self, other: "Element") -> "Element":
        """The product in normal form; ``ExceedsBound`` if a monomial of it
        lies above the bound, as for ``el``."""
        product = self.product_monomials(other)
        for m in product:
            self.pres._check_bound(m)
        return self.pres.element_from_monomials(product)

    def product_monomials(self, other: "Element") -> set[Monomial]:
        """The product before normal form: monomial products summed over GF(2)."""
        self._check(other)
        pres = self.pres
        if pres.is_module:
            a_mod = any(pres.module_count(m) for m in self.monomials)
            b_mod = any(pres.module_count(m) for m in other.monomials)
            if a_mod and b_mod:
                raise InvalidModuleProduct(
                    "cannot multiply two module elements"
                )
        acc: set[Monomial] = set()
        for ma in self.monomials:
            for mb in other.monomials:
                m = _mono_mul(ma, mb)
                if m in acc:
                    acc.remove(m)
                else:
                    acc.add(m)
        return acc

    def __pow__(self, n: int) -> "Element":
        if n < 0:
            raise SubtleError(f"exponent {n} is negative: an element has no inverse here")
        result = self.pres.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.pres is other.pres
            and self.monomials == other.monomials
        )

    def __hash__(self) -> int:
        return hash((id(self.pres), self.monomials))

    def _check(self, other: "Element") -> None:
        if self.pres is not other.pres:
            raise ValueError("elements belong to different presentations")

    def as_named(self) -> frozenset:
        """Re-encode monomials by generator name, for cross-presentation moves."""
        out = set()
        for m in self.monomials:
            out.add(
                tuple(
                    sorted(
                        (name, e)
                        for name, e in zip(self.pres.names, m)
                        if e
                    )
                )
            )
        return frozenset(out)

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        monos = sorted(self.monomials, key=self.pres.mono_key, reverse=True)
        parts = []
        for m in monos:
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.pres.names, m)
                if e
            ]
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)


@dataclass(frozen=True)
class IdealGens:
    """Reduced generating set of a homogeneous ideal, certified up to a bound."""

    pres: AlgebraPresentation
    gens: tuple[Element, ...]
    degree_bound: int

    def polys(self) -> list[Poly]:
        return [g.monomials for g in self.gens]

    def __str__(self) -> str:
        if not self.gens:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


# ----- monomial arithmetic ----------------------------------------------------


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _mul_mono_poly(t: Monomial, p: Poly) -> set[Monomial]:
    return {_mono_mul(t, m) for m in p}


def _divisor_test(pres: AlgebraPresentation, g: Poly) -> tuple:
    """The record of Groebner element ``g``: ``(w, d, ge, eq, lm, g)``, with
    ``lm`` its leading monomial, (w)[d] the bidegree of ``lm``, ``ge`` the
    (index, exponent) pairs of its nonzero exponents that ``m`` must reach, and
    ``eq`` the pairs that ``m`` must match exactly: in a module, those of every
    module generator, so that the cofactor is module-free."""
    lm = pres.lead_monomial(g)
    exact = pres.module_idx if pres.is_module else ()
    eq = tuple((i, lm[i]) for i in exact)
    ge_pairs = tuple((i, e) for i, e in enumerate(lm) if e and i not in exact)
    b = pres.mono_bidegree(lm)
    return b.w, b.d, ge_pairs, eq, lm, g


def _walk_rules(pres: AlgebraPresentation) -> tuple:
    """What ``_walk`` reads of a presentation: ``(seeds, steps, wide)``.

    ``seeds[w, d]`` holds the standard monomials of ring part 1 in (w)[d]:
    each module generator's, and the unit's unless ``pres`` is a module
    without a unit component.  ``steps`` holds, per ring generator k in index
    order, ``(k, w_k, d_k, reads)``: ``reads`` maps an exponent e to the
    divisor records whose leading monomial's last generator is k, with
    exponent e + 1 there, each cut to ``(w, d, ge, eq)`` without that pair.
    ``wide`` is the largest weight of a step: how far below its own weight a
    cell's walk reads (``_reach``)."""
    n, tests = len(pres.gens), pres._gb_tests
    seeds: dict[tuple, tuple] = {}
    for i in (None,) * (pres.has_unit or not pres.is_module) + pres.module_idx:
        m = tuple(int(j == i) for j in range(n))
        if _reducer(m, tests) is None:
            b = pres.mono_bidegree(m)
            seeds[b.w, b.d] = seeds.get((b.w, b.d), ()) + (m,)
    steps = []
    for k, (w, d) in enumerate(zip(pres.gen_w, pres.gen_d)):
        if k not in pres.module_idx:
            reads: dict[int, tuple] = {}
            for t in tests:
                ge = dict(t[2])
                if max(ge, default=-1) == k:
                    e = ge.pop(k) - 1
                    reads[e] = reads.get(e, ()) + (t[:2] + (tuple(ge.items()), t[3]),)
            steps.append((k, w, d, reads or None))
    wide = max((s[1] for s in steps), default=0)
    return seeds, tuple(steps), wide


def _generator_cone(gen_w, gen_d) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The generator bidegrees ``((lw, ld), (hw, hd))`` of lowest and highest
    slope d/w, or None when there is no generator.  Slopes are compared
    exactly: d1/w1 < d2/w2 iff d1*w2 < d2*w1, which holds for bidegrees
    neither negative nor (0)[0], with w = 0 as the steepest slope."""
    if not gen_w:
        return None
    low = high = (gen_w[0], gen_d[0])
    for w, d in zip(gen_w[1:], gen_d[1:]):
        if d * low[0] < low[1] * w:
            low = (w, d)
        if d * high[0] > high[1] * w:
            high = (w, d)
    return low, high


def _reducer(m: Monomial, tests) -> int | None:
    """Index of the first divisor test that ``m`` passes, or None: the first
    leading monomial dividing ``m`` (see ``_divisor_test``)."""
    # the record is read by index: unpacking its six fields costs more here
    for k, t in enumerate(tests):
        for i, e in t[2]:
            if m[i] < e:
                break
        else:
            for i, e in t[3]:
                if m[i] != e:
                    break
            else:
                return k
    return None


def _reduce_full(work: set, tests, key) -> Poly:
    """Full normal form against the records ``tests``: reduce every
    reducible monomial, largest by ``key`` first."""
    done: set[Monomial] = set()
    while work:
        m = max(work, key=key)
        work.discard(m)
        k = _reducer(m, tests)
        if k is None:
            done.add(m)
        else:
            _, _, _, _, lm, g = tests[k]
            prod = _mul_mono_poly(tuple(map(sub, m, lm)), g)
            prod.discard(m)  # m cancels against the cofactor times lm
            work ^= prod
    return frozenset(done)


# ----- Buchberger -------------------------------------------------------------


def _buchberger(
    pres: AlgebraPresentation, polys: list[Poly], bound: int
) -> list[Poly]:
    """Truncated Buchberger completion; returns the reduced basis.  ``tests``
    holds one record (``_divisor_test``) per element.  ``add`` reduces a
    polynomial against them, so each element enters fully reduced against
    the earlier ones, and queues the pairs of a new element with each earlier
    one."""
    key = pres.mono_key
    tests: list[tuple] = []
    heap: list[tuple] = []

    def add(p) -> None:
        r = _reduce_full(set(p), tests, key)
        if r:
            rec = _divisor_test(pres, r)
            for k, t in enumerate(tests):
                heapq.heappush(heap, (key(_mono_lcm(t[4], rec[4])), k, len(tests)))
            tests.append(rec)

    for p in sorted((p for p in polys if p), key=lambda q: key(pres.lead_monomial(q))):
        add(p)
    while heap:
        # normal strategy: smallest lcm first, deterministic
        _, i, j = heapq.heappop(heap)
        _, _, _, _, lmi, gi = tests[i]
        _, _, _, _, lmj, gj = tests[j]
        lcm = _mono_lcm(lmi, lmj)
        if pres.is_module and pres.module_count(lcm) > 1:
            continue
        ti = tuple(map(sub, lcm, lmi))
        tj = tuple(map(sub, lcm, lmj))
        if pres.is_module and (
            pres.module_count(ti) or pres.module_count(tj)
        ):
            continue  # leading monomials sit in different module components
        b = pres.mono_bidegree(lcm)
        if b.total > bound:
            continue
        if all(x == 0 or y == 0 for x, y in zip(lmi, lmj)) and not (
            pres.is_module and any(map(pres.module_count, gi | gj))
        ):
            continue  # coprime criterion: it holds for two ring elements only
        add(_mul_mono_poly(ti, gi) ^ _mul_mono_poly(tj, gj))

    # The reduced basis in one pass.  An element entered reduced against the
    # earlier ones, so only a later leading monomial can divide its own (no
    # two are equal).  Dropping each element whose leading monomial another's
    # divides leaves a minimal set of leading monomials, and reducing each
    # survivor's other monomials against the rest cannot change it.
    minimal = [t for k, t in enumerate(tests) if _reducer(t[4], tests[k + 1:]) is None]
    minimal.sort(key=lambda t: key(t[4]))
    return [_reduce_full(set(t[5]), [u for u in minimal if u is not t], key) for t in minimal]


# ----- public operations -------------------------------------------------------


def _check_presentation(pres: AlgebraPresentation, relations) -> tuple[Poly, ...]:
    """The nonzero ``relations`` of ``pres``, read by ``raw_to_poly`` after
    its generators pass.  Refuse an empty or repeated generator name, a
    Milnor generator off w = d, a generator bidegree that is negative or
    (0)[0] (either can make a cell infinite), and relations that mix
    bidegrees, exceed the bound or, in a module without a unit component,
    mix module monomials with monomials free of module generators, which
    reduction would carry out of the module."""
    seen = set()
    for g in pres.gens:
        if not g.name:
            raise EmptyGeneratorNameClash("empty generator name")
        if g.name in seen:
            raise EmptyGeneratorNameClash(f"duplicate generator name {g.name!r}")
        seen.add(g.name)
        if g.bidegree.w < 0 or g.bidegree.d < 0:
            raise NegativeBidegree(f"generator {g} has negative weight or degree")
        if not (g.bidegree.w or g.bidegree.d):
            raise NegativeBidegree(f"generator {g} has bidegree (0)[0], so a cell could be infinite")
        if g.origin == MILNOR and g.bidegree.w != g.bidegree.d:
            raise NonHomogeneousRelation(f"milnor generator {g.name} must have w = d")
    polys = tuple(filter(None, map(pres.raw_to_poly, relations)))
    for poly in polys:
        b = pres.poly_bidegree(poly)
        if b is None:
            raise NonHomogeneousRelation(f"relation {str(Element(pres, poly))!r} mixes bidegrees")
        if b.total > pres.truncation_bound:
            raise BoundTooSmall(
                f"relation of total degree {b.total} exceeds bound {pres.truncation_bound}"
            )
        if not pres.has_unit and {bool(pres.module_count(m)) for m in poly} == {True, False}:
            raise RelationLeavesModule(
                f"relation {str(Element(pres, poly))!r} of a module without a unit "
                "component mixes module monomials with monomials free of module generators"
            )
    return polys


def presentation_new(
    gens: Sequence[GenSpec],
    rels: Sequence,
    bound: int,
    has_unit: bool = True,
    model=None,
    block_id: str | None = None,
) -> AlgebraPresentation:
    """Build a presentation and compute its truncated Groebner basis: the
    constructor handed no basis.

    ``rels`` entries may be element strings, parsed raw polys, monomial sets
    over these generators, or Elements of a presentation with the same
    generator names; ``_check_presentation`` vets them, once, before
    completion.  A relation wholly free of module generators is a
    coefficient-ring relation and acts on each module generator.
    """
    return AlgebraPresentation(gens, rels, None, bound, has_unit, model, block_id)


def normal_form(pres: AlgebraPresentation, raw) -> Element:
    """Unique reduced representative of a raw element."""
    return pres.el(raw)


def groebner(pres: AlgebraPresentation, bound: int | None = None):
    """Reduced truncated basis; extending the bound returns a new presentation.

    Returns (presentation, list of basis Elements).
    """
    p = pres if bound is None else pres.extend_bound(bound)
    return p, [Element(p, g) for g in p.groebner]


def _dense_monomials(
    pres: AlgebraPresentation,
    w: int,
    d: int,
    include_unit_component: bool = True,
    store: dict | None = None,
) -> list[Monomial]:
    """All valid monomials of bidegree exactly (w)[d], whatever the leading
    monomials, in lexicographic order of exponent vectors: the dense oracle's
    enumerator, sharing no code with the walk.  A module's monomials free of
    module generators count only with ``include_unit_component``.  Exponents
    are chosen generator by generator, keeping one only when the later
    generators can use up what it leaves (the last one is forced; none sits
    in (0)[0]).  The tails of each remainder are kept in ``store[keep_unit]``,
    so the calls of one oracle table list each once (an empty list when none
    is left)."""
    keep_unit = include_unit_component or not pres.is_module
    if w < 0 or d < 0:
        return []
    n = len(pres.gens)
    if n == 0:
        return [()] if w == 0 and d == 0 and keep_unit else []
    module_idx = pres.module_idx if pres.is_module else ()
    gen_w, gen_d = pres.gen_w, pres.gen_d
    last = n - 1
    lw, ld = gen_w[last], gen_d[last]
    last_limited = last in module_idx

    def closing(rw: int, rd: int, mods: int) -> int | None:
        """The last generator's exponent that leaves nothing, if valid."""
        e = rw // lw if lw else rd // ld
        if e < 0 or e * lw != rw or e * ld != rd:
            return None
        if last_limited:
            mods += e
            if mods > 1:
                return None
        return e if mods or keep_unit else None

    if n == 1:
        e = closing(w, d, 0)
        return [] if e is None else [(e,)]
    memo = {} if store is None else store.setdefault(keep_unit, {})

    def tails(i: int, rw: int, rd: int, mods: int) -> list[Monomial]:
        """Exponents of generators i.. that use up (rw)[rd] exactly."""
        key = (i, rw, rd, mods)
        found = memo.get(key)
        if found is None:
            gw, gd = gen_w[i], gen_d[i]
            if gw > 0:
                cap = rw // gw
                if gd > 0 and rd // gd < cap:
                    cap = rd // gd
            else:
                cap = rd // gd
            limited = i in module_idx
            if limited and cap > 1 - mods:
                cap = 1 - mods
            found = []
            j = i + 1
            for e in range(cap + 1):
                cw, cd = rw - e * gw, rd - e * gd
                cm = mods + e if limited else mods
                if j < last:
                    sub = memo.get((j, cw, cd, cm))
                    if sub is None:
                        sub = tails(j, cw, cd, cm)
                    if sub:
                        found += [(e,) + t for t in sub]
                else:
                    f = closing(cw, cd, cm)
                    if f is not None:
                        found.append((e, f))
            memo[key] = found
        return found

    out = list(tails(0, w, d, 0))  # a copy: the caller may change it, the memo not
    del tails  # it refers to itself: unbinding it frees it now
    return out


def _monomials_of_bidegree(
    pres: AlgebraPresentation, w: int, d: int, store: dict | None = None
) -> list[Monomial]:
    """The standard monomials of (w)[d] in no fixed order, walked (``_walk``)
    from the sweep's dict ``store`` after it notes the cell reached
    (``_reach``); without a store, from a fresh dict."""
    if store is None:
        store = {}
    else:
        _reach(pres, store, w)
    return list(_walk(pres, w, d, store)[0])


def _walk(pres: AlgebraPresentation, w: int, d: int, store: dict):
    """The cell (w)[d] of standard monomials as ``(monos, ends)``, held in
    ``store``; the missing cells it reads are built first, iteratively, in
    rising weight, then degree: a cell reads only lighter cells and, over a
    step of weight 0, cells of its own weight and lower degree.

    A standard monomial whose last ring generator is x_k is s * x_k, with s
    standard in the cell below by the bidegree of x_k and its own last at most
    k.  So a cell is its seeds (``_walk_rules``), then per step x_k the
    products s * x_k that no leading monomial divides; only one whose last
    generator is k, with exponent s[k] + 1 there, can.  ``monos`` is ordered
    by last ring generator; ``ends[j]`` counts those whose last is at most
    the j-th step's.  Each module component grows from its own seed: the ring
    part of a standard module monomial need not be standard.  A cell outside
    the generator cone is empty and not held."""
    seeds, steps, _ = pres._walk
    need = []
    stack = [(w, d)]
    while stack:
        cell = stack.pop()
        if cell in store:
            continue
        cw, cd = cell
        if not _in_cone(pres, cw, cd):
            continue
        store[cell] = None  # filled below, before any cell that reads it
        need.append(cell)
        stack += [(cw - sw, cd - sd) for _, sw, sd, _ in steps]
    need.sort()
    for cw, cd in need:
        out = list(seeds.get((cw, cd), ()))
        ends = []
        for j, (k, sw, sd, reads) in enumerate(steps):
            below = store.get((cw - sw, cd - sd))
            if below:
                k1 = k + 1
                prefix = below[0][: below[1][j]]
                out += [
                    s[:k] + (s[k] + 1,) + s[k1:] for s in prefix
                    if (r := reads.get(s[k])) is None or _reducer(s, r) is None
                ] if reads else [s[:k] + (s[k] + 1,) + s[k1:] for s in prefix]
            ends.append(len(out))
        store[cw, cd] = (out, ends)
    return store.get((w, d)) or ((), ())


def _reach(pres: AlgebraPresentation, store: dict, w: int) -> None:
    """Note that the sweep of ``store`` has reached weight w.  A later cell
    of a sweep in rising weight reads cells down to the largest step weight
    (``wide``) below its own, so the cells lighter than w less ``wide`` go.
    ``store[None]`` holds that reach; a lighter weight drops nothing."""
    low = w - pres._walk[2]
    if low > store.setdefault(None, low):
        store[None] = low
        for cell in [c for c in store if c and c[0] < low]:
            del store[cell]


_REVERSED = itemgetter(slice(None, None, -1))


def _in_cone(pres: AlgebraPresentation, w: int, d: int) -> bool:
    """Whether the (w)[d] cell can hold a monomial at all.

    A monomial's bidegree is a non-negative combination of generator
    bidegrees (none negative), so it lies in the quadrant w, d >= 0 and in
    the cone between the generator bidegrees of lowest and highest slope d/w
    (``_cone``).  A cell outside them, or any cell but (0)[0] when there is
    no generator, is empty."""
    cone = pres._cone
    if cone is None:
        return not (w or d)
    (lw, ld), (hw, hd) = cone
    return w >= 0 <= d and w * ld <= d * lw and d * hw <= w * hd


def standard_monomials(
    pres: AlgebraPresentation, w: int, d: int, store: dict | None = None
) -> list[Monomial]:
    """Monomial basis of the (w)[d] piece: monomials no leading term divides.

    A cell outside the generator cone (``_in_cone``) is returned empty at
    once.  A cell inside it is walked (``_monomials_of_bidegree``, ``_walk``)
    from the cells below it, which a sweep holds in its dict ``store``: one
    dict per side of a sweep, handed its cells in rising weight, holds the
    cells down to the heaviest weight reached less ``wide`` (``_reach``).
    Without one, each call walks every cell below its own afresh.  The basis
    is sorted by ``mono_key``, which inside one bidegree is the order of
    reversed exponent vectors.  A module without a unit component
    (``has_unit`` false) leaves out the monomials free of module generators."""
    if not _in_cone(pres, w, d):
        return []
    out = _monomials_of_bidegree(pres, w, d, store)
    out.sort(key=_REVERSED)
    return out


def cell_images(items, basis: Sequence[Monomial], image):
    """The matrix of a linear map into one cell: returns (dim, rows), with
    ``basis`` the target cell's ``standard_monomials``, dim its length, and
    rows[i] the GF(2) vector of ``image(items[i])``, a reduced polynomial of
    that cell, with bit j set when ``basis[j]`` occurs in it."""
    index = {m: j for j, m in enumerate(basis)}
    rows = []
    for item in items:
        vec = 0
        for m in image(item):
            vec |= 1 << index[m]
        rows.append(vec)
    return len(index), rows


def cell_maps(
    source: AlgebraPresentation, target: AlgebraPresentation, shift, cells, image
):
    """The one sweep of a linear map into cells.  For each (w, d) of
    ``cells``, in the order given, yields ``(w, d, basis, dim, rows)``: the
    source cell's ``standard_monomials`` and the ``cell_images`` of
    ``image`` on it into the target cell (w, d) + ``shift``.  Each side has
    its own dict of cells (``standard_monomials``); a self-map with no
    shift reads its target basis off the source's."""
    source_store: dict = {}
    target_store: dict = {}
    for w, d in cells:
        basis = standard_monomials(source, w, d, source_store)
        cell = (w + shift[0], d + shift[1])
        if source is target and cell == (w, d):
            tgt = basis
        else:
            tgt = standard_monomials(target, *cell, target_store)
        yield (w, d, basis, *cell_images(basis, tgt, image))


# the tables of the open ``shared_tables`` scope by staircase, or None
_TABLES: ContextVar[dict | None] = ContextVar("subtle_tables", default=None)


@contextmanager
def shared_tables():
    """A scope in which ``poincare_table`` counts each staircase once.

    The outermost scope installs a fresh dict of tables and drops it on
    exit, an exception included; a nested scope shares the outer one's.  It
    is a context variable, so each thread (or task) sees only its own."""
    if _TABLES.get() is not None:
        yield
        return
    token = _TABLES.set({})
    try:
        yield
    finally:
        _TABLES.reset(token)


def _staircase(pres: AlgebraPresentation) -> tuple:
    """All that the cell counts of ``pres`` depend on: the generator
    bidegrees, the module structure and the leading monomials of the basis
    (Macaulay), not the truncation bound, model or block id."""
    lms = frozenset(t[4] for t in pres._gb_tests)
    return pres.gen_w, pres.gen_d, pres.module_idx, pres.has_unit, lms


def poincare_table(
    pres: AlgebraPresentation, wmax: int, dmax: int
) -> PoincareTable:
    """Standard-monomial counts over the box, truncation permitting.

    Outside a ``shared_tables`` scope every call counts afresh.  Inside one, a
    table of a staircase (``_staircase``) already counted over a box holding
    (wmax, dmax) is cut to the box; otherwise the count is kept when its box
    holds the kept one's."""
    if wmax + dmax > pres.truncation_bound:
        raise ExceedsBound(
            f"box ({wmax},{dmax}) needs bound >= {wmax + dmax}, "
            f"presentation certifies {pres.truncation_bound}"
        )
    held, kept = _TABLES.get(), None
    if held is not None:
        key = _staircase(pres)
        kept = held.get(key)
        if kept is not None and wmax <= kept.wmax and dmax <= kept.dmax:
            return PoincareTable.of(wmax, dmax, kept.entry)
    store: dict = {}
    table = PoincareTable.of(wmax, dmax, lambda w, d: len(standard_monomials(pres, w, d, store)))
    if held is not None and (kept is None or (wmax >= kept.wmax and dmax >= kept.dmax)):
        held[key] = table
    return table


def quotient(pres: AlgebraPresentation, ideal: IdealGens | Sequence) -> AlgebraPresentation:
    """Presentation of pres / (ideal), same generators."""
    extra = ideal.polys() if isinstance(ideal, IdealGens) else [
        pres.raw_to_poly(g) for g in ideal
    ]
    return presentation_new(
        pres.gens,
        list(pres.relations) + list(extra),
        pres.truncation_bound,
        has_unit=pres.has_unit,
        model=pres.model,
    )


def colon_ideal(
    pres: AlgebraPresentation,
    ideal: IdealGens | Sequence | None,
    f,
    bound: int,
) -> IdealGens:
    """Generators of {x : x*f in (ideal)}, certified per graded piece.

    Per-bidegree kernels of multiplication by f, from one ``cell_maps``
    sweep in rising weight over the cells inside the generator cone (only
    those can be non-empty; generated, not listed, so that no list of every
    cell is held).  The ideal's generators, then these kernel vectors, go
    stably sorted by total degree through one membership sweep that keeps
    each one the kept ones do not span: the order they print in.  None
    lies in the ideal of the others, as a multiplier of total degree 0 is
    a scalar.
    """
    if bound > pres.truncation_bound:
        raise ExceedsBound("colon bound exceeds presentation bound")
    f_el = pres.el(f)
    if f_el.is_zero():
        raise ZeroDivisorOfEverything("divisor reduces to 0")
    fb = f_el.bidegree()
    if fb is None:
        raise NonHomogeneousRelation("colon divisor must be homogeneous")

    base_gens: list[Element] = []
    if ideal is not None:
        gens = ideal.gens if isinstance(ideal, IdealGens) else [
            pres.el(g) for g in ideal
        ]
        base_gens = [g for g in gens if not pres.el(g).is_zero()]

    q = quotient(pres, [g.monomials for g in base_gens]) if base_gens else pres

    candidates: list[Element] = list(base_gens)
    top = bound - fb.total
    cells = (
        (w, d) for w in range(top + 1) for d in range(top - w + 1) if _in_cone(q, w, d)
    )
    for _, _, basis, _, images in cell_maps(
        q, q, (fb.w, fb.d), cells,
        lambda m: q.reduce_poly(_mul_mono_poly(m, f_el.monomials)),
    ):
        for combo in kernel_of_map(images):
            monos = {basis[i] for i in range(len(basis)) if combo >> i & 1}
            candidates.append(pres.element_from_monomials(monos))
    candidates.sort(key=lambda c: c.bidegree().total)

    chosen: list[Element] = []
    current = pres
    for cand in candidates:
        if current.reduce_poly(cand.monomials):
            chosen.append(cand)
            current = quotient(pres, [g.monomials for g in chosen])
    return IdealGens(pres, tuple(chosen), bound)
