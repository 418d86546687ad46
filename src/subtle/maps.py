"""Homomorphisms between presented algebras: definition, verification,
kernel identification, and class specialization.

Verification is per graded piece inside an explicit box: well-definedness
reduces every source relation's image to 0, and injectivity/surjectivity come
from GF(2) ranks of the induced maps between standard-monomial bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import xor
from types import MappingProxyType
from typing import Mapping

from .bigraded import (
    AlgebraPresentation,
    Element,
    IdealGens,
    Monomial,
    cell_maps,
    poincare_table,
    quotient,
    standard_monomials,  # not called here: bench/test_bench.py checks the tracer wraps it
)
from .errors import (
    BidegreeMismatch,
    ExceedsBound,
    SubtleError,
    UnknownGenerator,
)
from .gf2 import RowSpace
from .milnor import FieldModel
from .parse import ELEMENT_STRINGS, STRING, load_descriptor, naming
from .rings import block_presentation, _ann_strings, _require_alpha


@dataclass(frozen=True, eq=False)
class Homomorphism:
    """A map fixed by its generator images; ``images`` is read-only, because
    the memo of monomial images is built from it.

    ``apply`` memoises the reduced image of each source monomial ``m`` as
    ``nf(image(m / x_k) * image(x_k))``, with ``k`` the last nonzero index of
    ``m``: one product and one reduction per monomial.  The memo holds monomial
    sets, not elements; every empty image is one shared set, and nothing is
    stored for a monomial containing a generator whose image is 0.
    """

    source: AlgebraPresentation
    target: AlgebraPresentation
    images: Mapping[str, Element]
    label: str = "hom"
    _gen_images: tuple = field(init=False, repr=False)
    _zero_gens: tuple = field(init=False, repr=False)
    _memo: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        images = dict(self.images)
        for name, el in images.items():
            if el.pres is not self.target:
                raise SubtleError(f"image of {name!r} does not belong to the target")
        gen_images = tuple(images[name] for name in self.source.names)
        zero_gens = tuple(i for i, el in enumerate(gen_images) if el.is_zero())
        unit = (0,) * len(self.source.names)
        object.__setattr__(self, "images", MappingProxyType(images))
        object.__setattr__(self, "_gen_images", gen_images)
        object.__setattr__(self, "_zero_gens", zero_gens)
        object.__setattr__(self, "_memo", {unit: self.target.one().monomials})

    def image_of(self, name: str) -> Element:
        return self.images[name]

    def apply(self, el: Element) -> Element:
        """Image of an element: the GF(2) sum of its monomials' reduced
        images, itself a normal form, so it is not reduced again."""
        if el.pres is not self.source:
            raise SubtleError("element does not belong to the source")
        total = reduce(xor, map(self._image, el.monomials), _EMPTY)
        return Element(self.target, total)

    def _image(self, m: Monomial) -> frozenset:
        memo = self._memo
        img = memo.get(m)
        if img is not None:
            return img
        if any(m[i] for i in self._zero_gens):
            return _EMPTY
        # walk down to a memoised divisor (the unit monomial is seeded), then
        # multiply back up one generator at a time
        chain = []
        while m not in memo:
            k = len(m) - 1
            while not m[k]:
                k -= 1
            chain.append((m, k))
            m = m[:k] + (m[k] - 1,) + m[k + 1:]
        img = memo[m]
        for m, k in reversed(chain):
            prod = Element(self.target, img).product_monomials(self._gen_images[k])
            img = memo[m] = self.target.reduce_poly(prod) or _EMPTY
        return img


_EMPTY: frozenset = frozenset()


def hom_define(
    source: AlgebraPresentation,
    target: AlgebraPresentation,
    images: dict,
    label: str = "hom",
) -> Homomorphism:
    """Unverified homomorphism; every source generator needs an image of the
    same bidegree (zero images are allowed in any bidegree), and a key that
    names no source generator raises UnknownGenerator.  An image is anything
    ``target.el`` takes: a string, a parsed poly or an Element of any
    presentation with the same generator names; an image string that does not
    read names its generator and the text."""
    resolved: dict[str, Element] = {}
    for name in images:
        if name not in source.index:
            raise UnknownGenerator(f"source has no generator {name!r}")
    for gen in source.gens:
        if gen.name not in images:
            raise UnknownGenerator(f"no image assigned for generator {gen.name!r}")
        with naming(f"image of {gen.name}", images[gen.name]):
            el = target.el(images[gen.name])
        if not el.is_zero():
            b = el.bidegree()
            if b != gen.bidegree:
                raise BidegreeMismatch(
                    f"{gen.name} at {gen.bidegree} mapped to {el} at {b}"
                )
        resolved[gen.name] = el
    return Homomorphism(source, target, resolved, label)


def _same_named(source: AlgebraPresentation, target: AlgebraPresentation) -> dict:
    """Each source generator that the target also has, sent to its namesake."""
    return {g.name: target.gen(g.name) for g in source.gens if g.name in target.index}


def hom_compose(g: Homomorphism, f: Homomorphism, label: str | None = None) -> Homomorphism:
    """g after f; images computed by substitution then normal form."""
    if f.target is not g.source:
        raise SubtleError("homomorphisms are not composable")
    images = {name: g.apply(img) for name, img in f.images.items()}
    return hom_define(
        f.source, g.target, images, label or f"{g.label}.{f.label}"
    )


def identity_hom(pres: AlgebraPresentation) -> Homomorphism:
    return hom_define(pres, pres, {g.name: pres.gen(g.name) for g in pres.gens}, "id")


@dataclass(frozen=True)
class HomReport:
    label: str
    wmax: int
    dmax: int
    well_defined: bool
    offending_relation: str | None
    per_bidegree: tuple[tuple[int, int, int, int, int], ...]  # w,d,rank,src,tgt
    surjective_on_box: bool
    injective_on_box: bool

    def to_json_obj(self) -> dict:
        return {
            "well_defined": self.well_defined,
            "surjective_on_box": self.surjective_on_box,
            "injective_on_box": self.injective_on_box,
            "box": [self.wmax, self.dmax],
            "offending_relation": self.offending_relation,
            "per_bidegree": [list(row) for row in self.per_bidegree],
        }

    def render_text(self) -> str:
        lines = [
            f"map {self.label} on box ({self.wmax},{self.dmax})",
            f"well_defined: {self.well_defined}",
        ]
        if self.offending_relation:
            lines.append(f"offending relation: {self.offending_relation}")
        lines.append(f"surjective_on_box: {self.surjective_on_box}")
        lines.append(f"injective_on_box: {self.injective_on_box}")
        lines.append("w d rank src tgt")
        for w, d, r, s, t in self.per_bidegree:
            lines.append(f"{w} {d} {r} {s} {t}")
        return "\n".join(lines)

    @property
    def ok(self) -> bool:
        return self.well_defined


def hom_verify(h: Homomorphism, wmax: int, dmax: int) -> HomReport:
    """Check well-definedness and per-bidegree ranks inside the box."""
    if wmax + dmax > h.source.truncation_bound or wmax + dmax > h.target.truncation_bound:
        raise ExceedsBound("verification box exceeds a presentation bound")
    well = True
    offender = None
    for rel in h.source.relations:
        img = h.apply(Element(h.source, rel))
        if not img.is_zero():
            well = False
            offender = str(Element(h.source, rel))
            break

    rows = []
    if well:
        box = [(w, d) for w in range(wmax + 1) for d in range(dmax + 1)]
        for w, d, basis, dim, images in cell_maps(h.source, h.target, (0, 0), box, h._image):
            rows.append((w, d, RowSpace(images).rank, len(basis), dim))
    surj = well and all(rank == tgt for _, _, rank, _, tgt in rows)
    inj = well and all(rank == src for _, _, rank, src, _ in rows)

    return HomReport(h.label, wmax, dmax, well, offender, tuple(rows), surj, inj)


# ----- the named comparison maps ------------------------------------------------


def comp_map(model: FieldModel, n: int, bound: int = 16) -> Homomorphism:
    """Comparison map from the orthogonal-side ring to the unitary-side ring:
    u_{2i} -> c_i, u_{4l+1} -> 0, u_{2j+1} -> d_j for odd j, and the top v
    class to d_n for odd n."""
    if n < 1:
        raise SubtleError("comparison map needs n >= 1")
    src = block_presentation(model, f"BOh:{n}", bound)
    tgt = block_presentation(model, f"BU:{n}", bound)
    images: dict[str, Element] = {}
    for gen in src.gens:
        name = gen.name
        if name == "tau" or name in model.generators:
            images[name] = tgt.gen(name)
        elif name.startswith("u"):
            k = int(name[1:])
            if k % 2 == 0:
                images[name] = tgt.gen(f"c{k // 2}")
            else:
                l = (k - 1) // 2
                images[name] = tgt.gen(f"d{l}") if l % 2 == 1 else tgt.zero()
        elif name.startswith("v"):
            images[name] = tgt.gen(f"d{n}")
    return hom_define(src, tgt, images, f"comp:{n}")


def comp_kernel_ideal(model: FieldModel, n: int, bound: int = 16) -> IdealGens:
    """The stated kernel ideal of the comparison map, with the top odd class
    name substituted for n odd, in the source of ``comp_map(model, n, bound)``.
    It keeps the stated generators of total degree at most ``bound``: those
    generate a homogeneous ideal's part up to that degree."""
    if n < 1:
        raise SubtleError("comparison map needs n >= 1")
    src = block_presentation(model, f"BOh:{n}", bound)
    alpha = _require_alpha(model)
    anns = _ann_strings(model, bound)
    top_v = f"v{2 * n + 1}"

    def uname(k: int) -> str:
        return top_v if (n % 2 == 1 and k == 2 * n + 1) else f"u{k}"

    jmax = (n - 1) // 2
    gens = [uname(4 * j + 1) for j in range(jmax + 1)]
    for j in range(jmax + 1):
        gens.append(f"tau*{uname(4 * j + 3)} + ({alpha})*u{4 * j + 2}")
        gens += [f"({a})*{uname(4 * j + 3)}" for a in anns]
    for i in range(jmax + 1):
        for j in range(i + 1, jmax + 1):
            gens.append(
                f"{uname(4 * i + 3)}*u{4 * j + 2} + {uname(4 * j + 3)}*u{4 * i + 2}"
            )
    polys = [src.raw_to_poly(g) for g in gens]
    elements = tuple(src.el(p) for p in polys if src.poly_bidegree(p).total <= bound)
    return IdealGens(src, elements, bound)


@dataclass(frozen=True)
class KernelReport:
    label: str
    wmax: int
    dmax: int
    generators_vanish: bool
    nonvanishing_generator: str | None
    tables_match: bool
    first_mismatch: tuple[int, int, int, int] | None  # w, d, quotient, rank
    offending_relation: str | None = None  # set when the map is not well defined

    @property
    def ok(self) -> bool:
        return self.generators_vanish and self.tables_match

    def to_json_obj(self) -> dict:
        obj = {
            "kernel_matches": self.ok,
            "box": [self.wmax, self.dmax],
            "generators_vanish": self.generators_vanish,
            "nonvanishing_generator": self.nonvanishing_generator,
            "tables_match": self.tables_match,
            "first_mismatch": list(self.first_mismatch) if self.first_mismatch else None,
        }
        if self.offending_relation:
            obj["offending_relation"] = self.offending_relation
        return obj

    def render_text(self) -> str:
        lines = [
            f"kernel check {self.label} on box ({self.wmax},{self.dmax})",
            f"ideal generators vanish: {self.generators_vanish}",
        ]
        if self.offending_relation:
            lines.append(f"offending relation: {self.offending_relation}")
        if self.nonvanishing_generator:
            lines.append(f"nonvanishing generator: {self.nonvanishing_generator}")
        lines.append(f"quotient table equals image ranks: {self.tables_match}")
        if self.first_mismatch:
            w, d, q, r = self.first_mismatch
            lines.append(f"first mismatch at ({w})[{d}]: quotient {q}, image rank {r}")
        lines.append("MATCH" if self.ok else "MISMATCH")
        return "\n".join(lines)


def kernel_match(
    h: Homomorphism, ideal: IdealGens, wmax: int, dmax: int
) -> KernelReport:
    """Certify kernel = (ideal) on the box: the generators must map to 0 and
    the quotient table must equal the per-bidegree image ranks.  The ideal
    must live in the map's source."""
    if ideal.pres is not h.source:
        raise SubtleError("the ideal does not belong to the map's source")
    report = hom_verify(h, wmax, dmax)
    if not report.well_defined:
        return KernelReport(
            h.label, wmax, dmax, False, None, False, None, report.offending_relation
        )
    vanish = True
    bad = None
    for g in ideal.gens:
        if not h.apply(g).is_zero():
            vanish = False
            bad = str(g)
            break
    ranks = {(w, d): r for w, d, r, _, _ in report.per_bidegree}
    q = quotient(h.source, ideal)
    qtable = poincare_table(q, wmax, dmax)
    match = True
    mismatch = None
    for w in range(wmax + 1):
        for d in range(dmax + 1):
            if qtable.entry(w, d) != ranks[(w, d)]:
                match = False
                mismatch = (w, d, qtable.entry(w, d), ranks[(w, d)])
                break
        if not match:
            break
    return KernelReport(h.label, wmax, dmax, vanish, bad, match, mismatch)


def twist_iso(model: FieldModel, n: int, bound: int = 16) -> Homomorphism:
    """Self-map of the mu-extended free u-algebra on u_1..u_2n that fixes
    even classes and sends u_{2i-1} to u_{2i-1} + mu*u_{2i-2} (u_0 = 1)."""
    if n < 1:
        raise SubtleError("twist needs n >= 1")
    pres = block_presentation(model, f"XBO:{2 * n}", bound)
    images: dict[str, Element] = {}
    for gen in pres.gens:
        name = gen.name
        if name.startswith("u"):
            k = int(name[1:])
            if k % 2 == 0:
                images[name] = pres.gen(name)
            else:
                low = pres.one() if k == 1 else pres.gen(f"u{k - 1}")
                images[name] = pres.gen(name) + pres.gen("mu") * low
        else:
            images[name] = pres.gen(name)
    return hom_define(pres, pres, images, f"pq:{n}")


# ----- class specialization (relations among characteristic classes) -----------


@dataclass(frozen=True)
class SpecializeReport:
    label: str
    well_defined: bool
    relation_images: tuple[tuple[str, str, bool], ...]  # relation, image, vanishes
    split_checked: tuple[str, ...]
    split_compatible: bool | None

    @property
    def first_failing(self) -> str | None:
        for rel, _, zero in self.relation_images:
            if not zero:
                return rel
        return None

    def to_json_obj(self) -> dict:
        return {
            "well_defined": self.well_defined,
            "relations": [
                {"relation": r, "image": i, "vanishes": z}
                for r, i, z in self.relation_images
            ],
            "split_criterion": {
                "checked_classes": list(self.split_checked),
                "split_compatible": self.split_compatible,
            },
        }

    def render_text(self) -> str:
        lines = [f"specialization {self.label}"]
        for r, i, z in self.relation_images:
            status = "0" if z else f"{i}  [NONZERO]"
            lines.append(f"  {r} -> {status}")
        lines.append(f"well_defined: {self.well_defined}")
        if self.split_checked:
            verdict = "split-compatible" if self.split_compatible else "not split-compatible"
            lines.append(
                f"splitting criterion on {{{', '.join(self.split_checked)}}}: {verdict}"
            )
        return "\n".join(lines)


def specialize_classes(
    ring: AlgebraPresentation,
    assignments: dict,
    target: AlgebraPresentation,
    label: str = "specialize",
) -> tuple[Homomorphism, SpecializeReport]:
    """Evaluate the universal relations of ``ring`` at concrete class values.

    Coefficient generators map to their same-named counterparts; every class
    generator needs an entry in ``assignments``.  The report lists each
    relation's image (all must vanish for a well-defined specialization) and
    whether every assigned c_{2^r} vanishes (the splitting criterion).  A
    key that names no generator of ``ring`` raises UnknownGenerator.
    """
    images = _same_named(ring, target)
    images.update(assignments)
    h = hom_define(ring, target, images, label)
    rel_rows = []
    well = True
    for rel in ring.relations:
        rel_el = Element(ring, rel)
        img = h.apply(rel_el)
        zero = img.is_zero()
        well = well and zero
        rel_rows.append((str(rel_el), str(img), zero))

    powers_of_two = [
        name
        for name in ring.names
        if name.startswith("c")
        and name[1:].isdigit()
        and int(name[1:]) & (int(name[1:]) - 1) == 0
    ]
    split: bool | None
    if powers_of_two:
        split = all(h.images[name].is_zero() for name in powers_of_two)
    else:
        split = None
    return h, SpecializeReport(
        label, well, tuple(rel_rows), tuple(powers_of_two), split
    )


_BLOCK_ID = (STRING[0], "a block id string")
MAP_FIELDS = {
    "source": _BLOCK_ID,
    "target": _BLOCK_ID,
    "images": ELEMENT_STRINGS,
}


def load_map_descriptor(path: str, model: FieldModel, bound: int = 16) -> Homomorphism:
    """Build a homomorphism from a JSON descriptor
    {"source": blockId, "target": blockId, "images": {gen: element-string}}.
    Generators absent from "images" map to their same-named target generators,
    and a key that names no source generator exits 2.
    """
    desc = load_descriptor(path, "map descriptor", MAP_FIELDS, ("source", "target"))
    src = block_presentation(model, desc["source"], bound)
    tgt = block_presentation(model, desc["target"], bound)
    images = _same_named(src, tgt)
    images.update(desc.get("images", {}))
    label = f"{desc['source']}->{desc['target']}"
    with naming("map descriptor images"):
        return hom_define(src, tgt, images, label)
