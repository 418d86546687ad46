"""Finitely presented models of the mod-2 Milnor K-theory ring of a base field.

A model is a finitely presented GF(2)-algebra on degree-1 symbol generators
together with a designated nonzero degree-1 class ``alpha`` (the symbol of the
element cut out by the quadratic extension).  Degree-n classes sit in
bidegree (n)[n].

Built-in models:

* ``real``                one generator ``rho``, no relations, alpha = rho
* ``finite_field``        one generator ``s``, relation s^2 = 0, alpha = s
* ``quadratically_closed`` no generators; carries no valid alpha, so every
  alpha-consuming operation rejects it

The module keeps no state: blocks read Ann(alpha) through ``rings``' cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .bigraded import (
    MILNOR,
    AlgebraPresentation,
    Bidegree,
    Element,
    GenSpec,
    IdealGens,
    colon_ideal,
    presentation_new,
    standard_monomials,
)
from .errors import AlphaIsSquare, SubtleError, ZeroElement
from .parse import STRING, STRINGS, check_descriptor, load_descriptor, naming

KMElement = Element

BUILTIN_MODELS = {
    "real": {
        "builtin": "real",
        "generators": ["rho"],
        "relations": [],
        "alpha": "rho",
        "minus_one": "rho",
    },
    "finite_field": {
        "builtin": "finite_field",
        "generators": ["s"],
        "relations": ["s^2"],
        "alpha": "s",
    },
    "quadratically_closed": {
        "builtin": "quadratically_closed",
        "generators": [],
        "relations": [],
        "alpha": None,
    },
}

MODEL_FIELDS = {
    "builtin": (
        lambda v: isinstance(v, str) and v in BUILTIN_MODELS,
        "one of " + ", ".join(BUILTIN_MODELS),
    ),
    "name": STRING,
    "generators": STRINGS,
    "relations": STRINGS,
    "alpha": STRING,
    "minus_one": STRING,
}


@dataclass(frozen=True)
class FieldModel:
    """Immutable Milnor K-theory mod 2 model with a designated symbol.  Equality
    and hash cover the descriptor content only, so equal models share blocks."""

    tag: str
    generators: tuple[str, ...]
    relation_strings: tuple[str, ...]
    alpha_string: str | None
    minus_one_string: str | None
    presentation: AlgebraPresentation = field(compare=False)
    degree_bound: int

    @property
    def alpha(self) -> KMElement:
        if self.alpha_string is None:
            raise AlphaIsSquare(
                f"model {self.tag!r} has no designated nonzero degree-1 class"
            )
        return self.presentation.el(self.alpha_string)

    @property
    def has_alpha(self) -> bool:
        return self.alpha_string is not None

    @property
    def minus_one(self) -> KMElement | None:
        if self.minus_one_string is None:
            return None
        return self.presentation.el(self.minus_one_string)

    def dimensions(self, max_degree: int) -> list[int]:
        """GF(2)-dimension of each graded piece up to max_degree."""
        pres, store = self.presentation, {}
        return [len(standard_monomials(pres, n, n, store)) for n in range(max_degree + 1)]

    def annihilator(self, degree_bound: int) -> IdealGens:
        """Generators of Ann({alpha}) of degree below the bound, afresh."""
        return km_annihilator(self, self.alpha, degree_bound)

    def __str__(self) -> str:
        rels = ", ".join(self.relation_strings) if self.relation_strings else "none"
        return (
            f"model {self.tag}: generators [{', '.join(self.generators)}], "
            f"relations [{rels}], alpha = {self.alpha_string}"
        )


def build_field_model(spec, degree_bound: int = 16) -> FieldModel:
    """Validate a model descriptor (builtin name, dict, or JSON path).

    A dict and a file follow the same rules (``MODEL_FIELDS``, null meaning
    absent), and a ``builtin`` entry supplies the defaults the others
    override.  Rejects models whose alpha reduces to 0; the quadratically
    closed builtin is the one descriptor allowed to omit alpha.
    """
    descriptor = _resolve_descriptor(spec)
    generators = list(descriptor.get("generators", []))
    relations = list(descriptor.get("relations", []))
    alpha = descriptor.get("alpha")
    minus_one = descriptor.get("minus_one")
    tag = descriptor.get("builtin") or descriptor.get("name") or "custom"

    gens = [GenSpec(name, Bidegree(1, 1), MILNOR) for name in generators]
    shell = AlgebraPresentation(gens, (), (), 2 * degree_bound)  # reads relations only
    rel_polys = [_read_field(shell, "relation", r).monomials for r in relations]
    pres = presentation_new(gens, rel_polys, 2 * degree_bound)

    if alpha is None:
        if tag != "quadratically_closed":
            raise AlphaIsSquare("descriptor must designate alpha")
    else:
        alpha_el = _read_field(pres, "alpha", alpha)
        if alpha_el.is_zero():
            raise AlphaIsSquare(f"alpha = {alpha!r} reduces to 0 in the model")
        if alpha_el.bidegree() != Bidegree(1, 1):
            raise AlphaIsSquare(f"alpha = {alpha!r} is not homogeneous of degree 1")
    if minus_one is not None:
        _read_field(pres, "minus_one", minus_one)  # validates

    return FieldModel(
        tag=tag,
        generators=tuple(generators),
        relation_strings=tuple(relations),
        alpha_string=alpha,
        minus_one_string=minus_one,
        presentation=pres,
        degree_bound=degree_bound,
    )


def _read_field(pres: AlgebraPresentation, field: str, text: str) -> Element:
    """The normal form in ``pres`` of a model field's element string; an
    error in reading it or a monomial beyond the bound names the field and
    the text."""
    with naming(f"model {field}", text):
        return pres.el(text)


def _resolve_descriptor(spec) -> dict:
    """The checked descriptor of a spec, merged over its builtin's."""
    if isinstance(spec, dict):
        descriptor = check_descriptor(spec, "model descriptor", MODEL_FIELDS)
    elif str(spec) in BUILTIN_MODELS:
        descriptor = {"builtin": str(spec)}
    elif Path(str(spec)).is_file():
        descriptor = load_descriptor(spec, "model descriptor", MODEL_FIELDS)
    else:
        raise SubtleError(f"unknown model {str(spec)!r} (not builtin, not a file)")
    builtin = descriptor.get("builtin")
    return {**BUILTIN_MODELS[builtin], **descriptor} if builtin else descriptor


def km_normal_form(model: FieldModel, raw) -> KMElement:
    """Reduced representative of an element of the model."""
    return model.presentation.el(raw)


def km_annihilator(model: FieldModel, f=None, degree_bound: int = 8) -> IdealGens:
    """Reduced generators of {x : x*f = 0} of degree below the bound.

    Computed as the colon ideal (0 : f) by per-degree linear solves in the
    shared engine, on a presentation extended to twice the bound.
    """
    if f is None:
        f = model.alpha  # raises when the model carries no alpha
    pres = model.presentation.extend_bound(2 * degree_bound)
    f_el = pres.el(f)
    if f_el.is_zero():
        raise ZeroElement("annihilator of 0 is the whole ring")
    return colon_ideal(pres, None, f_el, 2 * degree_bound)

