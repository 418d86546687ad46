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
from .parse import STRING, STRINGS, check_descriptor, load_descriptor

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


# Ann({alpha}) per (model, bound), for the life of the process: models equal
# by content share one entry.
_ANN: dict[tuple[FieldModel, int], IdealGens] = {}


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
        pres, states = self.presentation, {}
        return [len(standard_monomials(pres, n, n, states)) for n in range(max_degree + 1)]

    def annihilator(self, degree_bound: int | None = None) -> IdealGens:
        """Generators of Ann({alpha}) of degree below the bound, cached per
        model content and bound in ``_ANN``.

        When ``_ANN`` holds an entry for this model at a larger bound, the
        generators of degree below this bound are read off it instead of
        running the colon sweep again.  They are the ones a fresh
        ``km_annihilator`` returns, because:

        * the sweep's candidate sequence for the smaller bound is a prefix of
          the larger bound's: candidates come degree by degree, and those of
          degree k depend only on the cells of degrees k and k + 1;
        * truncated normal forms are exact below their bound, so those cells,
          their kernels and each membership test agree at both bounds;
        * a generator of higher degree cannot make one of lower degree
          redundant, since a homogeneous ideal's generators of degree above k
          contain nothing of degree k.

        The result carries the bound asked for (as ``degree_bound``, twice
        it, like ``km_annihilator``) but the larger entry's presentation.
        """
        bound = degree_bound if degree_bound is not None else self.degree_bound
        key = (self, bound)
        if key not in _ANN:
            larger = [b for m, b in _ANN if b > bound and m == self]
            if larger:
                big = _ANN[self, min(larger)]
                _ANN[key] = IdealGens(
                    big.pres,
                    tuple(g for g in big.gens if g.bidegree().d < bound),
                    2 * bound,
                )
            else:
                _ANN[key] = km_annihilator(self, self.alpha, bound)
        return _ANN[key]

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
    pres = presentation_new(gens, relations, 2 * degree_bound)

    if alpha is None:
        if tag != "quadratically_closed":
            raise AlphaIsSquare("descriptor must designate alpha")
    else:
        alpha_el = pres.el(alpha)
        if alpha_el.is_zero():
            raise AlphaIsSquare(f"alpha = {alpha!r} reduces to 0 in the model")
        if alpha_el.bidegree() != Bidegree(1, 1):
            raise AlphaIsSquare(f"alpha = {alpha!r} is not homogeneous of degree 1")
    if minus_one is not None:
        pres.el(minus_one)  # validates

    return FieldModel(
        tag=tag,
        generators=tuple(generators),
        relation_strings=tuple(relations),
        alpha_string=alpha,
        minus_one_string=minus_one,
        presentation=pres,
        degree_bound=degree_bound,
    )


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

