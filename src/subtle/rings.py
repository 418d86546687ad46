"""Builders for every cohomology ring and module block the artifact knows.

Block identifiers (CLI-facing):

    H            coefficient ring: the Milnor model with tau adjoined
    BO:n         free algebra on subtle Stiefel-Whitney classes u_1..u_n
    BU:n         unitary classes c_i, d_j with the three relation families
    BOp:n        u_1..u_2n and v_{2n+1} with tau*v = alpha*u_2n
    BOh:n        BOp:n for n odd, free u_1..u_2n for n even
    Npow:m       H-module on mu_1..mu_m, tau*mu_i = alpha*mu_{i-1}
    Mtilde       one-diagonal module on mu
    Xtilde       modules mu_i on successive diagonals (truncated)
    Xalpha       ring with mu adjoined, tau*mu = alpha
    XBU:n        Xalpha freely extended by c_1..c_n
    nbar         dimension table only: Ann part plus a tau-shifted H part
    NpowBU:m:n   dimension table only: the direct-sum convolution
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .bigraded import (
    MILNOR,
    MODULE_GEN,
    TAU,
    AlgebraPresentation,
    Bidegree,
    GenSpec,
    PoincareTable,
    poincare_table,
    presentation_new,
    quotient,
    standard_monomials,
)
from .errors import UnsupportedBlock
from .milnor import FieldModel


def h_gens(model: FieldModel) -> list[GenSpec]:
    gens = [GenSpec(name, Bidegree(1, 1), MILNOR) for name in model.generators]
    gens.append(GenSpec("tau", Bidegree(1, 0), TAU))
    return gens


def _require_alpha(model: FieldModel) -> str:
    if model.alpha_string is None:
        _ = model.alpha  # raises AlphaIsSquare with the model name
    return model.alpha_string


def _present(gens, rels, bound: int, **kwargs) -> AlgebraPresentation:
    """presentation_new with the bound raised to fit the relations themselves."""
    shell = AlgebraPresentation(gens, (), (), bound)  # parses relations only
    needed = bound
    for r in rels:
        poly = shell.raw_to_poly(r)
        if poly:
            b = shell.poly_bidegree(poly)
            if b is not None:
                needed = max(needed, b.total)
    return presentation_new(gens, rels, needed, **kwargs)


def _ann_strings(model: FieldModel, bound: int) -> list[str]:
    return [str(g) for g in model.annihilator(bound).gens]


def _finish(pres: AlgebraPresentation, model: FieldModel, block_id: str):
    pres.model = model
    pres.block_id = block_id
    return pres


@lru_cache(maxsize=None)
def build_H(model: FieldModel, bound: int = 16) -> AlgebraPresentation:
    """The coefficient ring: model generators plus tau at (1)[0]."""
    pres = _present(h_gens(model), model.relation_strings, bound)
    return _finish(pres, model, "H")


def u_bidegree(i: int) -> Bidegree:
    return Bidegree(i // 2, i)


@lru_cache(maxsize=None)
def build_BO(model: FieldModel, n: int, bound: int = 16) -> AlgebraPresentation:
    """Free H-algebra on u_1..u_n, deg u_i = ([i/2])[i]."""
    gens = h_gens(model) + [GenSpec(f"u{i}", u_bidegree(i)) for i in range(1, n + 1)]
    pres = _present(gens, model.relation_strings, bound)
    return _finish(pres, model, f"BO:{n}")


@lru_cache(maxsize=None)
def build_BUn(model: FieldModel, n: int, bound: int = 16) -> AlgebraPresentation:
    """Unitary classes: c_i at (i)[2i], d_j at (j)[2j+1] for odd j, modulo
    tau*d_j + alpha*c_j, Ann(alpha)*d_j and c_j'*d_j + c_j*d_j'."""
    gens = h_gens(model)
    gens += [GenSpec(f"c{i}", Bidegree(i, 2 * i)) for i in range(1, n + 1)]
    odd = [j for j in range(1, n + 1) if j % 2 == 1]
    gens += [GenSpec(f"d{j}", Bidegree(j, 2 * j + 1)) for j in odd]
    rels = list(model.relation_strings)
    if n >= 1:
        alpha = _require_alpha(model)
        anns = _ann_strings(model, bound)
        for j in odd:
            rels.append(f"tau*d{j} + ({alpha})*c{j}")
            rels += [f"({a})*d{j}" for a in anns]
        for a_idx, j in enumerate(odd):
            for jp in odd[a_idx + 1:]:
                rels.append(f"c{jp}*d{j} + c{j}*d{jp}")
    pres = _present(gens, rels, bound)
    return _finish(pres, model, f"BU:{n}")


@lru_cache(maxsize=None)
def build_BOpn(model: FieldModel, n: int, bound: int = 16) -> AlgebraPresentation:
    """u_1..u_2n and v_{2n+1}, modulo tau*v + alpha*u_2n and Ann(alpha)*v."""
    if n < 1:
        raise UnsupportedBlock(
            "BOp:0 is degenerate (v_1 with tau*v_1 + alpha); not built"
        )
    alpha = _require_alpha(model)
    v = f"v{2 * n + 1}"
    gens = h_gens(model)
    gens += [GenSpec(f"u{i}", u_bidegree(i)) for i in range(1, 2 * n + 1)]
    gens.append(GenSpec(v, Bidegree(n, 2 * n + 1)))
    rels = list(model.relation_strings)
    rels.append(f"tau*{v} + ({alpha})*u{2 * n}")
    rels += [f"({a})*{v}" for a in _ann_strings(model, bound)]
    pres = _present(gens, rels, bound)
    return _finish(pres, model, f"BOp:{n}")


@lru_cache(maxsize=None)
def build_BOhtilde(model: FieldModel, n: int, bound: int = 16) -> AlgebraPresentation:
    """Hyperbolic-or-shifted form: free u_1..u_2n for n even, BOp:n for n odd.

    The result is a relabelled copy, so the cached BOp:n or BO:2n keeps its
    own block id.
    """
    base = build_BOpn(model, n, bound) if n % 2 == 1 else build_BO(model, 2 * n, bound)
    pres = AlgebraPresentation(
        base.gens,
        base.relations,
        base.groebner,
        base.truncation_bound,
        base.is_module,
        base.has_unit,
    )
    return _finish(pres, model, f"BOh:{n}")


@lru_cache(maxsize=None)
def build_Xalpha(model: FieldModel, bound: int = 16) -> AlgebraPresentation:
    """Ring with mu at (0)[1] adjoined: tau*mu = alpha, Ann(alpha)*mu = 0."""
    alpha = _require_alpha(model)
    gens = h_gens(model) + [GenSpec("mu", Bidegree(0, 1))]
    rels = list(model.relation_strings)
    rels.append(f"tau*mu + ({alpha})")
    rels += [f"({a})*mu" for a in _ann_strings(model, bound)]
    pres = _present(gens, rels, bound)
    return _finish(pres, model, "Xalpha")


@lru_cache(maxsize=None)
def build_Npow(model: FieldModel, m: int, bound: int = 16) -> AlgebraPresentation:
    """H-module on mu_1..mu_m with tau*mu_i = alpha*mu_{i-1} (mu_0 = 1)."""
    if m == 0:
        return build_H(model, bound)
    alpha = _require_alpha(model)
    gens = h_gens(model)
    gens += [GenSpec(f"mu{i}", Bidegree(0, i), MODULE_GEN) for i in range(1, m + 1)]
    rels = list(model.relation_strings)
    anns = _ann_strings(model, bound)
    for i in range(1, m + 1):
        prev = f"mu{i - 1}" if i > 1 else "1"
        rels.append(f"tau*mu{i} + ({alpha})*{prev}")
        rels += [f"({a})*mu{i}" for a in anns]
    pres = _present(gens, rels, bound, is_module=True)
    return _finish(pres, model, f"Npow:{m}")


@lru_cache(maxsize=None)
def build_Mtilde(model: FieldModel, bound: int = 16) -> AlgebraPresentation:
    """Single-diagonal module: mu with tau*mu = 0 and Ann(alpha)*mu = 0."""
    alpha = _require_alpha(model)
    gens = h_gens(model) + [GenSpec("mu", Bidegree(0, 1), MODULE_GEN)]
    rels = list(model.relation_strings)
    rels.append("tau*mu")
    rels += [f"({a})*mu" for a in _ann_strings(model, bound)]
    pres = _present(gens, rels, bound, is_module=True, has_unit=False)
    return _finish(pres, model, "Mtilde")


@lru_cache(maxsize=None)
def build_Xtilde(model: FieldModel, bound: int = 16) -> AlgebraPresentation:
    """One diagonal copy per mu_i, i >= 1, truncated at the working bound."""
    alpha = _require_alpha(model)
    gens = h_gens(model)
    gens += [GenSpec(f"mu{i}", Bidegree(0, i), MODULE_GEN) for i in range(1, bound + 1)]
    rels = list(model.relation_strings)
    anns = _ann_strings(model, bound)
    for i in range(1, bound + 1):
        rels.append(f"tau*mu{i}")
        rels += [f"({a})*mu{i}" for a in anns]
    pres = _present(gens, rels, bound, is_module=True, has_unit=False)
    return _finish(pres, model, "Xtilde")


@lru_cache(maxsize=None)
def build_X_BU(model: FieldModel, n: int, bound: int = 16) -> AlgebraPresentation:
    """Xalpha freely extended by c_1..c_n."""
    alpha = _require_alpha(model)
    gens = h_gens(model) + [GenSpec("mu", Bidegree(0, 1))]
    gens += [GenSpec(f"c{i}", Bidegree(i, 2 * i)) for i in range(1, n + 1)]
    rels = list(model.relation_strings)
    rels.append(f"tau*mu + ({alpha})")
    rels += [f"({a})*mu" for a in _ann_strings(model, bound)]
    pres = _present(gens, rels, bound)
    return _finish(pres, model, f"XBU:{n}")


@lru_cache(maxsize=None)
def build_xalpha_with_us(model: FieldModel, n_u: int, bound: int = 16) -> AlgebraPresentation:
    """Xalpha freely extended by u_1..u_{n_u}; both sides of the twist map."""
    alpha = _require_alpha(model)
    gens = h_gens(model) + [GenSpec("mu", Bidegree(0, 1))]
    gens += [GenSpec(f"u{i}", u_bidegree(i)) for i in range(1, n_u + 1)]
    rels = list(model.relation_strings)
    rels.append(f"tau*mu + ({alpha})")
    rels += [f"({a})*mu" for a in _ann_strings(model, bound)]
    pres = _present(gens, rels, bound)
    return _finish(pres, model, f"XBO:{n_u}")


# ----- dimension-table-only blocks --------------------------------------------


def ann_dimensions(model: FieldModel, max_degree: int) -> list[int]:
    """dim Ann(alpha)_n for n <= max_degree."""
    full = model.dimensions(max_degree)
    ann = model.annihilator(max(max_degree, 1))
    if not ann.gens:
        return [0] * (max_degree + 1)
    q = quotient(model.presentation, ann)
    quot = [len(standard_monomials(q, n, n)) for n in range(max_degree + 1)]
    return [f - r for f, r in zip(full, quot)]


def nbar_table(model: FieldModel, wmax: int, dmax: int) -> PoincareTable:
    """Table of the inverse block: Ann part on the Milnor diagonal plus a
    tau-shifted copy of H (the grading convention recorded in the design)."""
    h = poincare_table(build_H(model, wmax + dmax + 2), wmax, dmax)
    ann = ann_dimensions(model, wmax)
    counts = tuple(
        tuple(
            (ann[w] if w == d else 0) + h.entry(w - 1, d)
            for d in range(dmax + 1)
        )
        for w in range(wmax + 1)
    )
    return PoincareTable(wmax, dmax, counts)


def npow_bu_table(
    model: FieldModel, m: int, n: int, wmax: int, dmax: int
) -> PoincareTable:
    """Direct-sum convolution: one shifted power-block table per c-monomial.

    The summand for c_1^{i_1}..c_n^{i_n} is the table of the (m + sum of odd
    i_l)-th power block, shifted by the monomial's bidegree.
    """
    bound = wmax + dmax
    zero = tuple(tuple(0 for _ in range(dmax + 1)) for _ in range(wmax + 1))
    total = PoincareTable(wmax, dmax, zero)
    npow_cache: dict[int, PoincareTable] = {}

    def npow_tab(k: int) -> PoincareTable:
        if k not in npow_cache:
            npow_cache[k] = poincare_table(build_Npow(model, k, bound), wmax, dmax)
        return npow_cache[k]

    def rec(l: int, shift_w: int, shift_d: int, odd_sum: int):
        nonlocal total
        if l > n:
            total = total + npow_tab(m + odd_sum).shift(shift_w, shift_d)
            return
        i = 0
        while shift_w + i * l <= wmax and shift_d + i * 2 * l <= dmax:
            rec(
                l + 1,
                shift_w + i * l,
                shift_d + i * 2 * l,
                odd_sum + (i if l % 2 == 1 else 0),
            )
            i += 1

    rec(1, 0, 0, 0)
    return total


# ----- colimit stabilization ---------------------------------------------------


@dataclass(frozen=True)
class ColimitReport:
    wmax: int
    dmax: int
    stabilization: tuple[tuple[int | None, ...], ...]  # index per cell, None = never
    passed: bool

    def render_text(self) -> str:
        lines = [f"colimit stabilization on box ({self.wmax},{self.dmax})"]
        for w in range(self.wmax + 1):
            row = []
            for d in range(self.dmax + 1):
                v = self.stabilization[w][d]
                row.append("-" if v is None else str(v))
            lines.append(f"w={w}".ljust(5) + " ".join(x.rjust(2) for x in row))
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        cells = [
            [w, d, self.stabilization[w][d]]
            for w in range(self.wmax + 1)
            for d in range(self.dmax + 1)
        ]
        return {
            "box": [self.wmax, self.dmax],
            "stabilization_index": cells,
            "passed": self.passed,
        }


def check_colimit(model: FieldModel, wmax: int, dmax: int) -> ColimitReport:
    """Power-block tables must stabilize cellwise to the Xalpha table."""
    bound = wmax + dmax
    target = poincare_table(build_Xalpha(model, bound), wmax, dmax)
    top = dmax + 1
    tables = [
        poincare_table(build_Npow(model, m, bound), wmax, dmax)
        for m in range(top + 1)
    ]
    stab: list[tuple[int | None, ...]] = []
    passed = True
    for w in range(wmax + 1):
        row: list[int | None] = []
        for d in range(dmax + 1):
            want = target.entry(w, d)
            idx: int | None = None
            for m in range(top + 1):
                if all(tables[mm].entry(w, d) == want for mm in range(m, top + 1)):
                    idx = m
                    break
            row.append(idx)
            if idx is None or idx > dmax:
                passed = False
        stab.append(tuple(row))
    return ColimitReport(wmax, dmax, tuple(stab), passed)


# ----- block dispatch ----------------------------------------------------------


def parse_block_id(block: str) -> tuple[str, tuple[int, ...]]:
    parts = block.split(":")
    kind = parts[0]
    try:
        args = tuple(int(x) for x in parts[1:])
    except ValueError as exc:
        raise UnsupportedBlock(f"bad block id {block!r}") from exc
    known = {
        "H": 0, "BO": 1, "BU": 1, "BOp": 1, "BOh": 1, "Npow": 1,
        "Mtilde": 0, "nbar": 0, "Xalpha": 0, "Xtilde": 0, "XBU": 1,
        "NpowBU": 2,
    }
    if kind not in known or len(args) != known[kind]:
        raise UnsupportedBlock(f"unknown block id {block!r}")
    if any(a < 0 for a in args):
        raise UnsupportedBlock(f"block parameters must be >= 0 in {block!r}")
    return kind, args


def block_presentation(
    model: FieldModel, block: str, bound: int = 16
) -> AlgebraPresentation:
    """Presentation for a block id; table-only blocks are rejected."""
    kind, args = parse_block_id(block)
    if kind == "H":
        return build_H(model, bound)
    if kind == "BO":
        return build_BO(model, args[0], bound)
    if kind == "BU":
        return build_BUn(model, args[0], bound)
    if kind == "BOp":
        return build_BOpn(model, args[0], bound)
    if kind == "BOh":
        return build_BOhtilde(model, args[0], bound)
    if kind == "Npow":
        return build_Npow(model, args[0], bound)
    if kind == "Mtilde":
        return build_Mtilde(model, bound)
    if kind == "Xalpha":
        return build_Xalpha(model, bound)
    if kind == "Xtilde":
        return build_Xtilde(model, bound)
    if kind == "XBU":
        return build_X_BU(model, args[0], bound)
    raise UnsupportedBlock(f"{block!r} has a dimension table but no presentation")


def block_table(
    model: FieldModel, block: str, wmax: int, dmax: int
) -> PoincareTable:
    """Poincare table for any block id, including the table-only ones."""
    kind, args = parse_block_id(block)
    if kind == "nbar":
        return nbar_table(model, wmax, dmax)
    if kind == "NpowBU":
        return npow_bu_table(model, args[0], args[1], wmax, dmax)
    pres = block_presentation(model, block, wmax + dmax)
    table = poincare_table(pres, wmax, dmax)
    if kind == "H":
        table = replace(table, class_gens=())
    elif kind == "BO" or (kind == "BOh" and args[0] % 2 == 0):
        n_u = args[0] if kind == "BO" else 2 * args[0]
        table = replace(
            table, class_gens=tuple(u_bidegree(i) for i in range(1, n_u + 1))
        )
    return table
