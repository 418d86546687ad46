"""Builders for every cohomology ring and module block the artifact knows.

Block identifiers (CLI-facing; ``parse.parse_id`` reads them):

    H            coefficient ring: the Milnor model with tau adjoined
    BO:n         free algebra on subtle Stiefel-Whitney classes u_1..u_n
    BU:n         unitary classes c_i, d_j with the three relation families
    BOp:n        u_1..u_2n and v_{2n+1} with tau*v = alpha*u_2n
    BOh:n        BOp:n for n odd, free u_1..u_2n for n even
    Npow:m       H-module on mu_1..mu_m, tau*mu_i = alpha*mu_{i-1}
    Mtilde       one-diagonal module on mu
    Xtilde       modules mu_i on successive diagonals, i up to the requested bound
    Xalpha       ring with mu adjoined, tau*mu = alpha
    XBU:n        Xalpha freely extended by c_1..c_n
    XBO:n        Xalpha freely extended by u_1..u_n (both sides of the twist map)
    nbar         dimension table only: Ann part (H less Mtilde) plus a tau-shifted H part
    NpowBU:m:n   dimension table only: the direct-sum convolution

``_BUILT`` holds all the package's state that outlives a call, the builds
and one Ann(alpha) per model (``_ann_strings``), and ``clear()`` empties it.
Every block, ``BOh:n`` included, is built through ``_present`` under its
own id.  It looks a request up by its arguments, then by what the build is
made from, so requests that come to the same content share one completion,
whatever order their bounds come in.
``block_presentation`` only dispatches an id to its builder, and
``block_table`` is the one route from a block to its Poincare table; the
table-only blocks are sums and differences of block tables.

The bound rule, applied by ``_present`` alone: a block asked for at bound B
is built at the first bound >= B that holds its relations, with Ann(alpha)
read there, so it holds every relation of total degree up to the bound it
states, which may exceed B.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bigraded import (
    MILNOR,
    MODULE_GEN,
    TAU,
    AlgebraPresentation,
    Bidegree,
    GenSpec,
    IdealGens,
    PoincareTable,
    poincare_table,
    presentation_new,
)
from .errors import UnsupportedBlock
from .milnor import FieldModel, km_annihilator
from .parse import parse_id, parse_poly
from .tables import class_monomials, direct_sum


def h_gens(model: FieldModel) -> list[GenSpec]:
    gens = [GenSpec(name, Bidegree(1, 1), MILNOR) for name in model.generators]
    gens.append(GenSpec("tau", Bidegree(1, 0), TAU))
    return gens


def _require_alpha(model: FieldModel) -> str:
    if model.alpha_string is None:
        _ = model.alpha  # raises AlphaIsSquare with the model name
    return model.alpha_string


def _fit_bound(gens, polys, bound: int) -> int:
    """The bound raised to the largest total degree of a monomial of the
    parsed ``polys``, read from the totals of the generators they name (an
    unknown name is left for the presentation to refuse)."""
    total = {g.name: g.bidegree.total for g in gens}
    return max([bound] + [sum(total.get(n, 0) * e for n, e in m) for p in polys for m in p])


@dataclass(frozen=True)
class _Killed:
    """Stands for the relations (a)*name, a over the generators of Ann(alpha)
    read at the block's bound; ``_present`` expands it in place."""

    name: str


def _present(
    model: FieldModel, block_id: str, gens, rels, bound: int, has_unit: bool = True
) -> AlgebraPresentation:
    """The block over H: H's generators and relations, then the block's own
    ``gens`` and ``rels``; labelled with its model and block id.  A new
    request (looked up by its arguments) raises the bound while the relations
    outgrow it, reading Ann(alpha) again each time; this ends, as the
    generators are fixed and Ann(alpha) is finitely generated.  The build is
    then looked up by what it is made from, completed only if new, and kept
    under both keys in one dict: the arguments fix the build, as (model,
    bound) fixes each ``_Killed``'s expansion, and an argument key equals a
    content key only when ``rels`` holds no ``_Killed`` and the asked bound
    is the fitted one, and then both name the same build."""
    gens = h_gens(model) + gens
    asked = (model, block_id, tuple(gens), tuple(rels), bound, has_unit)
    if asked in _BUILT:
        return _BUILT[asked]
    killed = any(isinstance(r, _Killed) for r in rels)
    while True:
        anns = _ann_strings(model, bound) if killed else []
        expanded = list(model.relation_strings)
        for r in rels:
            expanded += [f"({a})*{r.name}" for a in anns] if isinstance(r, _Killed) else [r]
        polys = [parse_poly(r) for r in expanded]
        needed = _fit_bound(gens, polys, bound)
        if needed == bound:
            break
        bound = needed
    key = (model, block_id, tuple(gens), tuple(expanded), bound, has_unit)
    if key not in _BUILT:
        _BUILT[key] = presentation_new(gens, polys, bound, has_unit, model, block_id)
    _BUILT[asked] = _BUILT[key]
    return _BUILT[key]


def _ann_strings(model: FieldModel, bound: int) -> list[str]:
    """The generators of Ann({alpha}) of degree below the bound, as strings;
    the one reader of Ann(alpha), for blocks and kernel ideals.  ``_BUILT``
    keeps the ideal read at the largest bound asked so far per model, and a
    smaller bound takes its generators of degree below that bound: the ones
    a fresh ``km_annihilator`` returns, because:

    * the sweep's candidate sequence for the smaller bound is a prefix of
      the larger bound's: candidates come degree by degree, and those of
      degree k depend only on the cells of degrees k and k + 1;
    * truncated normal forms are exact below their bound, so those cells,
      their kernels and each membership test agree at both bounds;
    * the membership sweep keeps or drops a candidate by the ones before it
      alone.
    """
    key = (model, "Ann(alpha)")
    held = _BUILT.get(key)
    if held is None or held.degree_bound < 2 * bound:
        held = _BUILT[key] = km_annihilator(model, model.alpha, bound)
    return [str(g) for g in held.gens if g.bidegree().d < bound]


def build_H(model: FieldModel, bound: int = 16) -> AlgebraPresentation:
    """The coefficient ring: model generators plus tau at (1)[0]."""
    return _present(model, "H", [], [], bound)


def u_bidegree(i: int) -> Bidegree:
    return Bidegree(i // 2, i)


def _us(n: int) -> list[GenSpec]:
    """The classes u_1..u_n."""
    return [GenSpec(f"u{i}", u_bidegree(i)) for i in range(1, n + 1)]


def build_BO(model: FieldModel, n: int, bound: int = 16) -> AlgebraPresentation:
    """Free H-algebra on u_1..u_n, deg u_i = ([i/2])[i]."""
    return _present(model, f"BO:{n}", _us(n), [], bound)


def build_BUn(model: FieldModel, n: int, bound: int = 16) -> AlgebraPresentation:
    """Unitary classes: c_i at (i)[2i], d_j at (j)[2j+1] for odd j, modulo
    tau*d_j + alpha*c_j, Ann(alpha)*d_j and c_j'*d_j + c_j*d_j'."""
    gens = [GenSpec(f"c{i}", Bidegree(i, 2 * i)) for i in range(1, n + 1)]
    odd = [j for j in range(1, n + 1) if j % 2 == 1]
    gens += [GenSpec(f"d{j}", Bidegree(j, 2 * j + 1)) for j in odd]
    rels = []
    for j in odd:
        rels += [f"tau*d{j} + ({_require_alpha(model)})*c{j}", _Killed(f"d{j}")]
    rels += [f"c{jp}*d{j} + c{j}*d{jp}" for a, j in enumerate(odd) for jp in odd[a + 1:]]
    return _present(model, f"BU:{n}", gens, rels, bound)


def _bop(model: FieldModel, n: int) -> tuple[list[GenSpec], list]:
    """BOp:n's generators and relations: u_1..u_2n and v_{2n+1}, modulo
    tau*v + alpha*u_2n and Ann(alpha)*v."""
    v = f"v{2 * n + 1}"
    gens = _us(2 * n) + [GenSpec(v, Bidegree(n, 2 * n + 1))]
    return gens, [f"tau*{v} + ({_require_alpha(model)})*u{2 * n}", _Killed(v)]


def build_BOpn(model: FieldModel, n: int, bound: int = 16) -> AlgebraPresentation:
    """u_1..u_2n and v_{2n+1}, modulo tau*v + alpha*u_2n and Ann(alpha)*v."""
    if n < 1:
        raise UnsupportedBlock("BOp:0 is degenerate (v_1 with tau*v_1 + alpha); not built")
    return _present(model, f"BOp:{n}", *_bop(model, n), bound)


def build_BOhtilde(model: FieldModel, n: int, bound: int = 16) -> AlgebraPresentation:
    """Hyperbolic-or-shifted form: BOp:n's content for n odd, BO:2n's (free
    u_1..u_2n) for n even, built under its own id."""
    gens, rels = _bop(model, n) if n % 2 == 1 else (_us(2 * n), [])
    return _present(model, f"BOh:{n}", gens, rels, bound)


def _xalpha(model: FieldModel, block_id: str, free, bound: int) -> AlgebraPresentation:
    """Xalpha freely extended by the generators ``free``."""
    rels = [f"tau*mu + ({_require_alpha(model)})", _Killed("mu")]
    return _present(model, block_id, [GenSpec("mu", Bidegree(0, 1))] + free, rels, bound)


def build_Xalpha(model: FieldModel, bound: int = 16) -> AlgebraPresentation:
    """Ring with mu at (0)[1] adjoined: tau*mu = alpha, Ann(alpha)*mu = 0."""
    return _xalpha(model, "Xalpha", [], bound)


def build_Npow(model: FieldModel, m: int, bound: int = 16) -> AlgebraPresentation:
    """H-module on mu_1..mu_m with tau*mu_i = alpha*mu_{i-1} (mu_0 = 1)."""
    if m == 0:
        return build_H(model, bound)
    alpha = _require_alpha(model)
    gens = [GenSpec(f"mu{i}", Bidegree(0, i), MODULE_GEN) for i in range(1, m + 1)]
    rels = []
    for i in range(1, m + 1):
        prev = f"mu{i - 1}" if i > 1 else "1"
        rels += [f"tau*mu{i} + ({alpha})*{prev}", _Killed(f"mu{i}")]
    return _present(model, f"Npow:{m}", gens, rels, bound)


def _tau_torsion(model: FieldModel, block_id: str, mus, bound: int) -> AlgebraPresentation:
    """Module on the generators ``mus``, each killed by tau and by Ann(alpha)."""
    rels = [r for mu in mus for r in (f"tau*{mu.name}", _Killed(mu.name))]
    return _present(model, block_id, mus, rels, bound, has_unit=False)


def build_Mtilde(model: FieldModel, bound: int = 16) -> AlgebraPresentation:
    """Single-diagonal module: mu with tau*mu = 0 and Ann(alpha)*mu = 0."""
    return _tau_torsion(model, "Mtilde", [GenSpec("mu", Bidegree(0, 1), MODULE_GEN)], bound)


def build_Xtilde(model: FieldModel, bound: int = 16) -> AlgebraPresentation:
    """One diagonal copy per mu_i, 1 <= i <= max(bound, 1): the mu_i stop at
    the requested bound, and mu_1 keeps the block a module at bound 0."""
    mus = [GenSpec(f"mu{i}", Bidegree(0, i), MODULE_GEN) for i in range(1, max(bound, 1) + 1)]
    return _tau_torsion(model, "Xtilde", mus, bound)


def build_X_BU(model: FieldModel, n: int, bound: int = 16) -> AlgebraPresentation:
    """Xalpha freely extended by c_1..c_n."""
    free = [GenSpec(f"c{i}", Bidegree(i, 2 * i)) for i in range(1, n + 1)]
    return _xalpha(model, f"XBU:{n}", free, bound)


def build_xalpha_with_us(model: FieldModel, n_u: int, bound: int = 16) -> AlgebraPresentation:
    """Xalpha freely extended by u_1..u_{n_u}; both sides of the twist map."""
    return _xalpha(model, f"XBO:{n_u}", _us(n_u), bound)


# ----- dimension-table-only blocks --------------------------------------------


def nbar_table(model: FieldModel, wmax: int, dmax: int) -> PoincareTable:
    """Table of the inverse block: Ann part on the Milnor diagonal plus a
    tau-shifted copy of H (the grading convention recorded in the design).
    Mtilde is R/Ann(alpha) on mu at (0)[1], so dim Ann(alpha)_n reads
    H(n)[n] less Mtilde(n)[n+1]."""
    h = block_table(model, "H", wmax, dmax)
    k = min(wmax, dmax)
    mt = block_table(model, "Mtilde", k, k + 1)
    return PoincareTable.of(
        wmax, dmax,
        lambda w, d: (h.entry(w, w) - mt.entry(w, w + 1) if w == d else 0) + h.entry(w - 1, d),
    )


def npow_bu_table(
    model: FieldModel, m: int, n: int, wmax: int, dmax: int
) -> PoincareTable:
    """Direct-sum convolution: one shifted power-block table per c-monomial.

    The summand for c_1^{i_1}..c_n^{i_n} is the table of the (m + sum of odd
    i_l)-th power block, shifted by the monomial's bidegree; c_l sits at
    (l)[2l], so the odd classes are every other one from c_1.
    """
    monomials = class_monomials([Bidegree(l, 2 * l) for l in range(1, n + 1)], wmax, dmax)
    powers = [m + sum(e[0::2]) for e, _, _ in monomials]
    tables = {k: block_table(model, f"Npow:{k}", wmax, dmax) for k in dict.fromkeys(powers)}
    return direct_sum(wmax, dmax, ((tables[k], w, d) for k, (_, w, d) in zip(powers, monomials)))


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
    target = block_table(model, "Xalpha", wmax, dmax)
    top = dmax + 1
    tables = [block_table(model, f"Npow:{m}", wmax, dmax) for m in range(top + 1)]
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


# kind -> (number of integer parameters, builder or None for table-only kinds)
BLOCKS = {
    "H": (0, build_H),
    "BO": (1, build_BO),
    "BU": (1, build_BUn),
    "BOp": (1, build_BOpn),
    "BOh": (1, build_BOhtilde),
    "Npow": (1, build_Npow),
    "Mtilde": (0, build_Mtilde),
    "Xalpha": (0, build_Xalpha),
    "Xtilde": (0, build_Xtilde),
    "XBU": (1, build_X_BU),
    "XBO": (1, build_xalpha_with_us),
    "nbar": (0, None),
    "NpowBU": (2, None),
}

# the package's one process-wide cache (see the module docstring)
_BUILT: dict[tuple, AlgebraPresentation | IdealGens] = {}


def clear() -> None:
    """Empty the process-wide cache: every build and every Ann(alpha)."""
    _BUILT.clear()


def parse_block_id(block: str) -> tuple[str, tuple[int, ...]]:
    kind, args = parse_id(block, "block id", UnsupportedBlock)
    if kind not in BLOCKS or len(args) != BLOCKS[kind][0]:
        raise UnsupportedBlock(f"unknown block id {block!r}")
    return kind, args


def canonical_block_id(block: str) -> str:
    """The id as it is printed: parameters without leading zeros, so that
    ``BU:01`` reads ``BU:1``."""
    kind, args = parse_block_id(block)
    return ":".join([kind, *map(str, args)])


def block_presentation(model: FieldModel, block: str, bound: int = 16) -> AlgebraPresentation:
    """Presentation for a block id from its builder; table-only blocks are
    rejected.  ``_present`` shares the build: ids that differ only in leading
    zeros reach one, as the builders format the canonical id."""
    kind, args = parse_block_id(block)
    builder = BLOCKS[kind][1]
    if builder is None:
        raise UnsupportedBlock(f"{block!r} has a dimension table but no presentation")
    return builder(model, *args, bound)


def block_table(
    model: FieldModel, block: str, wmax: int, dmax: int
) -> PoincareTable:
    """Poincare table for any block id, including the table-only ones.

    The one route from a block to its table: a (wmax, dmax) table reads the
    block built at bound wmax + dmax.  Presentations come from the build
    cache; the counts are ``poincare_table``'s, fresh on every call outside
    a ``bigraded.shared_tables`` scope and shared by staircase inside one."""
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
