import ast
import itertools
import random
import types
from collections import Counter
from operator import ge
from pathlib import Path

import pytest

from subtle import bigraded
from subtle.bigraded import (
    _dense_monomials,
    _in_cone,
    _mul_mono_poly,
    _monomials_of_bidegree,
    CLASS,
    MILNOR,
    MODULE_GEN,
    TAU,
    Bidegree,
    Element,
    GenSpec,
    IdealGens,
    cell_images,
    cell_maps,
    colon_ideal,
    groebner,
    normal_form,
    poincare_table,
    presentation_new,
    quotient,
    shared_tables,
    standard_monomials,
    table_tensor,
)
from subtle.errors import (
    BoundTooSmall,
    EmptyGeneratorNameClash,
    ExceedsBound,
    InvalidModuleProduct,
    NegativeBidegree,
    NonHomogeneousRelation,
    RelationLeavesModule,
    ShapeMismatch,
    SubtleError,
    UnknownGenerator,
    ZeroDivisorOfEverything,
)
from subtle.gf2 import RowSpace, kernel_of_map
from subtle.oracle import oracle_entry, oracle_table
from subtle.tables import PoincareTable
from dataclasses import replace


def h_real():
    return [
        GenSpec("rho", Bidegree(1, 1), MILNOR),
        GenSpec("tau", Bidegree(1, 0), TAU),
    ]


def bu1_real(bound=10):
    gens = h_real() + [
        GenSpec("c1", Bidegree(1, 2)),
        GenSpec("d1", Bidegree(1, 3)),
    ]
    return presentation_new(gens, ["tau*d1 + rho*c1"], bound)


def test_bidegree_printing():
    assert str(Bidegree(2, 3)) == "(2)[3]"
    assert Bidegree(1, 2) + Bidegree(0, 1) == Bidegree(1, 3)


def test_free_presentation_table():
    p = presentation_new(h_real(), [], 10)
    t = poincare_table(p, 4, 4)
    for w in range(5):
        for d in range(5):
            assert t.entry(w, d) == (1 if d <= w else 0)


def test_inhomogeneous_relation_rejected():
    with pytest.raises(NonHomogeneousRelation):
        presentation_new(h_real(), ["tau + rho"], 8)


def test_bound_too_small():
    with pytest.raises(BoundTooSmall):
        presentation_new(h_real(), ["rho^6"], 8)


def test_generator_name_validation():
    with pytest.raises(EmptyGeneratorNameClash):
        presentation_new([GenSpec("", Bidegree(1, 1), MILNOR)], [], 4)
    with pytest.raises(EmptyGeneratorNameClash):
        presentation_new(h_real() + h_real(), [], 4)


def test_negative_generator_bidegree_rejected():
    # a negative generator bidegree can make a cell infinite
    for b, origin in [(Bidegree(-1, 2), CLASS), (Bidegree(2, -1), CLASS), (Bidegree(0, -1), MODULE_GEN)]:
        with pytest.raises(NegativeBidegree, match="negative weight or degree"):
            presentation_new(h_real() + [GenSpec("x", b, origin)], [], 6)
    # zero weight and zero degree stay allowed
    gens = [GenSpec("u", Bidegree(0, 1)), GenSpec("v", Bidegree(1, 0))]
    p = presentation_new(gens, ["u*v"], 6)
    assert poincare_table(p, 2, 2) == oracle_table(p, 2, 2)


@pytest.mark.parametrize("origin", [CLASS, MODULE_GEN])
def test_zero_bidegree_generator_rejected(origin):
    # z^k sits in (0)[0] for every k: with z^2 = 0 the cell is span{1, z},
    # which both enumerators counted as 1
    z, x = GenSpec("z", Bidegree(0, 0), origin), GenSpec("x", Bidegree(1, 1))
    with pytest.raises(NegativeBidegree, match="a cell could be infinite"):
        presentation_new([z, x], ["z^2"] if origin == CLASS else [], 6)
    with pytest.raises(NegativeBidegree, match="a cell could be infinite"):
        bigraded.AlgebraPresentation((x, z), (), (), 6)


def test_milnor_generator_must_sit_on_diagonal():
    with pytest.raises(NonHomogeneousRelation):
        presentation_new([GenSpec("x", Bidegree(1, 2), MILNOR)], [], 4)


_MODULE_GENS = [
    GenSpec("x0", Bidegree(0, 1)),
    GenSpec("x1", Bidegree(1, 1)),
    GenSpec("m1", Bidegree(0, 1), MODULE_GEN),
]


@pytest.mark.parametrize(
    "gens, rels, bound, has_unit, error",
    [
        ([GenSpec("", Bidegree(1, 1), MILNOR)], [], 4, True, EmptyGeneratorNameClash),
        (h_real() + h_real(), [], 4, True, EmptyGeneratorNameClash),
        (h_real() + [GenSpec("x", Bidegree(-1, 2))], [], 6, True, NegativeBidegree),
        ([GenSpec("x", Bidegree(1, 2), MILNOR)], [], 4, True, NonHomogeneousRelation),
        (h_real(), ["tau + rho"], 8, True, NonHomogeneousRelation),
        (h_real(), ["rho^6"], 8, True, BoundTooSmall),
        (_MODULE_GENS, ["x1*m1 + x1*x0"], 8, False, RelationLeavesModule),
    ],
    ids=["empty-name", "duplicate-name", "negative", "milnor-off-diagonal",
         "inhomogeneous", "past-the-bound", "leaves-the-module"],
)
def test_a_presentation_is_checked_however_it_is_built(gens, rels, bound, has_unit, error, monkeypatch):
    # presentation_new, the constructor and dataclasses.replace of a valid
    # presentation refuse the same input with the same error, and
    # presentation_new refuses it before any completion
    def no_completion(*args):
        raise AssertionError("completion began before the checks")

    monkeypatch.setattr(bigraded, "_buchberger", no_completion)
    with pytest.raises(error) as new:
        presentation_new(gens, rels, bound, has_unit)
    monkeypatch.undo()
    valid_gens = gens if rels else h_real()
    polys = [presentation_new(valid_gens, [], 100).raw_to_poly(r) for r in rels]
    valid = presentation_new(valid_gens, [], bound)
    builds = [
        lambda: bigraded.AlgebraPresentation(gens, polys, (), bound, has_unit),
        lambda: replace(valid, gens=gens, relations=polys, has_unit=has_unit),
    ]
    for build in builds:
        with pytest.raises(error) as direct:
            build()
        assert str(direct.value) == str(new.value)


@pytest.mark.parametrize(
    "gens, error",
    [
        (h_real() + h_real(), EmptyGeneratorNameClash),
        (h_real() + [GenSpec("x", Bidegree(-1, 2))], NegativeBidegree),
        ([GenSpec("x", Bidegree(1, 2), MILNOR)], NonHomogeneousRelation),
    ],
    ids=["duplicate-name", "negative", "milnor-off-diagonal"],
)
def test_generators_are_checked_before_relations_are_read(gens, error):
    # bad generators and a relation naming no generator: completion and a
    # given basis both report the generators, not the unknown name
    for build in (
        lambda: presentation_new(gens, ["zz*rho"], 8),
        lambda: bigraded.AlgebraPresentation(gens, ["zz*rho"], (), 8),
    ):
        with pytest.raises(error):
            build()


def test_negative_power_is_refused(real):
    from subtle.rings import block_presentation

    c1 = block_presentation(real, "BU:1", 8).gen("c1")
    with pytest.raises(SubtleError, match="exponent -2"):
        c1 ** -2
    assert str(c1 ** 0) == "1" and c1 ** 2 == c1 * c1


def test_normal_form_relation(fq):
    p = bu1_real()
    assert p.el("tau*d1 + rho*c1").is_zero()
    assert p.el("tau*d1") == p.el("rho*c1")
    # F2 coefficients
    assert p.el("c1 + c1").is_zero()


def test_normal_form_free_monomial(real):
    from subtle.rings import build_BO

    bo3 = build_BO(real, 3, 10)
    assert str(bo3.el("u1*u2")) == "u1*u2"


def test_unknown_generator_in_element():
    p = bu1_real()
    with pytest.raises(UnknownGenerator):
        p.el("c2")


def test_exceeds_bound():
    p = bu1_real(bound=6)
    with pytest.raises(ExceedsBound):
        p.el("c1^4")


def test_groebner_single_binomial_is_basis():
    p = bu1_real()
    _, basis = groebner(p)
    assert [str(b) for b in basis] == ["tau*d1 + rho*c1"]


def test_groebner_zero_ideal():
    p = presentation_new(h_real(), [], 8)
    _, basis = groebner(p)
    assert basis == []


def test_groebner_finite_field_bu1():
    gens = [
        GenSpec("s", Bidegree(1, 1), MILNOR),
        GenSpec("tau", Bidegree(1, 0), TAU),
        GenSpec("c1", Bidegree(1, 2)),
        GenSpec("d1", Bidegree(1, 3)),
    ]
    p = presentation_new(gens, ["s^2", "s*d1", "tau*d1 + s*c1"], 10)
    basis = {str(b) for b in groebner(p)[1]}
    assert "tau*d1 + s*c1" in basis
    assert "s*d1" in basis


def test_groebner_bound_extension_monotone():
    p = bu1_real(bound=8)
    p2, _ = groebner(p, 12)
    assert p2.truncation_bound == 12
    assert groebner(p2, 8)[0] is p2  # smaller request returns cached


def test_poincare_entry_bu1():
    t = poincare_table(bu1_real(), 4, 4)
    assert t.entry(2, 3) == 1


def test_poincare_empty_presentation():
    p = presentation_new([], [], 8)
    t = poincare_table(p, 3, 3)
    assert t.entry(0, 0) == 1
    assert sum(c for _, _, c in t.cells()) == 1


def test_poincare_box_exceeds_bound():
    p = bu1_real(bound=6)
    with pytest.raises(ExceedsBound):
        poincare_table(p, 4, 4)


@pytest.mark.parametrize("rels", [[], ["tau*d1 + rho*c1"], ["c1^2", "tau*d1 + rho*c1"]])
def test_poincare_matches_dense_oracle(rels):
    gens = h_real() + [GenSpec("c1", Bidegree(1, 2)), GenSpec("d1", Bidegree(1, 3))]
    p = presentation_new(gens, rels, 12)
    assert poincare_table(p, 5, 5).same_entries(oracle_table(p, 5, 5))


def _naive_monomials(pres, w, d, include_unit_component=True):
    # every exponent vector under the per-generator caps, filtered afterwards;
    # itertools.product yields them in the lexicographic order of the engine
    caps = []
    for gw, gd in zip(pres.gen_w, pres.gen_d):
        caps.append(min(x // g for x, g in ((w, gw), (d, gd)) if g > 0))
    out = []
    for m in itertools.product(*(range(c + 1) for c in caps)):
        if pres.mono_bidegree(m) != Bidegree(w, d):
            continue
        mods = pres.module_count(m)
        if pres.is_module and (mods > 1 or (mods == 0 and not include_unit_component)):
            continue
        out.append(m)
    return out


def _random_gens(rng, module_gens=0):
    # bidegrees in [0,3]x[0,3] minus (0)[0]; zero-weight ones like u1 or mu
    # at (0)[1] included
    degs = [(a, b) for a in range(4) for b in range(4) if a or b]
    gens = [
        GenSpec(f"x{i}", Bidegree(*rng.choice(degs)), CLASS)
        for i in range(rng.randint(1, 4))
    ]
    gens += [
        GenSpec(f"m{i}", Bidegree(0, rng.randint(1, 3)), MODULE_GEN)
        for i in range(module_gens)
    ]
    rng.shuffle(gens)
    return gens


def test_monomial_enumeration_matches_naive_random():
    # An oracle table shares one enumeration memo across its cells, so each
    # cell is visited twice, in shuffled order, with both unit flags
    # interleaved, on a module presentation and on a ring with the same
    # generator bidegrees, alone and through one memo per presentation: a memo
    # keyed too coarsely drops or adds monomials, and one handing out its own
    # lists is changed by a caller that appends to them.
    rng = random.Random(20250801)
    for trial in range(40):
        module_gens = rng.choice([0, 0, 1, 2])
        gens = _random_gens(rng, module_gens)
        p = presentation_new(gens, [], 12)
        ring = presentation_new([replace(g, origin=CLASS) for g in gens], [], 12)
        expected = {
            (q, w, d, unit): _naive_monomials(q, w, d, unit)
            for q in (p, ring)
            for w in range(-1, 6)
            for d in range(-1, 6)
            for unit in (True, False)
        }
        visits = list(expected) * 2
        random.Random(trial).shuffle(visits)
        stores = {id(p): {}, id(ring): {}}
        for q, w, d, unit in visits:
            got = _dense_monomials(q, w, d, unit)
            assert got == expected[q, w, d, unit], (trial, gens, q.is_module, w, d, unit)
            got = _dense_monomials(q, w, d, unit, store=stores[id(q)])
            assert got == expected[q, w, d, unit], (trial, gens, q.is_module, w, d, unit, "memo")
            got.append(None)


def test_monomial_enumeration_edge_cells():
    p = presentation_new([], [], 4)
    assert _dense_monomials(p, 0, 0) == [()]
    assert _dense_monomials(p, 1, 0) == []
    gens = h_real() + [GenSpec("mu", Bidegree(0, 1), MODULE_GEN)]
    m = presentation_new(gens, [], 6)  # a module: mu is a MODULE_GEN
    assert _dense_monomials(m, 0, 0) == [(0, 0, 0)]
    assert _dense_monomials(m, 0, 0, include_unit_component=False) == []
    assert _dense_monomials(m, 0, 2) == []  # mu^2 is not a valid product
    assert _dense_monomials(m, -1, 1) == []


def test_mono_key_and_poly_bidegree_match_naive_random():
    rng = random.Random(5)
    for trial in range(40):
        module_gens = rng.choice([0, 0, 1, 2])
        gens = _random_gens(rng, module_gens)
        p = presentation_new(gens, [], 12)
        assert p.poly_bidegree(frozenset()) is None
        for _ in range(20):
            m = tuple(rng.randint(0, 3) for _ in gens)
            b = Bidegree(0, 0)
            for g, e in zip(gens, m):
                for _ in range(e):
                    b = b + g.bidegree
            assert p.mono_bidegree(m) == b, (trial, gens, m)
            assert p.mono_key(m) == (b.d, b.w, tuple(reversed(m))), (trial, gens, m)
            same = frozenset(_dense_monomials(p, b.w, b.d) + [m])
            assert p.poly_bidegree(same) == b, (trial, gens, m)
            # no generator sits in (0)[0], so raising an exponent moves the bidegree
            bigger = (m[0] + 1,) + m[1:]
            assert p.poly_bidegree(frozenset([m, bigger])) is None, (trial, gens, m)


def _random_presentation(rng, bound, max_rels=3):
    """A random homogeneous ring (two times in three) or module presentation."""
    module_gens = rng.choice([0, 0, 1])
    gens = _random_gens(rng, module_gens)
    shell = presentation_new(gens, [], bound)
    rels = []
    for _ in range(rng.randint(1, max_rels)):
        # a cell a product of two generators lands in, so rarely empty
        a, b = rng.choice(gens).bidegree, rng.choice(gens).bidegree
        cell = _dense_monomials(shell, a.w + b.w, a.d + b.d)
        if cell and (a + b).total <= bound:
            rels.append(frozenset(rng.sample(cell, rng.randint(1, min(3, len(cell))))))
    return presentation_new(gens, rels, bound)


def _random_cell_poly(rng, p, factors):
    """A few monomials of the cell a product of `factors` generators lands in,
    module monomials only in a module without a unit component."""
    cell = Bidegree(0, 0)
    for _ in range(factors):
        cell = cell + rng.choice(p.gens).bidegree
    monos = _dense_monomials(p, cell.w, cell.d, p.has_unit)
    return cell, frozenset(rng.sample(monos, min(len(monos), rng.randint(1, 3))))


def test_product_monomials_is_the_parity_of_products_random():
    # the raw product keeps each monomial product that arises an odd number
    # of times; small exponents over few generators make products coincide
    rng = random.Random(31)
    cancelled = 0
    for _ in range(300):
        p = presentation_new(_random_gens(rng), [], 12)

        def draw():
            n = rng.randint(0, 6)
            return frozenset(tuple(rng.randint(0, 2) for _ in p.gens) for _ in range(n))

        a, b = Element(p, draw()), Element(p, draw())
        counts = Counter(
            tuple(x + y for x, y in zip(ma, mb)) for ma in a.monomials for mb in b.monomials
        )
        odd = {m for m, c in counts.items() if c % 2}
        assert a.product_monomials(b) == odd, (a.monomials, b.monomials)
        cancelled += len(counts) - len(odd)
    assert cancelled >= 100


def test_poincare_matches_dense_oracle_random():
    # random homogeneous presentations, rings and modules alike
    rng = random.Random(7)
    for trial in range(40):
        p = _random_presentation(rng, 10)
        assert poincare_table(p, 5, 5) == oracle_table(p, 5, 5), (trial, p.gens, p.relations)


def _bound_30_presentation(rng):
    """A random ring or module, with or without a unit component, at bound
    30, with 2 to 4 relations: each a few monomials of the cell a product of
    2 to 4 generators lands in, of one kind (module monomials or monomials
    free of them) in a module without a unit component."""
    gens = _random_gens(rng, rng.choice([0, 0, 1]))
    shell = presentation_new(gens, [], 30)
    has_unit = not shell.is_module or rng.random() < 0.5
    rels, wanted = [], rng.randint(2, 4)
    while len(rels) < wanted:
        cell = Bidegree(0, 0)
        for _ in range(rng.randint(2, 4)):
            cell = cell + rng.choice(gens).bidegree
        monos = _dense_monomials(shell, cell.w, cell.d)
        if not monos:
            continue  # a product of a module generator with itself
        if not has_unit:
            kind = rng.choice(sorted({bool(shell.module_count(m)) for m in monos}))
            monos = [m for m in monos if bool(shell.module_count(m)) == kind]
        rels.append(frozenset(rng.sample(monos, rng.randint(1, min(3, len(monos))))))
    return presentation_new(gens, rels, 30, has_unit=has_unit)


def test_engine_matches_the_oracle_up_to_bound_30_random():
    # 200 draws, 8 cells each in (0..15)^2: cells of total degree up to 30
    # need the S-pairs of high total degree, which smaller boxes never read
    rng = random.Random(20250801)
    kinds = Counter()
    for trial in range(200):
        p = _bound_30_presentation(rng)
        for _ in range(8):
            w, d = rng.randint(0, 15), rng.randint(0, 15)
            got = len(standard_monomials(p, w, d))
            assert got == oracle_entry(p, w, d), (trial, p.gens, p.relations, p.has_unit, w, d)
        kinds[p.is_module, p.has_unit] += 1
    assert len(kinds) == 3 and min(kinds.values()) >= 20, kinds


def _oracle_presentations(rng):
    """Random rings and modules and their variants without a unit component."""
    for _ in range(30):
        p = _random_presentation(rng, 10, max_rels=6)
        yield p
        if p.is_module and _without_unit(p):
            yield _without_unit(p)


def test_oracle_table_equals_fresh_per_cell_entries_random():
    # oracle_table hands one enumeration memo to all its cells; each entry
    # equals a call with a memo of its own
    rng = random.Random(53)
    modules = no_unit = 0
    for p in _oracle_presentations(rng):
        fresh = tuple(tuple(oracle_entry(p, w, d) for d in range(7)) for w in range(7))
        assert oracle_table(p, 6, 6) == PoincareTable(6, 6, fresh), (p.gens, p.relations, p.has_unit)
        modules += p.is_module
        no_unit += not p.has_unit
    assert modules >= 10 and no_unit >= 5, (modules, no_unit)


def test_oracle_shares_no_code_with_the_walk():
    # the oracle checks the engine's counts only while it is independent of
    # them: neither its imports from bigraded nor any code object of its
    # enumerator, nested ones included, names a part of the walk
    from subtle import oracle

    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    names = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "bigraded"
        for alias in node.names
    }
    codes = [oracle._monomials_of_bidegree.__code__]
    while codes:
        code = codes.pop()
        names.update(code.co_names)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    walk = {"_walk", "_reach", "_walk_rules", "_reducer", "_gb_tests", "standard_monomials"}
    assert not names & walk, names & walk


def test_normal_form_idempotent_and_additive_random():
    rng = random.Random(13)
    for trial in range(30):
        p = _random_presentation(rng, 10)
        for _ in range(10):
            # mixed bidegrees on purpose: reduction is linear cell by cell
            a = _random_cell_poly(rng, p, 2)[1] ^ _random_cell_poly(rng, p, 3)[1]
            b = _random_cell_poly(rng, p, rng.randint(1, 3))[1]
            na, nb = p.reduce_poly(a), p.reduce_poly(b)
            assert p.reduce_poly(na) == na, (trial, p.gens, p.relations, a)
            assert p.reduce_poly(a ^ b) == na ^ nb, (trial, p.gens, p.relations, a, b)


def test_normal_form_multiplicative_random():
    rng = random.Random(17)
    checked = 0
    for trial in range(30):
        # more relations than elsewhere, so that completion has S-pairs to add
        p = _random_presentation(rng, 10, max_rels=6)
        for _ in range(10):
            ca, a = _random_cell_poly(rng, p, rng.randint(1, 2))
            cb, b = _random_cell_poly(rng, p, rng.randint(1, 2))
            if (ca + cb).total > p.truncation_bound:
                continue
            if p.is_module and any(map(p.module_count, a)) and any(map(p.module_count, b)):
                continue  # two module factors do not multiply
            raw = set()
            for ma in a:
                for mb in b:
                    raw ^= {tuple(x + y for x, y in zip(ma, mb))}
            ea, eb = p.element_from_monomials(a), p.element_from_monomials(b)
            assert p.element_from_monomials(raw) == ea * eb, (trial, p.gens, p.relations, a, b)
            checked += 1
    assert checked > 100


def test_standard_monomials_are_the_irreducible_monomials_random():
    rng = random.Random(19)
    for trial in range(30):
        p = _random_presentation(rng, 10)
        for w in range(6):
            for d in range(6):
                cell = _dense_monomials(p, w, d, p.has_unit)
                fixed = [m for m in cell if p.reduce_poly([m]) == {m}]
                assert standard_monomials(p, w, d) == sorted(
                    fixed, key=p.mono_key
                ), (trial, p.gens, p.relations, w, d)


def _assert_pruning_is_filtering(p, box=6):
    """Every cell of the box: the walk gives the dense enumeration under the
    presentation's own unit rule, filtered by the divisor records, in its own
    order."""
    for w in range(-1, box):
        for d in range(-1, box):
            full = _dense_monomials(p, w, d, p.has_unit)
            want = [m for m in full if bigraded._reducer(m, p._gb_tests) is None]
            got = _monomials_of_bidegree(p, w, d)
            assert sorted(got) == want, (p.gens, p.groebner, p.has_unit, w, d)


def test_pruned_enumeration_edge_cases():
    x, y = GenSpec("x", Bidegree(1, 1)), GenSpec("y", Bidegree(1, 2))
    mu, nu = GenSpec("mu", Bidegree(0, 1), MODULE_GEN), GenSpec("nu", Bidegree(0, 1), MODULE_GEN)
    cases = [
        # a basis holding 1: the leading monomial reads no generator
        ([x, y], ["1"], True),
        ([x], ["1"], True),
        ([], ["1"], True),
        ([x, y, mu], ["1"], True),
        # leading monomials on generator 0 alone, on the last alone, and on both
        ([x, y], ["x^2"], True),
        ([x, y], ["y^3"], True),
        ([x, y], ["x^2", "y^2", "x*y"], True),
        ([x, GenSpec("v", Bidegree(1, 1)), y], ["x*v + v^2", "v*y"], True),
        ([x], ["x^3"], True),
        # a ring keeps its unit whatever its has_unit flag says
        ([x, y], ["x^2"], False),
        # module generators: pairs that must match exactly
        ([x, mu], ["x*mu", "x^3"], True),
        ([mu, x, nu], ["x*mu + x*nu", "x^2*nu", "x^2"], True),
        ([mu, x, nu], ["x*mu", "nu"], False),
        ([x, mu, nu], ["x^2*mu + x^2*nu", "x^3*nu"], False),
        ([x, mu, nu], ["x^2", "mu"], False),
    ]
    for gens, rels, has_unit in cases:
        p = presentation_new(gens, rels, 12, has_unit=has_unit)
        _assert_pruning_is_filtering(p)
    # the leading monomial 1 leaves every cell empty, in a module too, where
    # 1 times the module generator joins the basis
    assert all(
        not standard_monomials(presentation_new([x, y], ["1"], 8), w, d)
        for w in range(5) for d in range(5)
    )
    m = presentation_new([x, y, mu], ["1"], 8)
    assert standard_monomials(m, 1, 2) == []
    assert standard_monomials(presentation_new([x, y, mu], ["x*mu"], 8), 1, 2) == [(0, 1, 0)]


def test_pruned_enumeration_is_filtering_random():
    rng = random.Random(43)
    modules = 0
    for _ in range(40):
        p = _random_presentation(rng, 10, max_rels=6)
        modules += p.is_module
        for q in filter(None, (p, p.is_module and _without_unit(p))):
            _assert_pruning_is_filtering(q, box=5)
    assert modules >= 10


def test_pruned_empty_states_are_never_flagged_dead():
    # cells that the relations empty are walked first; the same generators
    # without relations must still enumerate every monomial of every cell
    x, y = GenSpec("x", Bidegree(1, 1)), GenSpec("y", Bidegree(1, 2))
    t = GenSpec("t", Bidegree(1, 0))
    mu = GenSpec("mu", Bidegree(0, 1), MODULE_GEN)
    for gens, rels, has_unit in [
        ([x, t, y], ["x^2", "x*y", "y^2", "t*y", "t^2"], True),
        ([t, x, y], ["t", "x*y"], True),
        ([x, t, y, mu], ["x^2", "t*y", "x*mu", "t*mu", "y*mu"], True),
        ([x, t, y, mu], ["x*mu", "t*mu", "y^2*mu"], False),
    ]:
        p = presentation_new(gens, rels, 16, has_unit=has_unit)
        empty = 0
        for w in range(8):
            for d in range(8):
                empty += not standard_monomials(p, w, d) and bool(_naive_monomials(p, w, d, has_unit))
        assert empty >= 10, (gens, rels)
        free = presentation_new(gens, [], 16, has_unit=has_unit)
        for w in range(8):
            for d in range(8):
                for unit in (True, False):
                    want = _naive_monomials(free, w, d, unit)
                    assert _dense_monomials(free, w, d, unit) == want, (gens, rels, w, d, unit)


def test_module_relation_leaving_the_module_is_refused():
    # x1*m1 + x1*x0 would send x1*x0*m1 to x1*x0^2, outside the module
    gens = [
        GenSpec("x0", Bidegree(0, 1)),
        GenSpec("x1", Bidegree(1, 1)),
        GenSpec("m1", Bidegree(0, 1), MODULE_GEN),
    ]
    with pytest.raises(RelationLeavesModule, match="x1\\*m1"):
        presentation_new(gens, ["x1*m1 + x1*x0"], 8, has_unit=False)
    # with the unit component, and for relations wholly inside or wholly
    # outside the module, it stands
    assert presentation_new(gens, ["x1*m1 + x1*x0"], 8).relations
    assert len(presentation_new(gens, ["x0*m1", "x1^2"], 8, has_unit=False).relations) == 2


def _dense_reducer(p, m):
    """The dense divisor rule: index of the first leading monomial that m
    reaches in every exponent, matching it on every module generator in a
    module; None when there is none."""
    for k, lm in enumerate(map(p.lead_monomial, p.groebner)):
        if all(map(ge, m, lm)) and (
            not p.is_module or all(m[i] == lm[i] for i in p.module_idx)
        ):
            return k
    return None


def test_divisor_tests_match_the_dense_rule_random():
    rng = random.Random(29)
    zero_weight = modules = 0
    for trial in range(40):
        p = _random_presentation(rng, 10, max_rels=6)
        zero_weight += 0 in p.gen_w
        variants = [p]
        if p.is_module:
            modules += 1
            variants.append(_without_unit(p))
        for q in filter(None, variants):
            assert [t[4:] for t in q._gb_tests] == [(q.lead_monomial(g), g) for g in q.groebner]
            for w in range(6):
                for d in range(6):
                    cell = _dense_monomials(q, w, d, q.has_unit)
                    where = (trial, q.gens, q.groebner, q.has_unit, w, d)
                    for m in cell:
                        assert bigraded._reducer(m, q._gb_tests) == _dense_reducer(q, m), where + (m,)
                    kept = [m for m in cell if _dense_reducer(q, m) is None]
                    assert standard_monomials(q, w, d) == sorted(kept, key=q.mono_key), where
    assert zero_weight >= 10 and modules >= 10


def _assert_unique_reduced_basis(rng, q):
    """The basis of q is minimal and reduced, as ``_reducer`` decides, and
    completing the relations in shuffled order gives the same tuple."""
    tests = q._gb_tests
    where = (q.gens, q.relations, q.has_unit)
    for k, (_, _, _, _, lm, g) in enumerate(tests):
        # minimal: no other leading monomial divides this one
        assert bigraded._reducer(lm, tests[:k] + tests[k + 1:]) is None, where
        # reduced: no leading monomial divides another monomial
        assert all(bigraded._reducer(m, tests) is None for m in g - {lm}), where
    rels = list(q.relations)
    rng.shuffle(rels)
    again = presentation_new(q.gens, rels, q.truncation_bound, has_unit=q.has_unit)
    assert again.groebner == q.groebner, where


def _without_unit(p):
    """p without its unit component, or None when a relation of p mixes
    module monomials with monomials free of module generators, which a
    module without a unit component refuses, from ``presentation_new`` and
    from ``dataclasses.replace`` alike."""
    for r in p.relations:
        if 0 < sum(1 for m in r if p.module_count(m)) < len(r):
            with pytest.raises(RelationLeavesModule):
                presentation_new(p.gens, p.relations, p.truncation_bound, has_unit=False)
            with pytest.raises(RelationLeavesModule):
                replace(p, has_unit=False)
            return None
    return replace(p, has_unit=False)


def test_completion_returns_the_unique_reduced_basis_random():
    rng = random.Random(37)
    modules = without_unit = 0
    for _ in range(40):
        p = _random_presentation(rng, rng.randint(10, 12), max_rels=6)
        variants = [p]
        if p.is_module:
            modules += 1
            variants.append(_without_unit(p))
        for q in filter(None, variants):
            without_unit += not q.has_unit
            _assert_unique_reduced_basis(rng, q)
    assert modules >= 10 and without_unit >= 10


def test_completion_drops_a_relation_a_later_element_divides():
    # the S-pair of x*y + x^2 and y^2 reduces to x^3, which divides the
    # leading monomial of the earlier relation x^4 (mu*x^3 that of mu*x^4),
    # so the relation leaves the reduced basis
    x, y = GenSpec("x", Bidegree(1, 1)), GenSpec("y", Bidegree(1, 1))
    mu = GenSpec("mu", Bidegree(0, 1), MODULE_GEN)
    rng = random.Random(41)
    for gens, rels, want in [
        ([x, y], ["x*y + x^2", "y^2", "x^4"], ["x*y + x^2", "y^2", "x^3"]),
        (
            [x, y, mu],
            ["x*y + x^2", "y^2", "mu*x^4"],
            ["x*y + x^2", "y^2", "x*y*mu + x^2*mu", "y^2*mu", "x^3", "x^3*mu"],
        ),
    ]:
        p = presentation_new(gens, rels, 12)
        assert [str(Element(p, g)) for g in p.groebner] == want
        for q in (p, replace(p, has_unit=False)) if p.is_module else (p,):
            _assert_unique_reduced_basis(rng, q)


def _standard_monomials_reference(p, w, d):
    """The cell basis without the generator cone: every monomial of the cell,
    filtered by the dense divisor rule, in mono_key order."""
    cell = _dense_monomials(p, w, d, p.has_unit)
    return sorted((m for m in cell if _dense_reducer(p, m) is None), key=p.mono_key)


def _cone_presentations():
    from test_steenrod import _random_solver_presentation

    rng = random.Random(31)
    for _ in range(30):
        p = _random_presentation(rng, 10, max_rels=6)
        yield p
        if p.is_module and _without_unit(p):
            yield _without_unit(p)
    for module_gens, has_unit in [(0, True), (1, True), (2, False)] * 10:
        yield _random_solver_presentation(rng, 10, module_gens, has_unit)
    x = GenSpec("x", Bidegree(1, 2))
    yield presentation_new([GenSpec("t", Bidegree(2, 0)), GenSpec("u", Bidegree(0, 3))], [], 10)
    yield presentation_new(
        [GenSpec("t", Bidegree(1, 0)), GenSpec("mu", Bidegree(0, 1), MODULE_GEN)], [], 10
    )
    # all generators on one ray, as in a Milnor K-theory model
    milnor = [GenSpec(name, Bidegree(1, 1), MILNOR) for name in "abc"]
    yield presentation_new(milnor, ["a*b", "b^2 + a*c"], 10)
    yield presentation_new([x, GenSpec("y", Bidegree(2, 4))], ["x*y"], 10)
    yield presentation_new([], [], 10)


def test_standard_monomials_outside_the_generator_cone_random():
    # the cone rule returns [] before enumerating; on every cell of the box,
    # inside and outside the cone, the basis equals the filtered enumeration
    outside = 0
    for p in _cone_presentations():
        for w in range(-1, 8):
            for d in range(-1, 8):
                got = standard_monomials(p, w, d)
                assert got == _standard_monomials_reference(p, w, d), (p.gens, p.groebner, p.has_unit, w, d)
                outside += p._cone is not None and (
                    w * p._cone[0][1] > d * p._cone[0][0] or d * p._cone[1][0] > w * p._cone[1][1]
                )
    assert outside > 1000


def test_generator_cone_of_hand_built_presentations():
    cones = [p._cone for p in _cone_presentations()][-5:]
    assert cones == [
        ((2, 0), (0, 3)),
        ((1, 0), (0, 1)),
        ((1, 1), (1, 1)),
        ((1, 2), (1, 2)),
        None,
    ]


def test_extend_bound_keeps_the_smaller_box_random():
    rng = random.Random(23)
    for trial in range(20):
        p = _random_presentation(rng, 8, max_rels=6)
        big = p.extend_bound(12)
        assert big.truncation_bound == 12 and big.extend_bound(8) is big
        assert poincare_table(big, 4, 4) == poincare_table(p, 4, 4), (trial, p.gens, p.relations)
        assert poincare_table(big, 6, 2) == poincare_table(p, 6, 2), (trial, p.gens, p.relations)
        for _ in range(5):
            cell, a = _random_cell_poly(rng, p, 2)
            if cell.total <= 8:
                assert big.reduce_poly(a) == p.reduce_poly(a), (trial, p.gens, p.relations, a)


def test_normal_form_soundness_random():
    # nf(e*f) == nf(nf(e)*nf(f)) on random raw mixtures
    p = bu1_real(bound=22)
    rng = random.Random(11)
    names = ["rho", "tau", "c1", "d1"]
    for _ in range(40):
        def raw(max_factors):
            terms = []
            for _ in range(rng.randint(1, 3)):
                terms.append("*".join(rng.choice(names) for _ in range(rng.randint(1, max_factors))))
            return " + ".join(terms)

        e, f = raw(3), raw(2)
        prod_raw = f"({e})*({f})"
        assert p.el(prod_raw) == p.el(e) * p.el(f)


def test_determinism_bit_identical():
    a = bu1_real()
    b = bu1_real()
    assert a.groebner == b.groebner
    assert poincare_table(a, 4, 4) == poincare_table(b, 4, 4)


def test_quotient_monotone_and_trivial_cases():
    p = bu1_real()
    t = poincare_table(p, 4, 4)
    q = quotient(p, ["c1"])
    tq = poincare_table(q, 4, 4)
    for w, d, c in tq.cells():
        assert c <= t.entry(w, d)
    # quotient by nothing changes nothing
    assert poincare_table(quotient(p, []), 4, 4).same_entries(t)
    # quotient by the unit ideal kills everything
    zero_ring = quotient(p, ["1"])
    assert sum(c for _, _, c in poincare_table(zero_ring, 4, 4).cells()) == 0


def test_quotient_rejects_inhomogeneous():
    with pytest.raises(NonHomogeneousRelation):
        quotient(bu1_real(), ["tau + rho"])


def test_colon_ideal_examples():
    gens = [GenSpec("s", Bidegree(1, 1), MILNOR), GenSpec("tau", Bidegree(1, 0), TAU)]
    p = presentation_new(gens, ["s^2"], 12)
    assert [str(g) for g in colon_ideal(p, None, "s", 10).gens] == ["s"]

    free = presentation_new(h_real(), [], 12)
    assert colon_ideal(free, None, "rho", 10).gens == ()

    ideal = IdealGens(free, (free.el("rho"),), 10)
    assert [str(g) for g in colon_ideal(free, ideal, "1", 10).gens] == ["rho"]


def test_colon_ideal_keeps_one_of_mutually_redundant_generators(real):
    # each of two equal generators lies in the ideal of the other; the sweep
    # must not drop both
    p = real.presentation.extend_bound(10)
    assert str(colon_ideal(p, ["rho", "rho"], "1", 10)) == "(rho)"
    assert str(colon_ideal(p, ["rho", "rho^2"], "1", 10)) == "(rho)"


def _cell_rank(basis, polys) -> int:
    """The GF(2) rank of reduced polynomials of one cell over its basis."""
    index = {m: j for j, m in enumerate(basis)}
    return RowSpace([sum(1 << index[m] for m in poly) for poly in polys]).rank


def _colon_cases(rng, bound):
    """Random rings ``p`` with a generator off the diagonal, and the name of a
    generator ``f`` of total degree at most 4 that some relations multiply,
    so that (0 : f) is rarely 0."""
    while True:
        gens = _random_gens(rng)
        if len(gens) < 2 or all(g.bidegree.w == g.bidegree.d for g in gens):
            continue
        shell = presentation_new(gens, [], bound)
        f = rng.choice(gens)
        rels = []
        for _ in range(rng.randint(1, 3)):
            b = f.bidegree + rng.choice(gens).bidegree
            if b.total <= bound:
                cell = _dense_monomials(shell, b.w, b.d)
                rels.append(frozenset(rng.sample(cell, rng.randint(1, min(2, len(cell))))))
        p = presentation_new(gens, rels, bound)
        if f.bidegree.total <= 4 and not p.gen(f.name).is_zero():
            yield p, f.name


def _two_pass_colon(pres, base_gens, f, bound):
    """The colon ideal as computed before its membership sweeps were merged:
    the base generators kept first, then the kernel vectors in rising total
    degree, then a second pass dropping each generator that the kept earlier
    ones and the later ones span.  A reference for ``colon_ideal``."""
    f_el = pres.el(f)
    fb = f_el.bidegree()
    q = quotient(pres, [g.monomials for g in base_gens]) if base_gens else pres
    candidates = []
    top = bound - fb.total
    cells = ((w, d) for w in range(top + 1) for d in range(top - w + 1) if _in_cone(q, w, d))
    for _, _, basis, _, images in cell_maps(
        q, q, (fb.w, fb.d), cells, lambda m: q.reduce_poly(_mul_mono_poly(m, f_el.monomials))
    ):
        for combo in kernel_of_map(images):
            monos = {basis[i] for i in range(len(basis)) if combo >> i & 1}
            candidates.append(pres.element_from_monomials(monos))
    candidates.sort(key=lambda c: c.bidegree().total)
    chosen, current = list(base_gens), q
    for cand in candidates:
        if current.reduce_poly(cand.monomials):
            chosen.append(cand)
            current = quotient(pres, [g.monomials for g in chosen])
    reduced = []
    for i, g in enumerate(chosen):
        rest = [h.monomials for h in reduced + chosen[i + 1:]]
        if (quotient(pres, rest) if rest else pres).reduce_poly(g.monomials):
            reduced.append(g)
    return reduced


def test_colon_ideal_with_a_base_ideal_matches_two_passes_random():
    # one membership sweep over the base generators and the kernel vectors
    # together, in rising total degree, keeps the generators that the old
    # two passes kept, one or two random base generators each, and gives
    # them in rising total degree, base ones first within a degree; the old
    # passes put every base generator first, out of that order in some draws
    rng = random.Random(71)
    unsorted = 0
    for p, f in itertools.islice(_colon_cases(rng, 9), 150):
        bound = p.truncation_bound
        cells = [
            (w, d) for w in range(bound + 1) for d in range(bound + 1 - w)
            if (w or d) and standard_monomials(p, w, d)
        ]
        base = []
        for _ in range(rng.randint(1, 2)):
            basis = standard_monomials(p, *rng.choice(cells))
            base.append(p.element_from_monomials(rng.sample(basis, rng.randint(1, len(basis)))))
        got = colon_ideal(p, base, f, bound).gens
        want = _two_pass_colon(p, base, f, bound)
        where = (p.gens, p.groebner, f, [str(g) for g in base])
        assert Counter(g.monomials for g in got) == Counter(g.monomials for g in want), where
        totals = [g.bidegree().total for g in got]
        assert totals == sorted(totals), where
        order = [g.bidegree().total for g in want]
        unsorted += order != sorted(order)
    assert unsorted >= 10, unsorted


def test_colon_ideal_of_zero_is_the_kernel_random():
    # (0 : f) on random rings with a generator off the diagonal, where the
    # w-major sweep and rising total degree visit cells in different orders:
    # each generator times f is 0, none lies in the ideal of the others, in
    # every cell the colon certifies the generated ideal is the kernel of
    # multiplication by f, and the generators come in rising total degree,
    # then rising weight, an order the w-major one is not in some cases
    rng = random.Random(53)
    reordered = 0
    for p, f in itertools.islice(_colon_cases(rng, 9), 300):
        f_el = p.gen(f)
        fb = f_el.bidegree()
        gens = colon_ideal(p, None, f, p.truncation_bound).gens
        where = (p.gens, p.groebner, f)
        degrees = [g.bidegree() for g in gens]
        assert all((g * f_el).is_zero() for g in gens), where
        for i, g in enumerate(gens):
            others = [h.monomials for h in gens[:i] + gens[i + 1:]]
            assert (quotient(p, others) if others else p).reduce_poly(g.monomials), (where, str(g))
        top = p.truncation_bound - fb.total
        for w in range(top + 1):
            for d in range(top - w + 1):
                basis = standard_monomials(p, w, d)
                target = standard_monomials(p, w + fb.w, d + fb.d)
                times_f = [(Element(p, frozenset([m])) * f_el).monomials for m in basis]
                ideal = [
                    (Element(p, frozenset([m])) * g).monomials
                    for g, b in zip(gens, degrees)
                    for m in standard_monomials(p, w - b.w, d - b.d)
                ]
                kernel = len(basis) - _cell_rank(target, times_f)
                assert _cell_rank(basis, ideal) == kernel, (where, w, d)
        keys = [(b.total, b.w) for b in degrees]
        assert keys == sorted(keys), (where, keys)
        reordered += keys != sorted(keys, key=lambda k: (k[1], k[0] - k[1]))
    assert reordered >= 10, reordered
def test_cell_images_rows_over_the_target_basis():
    p = bu1_real()
    basis = standard_monomials(p, 2, 3)
    # the identity on one cell is the unit matrix
    assert cell_images(basis, basis, lambda m: [m]) == (len(basis), [1 << j for j in range(len(basis))])
    # multiplication by tau from (1)[3], spanned by d1: tau*d1 reduces to rho*c1
    tau = p.gen("tau")
    dim, rows = cell_images(
        standard_monomials(p, 1, 3), basis,
        lambda m: (Element(p, frozenset([m])) * tau).monomials,
    )
    (rho_c1,) = p.el("rho*c1").monomials
    assert (dim, rows) == (len(basis), [1 << basis.index(rho_c1)])
    # no items, or an empty target cell, give no rows
    assert cell_images([], standard_monomials(p, 0, 7), lambda m: [m]) == (0, [])


def _cell_maps_cases(rng):
    """(source, target, image factor) triples: each presentation mapped into
    itself and into a quotient by one random relation, by a module-free
    monomial factor of the shift's bidegree."""
    for p in _cone_presentations():
        for shift in [(0, 0), (0, 1), (1, 1), (2, 1)]:
            factors = [
                f for f in _dense_monomials(p, *shift)
                if not any(f[i] for i in p.module_idx)
            ]
            f = rng.choice(factors) if factors else None
            yield p, p, shift, f
            cell, poly = _random_cell_poly(rng, p, 2) if p.gens else (None, None)
            if poly and cell.total <= p.truncation_bound:
                yield p, quotient(p, [poly]), shift, f


def test_cell_maps_equal_per_cell_bases_and_images_random(monkeypatch):
    # cell_maps against standard_monomials and cell_images cell by cell, in
    # w-major and in total-degree order; when source is target, no cell is
    # enumerated twice in one sweep
    rng = random.Random(37)
    calls = []

    def counted(pres, w, d, *rest):
        calls.append((id(pres), w, d))
        return standard_monomials(pres, w, d, *rest)

    monkeypatch.setattr(bigraded, "standard_monomials", counted)
    same = quotients = zero_weight = modules = no_unit = 0
    for source, target, shift, f in _cell_maps_cases(rng):
        fits = source.truncation_bound - shift[0] - shift[1]
        box = [(w, d) for w in range(5) for d in range(5) if w + d <= fits]
        image = (lambda m: ()) if f is None else (
            lambda m: target.reduce_poly([tuple(a + b for a, b in zip(m, f))])
        )
        for cells in (box, sorted(box, key=lambda c: (c[0] + c[1], c[0]))):
            calls.clear()
            got = list(cell_maps(source, target, shift, cells, image))
            want = []
            for w, d in cells:
                basis = standard_monomials(source, w, d)
                tgt = standard_monomials(target, w + shift[0], d + shift[1])
                want.append((w, d, basis, *cell_images(basis, tgt, image)))
            where = (source.gens, source.groebner, source.has_unit, target.groebner, shift, f)
            assert got == want, where
            if source is target:
                assert len(calls) == len(set(calls)), where
        same += source is target
        quotients += source is not target
        zero_weight += 0 in source.gen_w
        modules += source.is_module and source.has_unit
        no_unit += not source.has_unit
    assert min(same, quotients, zero_weight, modules, no_unit) >= 20


def _shared_states_presentations(rng):
    """Random rings and modules, with and without a unit component, then the
    sources and targets of ``_cell_maps_cases``: quotients, zero-weight
    generators, Milnor-like rays."""
    for _ in range(30):
        p = _random_presentation(rng, 10, max_rels=6)
        yield p
        if p.is_module and _without_unit(p):
            yield _without_unit(p)
    seen = {}
    for source, target, _, _ in _cell_maps_cases(rng):
        for p in (source, target):
            if id(p) not in seen:
                seen[id(p)] = p  # held, so that no id is reused
                yield p


def count_builds(monkeypatch):
    """Wrap ``bigraded._walk`` so that the returned Counter counts each cell
    built into a sweep's dict, keyed (id of the dict, cell): a cell dropped
    and built again counts twice.  Each dict is kept, so no id is reused."""
    built = Counter()
    walk = bigraded._walk
    held = []

    def counted(pres, w, d, store):
        held.append(store)
        before = set(store)
        out = walk(pres, w, d, store)
        built.update((id(store), c) for c in set(store) - before)
        return out

    monkeypatch.setattr(bigraded, "_walk", counted)
    return built


def test_shared_states_sweep_equals_per_cell_bases_random(monkeypatch):
    # a sweep hands one dict to every cell, in w-major and in total-degree
    # order.  Every cell equals a fresh standard_monomials call and the
    # reference (unpruned enumeration, filtered densely); in w-major order, the
    # order of every sweep of the package, no cell is built twice in one
    # sweep, though the dict drops the cells no later cell reads; and after
    # each sweep the same generators without relations still enumerate every
    # monomial of every cell.
    rng = random.Random(47)
    box = [(w, d) for w in range(-1, 7) for d in range(-1, 7)]
    orders = (box, sorted(box, key=lambda c: (c[0] + c[1], c[0])))
    built = count_builds(monkeypatch)
    rings = modules = no_unit = zero_weight = dropped = 0
    for p in _shared_states_presentations(rng):
        where = (p.gens, p.groebner, p.has_unit)
        free = presentation_new(p.gens, [], p.truncation_bound, has_unit=p.has_unit)
        want = {(w, d): _standard_monomials_reference(p, w, d) for w, d in box}
        free_want = {(w, d): _dense_monomials(free, w, d, p.has_unit) for w, d in box}
        for cells in orders:
            built.clear()
            store = {}
            for w, d in cells:
                assert standard_monomials(p, w, d, store) == want[w, d], (where, cells[:2], w, d)
            if cells is box:
                assert max(built.values(), default=1) == 1, (where, cells[:2])
                dropped += len(built) - len(store) + 1
            for w, d in box:
                got = _dense_monomials(free, w, d, p.has_unit)
                assert got == free_want[w, d], (where, cells[:2], w, d)
        for w, d in box:
            assert standard_monomials(p, w, d) == want[w, d], (where, w, d)
        rings += not p.is_module
        modules += p.is_module and p.has_unit
        no_unit += not p.has_unit
        zero_weight += 0 in p.gen_w
    assert min(rings, modules, no_unit, zero_weight) >= 20, (rings, modules, no_unit, zero_weight)
    assert dropped >= 1000, dropped


def test_walk_seeds_each_module_component():
    # x1*x0*m0 is standard while x1*x0 is not: a module component is walked
    # from its own generator, not from the ring part of its monomials
    gens = [
        GenSpec("x1", Bidegree(3, 2)),
        GenSpec("x2", Bidegree(3, 0)),
        GenSpec("x0", Bidegree(2, 0)),
        GenSpec("m0", Bidegree(0, 2), MODULE_GEN),
    ]
    p = presentation_new(gens, ["x0^2", "x2*x0", "x2*x0*m0 + x1*x0", "x2*m0"], 12)
    assert [str(Element(p, frozenset([m]))) for m in standard_monomials(p, 5, 4)] == ["x1*x0*m0"]
    assert standard_monomials(p, 5, 2) == [] and oracle_entry(p, 5, 4) == 1
    assert poincare_table(p, 6, 6) == oracle_table(p, 6, 6)


def test_walk_fills_a_far_cell_without_recursion():
    p = presentation_new([GenSpec("u", Bidegree(0, 1))], [], 3000)
    assert standard_monomials(p, 0, 3000) == [(3000,)]


def test_coprime_criterion_skips_no_pair_with_a_module_tail():
    # x0*x3 + m0*x0*x1^2 and x1*x2 + m0*x1*x3 have coprime leading monomials
    # but module tails; their S-pair is needed: m0*x0*x1*x3^2 equals
    # r2*x0*x3 + r1*x1*x2 + r3*m0*x0*x1*x2 for the relations r1, r2, r3
    gens = [
        GenSpec("m0", Bidegree(0, 1), MODULE_GEN),
        GenSpec("x0", Bidegree(0, 3)),
        GenSpec("x1", Bidegree(1, 0)),
        GenSpec("x3", Bidegree(2, 1)),
        GenSpec("x2", Bidegree(2, 2)),
    ]
    p = presentation_new(gens, ["x0*x3 + m0*x0*x1^2", "x1*x2 + m0*x1*x3", "x1^2"], 12)
    assert standard_monomials(p, 5, 6) == [] and oracle_entry(p, 5, 6) == 0
    assert poincare_table(p, 6, 6) == oracle_table(p, 6, 6)


@pytest.fixture
def basis_calls(monkeypatch):
    """A list that each ``standard_monomials`` call appends its cell to."""
    calls = []

    def counted(pres, w, d, *rest):
        calls.append((w, d))
        return standard_monomials(pres, w, d, *rest)

    monkeypatch.setattr(bigraded, "standard_monomials", counted)
    return calls


def _assert_shared_tables_are_fresh(requests, basis_calls):
    """Inside one ``shared_tables`` scope, each (presentation, wmax, dmax) of
    ``requests``, in order, gets a table equal field for field to a count
    outside any scope.  Returns how many were served without a cell walked."""
    fresh = [poincare_table(p, w, d) for p, w, d in requests]
    served = 0
    with shared_tables():
        for (p, w, d), want in zip(requests, fresh):
            basis_calls.clear()
            got = poincare_table(p, w, d)
            assert got == want and got.class_gens is None and not got.clipped, (p.gens, p.groebner, p.has_unit, w, d)
            served += not basis_calls
    return served


def test_shared_tables_serve_repeats_smaller_boxes_and_other_bounds(real, fq, basis_calls):
    from subtle.rings import block_presentation

    bu2 = block_presentation(real, "BU:2", 11)
    at_16 = block_presentation(real, "BU:2", 16)  # the same staircase at another bound
    other_model = block_presentation(fq, "BU:2", 11)
    requests = [
        (bu2, 4, 7), (bu2, 4, 7),  # a repeat
        (bu2, 4, 5), (bu2, 0, 0), (bu2, 4, 0), (bu2, 0, 7),  # smaller boxes
        (bu2, 7, 3), (bu2, 3, 3), (bu2, 7, 3),  # a box not nested in the held one
        (at_16, 8, 8), (bu2, 5, 6), (at_16, 4, 7),
        (other_model, 4, 7), (other_model, 2, 2),
    ]
    assert _assert_shared_tables_are_fresh(requests, basis_calls) == 9


def test_shared_tables_keep_unit_and_module_structure_apart(basis_calls):
    # a module and its variant without a unit component, and generators equal
    # but for which is a module generator, share leading monomials (none
    # here) but not their counts
    gens = h_real() + [GenSpec("mu", Bidegree(0, 1), MODULE_GEN)]
    module = presentation_new(gens, ["tau*mu"], 10)
    ring = presentation_new([replace(g, origin=CLASS) for g in gens], ["tau*mu"], 10)
    for a, b in [(module, replace(module, has_unit=False)), (module, ring), (ring, module)]:
        assert poincare_table(a, 4, 4) != poincare_table(b, 4, 4)
        assert _assert_shared_tables_are_fresh([(a, 4, 4), (b, 4, 4), (b, 3, 2)], basis_calls) == 1


def test_shared_tables_serve_random_presentations(basis_calls):
    # seeded draws, their variants without a unit component and their twins
    # with a ring generator for the module one, asked for in shuffled boxes
    # inside one scope: every served table equals a fresh count
    rng = random.Random(61)
    requests = []
    for _ in range(30):
        p = _random_presentation(rng, 10, max_rels=4)
        variants = [p, presentation_new(p.gens, p.relations, 12, has_unit=p.has_unit)]
        if p.is_module:
            variants.append(_without_unit(p))
            ring_gens = [replace(g, origin=CLASS) for g in p.gens]
            variants.append(presentation_new(ring_gens, p.relations, 10))
        for q in filter(None, variants):
            for _ in range(3):
                w = rng.randint(0, q.truncation_bound)
                requests.append((q, w, rng.randint(0, q.truncation_bound - w)))
    rng.shuffle(requests)
    assert _assert_shared_tables_are_fresh(requests, basis_calls) >= 40


def test_tables_outside_a_scope_are_counted_afresh(basis_calls):
    p = bu1_real()
    for _ in range(2):
        basis_calls.clear()
        poincare_table(p, 4, 4)
        assert len(basis_calls) == 25
    with shared_tables():
        with shared_tables():  # a nested scope shares the outer one's tables
            poincare_table(p, 4, 4)
        basis_calls.clear()
        poincare_table(p, 3, 4)
        assert basis_calls == []
    poincare_table(p, 3, 4)
    assert len(basis_calls) == 20


def test_shared_tables_are_dropped_after_an_exception(basis_calls):
    p = bu1_real()
    with pytest.raises(ExceedsBound):
        with shared_tables():
            poincare_table(p, 4, 4)
            poincare_table(p, 8, 8)  # past the bound, checked before any lookup
    assert bigraded._TABLES.get() is None
    basis_calls.clear()
    poincare_table(p, 4, 4)
    assert len(basis_calls) == 25


def test_normal_form_and_printing_helpers():
    p = bu1_real()
    assert normal_form(p, "tau*d1") == p.el("rho*c1")
    assert str(GenSpec("c1", Bidegree(1, 2))) == "c1(1)[2]"
    # equal elements hash equal, so they collapse in a set
    assert len({p.el("tau*d1"), p.el("rho*c1"), p.el("c1")}) == 2


def test_colon_ideal_zero_divisor():
    gens = [GenSpec("s", Bidegree(1, 1), MILNOR), GenSpec("tau", Bidegree(1, 0), TAU)]
    p = presentation_new(gens, ["s^2"], 10)
    with pytest.raises(ZeroDivisorOfEverything):
        colon_ideal(p, None, "s^2", 8)


def test_colon_ideal_correctness_per_piece():
    # x*f in (I) iff x reduces to 0 modulo the colon ideal, exhaustively
    gens = [GenSpec("s", Bidegree(1, 1), MILNOR), GenSpec("tau", Bidegree(1, 0), TAU)]
    p = presentation_new(gens, ["s^2"], 12)
    result = colon_ideal(p, None, "s", 8)
    q = quotient(p, result)
    f = p.el("s")
    for w in range(4):
        for d in range(w + 1):
            basis = standard_monomials(p, w, d)
            for bits in range(1, 1 << len(basis)):
                monos = {basis[i] for i in range(len(basis)) if bits >> i & 1}
                x = p.element_from_monomials(monos)
                assert (x * f).is_zero() == (not q.reduce_poly(x.monomials))


def test_module_presentation_product_guard():
    gens = h_real() + [
        GenSpec("mu1", Bidegree(0, 1), MODULE_GEN),
        GenSpec("mu2", Bidegree(0, 2), MODULE_GEN),
    ]
    p = presentation_new(gens, [], 10)
    with pytest.raises(InvalidModuleProduct):
        _ = p.gen("mu1") * p.gen("mu2")
    with pytest.raises(InvalidModuleProduct):
        p.el("mu1*mu2")
    # ring scalar times module element is fine
    assert str(p.gen("tau") * p.gen("mu1")) == "tau*mu1"


def test_table_tensor_with_h_is_identity(real):
    from subtle.rings import block_table

    h = block_table(real, "H", 5, 5)
    free_c1 = replace(h, class_gens=(Bidegree(1, 2),))
    tensored = table_tensor(free_c1, h)
    direct = poincare_table(
        presentation_new(h_real() + [GenSpec("c1", Bidegree(1, 2))], [], 10), 5, 5
    )
    assert tensored.same_entries(direct)


def test_table_tensor_zero_generators(real):
    from subtle.rings import block_table

    h = block_table(real, "H", 5, 5)
    mtilde = block_table(real, "Mtilde", 5, 5)
    assert table_tensor(replace(h, class_gens=()), mtilde).same_entries(mtilde)


def test_table_tensor_module_factor(real):
    # convolution against u1-powers vs direct enumeration of the module
    from subtle.rings import block_table

    h = block_table(real, "H", 5, 5)
    free_u1 = replace(h, class_gens=(Bidegree(0, 1),))
    mtilde = block_table(real, "Mtilde", 5, 5)
    tensored = table_tensor(free_u1, mtilde)
    gens = h_real() + [
        GenSpec("u1", Bidegree(0, 1)),
        GenSpec("mu", Bidegree(0, 1), MODULE_GEN),
    ]
    direct = presentation_new(gens, ["tau*mu"], 10, has_unit=False)
    assert tensored.same_entries(poincare_table(direct, 5, 5))


def test_table_tensor_requires_metadata(real):
    from subtle.rings import block_table

    h = block_table(real, "H", 4, 4)
    plain = replace(h, class_gens=None)
    with pytest.raises(ShapeMismatch):
        table_tensor(plain, h)


def test_element_string_is_parseable_round_trip():
    p = bu1_real()
    e = p.el("tau^2*c1 + rho*c1 + d1")
    assert p.el(str(e)) == e
