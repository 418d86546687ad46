import dataclasses
import random

import pytest

from subtle.bigraded import (
    CLASS,
    MODULE_GEN,
    Bidegree,
    Element,
    GenSpec,
    _dense_monomials,
    presentation_new,
    standard_monomials,
)
from subtle.errors import (
    BidegreeMismatch,
    ExceedsBound,
    InvalidModuleProduct,
    MissingRhoDesignation,
    UnknownDerivationValue,
    UnknownGenerator,
)
from subtle.gf2 import solve
from subtle.milnor import build_field_model
from subtle.parse import ParseError
from subtle.rings import (
    block_presentation,
    build_BO,
    build_BOpn,
    build_BUn,
    build_Npow,
)
from subtle.steenrod import (
    leibniz_offender,
    sq1_apply,
    sq1_check,
    sq1_define,
    sq1_presentation,
    sq1_solve,
)


def test_defaults_on_free_orthogonal_ring(real):
    bo4 = build_BO(real, 4, 12)
    der = sq1_define(bo4)
    assert sq1_apply(der, bo4.gen("u2")) == bo4.el("u3 + u1*u2")
    assert sq1_apply(der, bo4.gen("u3")) == bo4.el("u1*u3")
    assert sq1_apply(der, bo4.gen("u4")) == bo4.el("u1*u4")  # no u5 in rank 4
    assert sq1_apply(der, bo4.gen("tau")) == bo4.gen("rho")
    assert sq1_apply(der, bo4.gen("rho")).is_zero()


def test_unit_square_and_zero(real):
    bo2 = build_BO(real, 2, 10)
    der = sq1_define(bo2)
    assert sq1_apply(der, bo2.one()).is_zero()
    assert sq1_apply(der, bo2.zero()).is_zero()
    assert sq1_apply(der, bo2.el("u1^2")).is_zero()
    assert sq1_apply(der, bo2.el("tau^2")).is_zero()


def test_leibniz_random_pairs(real):
    bo3 = build_BO(real, 3, 14)
    der = sq1_define(bo3)
    samples = ["u1", "u2", "u3", "tau*u1", "rho + tau", "u1*u2 + tau*u3"]
    for a_raw in samples:
        for b_raw in samples:
            a, b = bo3.el(a_raw), bo3.el(b_raw)
            assert sq1_apply(der, a * b) == sq1_apply(der, a) * b + a * sq1_apply(der, b)


def _sq1_reference(der, el):
    # the term-by-term Leibniz expansion: one normal form and one sum per term
    pres = der.pres
    total = pres.zero()
    for mono in el.monomials:
        for idx, e in enumerate(mono):
            if e % 2 == 0:
                continue
            val = der.value(pres.names[idx])
            if val.is_zero():
                continue
            rest = list(mono)
            rest[idx] -= 1
            total = total + Element(pres, frozenset([tuple(rest)])) * val
    return total


def _random_element(rng, pres, wmax, dmax, module_part):
    # a random nonzero sum of standard monomials of one cell, all of them
    # module monomials or all module-free
    while True:
        w, d = rng.randint(0, wmax), rng.randint(0, dmax)
        basis = [
            m for m in standard_monomials(pres, w, d)
            if bool(pres.module_count(m)) == module_part
        ]
        if basis:
            picked = rng.sample(basis, rng.randint(1, len(basis)))
            return Element(pres, frozenset(picked))


@pytest.mark.parametrize("block", ["BO:3", "BOp:1", "Npow:2"])
def test_leibniz_random_elements(real, block):
    rng = random.Random(20250801)
    pres = block_presentation(real, block, 12)
    _, der = sq1_check(sq1_define(pres), 5, 5)
    checked = 0
    for _ in range(60):
        # in the module only one factor may carry a module generator
        a = _random_element(rng, pres, 5, 5, False)
        b = _random_element(rng, pres, 5, 5, pres.is_module and rng.random() < 0.5)
        for x in (a, b):
            assert sq1_apply(der, x) == _sq1_reference(der, x)
        if a.bidegree().total + b.bidegree().total + 1 > pres.truncation_bound:
            continue
        ab = a * b
        assert sq1_apply(der, ab) == _sq1_reference(der, ab)
        assert sq1_apply(der, ab) == sq1_apply(der, a) * b + a * sq1_apply(der, b)
        checked += 1
    assert checked >= 20


def test_module_product_guard(real):
    # Sq1(rho) set to a module monomial past sq1_define: rest * Sq1(rho) for
    # mu1*rho is the product mu1 * rho*mu1 of two module elements
    npow = build_Npow(real, 2, 8)
    der = sq1_define(npow, {"mu1": "0", "mu2": "0"}).with_values({"rho": npow.el("rho*mu1")})
    with pytest.raises(InvalidModuleProduct):
        sq1_apply(der, npow.el("mu1*rho"))


@pytest.mark.parametrize(
    "model_name, block, name, value",
    [
        ("real", "Npow:2", "rho", "rho*mu1"),
        ("real", "Npow:2", "tau", "tau*mu2"),
        ("finite_field", "Npow:2", "s", "mu1"),
        ("real", "Mtilde", "rho", "rho*mu"),
    ],
)
def test_module_value_for_a_ring_generator_is_named(model_name, block, name, value):
    # a ring generator takes ring values only: a module value is refused when
    # the derivation is defined, naming the generator and the value
    pres = block_presentation(build_field_model(model_name), block, 8)
    with pytest.raises(InvalidModuleProduct) as err:
        sq1_define(pres, {name: value})
    assert str(err.value) == f"value of {name} {value!r}: a module element, but {name} is a ring generator"


def test_value_bidegree_guard(real):
    bo2 = build_BO(real, 2, 10)
    with pytest.raises(BidegreeMismatch):
        sq1_define(bo2, {"u1": "u2"})


def test_missing_minus_one_designation(fq):
    bo2 = build_BO(fq, 2, 10)
    with pytest.raises(MissingRhoDesignation):
        sq1_define(bo2)


def test_finite_field_with_designation():
    model = build_field_model(
        {
            "builtin": "finite_field",
            "generators": ["s"],
            "relations": ["s^2"],
            "alpha": "s",
            "minus_one": "s",
        }
    )
    bo2 = build_BO(model, 2, 10)
    der = sq1_define(bo2)
    assert sq1_apply(der, bo2.gen("tau")) == bo2.gen("s")
    report, _ = sq1_check(der, 4, 4)
    assert report.ok


def test_unknown_value_raises_until_solved(real):
    bop1 = build_BOpn(real, 1, 12)
    der = sq1_define(bop1)
    assert der.unknown == ("v3",)
    with pytest.raises(UnknownDerivationValue):
        sq1_apply(der, bop1.gen("v3"))
    report, solved = sq1_check(der, 4, 4)
    assert report.ok
    assert sq1_apply(solved, bop1.gen("v3")) == bop1.el("u1*v3")


def test_solver_reports_constraint_solution(real):
    bop1 = build_BOpn(real, 1, 12)
    report, _ = sq1_check(sq1_define(bop1), 4, 4)
    rows = {name: (dim, val) for name, dim, val in report.unknowns}
    assert rows["v3"] == (0, "u1*v3")


def test_solver_on_unitary_ring(real):
    bu1 = build_BUn(real, 1, 12)
    report, solved = sq1_check(sq1_define(bu1), 4, 4)
    assert report.ok
    rows = {name: val for name, _, val in report.unknowns}
    assert rows["c1"] == "d1"
    assert rows["d1"] == "0"


def test_solver_on_power_module(real):
    npow = build_Npow(real, 2, 12)
    report, solved = sq1_check(sq1_define(npow), 4, 4)
    assert report.ok
    # the solved values must satisfy tau*mu_i relations; mu_1 picks up mu_2
    val = {name: v for name, _, v in report.unknowns}
    assert val["mu1"] == "mu2"


def _square_zero_on_box(der, wmax, dmax):
    pres = der.pres
    for w in range(wmax + 1):
        for d in range(dmax + 1):
            for m in standard_monomials(pres, w, d):
                el = Element(pres, frozenset([m]))
                if not sq1_apply(der, sq1_apply(der, el)).is_zero():
                    return False
    return True


def test_square_zero_on_boxes(real):
    # sq1_check certifies square-zero from generators; every monomial of the
    # box agrees, on blocks and on seeded solver presentations
    for block_builder, n in ((build_BO, 4), (build_BOpn, 1), (build_Npow, 2)):
        pres = block_builder(real, n, 12)
        report, solved = sq1_check(sq1_define(pres), 4, 4)
        assert report.descends and report.square_zero
        assert _square_zero_on_box(solved, 4, 4)
    rng = random.Random(20250815)
    certified = 0
    for module_gens, has_unit in ((0, True), (1, True), (2, False)):
        for trial in range(15):
            pres = _random_solver_presentation(rng, 10, module_gens, has_unit)
            report, solved = sq1_check(sq1_define(pres), 4, 4)
            if report.square_zero:
                assert _square_zero_on_box(solved, 4, 4), (trial, pres.gens, pres.relations)
                certified += 1
    assert certified >= 30


def test_square_zero_skips_generators_too_high_for_the_bound(real):
    # at bound 8 the default Sq1(u6) = u1*u6 (total 10) lies above the bound,
    # so the presentation is refused; at bound 10, u6 has total 9 > 10 - 2: its
    # Sq1(Sq1) is out of reach and not needed, since no monomial it divides
    # has total + 2 <= 10
    with pytest.raises(ExceedsBound, match="default value of u6"):
        sq1_define(block_presentation(real, "BO:6", 8))
    pres = block_presentation(real, "BO:6", 10)
    report, solved = sq1_check(sq1_define(pres), 3, 3)
    assert report.descends and report.square_zero
    assert _square_zero_on_box(solved, 3, 3)


def test_square_zero_offender_is_a_generator(real):
    # Sq1(u2) = tau*u1^3 descends on the free ring, but Sq1(Sq1(u2)) =
    # Sq1(tau)*u1^3 + tau*u1^4 is not 0
    pres = sq1_presentation(real, "BO:2", 3, 3)
    report, _ = sq1_check(sq1_define(pres, {"u2": "tau*u1^3"}), 3, 3)
    assert report.descends and not report.square_zero
    assert report.square_zero_offender == "u2"


def test_nonvanishing_witness(real):
    ring = block_presentation(real, "XBO:2", 12)
    der = sq1_define(ring)
    assert sq1_apply(der, ring.gen("mu")) == ring.el("mu^2")
    witness = sq1_apply(der, ring.el("mu*u2"))
    assert witness == ring.el("mu^2*u2 + mu*u1*u2")
    assert not witness.is_zero()
    # squares still die
    assert sq1_apply(der, sq1_apply(der, ring.gen("mu"))).is_zero()


def test_override_reruns_checks(real):
    bo2 = build_BO(real, 2, 12)
    der = sq1_define(bo2, {"u2": "0"})  # drop the default image
    report, _ = sq1_check(der, 3, 3)
    # free algebra: still descends, and square-zero survives this override
    assert report.descends


def test_expansion_with_odd_class_present(real):
    # with u3 in the ring the full Leibniz value keeps the u3 term; the
    # witness shape reappears after specializing u3 to 0
    ring = block_presentation(real, "XBO:3", 12)
    der = sq1_define(ring)
    full = sq1_apply(der, ring.el("mu*u2"))
    assert full == ring.el("mu^2*u2 + mu*u3 + mu*u1*u2")


def test_derivation_descriptor_file(tmp_path, real):
    import json

    from subtle.steenrod import load_derivation_descriptor

    bop1 = build_BOpn(real, 1, 12)
    path = tmp_path / "der.json"
    path.write_text(json.dumps({"values": {"v3": "u1*v3"}}), encoding="utf-8")
    der = load_derivation_descriptor(str(path), bop1)
    assert der.unknown == ()
    report, _ = sq1_check(der, 4, 4)
    assert report.ok

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"values": {"v3": "0"}}), encoding="utf-8")
    report_bad, _ = sq1_check(load_derivation_descriptor(str(wrong), bop1), 4, 4)
    assert not report_bad.descends


def test_override_accepts_element_of_another_presentation(real):
    # an override Element from another build of the block is carried over by
    # generator name, so Sq1 of it applies on this presentation
    bo2 = block_presentation(real, "BO:2", 10)
    foreign = block_presentation(real, "BO:2", 8).el("u1*u2")
    from_string = sq1_define(bo2, {"u2": "u1*u2"})
    from_element = sq1_define(bo2, {"u2": foreign})
    assert from_element.values["u2"].pres is bo2
    assert from_element.values == from_string.values
    assert sq1_apply(from_element, bo2.gen("u2")) == bo2.el("u1*u2")


def test_unknown_override_key_raises(real):
    bop1 = build_BOpn(real, 1, 12)
    with pytest.raises(UnknownGenerator, match="'zz'"):
        sq1_define(bop1, {"zz": "0"})


@pytest.mark.parametrize("value, error, message", [
    ("q^$", ParseError, "value of v3 'q^$': unexpected character '$' at position 2"),
    ("qq", UnknownGenerator, "value of v3 'qq': no generator named 'qq'"),
])
def test_unreadable_override_names_generator_and_text(real, value, error, message):
    with pytest.raises(error) as info:
        sq1_define(build_BOpn(real, 1, 12), {"v3": value})
    assert str(info.value).startswith(message)


def test_derivation_refuses_assignment(real):
    der = sq1_define(build_BOpn(real, 1, 12))
    with pytest.raises(dataclasses.FrozenInstanceError):
        der.values = {}
    # the values mapping is read-only too, so it cannot drift from unknown
    with pytest.raises(TypeError):
        der.values["u1"] = der.pres.zero()
    assert "u1" in dict(der.values)


THREE = {
    "name": "three", "generators": ["a", "b", "c"],
    "relations": ["a*b", "b^2+a*c"], "alpha": "a", "minus_one": "a",
}


@pytest.mark.parametrize(
    "model, block, w, d",
    [
        # c3*d1 + c1*d3 has total 13: Sq1 of it needs bound 14
        ("real", "BU:3", 2, 2),
        ("real", "BU:3", 4, 4),
        ("real", "BU:3", 5, 6),
        # b*v5 has total 9
        ("three", "BOp:2", 3, 3),
    ],
)
def test_sq1_presentation_fits_the_relations(model, block, w, d):
    pres = sq1_presentation(build_field_model(THREE if model == "three" else model), block, w, d)
    assert all(pres.poly_bidegree(r).total + 1 <= pres.truncation_bound for r in pres.relations)
    report, _ = sq1_check(sq1_define(pres), w, d)
    assert report.ok


def _value_candidates(pres, gen):
    # the standard monomials of gen's Sq1 cell that may occur in its value:
    # a class generator takes ring values only
    cell = gen.bidegree + Bidegree(0, 1)
    return [
        b for b in standard_monomials(pres, cell.w, cell.d)
        if gen.origin == MODULE_GEN or not pres.module_count(b)
    ]


def cell_coordinates(basis):
    index = {m: i for i, m in enumerate(basis)}
    return lambda poly: sum(1 << index[m] for m in poly)


def _sq1_solve_reference(der):
    # the system built from formal partial derivatives of each relation and
    # products multiplied out by hand, beside sq1_apply's own expansion.  A
    # relation at the bound has its rows one above it, where sq1_solve reads
    # them too, so the products are reduced without the bound check of `*`
    pres = der.pres

    def product(a, b):
        return pres.element_from_monomials(a.product_monomials(b))

    def partial(poly, idx):
        out = set()
        for mono in poly:
            if mono[idx] % 2 == 1:
                rest = list(mono)
                rest[idx] -= 1
                out ^= {tuple(rest)}
        return frozenset(out)

    col_meta, var_basis = [], {}
    for name in der.unknown:
        var_basis[name] = _value_candidates(pres, pres.gens[pres.index[name]])
        col_meta += [(name, b) for b in var_basis[name]]
    row_offset, target_bits = 0, 0
    col_bits = [0] * len(col_meta)
    for rel in pres.relations:
        rb = Element(pres, rel).bidegree()
        if rb is None:
            continue
        cell_basis = standard_monomials(pres, rb.w, rb.d + 1)
        coords = cell_coordinates(cell_basis)
        known = pres.zero()
        for idx, gname in enumerate(pres.names):
            part = partial(rel, idx)
            if part and gname not in der.unknown and not der.values[gname].is_zero():
                known = known + product(pres.element_from_monomials(part), der.values[gname])
        target_bits |= coords(known.monomials) << row_offset
        for ci, (gname, bmono) in enumerate(col_meta):
            part = partial(rel, pres.index[gname])
            if part:
                contrib = product(
                    pres.element_from_monomials(part), Element(pres, frozenset([bmono]))
                )
                col_bits[ci] ^= coords(contrib.monomials) << row_offset
        row_offset += len(cell_basis)
    particular, kernel = solve(col_bits, target_bits)
    if particular is None:
        return tuple((name, None, None) for name in der.unknown)
    rows, offset = [], 0
    for name in der.unknown:
        basis = var_basis[name]
        monos = {basis[i] for i in range(len(basis)) if particular >> (offset + i) & 1}
        rows.append((name, len(kernel), str(pres.element_from_monomials(monos))))
        offset += len(basis)
    return tuple(rows)


def _random_solver_presentation(rng, bound, module_gens, has_unit):
    # class generators only, so sq1_define leaves every generator unknown;
    # x0 has weight 0, and every relation sits one total below the bound, as
    # sq1_presentation keeps them, so Sq1 of it is certified
    degs = [(a, b) for a in range(4) for b in range(4) if a or b]
    gens = [GenSpec("x0", Bidegree(0, rng.randint(1, 3)), CLASS)]
    gens += [
        GenSpec(f"x{i}", Bidegree(*rng.choice(degs)), CLASS)
        for i in range(1, rng.randint(2, 4))
    ]
    gens += [
        GenSpec(f"m{i}", Bidegree(0, rng.randint(1, 3)), MODULE_GEN)
        for i in range(module_gens)
    ]
    rng.shuffle(gens)
    shell = presentation_new(gens, [], bound, has_unit=has_unit)
    rels = []
    for _ in range(rng.randint(1, 3)):
        a, b = rng.choice(gens).bidegree, rng.choice(gens).bidegree
        cell = _dense_monomials(shell, a.w + b.w, a.d + b.d, has_unit)
        if cell and (a + b).total < bound:
            rels.append(frozenset(rng.sample(cell, rng.randint(1, min(3, len(cell))))))
    return presentation_new(gens, rels, bound, has_unit=has_unit)


def _solver_rows(solver, der):
    try:
        return solver(der)
    except InvalidModuleProduct:
        return "two module factors"


@pytest.mark.parametrize(
    "module_gens, has_unit", [(0, True), (1, True), (2, False)], ids=["ring", "module", "no_unit"]
)
def test_solver_matches_partial_derivative_reference_random(module_gens, has_unit):
    rng = random.Random(20250801 + module_gens)
    solved = constrained = 0
    for trial in range(40):
        pres = _random_solver_presentation(rng, 10, module_gens, has_unit)
        der = sq1_define(pres)
        assert der.unknown == pres.names
        # every other trial, one generator that a relation holds to an odd
        # power gets a nonzero value, so that the target is not 0
        odd = sorted({i for rel in pres.relations for m in rel for i, e in enumerate(m) if e % 2})
        if trial % 2 and odd:
            gen = pres.gens[rng.choice(odd)]
            basis = _value_candidates(pres, gen)
            if basis:
                picked = rng.sample(basis, rng.randint(1, len(basis)))
                der = sq1_define(pres, {gen.name: Element(pres, frozenset(picked))})
        rows = _solver_rows(lambda d: sq1_solve(d)[1], der)
        # a class generator takes ring values only, so no product of two
        # module factors arises in the system
        assert rows != "two module factors", (trial, pres.gens, pres.relations)
        assert rows == _solver_rows(_sq1_solve_reference, der), (trial, pres.gens, pres.relations)
        solved += 1
        constrained += rows[0][1] is None or any(value != "0" for _, _, value in rows)
    assert solved >= 10 and constrained >= 1


@pytest.mark.parametrize("block", ["BU:2", "BOp:2", "Npow:2", "Mtilde", "Xtilde"])
def test_solver_matches_partial_derivative_reference_on_blocks(real, block):
    # known tau and u values give targets that are not 0
    der = sq1_define(block_presentation(real, block, 12))
    assert der.unknown
    assert sq1_solve(der)[1] == _sq1_solve_reference(der)


def _leibniz_all_pairs_offender(der, wmax, dmax):
    # Leibniz on every pair of standard monomials of the box whose product
    # stays inside the bound: the reference that leibniz_offender certifies
    # from generator products
    pres = der.pres
    monos = [
        Element(pres, frozenset([m]))
        for w in range(wmax + 1)
        for d in range(dmax + 1)
        for m in standard_monomials(pres, w, d)
    ]
    images = [(a, a.bidegree().total, sq1_apply(der, a)) for a in monos]
    for a, ta, sa in images:
        for b, tb, sb in images:
            if ta + tb + 1 > pres.truncation_bound:
                continue
            if sq1_apply(der, a * b) != sa * b + a * sb:
                return a, b
    return None


@pytest.mark.parametrize("block", ["BO:4", "BOp:1"])
def test_leibniz_all_pairs_on_criterion_8_box(real, block):
    pres = sq1_presentation(real, block, 5, 5)
    report, der = sq1_check(sq1_define(pres), 5, 5)
    assert report.ok
    assert _leibniz_all_pairs_offender(der, 5, 5) is None


def test_generator_leibniz_implies_all_pairs_random():
    # the soundness of criterion 8: whenever the generator products pass, so
    # does every pair of the box.  Solved derivations pass; some random
    # values break Leibniz.  The converse need not hold, since the generator
    # products reach outside the box.
    rng = random.Random(20250808)
    passed = failed = 0
    for trial in range(80):
        pres = _random_solver_presentation(rng, 10, 0, True)
        der, _ = sq1_solve(sq1_define(pres))
        if trial % 2 or der.unknown:
            values = {}
            for gen in pres.gens:
                basis = _value_candidates(pres, gen)
                picked = rng.sample(basis, rng.randint(min(1, len(basis)), len(basis)))
                values[gen.name] = Element(pres, frozenset(picked))
            der = sq1_define(pres, values)
        wmax, dmax = rng.randint(2, 4), rng.randint(2, 4)
        if leibniz_offender(der, wmax, dmax) is None:
            assert _leibniz_all_pairs_offender(der, wmax, dmax) is None, (
                trial, pres.gens, pres.relations, der.values
            )
            passed += 1
        else:
            failed += 1
    assert passed >= 20 and failed >= 5


def _leibniz_offender_reference(der, wmax, dmax):
    # the per-pair formulation: for every generator x of the box and standard
    # monomial c, Sq1 of the reduced product x*c against the right side
    # reduced once, each taken afresh
    pres = der.pres
    bound = pres.truncation_bound
    xs = []
    for gen in pres.gens:
        gb = gen.bidegree
        if gb.w <= wmax and gb.d <= dmax and gb.total + 1 <= bound:
            x = pres.gen(gen.name)
            limits = (2 * wmax - gb.w, 2 * dmax - gb.d, bound - 1 - gb.total)
            xs.append((limits, x, sq1_apply(der, x)))
    for w in range(2 * wmax + 1):
        for d in range(2 * dmax + 1):
            pairs = [(x, sx) for (mw, md, mt), x, sx in xs if w <= mw and d <= md and w + d <= mt]
            if not pairs:
                continue
            for m in standard_monomials(pres, w, d):
                c = Element(pres, frozenset([m]))
                sc = sq1_apply(der, c)
                for x, sx in pairs:
                    right = pres.reduce_poly(sx.product_monomials(c) ^ x.product_monomials(sc))
                    if sq1_apply(der, x * c).monomials != right:
                        return x, c
    return None


def _offender_or_error(check, der, wmax, dmax):
    try:
        return check(der, wmax, dmax)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


def _random_overrides(rng, pres):
    # a random value for every generator in half of the draws and for about
    # half of them in the other; tau always gets one on a model that names
    # no {-1} class, where its default is undefined
    share = rng.choice([0.5, 1.0])
    forced = () if pres.model is None or pres.model.minus_one_string else ("tau",)
    values = {}
    for gen in pres.gens:
        if gen.name in forced or rng.random() < share:
            basis = _value_candidates(pres, gen)
            picked = rng.sample(basis, min(rng.randint(1, 3), len(basis)))
            values[gen.name] = Element(pres, frozenset(picked))
    return values


def test_leibniz_offender_matches_the_per_pair_reference_random(real, fq):
    # the first offender, or the exception, of leibniz_offender is the per-pair
    # formulation's, on derivations of the blocks with random generator values
    # and of random presentations, solved or with unknowns left
    rng = random.Random(20250827)
    blocks = ["BO:4", "BOp:1", "BU:2", "BOp:2", "XBO:2", "Npow:2"]
    outcomes = {"offender": 0, "none": 0, "error": 0}
    for trial in range(400):
        if trial % 4 == 3:
            pres = _random_solver_presentation(rng, 10, rng.choice([0, 0, 1]), True)
        else:
            pres = sq1_presentation(rng.choice([real, fq]), rng.choice(blocks), 3, 3)
        der = sq1_define(pres, _random_overrides(rng, pres))
        if rng.random() < 0.25:
            der = sq1_solve(der)[0]
        wmax, dmax = rng.randint(2, 3), rng.randint(2, 3)
        got = _offender_or_error(leibniz_offender, der, wmax, dmax)
        want = _offender_or_error(_leibniz_offender_reference, der, wmax, dmax)
        assert got == want, (trial, pres.block_id, pres.gens, dict(der.values), wmax, dmax)
        kind = "none" if got is None else "error" if isinstance(got[0], type) else "offender"
        outcomes[kind] += 1
    assert outcomes["offender"] >= 100 and outcomes["none"] >= 30 and outcomes["error"] >= 10, outcomes
