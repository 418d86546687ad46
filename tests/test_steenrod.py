import random

import pytest

from subtle.bigraded import Element, standard_monomials
from subtle.errors import (
    BidegreeMismatch,
    InvalidModuleProduct,
    MissingRhoDesignation,
    UnknownDerivationValue,
)
from subtle.milnor import build_field_model
from subtle.rings import (
    block_presentation,
    build_BO,
    build_BOpn,
    build_BUn,
    build_Npow,
    build_xalpha_with_us,
)
from subtle.steenrod import sq1_apply, sq1_check, sq1_define


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
            m for m in standard_monomials(pres, w, d, True)
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
    # Sq1(rho) set to a module monomial: rest * Sq1(rho) for mu1*rho is the
    # product mu1 * rho*mu1 of two module elements
    npow = build_Npow(real, 2, 8)
    der = sq1_define(npow, {"rho": "rho*mu1", "mu1": "0", "mu2": "0"})
    with pytest.raises(InvalidModuleProduct):
        sq1_apply(der, npow.el("mu1*rho"))


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


def test_square_zero_on_boxes(real):
    for block_builder, n in ((build_BO, 4), (build_BOpn, 1)):
        pres = block_builder(real, n, 12)
        report, solved = sq1_check(sq1_define(pres), 4, 4)
        assert report.descends and report.square_zero
        for w in range(4):
            for d in range(4):
                for m in standard_monomials(pres, w, d, pres.has_unit):
                    el = Element(pres, frozenset([m]))
                    assert sq1_apply(solved, sq1_apply(solved, el)).is_zero()


def test_nonvanishing_witness(real):
    ring = build_xalpha_with_us(real, 2, 12)
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
    ring = build_xalpha_with_us(real, 3, 12)
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
