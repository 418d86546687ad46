import dataclasses
import json
import random
from pathlib import Path

import pytest

from subtle import bigraded
from subtle.bigraded import (
    Element,
    IdealGens,
    poincare_table,
    quotient,
    standard_monomials,
)
from subtle.errors import BidegreeMismatch, SubtleError, UnknownGenerator
from subtle.parse import ParseError
from subtle.gf2 import RowSpace
from subtle.maps import (
    Homomorphism,
    comp_kernel_ideal,
    comp_map,
    hom_compose,
    hom_define,
    hom_verify,
    identity_hom,
    kernel_match,
    load_map_descriptor,
    specialize_classes,
    twist_iso,
)
from subtle.milnor import build_field_model
from subtle.verify import check_twist
from subtle.rings import (
    block_presentation,
    block_table,
    build_BO,
    build_BOhtilde,
    build_BUn,
    build_X_BU,
    build_Xalpha,
)
from test_bigraded import _random_presentation


def _apply_reference(h, el):
    """Image by substitution: each generator power built by repeated
    multiplication, one reduction per factor, then the GF(2) sum."""
    if el.pres is not h.source:
        raise SubtleError("element does not belong to the source")
    total = h.target.zero()
    for mono in el.monomials:
        term = h.target.one()
        for name, e in zip(h.source.names, mono):
            if e:
                term = term * h.image_of(name) ** e
        total = total + term
    return total


def _random_sums(rng, pres, bound, count):
    """Random sums of standard monomials from cells of total degree <= bound."""
    cells = [(w, d) for w in range(bound + 1) for d in range(bound + 1 - w)]
    out = []
    while len(out) < count:
        monos = set()
        for _ in range(rng.randint(1, 3)):
            basis = standard_monomials(pres, *rng.choice(cells))
            monos ^= set(rng.sample(basis, min(len(basis), rng.randint(1, 3))))
        if monos:
            out.append(Element(pres, frozenset(monos)))
    return out


def _assert_apply_matches_reference(rng, h, count, tag):
    bound = min(h.source.truncation_bound, h.target.truncation_bound)
    sums = _random_sums(rng, h.source, bound, count)
    # visit twice in different orders: a memo entry must not depend on what
    # was asked before it
    for el in sums + sums[::-1]:
        assert h.apply(el) == _apply_reference(h, el), (tag, str(el))


def _random_hom(rng, bound):
    """A map from a random presentation to a random ring presentation: each
    generator goes to a random sum of standard monomials of its bidegree,
    or to 0."""
    source = _random_presentation(rng, bound)
    target = _random_presentation(rng, bound)
    while target.is_module:
        target = _random_presentation(rng, bound)
    images = {}
    for gen in source.gens:
        basis = standard_monomials(target, gen.bidegree.w, gen.bidegree.d)
        k = rng.randint(0, min(len(basis), 3))
        images[gen.name] = Element(target, frozenset(rng.sample(basis, k)))
    return hom_define(source, target, images, "random")


def _per_bidegree_reference(h, wmax, dmax):
    """(w, d, rank, src, tgt) rows: each basis monomial wrapped in an Element,
    sent through apply, and its image's coordinates added to a RowSpace."""
    rows = []
    for w in range(wmax + 1):
        for d in range(dmax + 1):
            src_basis = standard_monomials(h.source, w, d)
            tgt_basis = standard_monomials(h.target, w, d)
            index = {m: i for i, m in enumerate(tgt_basis)}
            space = RowSpace()
            for m in src_basis:
                img = h.apply(Element(h.source, frozenset([m])))
                space.add(sum(1 << index[t] for t in img.monomials))
            rows.append((w, d, space.rank, len(src_basis), len(tgt_basis)))
    return tuple(rows)


def test_hom_verify_columns_are_the_block_tables(real, fq):
    # the src and tgt columns of hom_verify are the block tables of the
    # map's source and target at the same box
    three = build_field_model(str(Path(__file__).resolve().parents[1] / "bench" / "three.json"))
    w, d = 5, 4
    for model in (real, fq, three):
        maps = [comp_map(model, n, w + d) for n in (1, 2, 3)]
        maps += [twist_iso(model, n, w + d) for n in (1, 2)]
        for h in maps:
            src = block_table(model, h.source.block_id, w, d)
            tgt = block_table(model, h.target.block_id, w, d)
            rows = hom_verify(h, w, d).per_bidegree
            assert [(ww, dd, s, t) for ww, dd, _, s, t in rows] == [
                (ww, dd, src.entry(ww, dd), tgt.entry(ww, dd)) for ww, dd, _ in src.cells()
            ], (model.tag, h.label)


def test_hom_verify_ranks_match_reference_on_named_maps(real, fq):
    for model in (real, fq):
        maps = [comp_map(model, n, 10) for n in (1, 2, 3)]
        maps += [twist_iso(model, n, 10) for n in (1, 2)]
        for h in maps:
            rep = hom_verify(h, 5, 5)
            assert rep.ok, (model.tag, h.label)
            assert rep.per_bidegree == _per_bidegree_reference(h, 5, 5), (model.tag, h.label)


def test_hom_verify_ranks_match_reference_random():
    rng = random.Random(37)
    checked = 0
    for trial in range(40):
        h = _random_hom(rng, 8)
        rep = hom_verify(h, 4, 4)
        if rep.ok:  # a random map need not be well defined
            assert rep.per_bidegree == _per_bidegree_reference(h, 4, 4), trial
            checked += 1
    assert checked >= 30


def test_homomorphism_refuses_assignment(real):
    h = identity_hom(build_BO(real, 2, 10))
    hom_verify(h, 3, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.label = "other"
    with pytest.raises(TypeError):
        h.images["u1"] = h.target.zero()
    assert str(h.image_of("u1")) == "u1"


def test_homomorphism_rejects_image_outside_target(real):
    bo2 = build_BO(real, 2, 10)
    other = build_BO(real, 2, 12)
    images = {g.name: bo2.gen(g.name) for g in bo2.gens}
    images["u2"] = other.gen("u2")
    with pytest.raises(SubtleError, match="'u2'"):
        Homomorphism(bo2, bo2, images)


def test_apply_matches_reference_on_named_maps(real, fq):
    rng = random.Random(29)
    for model in (real, fq):
        maps = [comp_map(model, n, 10) for n in (1, 2, 3)]
        maps += [twist_iso(model, n, 10) for n in (1, 2)]
        # comp maps send u1 to 0
        assert any(img.is_zero() for img in maps[0].images.values())
        for h in maps:
            _assert_apply_matches_reference(rng, h, 25, (model.tag, h.label))


def test_apply_matches_reference_random():
    rng = random.Random(31)
    zero_images = 0
    for trial in range(40):
        h = _random_hom(rng, 8)
        zero_images += sum(img.is_zero() for img in h.images.values())
        _assert_apply_matches_reference(rng, h, 15, trial)
    assert zero_images


def test_compose_images_match_reference(real, fq):
    for model in (real, fq):
        for n in (1, 2):
            t = twist_iso(model, n, 10)
            again = hom_compose(t, t)
            for name, img in t.images.items():
                assert again.image_of(name) == _apply_reference(t, img)


def test_identity_hom_verifies(real):
    bo2 = build_BO(real, 2, 10)
    rep = hom_verify(identity_hom(bo2), 4, 4)
    assert rep.well_defined and rep.surjective_on_box and rep.injective_on_box


def test_bidegree_guard(real):
    bo2 = build_BO(real, 2, 10)
    bu2 = build_BUn(real, 2, 10)
    images = {"rho": "rho", "tau": "tau", "u1": "c1", "u2": "c1"}
    with pytest.raises(BidegreeMismatch):
        hom_define(bo2, bu2, images)


def test_missing_image_rejected(real):
    bo2 = build_BO(real, 2, 10)
    with pytest.raises(UnknownGenerator):
        hom_define(bo2, bo2, {"rho": "rho", "tau": "tau", "u1": "u1"})


@pytest.mark.parametrize("image, error, message", [
    ("c1^$", ParseError, "image of u2 'c1^$': unexpected character '$' at position 3"),
    ("zz", UnknownGenerator, "image of u2 'zz': no generator named 'zz'"),
])
def test_unreadable_image_names_generator_and_text(real, image, error, message):
    bo2 = build_BO(real, 2, 10)
    bu2 = build_BUn(real, 2, 10)
    with pytest.raises(error) as info:
        hom_define(bo2, bu2, {"rho": "rho", "tau": "tau", "u1": "0", "u2": image})
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("n,expected", [
    (1, {"u1": "0", "u2": "c1", "v3": "d1"}),
    (2, {"u1": "0", "u2": "c1", "u3": "d1", "u4": "c2"}),
    (3, {"u1": "0", "u2": "c1", "u3": "d1", "u4": "c2", "u5": "0", "u6": "c3", "v7": "d3"}),
])
def test_comp_map_images(real, n, expected):
    h = comp_map(real, n, 16)
    got = {
        k: str(v) for k, v in h.images.items() if k.startswith(("u", "v"))
    }
    assert got == expected


def test_comp_map_well_defined_and_surjective(real, fq):
    for model in (real, fq):
        for n in (1, 2, 3):
            rep = hom_verify(comp_map(model, n, 12), 5, 5)
            assert rep.well_defined, (model.tag, n)
            assert rep.surjective_on_box, (model.tag, n)


def test_comp_map_surjective_full_box(real, fq):
    for model in (real, fq):
        rep = hom_verify(comp_map(model, 3, 16), 8, 8)
        assert rep.surjective_on_box and not rep.injective_on_box


def test_corrupted_images_rejected_with_relation(real):
    src = build_BOhtilde(real, 1, 10)
    tgt = build_BUn(real, 1, 10)
    images = {"rho": "rho", "tau": "tau", "u1": "0", "u2": "c1", "v3": "0"}
    h = hom_define(src, tgt, images)
    rep = hom_verify(h, 4, 4)
    assert not rep.well_defined and not rep.ok
    assert rep.offending_relation == "tau*v3 + rho*u2"


def test_kernel_match_both_models(real, fq):
    for model in (real, fq):
        for n in (1, 2):
            h = comp_map(model, n, 12)
            ideal = comp_kernel_ideal(model, n, 12)
            rep = kernel_match(h, ideal, 6, 6)
            assert rep.ok, (model.tag, n, rep.render_text())


def test_kernel_ideal_shapes(real, fq):
    gens = [str(g) for g in comp_kernel_ideal(real, 2, 12).gens]
    assert gens == ["u1", "tau*u3 + rho*u2"]
    gens_q = [str(g) for g in comp_kernel_ideal(fq, 2, 12).gens]
    assert gens_q == ["u1", "tau*u3 + s*u2", "s*u3"]
    gens3 = [str(g) for g in comp_kernel_ideal(real, 3, 16).gens]
    assert "u5" in gens3
    assert any("v7" in g and "u2" in g for g in gens3)  # the mixed pair relation


def test_kernel_negative_control(real):
    h = comp_map(real, 2, 10)
    bad = IdealGens(h.source, (h.source.el("u2"),), 10)
    rep = kernel_match(h, bad, 4, 4)
    assert not rep.ok
    assert not rep.generators_vanish


def test_kernel_match_names_the_offending_relation(real):
    # with tau sent to 0 the map is not well defined on tau*v3 + rho*u2, a
    # source relation, which is no generator of the ideal
    ideal = comp_kernel_ideal(real, 1, 6)
    h = comp_map(real, 1, 6)
    broken = hom_define(h.source, h.target, dict(h.images, tau="0"), h.label)
    rep = kernel_match(broken, ideal, 3, 3)
    assert not rep.ok
    assert rep.offending_relation == "tau*v3 + rho*u2"
    assert rep.nonvanishing_generator is None
    assert "offending relation: tau*v3 + rho*u2" in rep.render_text()
    assert "nonvanishing generator" not in rep.render_text()
    obj = rep.to_json_obj()
    assert obj["offending_relation"] == "tau*v3 + rho*u2"
    assert obj["nonvanishing_generator"] is None
    assert "offending_relation" not in kernel_match(h, ideal, 3, 3).to_json_obj()


def test_kernel_match_needs_the_ideal_in_the_map_source(real):
    # the ideal lives in the map's own source; comp:3's pair generator
    # v7*u2 + u3*u6 has total degree 13, so at bound 12 it is left out
    ideal = comp_kernel_ideal(real, 3, 12)
    assert ideal.pres is comp_map(real, 3, 12).source
    assert not any("v7" in str(g) and "u2" in str(g) for g in ideal.gens)
    with pytest.raises(SubtleError, match="does not belong to the map's source"):
        kernel_match(comp_map(real, 3, 14), ideal, 4, 4)
    assert kernel_match(comp_map(real, 3, 12), ideal, 4, 4).ok


def test_kernel_match_symmetry(real):
    # when the map is surjective and the kernel matches, the quotient table
    # equals the target table
    h = comp_map(real, 2, 12)
    ideal = comp_kernel_ideal(real, 2, 12)
    assert kernel_match(h, ideal, 6, 6).ok
    q = quotient(h.source, ideal)
    assert poincare_table(q, 6, 6).same_entries(poincare_table(h.target, 6, 6))


def test_twist_images_and_involution(real, fq):
    t = twist_iso(real, 2, 12)
    assert str(t.image_of("u1")) == "u1 + mu"
    assert str(t.image_of("u3")) == "u3 + mu*u2"
    assert str(t.image_of("u2")) == "u2"
    for model in (real, fq):
        for n in (1, 2):
            tw = twist_iso(model, n, 10)
            again = hom_compose(tw, tw)
            for g in tw.source.gens:
                assert again.image_of(g.name) == tw.source.gen(g.name)


def test_twist_bijective(real, fq):
    for model in (real, fq):
        rep = hom_verify(twist_iso(model, 1, 10), 4, 4)
        assert rep.well_defined and rep.surjective_on_box and rep.injective_on_box


def test_twist_reduces_nothing_above_its_bound(monkeypatch, real, fq):
    # pq:n is built at a bound that holds u_2n (total 3n), so criterion 5 and
    # pq:n at small boxes reduce no monomial above the stated bound, where a
    # truncated normal form is not exact
    above = []
    reduce_poly = bigraded.AlgebraPresentation.reduce_poly

    def checked(pres, poly):
        poly = set(poly)
        bound = pres.truncation_bound
        above.extend(m for m in poly if pres.mono_bidegree(m).total > bound)
        return reduce_poly(pres, poly)

    monkeypatch.setattr(bigraded.AlgebraPresentation, "reduce_poly", checked)
    for box in [(0, 0), (1, 1), (0, 2), (6, 6)]:
        assert check_twist(box).passed, box
    for model in (real, fq):
        for n in (1, 2, 3):
            for w, d in [(0, 0), (1, 1), (2, 0)]:
                t = twist_iso(model, n, w + d)
                assert hom_verify(t, w, d).well_defined
                hom_compose(t, t)
    assert not above, len(above)


def test_compose_well_defined(real):
    h = comp_map(real, 2, 10)
    composed = hom_compose(identity_hom(h.target), h)
    rep = hom_verify(composed, 4, 4)
    assert rep.well_defined and rep.surjective_on_box


def test_restriction_drops_top_classes(real, fq):
    # dropping c_n (and d_n for odd n) gives a surjection onto the smaller ring
    for model in (real, fq):
        for n in (2, 3):
            big = build_BUn(model, n, 12)
            small = build_BUn(model, n - 1, 12)
            images = {}
            for g in big.gens:
                if g.name in small.index:
                    images[g.name] = small.gen(g.name)
                else:
                    images[g.name] = small.zero()
            h = hom_define(big, small, images, f"restrict:{n}")
            rep = hom_verify(h, 5, 5)
            assert rep.well_defined and rep.surjective_on_box


def test_power_block_compares_into_colimit_ring(real, fq):
    # module generators land on powers of mu; the comparison is injective
    from subtle.rings import build_Npow

    for model in (real, fq):
        npow = build_Npow(model, 3, 10)
        xa = build_Xalpha(model, 10)
        mu = xa.gen("mu")
        images = {}
        for g in npow.gens:
            if g.name in xa.index:
                images[g.name] = xa.gen(g.name)
            else:
                images[g.name] = mu ** int(g.name[2:])
        h = hom_define(npow, xa, images, "powers-to-colimit")
        rep = hom_verify(h, 4, 4)
        assert rep.well_defined
        assert rep.injective_on_box


def test_specialize_all_zero_split(real):
    bu2 = build_BUn(real, 2, 10)
    xa = build_Xalpha(real, 10)
    h, rep = specialize_classes(bu2, {"c1": "0", "c2": "0", "d1": "0"}, xa)
    assert rep.well_defined
    assert rep.split_compatible is True
    assert rep.split_checked == ("c1", "c2")


def test_specialize_negative_control(real):
    bu1 = build_BUn(real, 1, 10)
    xa = build_Xalpha(real, 10)
    _, rep = specialize_classes(bu1, {"c1": "rho*mu", "d1": "0"}, xa)
    assert not rep.well_defined
    assert rep.first_failing == "tau*d1 + rho*c1"
    obj = rep.to_json_obj()
    assert obj["well_defined"] is False
    assert obj["relations"][0] == {
        "relation": "tau*d1 + rho*c1", "image": "rho^2*mu", "vanishes": False,
    }
    assert obj["split_criterion"] == {"checked_classes": ["c1"], "split_compatible": False}
    assert rep.render_text().splitlines() == [
        "specialization specialize",
        "  tau*d1 + rho*c1 -> rho^2*mu  [NONZERO]",
        "well_defined: False",
        "splitting criterion on {c1}: not split-compatible",
    ]


def test_specialize_accepts_element_of_another_presentation(real):
    bu1 = build_BUn(real, 1, 10)
    xa = build_Xalpha(real, 10)
    foreign = build_Xalpha(real, 12).el("rho*mu")
    _, from_string = specialize_classes(bu1, {"c1": "rho*mu", "d1": "0"}, xa)
    _, from_element = specialize_classes(bu1, {"c1": foreign, "d1": "0"}, xa)
    assert from_element == from_string
    assert from_element.relation_images[0][1] == "rho^2*mu"


def test_specialize_unknown_assignment_key_raises(real):
    bu1 = block_presentation(real, "BU:1", 10)
    h = block_presentation(real, "H", 10)
    with pytest.raises(UnknownGenerator, match="'zz'"):
        specialize_classes(bu1, {"c1": "0", "d1": "0", "zz": "rho"}, h)


def test_specialize_oddform_u_relations(real, fq):
    # odd-rank composite: u_{2i} -> c_i and u_{2i-1} -> mu*c_{i-1} for odd i,
    # 0 for even i; then u_{4j+1} = mu * u_{4j} and u_{4j+3} = 0 hold
    for model in (real, fq):
        n = 2
        bo = build_BO(model, 2 * n, 12)
        xbu = build_X_BU(model, n, 12)
        mu = xbu.gen("mu")
        images = {}
        for g in bo.gens:
            if g.name in xbu.index:
                images[g.name] = xbu.gen(g.name)
                continue
            k = int(g.name[1:])
            if k % 2 == 0:
                images[g.name] = xbu.gen(f"c{k // 2}")
            else:
                i = (k + 1) // 2
                if i % 2 == 1:
                    low = xbu.one() if i == 1 else xbu.gen(f"c{i - 1}")
                    images[g.name] = mu * low
                else:
                    images[g.name] = xbu.zero()
        h = hom_define(bo, xbu, images, "odd-form")
        assert hom_verify(h, 4, 4).well_defined  # free source: nothing to check
        # u1 = mu * u0 and u3 = 0
        assert h.image_of("u1") == mu
        assert h.image_of("u3").is_zero()
        assert h.image_of("u4") == xbu.gen("c2")


def test_map_descriptor_roundtrip(tmp_path, real):
    desc = {
        "source": "BOh:2",
        "target": "BU:2",
        "images": {"u1": "0", "u2": "c1", "u3": "d1", "u4": "c2"},
    }
    path = tmp_path / "comp2.json"
    path.write_text(json.dumps(desc), encoding="utf-8")
    h = load_map_descriptor(str(path), real, 12)
    rep = hom_verify(h, 5, 5)
    assert rep.well_defined and rep.surjective_on_box

    bad = {
        "source": "BOh:1",
        "target": "BU:1",
        "images": {"u1": "0", "u2": "c1", "v3": "0"},
    }
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad), encoding="utf-8")
    rep_bad = hom_verify(load_map_descriptor(str(bad_path), real, 12), 5, 5)
    assert not rep_bad.well_defined
    assert rep_bad.offending_relation == "tau*v3 + rho*u2"


def test_report_json_schema(real):
    rep = hom_verify(comp_map(real, 1, 10), 3, 3)
    obj = rep.to_json_obj()
    assert set(obj) >= {"well_defined", "per_bidegree"}
    assert all(len(row) == 5 for row in obj["per_bidegree"])
