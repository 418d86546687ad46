import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from subtle import bigraded, rings
from subtle.bigraded import (
    Bidegree, Element, _dense_monomials, poincare_table, quotient, standard_monomials,
)
from subtle.errors import UnknownGenerator, UnsupportedBlock
from subtle.gf2 import RowSpace
from subtle.milnor import build_field_model, km_annihilator
from subtle.oracle import oracle_entry, oracle_table
from subtle.maps import comp_map, hom_verify, twist_iso
from subtle.steenrod import leibniz_offender, sq1_check, sq1_define, sq1_presentation, sq1_solve
from subtle.verify import ORACLE_BLOCKS
from subtle.rings import (
    block_presentation,
    block_table,
    build_BO,
    build_BOhtilde,
    build_BOpn,
    build_BUn,
    build_H,
    build_Mtilde,
    build_Npow,
    build_Xalpha,
    build_Xtilde,
    check_colimit,
    nbar_table,
    npow_bu_table,
    parse_block_id,
)


def test_build_H_all_models(real, fq, qc):
    assert [g.name for g in build_H(real).gens] == ["rho", "tau"]
    assert [g.name for g in build_H(fq).gens] == ["s", "tau"]
    assert [g.name for g in build_H(qc).gens] == ["tau"]
    t = block_table(qc, "H", 4, 4)
    for w in range(5):
        for d in range(5):
            assert t.entry(w, d) == (1 if d == 0 else 0)


def test_build_BO_generator_degrees(real):
    bo = build_BO(real, 4, 12)
    degs = {g.name: (g.bidegree.w, g.bidegree.d) for g in bo.gens}
    assert degs["u1"] == (0, 1)
    assert degs["u2"] == (1, 2)
    assert degs["u3"] == (1, 3)
    assert degs["u4"] == (2, 4)
    assert bo.relations == ()  # free over H for the real model


def test_bo4_cell_frozen_from_oracle(qc):
    # dense enumeration gives 5 monomials at (2)[4]: u4, u2^2, tau*u1*u3,
    # tau*u1^2*u2, tau^2*u1^4
    bo = build_BO(qc, 4, 10)
    assert oracle_entry(bo, 2, 4) == 5
    assert poincare_table(bo, 4, 4).entry(2, 4) == 5


def test_bu_relations(real, fq):
    bu = build_BUn(real, 1, 10)
    assert {str(Element(bu, r)) for r in bu.relations} == {"tau*d1 + rho*c1"}
    buq = build_BUn(fq, 1, 10)
    assert {str(Element(buq, r)) for r in buq.relations} == {
        "s^2", "tau*d1 + s*c1", "s*d1"
    }
    bu3 = build_BUn(real, 3, 16)
    rels = {str(Element(bu3, r)) for r in bu3.relations}
    assert "c1*d3 + c3*d1" in rels
    assert "tau*d3 + rho*c3" in rels


def test_bu0_is_H(real):
    assert [g.name for g in build_BUn(real, 0, 8).gens] == ["rho", "tau"]


def test_bop_relations(real, fq):
    bop = build_BOpn(real, 1, 10)
    assert {str(Element(bop, r)) for r in bop.relations} == {"tau*v3 + rho*u2"}
    bopq = build_BOpn(fq, 1, 10)
    assert {str(Element(bopq, r)) for r in bopq.relations} == {
        "s^2", "tau*v3 + s*u2", "s*v3"
    }
    degs = {g.name: (g.bidegree.w, g.bidegree.d) for g in bop.gens}
    assert degs["v3"] == (1, 3)


def test_bop_zero_flagged(real):
    with pytest.raises(UnsupportedBlock):
        build_BOpn(real, 0, 8)


def test_bohtilde_parity(real):
    even = build_BOhtilde(real, 2, 10)
    assert [g.name for g in even.gens] == ["rho", "tau", "u1", "u2", "u3", "u4"]
    assert even.relations == ()
    odd = build_BOhtilde(real, 1, 10)
    assert "v3" in odd.names
    zero = build_BOhtilde(real, 0, 8)
    assert [g.name for g in zero.gens] == ["rho", "tau"]


def test_bohtilde_leaves_cached_blocks_labelled(real):
    # BOh:n is built under its own id from BOp:n's / BO:2n's content; the
    # cached BOp:n / BO:2n keep their ids
    odd = build_BOhtilde(real, 1, 8)
    bop = build_BOpn(real, 1, 8)
    assert odd.block_id == "BOh:1" and bop.block_id == "BOp:1"
    assert odd.groebner == bop.groebner and odd.names == bop.names
    even = build_BOhtilde(real, 2, 8)
    assert even.block_id == "BOh:2" and build_BO(real, 4, 8).block_id == "BO:4"
    report, _ = sq1_check(sq1_define(bop), 3, 3)
    assert "BOp:1" in report.render_text()
    assert "BOh:1" not in report.render_text()


def _counting_builds(monkeypatch) -> list:
    """The presentations ``rings`` completes from here on, in order."""
    made = []
    new = rings.presentation_new

    def counted(*args, **kwargs):
        made.append(new(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(rings, "presentation_new", counted)
    return made


def test_ids_differing_in_leading_zeros_share_one_build(real):
    got = block_presentation(real, "BU:01", 8)
    assert got is block_presentation(real, "BU:1", 8)
    assert got.block_id == "BU:1"
    assert rings.canonical_block_id("NpowBU:01:002") == "NpowBU:1:2"


def test_bohtilde_requests_share_one_build(ab4, monkeypatch):
    # on ab4 every BOh:1 request states bound 12, so the 13 requests give
    # one object and one completion
    rings.clear()
    made = _counting_builds(monkeypatch)
    got = {id(block_presentation(ab4, "BOh:1", b)) for b in range(13)}
    assert len(got) == 1
    assert build_BOhtilde(ab4, 1, 5) is block_presentation(ab4, "BOh:1", 0)
    assert [p.block_id for p in made] == ["BOh:1"]


@pytest.mark.parametrize("block", ["BU:3", "BOh:1", "BOh:2", "Xtilde", "Npow:2"])
def test_repeated_request_is_answered_by_its_arguments(block, real, ab4, monkeypatch):
    # a call with the arguments of an earlier one fits no bound and
    # completes nothing: it returns the earlier build
    def refuse(*args, **kwargs):
        raise AssertionError(f"a repeated {block} request fitted or completed a build")

    for model in (real, ab4):
        first = block_presentation(model, block, 5)
        with monkeypatch.context() as patch:
            patch.setattr(rings, "_fit_bound", refuse)
            patch.setattr(rings, "presentation_new", refuse)
            assert block_presentation(model, block, 5) is first


@pytest.mark.parametrize("block", ["BU:3", "BOh:1", "Xalpha", "Npow:2", "Xtilde"])
def test_a_fresh_build_constructs_once_per_completion(block, real, ab4, monkeypatch):
    # a block built afresh completes the block and Ann(alpha)'s presentations:
    # each completion is one construction that checks its input once, with
    # no parse shell beside it and no second check of the same relations
    counts = Counter()

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    pres_class = bigraded.AlgebraPresentation
    monkeypatch.setattr(pres_class, "__post_init__", counting("built", pres_class.__post_init__))
    check = bigraded._check_presentation
    monkeypatch.setattr(bigraded, "_check_presentation", counting("checked", check))
    monkeypatch.setattr(bigraded, "_buchberger", counting("completed", bigraded._buchberger))
    for model in (real, ab4):
        rings.clear()
        counts.clear()
        block_presentation(model, block, 6)
        assert counts["completed"], (str(model), counts)
        assert counts["built"] == counts["checked"] == counts["completed"], (str(model), counts)


@pytest.mark.parametrize("attr", ["block_id", "groebner", "model", "truncation_bound"])
def test_built_presentation_refuses_assignment(real, attr):
    pres = block_presentation(real, "BU:1", 8)
    before = getattr(pres, attr)
    with pytest.raises(AttributeError):
        setattr(pres, attr, None)
    with pytest.raises(AttributeError):
        delattr(pres, attr)
    assert getattr(pres, attr) is before


def test_built_presentation_index_is_read_only(real):
    pres = block_presentation(real, "BU:1", 6)
    with pytest.raises(TypeError):
        pres.index["zz"] = 0
    again = block_presentation(real, "BU:1", 6)
    assert again is pres and "zz" not in again.index
    assert dict(again.index) == {name: i for i, name in enumerate(again.names)}
    with pytest.raises(UnknownGenerator):
        again.gen("zz")


def test_models_equal_by_content_share_blocks():
    m1, m2 = build_field_model("real"), build_field_model("real")
    assert m1 is not m2 and m1 == m2 and hash(m1) == hash(m2)
    assert block_presentation(m1, "BU:2", 8) is block_presentation(m2, "BU:2", 8)
    assert block_presentation(m1, "BU:2", 8) is not block_presentation(m1, "BU:2", 9)
    base = {"name": "m", "generators": ["a", "b"], "relations": ["a*b"], "alpha": "a"}
    other_alpha = build_field_model(dict(base, alpha="b"))
    other_rels = build_field_model(dict(base, relations=["a^2"]))
    assert build_field_model(base) == build_field_model(base)
    assert other_alpha != build_field_model(base) and other_rels != build_field_model(base)
    assert block_presentation(other_alpha, "BU:1", 8) is not block_presentation(
        build_field_model(base), "BU:1", 8
    )


def test_extend_bound_and_quotient_keep_labels(real):
    pres = block_presentation(real, "BOp:1", 8)
    assert pres.model == real and pres.block_id == "BOp:1"
    big = pres.extend_bound(10)
    assert big is not pres and big.truncation_bound == 10
    assert big.model is pres.model and big.block_id is None
    q = quotient(pres, ["u1"])
    assert q.model is pres.model and q.block_id is None
    # Xtilde's mu_i stop at the requested bound, so extending Xtilde at 4 to 8
    # is not the Xtilde block at 8 and must not carry its label
    small = block_presentation(real, "Xtilde", 4)
    big = small.extend_bound(8)
    assert big.block_id is None and big.model is small.model
    assert [poincare_table(big, 0, 8).entry(0, d) for d in range(5, 9)] == [0] * 4
    assert [block_table(real, "Xtilde", 0, 8).entry(0, d) for d in range(5, 9)] == [1] * 4


@pytest.mark.parametrize("name", ["real", "finite_field"])
def test_xtilde_has_no_unit_at_bound_0(name):
    # at bound 0 the block still has mu1, so it is a module without a unit
    model = build_field_model(name)
    assert block_presentation(model, "Xtilde", 0).is_module
    assert block_table(model, "Xtilde", 0, 0).entry(0, 0) == 0
    assert block_table(model, "Xtilde", 1, 0).entry(0, 0) == 0


_BOUND_RULE_BLOCKS = ("BU:1", "BU:3", "BOp:1", "BOp:2", "Npow:2", "Mtilde", "Xalpha", "XBU:1", "XBO:2")


@pytest.mark.parametrize("model_name", ["real", "finite_field", "three", "ab4"])
def test_block_holds_every_relation_up_to_its_bound(model_name, ab4):
    # a block asked for at any bound is exact up to the bound it states: each
    # cell there has as many standard monomials as in the block built higher.
    # Xtilde is left out, its mu_i stop at the requested bound by definition
    if model_name == "ab4":
        model = ab4
    elif model_name == "three":
        model = build_field_model(str(Path(__file__).resolve().parents[1] / "bench" / "three.json"))
    else:
        model = build_field_model(model_name)
    for block in _BOUND_RULE_BLOCKS:
        for asked in (0, 1, 2, 4):
            pres = block_presentation(model, block, asked)
            top = pres.truncation_bound
            ref = block_presentation(model, block, top + 4)
            for w in range(top + 1):
                for d in range(top + 1 - w):
                    got = len(standard_monomials(pres, w, d))
                    assert got == len(standard_monomials(ref, w, d)), (block, asked, w, d)


def _content(p):
    return (
        p.names, p.gen_w, p.gen_d, p.module_idx, p.relations, p.groebner,
        p.truncation_bound, p.has_unit, p.block_id,
    )


_BOUND_ORDERS = {
    "rising": list(range(13)),
    "falling": list(range(12, -1, -1)),
    "shuffled": random.Random(21).sample(range(13), 13),
}


@pytest.mark.parametrize("model_name", ["real", "three", "ab4"])
def test_requests_share_one_build_per_content(model_name, monkeypatch, ab4):
    # requests at bounds 0..12 in rising, falling and shuffled order: each is
    # the presentation a fresh build at that bound makes, one completion is
    # made per distinct content whatever the order, and a repeated request
    # returns the same object.  On ab4 every BOp:1 request states bound 12:
    # one completion.  Xtilde's generators follow the request; only its
    # requests 0 and 1 (mu_1 alone, the same stated bound) share a build
    if model_name == "ab4":
        model = ab4
    elif model_name == "three":
        model = build_field_model(str(Path(__file__).resolve().parents[1] / "bench" / "three.json"))
    else:
        model = build_field_model(model_name)
    new = rings.presentation_new
    for block in _BOUND_RULE_BLOCKS + ("BOh:1", "BOh:2", "Xtilde"):
        kind, args = parse_block_id(block)
        want = {}
        for b in range(13):
            rings.clear()
            want[b] = _content(rings.BLOCKS[kind][1](model, *args, b))
        for name, order in _BOUND_ORDERS.items():
            rings.clear()
            made = _counting_builds(monkeypatch)
            got = {b: block_presentation(model, block, b) for b in order}
            assert all(block_presentation(model, block, b) is got[b] for b in order)
            monkeypatch.setattr(rings, "presentation_new", new)
            assert {b: _content(p) for b, p in got.items()} == want, (block, name)
            assert len(made) == len(set(want.values())), (block, name)
            if block == "Xtilde":
                assert len(made) == 12, name
            if model_name == "ab4" and block == "BOp:1":
                assert [p.truncation_bound for p in made] == [12], name


def _counting_ann_runs(monkeypatch) -> list:
    """The bounds ``rings`` runs the colon sweep for Ann(alpha) at from here
    on, in order."""
    runs = []

    def counted(model, f=None, degree_bound=8):
        runs.append(degree_bound)
        return km_annihilator(model, f, degree_bound)

    monkeypatch.setattr(rings, "km_annihilator", counted)
    return runs


def test_ann_alpha_shared_by_content_equal_models(monkeypatch):
    # models equal by content share one Ann(alpha) entry; the model's own
    # annihilator computes afresh and agrees with it
    rings.clear()
    runs = _counting_ann_runs(monkeypatch)
    ann = rings._ann_strings(build_field_model("finite_field"), 8)
    assert rings._ann_strings(build_field_model("finite_field"), 8) == ann == ["s"]
    assert runs == [8]
    model = build_field_model("finite_field")
    assert model.annihilator(8) is not model.annihilator(8)
    assert [str(g) for g in model.annihilator(8).gens] == ann


_ANN_ORDERS = {
    "rising": list(range(18)),
    "falling": list(range(17, -1, -1)),
    "shuffled": random.Random(28).sample(range(18), 18),
}


@pytest.mark.parametrize("model_name", ["real", "finite_field", "three"])
def test_ann_alpha_read_off_the_largest_bound_asked(model_name, monkeypatch):
    # bounds 0..17 in rising, falling and shuffled order: each answer is what
    # a fresh colon run gives, and the colon runs only for a bound above
    # every bound asked before
    if model_name == "three":
        model_name = str(Path(__file__).resolve().parents[1] / "bench" / "three.json")
    model = build_field_model(model_name)
    fresh = {n: [str(g) for g in km_annihilator(model, model.alpha, n).gens] for n in range(18)}
    runs = _counting_ann_runs(monkeypatch)
    for name, order in _ANN_ORDERS.items():
        rings.clear()
        runs.clear()
        assert {n: rings._ann_strings(model, n) for n in order} == fresh, name
        assert runs == [n for i, n in enumerate(order) if n > max(order[:i], default=-1)], name


def test_npow_tables(real, fq):
    # H plus one extra unit on each cell of the first off-diagonal
    t = block_table(real, "Npow:1", 5, 5)
    h = block_table(real, "H", 5, 5)
    for w in range(6):
        for d in range(6):
            extra = 1 if d == w + 1 else 0
            assert t.entry(w, d) == h.entry(w, d) + extra
    assert [g.name for g in build_Npow(real, 0, 8).gens] == ["rho", "tau"]


def test_npow_presentation_matches_direct_sum(real, fq, two_gen):
    # the presented module must realize H plus one shifted copy of the
    # annihilator quotient per mu_i; this validates that the stated
    # relations generate everything, per box
    from subtle.milnor import km_annihilator
    from subtle.bigraded import quotient as bq

    for model in (real, fq, two_gen):
        h = block_table(model, "H", 6, 6)
        ann = km_annihilator(model, model.alpha, 8)
        q = bq(model.presentation, ann)
        kmod = [len(standard_monomials(q, n, n)) for n in range(7)]
        for m in (1, 2, 3):
            t = block_table(model, f"Npow:{m}", 6, 6)
            for w in range(7):
                for d in range(7):
                    extra = kmod[w] if 1 <= d - w <= m else 0
                    assert t.entry(w, d) == h.entry(w, d) + extra, (model.tag, m, w, d)


def test_mtilde_single_diagonal(real, fq, two_gen):
    for model in (real, fq, two_gen):
        t = block_table(model, "Mtilde", 6, 6)
        for w in range(7):
            for d in range(7):
                if d != w + 1:
                    assert t.entry(w, d) == 0
    # over a finite field only the (0)[1] cell survives
    tq = block_table(fq, "Mtilde", 3, 3)
    assert tq.entry(0, 1) == 1
    assert sum(c for _, _, c in tq.cells()) == 1


def test_xalpha_table_real(real):
    t = block_table(real, "Xalpha", 5, 5)
    for w in range(6):
        for d in range(6):
            assert t.entry(w, d) == 1


def test_xtilde_above_diagonal(real):
    t = block_table(real, "Xtilde", 5, 5)
    for w in range(6):
        for d in range(6):
            assert t.entry(w, d) == (1 if d > w else 0)


def test_hna_diagonal_law(real, fq):
    for model in (real, fq):
        mt = block_table(model, "Mtilde", 6, 7)
        tabs = [block_table(model, f"Npow:{n}", 6, 6) for n in range(6)]
        for n in range(1, 6):
            for w in range(7):
                for d in range(7):
                    if d <= w + n - 1:
                        assert tabs[n].entry(w, d) == tabs[n - 1].entry(w, d)
                    else:
                        assert tabs[n].entry(w, d) == mt.entry(w, d - n + 1)


def test_colimit_stabilization(real, fq):
    for model in (real, fq):
        rep = check_colimit(model, 4, 4)
        assert rep.passed
    rep = check_colimit(real, 4, 4)
    assert rep.stabilization[0][3] == 3  # mu_3 first appears in the cube


def test_colimit_report_renders(real):
    rep = check_colimit(real, 1, 2)
    assert rep.to_json_obj() == {
        "box": [1, 2],
        "stabilization_index": [[0, 0, 0], [0, 1, 1], [0, 2, 2], [1, 0, 0], [1, 1, 0], [1, 2, 1]],
        "passed": True,
    }
    assert rep.render_text().splitlines() == [
        "colimit stabilization on box (1,2)",
        "w=0   0  1  2",
        "w=1   0  0  1",
        "PASS",
    ]


def _ann_dimensions_reference(model, max_degree):
    # dim R_n less the dimension of the quotient by Ann(alpha) in degree n;
    # annihilator(k) finds the generators of degree below k
    full = model.dimensions(max_degree)
    ann = model.annihilator(max_degree + 1)
    if not ann.gens:
        return [0] * (max_degree + 1)
    q = quotient(model.presentation, ann)
    return [f - len(standard_monomials(q, n, n)) for n, f in enumerate(full)]


@pytest.mark.parametrize("model_name", ["real", "finite_field", "two_gen", "three", "ann_two", "ab4"])
def test_ann_dimensions_match_quotient_reference(model_name, two_gen, ab4):
    # the inverse block's (n)[n] less H's (n-1)[n] is dim Ann(alpha)_n
    if model_name == "two_gen":
        model = two_gen
    elif model_name == "ab4":
        model = ab4
    elif model_name == "three":
        model = build_field_model(str(Path(__file__).resolve().parents[1] / "bench" / "three.json"))
    elif model_name == "ann_two":
        model = build_field_model(str(ANN_TWO_PATH))
    else:
        model = build_field_model(model_name)
    for max_degree in (0, 1, 8):
        nbar = nbar_table(model, max_degree, max_degree)
        h = block_table(model, "H", max_degree, max_degree)
        got = [nbar.entry(n, n) - h.entry(n - 1, n) for n in range(max_degree + 1)]
        assert got == _ann_dimensions_reference(model, max_degree)


def _inside_generator_cone(pres, w, d):
    # between the least and the greatest slope d/w of a nonzero generator
    # bidegree, w = 0 being the steepest
    def slope(a, b):
        return (1, 0) if a == 0 else (0, Fraction(b, a))

    rays = [slope(a, b) for a, b in zip(pres.gen_w, pres.gen_d) if a or b]
    return (w, d) == (0, 0) or bool(rays) and min(rays) <= slope(w, d) <= max(rays)


def test_each_sweep_keeps_one_states_dict_per_side(monkeypatch, real):
    # every enumeration of a sweep passes the sweep's dict of cells, one per
    # side: a map's source and target each have their own, also when they
    # are one presentation, except a self-map with no shift, which reads its
    # target bases off its source's
    calls = []
    enumerate_cell = bigraded._monomials_of_bidegree

    def counted(pres, w, d, *rest):
        calls.append((pres, rest[0] if rest else None))
        return enumerate_cell(pres, w, d, *rest)

    monkeypatch.setattr(bigraded, "_monomials_of_bidegree", counted)
    three = build_field_model(str(Path(__file__).resolve().parents[1] / "bench" / "three.json"))
    comp = comp_map(three, 2, 8)
    assert comp.source is not comp.target
    twist = twist_iso(real, 1, 12)
    assert twist.source is twist.target
    solved, _ = sq1_solve(sq1_define(sq1_presentation(real, "BO:4", 3, 3)))
    # name: (sweep, presentations, dicts)
    sweeps = {
        "poincare_table": (lambda: poincare_table(block_presentation(three, "BU:2", 8), 4, 4), 1, 1),
        "cell_maps, one presentation": (lambda: km_annihilator(three, three.alpha, 8), 1, 2),
        "cell_maps, two presentations": (lambda: hom_verify(comp, 4, 4), 2, 2),
        "cell_maps, a self-map": (lambda: hom_verify(twist, 4, 4), 1, 1),
        "leibniz_offender": (lambda: leibniz_offender(solved, 3, 3), 1, 1),
        "dimensions": (lambda: three.dimensions(6), 1, 1),
    }
    for name, (sweep, presentations, dicts) in sweeps.items():
        calls.clear()
        sweep()
        assert len(calls) >= 5, name
        assert all(isinstance(states, dict) for _, states in calls), name
        pairs = {(id(pres), id(states)) for pres, states in calls}
        assert len(pairs) == len({s for _, s in pairs}) == dicts, name
        assert len({p for p, _ in pairs}) == presentations, name


def test_each_sweep_enumerates_each_cell_once(monkeypatch, real):
    # each cell is asked for once and built once per dict, though the dict
    # drops the cells no later cell reads
    from test_bigraded import count_builds

    built = count_builds(monkeypatch)  # holds every dict, so no id is reused
    calls = Counter()
    enumerate_cell = bigraded._monomials_of_bidegree

    def counted(pres, w, d, store):
        calls[pres, id(store), w, d] += 1
        return enumerate_cell(pres, w, d, store)

    monkeypatch.setattr(bigraded, "_monomials_of_bidegree", counted)
    three = build_field_model(str(Path(__file__).resolve().parents[1] / "bench" / "three.json"))
    twist = twist_iso(real, 1, 12)
    assert twist.source is twist.target
    sweeps = {
        "colon": lambda: km_annihilator(three, three.alpha, 16),
        "hom_verify": lambda: hom_verify(twist, 6, 6),
    }
    for name, sweep in sweeps.items():
        calls.clear()
        built.clear()
        sweep()
        assert calls, name
        assert max(calls.values()) == 1, (name, [k[2:] for k, n in calls.items() if n > 1])
        assert max(built.values()) == 1, (name, [c for c, n in built.items() if n > 1])
        outside = [(w, d) for pres, _, w, d in calls if not _inside_generator_cone(pres, w, d)]
        assert not outside, (name, outside)


def test_production_sweeps_hold_only_their_window(monkeypatch):
    # every sweep of the package runs in rising weight, so after each walk
    # its dict holds no cell lighter than the heaviest weight reached, less
    # the largest weight of a ring generator: no later cell of the sweep
    # reads one
    # reached: the weights each dict was told of, keyed by the id of the
    # dict, which the entry holds so that no id is reused
    reach, walk = bigraded._reach, bigraded._walk
    reached: dict[int, tuple[dict, list[int]]] = {}
    checked = Counter()

    def noted(pres, store, w):
        reached.setdefault(id(store), (store, []))[1].append(w)
        reach(pres, store, w)

    def held(pres, w, d, store):
        out = walk(pres, w, d, store)
        _, last = reached.get(id(store), (None, None))
        if last:
            wide = max((gw for k, gw in enumerate(pres.gen_w) if k not in pres.module_idx), default=0)
            low = max(last) - wide
            stale = sorted(c for c in store if c and c[0] < low)
            assert not stale, (name, max(last), wide, stale[:5])
            checked[name] += 1
        return out

    three = build_field_model(str(Path(__file__).resolve().parents[1] / "bench" / "three.json"))
    comp = comp_map(three, 3, 16)
    solved, _ = sq1_solve(sq1_define(sq1_presentation(three, "BO:4", 4, 4)))
    monkeypatch.setattr(bigraded, "_reach", noted)
    monkeypatch.setattr(bigraded, "_walk", held)
    sweeps = {
        "poincare_table": lambda: poincare_table(block_presentation(three, "BU:4", 16), 8, 8),
        "hom_verify": lambda: hom_verify(comp, 8, 8),
        "leibniz_offender": lambda: leibniz_offender(solved, 4, 4),
        "km_annihilator": lambda: km_annihilator(three, three.alpha, 16),
    }
    for name, sweep in sweeps.items():
        reached.clear()
        sweep()
        assert checked[name] >= 10, (name, checked[name])


def test_nbar_direct_sum_convention(real, fq, two_gen):
    # Ann part on the Milnor diagonal plus a tau-shifted copy of H
    for model in (real, fq, two_gen):
        t = nbar_table(model, 5, 5)
        h = block_table(model, "H", 5, 5)
        ann = _ann_dimensions_reference(model, 5)
        for w in range(6):
            for d in range(6):
                want = (ann[w] if w == d else 0) + h.entry(w - 1, d)
                assert t.entry(w, d) == want


def test_nbar_matches_exact_sequence_bookkeeping(real, fq):
    # independent route: the connecting map sends mu^i to mu_{i+1}; the
    # table must equal dim Xtilde + dim Xalpha - adjacent connecting ranks
    for model in (real, fq):
        wmax = dmax = 5
        bound = wmax + dmax + 2
        xa = build_Xalpha(model, bound)
        xt = build_Xtilde(model, bound)
        xa_t = poincare_table(xa, wmax, dmax + 1)
        xt_t = poincare_table(xt, wmax, dmax + 1)
        mu_idx = xa.index["mu"]
        tau_idx = xa.index["tau"]

        def connecting_rank(w, d):
            if d < 0:
                return 0
            domain = standard_monomials(xa, w, d)
            target = standard_monomials(xt, w, d + 1)
            t_index = {m: i for i, m in enumerate(target)}
            space = RowSpace()
            for m in domain:
                c = m[mu_idx]
                named = []
                for i, e in enumerate(m):
                    if i == mu_idx or not e:
                        continue
                    named.append((xa.names[i], e))
                named.append((f"mu{c + 1}", 1))
                img = xt.el(frozenset([tuple(sorted(named))]))
                vec = 0
                for mm in img.monomials:
                    vec |= 1 << t_index[mm]
                space.add(vec)
            return space.rank

        t = nbar_table(model, wmax, dmax)
        for w in range(wmax + 1):
            for d in range(dmax + 1):
                want = (
                    xt_t.entry(w, d)
                    + xa_t.entry(w, d)
                    - connecting_rank(w, d)
                    - connecting_rank(w, d - 1)
                )
                assert t.entry(w, d) == want, (model.tag, w, d)


def test_npow_bu_consistency(real, fq):
    for model in (real, fq):
        for n in (1, 2):
            engine = block_table(model, f"BU:{n}", 6, 6)
            conv = npow_bu_table(model, 0, n, 6, 6)
            assert engine.same_entries(conv)
        # nonzero power against direct standard-monomial counting is not
        # available (no presentation); additivity over c-monomials instead
        t0 = npow_bu_table(model, 1, 0, 5, 5)
        assert t0.same_entries(block_table(model, "Npow:1", 5, 5))


def test_decomposition_and_diagonal_split_at_box_20(real, fq):
    # criteria 1 and 3 at a box far above the acceptance suite's (8,8), where
    # completions of total degree up to 40 decide the counts
    w = d = 20
    for model in (real, fq):
        for n in range(1, 6):
            engine = block_table(model, f"BU:{n}", w, d)
            conv = npow_bu_table(model, 0, n, w, d)
            assert engine.same_entries(conv), (model.tag, n)
        mt = block_table(model, "Mtilde", w, d + 1)
        tabs = [block_table(model, f"Npow:{n}", w, d) for n in range(6)]
        for n in range(1, 6):
            for ww in range(w + 1):
                for dd in range(d + 1):
                    want = tabs[n - 1].entry(ww, dd) if dd <= ww + n - 1 else mt.entry(ww, dd - n + 1)
                    assert tabs[n].entry(ww, dd) == want, (model.tag, n, ww, dd)


def test_oracle_spot_checks_on_the_blocks_at_boxes_16_to_20(real, fq):
    # every oracle block at a seeded box in (16..20)^2, the boxes the CLI is
    # asked for, built as block_table builds it: three seeded cells in
    # (16..20)^2 each, engine basis against the dense count
    rng = random.Random(28)
    for model in (real, fq):
        for block in ORACLE_BLOCKS:
            wmax, dmax = rng.randint(16, 20), rng.randint(16, 20)
            pres = block_presentation(model, block, wmax + dmax)
            for _ in range(3):
                w, d = rng.randint(16, wmax), rng.randint(16, dmax)
                want = oracle_entry(pres, w, d)
                assert len(standard_monomials(pres, w, d)) == want, (model.tag, block, w, d)


def test_xbu_zero_is_xalpha(real):
    from subtle.rings import build_X_BU

    xbu0 = build_X_BU(real, 0, 10)
    xa = block_table(real, "Xalpha", 4, 4)
    assert poincare_table(xbu0, 4, 4).same_entries(xa)


def test_xbu1_cell_frozen_from_oracle(real):
    # dense enumeration gives 2 at (1)[2]: the class c1 and the product of
    # the weight-1 symbol with mu; the stabilized convolution agrees
    pres = block_presentation(real, "XBU:1", 10)
    assert oracle_entry(pres, 1, 2) == 2
    assert block_table(real, "XBU:1", 4, 4).entry(1, 2) == 2
    assert npow_bu_table(real, 6, 1, 4, 4).entry(1, 2) == 2


def test_xbu_table_is_xalpha_convolution(real, fq):
    from dataclasses import replace

    for model in (real, fq):
        for n in (1, 2):
            xbu = block_table(model, f"XBU:{n}", 5, 5)
            xa = block_table(model, "Xalpha", 5, 5)
            free = replace(
                xa, class_gens=tuple(Bidegree(i, 2 * i) for i in range(1, n + 1))
            )
            from subtle.bigraded import table_tensor

            assert xbu.same_entries(table_tensor(free, xa))


def test_block_table_oracle_spotcheck(two_gen):
    # a model outside the builtins exercises Ann plumbing end to end
    for block in ("BU:1", "BOp:1", "Npow:2", "Xalpha"):
        pres = block_presentation(two_gen, block, 10)
        assert poincare_table(pres, 5, 5).same_entries(oracle_table(pres, 5, 5))


def test_oracle_full_box(real, fq):
    # exhaustive (8,8) cross-check on a ring and a module presentation
    for model, block in ((real, "BU:2"), (fq, "Npow:2")):
        pres = block_presentation(model, block, 16)
        assert poincare_table(pres, 8, 8).same_entries(oracle_table(pres, 8, 8))


def _random_model(rng, trial, minus_one=None):
    """A field model on a, b, c: one to three relations, each a sum of one to
    three quadratic monomials, and alpha a random nonzero sum of generators."""
    names = ["a", "b", "c"]
    quads = [x + "^2" if x == y else x + "*" + y for i, x in enumerate(names) for y in names[i:]]
    rels = ["+".join(rng.sample(quads, rng.randint(1, 3))) for _ in range(rng.randint(1, 3))]
    alpha = "+".join(rng.sample(names, rng.randint(1, 3)))
    return build_field_model(
        {"name": f"random{trial}", "generators": names, "relations": rels, "alpha": alpha,
         "minus_one": minus_one}
    )


def test_engine_matches_oracle_on_random_models():
    rng = random.Random(2024)
    for trial in range(10):
        model = _random_model(rng, trial)
        for block in ("BU:2", "BO:3", "Npow:2"):
            pres = block_presentation(model, block, 12)
            assert poincare_table(pres, 6, 6) == oracle_table(pres, 6, 6), (str(model), block)


# alpha = b + c is neither the first generator nor minus_one (a): a block or
# Sq1 value that reads the wrong class differs on it
ALPHA_SUM_PATH = Path(__file__).parent / "models" / "alpha_sum.json"
# Ann(alpha) = (b, c^2): two generators of different degrees
ANN_TWO_PATH = Path(__file__).parent / "models" / "ann_two.json"

# each block's relation of the paper that carries alpha, as (left, right):
# left + alpha * right is 0 in the block
ALPHA_RELATIONS = {
    "BU:2": ("tau*d1", "c1"),
    "BOp:1": ("tau*v3", "u2"),
    "Xalpha": ("tau*mu", "1"),
    "Npow:2": ("tau*mu2", "mu1"),
}


def test_alpha_is_read_from_the_model_random():
    # the blocks, Ann(alpha) and Sq1(tau) read alpha and minus_one from the
    # model: an engine that took alpha's first term, Ann of the first
    # generator or alpha for Sq1(tau) passes every oracle comparison, since
    # both sides share the presentation, but fails here
    rng = random.Random(19)
    models = [build_field_model(str(ALPHA_SUM_PATH))]
    while len(models) < 81:
        minus_one = "+".join(rng.sample(["a", "b", "c"], rng.randint(1, 3)))
        models.append(_random_model(rng, len(models), minus_one))
    assert models[0].alpha_string == "b+c" and models[0].minus_one_string == "a"
    annihilated = 0
    for model in models:
        for block, (left, right) in ALPHA_RELATIONS.items():
            pres = block_presentation(model, block, 6)
            rel = pres.el(left) + pres.el(model.alpha_string) * pres.el(right)
            assert rel.is_zero(), (str(model), block, str(rel))
            tau = sq1_define(pres).value("tau")
            assert tau == pres.el(model.minus_one_string), (str(model), block, str(tau))
        ring = model.presentation
        for gen in rings._ann_strings(model, 6):
            assert (ring.el(gen) * model.alpha).is_zero(), (str(model), gen)
            annihilated += 1
    assert annihilated >= 40


def _dense_rank(ring, n, polys) -> int:
    """GF(2) rank of raw polys over all monomials of degree n of a model ring."""
    index = {m: j for j, m in enumerate(_dense_monomials(ring, n, n))}
    return RowSpace([sum(1 << index[m] for m in poly) for poly in polys]).rank


def _dense_multiples(ring, n, polys) -> list:
    """Every monomial of degree n - deg p times p, for each raw poly p, unreduced."""
    out = []
    for p in polys:
        k = n - ring.mono_bidegree(next(iter(p))).w
        if k >= 0:
            out += [bigraded._mul_mono_poly(m, p) for m in _dense_monomials(ring, k, k)]
    return out


def test_ann_alpha_has_the_dimension_of_the_kernel_of_alpha():
    # per degree n <= 6, the ideal that the Ann(alpha) generators span has
    # the dimension of the kernel of x -> alpha*x from R_n to R_{n+1}; both
    # sides counted over dense cells, raw monomials modulo the multiples of
    # the model's relations, with no engine normal form
    rng = random.Random(61)
    models = [
        build_field_model(str(ALPHA_SUM_PATH)),
        build_field_model(str(ANN_TWO_PATH)),
        build_field_model(str(Path(__file__).parents[1] / "bench" / "three.json")),
        build_field_model("finite_field"),
    ]
    models += [_random_model(rng, trial) for trial in range(40)]
    nonzero = 0
    for model in models:
        ring = model.presentation
        rels = [ring.raw_to_poly(r) for r in model.relation_strings]
        alpha = ring.raw_to_poly(model.alpha_string)
        anns = [ring.raw_to_poly(g) for g in rings._ann_strings(model, 7)]
        for n in range(7):
            rel_n, rel_up = _dense_multiples(ring, n, rels), _dense_multiples(ring, n + 1, rels)
            zero_n, zero_up = _dense_rank(ring, n, rel_n), _dense_rank(ring, n + 1, rel_up)
            dim = len(_dense_monomials(ring, n, n)) - zero_n
            times_alpha = _dense_multiples(ring, n + 1, [alpha])
            image = _dense_rank(ring, n + 1, rel_up + times_alpha) - zero_up
            ideal = _dense_rank(ring, n, rel_n + _dense_multiples(ring, n, anns)) - zero_n
            assert ideal == dim - image, (str(model), n)
            nonzero += ideal > 0
    assert nonzero >= 100, nonzero


def _nbar_reference(model, wmax, dmax):
    # the inverse block's table from H built two degrees above the box
    h = poincare_table(block_presentation(model, "H", wmax + dmax + 2), wmax, dmax)
    ann = _ann_dimensions_reference(model, wmax)
    return [
        [(ann[w] if w == d else 0) + h.entry(w - 1, d) for d in range(dmax + 1)]
        for w in range(wmax + 1)
    ]


def _npow_bu_reference(model, m, n, wmax, dmax):
    # one power-block table per c-monomial c_1^i_1..c_n^i_n of the box,
    # shifted by its bidegree (i, 2i) with i = sum l*i_l
    counts = [[0] * (dmax + 1) for _ in range(wmax + 1)]

    def add(l, shift, odd_sum):
        if l > n:
            pres = block_presentation(model, f"Npow:{m + odd_sum}", wmax + dmax)
            table = poincare_table(pres, wmax, dmax)
            for w, d, c in table.cells():
                if w + shift <= wmax and d + 2 * shift <= dmax:
                    counts[w + shift][d + 2 * shift] += c
            return
        for i in range(wmax + 1):
            if shift + i * l > wmax or 2 * (shift + i * l) > dmax:
                break
            add(l + 1, shift + i * l, odd_sum + (i if l % 2 else 0))

    add(1, 0, 0)
    return counts


@pytest.mark.parametrize("model_name", ["real", "finite_field"])
def test_block_table_is_the_table_of_the_block(model_name):
    # the (W, D) table reads the block built at bound W + D, and the
    # table-only blocks match the tables they are assembled from
    model = build_field_model(model_name)
    w, d = 5, 4
    for block in ORACLE_BLOCKS:
        direct = poincare_table(block_presentation(model, block, w + d), w, d)
        assert block_table(model, block, w, d).same_entries(direct), block
    assert [list(r) for r in block_table(model, "nbar", w, d).counts] == _nbar_reference(model, w, d)
    for block, (m, n) in (("NpowBU:1:2", (1, 2)), ("NpowBU:0:3", (0, 3))):
        got = [list(r) for r in block_table(model, block, w, d).counts]
        assert got == _npow_bu_reference(model, m, n, w, d), block


def test_twist_block_is_registered(real):
    assert parse_block_id("XBO:2") == ("XBO", (2,))
    pres = block_presentation(real, "XBO:2", 12)
    assert pres.block_id == "XBO:2" and pres.names[-3:] == ("mu", "u1", "u2")
    # the twist map reads the shared build, not a fresh one
    assert twist_iso(real, 1, 12).source is pres


def test_parse_block_id_errors():
    with pytest.raises(UnsupportedBlock):
        parse_block_id("BZ:1")
    with pytest.raises(UnsupportedBlock):
        parse_block_id("BU")
    with pytest.raises(UnsupportedBlock):
        parse_block_id("BU:x")
    with pytest.raises(UnsupportedBlock):
        parse_block_id("BU:-1")
    # Python's int() reads each of these; the id grammar reads none
    for block in ("BU:1_0", "BU:+1", "BU:1 ", "BU:\uff11"):
        with pytest.raises(UnsupportedBlock, match="bad block id"):
            parse_block_id(block)
    with pytest.raises(UnsupportedBlock):
        block_presentation(build_field_model("real"), "nbar", 8)


def test_qc_model_rejected_for_alpha_blocks(qc):
    from subtle.errors import AlphaIsSquare

    with pytest.raises(AlphaIsSquare):
        build_BUn(qc, 1, 8)
    with pytest.raises(AlphaIsSquare):
        build_Xalpha(qc, 8)
    for build in (build_Mtilde, build_Xtilde):
        with pytest.raises(AlphaIsSquare):
            build(qc, 0)
    # alpha-free blocks still build
    assert build_BO(qc, 3, 8) is not None
