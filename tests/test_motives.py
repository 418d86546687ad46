import random

import pytest

from subtle.errors import SubtleError, UnsupportedAtom, UnsupportedTensor
from subtle.motives import (
    Atom,
    ConeProduct,
    FormalMotive,
    MotiveParseError,
    T_ATOM,
    affine_quadric_motive,
    atom_tensor,
    malpha_table,
    motive_cohomology,
    motive_tensor,
    parse_motive,
    torsor_motive,
)
from subtle.bigraded import Element, PoincareTable, cell_coordinates, poincare_table, standard_monomials
from subtle.gf2 import RowSpace
from subtle.milnor import build_field_model
from subtle.rings import block_presentation, block_table


def m(text):
    return parse_motive(text)


def test_rewrite_rules():
    assert motive_tensor(m("N^-1"), m("N^1")) == m("T")
    assert motive_tensor(m("N^2"), m("N^-1")) == m("N^1")
    assert motive_tensor(m("Mt"), m("N^1")) == m("Mt(0)[1]")
    assert motive_tensor(m("Ma"), m("N^3")) == m("Ma")
    assert motive_tensor(m("Ma"), m("Xa")) == m("Ma")
    assert motive_tensor(m("N^2"), m("Xa")) == m("Xa")
    assert motive_tensor(m("Xa"), m("Xa")) == m("Xa")


def test_twists_add():
    prod = motive_tensor(m("N^1(1)[2]"), m("N^1(2)[1]"))
    assert prod == m("N^2(3)[3]")
    prod = motive_tensor(m("Mt(1)[0]"), m("N^-2(0)[1]"))
    assert prod == m("Mt(1)[-1]")


def test_unsupported_pairs_raise():
    for a, b in [("Ma", "Ma"), ("Mt", "Mt"), ("Ma", "Mt"), ("Mt", "Xa"), ("Xt", "T")]:
        with pytest.raises(UnsupportedTensor):
            motive_tensor(m(a), m(b))


def test_distribution_over_sums():
    lhs = motive_tensor(m("T + N^1(1)[1]"), m("T + T(2)[3]"))
    assert lhs == m("T + T(2)[3] + N^1(1)[1] + N^1(3)[4]")


def test_invertibility():
    for k in range(-5, 6):
        assert motive_tensor(
            FormalMotive.of(Atom("N", k)), FormalMotive.of(Atom("N", -k))
        ) == FormalMotive.of(T_ATOM)


def test_confluence_random_orders():
    rng = random.Random(3)
    atoms = [Atom("N", rng.randint(-3, 3), rng.randint(0, 2), rng.randint(-1, 2)) for _ in range(5)]
    atoms.append(Atom("Xa", 0, 1, 1))

    def reduce_in_order(order):
        work = [atoms[i] for i in order]
        acc = work[0]
        for a in work[1:]:
            acc = atom_tensor(acc, a)
        return acc

    baseline = reduce_in_order(range(6))
    for _ in range(10):
        order = list(range(6))
        rng.shuffle(order)
        assert reduce_in_order(order) == baseline


def test_affine_quadric_parity():
    assert affine_quadric_motive(1) == m("T + N^1(1)[1]")
    assert affine_quadric_motive(2) == m("T + T(2)[3]")
    assert affine_quadric_motive(3) == m("T + N^1(3)[5]")
    with pytest.raises(SubtleError):
        affine_quadric_motive(0)


def test_torsor_split_expansion():
    assert torsor_motive(0, True) == m("T")
    assert torsor_motive(1, True) == m("T + N^1(1)[1]")
    t2 = torsor_motive(2, True)
    assert t2 == m("T + T(2)[3] + N^1(1)[1] + N^1(3)[4]")
    assert len(t2.atoms) == 4
    assert len(torsor_motive(3, True).atoms) == 8


def test_torsor_coherence_with_quadrics():
    for n in range(4):
        prod = FormalMotive.of(T_ATOM)
        for i in range(1, n + 1):
            prod = motive_tensor(prod, affine_quadric_motive(i))
        assert prod == torsor_motive(n, True)


def test_torsor_symbolic():
    cone = torsor_motive(2, False)
    assert isinstance(cone, ConeProduct)
    text = str(cone)
    assert "ct1" in text and "c2" in text
    assert str(torsor_motive(0, False)) == "T"


def test_parser_errors():
    with pytest.raises(MotiveParseError):
        parse_motive("Q")
    with pytest.raises(MotiveParseError):
        parse_motive("T +")
    with pytest.raises(MotiveParseError):
        parse_motive("T(1)")


def test_cohomology_shift(real):
    t = motive_cohomology(real, m("T(2)[3]"), 5, 5)
    h = block_table(real, "H", 5, 5)
    for w in range(6):
        for d in range(6):
            assert t.entry(w, d) == h.entry(w - 2, d - 3)
    assert not t.clipped


def test_cohomology_blocks(real):
    assert motive_cohomology(real, m("N^1"), 5, 5).same_entries(
        block_table(real, "Npow:1", 5, 5)
    )
    assert motive_cohomology(real, m("N^-1"), 5, 5).same_entries(
        block_table(real, "nbar", 5, 5)
    )
    assert motive_cohomology(real, m("Xt"), 5, 5).same_entries(
        block_table(real, "Xtilde", 5, 5)
    )


def test_cohomology_additive(real, fq):
    for model in (real, fq):
        a, b = m("N^1(1)[1]"), m("T + Mt(0)[2]")
        lhs = motive_cohomology(model, a + b, 5, 5)
        rhs = motive_cohomology(model, a, 5, 5) + motive_cohomology(model, b, 5, 5)
        assert lhs.same_entries(rhs)


def test_cohomology_of_quadric_matches_sum(real, fq):
    for model in (real, fq):
        aq = affine_quadric_motive(1)
        total = motive_cohomology(model, aq, 5, 5)
        h = block_table(model, "H", 5, 5)
        n1 = block_table(model, "Npow:1", 5, 5).shift(1, 1)
        assert total.same_entries(h + n1)


def test_negative_shift_clips_with_warning(real):
    t = motive_cohomology(real, m("T(0)[-1]"), 4, 4)
    assert t.clipped
    assert t.entry(0, 0) == block_table(real, "H", 5, 5).entry(0, 1)


def test_deep_negative_power_unsupported(real):
    with pytest.raises(UnsupportedAtom):
        motive_cohomology(real, m("N^-2"), 4, 4)
    with pytest.raises(UnsupportedAtom):
        motive_cohomology(real, torsor_motive(2, False), 4, 4)


def test_malpha_tables(real, fq):
    # real model: the extension is quadratically closed, one unit per weight
    t = malpha_table(real, 4, 4)
    for w in range(5):
        for d in range(5):
            assert t.entry(w, d) == (1 if d == 0 else 0)
    # finite field: the extension is again a finite field, H-shaped table
    tq = malpha_table(fq, 4, 4)
    h = block_table(fq, "H", 4, 4)
    assert tq.same_entries(h)


def _malpha_reference(model, wmax, dmax):
    # the long-exact-sequence count with H and Npow:1 built two degrees
    # above the box
    bound = wmax + dmax + 2
    h_pres = block_presentation(model, "H", bound)
    n1_pres = block_presentation(model, "Npow:1", bound)
    h = poincare_table(h_pres, wmax, dmax + 1)
    n1 = poincare_table(n1_pres, wmax, dmax + 1)

    def mu_rank(w, d):
        if d < 0:
            return 0
        coords = cell_coordinates(standard_monomials(n1_pres, w, d + 1))
        space = RowSpace()
        for mono in standard_monomials(h_pres, w, d):
            named = Element(h_pres, frozenset([mono])).as_named()
            space.add(coords((n1_pres.el(named) * n1_pres.gen("mu1")).monomials))
        return space.rank

    counts = tuple(
        tuple(
            h.entry(w, d) + n1.entry(w, d) - mu_rank(w, d) - mu_rank(w, d - 1)
            for d in range(dmax + 1)
        )
        for w in range(wmax + 1)
    )
    return PoincareTable(wmax, dmax, counts)


@pytest.mark.parametrize("model_name", ["real", "finite_field", "two_gen"])
def test_malpha_matches_reference(model_name, two_gen):
    model = two_gen if model_name == "two_gen" else build_field_model(model_name)
    for wmax, dmax in ((4, 4), (5, 3), (2, 6)):
        assert malpha_table(model, wmax, dmax) == _malpha_reference(model, wmax, dmax)


def test_malpha_additive_in_quadric(real, fq):
    # T + Ma(1)[1]-style sums stay additive cell by cell
    for model in (real, fq):
        lhs = motive_cohomology(model, m("Ma + T(1)[1]"), 4, 4)
        rhs = malpha_table(model, 4, 4) + block_table(model, "H", 4, 4).shift(1, 1)
        assert lhs.same_entries(rhs)


def test_printing_round_trip():
    samples = ["T", "N^-1", "N^3(2)[5]", "Mt(0)[1] + Xa", "T + T(2)[3]"]
    for text in samples:
        motive = parse_motive(text)
        assert parse_motive(str(motive)) == motive
