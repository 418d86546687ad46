import dataclasses
import itertools
import random
from pathlib import Path

import pytest

from subtle.errors import SubtleError, UnsupportedAtom, UnsupportedTensor
from subtle.parse import ParseError
from subtle.motives import (
    BASES,
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
from subtle.bigraded import Element, PoincareTable, poincare_table, standard_monomials
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


def _atom_tensor_reference(a, b):
    """``atom_tensor`` with its pair put in order by a stable sort on base rank."""
    twist = a.twist + b.twist
    shift = a.shift + b.shift
    x, y = sorted((a, b), key=lambda t: BASES.index(t.base))
    if x.base == "N" and y.base == "N":
        return Atom("N", x.power + y.power, twist, shift)
    if x.base == "N" and y.base == "Ma":
        return Atom("Ma", 0, twist, shift)
    if x.base == "N" and y.base == "Mt":
        return Atom("Mt", 0, twist, shift + x.power)
    if x.base == "N" and y.base == "Xa":
        return Atom("Xa", 0, twist, shift)
    if x.base == "Ma" and y.base == "Xa":
        return Atom("Ma", 0, twist, shift)
    if x.base == "Xa" and y.base == "Xa":
        return Atom("Xa", 0, twist, shift)
    raise UnsupportedTensor(
        f"no decomposition rule for {x.base} * {y.base}"
    )


def _tensor_outcome(tensor, a, b):
    try:
        return tensor(a, b)
    except UnsupportedTensor as exc:
        return str(exc)


def test_atom_tensor_matches_the_sorted_reference_random():
    # every ordered pair of bases, T (N^0) among the powers of N, with random
    # twists and shifts: the same atom, or the same refusal text
    rng = random.Random(25)
    outcomes = []
    for base_a, base_b in itertools.product(BASES, repeat=2):
        for _ in range(40):
            a, b = (
                Atom(base, rng.randint(-3, 3) if base == "N" else 0, rng.randint(-2, 4), rng.randint(-3, 5))
                for base in (base_a, base_b)
            )
            want = _tensor_outcome(_atom_tensor_reference, a, b)
            assert _tensor_outcome(atom_tensor, a, b) == want, (a, b)
            outcomes.append((base_a, base_b, isinstance(want, Atom), a.power == 0 or b.power == 0))
    supported = {(x, y) for x, y, ok, _ in outcomes if ok}
    assert len(supported) == 10
    assert {(x, y) for x, y, ok, _ in outcomes if not ok} == set(itertools.product(BASES, repeat=2)) - supported
    assert ("N", "N", True, True) in outcomes and ("Mt", "N", True, True) in outcomes


def test_atom_is_a_frozen_ordered_value():
    a = Atom("N", 2, 1, 3)
    assert dataclasses.is_dataclass(a)
    assert dataclasses.replace(a, shift=4) == Atom("N", 2, 1, 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.shift = 0
    twin = Atom("N", 2, 1, 3)
    assert twin is not a and twin == a and hash(twin) == hash(a)
    assert a != Atom("N", 2, 1, 4) and a != ("N", 2, 1, 3)
    assert len({a, twin, Atom("Xa"), Atom("Xa", 0, 0, 0)}) == 2
    # ordering compares the fields in turn, the base by name, not by rank
    rng = random.Random(3)
    atoms = [Atom(b, p, t, s) for b in BASES for p in (-1, 0, 2) for t in (0, 1) for s in (-1, 3)]
    rng.shuffle(atoms)
    assert sorted(atoms) == sorted(atoms, key=lambda x: (x.base, x.power, x.twist, x.shift))
    assert Atom("Ma") < Atom("Mt") < Atom("N", -1) < Atom("N") <= Atom("N") < Atom("N", 0, 0, 1)
    assert repr(a) == "Atom(base='N', power=2, twist=1, shift=3)"
    assert [str(x) for x in (a, Atom("N"), Atom("N", -1), Atom("Xt", 0, 0, 1))] == [
        "N^2(1)[3]", "T", "N^-1", "Xt(0)[1]",
    ]


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("T $", "unexpected character '$' at position 2 in motive expression"),
        ("T(1)[", "unexpected end of motive expression"),
        ("T N", "trailing input at token 'N'"),
        ("(T + N", "unexpected end of motive expression"),
        ("(T + N Xa", "missing closing parenthesis"),
        ("T(1]", "twist suffix: missing ')'"),
        ("T(x)[1]", "expected integer, got 'x'"),
    ],
)
def test_parser_error_paths(text, message):
    # motive errors are parse errors, so one except clause catches both
    # grammars; the message names the expression
    with pytest.raises(ParseError) as info:
        parse_motive(text)
    assert isinstance(info.value, MotiveParseError)
    assert str(info.value) == f"bad motive expression {text!r}: {message}"


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


@pytest.mark.parametrize("model_name", ["real", "finite_field", "three"])
def test_power_table_reads_the_box_power(model_name):
    # N^k for k > D reads Npow:D; here it equals the table of the built Npow:k
    if model_name == "three":
        model_name = str(Path(__file__).resolve().parents[1] / "bench" / "three.json")
    model = build_field_model(model_name)
    for wmax, dmax in ((0, 0), (2, 1), (3, 3), (1, 4), (5, 5)):
        for k in range(dmax + 1, dmax + 4):
            got = motive_cohomology(model, m(f"N^{k}"), wmax, dmax)
            assert got == block_table(model, f"Npow:{k}", wmax, dmax), (wmax, dmax, k)


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


def cell_coordinates(basis):
    index = {m: i for i, m in enumerate(basis)}
    return lambda poly: sum(1 << index[m] for m in poly)


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
