import random
from pathlib import Path

import pytest

from subtle import milnor
from subtle.bigraded import quotient, standard_monomials
from subtle.errors import AlphaIsSquare, UnknownGenerator, ZeroElement
from subtle.milnor import build_field_model, km_annihilator, km_normal_form
from subtle.oracle import oracle_entry


def test_real_builtin(real):
    assert real.generators == ("rho",)
    assert real.relation_strings == ()
    assert str(real.alpha) == "rho"
    assert real.minus_one_string == "rho"
    assert real.minus_one == real.alpha
    assert build_field_model("finite_field").minus_one is None


def test_finite_field_builtin(fq):
    assert fq.generators == ("s",)
    assert fq.relation_strings == ("s^2",)
    # all degree-2 products vanish: K^M_2 of a finite field is trivial
    assert km_normal_form(fq, "s*s").is_zero()
    assert fq.dimensions(4) == [1, 1, 0, 0, 0]


def test_quadratically_closed_has_no_alpha(qc):
    assert not qc.has_alpha
    with pytest.raises(AlphaIsSquare):
        _ = qc.alpha


def test_custom_model_with_declared_square_rejected():
    with pytest.raises(AlphaIsSquare):
        build_field_model(
            {"generators": ["a"], "relations": ["a"], "alpha": "a"}
        )


def test_alpha_must_be_degree_one():
    with pytest.raises(AlphaIsSquare):
        build_field_model({"generators": ["a"], "relations": [], "alpha": "a^2"})


def test_normal_form_examples(real, fq):
    assert km_normal_form(fq, "s*s").is_zero()
    assert km_normal_form(fq, "s + s").is_zero()
    assert str(km_normal_form(real, "rho*rho")) == "rho^2"


def test_normal_form_unknown_generator(real):
    with pytest.raises(UnknownGenerator):
        km_normal_form(real, "sigma")


def test_normal_form_idempotent(real, fq, two_gen):
    rng = random.Random(7)
    for model in (real, fq, two_gen):
        pres = model.presentation
        names = list(model.generators)
        for _ in range(25):
            monos = []
            for _ in range(rng.randint(1, 4)):
                deg = rng.randint(1, 4)
                monos.append("*".join(rng.choice(names) for _ in range(deg)))
            raw = " + ".join(monos)
            once = km_normal_form(model, raw)
            again = km_normal_form(model, once)
            assert once == again


@pytest.mark.parametrize("name", ["real", "finite_field"])
def test_dimension_oracle_equivalence(name):
    # standard-monomial counts vs dense row reduction, degrees 0..6
    model = build_field_model(name)
    dims = model.dimensions(6)
    for n in range(7):
        assert dims[n] == oracle_entry(model.presentation, n, n)


def test_annihilator_real(real):
    ann = km_annihilator(real, real.alpha, 8)
    assert ann.gens == ()


def test_annihilator_finite_field(fq):
    ann = km_annihilator(fq, fq.alpha, 8)
    assert [str(g) for g in ann.gens] == ["s"]


def test_annihilator_two_generator_model(two_gen):
    ann = km_annihilator(two_gen, two_gen.alpha, 8)
    assert [str(g) for g in ann.gens] == ["b"]
    # the quotient by Ann(a) keeps a polynomial line on a
    q = quotient(two_gen.presentation, ann)
    for n in range(1, 6):
        assert len(standard_monomials(q, n, n)) == 1


def test_annihilator_shared_by_content_equal_models():
    ann = build_field_model("real").annihilator(8)
    assert build_field_model("real").annihilator(8) is ann


@pytest.mark.parametrize("name", ["real", "finite_field", "three"])
def test_annihilator_read_off_a_larger_bound(name, monkeypatch):
    # with Ann(alpha) cached at bound 17, every smaller bound is read off that
    # entry, and gives what a fresh colon run gives
    if name == "three":
        name = str(Path(__file__).resolve().parents[1] / "bench" / "three.json")
    model = build_field_model(name)
    runs = []

    def counted(model, f=None, degree_bound=8):
        runs.append(degree_bound)
        return km_annihilator(model, f, degree_bound)

    monkeypatch.setattr(milnor, "_ANN", {})
    monkeypatch.setattr(milnor, "km_annihilator", counted)
    model.annihilator(17)
    for n in range(18):
        ann, fresh = model.annihilator(n), km_annihilator(model, model.alpha, n)
        assert [str(g) for g in ann.gens] == [str(g) for g in fresh.gens], n
        assert ann.degree_bound == fresh.degree_bound == 2 * n
    assert runs == [17]


def test_annihilator_of_zero_rejected(fq):
    with pytest.raises(ZeroElement):
        km_annihilator(fq, "s^2", 6)


@pytest.mark.parametrize("name", ["real", "finite_field"])
def test_annihilator_correctness_exhaustive(name):
    # x * alpha = 0 iff x = 0 modulo the annihilator, per graded piece
    model = build_field_model(name)
    bound = 6
    ann = km_annihilator(model, model.alpha, bound)
    q = quotient(model.presentation, ann)
    alpha = model.alpha
    for n in range(bound):
        basis = standard_monomials(model.presentation, n, n)
        for bits in range(1, 1 << len(basis)):
            monos = {basis[i] for i in range(len(basis)) if bits >> i & 1}
            x = model.presentation.element_from_monomials(monos)
            kills = (x * alpha).is_zero()
            in_ann = not q.reduce_poly(x.monomials)
            assert kills == in_ann


def test_inhomogeneous_relation_rejected():
    from subtle.errors import NonHomogeneousRelation

    with pytest.raises(NonHomogeneousRelation):
        build_field_model(
            {"generators": ["a", "b"], "relations": ["a + a*b"], "alpha": "a"}
        )


def test_duplicate_generator_names_rejected():
    from subtle.errors import EmptyGeneratorNameClash

    with pytest.raises(EmptyGeneratorNameClash):
        build_field_model({"generators": ["a", "a"], "relations": [], "alpha": "a"})


def test_annihilator_requires_alpha(qc):
    with pytest.raises(AlphaIsSquare):
        qc.annihilator(6)


def test_model_descriptor_file(tmp_path):
    path = tmp_path / "custom.json"
    path.write_text(
        '{"builtin": null, "generators": ["a", "b"], "relations": ["a*b"], "alpha": "a"}',
        encoding="utf-8",
    )
    model = build_field_model(str(path))
    assert model.generators == ("a", "b")
    assert km_normal_form(model, "a*b").is_zero()
    assert not km_normal_form(model, "a^2").is_zero()
