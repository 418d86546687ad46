import json
import random
from dataclasses import fields

import pytest

from subtle.bigraded import quotient, standard_monomials
from subtle.errors import AlphaIsSquare, ExceedsBound, SubtleError, UnknownGenerator, ZeroElement
from subtle.milnor import FieldModel, build_field_model, km_annihilator, km_normal_form
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


# degree-16 relations whose completion reaches past the presentation's
# bound: degree 17 has 14 classes, and a basis walked there reads 15
LATE_RELATIONS = {
    "name": "late_relations",
    "generators": ["a", "b"],
    "relations": ["a^9*b^7 + b^16", "a^16 + a*b^15"],
    "alpha": "a",
}


@pytest.mark.parametrize("name", ["real", "finite_field", "late_relations"])
def test_dimension_oracle_equivalence(name):
    # standard-monomial counts vs dense row reduction, degrees 0..6 and the
    # top certified degree; a degree above it is refused, not miscounted
    model = build_field_model(LATE_RELATIONS if name == "late_relations" else name)
    dims = model.dimensions(6)
    for n in range(7):
        assert dims[n] == oracle_entry(model.presentation, n, n)
    top = FieldModel.degree_bound
    assert model.dimensions(top)[top] == oracle_entry(model.presentation, top, top)
    with pytest.raises(ExceedsBound):
        model.dimensions(top + 1)


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


@pytest.mark.parametrize(
    "descriptor",
    [{"builtin": "real"}, {"builtin": "finite_field", "name": "fq", "alpha": None}],
)
def test_model_dict_follows_the_file_rules(tmp_path, descriptor):
    # a dict and a file with the same content build the same model: both
    # merge over the named builtin and treat null as absent
    path = tmp_path / "m.json"
    path.write_text(json.dumps(descriptor), encoding="utf-8")
    from_dict = build_field_model(descriptor)
    assert from_dict == build_field_model(str(path))
    assert from_dict == build_field_model(descriptor["builtin"])


def test_degree_bound_is_one_constant_outside_equality(real):
    # every model is completed at the one bound, which equality ignores
    assert "degree_bound" not in {f.name for f in fields(FieldModel)}
    assert real.degree_bound == FieldModel.degree_bound == 16
    assert real.presentation.truncation_bound == 2 * FieldModel.degree_bound


def test_model_dict_unknown_key_raises():
    with pytest.raises(SubtleError, match="'relation'"):
        build_field_model({"generators": ["a"], "relation": ["a^2"], "alpha": "a"})


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
