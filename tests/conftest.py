import pytest

from subtle.milnor import build_field_model


@pytest.fixture(scope="session")
def real():
    return build_field_model("real")


@pytest.fixture(scope="session")
def fq():
    return build_field_model("finite_field")


@pytest.fixture(scope="session")
def qc():
    return build_field_model("quadratically_closed")


@pytest.fixture(scope="session")
def two_gen():
    # custom model with a nontrivial annihilator and a nontrivial quotient:
    # Ann(a) = (b) and K/Ann(a) is a polynomial line on a
    return build_field_model(
        {"name": "two_gen", "generators": ["a", "b"], "relations": ["a*b"], "alpha": "a"}
    )


@pytest.fixture(scope="session")
def ab4_path(tmp_path_factory):
    # Ann(a) = (b^4): its generator sits far above the small bounds, so a
    # block asked for at a small bound rises past it
    path = tmp_path_factory.mktemp("models") / "ab4.json"
    path.write_text(
        '{"name": "ab4", "generators": ["a", "b"], "relations": ["a*b^4"], '
        '"alpha": "a", "minus_one": "a"}',
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture(scope="session")
def ab4(ab4_path):
    return build_field_model(ab4_path)
