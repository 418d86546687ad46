import re

import pytest

from subtle.errors import SubtleError
from subtle.parse import STRING, STRINGS, ParseError, check_descriptor, parse_id, parse_poly

FIELDS = {"name": STRING, "items": STRINGS}


def test_parse_poly_values():
    assert parse_poly("a*b + b*a") == frozenset()
    assert parse_poly("(a + 1)^2") == parse_poly("a^2 + 1")
    assert parse_poly("3 + 2*a") == frozenset([()])
    assert parse_poly("a^0") == frozenset([()])
    assert parse_poly("(a + b)^3") == parse_poly("a^3 + a^2*b + a*b^2 + b^3")


def test_parse_poly_power_by_squaring():
    # the cost grows with the exponent's length, not its value
    assert parse_poly("a^1000000000") == frozenset({(("a", 1000000000),)})


@pytest.mark.parametrize(
    "text, message",
    [
        ("a $ b", "unexpected character '$' at position 2"),
        ("a +", "unexpected end of expression"),
        ("   ", "unexpected end of expression"),
        ("a b", "trailing input at token 'b'"),
        ("a)", "trailing input at token ')'"),
        ("(a + b c", "missing closing parenthesis"),
        ("a^b", "expected integer exponent, got 'b'"),
        ("+a", "unexpected token '+'"),
    ],
)
def test_parse_poly_errors(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_poly(text)


def test_check_descriptor_drops_nulls_and_keeps_the_rest():
    assert check_descriptor({"name": "x", "items": None}, "thing", FIELDS) == {"name": "x"}


@pytest.mark.parametrize(
    "value, required, message",
    [
        (["x"], (), "thing must hold a JSON object"),
        ({"nmae": "x"}, (), "thing: unknown key 'nmae'; known: name, items"),
        ({"items": "x"}, (), "thing: items must be a list of strings, got 'x'"),
        ({"name": None}, ("name",), "thing: name is required"),
    ],
)
def test_check_descriptor_errors(value, required, message):
    with pytest.raises(SubtleError) as info:
        check_descriptor(value, "thing", FIELDS, required)
    assert str(info.value).startswith(message)


def test_parse_id_reads_a_name_and_ascii_digits():
    assert parse_id("H", "id") == ("H", ())
    assert parse_id("NpowBU:1:20", "id") == ("NpowBU", (1, 20))
    assert parse_id("comp:007", "id") == ("comp", (7,))
    for text, part in (
        ("BU:1_0", "'1_0'"), ("BU:+1", "'+1'"), ("BU:-1", "'-1'"), ("BU:1 ", "'1 '"),
        ("BU:\uff11", "'\uff11'"), ("BU:", "''"), (" BU:1", "' BU'"), ("B_U:1", "'B_U'"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_id(text, "id")
        assert str(exc.value).startswith(f"bad id {text!r}: {part} is not")

