import time
from fractions import Fraction as Q

import pytest

from parakahler.config import (
    MAX_DIGITS,
    Fields,
    finite_float,
    float_rational,
    integer,
    nodes,
    rational,
)
from parakahler.errors import ConfigError


def test_fields_comments_case_and_repeats():
    fields = Fields(
        "# header\n\nN = 2   # trailing\nMonomial = a\nmonomial = b\n",
        ("n", "monomial"),
        required=("n",),
        repeated=("monomial",),
    )
    assert list(fields.lines) == ["n", "monomial"]
    assert fields.get("n", integer) == 2 and fields.line("monomial") == 4
    assert fields.all("monomial", lambda value, where: (value, where)) == [
        ("a", "line 4: monomial"),
        ("b", "line 5: monomial"),
    ]
    assert fields.get("absent", integer, 7) == 7


@pytest.mark.parametrize(
    "text, message",
    [
        ("n = 1\ncolour = red\n", "line 2: unknown key 'colour'"),
        ("n = 1\n\nN = 2\n", "line 3: duplicate key 'n'"),
        ("n = 1\nno equals sign\n", "line 2: expected 'key = value'"),
        ("# only a comment\n", "missing required key 'n'"),
    ],
)
def test_fields_rejections_name_the_line(text, message):
    with pytest.raises(ConfigError) as exc:
        Fields(text, ("n",), required=("n",))
    assert message in str(exc.value)


@pytest.mark.parametrize(
    "text, value",
    [("3", 3), ("-2/3", Q(-2, 3)), (" 1.5e-3 ", Q(3, 2000)), ("1e4299", 10**4299)],
)
def test_rational_literal(text, value):
    assert rational(text, "x") == value


@pytest.mark.parametrize(
    "text", ["1e999999", "1e9999999", "-1E+4301", "1e4300", "1e-4300", "1/0", "abc", "nan"]
)
def test_rational_literal_refuses_before_expanding(text):
    # Fraction("1e999999") alone takes about 0.4 s: the exponent is refused first.
    start = time.perf_counter()
    with pytest.raises(ConfigError) as exc:
        rational(text, "line 4: scale")
    assert time.perf_counter() - start < 0.1
    assert str(exc.value) == (
        f"line 4: scale must be a rational of at most {MAX_DIGITS} digits, got {text!r}"
    )


def test_float_readers():
    assert float_rational("1e308", "x") == 10**308
    assert finite_float("0.25", "x") == 0.25
    for read, text in [(float_rational, "1e400"), (float_rational, "1e999999"),
                       (finite_float, "inf"), (finite_float, "nan"), (integer, "2.5")]:
        with pytest.raises(ConfigError, match="^where must be"):
            read(text, "where")


def test_node_lists():
    assert nodes("1, 3  5,,2", "x") == [1, 3, 5, 2]
    assert nodes("", "x") == []
    assert nodes("1-6, 3-5", "x", pairs=True) == [(1, 6), (3, 5)]
    for text, pairs in [("1, x", False), ("-1", False), ("1" * 5000, False),
                        ("1:3", True), ("1-2-3", True), ("1", True)]:
        with pytest.raises(ConfigError, match="^--cross must be a list like"):
            nodes(text, "--cross", pairs)
