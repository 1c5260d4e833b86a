import math
import random
from fractions import Fraction

import pytest

from sumfree.rationals import (
    RationalParseError,
    decimal_str,
    parse_pair,
)


def test_gcd_reduction():
    r = Fraction(*parse_pair("2/4"))
    assert r == Fraction(1, 2) and str(r) == "1/2"


def test_sign_normalization():
    r = Fraction(*parse_pair("-3/-6"))
    assert r == Fraction(1, 2)
    assert r.numerator == 1 and r.denominator == 2
    assert str(Fraction(*parse_pair("3/-6"))) == "-1/2"


def test_record_constant_is_canonical():
    assert math.gcd(77, 177) == 1
    r = Fraction(*parse_pair("77/177"))
    assert (r.numerator, r.denominator) == (77, 177)


def test_zero_denominator_is_an_explicit_error():
    with pytest.raises(RationalParseError) as exc:
        Fraction(*parse_pair("1/0"))
    assert (exc.value.reason, exc.value.pos) == ("zero denominator", 2)


def test_arithmetic_examples():
    assert Fraction(1, 2) + Fraction(-1, 114) == Fraction(28, 57)
    assert Fraction(1, 2) - Fraction(1, 114) == Fraction(28, 57)
    assert Fraction(1, 3) * Fraction(77, 177) == Fraction(77, 531)
    assert Fraction(77, 531) / Fraction(1, 3) == Fraction(77, 177)
    assert Fraction(4, 9) < Fraction(1, 2)
    assert min(Fraction(4, 9), Fraction(1, 2)) == Fraction(4, 9)
    assert max(Fraction(4, 9), Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-50, 50), rng.randint(1, 50))


def test_field_axioms_on_random_triples():
    rng = random.Random(20240917)
    for _ in range(500):
        a, b, c = (_random_rational(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1


def test_construction_round_trip_under_scaling():
    rng = random.Random(7)
    for _ in range(500):
        p = rng.randint(-100, 100)
        q = rng.randint(1, 100)
        s = rng.choice([i for i in range(-20, 21) if i != 0])
        scaled, plain = parse_pair(f"{p * s}/{q * s}"), parse_pair(f"{p}/{q}")
        assert Fraction(*scaled) == Fraction(*plain) == Fraction(p, q)


def test_cmp_matches_cross_multiplication():
    rng = random.Random(99)
    for _ in range(500):
        a, b = _random_rational(rng), _random_rational(rng)
        cross = a.numerator * b.denominator - b.numerator * a.denominator
        assert (a < b) == (cross < 0)
        assert (a == b) == (cross == 0)
        assert (a > b) == (cross > 0)


@pytest.mark.parametrize("text,value", [
    ("77/177", Fraction(77, 177)),
    ("-1/114", Fraction(-1, 114)),
    ("1", Fraction(1)),
    ("  2/3 ", Fraction(2, 3)),
    ("-6/4", Fraction(-3, 2)),
])
def test_parse_rational(text, value):
    assert Fraction(*parse_pair(text)) == value


@pytest.mark.parametrize("text", ["", "1/", "/2", "a/b", "1/0", "1.5"])
def test_parse_rational_rejects_garbage(text):
    with pytest.raises(RationalParseError):
        Fraction(*parse_pair(text))


def test_parse_error_carries_position():
    err = pytest.raises(RationalParseError, parse_pair, "3/x").value
    assert err.pos == 2


def test_format_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        q = _random_rational(rng)
        assert Fraction(*parse_pair(str(q))) == q
    assert str(Fraction(-1, 114)) == "-1/114"
    assert str(Fraction(4, 2)) == "2"


def test_decimal_rendering_is_display_only():
    assert decimal_str(Fraction(77, 177)) == "0.435028"
    assert decimal_str(Fraction(-1, 3)) == "-0.333333"
    assert decimal_str(Fraction(5, 2)) == "2.500000"
    assert decimal_str(Fraction(-3, 1000)) == "-0.003000"


@pytest.mark.parametrize("text,pair", [
    ("77/177", (77, 177)),
    ("2/4", (2, 4)),  # not reduced
    ("3/-6", (-3, 6)),
    ("-3/-6", (3, 6)),
    ("-0/5", (0, 5)),
    ("+3/4", (3, 4)),
    (" 1_0 / 40 ", (10, 40)),
    ("-7", (-7, 1)),
])
def test_parse_pair_moves_the_sign_to_the_numerator(text, pair):
    assert parse_pair(text) == pair
