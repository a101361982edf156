from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from plesken.scalars import I, ONE, ZERO, Scalar, clear

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
scalars = st.builds(Scalar, rationals, rationals)


def test_normal_form():
    s = Scalar(Fraction(2, 4), Fraction(-6, 8))
    assert (s.a, s.b, s.d) == (2, -3, 4)
    assert s.d > 0
    assert Scalar(0).d == 1


def test_basic_arithmetic():
    assert Scalar(1, 2) + Scalar(3, -1) == Scalar(4, 1)
    assert Scalar(2) * I == Scalar(0, 2)
    assert I * I == Scalar(-1)
    assert (Scalar(1, 1) / Scalar(1, -1)) == I
    assert Scalar(Fraction(3, 2)) - Scalar(Fraction(1, 2)) == ONE
    assert -Scalar(1, -2) == Scalar(-1, 2)


def test_int_interop():
    assert Scalar(3) == 3
    assert Scalar(3) + 1 == 4
    assert 2 * Scalar(1, 1) == Scalar(2, 2)
    assert 1 - Scalar(Fraction(1, 2)) == Scalar(Fraction(1, 2))
    assert 1 / Scalar(2) == Scalar(Fraction(1, 2))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


@pytest.mark.parametrize("text,expected", [
    ("0", ZERO),
    ("-4", Scalar(-4)),
    ("3/2", Scalar(Fraction(3, 2))),
    ("1/2*I", Scalar(0, Fraction(1, 2))),
    ("3/2+1/2*I", Scalar(Fraction(3, 2), Fraction(1, 2))),
    ("-1/2-3*I", Scalar(Fraction(-1, 2), -3)),
    ("I", I),
    ("-I", -I),
])
def test_parse(text, expected):
    assert Scalar.parse(text) == expected


def test_parse_of_the_text_0_is_the_zero_singleton():
    assert Scalar.parse("0") is ZERO
    # every other spelling of zero goes through the general parser
    for text in (" 0", "0 ", "-0", "+0", "00", "0/7", "0*I", "0+0*I"):
        zero = Scalar.parse(text)
        assert zero == ZERO and zero is not ZERO and (zero.a, zero.b, zero.d) == (0, 0, 1)
    for bad in ("0/0", "0 0", "0x"):
        with pytest.raises(ValueError):
            Scalar.parse(bad)


@pytest.mark.parametrize("bad", ["", "1//2", "2+*I", "x", "1/0", "3 4",
                                 # non-ASCII digits, and a newline before a term
                                 "\u0663", "\uff11/\uff12", "1\n+2*I", "3/4\n*I"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        Scalar.parse(bad)


def test_parse_gives_the_same_object_for_the_same_text():
    for text in ("3/2+1/2*I", "-1", "I", " 0", "7/3"):
        first = Scalar.parse(text)
        # an equal string made at run time, not the same literal
        assert Scalar.parse("".join(list(text))) is first


@pytest.mark.parametrize("bad", ["", "1//2", "x", "1/0", "0/0", "3 4"])
def test_parse_raises_on_every_call_for_bad_text(bad):
    for _ in range(3):
        with pytest.raises(ValueError):
            Scalar.parse(bad)


@pytest.mark.parametrize("value,name", [(1, "int"), (None, "NoneType"), (b"1", "bytes"),
                                        (["1"], "list"), (Fraction(1, 2), "Fraction")])
def test_parse_refuses_a_non_string_before_the_memo(value, name):
    # an unhashable list gets the same message as any other non-string
    for _ in range(2):
        with pytest.raises(TypeError) as exc:
            Scalar.parse(value)
        assert str(exc.value) == f"scalar must be a string, got {name}"


def test_parse_is_exact_past_the_memo_bound():
    rng = random.Random(5000)
    values = {}
    while len(values) < 5000:
        x = Scalar(Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 999)),
                   Fraction(rng.randint(-99, 99), rng.randint(1, 99)) if rng.random() < 0.5 else 0)
        values[str(x)] = x
    for _ in range(2):  # the second pass reads texts the bound has evicted
        for text, x in values.items():
            y = Scalar.parse(text)
            assert (y.a, y.b, y.d) == (x.a, x.b, x.d)


@given(scalars)
def test_string_roundtrip(s):
    assert Scalar.parse(str(s)) == s


@given(scalars, scalars, scalars)
def test_field_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO
    if x:
        assert x / x == ONE
        assert x * (ONE / x) == ONE


@given(scalars)
def test_hash_consistency(s):
    assert hash(s) == hash(Scalar(s.re, s.im))
    if not s.b:
        assert hash(s) == hash(s.re)


def fraction_str(s):
    """The text form built from ``Fraction`` real and imaginary parts."""
    def part(q):
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    re, im = Fraction(s.a, s.d), Fraction(s.b, s.d)
    if im == 0:
        return part(re)
    if re == 0:
        return part(im) + "*I"
    return part(re) + ("+" if im > 0 else "-") + part(abs(im)) + "*I"


def test_str_matches_fraction_formatter():
    rng = random.Random(2024)
    fixed = [ZERO, ONE, -ONE, I, -I, Scalar(0, Fraction(-3, 4)), Scalar(Fraction(-5, 6)),
             Scalar(Fraction(1, 2), Fraction(1, 3)), Scalar(Fraction(-7, 9), -1),
             Scalar(2, Fraction(-5, 2))]
    def part():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 36))

    seeded = [Scalar(part(), part() if rng.random() < 0.7 else 0) for _ in range(2000)]
    for s in fixed + seeded:
        assert str(s) == fraction_str(s)
    assert [str(s) for s in fixed] == ["0", "1", "-1", "1*I", "-1*I", "-3/4*I", "-5/6",
                                       "1/2+1/3*I", "-7/9-1*I", "2-5/2*I"]


@given(st.lists(scalars, max_size=6))
def test_clear_gives_the_least_common_denominator(values):
    den, re, im = clear(values)
    assert [Scalar(Fraction(a, den), Fraction(b, den)) for a, b in zip(re, im)] == values
    # D is least: no proper divisor of D clears every value
    assert all(any((den // p) % x.d for x in values)
               for p in range(2, den + 1) if den % p == 0)
    assert clear([]) == (1, [], [])


def lcm_clear(values):
    """:func:`clear` by its formula, with no case for integer scalars."""
    den = lcm(*{x.d for x in values})
    return den, [x.a * (den // x.d) for x in values], [x.b * (den // x.d) for x in values]


def test_clear_of_integers_matches_the_lcm_formula():
    rng = random.Random(19)

    def draw(d):
        return Scalar._make(rng.randint(-20, 20), rng.randint(-5, 5) * (rng.random() < 0.5),
                            rng.choice(d))

    cases = [[], [ZERO], [ONE, -I], [Scalar(Fraction(1, 2))], [ONE, Scalar(Fraction(1, 2))]]
    for _ in range(400):
        size = rng.randint(0, 8)
        cases.append([draw([1]) for _ in range(size)])
        cases.append([draw([1, 1, 1, 2, 3, 6]) for _ in range(size)])
    assert any(all(x.d == 1 for x in c) and c for c in cases)
    assert any(any(x.d == 1 for x in c) and any(x.d > 1 for x in c) for c in cases)
    for values in cases:
        got = clear(values)
        assert got == lcm_clear(values)
        assert all(type(v) is int for part in got[1:] for v in part)
