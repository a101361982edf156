"""Exact Gaussian-rational scalars.

A :class:`Scalar` is an element of Q(i) stored as ``(a + b*i) / d`` with
integer ``a``, ``b`` and positive integer ``d``, normalized so that
``gcd(a, b, d) == 1``.  All arithmetic is exact; there are no floats
anywhere in this package.

The canonical string form is ``"a/b"`` for rational values and
``"a/b+c/d*I"`` for proper complex ones, e.g. ``"3/2+1/2*I"``, ``"-4"``,
``"1/3*I"``.  :func:`Scalar.parse` reads that form back.  Documents repeat a
few texts many times, so it memoises the scalar of each text it has read
(the most recent :data:`_PARSE_MEMO`), which is safe because a scalar is
never mutated; ``"0"`` is tested before the memo and is always :data:`ZERO`.
"""

from __future__ import annotations

import re as _re
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Rational = int | Fraction

_TERM_RE = _re.compile(r"[+-][^+-]*")
_RAT_RE = _re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class Scalar:
    """Immutable element of Q(i)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re: Rational = 0, im: Rational = 0) -> None:
        re = Fraction(re)
        im = Fraction(im)
        a = re.numerator * im.denominator
        b = im.numerator * re.denominator
        d = re.denominator * im.denominator
        g = gcd(gcd(a, b), d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        self.a = a
        self.b = b
        self.d = d

    @classmethod
    def _make(cls, a: int, b: int, d: int) -> "Scalar":
        # internal: normalize a raw integer triple
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(gcd(a, b), d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        s = object.__new__(cls)
        s.a = a
        s.b = b
        s.d = d
        return s

    # -- field data ---------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: object) -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d1, d2 = self.d, other.d
        if d1 == 1 and d2 == 1:
            s = object.__new__(Scalar)
            s.a = self.a + other.a
            s.b = self.b + other.b
            s.d = 1
            return s
        return Scalar._make(self.a * d2 + other.a * d1,
                            self.b * d2 + other.b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d1, d2 = self.d, other.d
        if d1 == 1 and d2 == 1:
            s = object.__new__(Scalar)
            s.a = self.a - other.a
            s.b = self.b - other.b
            s.d = 1
            return s
        return Scalar._make(self.a * d2 - other.a * d1,
                            self.b * d2 - other.b * d1, d1 * d2)

    def __rsub__(self, other: object) -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: object) -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if b1 == 0 and b2 == 0:
            return Scalar._make(a1 * a2, 0, self.d * other.d)
        return Scalar._make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                            self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero scalar")
        # 1 / ((a+bi)/d) = d*(a-bi) / (a^2+b^2)
        norm = other.a * other.a + other.b * other.b
        return self * Scalar._make(other.d * other.a, -other.d * other.b, norm)

    def __rtruediv__(self, other: object) -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self) -> "Scalar":
        s = object.__new__(Scalar)
        s.a = -self.a
        s.b = -self.b
        s.d = self.d
        return s

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Scalar):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.re)
        return hash((self.a, self.b, self.d))

    # -- text form ------------------------------------------------------------

    def __str__(self) -> str:
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return _ratio_str(a, d)
        if a == 0:
            return _ratio_str(b, d) + "*I"
        return _ratio_str(a, d) + ("+" if b > 0 else "-") + _ratio_str(abs(b), d) + "*I"

    def __repr__(self) -> str:
        return f"Scalar({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        """Read the canonical string form back into a scalar.  Equal texts give
        the same object, from a memo of the last :data:`_PARSE_MEMO` texts read;
        malformed text is never memoised and raises on every call."""
        if not isinstance(text, str):
            raise TypeError(f"scalar must be a string, got {type(text).__name__}")
        if text == "0":
            # most entries of a dense bracket vector, cheaper to test than to
            # look up; any other spelling of zero takes the general path
            return ZERO
        return _parse(text)


def clear(values: Sequence[Scalar]) -> tuple[int, list[int], list[int]]:
    """(D, re, im): the least common denominator D of the scalars and the
    real and imaginary parts of D times each, in order; D is 1 for none."""
    if all(x.d == 1 for x in values):
        return 1, [x.a for x in values], [x.b for x in values]
    den = lcm(*{x.d for x in values})
    return den, [x.a * (den // x.d) for x in values], [x.b * (den // x.d) for x in values]


def _coerce(value: object) -> Scalar | None:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    return None


def _ratio_str(num: int, den: int) -> str:
    """num/den in lowest terms, without the denominator when it is 1."""
    g = gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    return str(num) if den == 1 else f"{num}/{den}"


def _parse_rational(term: str, original: str) -> tuple[int, int]:
    """(numerator, positive denominator) of one rational term."""
    m = _RAT_RE.fullmatch(term)
    if m is None:
        raise ValueError(f"malformed scalar string {original!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator in scalar string {original!r}")
    return num, den


_PARSE_MEMO = 4096


@lru_cache(maxsize=_PARSE_MEMO)
def _parse(text: str) -> Scalar:
    """The body of :meth:`Scalar.parse`, memoised by exact text."""
    s = text.strip()
    if not s:
        raise ValueError("empty scalar string")
    if s[0] not in "+-":
        s = "+" + s
    terms = _TERM_RE.findall(s)
    if "".join(terms) != s:
        raise ValueError(f"malformed scalar string {text!r}")
    # real and imaginary parts as integer fractions re_n/re_d, im_n/im_d
    re_n, re_d, im_n, im_d = 0, 1, 0, 1
    for term in terms:
        if term.endswith("*I") or term in ("+I", "-I"):
            coeff = term[:-2] if term.endswith("*I") else term[:-1] + "1"
            num, den = _parse_rational(coeff, text)
            im_n, im_d = im_n * den + num * im_d, im_d * den
        else:
            num, den = _parse_rational(term, text)
            re_n, re_d = re_n * den + num * re_d, re_d * den
    return Scalar._make(re_n * im_d, im_n * re_d, re_d * im_d)


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
