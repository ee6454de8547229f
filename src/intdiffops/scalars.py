"""Exact scalars: rationals and Gaussian rationals.

All arithmetic in the engine runs over Q or Q(i).  A Scalar is one
normalized integer triple (nre, nim, den): the value (nre + nim*i)/den with
den > 0 and gcd(nre, nim, den) = 1, so zero is (0, 0, 1) and equal values
have equal triples.  Arithmetic runs on the ints, with fast paths for an
integer (den = 1) and a rational (nim = 0) operand; `.re` and `.im` are
Fractions built on read.  The field choice ("q" vs "qi") only controls which
values are admissible as inputs and whether square roots of negative
rationals exist.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Tuple, Union

Rat = Union[int, Fraction]


class Scalar:
    """Element of Q(i), stored as (nre + nim*i)/den with den > 0 and
    gcd(nre, nim, den) = 1."""

    __slots__ = ("nre", "nim", "den")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        if type(re) is not int or type(im) is not int:
            # ints and Fractions both carry numerator and denominator
            if type(re) is not int and type(re) is not Fraction:
                re = Fraction(re)
            if type(im) is not int and type(im) is not Fraction:
                im = Fraction(im)
            a, b = re.denominator, im.denominator
            # lcm of two reduced denominators: the triple is normalized
            den = a if a == b or b == 1 else b if a == 1 else a // gcd(a, b) * b
            _set_re(self, re.numerator * (den // a))
            _set_im(self, im.numerator * (den // b))
            _set_den(self, den)
            return
        _set_re(self, re)
        _set_im(self, im)
        _set_den(self, 1)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        # rebuilt from the normalized triple, past the write guard, so
        # pickle and copy.deepcopy work on Scalars and on what holds them
        return _trusted, (self.nre, self.nim, self.den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def frac(nre: int, nim: int, den: int) -> "Scalar":
        """(nre + nim*i)/den from ints, normalized; den must be nonzero."""
        if den != 1:
            if den < 0:
                nre, nim, den = -nre, -nim, -den
            elif not den:
                raise ZeroDivisionError("Scalar with zero denominator")
            g = gcd(nre, nim, den) if nim else gcd(nre, den)
            if g != 1:
                nre, nim, den = nre // g, nim // g, den // g
        return _trusted(nre, nim, den)

    @staticmethod
    def of(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        if isinstance(value, str):
            return scalar_from_str(value)
        raise TypeError(f"cannot make a Scalar from {value!r}")

    @staticmethod
    def i() -> "Scalar":
        return Scalar(0, 1)

    # -- parts ----------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.nre, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.nim, self.den)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nre and not self.nim

    def is_one(self) -> bool:
        return self.nre == 1 and self.den == 1 and not self.nim

    def is_integer(self) -> bool:
        return self.den == 1 and not self.nim

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            if type(other) is int:
                return _trusted(self.nre + other * self.den, self.nim, self.den)
            other = Scalar.of(other)
        d, f = self.den, other.den
        if d == f:
            if d == 1:
                return _trusted(self.nre + other.nre, self.nim + other.nim, 1)
            return Scalar.frac(self.nre + other.nre, self.nim + other.nim, d)
        return Scalar.frac(self.nre * f + other.nre * d, self.nim * f + other.nim * d, d * f)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            if type(other) is int:
                return _trusted(self.nre - other * self.den, self.nim, self.den)
            other = Scalar.of(other)
        d, f = self.den, other.den
        if d == f:
            if d == 1:
                return _trusted(self.nre - other.nre, self.nim - other.nim, 1)
            return Scalar.frac(self.nre - other.nre, self.nim - other.nim, d)
        return Scalar.frac(self.nre * f - other.nre * d, self.nim * f - other.nim * d, d * f)

    def __rsub__(self, other) -> "Scalar":
        return Scalar.of(other) - self

    def __neg__(self) -> "Scalar":
        return _trusted(-self.nre, -self.nim, self.den)

    def __mul__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = Scalar.of(other)
        a, b, c, e = self.nre, self.nim, other.nre, other.nim
        den = self.den * other.den
        if not b and not e:
            if den == 1:
                return _trusted(a * c, 0, 1)
            return Scalar.frac(a * c, 0, den)
        return Scalar.frac(a * c - b * e, a * e + b * c, den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        if type(other) is not Scalar:
            other = Scalar.of(other)
        a, b, c, e, f = self.nre, self.nim, other.nre, other.nim, other.den
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero Scalar")
            return Scalar.frac(a * f, b * f, self.den * c)
        n = c * c + e * e
        return Scalar.frac((a * c + b * e) * f, (b * c - a * e) * f, self.den * n)

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.of(other) / self

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return power(ONE / self, -k, ONE)
        return power(self, k, ONE)

    def conj(self) -> "Scalar":
        return _trusted(self.nre, -self.nim, self.den)

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is Scalar:
            return self.nre == other.nre and self.nim == other.nim and self.den == other.den
        if isinstance(other, int):
            return self.den == 1 and not self.nim and self.nre == other
        if isinstance(other, Fraction):
            return not self.nim and self.nre == other.numerator and self.den == other.denominator
        return NotImplemented

    def __hash__(self):
        # a rational hashes like its Fraction, so Scalar(q) and q are one key
        re = hash(self.nre) if self.den == 1 else hash(self.re)
        if not self.nim:
            return re
        return hash((re, hash(self.nim) if self.den == 1 else hash(self.im)))

    def sort_key(self):
        return (self.re, self.im)

    # -- display ------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        """'p', 'p/q', 'i', '-i', 'q*i' or 'p+q*i': the form scalar_from_str reads."""
        if not self.nim:
            return str(self.re)
        im = self.im
        ims = "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
        if not self.nre:
            return ims
        return f"{self.re}{'+' if im > 0 else ''}{ims}"


_new = object.__new__
_set_re = Scalar.nre.__set__
_set_im = Scalar.nim.__set__
_set_den = Scalar.den.__set__


def _trusted(nre: int, nim: int, den: int) -> Scalar:
    """The Scalar of a triple that is already normalized."""
    s = _new(Scalar)
    _set_re(s, nre)
    _set_im(s, nim)
    _set_den(s, den)
    return s


ZERO = Scalar(0)
ONE = Scalar(1)


def common_den(scalars) -> int:
    """The lcm of the scalars' denominators, folded one at a time: a call
    with a star-argument tuple sized by the input would leave such tuples in
    CPython's free lists on hot paths."""
    den = 1
    for c in scalars:
        d = c.den
        if den % d:
            den = den // gcd(den, d) * d
    return den


def power(base, k: int, one):
    """base**k for k >= 0 by right-to-left square-and-multiply, with `one`
    the unit of base's ring.  The base is squared only while higher bits of
    k remain, so no product of degree above k is formed."""
    out = one
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def _coeff_term_str(c: Scalar, body: str) -> Tuple[str, str]:
    """Render coeff*body as (sign, text) with sign in {'+','-'}; body "1"
    is a constant term."""
    sign = "+"
    if not c.nim and c.nre < 0 or not c.nre and c.nim < 0:
        sign, c = "-", -c
    cs = f"({c})" if c.nre and c.nim else str(c)
    if body == "1":
        return sign, cs
    if c.is_one():
        return sign, body
    return sign, f"{cs}*{body}"


def signed_sum(terms: Iterable[Tuple[Scalar, str]]) -> str:
    """The sum of nonzero terms coeff*body, in order, a negative coefficient
    joined with a minus: "H^2 - 2", "(1+i)*H"; "0" when there are none.  The
    one printer of operators and polynomials."""
    pieces = [_coeff_term_str(c, body) for c, body in terms]
    if not pieces:
        return "0"
    first_sign, s = pieces[0]
    s = ("-" if first_sign == "-" else "") + s
    for sign, text in pieces[1:]:
        s += f" {sign} {text}"
    return s


def scalar_from_str(text: str) -> Scalar:
    """Parse 'p', 'p/q', 'i', '-i', 'q*i' or 'p+q*i' (spaces ignored, '*'
    optional) into a Scalar.  Decimals are read exactly; exponents are
    refused, since '1e999999' would build its whole power of ten.  Every
    failure is a ValueError "bad scalar literal '<text>': <reason>"."""
    s = text.strip().replace(" ", "").replace("*i", "i")
    try:
        if "e" in s.lower():
            raise ValueError("exponents are not accepted")
        if "i" not in s:
            return Scalar(Fraction(s))
        if not s.endswith("i"):
            raise ValueError("'i' may only end the literal")
        # the imaginary part runs from the last sign past the first character
        cut = max(s.rfind("+", 1), s.rfind("-", 1), 0)
        im = s[cut:-1]
        return Scalar(Fraction(s[:cut] or 0), Fraction(im + "1" if im in ("", "+", "-") else im))
    except ValueError as exc:
        raise ValueError(f"bad scalar literal {text!r}: {exc}") from None
    except ZeroDivisionError:
        raise ValueError(f"bad scalar literal {text!r}: zero denominator") from None


class Field:
    """The configured base field: Q ("q") or Q(i) ("qi")."""

    def __init__(self, name: str = "q"):
        if name not in ("q", "qi"):
            raise ValueError(f"unknown field {name!r}")
        self.name = name

    @property
    def has_i(self) -> bool:
        return self.name == "qi"

    def contains(self, s: Scalar) -> bool:
        return self.has_i or s.im == 0

    def sqrt(self, s: Scalar) -> Scalar | None:
        """Exact square root of s in this field, or None."""
        if s.is_zero():
            return ZERO
        if s.im == 0:
            r = _sqrt_fraction(abs(s.re))
            if r is None:
                return None
            if s.re > 0:
                return Scalar(r)
            return Scalar(0, r) if self.has_i else None
        if not self.has_i:
            return None
        # (u+vi)^2 = a+bi:  u^2 = (a + |s|)/2, v = b/(2u)
        norm = _sqrt_fraction(s.re * s.re + s.im * s.im)
        if norm is None:
            return None
        u = _sqrt_fraction((s.re + norm) / 2)
        if u is None or u == 0:
            return None
        return Scalar(u, s.im / (2 * u))

    def __repr__(self):
        return f"Field({self.name!r})"

    def __eq__(self, other):
        return isinstance(other, Field) and self.name == other.name


QQ = Field("q")
QQI = Field("qi")


def _sqrt_fraction(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    pn = isqrt(x.numerator)
    pd = isqrt(x.denominator)
    if pn * pn != x.numerator or pd * pd != x.denominator:
        return None
    return Fraction(pn, pd)
