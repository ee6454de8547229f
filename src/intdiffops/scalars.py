"""Exact scalars: rationals and Gaussian rationals.

All arithmetic in the engine runs over Q or Q(i).  A Scalar always carries
both coordinates as reduced Fractions; the field choice ("q" vs "qi") only
controls which values are admissible as inputs and whether square roots of
negative rationals exist.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

Rat = Union[int, Fraction]


class Scalar:
    """Element of Q(i), stored as re + im*i with reduced Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        # a Fraction is already reduced; only ints need wrapping
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------

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

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0

    def is_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Scalar":
        other = Scalar.of(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        other = Scalar.of(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "Scalar":
        return Scalar.of(other) - self

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __mul__(self, other) -> "Scalar":
        other = Scalar.of(other)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = Scalar.of(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.of(other) / self

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return power(ONE / self, -k, ONE)
        return power(self, k, ONE)

    def conj(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def sort_key(self):
        return (self.re, self.im)

    # -- display ------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        """'p', 'p/q', 'i', '-i', 'q*i' or 'p+q*i': the form scalar_from_str reads."""
        if self.im == 0:
            return str(self.re)
        ims = "i" if self.im == 1 else "-i" if self.im == -1 else f"{self.im}*i"
        if self.re == 0:
            return ims
        return f"{self.re}{'+' if self.im > 0 else ''}{ims}"


ZERO = Scalar(0)
ONE = Scalar(1)


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
