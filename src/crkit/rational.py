"""Exact complex rational arithmetic built on fractions.Fraction."""

from __future__ import annotations

import math
from fractions import Fraction


class GaussRational:
    """A complex number whose real and imaginary parts are rationals.

    Fraction keeps both parts in lowest terms with positive denominators,
    so equal values always have identical representations. Instances are
    treated as immutable.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def _trusted(cls, re: Fraction, im: Fraction) -> "GaussRational":
        """Wrap parts that are already Fractions, without re-wrapping them.

        Every arithmetic result is built here: Fraction arithmetic returns
        reduced Fractions, so ``__init__``'s coercion would only copy them.
        """
        value = object.__new__(cls)
        value.re = re
        value.im = im
        return value

    @staticmethod
    def coerce(value) -> "GaussRational":
        if isinstance(value, GaussRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussRational(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussRational(other)
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        try:
            other = GaussRational.coerce(other)
        except TypeError:
            return NotImplemented  # the other operand's reflected method may read it
        return GaussRational._trusted(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRational._trusted(-self.re, -self.im)

    def __sub__(self, other):
        try:
            other = GaussRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussRational._trusted(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussRational.coerce(other) - self

    def __mul__(self, other):
        try:
            other = GaussRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussRational._trusted(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussRational.coerce(other)
        d = other.re * other.re + other.im * other.im
        if not d:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRational._trusted(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return GaussRational.coerce(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are exact")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "GaussRational":
        return GaussRational._trusted(self.re, -self.im)

    def modulus_float(self) -> float:
        """Float absolute value, for diagnostics only."""
        return math.hypot(float(self.re), float(self.im))

    def __repr__(self):
        if not self.im:
            return f"GaussRational({self.re})"
        return f"GaussRational({self.re}, {self.im})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        im = f"{self.im}*i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        if not self.re:
            return im
        sign = "+" if self.im > 0 else ""
        return f"({self.re}{sign}{im})"


ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)
