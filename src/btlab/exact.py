"""Exact complex numbers with rational real and imaginary parts.

All symbolic computations in this package run over Q[i] so that algebraic
identities can be asserted with ``==`` instead of tolerances.  Floating
point enters only in matrix factorizations and grid searches.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import comb, lcm

Rational = int | Fraction

_ZERO = Fraction(0)


class QC:
    """A complex number re + i*im with ``Fraction`` components."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rational = 0, im: Rational = 0):
        """A ``Fraction`` part is kept as it is: it is already normalized, and every
        arithmetic result arrives as one.  Ints and other rationals are converted."""
        object.__setattr__(self, "re", re if isinstance(re, Fraction) else Fraction(re))
        object.__setattr__(self, "im", im if isinstance(im, Fraction) else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QC values are immutable")

    def __reduce__(self):
        return QC, (self.re, self.im)

    @staticmethod
    def of_ints(re: int, im: int, den: int) -> "QC":
        """(re + i*im)/den for ints and a positive den, with one ``Fraction`` per nonzero part."""
        return QC(Fraction(re, den) if re else _ZERO, Fraction(im, den) if im else _ZERO)

    @staticmethod
    def coerce(value: "QC | Rational") -> "QC":
        if isinstance(value, QC):
            return value
        if isinstance(value, (int, Fraction)):
            return QC(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to QC")

    def __add__(self, other):
        other = QC.coerce(other)
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = QC.coerce(other)
        return QC(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return QC.coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QC(self.re * other, self.im * other)
        other = QC.coerce(other)
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QC.coerce(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero QC")
        return QC(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __rtruediv__(self, other):
        return QC.coerce(other) / self

    def __neg__(self):
        return QC(-self.re, -self.im)

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (QC, int, Fraction)):
            other = QC.coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        # a real value equals its int or Fraction, so it must hash like one (as complex does)
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"QC({self.re!r}, {self.im!r})"


QC_I = QC(0, 1)


def over_common_den(values: Mapping) -> tuple[int, dict]:
    """A map key -> QC as (den, nums): nums maps key -> (re, im) ints with value
    (re + i*im)/den, over the lcm of every part's denominator."""
    den = lcm(*(p.denominator for c in values.values() for p in (c.re, c.im)))
    return den, {
        key: (c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator))
        for key, c in values.items()
    }


def beta_int(p: int, q: int) -> Fraction:
    """Euler Beta function at positive integer arguments, exactly.

    B(p, q) = (p-1)! (q-1)! / (p+q-1)! = 1 / ((p+q-1) * C(p+q-2, p-1)).
    """
    if p < 1 or q < 1:
        raise ValueError(f"beta_int needs positive integer arguments, got ({p}, {q})")
    return Fraction(1, (p + q - 1) * comb(p + q - 2, p - 1))
