"""Exact scalar arithmetic: rationals and complex rationals.

Rationals are plain ``fractions.Fraction`` (arbitrary precision, always
reduced, positive denominator).  ``ComplexRational`` pairs two of them and
supports field arithmetic, so every coefficient in the package stays exact
until a caller explicitly asks for a float; a value beyond the float range
then raises ``DomainError``.

Most values met in practice are real, so ``+``, ``*`` and ``/`` have a
real path.  An ``int`` operand is used as it is, without wrapping.  When
one operand of ``+`` or ``*``, or the divisor of ``/``, is real, each
nonzero part of the result costs one ``Fraction`` operation, so real plus,
times or over real is a single one.  The results equal the general
formula's in value, hash and repr.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DomainError

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "ComplexRational"]


def as_fraction(x: RationalLike | str | float) -> Fraction:
    """Coerce to an exact Fraction.  Strings may be 'p/q' or decimal digits;
    floats are converted through their shortest repr so '0.1' means 1/10."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(repr(float(x)))
    raise TypeError(f"cannot interpret {x!r} as a rational")


def frac_str(x: Fraction) -> str:
    """'p/q', with '/q' omitted for integers."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class ComplexRational:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(x: ScalarLike) -> "ComplexRational":
        if isinstance(x, ComplexRational):
            return x
        return ComplexRational(as_fraction(x))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __add__(self, other: ScalarLike) -> "ComplexRational":
        if isinstance(other, int):
            return ComplexRational(self.re + other, self.im)
        o = ComplexRational.of(other)
        if not o.im:
            return ComplexRational(self.re + o.re, self.im)
        if not self.im:
            return ComplexRational(self.re + o.re, o.im)
        return ComplexRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def __sub__(self, other: ScalarLike) -> "ComplexRational":
        return self + (-ComplexRational.of(other))

    def __rsub__(self, other: ScalarLike) -> "ComplexRational":
        return ComplexRational.of(other) + (-self)

    def __mul__(self, other: ScalarLike) -> "ComplexRational":
        # z * r with r real: an int operand, or whichever factor is real
        if isinstance(other, int):
            z, r = self, other
        else:
            o = ComplexRational.of(other)
            if not o.im:
                z, r = self, o.re
            elif not self.im:
                z, r = o, self.re
            else:
                return ComplexRational(self.re * o.re - self.im * o.im,
                                       self.re * o.im + self.im * o.re)
        if not z.im:
            return ComplexRational(z.re * r)
        return ComplexRational(z.re * r, z.im * r)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "ComplexRational":
        # z / r with r real: an int operand, or a real divisor
        if isinstance(other, int):
            r = other
        else:
            o = ComplexRational.of(other)
            if o.im:
                d = o.re * o.re + o.im * o.im
                return ComplexRational(
                    (self.re * o.re + self.im * o.im) / d,
                    (self.im * o.re - self.re * o.im) / d,
                )
            r = o.re
        if not r:
            raise ZeroDivisionError("division by exact zero")
        if not self.im:
            return ComplexRational(self.re / r)
        return ComplexRational(self.re / r, self.im / r)

    def __rtruediv__(self, other: ScalarLike) -> "ComplexRational":
        return ComplexRational.of(other) / self

    def __pow__(self, n: int) -> "ComplexRational":
        if n < 0:
            return CR_ONE / self ** (-n)
        out = CR_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __complex__(self) -> complex:
        try:
            return complex(float(self.re), float(self.im))
        except OverflowError:
            raise DomainError("exact value does not fit in a float") from None

    def __str__(self) -> str:
        if self.im == 0:
            return frac_str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{frac_str(self.im)}*i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{frac_str(mag)}*i"
        return f"{frac_str(self.re)}{sign}{istr}"


CR_ZERO = ComplexRational()
CR_ONE = ComplexRational(Fraction(1))
CR_I = ComplexRational(Fraction(0), Fraction(1))
