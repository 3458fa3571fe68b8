"""Exact scalar arithmetic: rationals and complex rationals.

Rationals are plain ``fractions.Fraction`` (arbitrary precision, always
reduced, positive denominator).  A ``ComplexRational`` is two integer
numerators over one positive denominator, ``(re_num + im_num*i) / den``
with ``gcd(re_num, im_num, den) == 1``: the layout of ``expr``'s polynomial
kernel, and of FLINT's ``fmpq`` for one rational.  Each of ``+``, ``-``,
``*`` and ``/`` is one integer formula and one ``math.gcd``, whether an
operand is complex, real, an ``int`` or a ``Fraction``.  The parts ``re``
and ``im`` read as ``Fraction`` values, built on each read, so a caller
that needs a part more than once reads it once.

Every coefficient in the package stays exact until a caller explicitly asks
for a float; a value beyond the float range then raises ``DomainError``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Tuple, Union

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


class ComplexRational:
    """A complex number with exact rational real and imaginary parts,
    stored as ``(re_num + im_num*i) / den`` in lowest terms.  Immutable."""

    __slots__ = ("re_num", "im_num", "den")

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0):
        return cr_of_ints(re.numerator * im.denominator,
                          im.numerator * re.denominator,
                          re.denominator * im.denominator)

    @staticmethod
    def of(x: ScalarLike) -> "ComplexRational":
        return x if isinstance(x, ComplexRational) else cr_of_ints(*_parts(x))

    @property
    def re(self) -> Fraction:
        return Fraction(self.re_num, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.im_num, self.den)

    @property
    def is_zero(self) -> bool:
        return not self.re_num and not self.im_num

    @property
    def is_real(self) -> bool:
        return not self.im_num

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return ComplexRational, (self.re, self.im)

    def __eq__(self, other):
        if other.__class__ is not ComplexRational:
            return NotImplemented
        return (self.re_num == other.re_num and self.im_num == other.im_num
                and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __add__(self, other: ScalarLike) -> "ComplexRational":
        c, e, f = _parts(other)
        d = self.den
        return cr_of_ints(self.re_num * f + c * d, self.im_num * f + e * d,
                          d * f)

    __radd__ = __add__

    def __neg__(self) -> "ComplexRational":
        return cr_of_ints(-self.re_num, -self.im_num, self.den)

    def __sub__(self, other: ScalarLike) -> "ComplexRational":
        c, e, f = _parts(other)
        d = self.den
        return cr_of_ints(self.re_num * f - c * d, self.im_num * f - e * d,
                          d * f)

    def __rsub__(self, other: ScalarLike) -> "ComplexRational":
        return -self + other

    def __mul__(self, other: ScalarLike) -> "ComplexRational":
        c, e, f = _parts(other)
        a, b = self.re_num, self.im_num
        return cr_of_ints(a * c - b * e, a * e + b * c, self.den * f)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "ComplexRational":
        c, e, f = _parts(other)
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by exact zero")
        a, b = self.re_num, self.im_num
        return cr_of_ints(f * (a * c + b * e), f * (b * c - a * e),
                          self.den * n)

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
            return complex(self.re_num / self.den, self.im_num / self.den)
        except OverflowError:
            raise DomainError("exact value does not fit in a float") from None

    def __repr__(self) -> str:
        return f"ComplexRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return frac_str(re)
        if re == 0:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{frac_str(im)}*i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        istr = "i" if mag == 1 else f"{frac_str(mag)}*i"
        return f"{frac_str(re)}{sign}{istr}"


# the slots' own setters, which get past the raising __setattr__
_new = object.__new__
_set_re = ComplexRational.re_num.__set__
_set_im = ComplexRational.im_num.__set__
_set_den = ComplexRational.den.__set__


def cr_of_ints(re_num: int, im_num: int, den: int) -> ComplexRational:
    """``(re_num + im_num*i) / den`` for integers with den > 0."""
    g = gcd(re_num, im_num, den)
    z = _new(ComplexRational)
    _set_re(z, re_num // g)
    _set_im(z, im_num // g)
    _set_den(z, den // g)
    return z


def _parts(x: ScalarLike) -> Tuple[int, int, int]:
    """(re_num, im_num, den) of an operand."""
    if isinstance(x, ComplexRational):
        return x.re_num, x.im_num, x.den
    if isinstance(x, int):
        return x, 0, 1
    x = as_fraction(x)
    return x.numerator, 0, x.denominator


CR_ZERO = ComplexRational()
CR_ONE = ComplexRational(1)
CR_I = ComplexRational(0, 1)
