"""Exact scalar arithmetic: rationals and complex rationals.

Rationals are ``fractions.Fraction`` values (arbitrary precision, always
reduced, positive denominator).  Every breakpoint and atom location is a
``Rat``: a ``Fraction`` that stores its hash, computed once by
``Fraction``'s own formula, and compares with another ``Rat`` by integers
alone (``==`` on the two pairs, each ordering by one cross-multiply).  Sorts,
``bisect``, sets and dict keys on breakpoints then never reach ``Fraction``'s
generic comparison or its hash, which runs ``pow(den, -1, 2**61 - 1)`` on
every call.  Any other operand goes to ``Fraction``'s methods, arithmetic
returns plain ``Fraction`` values, and ``repr`` reads ``Fraction(n, d)``, so
a ``Rat`` prints, compares and hashes as the ``Fraction`` it equals.
``as_fraction`` is the one coercion, and returns a ``Rat``.

A ``ComplexRational`` is two integer numerators over one positive
denominator, ``(re_num + im_num*i) / den`` with ``gcd(re_num, im_num, den)
== 1``: the layout of ``expr``'s polynomial kernel, and of FLINT's
``fmpq`` for one rational.  Each of ``+``, ``-``, ``*`` and ``/`` is one
integer formula and one ``math.gcd``, whether an operand is complex, real,
an ``int`` or a ``Fraction``.  The parts ``re`` and ``im`` read as plain
``Fraction`` values, built on each read, so a caller that needs a part
more than once reads it once.

Every coefficient in the package stays exact until a caller explicitly asks
for a float; a value beyond the float range then raises ``DomainError``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, isfinite
from operator import attrgetter
from typing import Tuple, Union

from .errors import DomainError, ParseError

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "ComplexRational"]


class Rat(Fraction):
    """A ``Fraction`` with its hash stored and integer compares; the type of
    every breakpoint and atom location.  ``as_fraction`` makes one."""

    __slots__ = ("_hash",)

    def __new__(cls, numerator=0, denominator=None):
        f = Fraction(numerator, denominator)
        return _rat(f._numerator, f._denominator)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if other.__class__ is Rat:
            return (self._numerator == other._numerator
                    and self._denominator == other._denominator)
        return Fraction.__eq__(self, other)

    def __lt__(self, other):
        if other.__class__ is Rat:
            return (self._numerator * other._denominator
                    < other._numerator * self._denominator)
        return Fraction.__lt__(self, other)

    def __le__(self, other):
        if other.__class__ is Rat:
            return (self._numerator * other._denominator
                    <= other._numerator * self._denominator)
        return Fraction.__le__(self, other)

    def __gt__(self, other):
        if other.__class__ is Rat:
            return (self._numerator * other._denominator
                    > other._numerator * self._denominator)
        return Fraction.__gt__(self, other)

    def __ge__(self, other):
        if other.__class__ is Rat:
            return (self._numerator * other._denominator
                    >= other._numerator * self._denominator)
        return Fraction.__ge__(self, other)

    def __repr__(self) -> str:
        return f"Fraction({self._numerator}, {self._denominator})"


_HASH_MODULUS = sys.hash_info.modulus


def _rat(n: int, d: int) -> Rat:
    """n/d for coprime integers with d > 0, its hash computed as
    ``Fraction.__hash__`` computes it."""
    r = object.__new__(Rat)
    r._numerator = n
    r._denominator = d
    h = (hash(hash(abs(n)) * pow(d, -1, _HASH_MODULUS))
         if d % _HASH_MODULUS else sys.hash_info.inf)
    # hash() reads a returned -1 as -2, as Fraction.__hash__ gives it
    r._hash = h if n >= 0 else -h
    return r


def as_fraction(x: RationalLike | str | float) -> Rat:
    """Coerce to an exact ``Rat``.  Strings may be 'p/q' or decimal digits;
    floats are converted through their shortest repr so '0.1' means 1/10.
    A string that is no rational raises ``ParseError``, and an infinite or
    nan float ``DomainError``."""
    if x.__class__ is Rat:
        return x
    if isinstance(x, (int, Fraction)):
        return _rat(x.numerator, x.denominator)
    if isinstance(x, str):
        try:
            f = Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"not a rational: {x!r}", 0) from None
    elif isinstance(x, float):
        if not isfinite(x):
            raise DomainError(f"{x!r} is not a finite rational")
        f = Fraction(repr(float(x)))
    else:
        raise TypeError(f"cannot interpret {x!r} as a rational")
    return _rat(f._numerator, f._denominator)


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


def record(cls, extra: Tuple[str, ...] = ()):
    """cls as a frozen ``__slots__`` class of its annotated fields, named by
    ``__match_args__``, and the slots in extra; keywords need defaults or
    over three fields, and ``cls._unchecked`` skips ``__post_init__``."""
    ns = {k: v for k, v in vars(cls).items()
          if k not in ("__dict__", "__weakref__")}
    fields = tuple(ns.get("__annotations__", ()))
    defaults = {f: ns.pop(f) for f in fields if f in ns}
    get = attrgetter(*fields) if fields else lambda self: ()
    key = (lambda self: (get(self),)) if len(fields) == 1 else get
    cls = type(cls.__name__, cls.__bases__, dict(
        ns, __slots__=fields + extra, __qualname__=cls.__qualname__,
        __match_args__=fields, __reduce__=lambda self: (cls, key(self)),
        __setattr__=ComplexRational.__setattr__,
        __delattr__=ComplexRational.__setattr__,
        __hash__=lambda self: hash(key(self)),
        __eq__=lambda self, o: (a := get(self)) is (b := get(o)) or a == b
        if o.__class__ is self.__class__ else NotImplemented,
        __repr__=lambda self: "%s(%s)" % (cls.__qualname__, ", ".join(
            f"{f}={v!r}" for f, v in zip(fields, key(self))))))
    put = [getattr(cls, f).__set__ for f in fields]

    def init(self, *args, **kw):
        if kw or len(args) != len(fields):
            vals = dict(defaults, **dict(zip(fields, args)), **kw)
            if len(args) > len(fields) or vals.keys() != set(fields):
                raise TypeError(f"{cls.__name__} takes the fields {fields}")
            args = [vals[f] for f in fields]
        for set_field, v in zip(put, args):
            set_field(self, v)
    if 0 < len(fields) <= 3 and not defaults:  # each setter returns None
        init = (lambda self, a: put[0](self, a),
                lambda self, a, b: put[0](self, a) or put[1](self, b),
                lambda self, a, b, c: put[0](self, a) or put[1](self, b)
                or put[2](self, c))[len(fields) - 1]
    cls._unchecked = lambda *a: init(new := object.__new__(cls), *a) or new
    cls.__init__ = init if not hasattr(cls, "__post_init__") else (
        lambda self, *a, **kw: init(self, *a, **kw) or self.__post_init__())
    return cls
