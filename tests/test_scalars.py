"""Exact scalars: ComplexRational agrees with the general formula, with the
dataclass of two Fractions it replaced, and keeps Fraction arithmetic off
the exact path of star; Rat agrees with Fraction, and keeps Fraction's
hash and comparisons off star, bracket and equal_dist."""

import copy
import operator
import pickle
import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import distalg as d
from distalg import ComplexRational, DistAlgError, DomainError, as_fraction
from distalg.scalars import Rat

from conftest import random_corpus

_fracs = st.one_of(st.just(Fraction(0)),
                   st.fractions(min_value=-20, max_value=20,
                                max_denominator=12),
                   st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                             st.integers(1, 10 ** 30)))
_crs = st.builds(ComplexRational, _fracs, st.one_of(st.just(Fraction(0)),
                                                    _fracs))
_operands = st.one_of(_crs, _fracs, st.integers(-10 ** 20, 10 ** 20),
                      st.integers(-3, 3), st.booleans())


def _general_add(a, b):
    o = ComplexRational.of(b)
    return ComplexRational(a.re + o.re, a.im + o.im)


def _general_mul(a, b):
    o = ComplexRational.of(b)
    return ComplexRational(a.re * o.re - a.im * o.im,
                           a.re * o.im + a.im * o.re)


def _general_div(a, b):
    o = ComplexRational.of(b)
    d = o.re * o.re + o.im * o.im
    return ComplexRational((a.re * o.re + a.im * o.im) / d,
                           (a.im * o.re - a.re * o.im) / d)


def _same(got, want):
    assert (got.re, got.im) == (want.re, want.im)
    assert got == want
    assert hash(got) == hash(want)
    # repr shows the parts' types too, so a bool numerator would show
    assert repr(got) == repr(want)
    assert type(got.re) is type(got.im) is Fraction


@given(_crs, _operands)
def test_add_matches_the_general_formula(a, b):
    _same(a + b, _general_add(a, b))
    _same(b + a, _general_add(a, b))


@given(_crs, _operands)
def test_mul_matches_the_general_formula(a, b):
    _same(a * b, _general_mul(a, b))
    _same(b * a, _general_mul(a, b))


def _same_quotient(a, b):
    if ComplexRational.of(b).is_zero:
        with pytest.raises(ZeroDivisionError, match="division by exact zero"):
            a / b
    else:
        _same(a / b, _general_div(ComplexRational.of(a), b))


@given(_crs, _operands)
def test_div_matches_the_general_formula(a, b):
    _same_quotient(a, b)
    _same_quotient(b, a)


@pytest.mark.parametrize("zero", [0, False, Fraction(0), ComplexRational()])
def test_div_by_exact_zero_raises(zero):
    with pytest.raises(ZeroDivisionError, match="division by exact zero"):
        ComplexRational(Fraction(3), Fraction(1)) / zero
    with pytest.raises(ZeroDivisionError, match="division by exact zero"):
        ComplexRational(Fraction(3)) / zero


# ---------------------------------------------------------------------------
# the dataclass of two Fractions that the integer layout replaced, as it was


@dataclass(frozen=True)
class _Reference:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(x):
        if isinstance(x, _Reference):
            return x
        return _Reference(as_fraction(x))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __add__(self, other):
        if isinstance(other, int):
            return _Reference(self.re + other, self.im)
        o = _Reference.of(other)
        if not o.im:
            return _Reference(self.re + o.re, self.im)
        if not self.im:
            return _Reference(self.re + o.re, o.im)
        return _Reference(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return _Reference(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_Reference.of(other))

    def __rsub__(self, other):
        return _Reference.of(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            z, r = self, other
        else:
            o = _Reference.of(other)
            if not o.im:
                z, r = self, o.re
            elif not self.im:
                z, r = o, self.re
            else:
                return _Reference(self.re * o.re - self.im * o.im,
                                  self.re * o.im + self.im * o.re)
        if not z.im:
            return _Reference(z.re * r)
        return _Reference(z.re * r, z.im * r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            r = other
        else:
            o = _Reference.of(other)
            if o.im:
                dd = o.re * o.re + o.im * o.im
                return _Reference((self.re * o.re + self.im * o.im) / dd,
                                  (self.im * o.re - self.re * o.im) / dd)
            r = o.re
        if not r:
            raise ZeroDivisionError("division by exact zero")
        if not self.im:
            return _Reference(self.re / r)
        return _Reference(self.re / r, self.im / r)

    def __rtruediv__(self, other):
        return _Reference.of(other) / self

    def __pow__(self, n):
        if n < 0:
            return _Reference(Fraction(1)) / self ** (-n)
        out = _Reference(Fraction(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __complex__(self):
        try:
            return complex(float(self.re), float(self.im))
        except OverflowError:
            raise DomainError("exact value does not fit in a float") from None

    def __str__(self):
        if self.im == 0:
            return d.frac_str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{d.frac_str(self.im)}*i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{d.frac_str(mag)}*i"
        return f"{d.frac_str(self.re)}{sign}{istr}"


_Reference.__qualname__ = "ComplexRational"  # the dataclass repr's name

_big = st.integers(-10 ** 30, 10 ** 30)
_ctor_parts = st.one_of(st.just(0), st.just(Fraction(0)), st.integers(-5, 5),
                        _big, st.fractions(min_value=-20, max_value=20,
                                           max_denominator=12),
                        st.builds(Fraction, _big, st.integers(1, 10 ** 30)))
_ctor_args = st.tuples(_ctor_parts, _ctor_parts)
_plain = st.one_of(st.integers(-3, 3), _big, st.booleans(),
                   st.fractions(min_value=-20, max_value=20,
                                max_denominator=12),
                   st.builds(Fraction, _big, st.integers(1, 10 ** 30)))


def _pair(args):
    """The same number as the new class and as the reference; the library
    only ever built the reference from Fraction parts."""
    re, im = args
    return ComplexRational(re, im), _Reference(as_fraction(re),
                                               as_fraction(im))


_operands = st.one_of(_ctor_args.map(_pair), _plain.map(lambda x: (x, x)))


def _outcome(f, *args):
    try:
        return f(*args)
    except ZeroDivisionError as e:
        return ("raises", str(e))


def _pinned(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert type(got) is ComplexRational
    assert type(got.re) is type(got.im) is Fraction
    assert (got.re, got.im) == (want.re, want.im)
    assert (got.is_zero, got.is_real) == (want.is_zero, want.is_real)
    assert got == ComplexRational(want.re, want.im)
    assert hash(got) == hash(want) == hash((want.re, want.im))
    assert repr(got) == repr(want)
    assert str(got) == str(want)
    assert complex(got) == complex(want)


_BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


@settings(max_examples=300, deadline=None)
@given(_ctor_args.map(_pair), _operands)
def test_matches_the_dataclass_it_replaced(a, b):
    (a_new, a_ref), (b_new, b_ref) = a, b
    _pinned(a_new, a_ref)
    _pinned(-a_new, -a_ref)
    assert (a_new == b_new) == (a_ref == b_ref)
    assert (b_new == a_new) == (b_ref == a_ref)
    for op in _BINARY:
        _pinned(_outcome(op, a_new, b_new), _outcome(op, a_ref, b_ref))
        _pinned(_outcome(op, b_new, a_new), _outcome(op, b_ref, a_ref))
    for n in range(-4, 5):
        _pinned(_outcome(operator.pow, a_new, n),
                _outcome(operator.pow, a_ref, n))


def test_constructor_keywords_defaults_and_of():
    z = ComplexRational(im=Fraction(1, 6), re=Fraction(-3, 4))
    assert (z.re_num, z.im_num, z.den) == (-9, 2, 12)
    assert repr(z) == ("ComplexRational(re=Fraction(-3, 4), "
                       "im=Fraction(1, 6))")
    assert repr(ComplexRational()) == ("ComplexRational(re=Fraction(0, 1), "
                                       "im=Fraction(0, 1))")
    assert ComplexRational.of(z) is z
    for x in (3, True, Fraction(2, 3), "5/7", 0.1):
        assert ComplexRational.of(x) == ComplexRational(as_fraction(x))


def test_equal_only_to_a_complex_rational():
    z = ComplexRational(Fraction(1, 2))
    assert z != Fraction(1, 2) and Fraction(1, 2) != z and z != 0.5
    assert ComplexRational(1) == ComplexRational(Fraction(2, 2))


def test_immutable_and_copyable():
    z = ComplexRational(Fraction(1, 2), Fraction(-3))
    for name in ("re", "im", "re_num", "im_num", "den", "other"):
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
    with pytest.raises(AttributeError):
        del z.den
    assert (z.re_num, z.im_num, z.den) == (1, -6, 2)
    assert copy.copy(z) == pickle.loads(pickle.dumps(z)) == z


def test_complex_beyond_the_float_range_raises():
    for z in (ComplexRational(Fraction(10 ** 400, 3)),
              ComplexRational(0, -10 ** 400)):
        with pytest.raises(DomainError):
            complex(z)
    # a huge numerator over a huge denominator still fits
    assert complex(ComplexRational(Fraction(10 ** 400 + 1, 10 ** 400))) == 1


_FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
                        "__mul__", "__rmul__", "__truediv__",
                        "__rtruediv__", "__neg__")


def _count_fraction_calls(monkeypatch, names):
    """A list that gets the name of each call of these Fraction methods."""
    calls = []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(Fraction, name,
                            counted(name, getattr(Fraction, name)))
    return calls


def test_star_on_acceptance_triples_does_no_fraction_arithmetic(monkeypatch):
    """The exact path of star, on 30 polynomial triples of acceptance 02,
    computes with integers: no Fraction is added, subtracted, multiplied,
    divided or negated."""
    fs, gs, js = (random_corpus(seed, 30) for seed in (11, 12, 13))
    calls = _count_fraction_calls(monkeypatch, _FRACTION_ARITHMETIC)
    for F, G, J in zip(fs, gs, js):
        d.star(d.star(F, G), J)
        d.star(F, d.star(G, J))
    assert calls == []


# ---------------------------------------------------------------------------
# Rat: breakpoints and atom locations


_small = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_huge = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
                  st.integers(1, 10 ** 40))
_rationals = st.one_of(_small, _huge)


@st.composite
def _rational_pairs(draw):
    """Two rationals, often equal or nearly equal (p/q against
    p/q + 10^-30), as a Rat's value and its other operand's."""
    a = draw(_rationals)
    b = draw(st.one_of(_rationals, st.just(a),
                       st.builds(lambda s: a + Fraction(s, 10 ** 30),
                                 st.sampled_from([1, -1]))))
    return a, b


def _as_kind(x: Fraction, kind: str):
    if kind == "Rat":
        return as_fraction(x)
    if kind == "int":
        return x.numerator // x.denominator
    if kind == "float":
        return float(x)
    return x


_COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le,
                operator.gt, operator.ge)


def _same_value(r, f: Fraction):
    assert type(r) is Rat and isinstance(r, Fraction)
    assert (r.numerator, r.denominator) == (f.numerator, f.denominator)
    assert hash(r) == hash(f)
    assert repr(r) == repr(f) and str(r) == str(f)
    assert bool(r) == bool(f) and d.frac_str(r) == d.frac_str(f)
    assert float(r) == float(f)


@settings(max_examples=300, deadline=None)
@given(_rational_pairs(), st.sampled_from(["Rat", "Fraction", "int",
                                           "float"]),
       st.one_of(st.none(), st.sampled_from([float("inf"), float("-inf"),
                                             float("nan")])))
def test_rat_matches_fraction(pair, kind, special):
    a, b = pair
    r = as_fraction(a)
    _same_value(r, a)
    other = special if special is not None else _as_kind(b, kind)
    plain = Fraction(other) if type(other) is Rat else other
    for op in _COMPARISONS:
        assert op(r, other) is op(a, plain), (op, r, other)
        assert op(other, r) is op(plain, a), (op, other, r)
    for copied in (copy.copy(r), copy.deepcopy(r),
                   pickle.loads(pickle.dumps(r))):
        _same_value(copied, a)
        assert copied == r


@given(_rationals)
def test_rat_arithmetic_and_parts_stay_plain(a):
    r = as_fraction(a)
    assert as_fraction(r) is r
    for v in (r + 1, r - r, r * r, r / 3, -r, abs(r), +r, r + a,
              Fraction(r)):
        assert type(v) is Fraction
    assert r - a == 0 and r + r == 2 * a
    z = ComplexRational(r, r)
    assert type(z.re) is type(z.im) is Fraction


def test_rat_constructor_and_coercions():
    assert type(Rat(6, 4)) is Rat and Rat(6, 4) == Fraction(3, 2)
    assert hash(Rat("-1/3")) == hash(Fraction(-1, 3))
    assert repr(Rat(-1)) == "Fraction(-1, 1)" and hash(Rat(-1)) == -2
    for x in (3, True, Fraction(2, 3), "5/7", " -7/2 ", 0.1, -2.5):
        r = as_fraction(x)
        assert type(r) is Rat and hash(r) == hash(Fraction(r))
    assert as_fraction(0.1) == Fraction(1, 10)
    assert repr(as_fraction(True)) == "Fraction(1, 1)"
    # a denominator that is a multiple of the hash modulus has no inverse,
    # and -(m + 2)/2 would hash to -1, which Python reserves
    m = sys.hash_info.modulus
    for f in (Fraction(1, m), Fraction(-5, 3 * m), Fraction(-(m + 2), 2)):
        assert hash(as_fraction(f)) == hash(f)
    assert hash(Fraction(-(m + 2), 2)) == -2


@pytest.mark.parametrize("bad", ["abc", "1/0", "0/0", "1/2/3", "", "inf",
                                 float("inf"), float("-inf"), float("nan")])
def test_as_fraction_raises_a_typed_error(bad):
    with pytest.raises(DistAlgError):
        as_fraction(bad)


def test_json_and_constructors_raise_typed_errors():
    with pytest.raises(d.ParseError):
        d.parse_dist_json('{"breakpoints": ["1/0"], "pieces": ["0", "1"]}')
    with pytest.raises(d.ParseError):
        d.parse_dist_json('{"atoms": [{"w": "x", "k": 0, "re": "1", '
                          '"im": "0"}]}')
    with pytest.raises(DomainError):
        d.heaviside(float("inf"))
    with pytest.raises(DomainError):
        d.delta_dist(float("nan"))


def _locations(F):
    return list(F.breakpoints) + [a.w for a in F.all_atoms]


def test_star_and_equal_dist_on_acceptance_triples_do_no_fraction_compare(
        monkeypatch):
    """On 30 triples of acceptance 02, both bracketings of star, bracket
    and equal_dist neither hash nor compare a plain Fraction: every
    breakpoint and atom location is a Rat, compared by integers."""
    fs, gs, js = (random_corpus(seed, 30) for seed in (11, 12, 13))
    calls = _count_fraction_calls(monkeypatch,
                                  ("__hash__", "__eq__", "_richcmp"))
    results = []
    for F, G, J in zip(fs, gs, js):
        L, R = d.star(d.star(F, G), J), d.star(F, d.star(G, J))
        B, B2 = d.bracket(F, G), d.bracket(G, F)
        assert d.equal_dist(L, R) is d.Verdict.EQUAL
        assert d.equal_dist(B, d.scale(-1, B2)) is d.Verdict.EQUAL
        results += [L, R, B, B2]
    monkeypatch.undo()
    assert calls == []
    for F in fs + gs + js + results:
        assert all(type(w) is Rat for w in _locations(F))
