"""Exact scalars: the real paths of ComplexRational agree with the general
formula."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from distalg import ComplexRational

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
