"""The one walker over the expression node set, held to the recursions it
replaces (``expr_reference``), and its one rule for poles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import distalg as d
import distalg.expr as expr_mod
from distalg import weak
from distalg.errors import DistAlgError, DomainError
from distalg.fmt import format_expr, format_expr_latex

import expr_reference as ref

POINTS = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(2)]


def outcome(f, *args):
    try:
        return "value", f(*args)
    except (ArithmeticError, DistAlgError) as exc:
        return "raises", type(exc)


def assert_same_or_pole_found(new, old):
    """Equal outcomes, or no value before and DomainError now: the walker
    skips no operand, so it reaches a pole that an early exit missed."""
    if new != old:
        assert old == ("value", None)
        assert new == ("raises", DomainError)


_consts = st.builds(
    lambda n, m, im: d.Const(d.ComplexRational(Fraction(n, m), Fraction(im))),
    st.integers(-3, 3), st.integers(1, 3), st.sampled_from([0, 0, 0, 1, -2]))
_polys = st.builds(lambda cs, top: d.expr_from_poly(cs + [top]),
                   st.lists(st.integers(-3, 3), min_size=2, max_size=3),
                   st.sampled_from([1, -1, 2]))
_leaves = st.one_of(_consts, st.just(d.X), _polys)


def _kids(n):
    return lambda kids: st.lists(kids, min_size=n, max_size=n + 1)


# hand-built trees of all ten classes: nested quotients, powers -1 to 3
_hand_built = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.builds(lambda ts: d.Sum(tuple(ts)), _kids(2)(kids)),
        st.builds(lambda fs: d.Product(tuple(fs)), _kids(2)(kids)),
        st.builds(d.Power, kids, st.integers(-1, 3)),
        st.builds(d.Quotient, kids, kids),
        st.builds(d.Exp, kids), st.builds(d.Sin, kids),
        st.builds(d.Cos, kids)),
    max_leaves=8)


def _nodes(e):
    """e and every node below it."""
    out, stack = [], [e]
    while stack:
        n = stack.pop()
        out.append(n)
        for f in n.__match_args__:
            v = getattr(n, f)
            stack.extend(c for c in (v if isinstance(v, tuple) else (v,))
                         if isinstance(c, expr_mod._NODE_TYPES))
    return out


def has_power(e, at_most):
    return any(isinstance(n, d.Power) and n.n <= at_most for n in _nodes(e))


@settings(max_examples=300, deadline=None)
@given(_hand_built)
@example(d.Power(d.Quotient(d.X, d.ZERO), 0))
def test_rule_tables_equal_the_recursions(e):
    assert expr_mod._ser(e) == ref.ser(e)
    assert outcome(d.diff_expr, e) == outcome(ref.diff_expr, e)
    h = Fraction(1, 2)
    assert outcome(d.shift_expr, e, h) == outcome(ref.shift_expr, e, h)
    assert format_expr(e) == ref.format_expr(e)
    assert format_expr_latex(e) == ref.format_expr_latex(e)
    assert_same_or_pole_found(outcome(d.poly_normal_form, e),
                              outcome(ref.poly_normal_form, e))
    for x in POINTS:
        assert_same_or_pole_found(outcome(d.eval_exact, e, x),
                                  outcome(ref.eval_exact, e, x))


REAL = np.array([-1.5, -1 / 3, 0.0, 0.5, 2.0])
FLOAT_POINTS = [0.5, 0.0, REAL, REAL + 0.25j, np.array(2 - 1j)]


@settings(max_examples=300, deadline=None)
@given(_hand_built)
def test_float_values_equal_the_recursion(e):
    """Bit for bit at scalar, real-array and complex points; a new
    DomainError only where a negative power's base falls below the guard,
    which the recursion evaluated to inf or nan (or, for a constant, a
    ZeroDivisionError)."""
    for x in FLOAT_POINTS:
        new, old = outcome(d.eval_num, e, x), outcome(ref.eval_num, e, x)
        if new[0] == old[0] == "value":
            assert type(new[1]) is type(old[1])
            assert np.array_equal(new[1], old[1], equal_nan=True)
        elif new != old:
            assert new == ("raises", DomainError) and has_power(e, -1)


BUMP = d.make_bump(-2, 3)
_ends = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(-1, 2),
                         Fraction(0), Fraction(1, 3), Fraction(1),
                         Fraction(2), Fraction(3)])


@settings(max_examples=300, deadline=None)
@given(_hand_built, st.lists(_ends, min_size=2, max_size=2, unique=True),
       st.sampled_from([Fraction(0), Fraction(1, 2)]))
def test_pole_search_equals_the_recursion(e, ends, shift):
    """The same outcome on every segment of the bump, but where a power of
    exponent n <= 0 takes part, whose base the recursion dropped: the poles
    below it are found now, a negative power's base is a pole site, and
    its factors cancel the denominators of their product, as 1/(x-1) times
    (1/(x-1))^-1 has no pole."""
    s, t = sorted(ends)
    new = outcome(weak._refuse_pole, e, s, t, BUMP, shift)
    old = outcome(ref.refuse_pole, e, s, t, BUMP, shift)
    assert new == old or has_power(e, 0)


X1 = d.sum_of(d.X, d.ONE)  # no exact value of exp, sin or cos at x = 0


@pytest.mark.parametrize("e", [
    d.Sum((d.Exp(X1), d.Quotient(d.ONE, d.X))),
    d.Quotient(d.X, d.Product((d.Cos(X1), d.Power(d.X, -1)))),
    d.Product((d.Sin(X1), d.Power(d.X, -2))),
    d.Exp(d.Sum((d.Cos(X1), d.Quotient(d.X, d.power_of(d.X, 2))))),
], ids=["after-a-term", "in-a-denominator", "negative-power",
        "in-an-argument"])
def test_a_pole_anywhere_raises(e):
    """At 0 each has a pole behind an operand without an exact value: the
    early exit returned None, the walker raises."""
    assert ref.eval_exact(e, 0) is None
    with pytest.raises(DomainError, match="exact evaluation at a pole"):
        d.eval_exact(e, 0)


def test_a_quotient_pole_raises_whatever_its_numerator():
    with pytest.raises(DomainError, match="exact evaluation at a pole"):
        d.eval_exact(d.Quotient(d.Exp(X1), d.X), 0)


def test_a_negative_power_pole_raises_in_floats():
    """Power(x-1, -1) has its pole at 1, in floats as exactly; the
    recursion returned nan there."""
    e = d.Power(d.sum_of(d.X, d.const(-1)), -1)
    with pytest.raises(DomainError, match="evaluation guard"):
        d.eval_num(e, 1.0)
    with pytest.raises(DomainError, match="evaluation guard"):
        d.eval_num(e, np.array([0.0, 1.0]))
    with pytest.raises(DomainError, match="exact evaluation at a pole"):
        d.eval_exact(e, 1)
    assert d.eval_num(e, 2.0) == 1


def test_no_pole_still_has_no_value():
    assert d.eval_exact(d.Sum((d.Exp(X1), d.Quotient(d.ONE, d.X))), 1) is None
    assert d.eval_exact(d.Quotient(d.Sin(d.X), d.Exp(d.X)), 0) == d.ZERO.value


def test_normal_form_does_not_look_inside_exp_sin_cos(monkeypatch):
    seen = []
    interpret = expr_mod._interpret

    def counted(e, rules, arg=None, memo=None):
        seen.append(e)
        return interpret(e, rules, arg, memo)

    monkeypatch.setattr(expr_mod, "_interpret", counted)
    inner = d.Quotient(d.ONE, d.Sum((d.X, d.X)))
    assert d.poly_normal_form(d.Sum((d.X, d.Exp(inner)))) is None
    assert inner not in seen


def _nested(template, n):
    s = "x"
    for _ in range(n):
        s = template.replace("E", s)
    return s


def _forget_memos(e):
    """Drop the order keys and normal forms the parser left on e."""
    for n in _nodes(e):
        for memo in ("_ser_memo", "_nf_memo"):
            if hasattr(n, memo):
                object.__delattr__(n, memo)
    return e


THIRD = Fraction(1, 3)
INTERPRETATIONS = {  # name: (walker, recursion it replaces)
    "order key": (expr_mod._ser, ref.ser),
    "derivative": (d.diff_expr, ref.diff_expr),
    "exact value": (lambda e: d.eval_exact(e, THIRD),
                    lambda e: ref.eval_exact(e, THIRD)),
    "float value": (lambda e: d.eval_num(e, 1 / 3),
                    lambda e: ref.eval_num(e, 1 / 3)),
    "normal form": (d.poly_normal_form, ref.poly_normal_form),
    "pole search": (expr_mod.pole_denominators, ref.pole_dens),
    "shift": (lambda e: d.shift_expr(e, 1), lambda e: ref.shift_expr(e, 1)),
    "text": (format_expr, ref.format_expr),
    "latex": (format_expr_latex, ref.format_expr_latex),
}


@pytest.mark.parametrize("template", ["(E)^2*exp(x)+x", "sin(E)*x+1"])
@pytest.mark.parametrize("name", list(INTERPRETATIONS))
def test_depth_at_the_parsers_nesting_limit(template, name):
    """98 levels parse, and every interpretation on the walker runs on them
    at Python's default recursion limit, as the recursions did."""
    walker, recursion = INTERPRETATIONS[name]
    e = _forget_memos(d.parse_smooth_expr(_nested(template, 98)))
    got = walker(e)
    want = recursion(_forget_memos(e))
    if isinstance(got, expr_mod._NODE_TYPES):  # == on trees this deep
        got, want = expr_mod._ser(got), expr_mod._ser(want)  # would recurse
    assert got == want or np.isnan(got) and np.isnan(want)


@pytest.mark.parametrize("template", ["(E)^2*exp(x)+x", "sin(E)*x+1"])
def test_differentiate_at_the_parsers_nesting_limit(template):
    e = d.parse_smooth_expr(_nested(template, 98))
    F = d.differentiate(d.smooth_mul(e, d.heaviside(0)))
    assert expr_mod._ser(F.pieces[1]) == expr_mod._ser(d.diff_expr(e))
