"""Expression layer: construction, calculus, evaluation, equality verdicts."""

import gc
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import distalg as d
import distalg.expr as expr_mod
from distalg import Verdict
from distalg.errors import DomainError
from distalg.scalars import cr_of_ints
import expr_reference as ref
from conftest import random_poly, rational_scalar


def poly(*coeffs):
    return d.expr_from_poly([Fraction(c) if not isinstance(c, tuple)
                             else Fraction(*c) for c in coeffs])


class TestConstruction:
    def test_sum_folds_constants(self):
        e = d.sum_of(d.const(1), d.const(2), d.X)
        assert e == d.sum_of(d.const(3), d.X)

    def test_like_terms_collapse(self):
        e = d.sum_of(d.X, d.X, d.neg(d.product_of(d.const(2), d.X)))
        assert e == d.ZERO

    def test_product_zero_annihilates(self):
        assert d.product_of(d.X, d.ZERO, d.exp_of(d.X)) == d.ZERO

    def test_power_grouping(self):
        e = d.product_of(d.X, d.X, d.X)
        assert e == d.power_of(d.X, 3)

    def test_power_decomposes(self):
        assert d.power_of(d.X, 1) == d.X
        assert d.power_of(d.exp_of(d.X), 0) == d.ONE

    def test_structural_special_values(self):
        assert d.exp_of(d.ZERO) == d.ONE
        assert d.sin_of(d.ZERO) == d.ZERO
        assert d.cos_of(d.ZERO) == d.ONE

    def test_quotient_by_constant_becomes_product(self):
        e = d.quotient_of(d.X, d.const(2))
        assert d.poly_normal_form(e) == (
            d.ComplexRational.of(0), d.ComplexRational.of(Fraction(1, 2)))
        with pytest.raises(ZeroDivisionError):
            d.quotient_of(d.X, d.ZERO)


class TestDifferentiation:
    def test_polynomial_rule(self):
        e = poly(1, 2, 3)  # 1 + 2x + 3x^2
        assert d.poly_normal_form(d.diff_expr(e)) == (
            d.ComplexRational.of(2), d.ComplexRational.of(6))

    def test_exp_chain(self):
        e = d.exp_of(d.neg(d.X))
        de = d.diff_expr(e)
        x = 0.7
        assert abs(d.eval_num(de, x) - (-math.exp(-x))) < 1e-12

    def test_quotient_rule_matches_finite_difference(self):
        e = d.quotient_of(d.ONE, d.sum_of(d.ONE, d.power_of(d.X, 2)))
        de = d.diff_expr(e)
        for x in (0.3, -1.2, 2.5):
            h = 1e-5
            fd = (d.eval_num(e, x + h) - d.eval_num(e, x - h)) / (2 * h)
            v = d.eval_num(de, x)
            assert abs(v - fd) <= 1e-6 * (1 + abs(v))

    def test_random_poly_derivative_exact(self):
        rng = random.Random(42)
        for _ in range(50):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(rng.randint(1, 6))]
            e = d.expr_from_poly(coeffs)
            x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            want = sum(k * c * x0 ** (k - 1)
                       for k, c in enumerate(coeffs) if k >= 1)
            got = d.eval_exact(d.diff_expr(e), x0)
            assert got is not None and got.im == 0 and got.re == want


class TestEvaluation:
    def test_square_at_three(self):
        assert d.eval_expr(d.power_of(d.X, 2), 3) == 9

    def test_exp_at_zero(self):
        assert d.eval_expr(d.exp_of(d.X), 0) == 1

    def test_pole_raises(self):
        with pytest.raises(DomainError):
            d.eval_expr(d.quotient_of(d.ONE, d.X), 0)

    def test_eval_num_vectorized(self):
        xs = np.linspace(-1, 1, 7)
        vals = d.eval_num(poly(0, 0, 1), xs)
        assert np.allclose(vals, xs ** 2)

    def test_eval_exact_structural_exp(self):
        e = d.exp_of(d.product_of(d.const(3), d.X))
        assert d.eval_exact(e, Fraction(0)) == d.ComplexRational.of(1)
        assert d.eval_exact(e, Fraction(1)) is None

    def test_constant_beyond_float_range(self):
        big = d.product_of(d.const(10 ** 400), d.exp_of(d.X))
        with pytest.raises(DomainError):
            d.eval_num(big, 0.0)
        with pytest.raises(DomainError):
            d.eval_num(d.X, Fraction(10 ** 400))

    def test_int_point_beyond_float_range(self):
        with pytest.raises(DomainError):
            d.eval_num(d.exp_of(d.X), 10 ** 400)
        assert d.eval_num(d.exp_of(d.X), 0) == 1
        assert d.eval_num(d.X, True) == 1

    def test_sampled_equality_beyond_float_range_is_unknown(self):
        big = d.product_of(d.const(10 ** 400), d.exp_of(d.X))
        assert d.expr_equal(big, d.exp_of(d.X)) is Verdict.UNKNOWN

    def test_complex_constant(self):
        i = d.ComplexRational(Fraction(0), Fraction(1))
        e = d.product_of(d.const(i), d.X)
        assert d.eval_expr(e, 2) == 2j


class TestPolyNormalForm:
    def test_binomial_square(self):
        e = d.power_of(d.sum_of(d.X, d.ONE), 2)
        assert d.poly_normal_form(e) == tuple(
            d.ComplexRational.of(c) for c in (1, 2, 1))

    def test_zero_polynomial_is_empty(self):
        e = d.sub_expr(d.power_of(d.X, 2), d.power_of(d.X, 2))
        assert d.poly_normal_form(e) == ()

    def test_exp_is_not_polynomial(self):
        assert d.poly_normal_form(d.exp_of(d.X)) is None

    def test_exact_division(self):
        # (x^2 - 1)/(x - 1) divides exactly
        num = d.sub_expr(d.power_of(d.X, 2), d.ONE)
        den = d.sub_expr(d.X, d.ONE)
        e = d.quotient_of(num, den)
        assert d.poly_normal_form(e) == tuple(
            d.ComplexRational.of(c) for c in (1, 1))

    def test_inexact_division_is_not_polynomial(self):
        e = d.quotient_of(d.X, d.sum_of(d.X, d.ONE))
        assert d.poly_normal_form(e) is None

    def test_idempotent_under_reparse(self):
        rng = random.Random(9)
        for _ in range(30):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for _ in range(rng.randint(1, 5))]
            e = d.expr_from_poly(coeffs)
            again = d.parse_smooth_expr(d.format_expr(e))
            assert d.poly_normal_form(again) == d.poly_normal_form(e)


class TestRealRoots:
    """Exact root counts and lowest-terms denominators of polynomials, on
    their kernels."""

    @staticmethod
    def kernel(text):
        return expr_mod._normal_form(d.parse_smooth_expr(text))

    @pytest.mark.parametrize("text, lo, hi, n", [
        ("x^2-2", 0, 2, 1),              # sqrt(2), irrational
        ("x^2-2", -2, 2, 2),
        ("(x-1)^3*(x+1)", 0, 1, 1),      # repeated root, counted once
        ("(x-1)^3*(x+1)", 1, 3, 0),      # ]lo, hi] leaves lo out
        ("x^2+1", -5, 5, 0),
        ("(x-1)*(x+i)", 0, 2, 1),        # complex coefficients
        ("(x-1/3)*(x-i)", -1, 1, 1),
        ("3", -1, 1, 0),
    ])
    def test_real_root_count(self, text, lo, hi, n):
        assert expr_mod.real_root_count(
            self.kernel(text), Fraction(lo), Fraction(hi)) == n

    def test_reduced_denominator(self):
        # (x^2-1)/((x-1)^2*(x-2)) = (x+1)/((x-1)*(x-2))
        den = expr_mod._leaf(expr_mod.reduced_denominator(
            self.kernel("x^2-1"), self.kernel("(x-1)^2*(x-2)")))
        assert len(d.poly_normal_form(den)) == 3
        for root in (1, 2):
            assert d.eval_exact(den, Fraction(root)).is_zero
        one = expr_mod.reduced_denominator(self.kernel("x^2-1"),
                                           self.kernel("x-1"))
        assert len(d.poly_normal_form(expr_mod._leaf(one))) == 1


_parts = st.builds(lambda n, m, s: Fraction(n, m) * s, st.integers(-9, 9),
                   st.integers(1, 9), st.sampled_from(
                       [Fraction(1), Fraction(10 ** 30), Fraction(1, 10 ** 30)]))
_complex = st.builds(d.ComplexRational, _parts,
                     st.one_of(st.just(Fraction(0)), _parts))
_roots = st.sampled_from([Fraction(1), Fraction(-1, 3), Fraction(2),
                          Fraction(1, 10 ** 30)])


def _kernel_with_roots(cs, roots):
    """The kernel of the polynomial of coefficients cs times x - r for each
    r in roots, which may repeat."""
    k = d.expr_from_poly(cs).k
    for r in roots:
        k = expr_mod._poly_mul(k, d.expr_from_poly([-r, 1]).k)
    return k


_kernels = st.builds(_kernel_with_roots, st.lists(_complex, max_size=6),
                     st.lists(_roots, max_size=3))
_ends = st.lists(st.sampled_from([Fraction(-3), Fraction(-1, 3), Fraction(0),
                                  Fraction(1), Fraction(2), Fraction(5)]),
                 min_size=2, max_size=2, unique=True).map(sorted)


class TestKernelArithmetic:
    """Division, lowest-terms denominators, root counts and exact values on
    kernels, up to degree 8, equal the coefficient-tuple routines of
    ``expr_reference`` exactly."""

    @settings(max_examples=200, deadline=None)
    @given(_kernels, _kernels, _ends, st.booleans(), st.booleans(), _complex,
           st.complex_numbers(max_magnitude=1e3))
    def test_equal_the_coefficient_routines(self, a, b, ends, lo_in, hi_in,
                                            z, zf):
        ca, cb = expr_mod._coeffs_of_kernel(a), expr_mod._coeffs_of_kernel(b)
        lo, hi = ends
        count = ref.real_root_count(ca, lo, hi)
        assert expr_mod.real_root_count(a, lo, hi) == count
        assert expr_mod.vanishes_between(a, lo, hi, lo_in, hi_in) == (
            ca == () or bool(count + (lo_in and ref.poly_eval(ca, lo).is_zero)
                             - (not hi_in and ref.poly_eval(ca, hi).is_zero)))
        for x in (z, d.ComplexRational(z.re), lo):
            want = ref.poly_eval(ca, x)
            x = d.ComplexRational.of(x)
            assert d.eval_exact(expr_mod._leaf(a), x) == want
            assert cr_of_ints(*expr_mod._horner(
                a, x.re_num, x.im_num, x.den)) == want
        exact = ref.poly_eval(ca, d.ComplexRational(Fraction(zf.real),
                                                    Fraction(zf.imag)))
        assert expr_mod._poly_at_float(a, zf) == complex(float(exact.re),
                                                         float(exact.im))
        if b != expr_mod._K_ZERO:
            assert expr_mod._poly_divmod(a, b) == tuple(
                map(ref.kernel_of_coeffs, ref.poly_divmod(ca, cb)))
            assert expr_mod.reduced_denominator(a, b) == ref.kernel_of_coeffs(
                ref.reduced_denominator(ca, cb))


class TestVerdicts:
    def test_polynomials_equal(self):
        e1 = d.power_of(d.sum_of(d.X, d.ONE), 2)
        e2 = poly(1, 2, 1)
        assert d.expr_equal(e1, e2) is Verdict.EQUAL

    def test_separating_sample(self):
        assert d.expr_equal(d.X, d.sum_of(d.X, d.ONE)) is Verdict.UNEQUAL

    def test_pythagorean_identity_is_unknown(self):
        e = d.sum_of(d.power_of(d.sin_of(d.X), 2),
                     d.power_of(d.cos_of(d.X), 2))
        assert d.expr_equal(e, d.ONE) is Verdict.UNKNOWN

    def test_worst_verdict_ordering(self):
        assert d.worst_verdict(Verdict.EQUAL, Verdict.UNKNOWN) is Verdict.UNKNOWN
        assert d.worst_verdict(Verdict.UNKNOWN, Verdict.UNEQUAL) is Verdict.UNEQUAL
        assert d.worst_verdict() is Verdict.EQUAL

    def test_interval_restriction(self):
        # pieces that differ only left of the window compare Equal on it
        e1 = d.X
        e2 = d.X
        assert d.expr_equal(e1, e2, (Fraction(0), None)) is Verdict.EQUAL


class TestSubstShift:
    def test_shift_polynomial(self):
        e = d.power_of(d.X, 2)
        shifted = d.shift_expr(e, Fraction(1))  # (x+1)^2
        assert d.poly_normal_form(shifted) == tuple(
            d.ComplexRational.of(c) for c in (1, 2, 1))

    def test_shift_inverse(self):
        e = d.exp_of(d.X)
        back = d.shift_expr(d.shift_expr(e, Fraction(1, 2)), Fraction(-1, 2))
        assert d.expr_equal(e, back) is not Verdict.UNEQUAL

    def test_subst_composition(self):
        e = d.power_of(d.X, 2)
        inner = d.sum_of(d.X, d.ONE)
        assert d.poly_normal_form(d.subst(e, inner)) == tuple(
            d.ComplexRational.of(c) for c in (1, 2, 1))


_small = st.integers(min_value=-6, max_value=6)


@st.composite
def rational_polys(draw, max_deg=4):
    n = draw(st.integers(min_value=0, max_value=max_deg))
    coeffs = [Fraction(draw(_small), draw(st.integers(1, 4)))
              for _ in range(n + 1)]
    return d.expr_from_poly(coeffs)


@settings(max_examples=60, deadline=None)
@given(rational_polys(), rational_polys(), rational_polys())
def test_poly_ring_laws(a, b, c):
    lhs = d.product_of(a, d.sum_of(b, c))
    rhs = d.sum_of(d.product_of(a, b), d.product_of(a, c))
    assert d.poly_normal_form(lhs) == d.poly_normal_form(rhs)
    assert d.poly_normal_form(d.product_of(a, b)) == \
        d.poly_normal_form(d.product_of(b, a))


@settings(max_examples=60, deadline=None)
@given(rational_polys(), rational_polys())
def test_derivative_is_linear_and_leibniz(a, b):
    assert d.poly_normal_form(d.diff_expr(d.sum_of(a, b))) == \
        d.poly_normal_form(d.sum_of(d.diff_expr(a), d.diff_expr(b)))
    lhs = d.diff_expr(d.product_of(a, b))
    rhs = d.sum_of(d.product_of(d.diff_expr(a), b),
                   d.product_of(a, d.diff_expr(b)))
    assert d.poly_normal_form(lhs) == d.poly_normal_form(rhs)


# ---------------------------------------------------------------------------
# the exact-polynomial kernel and the per-node memos


def test_no_module_cache_retains_trees():
    assert not any(hasattr(v, "cache_info") for v in vars(expr_mod).values())
    refs = []
    for k in range(1, 40):
        a = d.sum_of(d.product_of(d.const(k), d.power_of(d.X, 2)),
                     d.const(Fraction(1, k + 2)))
        b = d.product_of(d.exp_of(d.product_of(d.const(k), d.X)), a)
        c = d.sum_of(a, b)  # orders its terms by their serialized form
        p = d.product_of(a, b, d.sin_of(a))
        d.expr_equal(a, c)
        d.expr_equal(a, d.sum_of(d.power_of(d.X, 2), d.const(k)))
        d.poly_normal_form(p)
        d.poly_normal_form(d.power_of(a, 3))
        d.format_expr(a), d.format_expr(b)
        refs += [weakref.ref(t) for t in (a, b, c, p)]
    del a, b, c, p
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def test_poly_prints_from_its_coefficients():
    """No tree is built or kept for printing: the node holds its kernel and
    at most its hash and serialized form."""
    p = d.parse_smooth_expr("3 + x^2 - 1/2*x^3")
    assert isinstance(p, d.Poly)
    assert d.format_expr(p) == "3 + x^2 - 1/2*x^3"
    assert d.format_expr_latex(p) == r"3 + x^{2} - \tfrac{1}{2}\,x^{3}"
    kept = {s for s in p.__slots__ if s != "__weakref__" and hasattr(p, s)}
    assert kept <= {"k", "_hash_memo", "_ser_memo"}


_fracs = st.one_of(
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
              st.integers(1, 10 ** 40)),
    # nearly equal to a small integer
    st.builds(lambda n, s, e: n + Fraction(s, 10 ** e), st.integers(-3, 3),
              st.sampled_from([1, -1]), st.integers(20, 60)),
)
_consts = st.builds(
    lambda re, im, real: d.Const(d.ComplexRational(re, Fraction(0) if real
                                                   else im)),
    _fracs, _fracs, st.booleans())


def _exact_quotient(q, den):
    den = d.Sum((d.ONE, d.Product((d.X, den))))  # never the zero polynomial
    return d.Quotient(d.Product((q, den)), den)


def _trees(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(lambda ts: d.Sum(tuple(ts)),
                      st.lists(kids, min_size=2, max_size=3)),
            st.builds(lambda ts: d.sum_of(*ts),
                      st.lists(kids, min_size=2, max_size=3)),
            st.builds(lambda fs: d.Product(tuple(fs)),
                      st.lists(kids, min_size=2, max_size=3)),
            st.builds(lambda fs: d.product_of(*fs),
                      st.lists(kids, min_size=2, max_size=3)),
            st.builds(d.Power, kids, st.integers(2, 4)),
            st.builds(_exact_quotient, kids, kids),
        ),
        max_leaves=8)


_poly_trees = _trees(st.one_of(_consts, st.just(d.X)))


def _sympy_of(e, sp, x):
    if isinstance(e, d.Const):
        v = e.value
        return (sp.Rational(v.re.numerator, v.re.denominator)
                + sp.I * sp.Rational(v.im.numerator, v.im.denominator))
    if isinstance(e, d.Var):
        return x
    if isinstance(e, d.Poly):
        den, re, im = e.k
        return (sp.Add(*(sp.Integer(c) * x ** i for i, c in enumerate(re)))
                + sp.I * sp.Add(*(sp.Integer(c) * x ** i
                                  for i, c in enumerate(im)))) / den
    if isinstance(e, d.Sum):
        return sp.Add(*(_sympy_of(t, sp, x) for t in e.terms))
    if isinstance(e, d.Product):
        return sp.Mul(*(_sympy_of(f, sp, x) for f in e.factors))
    if isinstance(e, d.Power):
        return _sympy_of(e.base, sp, x) ** e.n
    if isinstance(e, d.Quotient):
        return _sympy_of(e.num, sp, x) / _sympy_of(e.den, sp, x)
    raise TypeError(e)


def _fraction_of(r):
    return Fraction(int(r.p), int(r.q))


@settings(max_examples=80, deadline=None)
@given(_poly_trees)
def test_normal_form_matches_sympy(e):
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    coeffs = sp.Poly(sp.cancel(_sympy_of(e, sp, x)), x).all_coeffs()[::-1]
    want = [d.ComplexRational(_fraction_of(sp.re(c)), _fraction_of(sp.im(c)))
            for c in coeffs]
    while want and want[-1].is_zero:
        want.pop()
    assert d.poly_normal_form(e) == tuple(want)


_NODE_TYPES = (d.Const, d.Var, d.Sum, d.Product, d.Power, d.Quotient,
               d.Exp, d.Sin, d.Cos)


def _nodes(e):
    yield e
    for f in e.__match_args__:
        v = getattr(e, f)
        for c in v if isinstance(v, tuple) else (v,):
            if isinstance(c, _NODE_TYPES):
                yield from _nodes(c)


@settings(max_examples=60, deadline=None)
@given(_trees(st.one_of(_consts, st.just(d.X),
                        st.builds(d.Exp, st.one_of(_consts, st.just(d.X))))))
def test_hash_is_the_field_tuple_hash(e):
    d.poly_normal_form(e)
    d.sum_of(e, d.X)
    for n in _nodes(e):
        fields = tuple(getattr(n, f) for f in n.__match_args__)
        assert hash(n) == hash(fields) == hash(n)


def _conftest_piece(rng):
    a = random_poly(rng)
    if rng.random() < 0.5:
        a = d.product_of(a, random_poly(rng))
    return a


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["none", "both", "one"]),
       st.booleans())
def test_equal_verdict_matches_difference_normal_form(seed, exp_terms, same):
    rng = random.Random(seed)
    a = _conftest_piece(rng)
    b = (d.expr_from_poly(d.poly_normal_form(a)) if same
         else _conftest_piece(rng))
    if exp_terms != "none":
        E = d.product_of(d.const(rational_scalar(rng)),
                         d.exp_of(d.product_of(d.const(rng.randint(-2, 2)),
                                               d.X)))
        a = d.sum_of(a, E)
        if exp_terms == "both":
            b = d.sum_of(E, b)
    verdict = d.expr_equal(a, b)
    p = d.poly_normal_form(d.sub_expr(a, b))
    if a == b:
        assert verdict is Verdict.EQUAL
    elif p is not None:
        assert verdict is (Verdict.EQUAL if p == () else Verdict.UNEQUAL)
    else:
        assert verdict is not Verdict.EQUAL


def test_equal_needs_cancellation_across_nonpolynomial_terms():
    e1 = d.sum_of(d.exp_of(d.X), d.power_of(d.sum_of(d.ONE, d.X), 2))
    e2 = d.sum_of(d.exp_of(d.X), poly(1, 2, 1))
    assert d.expr_equal(e1, e2) is Verdict.EQUAL
    assert d.expr_equal(e1, d.sum_of(d.exp_of(d.X), poly(1, 2, 2))) \
        is Verdict.UNEQUAL


# ---------------------------------------------------------------------------
# polynomial leaves


def test_constant_terms_add_without_multiplying(monkeypatch):
    """Constant terms are added as they are, on the scalar path of sum_of
    and on its tree path alike: no ComplexRational is multiplied."""
    cs = [d.const(Fraction(k, k + 1)) for k in range(1, 20)]
    calls = []
    mul = d.ComplexRational.__mul__

    def counted(a, b):
        calls.append(b)
        return mul(a, b)

    monkeypatch.setattr(d.ComplexRational, "__mul__", counted)
    monkeypatch.setattr(d.ComplexRational, "__rmul__", counted)
    E = d.exp_of(d.X)
    calls.clear()
    constants = d.sum_of(*cs)
    mixed = d.sum_of(cs[0], E, *cs[1:])
    with_x = d.sum_of(*cs, d.X)
    assert calls == []
    total = d.const(sum(Fraction(k, k + 1) for k in range(1, 20)))
    assert constants == total
    assert mixed == d.Sum((total, E))
    assert with_x == d.expr_from_poly([total.value, 1])


def _coeff_lists(rng, big):
    """A sparse polynomial as a coefficient list and as the sum of its
    monomials: conftest draws, or coefficients with numerators and
    denominators up to 10^30."""
    cs = [d.ComplexRational(0)] * 4
    for _ in range(rng.randint(1, 3)):
        if big:
            c = d.ComplexRational(
                Fraction(rng.randint(-10 ** 30, 10 ** 30),
                         rng.randint(1, 10 ** 30)),
                Fraction(rng.randint(-10 ** 30, 10 ** 30),
                         rng.randint(1, 10 ** 30)) * rng.randint(0, 1))
        else:
            c = rational_scalar(rng)
        cs[rng.randint(0, 3)] += c
    e = d.sum_of(d.ZERO, *(d.product_of(d.Const(c), d.power_of(d.X, i))
                           for i, c in enumerate(cs)))
    return cs, e


def _convolve(p, q):
    out = [d.ComplexRational(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.booleans(),
       st.sampled_from(["expanded", "perturbed", "other"]))
def test_leaf_equality_is_expr_equal(seed, big, twin):
    """A factored product or power and the leaf of its expanded
    coefficients are one node: p == q holds exactly when expr_equal
    proves them Equal, and equal leaves hash alike."""
    rng = random.Random(seed)
    (a, ea), (b, eb) = _coeff_lists(rng, big), _coeff_lists(rng, big)
    n = rng.randint(2, 3)
    if rng.random() < 0.5:
        p, want = d.product_of(ea, eb), _convolve(a, b)
    else:
        p, want = d.power_of(ea, n), a
        for _ in range(n - 1):
            want = _convolve(want, a)
    if twin == "perturbed":
        i = rng.randrange(len(want))
        want[i] = want[i] + d.ComplexRational(Fraction(1, 10 ** 30))
    q = (d.product_of(eb, d.sum_of(ea, ea)) if twin == "other"
         else d.expr_from_poly(want))
    verdict = d.expr_equal(p, q)
    assert (p == q) is (verdict is Verdict.EQUAL)
    if twin != "other":
        assert (twin == "expanded") is (p == q)
    if p == q:
        assert hash(p) == hash(q)
    assert isinstance(p, (d.Const, d.Var, d.Poly))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_mixed_product_does_not_depend_on_order_or_grouping(seed):
    """Polynomial factors multiply into one leaf even when exp, sin or a
    quotient takes part, so (1+x)*exp(x)*(1+x) and (1+x)*(1+x)*exp(x)
    are one node."""
    rng = random.Random(seed)
    others = [d.exp_of(d.X), d.sin_of(d.product_of(d.const(2), d.X)),
              d.quotient_of(d.ONE, d.sum_of(d.ONE, d.power_of(d.X, 2)))]
    factors = ([random_poly(rng) for _ in range(rng.randint(1, 3))]
               + rng.sample(others, rng.randint(1, 3)))
    rng.shuffle(factors)
    a = d.product_of(*factors)
    rng.shuffle(factors)
    k = rng.randint(1, len(factors))
    b = d.product_of(d.product_of(*factors[:k]), *factors[k:])
    assert a == b
    assert d.expr_equal(a, b) is Verdict.EQUAL


@pytest.mark.parametrize("n", [2, 3])
def test_hand_built_power_of_a_leaf_is_the_leaf(n):
    """Power(X, n) built by hand takes the spelling of x^n: like terms
    cancel against it in a sum, and a scalar multiplies into one leaf."""
    hand = expr_mod.Power(d.X, n)
    s = d.sum_of(hand, d.exp_of(d.X), d.neg(d.power_of(d.X, n)))
    assert s == d.exp_of(d.X)
    assert d.format_expr(s) == "exp(x)"
    p = d.product_of(hand, d.const(3))
    assert isinstance(p, d.Poly)
    assert p == d.product_of(d.const(3), d.power_of(d.X, n))


_TRANSCENDENTAL = [d.exp_of(d.X), d.sin_of(d.X), d.cos_of(d.neg(d.X)),
                   d.product_of(d.exp_of(d.X), d.sin_of(d.X))]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_mixed_product_keeps_its_scalar_in_one_place(seed):
    """A scalar of a mixed product sits in one place, however the product
    was reached, so like terms collect: A - A is 0 and A + A is 2*A for
    A = p*exp(x), p*sin(x), ..."""
    rng = random.Random(seed)
    p = random_poly(rng)
    t = rng.choice(_TRANSCENDENTAL)
    c = rational_scalar(rng)
    a = d.product_of(p, t)
    assert d.sub_expr(a, a) == d.ZERO
    assert d.sum_of(a, a) == d.product_of(d.const(2), a)
    assert d.product_of(d.Const(c), a) == d.product_of(
        d.product_of(d.Const(c), p), t)
    assert d.sum_of(a, d.product_of(d.Const(c), a)) == d.product_of(
        d.Const(c + 1), a)
    assert d.expr_equal(d.sum_of(a, a), d.product_of(d.const(2), a)) \
        is Verdict.EQUAL


def test_mixed_product_scalar_examples():
    x = d.X
    for p in (d.sum_of(d.ONE, x), d.sum_of(d.power_of(x, 2), d.const(3)),
              d.sum_of(d.const(2), d.product_of(d.const(4), x)),
              d.sum_of(d.Const(d.ComplexRational(0, 1)), x)):
        for t in _TRANSCENDENTAL:
            a = d.product_of(p, t)
            assert d.sub_expr(a, a) == d.ZERO
            assert d.sum_of(a, a) == d.product_of(d.const(2), a)
            assert d.neg(d.neg(a)) == a


# ---------------------------------------------------------------------------
# one spelling of a polynomial factor: a tree term is a polynomial leaf times
# a core without one, and the terms of a sum collect by core


def test_a_polynomial_factor_has_one_spelling():
    """-3 distributes over the sum; x^2 in its terms and in the negated
    copy's is the same leaf, so P - P is 0."""
    P = d.product_of(d.parse_smooth_expr("2/3*x^2 + exp(-x) - 3*x"),
                     d.const(-3))
    assert d.sub_expr(P, P) == d.ZERO
    F = d.smooth_dist(P)
    assert d.format_dist(d.sub(F, F)) == "0"
    assert d.is_zero_dist(d.sub(F, F))


def test_terms_collect_across_their_polynomial_factors():
    parse = d.parse_smooth_expr
    e = parse("(1+x)*exp(x) - x*exp(x)")
    assert e == d.exp_of(d.X)
    assert d.expr_equal(e, parse("exp(x)")) is Verdict.EQUAL
    assert parse("x^2*sin(x) + x*sin(x) - (x^2+x)*sin(x)") == d.ZERO


def test_a_mixed_sum_prints_its_polynomial_part_first():
    e = d.parse_smooth_expr("2/3*x^2 + exp(-x) - 3*x")
    assert e == d.Sum((poly(0, -3, (2, 3)), d.exp_of(d.neg(d.X))))
    assert d.format_expr(e) == "2/3*x^2 - 3*x + exp(-x)"
    assert d.format_expr(d.sum_of(e, d.neg(d.exp_of(d.neg(d.X))))) == \
        "2/3*x^2 - 3*x"


_small_polys = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(
    lambda cs: d.expr_from_poly(cs))
_nonconstant_polys = _small_polys.filter(
    lambda p: isinstance(p, (d.Var, d.Poly)))
_mixed_trees = st.recursive(
    st.one_of(_small_polys,
              st.builds(lambda f, p: f(p),
                        st.sampled_from([d.exp_of, d.sin_of, d.cos_of]),
                        _small_polys)),
    lambda kids: st.one_of(
        st.builds(lambda ts: d.sum_of(*ts), st.lists(kids, min_size=2,
                                                     max_size=3)),
        st.builds(lambda fs: d.product_of(*fs), st.lists(kids, min_size=2,
                                                         max_size=3)),
        st.builds(d.power_of, kids, st.integers(2, 3)),
        st.builds(d.quotient_of, kids, _nonconstant_polys)),
    max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(_mixed_trees)
def test_a_tree_minus_itself_is_zero(e):
    """On trees the constructors build from polynomials, exp, sin, cos,
    powers and quotients, e - e is 0 and e + e is 2*e, node for node."""
    assert d.sub_expr(e, e) == d.ZERO
    assert d.sum_of(e, e) == d.product_of(d.const(2), e)


def test_poly_evaluates_accurately_near_a_root_and_beyond_float_range():
    """An expanded power evaluates as accurately as the power itself: near
    a root, where the float Horner sum cancels, and where coefficients
    such as C(1100, 550) ~ 1e329 do not fit in a float."""
    p20 = d.power_of(d.sum_of(d.X, d.const(-1)), 20)
    xs = np.array([0.999, 1 + 1e-3, 1 + 1e-6, 0.5, 2.0, 1.0])
    want = (xs - 1) ** 20
    got = d.eval_num(p20, xs)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    assert d.eval_num(p20, 1.0001) == pytest.approx(1e-80, rel=1e-12)
    assert d.eval_num(p20, np.array([])).shape == (0,)
    p1100 = d.power_of(d.sum_of(d.X, d.const(-1)), 1100)
    xs = np.array([0.5, 1.5, 1.9, 2.5])
    got = d.eval_num(p1100, xs)
    assert np.all(np.abs(got - (xs - 1) ** 1100)
                  <= 1e-12 * np.abs((xs - 1) ** 1100))
    F = d.smooth_mul(p1100, d.heaviside(0))
    t = d.make_bump(Fraction(1, 2), Fraction(5, 2))
    direct = d.action(d.smooth_mul(d.Power(d.sum_of(d.X, d.const(-1)), 1100),
                                   d.heaviside(0)), t)
    assert d.action(F, t) == pytest.approx(direct, rel=1e-9)
    q = d.power_of(d.sum_of(d.X, d.Const(d.ComplexRational(0, 1))), 3)
    assert d.eval_num(q, 0.5 + 0.25j) == pytest.approx((0.5 + 1.25j) ** 3)


def test_star_on_acceptance_triples_builds_no_trees(monkeypatch):
    """On 30 polynomial triples of acceptance 02, both bracketings of star
    compute on polynomial leaves: no Sum, Product or Power node is built
    and no tree normal form is computed."""
    from conftest import random_corpus
    fs, gs, js = (random_corpus(seed, 30) for seed in (11, 12, 13))
    built = []

    def counted(name, f):
        def wrapper(*args, **kw):
            built.append(name)
            return f(*args, **kw)
        return wrapper

    for cls in (d.Sum, d.Product, d.Power):
        monkeypatch.setattr(cls, "__init__",
                            counted(cls.__name__, cls.__init__))
    interpret = expr_mod._interpret

    def interpret_counted(e, rules, arg=None):
        if rules is expr_mod._NORMAL_FORM:
            built.append("normal form")
        return interpret(e, rules, arg)

    monkeypatch.setattr(expr_mod, "_interpret", interpret_counted)
    for F, G, J in zip(fs, gs, js):
        d.star(d.star(F, G), J)
        d.star(F, d.star(G, J))
    assert built == []


def test_a_power_of_x_takes_logarithmically_many_products(monkeypatch):
    """x^n is raised by squaring, in a constructor and in a tree's normal
    form: parsing x^20000 times a step makes about 2 log2(n) kernel
    products, not n."""
    calls = []
    mul = expr_mod._poly_mul

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(expr_mod, "_poly_mul", counted)
    F = d.parse_dist("x^20000*H(x)")
    assert d.format_dist(F) == "x^20000*H(x)"
    assert d.poly_normal_form(d.Power(d.X, 20000))[-1] == d.ComplexRational(1)
    assert len(calls) <= 4 * (20000).bit_length()
