"""The recursions over the expression node set that ``distalg.expr`` and
``distalg.fmt`` now run as rule tables on one walker, and the polynomial
arithmetic on tuples of ``ComplexRational`` coefficients that
``distalg.expr`` ran before it computed on kernels.

Each recursion here has its own class dispatch, as they were written
before the walker: the order key, the derivative, the exact value, the
float value, the normal form, substitution (with the shift), rendering in
both notations, and the pole search of the weak actions (with the pole
check that reads it).  None reads or writes a node's memo, except that
the pole search takes its normal forms from ``distalg.expr``, as it did
before.  The tests hold the rule tables to these results exactly, except
where the walker, which skips no operand, finds a pole that the early exit
here never reached, and where a negative power's base is a pole site,
which the float value and the pole search here did not treat as one.

The coefficient routines are exact division with remainder, gcd, the
lowest-terms denominator, the Sturm count of real roots and Horner's
value; the tests hold their kernel counterparts to them exactly.
"""

from fractions import Fraction
from math import lcm

import numpy as np

from distalg import expr
from distalg.errors import DomainError
from distalg.expr import (QUOTIENT_GUARD, Const, Cos, Exp, Poly, Power,
                          Product, Quotient, Sin, Sum, Var, X, ZERO, ONE,
                          _K_ONE, _K_X, _K_ZERO, _coeffs_of_kernel, _kernel,
                          _kernel_of_value, _leaf, _poly_add, _poly_diff,
                          _poly_mul, _poly_num, _poly_terms, _ser_call,
                          _ser_const, const, cos_of, exp_of, power_of,
                          product_of, quotient_of, sin_of, sub_expr, sum_of)
from distalg.fmt import _LATEX, _TEXT, _const, _paren, _product, _sum
from distalg.scalars import CR_ONE, CR_ZERO, ComplexRational


# ---------------------------------------------------------------------------
# polynomials as ascending ComplexRational coefficient tuples


def poly_eval(coeffs, x):
    """Exact Horner evaluation of ascending coefficients at a rational."""
    acc = CR_ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_trim(cs):
    out = list(cs)
    while out and out[-1].is_zero:
        out.pop()
    return tuple(out)


def kernel_of_coeffs(cs):
    den = lcm(*(c.den for c in cs))
    return _kernel(den, [c.re_num * (den // c.den) for c in cs],
                   [c.im_num * (den // c.den) for c in cs])


def poly_divmod(a, b):
    """Exact division with remainder; b must be nonzero."""
    rem = list(a)
    q = [CR_ZERO] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(rem) >= len(b) and _poly_trim(rem):
        rem = list(_poly_trim(rem))
        if len(rem) < len(b):
            break
        k = len(rem) - len(b)
        c = rem[-1] / lead
        q[k] = c
        for i, bi in enumerate(b):
            rem[k + i] = rem[k + i] - c * bi
        rem.pop()
    return _poly_trim(q), _poly_trim(rem)


def _poly_gcd(p, q):
    while q:
        p, q = q, poly_divmod(p, q)[1]
    return p


def _poly_derivative(p):
    return tuple(c * i for i, c in enumerate(p))[1:]


def reduced_denominator(num, den):
    """The denominator of num/den in lowest terms: den divided by
    gcd(num, den); den must be nonzero."""
    return poly_divmod(tuple(den), _poly_gcd(tuple(num), tuple(den)))[0]


def real_root_count(coeffs, lo, hi):
    """Distinct real roots in ]lo, hi] of a polynomial with complex rational
    ascending coefficients.  A real root is a root of the gcd of the real and
    the imaginary part; the Sturm chain of that gcd's squarefree part counts
    them exactly, rational or irrational."""
    p = _poly_gcd(_poly_trim([ComplexRational(c.re) for c in coeffs]),
                  _poly_trim([ComplexRational(c.im) for c in coeffs]))
    if len(p) < 2:
        return 0
    p = poly_divmod(p, _poly_gcd(p, _poly_derivative(p)))[0]
    chain = [p, _poly_derivative(p)]
    while len(chain[-1]) > 1:
        chain.append(tuple(-c for c in poly_divmod(chain[-2], chain[-1])[1]))

    def sign_changes(x):
        signs = [v.re > 0 for v in (poly_eval(q, x) for q in chain)
                 if not v.is_zero]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return sign_changes(lo) - sign_changes(hi)


# ---------------------------------------------------------------------------
# the recursions


_FUNCS = {Exp: "exp", Sin: "sin", Cos: "cos"}


def ser(e):
    if isinstance(e, Const):
        return _ser_const(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Poly):
        parts = []
        for i, c in _poly_terms(e.k):
            xi = "x" if i == 1 else _ser_call("W", "x", str(i))
            parts.append(_ser_const(c) if i == 0 else xi if c == CR_ONE
                         else _ser_call("P", _ser_const(c), xi))
        return parts[0] if len(parts) == 1 else _ser_call("S", *parts)
    if isinstance(e, Sum):
        return _ser_call("S", *map(ser, e.terms))
    if isinstance(e, Product):
        return _ser_call("P", *map(ser, e.factors))
    if isinstance(e, Power):
        return _ser_call("W", ser(e.base), str(e.n))
    if isinstance(e, Quotient):
        return _ser_call("Q", ser(e.num), ser(e.den))
    if isinstance(e, (Exp, Sin, Cos)):
        return _ser_call(e.__class__.__name__.lower(), ser(e.arg))
    raise TypeError(f"not a SmoothExpr: {e!r}")


def diff_expr(e):
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE
    if isinstance(e, Poly):
        return _leaf(_poly_diff(e.k))
    if isinstance(e, Sum):
        return sum_of(*(diff_expr(t) for t in e.terms))
    if isinstance(e, Product):
        fs = e.factors
        terms = []
        for i in range(len(fs)):
            terms.append(product_of(*fs[:i], diff_expr(fs[i]), *fs[i + 1:]))
        return sum_of(*terms)
    if isinstance(e, Power):
        return product_of(const(e.n), power_of(e.base, e.n - 1),
                          diff_expr(e.base))
    if isinstance(e, Quotient):
        num = sub_expr(product_of(diff_expr(e.num), e.den),
                       product_of(e.num, diff_expr(e.den)))
        return quotient_of(num, power_of(e.den, 2))
    if isinstance(e, Exp):
        return product_of(diff_expr(e.arg), e)
    if isinstance(e, Sin):
        return product_of(diff_expr(e.arg), cos_of(e.arg))
    if isinstance(e, Cos):
        return product_of(const(-1), diff_expr(e.arg), sin_of(e.arg))
    raise TypeError(f"not a SmoothExpr: {e!r}")


def eval_exact(e, x):
    """None at the first operand without an exact value: a pole in a later
    operand is never seen."""
    xv = ComplexRational.of(x)

    def rec(e):
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Var):
            return xv
        if isinstance(e, Poly):
            return poly_eval(_coeffs_of_kernel(e.k), xv)
        if isinstance(e, Sum):
            acc = CR_ZERO
            for t in e.terms:
                v = rec(t)
                if v is None:
                    return None
                acc = acc + v
            return acc
        if isinstance(e, Product):
            acc = CR_ONE
            for f in e.factors:
                v = rec(f)
                if v is None:
                    return None
                acc = acc * v
            return acc
        if isinstance(e, Power):
            v = rec(e.base)
            if v is None:
                return None
            if v.is_zero and e.n < 0:
                raise DomainError("exact evaluation at a pole")
            return v ** e.n
        if isinstance(e, Quotient):
            d = rec(e.den)
            if d is not None and d.is_zero:
                raise DomainError("exact evaluation at a pole")
            n = rec(e.num)
            if n is None or d is None:
                return None
            return n / d
        if isinstance(e, (Exp, Sin, Cos)):
            a = rec(e.arg)
            if a is None or not a.is_zero:
                return None
            return CR_ZERO if isinstance(e, Sin) else CR_ONE
        raise TypeError(f"not a SmoothExpr: {e!r}")

    return rec(e)


def eval_num(e, x):
    """The quotient's denominator first, and a negative power's base
    unchecked."""
    if isinstance(x, (int, Fraction, ComplexRational)):
        x = complex(ComplexRational.of(x))
    xa = np.asarray(x, dtype=complex)
    scalar = xa.ndim == 0

    def rec(e):
        if isinstance(e, Const):
            return np.full(xa.shape, complex(e.value)) if not scalar else complex(e.value)
        if isinstance(e, Var):
            return xa
        if isinstance(e, Poly):
            return _poly_num(e.k, xa)
        if isinstance(e, Sum):
            out = rec(e.terms[0])
            for t in e.terms[1:]:
                out = out + rec(t)
            return out
        if isinstance(e, Product):
            out = rec(e.factors[0])
            for f in e.factors[1:]:
                out = out * rec(f)
            return out
        if isinstance(e, Power):
            return rec(e.base) ** e.n
        if isinstance(e, Quotient):
            den = rec(e.den)
            if np.min(np.abs(den)) <= QUOTIENT_GUARD:
                raise DomainError("quotient denominator below evaluation guard")
            return rec(e.num) / den
        if isinstance(e, Exp):
            return np.exp(rec(e.arg))
        if isinstance(e, Sin):
            return np.sin(rec(e.arg))
        if isinstance(e, Cos):
            return np.cos(rec(e.arg))
        raise TypeError(f"not a SmoothExpr: {e!r}")

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = rec(e)
    if scalar:
        return complex(out)
    return np.asarray(out, dtype=complex)


def normal_form(e):
    """The kernel, or None at the first operand that is not provably a
    polynomial."""
    if isinstance(e, Poly):
        return e.k
    if isinstance(e, Const):
        return _kernel_of_value(e.value)
    if isinstance(e, Var):
        return _K_X
    if isinstance(e, Sum):
        out = _K_ZERO
        for t in e.terms:
            p = normal_form(t)
            if p is None:
                return None
            out = _poly_add(out, p)
        return out
    if isinstance(e, Product):
        out = _K_ONE
        for f in e.factors:
            p = normal_form(f)
            if p is None:
                return None
            out = _poly_mul(out, p)
        return out
    if isinstance(e, Power):
        if e.n < 0:
            return None
        p = normal_form(e.base)
        if p is None:
            return None
        return normal_form(power_of(_leaf(p), e.n))
    if isinstance(e, Quotient):
        dp = normal_form(e.den)
        if dp is None:
            return None
        if dp == _K_ZERO:
            raise DomainError("zero-polynomial denominator")
        np_ = normal_form(e.num)
        if np_ is None:
            return None
        q, r = poly_divmod(_coeffs_of_kernel(np_), _coeffs_of_kernel(dp))
        return None if r else kernel_of_coeffs(q)
    if isinstance(e, (Exp, Sin, Cos)):
        return None
    raise TypeError(f"not a SmoothExpr: {e!r}")


def poly_normal_form(e):
    k = normal_form(e)
    return None if k is None else _coeffs_of_kernel(k)


def _is_polynomial(e):
    return expr.poly_normal_form(e) is not None


def _has_quotient(e):
    stack = [e]
    while stack:
        e = stack.pop()
        if isinstance(e, Quotient):
            return True
        if isinstance(e, Sum):
            stack.extend(e.terms)
        elif isinstance(e, Product):
            stack.extend(e.factors)
        elif isinstance(e, Power):
            stack.append(e.base)
        elif isinstance(e, (Exp, Sin, Cos)):
            stack.append(e.arg)
    return False


def pole_dens(p):
    """Quotients only: a negative power's base drops out of its product,
    and whatever lies below it is never searched."""
    if not _has_quotient(p):
        return []
    dens, stack = [], [p]
    while stack:
        e = stack.pop()
        if _is_polynomial(e):
            continue
        if isinstance(e, Sum):
            stack.extend(e.terms)
            continue
        if isinstance(e, (Exp, Sin, Cos)):
            stack.append(e.arg)
            continue
        num, den, factors = [], [], [e]
        while factors:
            f = factors.pop()
            if _is_polynomial(f):
                num.append(f)
            elif isinstance(f, Product):
                factors.extend(f.factors)
            elif isinstance(f, Power):
                factors.extend([f.base] * f.n)
            elif isinstance(f, Quotient) and _is_polynomial(f.den):
                den.append(f.den)
                factors.append(f.num)
            elif isinstance(f, Quotient):
                stack += [f.num, f.den]
            else:
                stack.append(f)
        if den:
            dens.append(reduced_denominator(
                expr.poly_normal_form(product_of(*num)),
                expr.poly_normal_form(product_of(*den))))
    return dens


def refuse_pole(p, s, e, t, shift=Fraction(0)):
    dens = pole_dens(p)
    if not dens:
        return
    lo, hi = s + shift, e + shift
    for cs in dens:
        n = real_root_count(cs, lo, hi)
        n += s != t.a and poly_eval(cs, lo).is_zero
        n -= e == t.b and poly_eval(cs, hi).is_zero
        if n:
            raise DomainError(f"a quotient denominator has a root on "
                              f"[{lo}, {hi}], inside the bump's support")


def subst(e, r):
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return r
    if isinstance(e, Poly):
        return sum_of(*(product_of(Const(c), power_of(r, i))
                        for i, c in enumerate(_coeffs_of_kernel(e.k))
                        if not c.is_zero))
    if isinstance(e, Sum):
        return sum_of(*(subst(t, r) for t in e.terms))
    if isinstance(e, Product):
        return product_of(*(subst(f, r) for f in e.factors))
    if isinstance(e, Power):
        return power_of(subst(e.base, r), e.n)
    if isinstance(e, Quotient):
        return quotient_of(subst(e.num, r), subst(e.den, r))
    if isinstance(e, Exp):
        return exp_of(subst(e.arg, r))
    if isinstance(e, Sin):
        return sin_of(subst(e.arg, r))
    if isinstance(e, Cos):
        return cos_of(subst(e.arg, r))
    raise TypeError(f"not a SmoothExpr: {e!r}")


def shift_expr(e, h):
    return subst(e, sum_of(X, const(h)))


def _group(e, prec, st):
    return _paren(*_render(e, st), prec, st)


def _render(e, st):
    if isinstance(e, Const):
        return _const(e.value, st)
    if isinstance(e, Var):
        return "x", 4
    if isinstance(e, Poly):
        terms = []
        for i, c in _poly_terms(e.k):
            xi = ("x", 4) if i == 1 else (st.power % ("x", i), 3)
            terms.append(_const(c, st) if i == 0 else
                         _product(None if c == CR_ONE else c, [xi], st))
        return _sum(terms)
    if isinstance(e, Sum):
        return _sum([_render(t, st) for t in e.terms])
    if isinstance(e, Product):
        fs = e.factors
        c, fs = (fs[0].value, fs[1:]) if isinstance(fs[0], Const) else (None, fs)
        return _product(c, [_render(f, st) for f in fs], st)
    if isinstance(e, Power):
        return st.power % (_group(e.base, 3, st), e.n), 3
    if isinstance(e, Quotient):
        num_prec, den_prec = st.quot_prec
        return st.quot % (_group(e.num, num_prec, st),
                          _group(e.den, den_prec, st)), 2
    name = _FUNCS.get(type(e))
    if name is None:
        raise TypeError(f"not a SmoothExpr: {e!r}")
    return st.func % (name, _group(e.arg, 0, st)), 4


def format_expr(e):
    return _group(e, 0, _TEXT)


def format_expr_latex(e):
    return _group(e, 0, _LATEX)
