"""Symbolic one-variable smooth expressions.

The node set {constant, x, polynomial, sum, product, integer power,
quotient, exp, sin, cos} is closed under differentiation and products, which
is all the rest of the package needs.  Constructors (``sum_of``,
``product_of``, ...) do light canonicalization: constant folding, like-term
collection, power grouping, and a deterministic factor order.  They never
attempt general simplification; equality beyond the polynomials is a
semi-decision (see ``expr_equal``).

Coefficients are exact ``ComplexRational`` values.  Floating point enters
only through ``eval_expr`` / ``eval_num``; numpy is imported there and in
the sampling tail of ``expr_equal``, never by the exact paths.

Polynomials.  A polynomial is stored as one canonical leaf: ``Const`` for a
constant, ``X`` for x itself, and otherwise a ``Poly`` node holding the
kernel ``(den, re, im)``: ascending integer numerators of the real and
imaginary parts over one positive common denominator, each tuple trimmed of
trailing zeros and the whole content-reduced (``gcd(den, *re, *im) == 1``).
So two polynomial leaves are equal exactly when ``==`` says so, and their
hash is a tuple hash.  A ``ComplexRational`` has the same layout for one
number, so at the boundary to coefficient lists integers only move.  The
constructors, ``diff_expr`` and ``subst`` keep polynomials on these leaves
and compute on kernels; they build a ``Sum``, ``Product`` or ``Power`` only
when exp, sin, cos or a quotient with a non-constant denominator takes part
(or when handed nodes that a caller built directly).  Such a tree has one
spelling.  A product's polynomial factors multiply into one leaf, split as
a scalar c times a primitive polynomial q (``_primitive``), so that c is
its one leading constant however it was reached; x^n is the leaf
``Poly``, never ``Power(X, n)``.  A sum's term is a polynomial leaf times a
core without one (``_split``), and the terms that share a core add their
kernels: the polynomial terms into one leaf, which comes first, and
(1+x)*exp(x) - x*exp(x) into exp(x).  A quotient stays a tree even when it
divides exactly, so that ``eval_exact`` still refuses its pole.  A ``Poly``
prints from its coefficients, evaluates in floats by Horner, and exactly at
the float point where Horner's error bound is too wide (``_poly_num``).

Memos.  Each node stores, on first use, its hash and its serialized form,
which orders factors and terms; a tree node also stores its normal form
(or that it is not a polynomial), which the quotient path and equality
read.  They live on the node and die with it; no module-level cache holds
a node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite, lcm
from typing import Optional, Sequence, Tuple, Union

from .errors import DomainError
from .scalars import (CR_ONE, CR_ZERO, ComplexRational, ScalarLike,
                      as_fraction, cr_of_ints)

# ---------------------------------------------------------------------------
# node types


def _node(cls):
    """A frozen dataclass whose field hash is computed once per instance.
    ``_ser_memo`` and ``_nf_memo`` hold the order key and the normal form;
    all three are plain attributes, not fields."""
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        h = self._hash_memo
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_hash_memo", h)
        return h

    cls.__hash__ = __hash__
    cls._hash_memo = cls._ser_memo = cls._nf_memo = None
    return cls


@_node
class Const:
    value: ComplexRational


@_node
class Var:
    pass


@_node
class Poly:
    """A polynomial of degree >= 1 other than x, by its canonical kernel;
    the constructors build it, and a constant or x is never one."""
    k: "Kernel"


@_node
class Sum:
    terms: Tuple["SmoothExpr", ...]


@_node
class Product:
    factors: Tuple["SmoothExpr", ...]


@_node
class Power:
    base: "SmoothExpr"
    n: int  # constructors only emit n >= 2


@_node
class Quotient:
    num: "SmoothExpr"
    den: "SmoothExpr"


@_node
class Exp:
    arg: "SmoothExpr"


@_node
class Sin:
    arg: "SmoothExpr"


@_node
class Cos:
    arg: "SmoothExpr"


SmoothExpr = Union[Const, Var, Poly, Sum, Product, Power, Quotient, Exp, Sin,
                   Cos]

X = Var()
ZERO = Const(CR_ZERO)
ONE = Const(CR_ONE)
_LEAVES = (Const, Var, Poly)  # the canonical polynomial nodes


def const(v: ScalarLike) -> Const:
    return Const(ComplexRational.of(v))


# ---------------------------------------------------------------------------
# deterministic ordering of subexpressions


def _ser(e: SmoothExpr) -> str:
    try:
        s = e._ser_memo
    except AttributeError:
        raise TypeError(f"not a SmoothExpr: {e!r}") from None
    if s is None:
        s = _ser_node(e)
        object.__setattr__(e, "_ser_memo", s)
    return s


def _ser_node(e: SmoothExpr) -> str:
    if isinstance(e, Const):
        return _ser_const(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Poly):  # as the sum of c*x^i that it prints as
        parts = []
        for i, c in _poly_terms(e.k):
            xi = "x" if i == 1 else _ser_call("W", "x", str(i))
            parts.append(_ser_const(c) if i == 0 else xi if c == CR_ONE
                         else _ser_call("P", _ser_const(c), xi))
        return parts[0] if len(parts) == 1 else _ser_call("S", *parts)
    if isinstance(e, Sum):
        return _ser_call("S", *map(_ser, e.terms))
    if isinstance(e, Product):
        return _ser_call("P", *map(_ser, e.factors))
    if isinstance(e, Power):
        return _ser_call("W", _ser(e.base), str(e.n))
    if isinstance(e, Quotient):
        return _ser_call("Q", _ser(e.num), _ser(e.den))
    if isinstance(e, (Exp, Sin, Cos)):
        return _ser_call(e.__class__.__name__.lower(), _ser(e.arg))
    raise TypeError(f"not a SmoothExpr: {e!r}")


def _ser_const(v: ComplexRational) -> str:
    return f"C[{v}]"


def _ser_call(tag: str, *args: str) -> str:
    return tag + "(" + ",".join(args) + ")"


# ---------------------------------------------------------------------------
# smart constructors


def _flat(items: Sequence[SmoothExpr], cls) -> list:
    """The operands of an n-ary sum or product, nested ones spliced in, and
    a power of a polynomial leaf built by hand as the leaf it stands for."""
    out: list[SmoothExpr] = []
    stack = list(reversed(items))
    while stack:
        t = stack.pop()
        if t.__class__ is cls:
            stack.extend(reversed(t.terms if cls is Sum else t.factors))
        elif t.__class__ is Power and t.n >= 0 and isinstance(t.base, _LEAVES):
            out.append(power_of(t.base, t.n))
        else:
            out.append(t)
    return out


def sum_of(*terms: SmoothExpr) -> SmoothExpr:
    """Sum with flattening and like-term collection.  Each term is a
    polynomial leaf times a core (``_split``), and the kernels of the terms
    that share a core add up: those of core 1 into one leaf, which comes
    first, and the others into one term per core, ordered by core.  A term
    whose core no other term shares is kept as it came."""
    poly = _K_ZERO
    groups: dict[SmoothExpr, list] = {}  # core -> [summed kernel, term]
    for t in _flat(terms, Sum):
        k, core = _split(t)
        if core is ONE:
            poly = _poly_add(poly, k)
        elif core in groups:
            groups[core] = [_poly_add(groups[core][0], k), None]
        else:
            groups[core] = [k, t]
    out = [_leaf(poly)] if poly != _K_ZERO else []
    for core in sorted(groups, key=_ser):
        k, t = groups[core]
        if t is not None:
            out.append(t)
        elif k != _K_ZERO:
            out.append(product_of(_leaf(k), core))
    if any(t.__class__ is Sum for t in out):  # a core that is a sum
        return sum_of(*out)
    return Sum(tuple(out)) if len(out) > 1 else out[0] if out else ZERO


def _split(t: SmoothExpr) -> Tuple[Kernel, SmoothExpr]:
    """A term as (kernel, core): the product of its polynomial leaf
    factors, and of the rest, which is ``ONE`` when there is none."""
    cls = t.__class__
    if cls is Const or cls is Var or cls is Poly:
        return _normal_form(t), ONE
    fs = t.factors if cls is Product else (t,)
    k, rest = _K_ONE, []
    for f in fs:
        if isinstance(f, _LEAVES):
            k = _poly_mul(k, _normal_form(f))
        else:
            rest.append(f)
    if len(rest) == len(fs):
        return k, t
    return k, (Product(tuple(rest)) if len(rest) > 1 else rest[0] if rest
               else ONE)


def product_of(*factors: SmoothExpr) -> SmoothExpr:
    """Product with flattening, constant folding and power grouping.
    Constants multiply as scalars and the other polynomial leaves as
    kernels; any other factor sends the whole product to
    ``_tree_product``."""
    flat = _flat(factors, Product)
    coeff = None  # the product of the constants
    k = None  # the product of the kernels of X and Poly factors
    for f in flat:
        cls = f.__class__
        if cls is Const:
            if f.value.is_zero:
                return ZERO
            coeff = f.value if coeff is None else coeff * f.value
        elif cls is Poly or cls is Var:
            fk = f.k if cls is Poly else _K_X
            k = fk if k is None else _poly_mul(k, fk)
        else:
            return _tree_product(flat)
    if k is None:
        return ONE if coeff is None else Const(coeff)
    if coeff is not None:
        k = _poly_mul(_kernel_of_value(coeff), k)
    return _leaf(k)


def _tree_product(flat: list) -> SmoothExpr:
    """A product that a factor other than a polynomial leaf takes part in.
    The polynomial leaves multiply into one, c times a primitive q (see
    ``_primitive``), so the product depends neither on the order its
    factors came in nor on where a scalar sat: c is the coefficient and q
    one base (x with exponent n when q is x^n)."""
    p = product_of(*(f for f in flat if isinstance(f, _LEAVES)))
    if p == ZERO:
        return ZERO
    by_base: dict[SmoothExpr, int] = {}
    if isinstance(p, Const):
        coeff = p.value
    else:
        coeff, q = _primitive(_normal_form(p))
        if q[2] or any(q[1][:-1]):
            by_base[_leaf(q)] = 1
        else:  # x^n, ordered by its base as a power of x
            by_base[X] = len(q[1]) - 1
    for f in flat:
        if isinstance(f, _LEAVES):
            continue
        base, n = (f.base, f.n) if isinstance(f, Power) else (f, 1)
        by_base[base] = by_base.get(base, 0) + n
    out: list[SmoothExpr] = []
    for base in sorted(by_base, key=_ser):
        n = by_base[base]
        if n == 0:
            continue
        out.append(base if n == 1 else power_of(base, n))
    if not out:
        return Const(coeff)
    if len(out) == 1 and isinstance(out[0], Sum) and coeff != CR_ONE:
        # scalar times sum distributes, so c*(a+b) and c*a + c*b coincide
        return sum_of(*(product_of(Const(coeff), t) for t in out[0].terms))
    if coeff != CR_ONE:
        out.insert(0, Const(coeff))
    return Product(tuple(out)) if len(out) > 1 else out[0]


def power_of(base: SmoothExpr, n: int) -> SmoothExpr:
    if n == 0:
        return ONE
    if n == 1:
        return base
    if n < 0:
        return quotient_of(ONE, power_of(base, -n))
    if isinstance(base, Const):
        return Const(base.value ** n)
    if isinstance(base, (Var, Poly)):  # by squaring, so x^n costs O(n)
        k, b = _K_ONE, _normal_form(base)
        while n:
            if n & 1:
                k = _poly_mul(k, b)
            n >>= 1
            b = _poly_mul(b, b) if n else b
        return _leaf(k)
    if isinstance(base, Power):
        return power_of(base.base, base.n * n)
    if isinstance(base, Product):
        return product_of(*(power_of(f, n) for f in base.factors))
    return Power(base, n)


def quotient_of(num: SmoothExpr, den: SmoothExpr) -> SmoothExpr:
    """num/den; a quotient by a non-constant stays a Quotient node, even
    when it divides exactly."""
    if isinstance(den, Const):
        if den.value.is_zero:
            raise ZeroDivisionError("zero denominator in quotient")
        if isinstance(num, Const):
            return Const(num.value / den.value)
        return product_of(Const(CR_ONE / den.value), num)
    if num == ZERO:
        return ZERO
    if isinstance(num, Quotient) or isinstance(den, Quotient):
        na, nb = (num.num, num.den) if isinstance(num, Quotient) else (num, ONE)
        da, db = (den.num, den.den) if isinstance(den, Quotient) else (den, ONE)
        num2 = product_of(na, db)
        den2 = product_of(nb, da)
        if isinstance(den2, Const):
            return quotient_of(num2, den2)
        return Quotient(num2, den2)
    return Quotient(num, den)


def exp_of(arg: SmoothExpr) -> SmoothExpr:
    if arg == ZERO:
        return ONE
    return Exp(arg)


def sin_of(arg: SmoothExpr) -> SmoothExpr:
    if arg == ZERO:
        return ZERO
    return Sin(arg)


def cos_of(arg: SmoothExpr) -> SmoothExpr:
    if arg == ZERO:
        return ONE
    return Cos(arg)


def neg(e: SmoothExpr) -> SmoothExpr:
    return product_of(const(-1), e)


def sub_expr(a: SmoothExpr, b: SmoothExpr) -> SmoothExpr:
    return sum_of(a, neg(b))


# ---------------------------------------------------------------------------
# differentiation


def diff_expr(e: SmoothExpr) -> SmoothExpr:
    """Exact symbolic derivative; total on the node set."""
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
        return product_of(const(e.n), power_of(e.base, e.n - 1), diff_expr(e.base))
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


def diff_n(e: SmoothExpr, n: int) -> SmoothExpr:
    for _ in range(n):
        e = diff_expr(e)
    return e


# ---------------------------------------------------------------------------
# evaluation

QUOTIENT_GUARD = 1e-300


def eval_num(e: SmoothExpr, x, guard: float = QUOTIENT_GUARD):
    """Numerically evaluate at x (scalar or ndarray, real or complex).

    Returns complex values; raises DomainError when a quotient denominator
    falls below the guard in magnitude, or when an exact constant or the
    point does not fit in a float.
    """
    import numpy as np
    if isinstance(x, (int, Fraction, ComplexRational)):
        x = complex(ComplexRational.of(x))
    xa = np.asarray(x, dtype=complex)
    scalar = xa.ndim == 0

    def rec(e: SmoothExpr):
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
            if np.min(np.abs(den)) <= guard:
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


_HORNER_RTOL = 1e-10


def _poly_num(k: Kernel, xa):
    """The polynomial k at the points xa to a relative error of about
    ``_HORNER_RTOL``: float Horner where its error bound, a few units of
    round-off times sum |c_i||x|^i, allows that, and elsewhere (cancellation
    near a root, or coefficients beyond float range) the exact value at the
    float point, rounded once.  The bound is taken pointwise only when its
    value at max |x| does not already clear every point."""
    import numpy as np
    den, re, im = k
    n = max(len(re), len(im))
    re, im = re + (0,) * (n - len(re)), im + (0,) * (n - len(im))
    xs = xa if xa.ndim else xa.reshape(1)  # complex, as eval_num makes it
    try:
        cs = [complex(r / den, i / den) for r, i in zip(re, im)]
    except OverflowError:
        out = np.full(xs.shape, np.inf + 0j)
        exact = np.ones(xs.shape, dtype=bool)
    else:
        out = xs * cs[-1]
        out += cs[-2]
        for c in reversed(cs[:-2]):
            out *= xs
            out += c
        tol = 4 * n * 2.0 ** -53 / _HORNER_RTOL
        ax, av = abs(xs), abs(out)
        if tol * _abs_horner(cs, float(ax.max(initial=0.0))) <= av.min(
                initial=np.inf):
            return out if xa.ndim else out[0]
        exact = ~(tol * _abs_horner(cs, ax) <= av)
    for i in np.flatnonzero(exact):
        z = complex(xs[i])
        if isfinite(z.real) and isfinite(z.imag):
            out[i] = _poly_at_float(den, re, im, z)
    return out if xa.ndim else out[0]


def _abs_horner(cs: Sequence[complex], ax):
    """sum |cs[i]| ax^i by Horner, ax a float or an array."""
    size = 0.0
    for c in reversed(cs):
        size = size * ax + abs(c)
    return size


def _poly_at_float(den: int, re: tuple, im: tuple, z: complex) -> complex:
    """Horner in Gaussian integers at z = (a + b*i)/d, d a power of two,
    and one correctly rounded division per part."""
    (a, da), (b, db) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    d = max(da, db)
    a, b = a * (d // da), b * (d // db)
    vr, vi, pw = re[-1], im[-1], 1
    for r, i in zip(reversed(re[:-1]), reversed(im[:-1])):
        pw *= d
        vr, vi = vr * a - vi * b + r * pw, vr * b + vi * a + i * pw
    scale = den * pw
    parts = []
    for v in (vr, vi):
        try:
            parts.append(v / scale)
        except OverflowError:
            parts.append(float("inf") if v > 0 else float("-inf"))
    return complex(*parts)


def eval_exact(e: SmoothExpr, x: ScalarLike) -> Optional[ComplexRational]:
    """Exact evaluation when the value is provably a complex rational.

    Structural zeros are honored: exp(0) = 1, sin(0) = 0, cos(0) = 1 when the
    argument evaluates exactly to zero.  Returns None when no exact value can
    be produced; raises DomainError at a quotient pole.
    """
    xv = ComplexRational.of(x)

    def rec(e: SmoothExpr) -> Optional[ComplexRational]:
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


def eval_expr(e: SmoothExpr, x0) -> complex:
    """Evaluate at a real point: exactly when e is a polynomial leaf (Const,
    X or Poly) and x0 is rational, numerically otherwise.  The result is a
    complex float either way."""
    if isinstance(e, _LEAVES) and not isinstance(x0, complex):
        try:
            xf = as_fraction(x0)
        except (TypeError, DomainError):
            xf = None
        if xf is not None:
            return complex(eval_exact(e, xf))
    return eval_num(e, x0)


def poly_eval(coeffs: Sequence[ComplexRational], x: Fraction) -> ComplexRational:
    """Exact Horner evaluation of ascending coefficients at a rational."""
    acc = CR_ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# polynomial normal form

PolyCoeffs = Tuple[ComplexRational, ...]
# (den, re, im): see the module docstring
Kernel = Tuple[int, Tuple[int, ...], Tuple[int, ...]]
_K_ZERO: Kernel = (1, (), ())
_K_ONE: Kernel = (1, (1,), ())
_K_X: Kernel = (1, (0, 1), ())


def _poly_trim(cs: Sequence[ComplexRational]) -> PolyCoeffs:
    out = list(cs)
    while out and out[-1].is_zero:
        out.pop()
    return tuple(out)


def _kernel(den: int, re: list, im: list) -> Kernel:
    """Trim and content-reduce fresh numerator lists over den > 0."""
    while re and not re[-1]:
        re.pop()
    while im and not im[-1]:
        im.pop()
    if not re and not im:
        return _K_ZERO
    g = gcd(den, *re, *im)
    if g != 1:
        den //= g
        re = [c // g for c in re]
        im = [c // g for c in im]
    return den, tuple(re), tuple(im)


def _vadd(p: Sequence[int], q: Sequence[int], sign: int = 1) -> list:
    out = list(p) + [0] * (len(q) - len(p))
    for i, c in enumerate(q):
        out[i] += sign * c
    return out


def _conv(p: Sequence[int], q: Sequence[int]) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        if c:
            for j, b in enumerate(q, i):
                out[j] += c * b
    return out


def _poly_add(a: Kernel, b: Kernel) -> Kernel:
    da, ra, ia = a
    db, rb, ib = b
    if not (ra or ia):
        return b
    if not (rb or ib):
        return a
    if da != db:
        g = gcd(da, db)
        sa, sb = db // g, da // g
        da *= sa
        ra, ia = [c * sa for c in ra], [c * sa for c in ia]
        rb, ib = [c * sb for c in rb], [c * sb for c in ib]
    return _kernel(da, _vadd(ra, rb), _vadd(ia, ib))


def _poly_mul(a: Kernel, b: Kernel) -> Kernel:
    if a == _K_ONE:
        return b
    da, ra, ia = a
    db, rb, ib = b
    return _kernel(da * db, _vadd(_conv(ra, rb), _conv(ia, ib), -1),
                   _vadd(_conv(ra, ib), _conv(ia, rb)))


def _kernel_of_coeffs(cs: Sequence[ComplexRational]) -> Kernel:
    den = lcm(*(c.den for c in cs))
    return _kernel(den, [c.re_num * (den // c.den) for c in cs],
                   [c.im_num * (den // c.den) for c in cs])


def _coeffs_of_kernel(k: Kernel) -> PolyCoeffs:
    den, re, im = k
    re = re + (0,) * (len(im) - len(re))
    im = im + (0,) * (len(re) - len(im))
    return tuple(cr_of_ints(r, i, den) for r, i in zip(re, im))


def _kernel_of_value(v: ComplexRational) -> Kernel:
    return (v.den, (v.re_num,) if v.re_num else (),
            (v.im_num,) if v.im_num else ())


def _poly_diff(k: Kernel) -> Kernel:
    den, re, im = k
    return _kernel(den, [i * c for i, c in enumerate(re)][1:],
                   [i * c for i, c in enumerate(im)][1:])


def _primitive(k: Kernel) -> Tuple[ComplexRational, Kernel]:
    """Split a nonzero polynomial into c*q with q the same for all its
    nonzero scalar multiples: q has integer coefficients of content 1 and a
    positive leading one when the polynomial is real up to a scalar, and is
    monic otherwise."""
    den, re, im = k
    n = max(len(re), len(im)) - 1
    lead = cr_of_ints(re[n] if len(re) > n else 0, im[n] if len(im) > n else 0,
                      den)
    qden, qre, qim = _poly_mul(_kernel_of_value(CR_ONE / lead), k)
    if qim:
        return lead, (qden, qre, qim)
    g = gcd(*qre)  # qre[-1] == qden > 0
    return lead * cr_of_ints(g, 0, qden), (1, tuple(c // g for c in qre), ())


def _leaf(k: Kernel) -> SmoothExpr:
    """The canonical node of a polynomial: Const, X or Poly."""
    den, re, im = k
    if len(re) > 1 or len(im) > 1:
        return X if k == _K_X else Poly(k)
    if not re and not im:
        return ZERO
    return Const(cr_of_ints(re[0] if re else 0, im[0] if im else 0, den))


def _poly_terms(k: Kernel) -> list:
    """The nonzero terms (i, c_i) of a polynomial in its printing order:
    the constant term, then each x^i by the string of i, x itself last."""
    cs = _coeffs_of_kernel(k)
    order = sorted(range(1, len(cs)), key=lambda i: (i == 1, str(i)))
    return [(i, cs[i]) for i in [0] + order if not cs[i].is_zero]


def _poly_divmod(a: PolyCoeffs, b: PolyCoeffs) -> Tuple[PolyCoeffs, PolyCoeffs]:
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


def _poly_gcd(p: PolyCoeffs, q: PolyCoeffs) -> PolyCoeffs:
    while q:
        p, q = q, _poly_divmod(p, q)[1]
    return p


def _poly_derivative(p: PolyCoeffs) -> PolyCoeffs:
    return tuple(c * i for i, c in enumerate(p))[1:]


def reduced_denominator(num: Sequence[ComplexRational],
                        den: Sequence[ComplexRational]) -> PolyCoeffs:
    """The denominator of num/den in lowest terms: den divided by
    gcd(num, den); den must be nonzero."""
    return _poly_divmod(tuple(den), _poly_gcd(tuple(num), tuple(den)))[0]


def real_root_count(coeffs: Sequence[ComplexRational], lo: Fraction,
                    hi: Fraction) -> int:
    """Distinct real roots in ]lo, hi] of a polynomial with complex rational
    ascending coefficients.  A real root is a root of the gcd of the real and
    the imaginary part; the Sturm chain of that gcd's squarefree part counts
    them exactly, rational or irrational."""
    p = _poly_gcd(_poly_trim([ComplexRational(c.re) for c in coeffs]),
                  _poly_trim([ComplexRational(c.im) for c in coeffs]))
    if len(p) < 2:
        return 0
    p = _poly_divmod(p, _poly_gcd(p, _poly_derivative(p)))[0]
    chain = [p, _poly_derivative(p)]
    while len(chain[-1]) > 1:
        chain.append(tuple(-c for c in _poly_divmod(chain[-2], chain[-1])[1]))

    def sign_changes(x: Fraction) -> int:
        signs = [v.re > 0 for v in (poly_eval(q, x) for q in chain)
                 if not v.is_zero]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return sign_changes(lo) - sign_changes(hi)


def _normal_form(e: SmoothExpr) -> Optional[Kernel]:
    """Kernel normal form, None when e is not provably a polynomial: read
    off a polynomial leaf, memoized on a tree node."""
    cls = e.__class__
    if cls is Poly:
        return e.k
    if cls is Const:
        return _kernel_of_value(e.value)
    if cls is Var:
        return _K_X
    try:
        k = e._nf_memo
    except AttributeError:
        raise TypeError(f"not a SmoothExpr: {e!r}") from None
    if k is None:
        k = _normal_form_node(e)
        object.__setattr__(e, "_nf_memo", k)
    return k or None  # False marks "not a polynomial"


def _normal_form_node(e: SmoothExpr):
    """The normal form of a tree: Sum, Product, Power or Quotient nodes
    over polynomials, else False."""
    if isinstance(e, Sum):
        out = _K_ZERO
        for t in e.terms:
            p = _normal_form(t)
            if p is None:
                return False
            out = _poly_add(out, p)
        return out
    if isinstance(e, Product):
        out = _K_ONE
        for f in e.factors:
            p = _normal_form(f)
            if p is None:
                return False
            out = _poly_mul(out, p)
        return out
    if isinstance(e, Power):
        if e.n < 0:
            return False
        p = _normal_form(e.base)
        if p is None:
            return False
        return _normal_form(power_of(_leaf(p), e.n))
    if isinstance(e, Quotient):
        dp = _normal_form(e.den)
        if dp is None:
            return False
        if dp == _K_ZERO:
            raise DomainError("zero-polynomial denominator")
        np_ = _normal_form(e.num)
        if np_ is None:
            return False
        q, r = _poly_divmod(_coeffs_of_kernel(np_), _coeffs_of_kernel(dp))
        if r:
            return False  # genuine rational function
        return _kernel_of_coeffs(q)
    if isinstance(e, (Exp, Sin, Cos)):
        return False
    raise TypeError(f"not a SmoothExpr: {e!r}")


def poly_normal_form(e: SmoothExpr) -> Optional[PolyCoeffs]:
    """Dense ascending coefficients when e is (provably) a polynomial with
    exact coefficients; None otherwise.  The zero polynomial is ()."""
    k = _normal_form(e)
    return None if k is None else _coeffs_of_kernel(k)


def is_polynomial(e: SmoothExpr) -> bool:
    """Whether e is (provably) a polynomial; memoized on the node."""
    return _normal_form(e) is not None


def leaf_kernel(e: SmoothExpr) -> Optional[Kernel]:
    """The kernel (den, re, im) of a polynomial leaf (Const, X or Poly);
    None for a tree, even one whose normal form is a polynomial."""
    return _normal_form(e) if isinstance(e, _LEAVES) else None


def poly_antiderivative(e: SmoothExpr) -> Optional[SmoothExpr]:
    """The antiderivative with constant term zero of e, as a leaf; None
    when e is not provably a polynomial."""
    k = _normal_form(e)
    if k is None:
        return None
    den, re, im = k
    m = lcm(*range(1, max(len(re), len(im)) + 1))
    return _leaf(_kernel(den * m, [0] + [c * m // i for i, c in enumerate(re, 1)],
                         [0] + [c * m // i for i, c in enumerate(im, 1)]))


def expr_from_poly(coeffs: Sequence[ScalarLike]) -> SmoothExpr:
    """The polynomial leaf of sum_i coeffs[i]·x^i."""
    return _leaf(_kernel_of_coeffs([ComplexRational.of(c) for c in coeffs]))


# ---------------------------------------------------------------------------
# equality (tri-state)


class Verdict(enum.Enum):
    EQUAL = 0
    UNKNOWN = 1
    UNEQUAL = 2

    def __str__(self) -> str:
        return {Verdict.EQUAL: "Equal", Verdict.UNKNOWN: "Unknown",
                Verdict.UNEQUAL: "Unequal"}[self]


def worst_verdict(*vs: Verdict) -> Verdict:
    return max(vs, key=lambda v: v.value, default=Verdict.EQUAL)


_SAMPLE_WINDOW = 8.0


def chebyshev_nodes(lo: float, hi: float, n: int) -> np.ndarray:
    """The n Chebyshev nodes of [lo, hi]: interior, irrational spacing,
    no endpoint contact."""
    import numpy as np
    ks = np.arange(n)
    return (lo + hi) / 2 + (hi - lo) / 2 * np.cos(np.pi * (2 * ks + 1) / (2 * n))


def _sample_points(lo: Optional[Fraction], hi: Optional[Fraction], n: int) -> np.ndarray:
    if lo is None and hi is None:
        a, b = -_SAMPLE_WINDOW / 2, _SAMPLE_WINDOW / 2
    elif lo is None:
        b = float(hi)
        a = b - _SAMPLE_WINDOW
    elif hi is None:
        a = float(lo)
        b = a + _SAMPLE_WINDOW
    else:
        a, b = float(lo), float(hi)
    return chebyshev_nodes(a, b, n)


def _safe_values(e: SmoothExpr, xs: np.ndarray) -> np.ndarray:
    import numpy as np
    out = np.full(xs.shape, np.nan + 0j, dtype=complex)
    try:
        out = eval_num(e, xs)
    except DomainError:
        for i, x in enumerate(xs):
            try:
                out[i] = eval_num(e, float(x))
            except DomainError:
                out[i] = np.nan
    return out


def _term_magnitude(e: SmoothExpr, xs: np.ndarray,
                    values: np.ndarray) -> np.ndarray:
    """Pointwise size of the largest intermediate term: the sum of |t| over
    the terms t of a sum, a polynomial counting as its terms, sum |c_i||x|^i.
    A sum of huge terms can evaluate to a tiny value with only round-off
    accuracy, so separation must be judged against the terms, not the
    cancelled result."""
    import numpy as np
    if not isinstance(e, (Sum, Poly)):
        return np.abs(values)
    total = np.zeros(xs.shape)
    for t in e.terms if isinstance(e, Sum) else (e,):
        if not isinstance(t, Poly):
            total = total + np.abs(_safe_values(t, xs))
            continue
        try:
            cs = [complex(c) for c in _coeffs_of_kernel(t.k)]
        except DomainError:  # beyond float range, like a Const's value
            cs = [np.nan]
        total = total + _abs_horner(cs, np.abs(xs))
    return np.where(np.isfinite(total), total, np.abs(values))


def expr_equal(e1: SmoothExpr, e2: SmoothExpr,
               interval: Tuple[Optional[Fraction], Optional[Fraction]] = (None, None),
               samples: int = 32, rtol: float = 1e-9) -> Verdict:
    """Proven Equal or Unequal when the two are one node or their difference
    has a polynomial normal form (0 or not), two leaves deciding by ``==``;
    else Unequal iff a sample point on the interval separates the two beyond
    tolerance, and Unknown otherwise."""
    if e1 == e2:
        return Verdict.EQUAL
    if isinstance(e1, _LEAVES) and isinstance(e2, _LEAVES):
        return Verdict.UNEQUAL
    try:
        p = poly_normal_form(sub_expr(e1, e2))
    except DomainError:
        p = None
    if p is not None:
        return Verdict.EQUAL if p == () else Verdict.UNEQUAL
    import numpy as np
    xs = _sample_points(interval[0], interval[1], samples)
    v1 = _safe_values(e1, xs)
    v2 = _safe_values(e2, xs)
    ok = np.isfinite(v1) & np.isfinite(v2)
    if not np.any(ok):
        return Verdict.UNKNOWN
    gap = np.abs(v1[ok] - v2[ok])
    m1 = _term_magnitude(e1, xs, v1)[ok]
    m2 = _term_magnitude(e2, xs, v2)[ok]
    scale = 1.0 + np.maximum(m1, m2)
    if np.any(gap > rtol * scale):
        return Verdict.UNEQUAL
    return Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# substitution


def subst(e: SmoothExpr, r: SmoothExpr) -> SmoothExpr:
    """Replace the variable with expression r, rebuilding canonically."""
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


def shift_expr(e: SmoothExpr, h: ScalarLike) -> SmoothExpr:
    """x ↦ x + h composition."""
    return subst(e, sum_of(X, const(h)))
