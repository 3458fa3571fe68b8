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
the sampling tail of ``expr_equal``, never by the exact paths or by the
sample points, which ``chebyshev_nodes`` gives as plain floats.

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
divides exactly, so that ``eval_exact`` still refuses its pole.  Division,
gcd, lowest terms and the Sturm root count that the weak actions and
``make_ode`` ask through ``vanishes_between`` run on kernels too, and one
Horner in Gaussian integers (``_horner``) gives every exact value: in
``eval_exact``, at a float point where float Horner's error bound is too
wide (``_poly_num``), in the root count, and for an order-0 atom in
``dist.smooth_times_atom``.  Coefficients leave kernels
only to print, substitute and size terms, and in ``poly_normal_form``.

One walker.  ``_interpret`` is the only function that knows each node
class's operands.  It interprets every operand in field order, with no
early exit, then applies the node class's rule from a table; a class
without a rule has no value, and its operands are not visited, so the
normal form never looks inside exp, sin or cos.  The order key, the
derivative, the exact value, the float value, the normal form, the pole
search, substitution and ``fmt``'s rendering are such tables, with one
rule for poles: a quotient's denominator and a negative power's base are
the pole sites.  The exact value raises ``DomainError`` where a site is
exactly 0 (``_pole``), whatever else has a value, so a pole anywhere in
the tree raises; the float value raises where a site comes within
``QUOTIENT_GUARD`` of 0 (``_guard``); ``pole_denominators`` lists the
sites' polynomials, in lowest terms.

Memos.  Each node stores, on first use, its hash and its serialized form,
which orders factors and terms; a tree node, and each node below it that
the walker visits, also stores its normal form (or that it is not a
polynomial), which the quotient path and equality read, and its pole
search, which the weak actions read once per panel.  They live on the
node and die with it; no module-level cache holds a node.
"""

from __future__ import annotations

import enum
import operator
from fractions import Fraction
from functools import reduce
from math import cos, gcd, isfinite, lcm, pi, prod
from typing import List, Optional, Sequence, Tuple, Union

from .errors import DigitLimitError, DomainError
from .scalars import (CR_ONE, CR_ZERO, ComplexRational, ScalarLike,
                      as_fraction, cr_of_ints, record)

# ---------------------------------------------------------------------------
# node types

PolyCoeffs = Tuple[ComplexRational, ...]
# (den, re, im): see the module docstring
Kernel = Tuple[int, Tuple[int, ...], Tuple[int, ...]]
_K_ZERO: Kernel = (1, (), ())
_K_ONE: Kernel = (1, (1,), ())
_K_X: Kernel = (1, (0, 1), ())


_UNSET = object()  # a memo not yet computed; None is a value


def _node(cls):
    """A frozen record whose field hash is computed once per instance.
    ``_ser_memo``, ``_nf_memo`` and ``_pole_memo`` hold the order key, the
    normal form and the pole search: slots, like the hash, unset until used."""
    cls = record(cls, ("_hash_memo", "_ser_memo", "_nf_memo", "_pole_memo",
                       "__weakref__"))
    field_hash, set_hash = cls.__hash__, cls._hash_memo.__set__

    def __hash__(self):
        try:
            return self._hash_memo
        except AttributeError:
            set_hash(self, field_hash(self))
            return self._hash_memo

    cls.__hash__ = __hash__
    return cls


@_node
class Const:
    value: ComplexRational

    k = property(lambda self: _kernel_of_value(self.value))  # as on a leaf


@_node
class Var:
    k = _K_X  # a class attribute, not a field


@_node
class Poly:
    """A polynomial of degree >= 1 other than x, by its canonical kernel;
    the constructors build it, and a constant or x is never one."""
    k: Kernel


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
_NODE_TYPES = (Const, Var, Poly, Sum, Product, Power, Quotient, Exp, Sin,
               Cos)

X = Var()
ZERO = Const(CR_ZERO)
ONE = Const(CR_ONE)
_LEAVES = (Const, Var, Poly)  # the canonical polynomial nodes


def const(v: ScalarLike) -> Const:
    return Const(ComplexRational.of(v))


# ---------------------------------------------------------------------------
# the walker


def _interpret(e: SmoothExpr, rules: dict, arg=None,
               memo: Optional[str] = None):
    """The value of e under rules, a table node class -> rule(e, arg,
    *operand values): every operand interpreted in field order, then the
    rule of e's class applied to their values.  A class without a rule has
    no value (None), and its operands are not visited.  memo names the
    node attribute that stores each value, read and written here, so the
    recursion is one frame per tree level."""
    v = _UNSET if memo is None else getattr(e, memo, _UNSET)
    if v is not _UNSET:
        return v
    cls = e.__class__
    rule = rules.get(cls)
    if rule is not None and cls in _LEAVES:
        v = rule(e, arg)
    elif rule is not None:
        ops = []
        for kid in (e.terms if cls is Sum else e.factors if cls is Product
                    else (e.base,) if cls is Power else (e.num, e.den)
                    if cls is Quotient else (e.arg,)):
            ops.append(_interpret(kid, rules, arg, memo))
        v = rule(e, arg, *ops)
    elif cls in _NODE_TYPES:
        v = None
    else:
        raise TypeError(f"not a SmoothExpr: {e!r}")
    if memo is not None:
        object.__setattr__(e, memo, v)
    return v


# ---------------------------------------------------------------------------
# deterministic ordering of subexpressions


def _ser(e: SmoothExpr) -> str:
    return _interpret(e, _ORDER_KEY, None, "_ser_memo")


def _ser_poly(e: Poly, _) -> str:
    """A polynomial as the sum of c*x^i that it prints as."""
    parts = []
    for i, c in _poly_terms(e.k):
        xi = "x" if i == 1 else _ser_call("W", "x", str(i))
        parts.append(_ser_const(c) if i == 0 else xi if c == CR_ONE
                     else _ser_call("P", _ser_const(c), xi))
    return parts[0] if len(parts) == 1 else _ser_call("S", *parts)


def _ser_const(v: ComplexRational) -> str:
    try:
        return f"C[{v}]"
    except ValueError:
        raise DigitLimitError() from None


def _ser_call(tag: str, *args: str) -> str:
    return tag + "(" + ",".join(args) + ")"


_ORDER_KEY = {
    Const: lambda e, _: _ser_const(e.value), Var: lambda e, _: "x",
    Poly: _ser_poly,
    Sum: lambda e, _, *ts: _ser_call("S", *ts),
    Product: lambda e, _, *fs: _ser_call("P", *fs),
    Power: lambda e, _, b: _ser_call("W", b, str(e.n)),
    Quotient: lambda e, _, n, d: _ser_call("Q", n, d),
    **dict.fromkeys((Exp, Sin, Cos), lambda e, _, a: _ser_call(
        e.__class__.__name__.lower(), a)),
}


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
    if isinstance(t, _LEAVES):
        return t.k, ONE
    fs = t.factors if t.__class__ is Product else (t,)
    k, rest = _K_ONE, []
    for f in fs:
        if isinstance(f, _LEAVES):
            k = _poly_mul(k, f.k)
        else:
            rest.append(f)
    if len(rest) == len(fs):
        return k, t
    return k, (Product(tuple(rest)) if len(rest) > 1 else rest[0] if rest
               else ONE)


def product_of(*factors: SmoothExpr) -> SmoothExpr:
    """Product with flattening, constant folding and power grouping.
    Constants multiply as scalars and the other polynomial leaves as
    kernels, read straight from the factors; any other factor flattens
    them (``_flat``), and a product that is still not all leaves goes to
    ``_tree_product``."""
    coeff = None  # the product of the constants
    k = None  # the product of the kernels of X and Poly factors
    for f in factors:
        cls = f.__class__
        if cls is Const:
            if f.value.is_zero:
                return ZERO
            coeff = f.value if coeff is None else coeff * f.value
        elif cls is Poly or cls is Var:
            k = f.k if k is None else _poly_mul(k, f.k)
        else:
            flat = _flat(factors, Product)
            if all(isinstance(g, _LEAVES) for g in flat):
                return product_of(*flat)  # powers of leaves built by hand
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
        coeff, q = _primitive(p.k)
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
        k, b = _K_ONE, base.k
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
    when it divides exactly.  A den of normal form 0 (x/x - 1), or one that
    itself divides by such a polynomial, raises."""
    try:
        k = _normal_form(den)
    except DomainError:  # den divides by the zero polynomial
        k = _K_ZERO
    if k == _K_ZERO:
        raise ZeroDivisionError("zero denominator in quotient")
    if isinstance(den, Const):
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


_DERIVATIVE = {
    Const: lambda e, _: ZERO, Var: lambda e, _: ONE,
    Poly: lambda e, _: _leaf(_poly_diff(e.k)),
    Sum: lambda e, _, *ds: sum_of(*ds),
    Product: lambda e, _, *ds: sum_of(*(
        product_of(*e.factors[:i], d, *e.factors[i + 1:])
        for i, d in enumerate(ds))),
    Power: lambda e, _, db: product_of(const(e.n), power_of(e.base, e.n - 1),
                                       db),
    Quotient: lambda e, _, dn, dd: quotient_of(
        sub_expr(product_of(dn, e.den), product_of(e.num, dd)),
        power_of(e.den, 2)),
    Exp: lambda e, _, da: product_of(da, e),
    Sin: lambda e, _, da: product_of(da, cos_of(e.arg)),
    Cos: lambda e, _, da: product_of(const(-1), da, sin_of(e.arg)),
}


def diff_expr(e: SmoothExpr) -> SmoothExpr:
    """Exact symbolic derivative; total on the node set."""
    return _interpret(e, _DERIVATIVE)


def diff_n(e: SmoothExpr, n: int) -> SmoothExpr:
    for _ in range(n):
        e = diff_expr(e)
    return e


# ---------------------------------------------------------------------------
# evaluation

QUOTIENT_GUARD = 1e-300
np = None  # numpy, bound by the first eval_num


def _guard(d):
    """The one rule for poles in floats: a denominator within
    ``QUOTIENT_GUARD`` of 0 at any point raises."""
    if np.min(np.abs(d)) <= QUOTIENT_GUARD:
        raise DomainError("denominator below evaluation guard")
    return d


_NUMERIC = {
    Const: lambda e, x: (np.full(x.shape, complex(e.value)) if x.ndim
                         else complex(e.value)),
    Var: lambda e, x: x, Poly: lambda e, x: _poly_num(e.k, x),
    Sum: lambda e, _, *vs: reduce(operator.add, vs),
    Product: lambda e, _, *vs: reduce(operator.mul, vs),
    Power: lambda e, _, b: (_guard(b) if e.n < 0 else b) ** e.n,
    Quotient: lambda e, _, n, d: n / _guard(d),
    Exp: lambda e, _, a: np.exp(a), Sin: lambda e, _, a: np.sin(a),
    Cos: lambda e, _, a: np.cos(a),
}


def eval_num(e: SmoothExpr, x):
    """Numerically evaluate at x (scalar or ndarray, real or complex):
    sums and products fold left in operand order.

    Returns complex values; raises DomainError at a pole, where a quotient
    denominator or a negative power's base falls below the guard in
    magnitude (``_guard``), or when an exact constant or the point does not
    fit in a float.
    """
    global np
    import numpy as np
    if isinstance(x, (int, Fraction, ComplexRational)):
        x = complex(ComplexRational.of(x))
    xa = np.asarray(x, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _interpret(e, _NUMERIC, xa)
    if not xa.ndim:
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
            out[i] = _poly_at_float(k, z)
    return out if xa.ndim else out[0]


def _abs_horner(cs: Sequence[complex], ax):
    """sum |cs[i]| ax^i by Horner, ax a float or an array."""
    size = 0.0
    for c in reversed(cs):
        size = size * ax + abs(c)
    return size


def _poly_at_float(k: Kernel, z: complex) -> complex:
    """k at z = (a + b*i)/d, d a power of two, by ``_horner``, and one
    correctly rounded division per part."""
    (a, da), (b, db) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    d = max(da, db)
    *vs, scale = _horner(k, a * (d // da), b * (d // db), d)
    parts = []
    for v in vs:
        try:
            parts.append(v / scale)
        except OverflowError:
            parts.append(float("inf") if v > 0 else float("-inf"))
    return complex(*parts)


def _horner(k: Kernel, a: int, b: int, d: int) -> Tuple[int, int, int]:
    """The one exact Horner: k at (a + b*i)/d, d > 0, in Gaussian integers,
    as the unreduced (re, im, den) of the value."""
    den, re, im = k
    n = max(len(re), len(im), 1)
    re, im = re + (0,) * (n - len(re)), im + (0,) * (n - len(im))
    vr, vi, pw = re[-1], im[-1], 1
    for r, i in zip(reversed(re[:-1]), reversed(im[:-1])):
        pw *= d
        vr, vi = vr * a - vi * b + r * pw, vr * b + vi * a + i * pw
    return vr, vi, den * pw


def _pole(d: Optional[ComplexRational]) -> Optional[ComplexRational]:
    """The one rule for poles: a denominator of exactly 0 raises, whether
    or not the rest of its node has an exact value; any other d passes."""
    if d is not None and d.is_zero:
        raise DomainError("exact evaluation at a pole")
    return d


def _defined(rule):
    """rule where every operand has a value; no value elsewhere."""
    return lambda e, x, *vs: None if None in vs else rule(e, x, *vs)


_EXACT = {
    Const: lambda e, _: e.value, Var: lambda e, x: x,
    Poly: lambda e, x: cr_of_ints(*_horner(e.k, x.re_num, x.im_num, x.den)),
    Sum: _defined(lambda e, _, *vs: sum(vs, CR_ZERO)),
    Product: _defined(lambda e, _, *vs: prod(vs, start=CR_ONE)),
    Power: lambda e, _, b: (None if b is None
                            else (_pole(b) if e.n < 0 else b) ** e.n),
    Quotient: lambda e, _, n, d: (None if _pole(d) is None or n is None
                                  else n / d),
    **dict.fromkeys((Exp, Sin, Cos), _defined(
        lambda e, _, a: None if not a.is_zero else CR_ZERO
        if e.__class__ is Sin else CR_ONE)),
}


def eval_exact(e: SmoothExpr, x: ScalarLike) -> Optional[ComplexRational]:
    """Exact evaluation when the value is provably a complex rational.

    Structural zeros are honored: exp(0) = 1, sin(0) = 0, cos(0) = 1 when the
    argument evaluates exactly to zero.  Returns None when no exact value can
    be produced; raises DomainError at a pole anywhere in e: a quotient
    whose denominator, or a negative power whose base, is exactly 0.
    """
    return _interpret(e, _EXACT, ComplexRational.of(x))


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


# ---------------------------------------------------------------------------
# polynomial normal form

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
    lead = _top(k)[1]
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


def _top(k: Kernel) -> Tuple[int, ComplexRational]:
    """The degree and leading coefficient of a nonzero polynomial."""
    den, re, im = k
    n = max(len(re), len(im)) - 1
    return n, cr_of_ints(re[n] if len(re) > n else 0,
                         im[n] if len(im) > n else 0, den)


def _poly_divmod(a: Kernel, b: Kernel) -> Tuple[Kernel, Kernel]:
    """Exact division with remainder; b must be nonzero.  Each step takes
    the remainder's leading term off with one kernel product and sum."""
    (n, lead), q, r = _top(b), _K_ZERO, a
    while r != _K_ZERO and (top := _top(r))[0] >= n:
        c, pad = top[1] / lead, [0] * (top[0] - n)
        q = _poly_add(q, _kernel(c.den, pad + [c.re_num], pad + [c.im_num]))
        r = _poly_add(r, _poly_mul(_kernel(c.den, pad + [-c.re_num],
                                           pad + [-c.im_num]), b))
    return q, r


def _poly_gcd(p: Kernel, q: Kernel) -> Kernel:
    while q != _K_ZERO:
        p, q = q, _poly_divmod(p, q)[1]
    return p


def reduced_denominator(num: Kernel, den: Kernel) -> Kernel:
    """The denominator of num/den in lowest terms: den divided by
    gcd(num, den); den must be nonzero."""
    return _poly_divmod(den, _poly_gcd(num, den))[0]


def real_root_count(k: Kernel, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in ]lo, hi] of a polynomial.  A real root is a
    root of the gcd of the real and the imaginary part; the Sturm chain of
    that gcd's squarefree part counts them exactly, rational or irrational,
    its signs read off ``_horner``."""
    den, re, im = k
    p = _poly_gcd(_kernel(den, list(re), []), _kernel(den, list(im), []))
    if len(p[1]) < 2:
        return 0
    p = _poly_divmod(p, _poly_gcd(p, _poly_diff(p)))[0]
    chain = [p, _poly_diff(p)]
    while len(chain[-1][1]) > 1:
        den, re, _ = _poly_divmod(chain[-2], chain[-1])[1]
        chain.append((den, tuple(-c for c in re), ()))

    def sign_changes(x: Fraction) -> int:
        signs = [v > 0 for v in (_horner(q, x.numerator, 0, x.denominator)[0]
                                 for q in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return sign_changes(lo) - sign_changes(hi)


def vanishes_between(k: Kernel, lo: Fraction, hi: Fraction, lo_in: bool,
                     hi_in: bool) -> bool:
    """Whether the polynomial k has a real root between lo < hi, each end
    counted as its flag says; the zero polynomial vanishes everywhere."""
    def root(x: Fraction) -> bool:
        return _horner(k, x.numerator, 0, x.denominator)[:2] == (0, 0)

    return k == _K_ZERO or bool(real_root_count(k, lo, hi) + (
        lo_in and root(lo)) - (not hi_in and root(hi)))


def _nf_quotient(e: Quotient, _, nk: Optional[Kernel],
                 dk: Optional[Kernel]) -> Optional[Kernel]:
    """The quotient when it divides exactly, else None."""
    if dk == _K_ZERO:
        raise DomainError("zero-polynomial denominator")
    if nk is None or dk is None:
        return None
    q, r = _poly_divmod(nk, dk)
    return None if r != _K_ZERO else q


_NORMAL_FORM = {
    **dict.fromkeys(_LEAVES, lambda e, _: e.k),
    Sum: _defined(lambda e, _, *ks: reduce(_poly_add, ks, _K_ZERO)),
    Product: _defined(lambda e, _, *ks: reduce(_poly_mul, ks, _K_ONE)),
    Power: _defined(lambda e, _, k: None if e.n < 0
                    else power_of(_leaf(k), e.n).k),
    Quotient: _nf_quotient,
}


def _normal_form(e: SmoothExpr) -> Optional[Kernel]:
    """Kernel normal form, None when e is not provably a polynomial: read
    off a polynomial leaf, memoized on a tree node."""
    if isinstance(e, _LEAVES):
        return e.k
    return _interpret(e, _NORMAL_FORM, None, "_nf_memo")


def poly_normal_form(e: SmoothExpr) -> Optional[PolyCoeffs]:
    """Dense ascending coefficients when e is (provably) a polynomial with
    exact coefficients; None otherwise.  The zero polynomial is ()."""
    k = _normal_form(e)
    return None if k is None else _coeffs_of_kernel(k)


def _close(v: tuple) -> tuple:
    """The denominators found in a group (numerator factors, denominator
    factors, found), and its own, in lowest terms, if it has one."""
    num, den, found = v
    if not den:
        return found
    return found + (reduced_denominator(reduce(_poly_mul, num, _K_ONE),
                                        reduce(_poly_mul, den, _K_ONE)),)


def _rational(rule):
    """rule unless e is provably a polynomial: one numerator factor."""
    return lambda e, _, *vs: (rule(e, *vs) if (k := _normal_form(e)) is None
                              else ((k,), (), ()))


def _quotient_poles(e: Quotient, n: tuple, d: tuple) -> tuple:
    dk = _normal_form(e.den)
    if dk is None:
        return (), (), _close(n) + _close(d)
    return n[0], n[1] + (dk,), n[2]


_POLES = {
    **dict.fromkeys(_LEAVES, lambda e, _: ((e.k,), (), ())),
    Product: _rational(lambda e, *vs: tuple(sum(g, ()) for g in zip(*vs))),
    Power: _rational(lambda e, b: (
        (b[0] * e.n, b[1] * e.n) if e.n >= 0 else (b[1] * -e.n, b[0] * -e.n))
        + (b[2],)),
    Quotient: _rational(_quotient_poles),
    **dict.fromkeys((Sum, Exp, Sin, Cos), _rational(
        lambda e, *vs: ((), (), sum(map(_close, vs), ())))),
}


def pole_denominators(e: SmoothExpr) -> List[Kernel]:
    """The denominators, in lowest terms, of the rational functions in e:
    the only places where e can have a pole.  A product's polynomial
    factors, the factors of its quotients with a polynomial denominator
    and those of its powers, swapped under a negative one, multiply to one
    rational function, so (x^2-1)*exp(x)/(x-1) has none; the operands of
    a sum, of exp, sin and cos and of a quotient by a non-polynomial are
    each their own."""
    return list(_close(_interpret(e, _POLES, None, "_pole_memo")))


def leaf_kernel(e: SmoothExpr) -> Optional[Kernel]:
    """The kernel (den, re, im) of a polynomial leaf (Const, X or Poly);
    None for a tree, even one whose normal form is a polynomial."""
    return e.k if isinstance(e, _LEAVES) else None


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
    cs = [ComplexRational.of(c) for c in coeffs]
    den = lcm(*(c.den for c in cs))
    return _leaf(_kernel(den, [c.re_num * (den // c.den) for c in cs],
                         [c.im_num * (den // c.den) for c in cs]))


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
_SAMPLES = 32  # expr_equal's sample points, and its relative tolerance
_RTOL = 1e-9


def chebyshev_nodes(lo: float, hi: float, n: int) -> List[float]:
    """The n Chebyshev nodes of [lo, hi]: interior, irrational spacing, no
    endpoint contact; plain floats, by numpy's elementwise steps in order."""
    return [(lo + hi) / 2 + (hi - lo) / 2 * cos(pi * (2 * k + 1) / (2 * n))
            for k in range(n)]


def _sample_points(lo: Optional[Fraction], hi: Optional[Fraction], n: int) -> List[float]:
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


def exact_verdict(e1: SmoothExpr, e2: SmoothExpr) -> Verdict:
    """Equal or Unequal when exact means prove it, else Unknown: Equal when
    the two are one node, two leaves deciding by ``==``, and otherwise a
    polynomial normal form of their difference deciding by being 0."""
    if e1 == e2:
        return Verdict.EQUAL
    if isinstance(e1, _LEAVES) and isinstance(e2, _LEAVES):
        return Verdict.UNEQUAL
    try:
        k = _normal_form(sub_expr(e1, e2))
    except DomainError:
        return Verdict.UNKNOWN
    if k is None:
        return Verdict.UNKNOWN
    return Verdict.EQUAL if k == _K_ZERO else Verdict.UNEQUAL


def expr_equal(e1: SmoothExpr, e2: SmoothExpr,
               interval: Tuple[Optional[Fraction], Optional[Fraction]] = (
                   None, None)) -> Verdict:
    """The ``exact_verdict`` when it is Equal or Unequal; else Unequal iff a
    sample point on the interval separates the two beyond tolerance, and
    Unknown otherwise, also when an end of the interval is beyond float
    range."""
    verdict = exact_verdict(e1, e2)
    if verdict is not Verdict.UNKNOWN:
        return verdict
    import numpy as np
    try:
        xs = np.asarray(_sample_points(interval[0], interval[1], _SAMPLES))
    except OverflowError:
        return Verdict.UNKNOWN
    v1 = _safe_values(e1, xs)
    v2 = _safe_values(e2, xs)
    ok = np.isfinite(v1) & np.isfinite(v2)
    if not np.any(ok):
        return Verdict.UNKNOWN
    gap = np.abs(v1[ok] - v2[ok])
    m1 = _term_magnitude(e1, xs, v1)[ok]
    m2 = _term_magnitude(e2, xs, v2)[ok]
    scale = 1.0 + np.maximum(m1, m2)
    if np.any(gap > _RTOL * scale):
        return Verdict.UNEQUAL
    return Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# substitution


_SUBSTITUTE = {
    Const: lambda e, _: e, Var: lambda e, r: r,
    Poly: lambda e, r: sum_of(*(product_of(Const(c), power_of(r, i))
                                for i, c in enumerate(_coeffs_of_kernel(e.k))
                                if not c.is_zero)),
    Sum: lambda e, _, *ts: sum_of(*ts),
    Product: lambda e, _, *fs: product_of(*fs),
    Power: lambda e, _, b: power_of(b, e.n),
    Quotient: lambda e, _, n, d: quotient_of(n, d),
    Exp: lambda e, _, a: exp_of(a), Sin: lambda e, _, a: sin_of(a),
    Cos: lambda e, _, a: cos_of(a),
}


def subst(e: SmoothExpr, r: SmoothExpr) -> SmoothExpr:
    """Replace the variable with expression r, rebuilding canonically."""
    return _interpret(e, _SUBSTITUTE, r)


def shift_expr(e: SmoothExpr, h: ScalarLike) -> SmoothExpr:
    """x ↦ x + h composition."""
    return subst(e, sum_of(X, const(h)))
