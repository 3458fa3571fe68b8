"""Numerical weak actions and the translation-limit oracle.

``action`` evaluates <F, t> for a compactly supported bump t: piecewise
Gauss-Legendre quadrature for the regular part (split at every breakpoint so
each panel sees a smooth integrand) plus coeff·(-1)^k·t^(k)(w) for the
atoms, with bump derivatives taken symbolically.

``epsilon_product_action`` evaluates <F·G^eps, t> while deliberately
avoiding the closed-form product code: G is sampled at shifted points inside
the integral, and every atom term is obtained by numerically differentiating
the product of the opposing smooth piece with the bump (Cauchy integral on a
small circle, which needs only function values).  ``star_oracle`` drives it
along a shrinking eps schedule and extrapolates, giving an independent check
of the symbolic product.

Neither integrates across a pole: a piece with a polynomial denominator,
in lowest terms, that has a real root on the segment being integrated
raises DomainError, the roots counted exactly (``_refuse_pole``).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

from .dist import GenDist, normalize_dist, singular_support
from .errors import DomainError, EpsilonTooLarge, ShapeError
from .expr import (Cos, Exp, Power, Product, Quotient, Sin, SmoothExpr, Sum,
                   X, const, diff_expr, eval_num, exp_of, is_polynomial,
                   poly_eval, poly_normal_form, power_of, product_of,
                   quotient_of, real_root_count, reduced_denominator,
                   sub_expr, ONE)
from .scalars import as_fraction


# ---------------------------------------------------------------------------
# bump test functions


@dataclass(frozen=True)
class TestFunction:
    """A bump supported on [a, b]: body(u) in the normalized variable
    u = (2x - a - b)/(b - a), extended by zero outside.  The default body
    c·exp(-1/(1-u^2)) vanishes with all derivatives at the endpoints."""
    a: Fraction
    b: Fraction
    body: SmoothExpr


def make_bump(a, b, c=1) -> TestFunction:
    af, bf = as_fraction(a), as_fraction(b)
    if af >= bf:
        raise ShapeError("bump support needs a < b")
    try:
        float(af), float(bf)
    except OverflowError:
        raise DomainError("a bump end does not fit in a float") from None
    body = product_of(const(c), exp_of(
        quotient_of(const(-1), sub_expr(ONE, power_of(X, 2)))))
    return TestFunction(af, bf, body)


@functools.lru_cache(maxsize=4096)
def _body_deriv(body: SmoothExpr, k: int) -> SmoothExpr:
    if k == 0:
        return body
    return diff_expr(_body_deriv(body, k - 1))


def _u_of_x(t: TestFunction, x: np.ndarray) -> np.ndarray:
    a, b = float(t.a), float(t.b)
    return (2.0 * x - a - b) / (b - a)


def bump_values(t: TestFunction, x, guard: float = 0.0) -> np.ndarray:
    """t at real points; zero outside the (guard-shrunk) support."""
    return bump_deriv_values(t, 0, x, guard)


def bump_deriv_values(t: TestFunction, k: int, x, guard: float = 0.0) -> np.ndarray:
    """k-th derivative of t at real points.  Within `guard` of an endpoint
    the value is exactly 0 (all true derivatives vanish there faster than
    any polynomial)."""
    import numpy as np
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = float(t.a) + guard, float(t.b) - guard
    inside = (xs > lo) & (xs < hi)
    out = np.zeros(xs.shape, dtype=complex)
    if np.any(inside):
        u = _u_of_x(t, xs[inside])
        chain = (2.0 / (float(t.b) - float(t.a))) ** k
        out[inside] = chain * eval_num(_body_deriv(t.body, k), u)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return complex(out[0])
    return out


def bump_analytic(t: TestFunction, z) -> np.ndarray:
    """The bump's smooth branch at complex points (no support cutoff); valid
    near real points strictly inside ]a, b[."""
    import numpy as np
    return eval_num(t.body, _u_of_x(t, np.asarray(z, dtype=complex)))


def bump_derivative(t: TestFunction) -> TestFunction:
    """The bump whose values are t': same support, body d/du scaled by the
    chain factor."""
    chain = Fraction(2) / (t.b - t.a)
    return TestFunction(t.a, t.b, product_of(const(chain), diff_expr(t.body)))


# ---------------------------------------------------------------------------
# quadrature configuration


@dataclass(frozen=True)
class QuadratureConfig:
    nodes: int = 64
    guard: float = 1e-12
    eps_schedule: Tuple[Fraction, ...] = (Fraction(1, 100), Fraction(1, 1000),
                                          Fraction(1, 10000))
    extrapolation: str = "richardson"  # or "last-value"

    def __post_init__(self):
        if self.nodes < 1:
            raise ShapeError("need at least one quadrature node")
        sched = tuple(as_fraction(e) for e in self.eps_schedule)
        object.__setattr__(self, "eps_schedule", sched)
        if any(e <= 0 for e in sched):
            raise ShapeError("epsilon schedule must be positive")
        if any(sched[i] <= sched[i + 1] for i in range(len(sched) - 1)):
            raise ShapeError("epsilon schedule must be strictly descending")
        if self.extrapolation not in ("richardson", "last-value"):
            raise ShapeError("extrapolation must be 'richardson' or 'last-value'")


DEFAULT_CONFIG = QuadratureConfig()


@functools.lru_cache(maxsize=64)
def _gauss(n: int) -> Tuple[np.ndarray, np.ndarray]:
    import numpy as np
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel_integral(fn: Callable[[np.ndarray], np.ndarray],
                    lo: float, hi: float, nodes: int) -> complex:
    import numpy as np
    if hi <= lo:
        return 0j
    x, w = _gauss(nodes)
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    vals = np.asarray(fn(mid + half * x), dtype=complex)
    return complex(half * np.sum(w * vals))


def _segments(t: TestFunction, cuts: Sequence[Fraction], guard: float) -> list:
    """The panels (s, e, fs, fe) of the bump's support between the cuts:
    the float ends fs < fe are integrated, the support ends moved in by the
    guard; s and e are the exact cut or support end each float stands for."""
    lo, hi = float(t.a) + guard, float(t.b) - guard
    inner = {float(c): c for c in cuts}
    pts = ([(lo, t.a)] + sorted((f, c) for f, c in inner.items() if lo < f < hi)
           + [(hi, t.b)])
    return [(s, e, fs, fe) for (fs, s), (fe, e) in zip(pts, pts[1:]) if fe > fs]


# ---------------------------------------------------------------------------
# poles


def _has_quotient(e: SmoothExpr) -> bool:
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


def _pole_dens(p: SmoothExpr) -> list:
    """The denominators, in lowest terms, of the rational functions in p:
    the only places where p can have a pole.  Within a product, the
    polynomial factors, the bases of powers and the numerators and
    polynomial denominators of quotients multiply to one rational function,
    so (x^2-1)*exp(x)/(x-1) has none; the other factors are searched in
    turn.  A tree without a quotient takes no normal form; below a
    quotient, polynomial subtrees are skipped by their memoized one."""
    if not _has_quotient(p):
        return []
    dens, stack = [], [p]
    while stack:
        e = stack.pop()
        if is_polynomial(e):
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
            if is_polynomial(f):
                num.append(f)
            elif isinstance(f, Product):
                factors.extend(f.factors)
            elif isinstance(f, Power):
                factors.extend([f.base] * f.n)
            elif isinstance(f, Quotient) and is_polynomial(f.den):
                den.append(f.den)
                factors.append(f.num)
            elif isinstance(f, Quotient):
                stack += [f.num, f.den]
            else:
                stack.append(f)
        if den:
            dens.append(reduced_denominator(
                poly_normal_form(product_of(*num)),
                poly_normal_form(product_of(*den))))
    return dens


def _refuse_pole(p: SmoothExpr, s: Fraction, e: Fraction, t: TestFunction,
                 shift: Fraction = Fraction(0)) -> None:
    """Raise DomainError when the integrand factor p(x + shift) on the
    segment [s, e] has a pole: a denominator of ``_pole_dens(p)`` vanishes
    on the segment.  The support ends t.a and t.b are exempt, since the
    bump vanishes there to every order.  A denominator that is not a
    polynomial, such as sin(x) in 1/sin(x), cannot be checked, and a
    removable singularity that polynomial factors do not cancel, such as 0
    in sin(x)/x, is refused like a pole."""
    dens = _pole_dens(p)
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


def _piece_finder(F: GenDist) -> Callable[[float], SmoothExpr]:
    """x -> the piece of F at x, the one to the left at a breakpoint; the
    breakpoints are converted to float once, and each lookup bisects."""
    fb = [float(b) for b in F.breakpoints]
    return lambda x: F.pieces[bisect.bisect_left(fb, x)]


# ---------------------------------------------------------------------------
# weak action


def action(F: GenDist, t: TestFunction, cfg: Optional[QuadratureConfig] = None
           ) -> complex:
    """<F, t>: quadrature of the regular part over supp t plus
    coeff·(-1)^k·t^(k)(w) for every atom."""
    cfg = cfg or DEFAULT_CONFIG
    lo, hi = float(t.a) + cfg.guard, float(t.b) - cfg.guard
    total = 0j
    piece_at = _piece_finder(F)
    for s, e, fs, fe in _segments(t, F.breakpoints, cfg.guard):
        piece = piece_at((fs + fe) / 2.0)
        if piece == const(0):
            continue
        _refuse_pole(piece, s, e, t)
        total += _panel_integral(
            lambda xs: eval_num(piece, xs) * bump_values(t, xs, cfg.guard),
            fs, fe, cfg.nodes)
    for a in F.all_atoms:
        w = float(a.w)
        if not (lo < w < hi):
            continue
        tk = bump_deriv_values(t, a.k, w, cfg.guard)
        total += complex(a.coeff) * (-1) ** a.k * tk
    return total


# ---------------------------------------------------------------------------
# the translation-limit oracle


def _cauchy_deriv(fn: Callable[[np.ndarray], np.ndarray], w: float, k: int,
                  r: float, nodes: int = 64) -> complex:
    """k-th derivative at w of an analytic function from values on a circle
    of radius r (trapezoidal Cauchy integral; spectrally accurate)."""
    import numpy as np
    th = 2.0 * np.pi * np.arange(nodes) / nodes
    z = w + r * np.exp(1j * th)
    vals = np.asarray(fn(z), dtype=complex)
    if k == 0:
        return complex(np.mean(vals))
    return complex(math.factorial(k) / (nodes * r ** k)
                   * np.sum(vals * np.exp(-1j * k * th)))


def _atom_radius(w: float, lo: float, hi: float) -> float:
    return min(0.35 * (w - lo), 0.35 * (hi - w), 0.1)


def epsilon_product_action(F: GenDist, G: GenDist, t: TestFunction, eps,
                           cfg: Optional[QuadratureConfig] = None) -> complex:
    """<F(x)·G(x+eps), t> without the closed-form product code.

    Regular part: quadrature of f(x)·g(x+eps)·t(x) split at the breakpoints
    of F and of the shifted G.  Atoms: an atom of F at w meets the G piece
    covering w+eps, an atom of G at v sits at v-eps and meets the F piece
    covering that point; either way the contribution is
    coeff·(-1)^k·(m·t)^(k) at the location, differentiated numerically from
    complex function values.  Requires the shifted singular supports to be
    exactly disjoint.
    """
    cfg = cfg or DEFAULT_CONFIG
    epsf = as_fraction(eps)
    Fn = normalize_dist(F)
    Gn = normalize_dist(G)
    sf = set(singular_support(Fn))
    sg_shift = {v - epsf for v in singular_support(Gn)}
    if sf & sg_shift:
        raise EpsilonTooLarge(f"eps={epsf} collides singular supports at "
                              f"{sorted(sf & sg_shift)}")
    eps_float = float(epsf)
    lo, hi = float(t.a) + cfg.guard, float(t.b) - cfg.guard
    total = 0j
    f_at, g_at = _piece_finder(Fn), _piece_finder(Gn)
    cuts = list(Fn.breakpoints) + [b - epsf for b in Gn.breakpoints]
    for s, e, fs, fe in _segments(t, cuts, cfg.guard):
        mid = (fs + fe) / 2.0
        fp = f_at(mid)
        gp = g_at(mid + eps_float)
        if fp == const(0) or gp == const(0):
            continue
        _refuse_pole(fp, s, e, t)
        _refuse_pole(gp, s, e, t, epsf)
        total += _panel_integral(
            lambda xs: (eval_num(fp, xs) * eval_num(gp, xs + eps_float)
                        * bump_values(t, xs, cfg.guard)),
            fs, fe, cfg.nodes)
    for a in Fn.all_atoms:
        w = float(a.w)
        if not (lo < w < hi):
            continue
        gp = g_at(float(a.w + epsf))
        fn = lambda z: eval_num(gp, z + eps_float) * bump_analytic(t, z)
        d = _cauchy_deriv(fn, w, a.k, _atom_radius(w, float(t.a), float(t.b)))
        total += complex(a.coeff) * (-1) ** a.k * d
    for a in Gn.all_atoms:
        wv = a.w - epsf
        w = float(wv)
        if not (lo < w < hi):
            continue
        fp = f_at(w)
        fn = lambda z: eval_num(fp, z) * bump_analytic(t, z)
        d = _cauchy_deriv(fn, w, a.k, _atom_radius(w, float(t.a), float(t.b)))
        total += complex(a.coeff) * (-1) ** a.k * d
    return total


def star_oracle(F: GenDist, G: GenDist, t: TestFunction,
                cfg: Optional[QuadratureConfig] = None,
                direction: int = 1) -> complex:
    """Extrapolated eps -> 0 limit of <F·G^eps, t> along cfg.eps_schedule.

    direction=-1 translates the other way; its limit is star(G, F).
    The default Richardson step assumes the leading error is linear in eps
    and combines the last two schedule values.
    """
    cfg = cfg or DEFAULT_CONFIG
    vals = [epsilon_product_action(F, G, t, direction * e, cfg)
            for e in cfg.eps_schedule]
    if cfg.extrapolation == "last-value" or len(vals) < 2:
        return vals[-1]
    e1, e2 = (float(direction * cfg.eps_schedule[-2]),
              float(direction * cfg.eps_schedule[-1]))
    v1, v2 = vals[-2], vals[-1]
    return (e1 * v2 - e2 * v1) / (e1 - e2)
