"""Confinement of a linear ODE to a half-line or bounded interval.

Given sum_i a_i psi^(i) = f with smooth coefficients, the confined equation
adds, for each endpoint, the correction terms
(i choose j)·a_i·(delta^(j-1)(x-endpoint) ⋆ psi^(i-j)) with 1 <= j <= i, so
that its solutions are exactly the indicator-cutoff versions of the original
solutions.  At a lower endpoint the term is delta^(j-1)(x-a) ⋆ psi^(i-j)
(the delta reads psi from the right, where the cutoff solution is alive); at
an upper endpoint the factors swap to psi^(i-j) ⋆ delta^(j-1)(x-b), so psi
is read from the left, with a minus sign because the indicator ends there.
``residual`` measures how far a candidate is from solving the confined
equation; it is the zero distribution exactly when the candidate solves it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .dist import (GenDist, DeltaAtom, _assemble, add, delta_dist, equal_dist,
                   differentiate, heaviside, indicator, scale, smooth_mul,
                   smooth_times_atom, sub, zero_dist)
from .errors import DegenerateLeadingCoefficient, DomainError, ShapeError
from .expr import (Quotient, SmoothExpr, Verdict, ZERO, _coeffs_of_kernel,
                   _split, chebyshev_nodes, diff_expr, eval_num, poly_eval,
                   poly_normal_form, product_of, real_root_count, sub_expr,
                   sum_of)
from .dist import as_expr
from .scalars import ComplexRational, ScalarLike, as_fraction
from .star import star


@dataclass(frozen=True)
class LinearODE:
    """sum_{i=0..n} coeffs[i]·psi^(i) = rhs, coefficients in ascending
    derivative order; order n = len(coeffs) - 1 >= 1."""
    coeffs: Tuple[SmoothExpr, ...]
    rhs: SmoothExpr
    leading_sampled_nonzero: bool

    @property
    def n(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class HalfLine:
    a: Fraction


@dataclass(frozen=True)
class Bounded:
    a: Fraction
    b: Fraction


@dataclass(frozen=True)
class CorrectionTerm:
    """One correction summand: sign·binomial·a_i·(H^(j)(x-endpoint) ⋆
    psi^(i-j)), where H^(j) means delta of order j-1."""
    i: int
    j: int
    binomial: int
    endpoint: str  # "lower" | "upper"
    hside_order: int  # equals j
    sign: int  # +1 lower, -1 upper


@dataclass(frozen=True)
class ConfinedEquation:
    base: LinearODE
    interval: Union[HalfLine, Bounded]
    corrections: Tuple[CorrectionTerm, ...]


@dataclass(frozen=True)
class ConfinementReport:
    verdict: Verdict
    residual: GenDist
    samples: Tuple[Tuple[float, complex], ...]
    classical_max: float
    leading_sampled_nonzero: bool


def _sampled_nonvanishing(e: SmoothExpr, lo: float = -10.0, hi: float = 10.0,
                          n: int = 64, floor: float = 1e-9) -> bool:
    import numpy as np
    try:
        vals = eval_num(e, chebyshev_nodes(lo, hi, n))
    except DomainError:
        return False
    return bool(np.all(np.abs(vals) > floor) and np.all(np.isfinite(vals)))


def _has_root_in_window(p: Sequence[ComplexRational]) -> bool:
    """A real root of the polynomial p in [-10, 10]."""
    return bool(real_root_count(p, Fraction(-10), Fraction(10))
                or poly_eval(p, Fraction(-10)).is_zero)


def make_ode(coeffs: Sequence, rhs=0) -> LinearODE:
    """Coefficients ascending (a_0 first).  The order must be >= 1: with no
    derivatives there is nothing to confine.  The leading coefficient must
    not be the zero expression; nonvanishing on [-10, 10] is only sampled
    and the result is carried in reports.  A constant lead c is not sampled:
    its samples would all be c, so the test is |c| > 1e-9.  A polynomial
    lead with a real root in the window fails without sampling, since the
    sample nodes need not hit the root; the Sturm count of
    ``real_root_count`` finds it exactly.  So does a polynomial (or constant)
    times a quotient of two polynomials when any of the three has a real
    root there: a root or a pole of the lead."""
    cs = tuple(as_expr(c) for c in coeffs)
    if len(cs) < 2:
        raise ShapeError("need order >= 1 (at least two coefficients)")
    lead = cs[-1]
    p = poly_normal_form(lead)
    if lead == ZERO or p == ():
        raise DegenerateLeadingCoefficient("leading coefficient is the zero "
                                           "expression")
    # the polynomials whose real roots are the roots and poles of the lead
    polys = [p]
    k, core = _split(lead)
    if p is None and isinstance(core, Quotient):
        polys = [_coeffs_of_kernel(k), poly_normal_form(core.num),
                 poly_normal_form(core.den)]
    if p is not None and len(p) == 1:
        nonzero = abs(complex(p[0])) > 1e-9
    elif None not in polys and any(_has_root_in_window(q) for q in polys):
        nonzero = False
    else:
        nonzero = _sampled_nonvanishing(lead)
    return LinearODE(cs, as_expr(rhs), nonzero)


def _records(ode: LinearODE, endpoint: str, sign: int) -> List[CorrectionTerm]:
    out = []
    for i in range(1, ode.n + 1):
        if ode.coeffs[i] == ZERO:
            continue
        for j in range(1, i + 1):
            out.append(CorrectionTerm(i, j, math.comb(i, j), endpoint, j, sign))
    return out


def confine_halfline(ode: LinearODE, a) -> ConfinedEquation:
    """Equation whose solutions are H(x-a)·(solutions of the base ODE)."""
    af = as_fraction(a)
    return ConfinedEquation(ode, HalfLine(af), tuple(_records(ode, "lower", 1)))


def confine_interval(ode: LinearODE, a, b) -> ConfinedEquation:
    """Equation whose solutions vanish outside ]a, b[; lower-endpoint terms
    put the delta on the left of the product, upper-endpoint terms put it on
    the right, with opposite sign."""
    af, bf = as_fraction(a), as_fraction(b)
    if af >= bf:
        raise ShapeError("interval needs a < b")
    recs = _records(ode, "lower", 1) + _records(ode, "upper", -1)
    return ConfinedEquation(ode, Bounded(af, bf), tuple(recs))


def _endpoint_loc(ceq: ConfinedEquation, rec: CorrectionTerm) -> Fraction:
    if isinstance(ceq.interval, HalfLine):
        return ceq.interval.a
    return ceq.interval.a if rec.endpoint == "lower" else ceq.interval.b


def indicator_dist(ceq: ConfinedEquation) -> GenDist:
    if isinstance(ceq.interval, HalfLine):
        return heaviside(ceq.interval.a)
    return indicator(ceq.interval.a, ceq.interval.b)


def _derivative_chain(psi: GenDist, n: int) -> List[GenDist]:
    out = [psi]
    for _ in range(n):
        out.append(differentiate(out[-1]))
    return out


def correction_values(ceq: ConfinedEquation, psi: GenDist) -> List[GenDist]:
    """The value of each correction record at the candidate, including sign
    and binomial factor, in record order."""
    return _corrections(ceq, _derivative_chain(psi, ceq.base.n))


def _corrections(ceq: ConfinedEquation, derivs: Sequence[GenDist]
                 ) -> List[GenDist]:
    """``correction_values`` from the candidate's derivatives 0..n."""
    out = []
    for rec in ceq.corrections:
        loc = _endpoint_loc(ceq, rec)
        D = delta_dist(loc, rec.j - 1)
        if rec.endpoint == "lower":
            term = star(D, derivs[rec.i - rec.j])
        else:
            term = star(derivs[rec.i - rec.j], D)
        term = smooth_mul(ceq.base.coeffs[rec.i], term)
        out.append(scale(rec.sign * rec.binomial, term))
    return out


def residual(ceq: ConfinedEquation, psi: GenDist) -> GenDist:
    """Correction side minus derivative side of the confined equation,
    evaluated at the candidate; the zero distribution exactly when psi
    solves it."""
    derivs = _derivative_chain(psi, ceq.base.n)
    lhs = add(*(smooth_mul(a_i, derivs[i])
                for i, a_i in enumerate(ceq.base.coeffs) if a_i != ZERO))
    rhs = add(smooth_mul(ceq.base.rhs, indicator_dist(ceq)),
              *_corrections(ceq, derivs))
    return sub(rhs, lhs)


def particular_rhs(ode: LinearODE, values: Sequence[ScalarLike], a) -> GenDist:
    """The delta combination sum_{i=1..n} sum_{k=0..i-1}
    a_i·values[k]·delta^(i-1-k)(x-a) that a cutoff particular solution with
    endpoint data values[k] = psi^(k)(a) adds to the right-hand side."""
    af = as_fraction(a)
    if len(values) != ode.n:
        raise ShapeError(f"need {ode.n} endpoint values, got {len(values)}")
    vals = [ComplexRational.of(v) for v in values]
    atoms = []
    for i in range(1, ode.n + 1):
        if ode.coeffs[i] == ZERO:
            continue
        for k in range(i):
            if vals[k].is_zero:
                continue
            base = DeltaAtom(af, i - 1 - k, vals[k])
            atoms.extend(smooth_times_atom(ode.coeffs[i], base))
    return _assemble((), (ZERO,), atoms)


def _classical_residual_samples(ceq: ConfinedEquation, psi_u: SmoothExpr,
                                n: int = 16) -> Tuple[Tuple[float, complex], ...]:
    ode = ceq.base
    terms = []
    d = psi_u
    for i, a_i in enumerate(ode.coeffs):
        if i > 0:
            d = diff_expr(d)
        if a_i != ZERO:
            terms.append(product_of(a_i, d))
    r = sub_expr(sum_of(*terms), ode.rhs)
    if isinstance(ceq.interval, HalfLine):
        lo, hi = float(ceq.interval.a), float(ceq.interval.a) + 8.0
    else:
        lo, hi = float(ceq.interval.a), float(ceq.interval.b)
    xs = chebyshev_nodes(lo, hi, n)
    try:
        vals = eval_num(r, xs)
    except DomainError:
        vals = [complex("nan")] * n
    return tuple((float(x), complex(v)) for x, v in zip(xs, vals))


def verify_confinement(ceq: ConfinedEquation, psi_u) -> ConfinementReport:
    """Cut psi_u down to the interval, run the residual, and report the
    zero verdict together with sampled evidence that psi_u solves the base
    ODE classically (reported, not enforced)."""
    psi_u = as_expr(psi_u)
    psi_c = smooth_mul(psi_u, indicator_dist(ceq))
    res = residual(ceq, psi_c)
    verdict = equal_dist(res, zero_dist())
    samples = _classical_residual_samples(ceq, psi_u)
    finite = [abs(v) for _, v in samples if cmath.isfinite(v)]
    cmax = max(finite) if finite else float("nan")
    return ConfinementReport(verdict, res, samples, cmax,
                             ceq.base.leading_sampled_nonzero)
