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

The residual is one piece list and one atom list, assembled once: the
candidate's derivatives are raw pieces and atoms on the union of its
breakpoints and the interval ends, and the corrections' atoms come through
``star._atom_terms``.  Sums, products and atom merges run in the order
that building each term as a whole distribution takes, so trees and float
coefficients are the ones that route gives."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .dist import (Atom, GenDist, DeltaAtom, PiecewiseSmooth, _assemble,
                   _derivative_parts, _merge_atoms, _repiece, _scaled_atoms,
                   as_expr, equal_dist, heaviside, indicator,
                   smooth_times_atom, zero_dist)
from .errors import DegenerateLeadingCoefficient, DomainError, ShapeError
from .expr import (Const, Quotient, SmoothExpr, Verdict, ZERO,
                   _normal_form, _sample_points, _split, chebyshev_nodes,
                   eval_num, neg, pole_denominators, poly_normal_form,
                   product_of, sub_expr, sum_of, vanishes_between)
from .scalars import CR_ONE, ComplexRational, ScalarLike, as_fraction, record
from .star import _atom_terms


@record
class LinearODE:
    """sum_{i=0..n} coeffs[i]·psi^(i) = rhs, coefficients in ascending
    derivative order; order n = len(coeffs) - 1 >= 1."""
    coeffs: Tuple[SmoothExpr, ...]
    rhs: SmoothExpr
    leading_sampled_nonzero: bool

    @property
    def n(self) -> int:
        return len(self.coeffs) - 1


@record
class HalfLine:
    a: Fraction


@record
class Bounded:
    a: Fraction
    b: Fraction


@record
class CorrectionTerm:
    """One correction summand: sign·binomial·a_i·(H^(j)(x-endpoint) ⋆
    psi^(i-j)), where H^(j) means delta of order j-1."""
    i: int
    j: int
    binomial: int
    endpoint: str  # "lower" | "upper"
    hside_order: int  # equals j
    sign: int  # +1 lower, -1 upper


@record
class ConfinedEquation:
    base: LinearODE
    interval: Union[HalfLine, Bounded]
    corrections: Tuple[CorrectionTerm, ...]


@record
class ConfinementReport:
    verdict: Verdict
    residual: GenDist
    samples: Tuple[Tuple[float, complex], ...]
    classical_max: float
    leading_sampled_nonzero: bool


def _sampled_nonvanishing(e: SmoothExpr) -> bool:
    import numpy as np
    try:
        vals = eval_num(e, chebyshev_nodes(-10.0, 10.0, 64))
    except DomainError:
        return False
    return bool(np.all(np.abs(vals) > 1e-9) and np.all(np.isfinite(vals)))


def make_ode(coeffs: Sequence, rhs=0) -> LinearODE:
    """Coefficients ascending (a_0 first).  The order must be >= 1: with no
    derivatives there is nothing to confine.  The leading coefficient must
    not be the zero expression; nonvanishing on [-10, 10] is only sampled
    and the result is carried in reports.  A constant lead c is not sampled:
    its samples would all be c, so the test is |c| > 1e-9.  A polynomial
    lead with a real root in the window fails without sampling, since the
    sample nodes need not hit the root; the Sturm count of
    ``vanishes_between`` finds it exactly.  So does a lead whose polynomial
    factor has one, whatever the other factors, such as (x-1)*exp(x), a
    lead with a pole there, a root of one of its ``pole_denominators``,
    whatever its numerator, such as exp(x)/(x-1), and a polynomial times a
    quotient of two polynomials when either side of the quotient has one:
    a root or a pole of the lead."""
    cs = tuple(as_expr(c) for c in coeffs)
    if len(cs) < 2:
        raise ShapeError("need order >= 1 (at least two coefficients)")
    lead = cs[-1]
    p = poly_normal_form(lead)
    if lead == ZERO or p == ():
        raise DegenerateLeadingCoefficient("leading coefficient is the zero "
                                           "expression")
    # the polynomials whose real roots are roots or poles of the lead
    if p is not None:
        polys = [_normal_form(lead)]
    else:
        k, core = _split(lead)
        polys = [k] + pole_denominators(lead)
        if isinstance(core, Quotient):
            nd = [_normal_form(core.num), _normal_form(core.den)]
            polys += [] if None in nd else nd
    if p is not None and len(p) == 1:
        nonzero = abs(complex(p[0])) > 1e-9
    elif any(vanishes_between(q, Fraction(-10), Fraction(10), True, True)
             for q in polys):  # a real root in [-10, 10]
        nonzero = False
    else:
        nonzero = _sampled_nonvanishing(lead)
    return LinearODE(cs, as_expr(rhs), nonzero)


def _records(ode: LinearODE, endpoint: str, sign: int) -> List[CorrectionTerm]:
    return [CorrectionTerm(i, j, math.comb(i, j), endpoint, j, sign)
            for i in range(1, ode.n + 1) if ode.coeffs[i] != ZERO
            for j in range(1, i + 1)]


def confine_halfline(ode: LinearODE, a) -> ConfinedEquation:
    """Equation whose solutions are H(x-a)·(solutions of the base ODE)."""
    return ConfinedEquation(ode, HalfLine(as_fraction(a)),
                            tuple(_records(ode, "lower", 1)))


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


def _chain(ceq: ConfinedEquation, chi: PiecewiseSmooth, psi: GenDist):
    """The union of psi's breakpoints and the interval ends, chi's pieces on
    it, and psi's derivatives 0..n on it as (pieces, atoms), the atoms of
    each merged as ``differentiate`` merges them."""
    union = tuple(sorted(set(psi.breakpoints) | set(chi.breakpoints)))
    chain = [(_repiece(psi.regular, union), psi.all_atoms)]
    for _ in range(ceq.base.n):
        ps, ats = _derivative_parts(union, *chain[-1])
        chain.append((ps, tuple(_merge_atoms(ats))))
    return union, _repiece(chi, union), chain


def _record_atoms(ceq: ConfinedEquation, union: Tuple[Fraction, ...],
                  chain) -> List[List[Atom]]:
    """Each correction record's atoms, sign and binomial included, merged
    where the record's ``star`` and ``smooth_mul`` merge them.
    ``star._atom_terms`` reads the one-sided piece from the record's delta
    and the chain's derivative, both on the union."""
    z = PiecewiseSmooth(union, (ZERO,) * (len(union) + 1))
    derivs = [GenDist(PiecewiseSmooth(union, ps), a) for ps, a in chain[:-1]]
    out = []
    for r in ceq.corrections:
        D = GenDist(z, (DeltaAtom(_endpoint_loc(ceq, r), r.j - 1, CR_ONE),))
        P = derivs[r.i - r.j]
        terms = _merge_atoms(_atom_terms(D, P) if r.endpoint == "lower"
                             else _atom_terms(P, D))
        atoms = _merge_atoms(b for a in terms for b in
                             smooth_times_atom(ceq.base.coeffs[r.i], a))
        out.append(_scaled_atoms(ComplexRational.of(r.sign * r.binomial),
                                 atoms))
    return out


def correction_values(ceq: ConfinedEquation, psi: GenDist) -> List[GenDist]:
    """The value of each correction record at the candidate, including sign
    and binomial factor, in record order."""
    union, _, chain = _chain(ceq, indicator_dist(ceq).regular, psi)
    return [_assemble((), (ZERO,), a)
            for a in _record_atoms(ceq, union, chain)]


def _residual(ceq: ConfinedEquation, chi: PiecewiseSmooth, psi: GenDist):
    """The residual and psi's derivative chain: f·chi - sum a_i·psi^(i) on
    each interval of the union, the records' atoms, then minus the
    a_i·psi^(i) atoms merged per term and then together."""
    union, chi_ps, chain = _chain(ceq, chi, psi)
    terms = [(a, *c) for a, c in zip(ceq.base.coeffs, chain) if a != ZERO]
    pieces = [sum_of(sum_of(product_of(ceq.base.rhs, c)), neg(sum_of(
        *(product_of(a, ps[u]) for a, ps, _ in terms))))
        for u, c in enumerate(chi_ps)]
    lhs = _merge_atoms(b for a, _, ats in terms for b in _merge_atoms(
        c for at in ats for c in smooth_times_atom(a, at)))
    atoms = [a for recs in _record_atoms(ceq, union, chain) for a in recs]
    return _assemble(union, pieces, atoms + _scaled_atoms(
        ComplexRational.of(-1), lhs)), chain


def residual(ceq: ConfinedEquation, psi: GenDist) -> GenDist:
    """Correction side minus derivative side of the confined equation,
    evaluated at the candidate; the zero distribution exactly when psi
    solves it."""
    return _residual(ceq, indicator_dist(ceq).regular, psi)[0]


def particular_rhs(ode: LinearODE, values: Sequence[ScalarLike], a) -> GenDist:
    """The delta combination sum_{i=1..n} sum_{k=0..i-1}
    a_i·values[k]·delta^(i-1-k)(x-a) that a cutoff particular solution with
    endpoint data values[k] = psi^(k)(a) adds to the right-hand side."""
    af = as_fraction(a)
    if len(values) != ode.n:
        raise ShapeError(f"need {ode.n} endpoint values, got {len(values)}")
    vals = [ComplexRational.of(v) for v in values]
    return _assemble((), (ZERO,), [
        b for i in range(1, ode.n + 1) for k in range(i) if not vals[k].is_zero
        for b in smooth_times_atom(ode.coeffs[i], DeltaAtom(af, i - 1 - k,
                                                            vals[k]))])


def verify_confinement(ceq: ConfinedEquation, psi_u) -> ConfinementReport:
    """Cut psi_u down to the interval, run the residual, and report the
    zero verdict together with sampled evidence that psi_u solves the base
    ODE classically (reported, not enforced).  The cut candidate is psi_u
    times each indicator piece, and the samples read psi_u's derivatives
    from its chain's inside piece."""
    psi_u, ode = as_expr(psi_u), ceq.base
    chi = indicator_dist(ceq).regular
    res, chain = _residual(ceq, chi, GenDist(PiecewiseSmooth(
        chi.breakpoints, tuple(product_of(psi_u, c) for c in chi.pieces)), ()))
    r = sub_expr(sum_of(*(product_of(a, ps[1]) for a, (ps, _) in
                          zip(ode.coeffs, chain) if a != ZERO)), ode.rhs)
    xs = _sample_points(ceq.interval.a, getattr(ceq.interval, "b", None), 16)
    try:
        vals = ([complex(r.value)] * len(xs) if r.__class__ is Const
                else eval_num(r, xs))
    except DomainError:
        vals = [complex("nan")] * len(xs)
    samples = tuple((float(x), complex(v)) for x, v in zip(xs, vals))
    finite = [abs(v) for _, v in samples if cmath.isfinite(v)]
    cmax = max(finite) if finite else float("nan")
    return ConfinementReport(equal_dist(res, zero_dist()), res, samples, cmax,
                             ode.leading_sampled_nonzero)
