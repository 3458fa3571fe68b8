"""The confinement check built from whole canonical distributions.

Each step here (the candidate's derivatives, each correction record, the
coefficient products and the sums) is a canonical distribution that the
next step takes apart again.  The tests hold ``distalg.ode``, which
collects the residual's pieces and atoms raw and assembles them once, to
these values exactly (``==`` and ``repr``).
"""

import cmath

from distalg.dist import (add, as_expr, delta_dist, differentiate,
                          equal_dist, scale, smooth_mul, sub, zero_dist)
from distalg.errors import DomainError
from distalg.expr import (ZERO, chebyshev_nodes, diff_expr, eval_num,
                          product_of, sub_expr, sum_of)
from distalg.ode import (ConfinementReport, HalfLine, _endpoint_loc,
                         indicator_dist)
from distalg.star import star


def derivative_chain(psi, n):
    out = [psi]
    for _ in range(n):
        out.append(differentiate(out[-1]))
    return out


def corrections(ceq, derivs):
    out = []
    for rec in ceq.corrections:
        D = delta_dist(_endpoint_loc(ceq, rec), rec.j - 1)
        if rec.endpoint == "lower":
            term = star(D, derivs[rec.i - rec.j])
        else:
            term = star(derivs[rec.i - rec.j], D)
        term = smooth_mul(ceq.base.coeffs[rec.i], term)
        out.append(scale(rec.sign * rec.binomial, term))
    return out


def correction_values(ceq, psi):
    return corrections(ceq, derivative_chain(psi, ceq.base.n))


def residual(ceq, psi):
    derivs = derivative_chain(psi, ceq.base.n)
    lhs = add(*(smooth_mul(a_i, derivs[i])
                for i, a_i in enumerate(ceq.base.coeffs) if a_i != ZERO))
    rhs = add(smooth_mul(ceq.base.rhs, indicator_dist(ceq)),
              *corrections(ceq, derivs))
    return sub(rhs, lhs)


def classical_residual_samples(ceq, psi_u, n=16):
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


def verify_confinement(ceq, psi_u):
    psi_u = as_expr(psi_u)
    psi_c = smooth_mul(psi_u, indicator_dist(ceq))
    res = residual(ceq, psi_c)
    verdict = equal_dist(res, zero_dist())
    samples = classical_residual_samples(ceq, psi_u)
    finite = [abs(v) for _, v in samples if cmath.isfinite(v)]
    cmax = max(finite) if finite else float("nan")
    return ConfinementReport(verdict, res, samples, cmax,
                             ceq.base.leading_sampled_nonzero)
