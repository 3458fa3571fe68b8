"""The atom expansion that ``distalg.dist.smooth_times_atom`` now computes
with one reduction per emitted atom.

Here a polynomial leaf's values g^(j)(w) each come reduced from the Taylor
shift of its kernel, and each atom coefficient is then reduced twice more,
once per product: the coefficient times the value, times
C(k,j)·(-1)^j.  A constant is shifted like any other leaf.  Every other
factor differentiates with ``diff_expr`` and evaluates with
``eval_exact``, falling back to floats.  The tests hold the library to
these atoms exactly: ``==``, ``repr``, and float coefficients bit for bit.
"""

import cmath
import math

from distalg.dist import DeltaAtom, InexactAtom, as_expr
from distalg.errors import DomainError
from distalg.expr import (Const, diff_expr, eval_exact, eval_expr,
                          leaf_kernel)
from distalg.scalars import CR_ZERO, cr_of_ints


def taylor_values(g, w, k):
    """[g(w), g'(w), ..., g^(k)(w)], each reduced; None unless g is a
    polynomial leaf."""
    kern = leaf_kernel(g)
    if kern is None:
        return None
    den, re, im = kern
    n = max(len(re), len(im))
    p, q = w.numerator, w.denominator
    ps = [p ** m for m in range(n)]
    qs = [q ** m for m in range(n)]

    def shifted(cs, j):
        return sum(c * math.comb(i, j) * ps[i - j] * qs[n - 1 - i]
                   for i, c in enumerate(cs[j:], j))

    out = []
    for j in range(min(k + 1, n)):
        f, scale = math.factorial(j), den * qs[n - 1 - j]
        out.append(cr_of_ints(f * shifted(re, j), f * shifted(im, j), scale))
    return out + [CR_ZERO] * (k + 1 - len(out))


def smooth_times_atom(g, a):
    g = as_expr(g)
    if g.__class__ is Const and g.value.is_zero:
        return []
    vals = taylor_values(g, a.w, a.k)
    out = []
    d = g
    for j in range(a.k + 1):
        if vals is not None:
            v = vals[j]
        else:
            if j > 0:
                d = diff_expr(d)
            v = eval_exact(d, a.w)
        factor = math.comb(a.k, j) * (-1) ** j
        if isinstance(a, DeltaAtom) and v is not None:
            coeff = a.coeff * v * factor
            if not coeff.is_zero:
                out.append(DeltaAtom(a.w, a.k - j, coeff))
        else:
            vn = complex(v) if v is not None else eval_expr(d, a.w)
            if not cmath.isfinite(vn):
                raise DomainError(f"derivative {j} of the smooth factor "
                                  f"overflows a float at {a.w}, so the "
                                  f"atom coefficient is not finite")
            cn = complex(a.coeff) * vn * factor
            if cn != 0:
                out.append(InexactAtom(a.w, a.k - j, cn))
    return out
