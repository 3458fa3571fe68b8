"""The comparison that ``distalg.dist.equal_dist`` now skips when its two
values are equal records with exact atoms only.

Here every pair is aligned on the union of its breakpoints, its atoms are
summed per (location, order), and each aligned piece pair goes through
``expr_equal``, whether or not the two values are the same record.  The
tests hold the library's verdicts to these.
"""

from distalg.dist import _INEXACT_RTOL, _atom_sums, _piece_interval, align
from distalg.expr import Verdict, expr_equal, worst_verdict
from distalg.scalars import CR_ZERO


def equal_dist(F, G):
    Fa, Ga = align(F, G)
    verdict = Verdict.EQUAL
    fs, gs = _atom_sums(Fa), _atom_sums(Ga)
    for key in fs.keys() | gs.keys():
        a, b = fs.get(key, CR_ZERO), gs.get(key, CR_ZERO)
        if not (isinstance(a, complex) or isinstance(b, complex)):
            if a != b:
                return Verdict.UNEQUAL
            continue
        a, b = complex(a), complex(b)
        if abs(a - b) > _INEXACT_RTOL * (1 + max(abs(a), abs(b))):
            return Verdict.UNEQUAL
        verdict = worst_verdict(verdict, Verdict.UNKNOWN)
    for i in range(len(Fa.pieces)):
        lo, hi = _piece_interval(Fa.breakpoints, i)
        verdict = worst_verdict(verdict, expr_equal(Fa.pieces[i], Ga.pieces[i],
                                                    (lo, hi)))
        if verdict is Verdict.UNEQUAL:
            return verdict
    return verdict
