"""Seeded input generators for the benchmark.

Every generator draws a *spec*: plain tuples of ints and Fractions that the
seed alone determines.  ``build_*`` turns a spec into library objects.  The
split keeps the drawn inputs independent of the library's representation, so
a refactor of ``distalg`` cannot change what a seed means, and a change to
``tests/conftest.py`` cannot silently change a workload.

Families:

- the conftest family, copied draw for draw from ``tests/conftest.py``:
  breakpoints on {-2..2}, polynomial pieces of degree <= 3, atom order <= 2,
  small coefficients.  ``conftest_stream(s)`` starts with
  ``random_corpus(s, n)``: streams 11, 12 and 13 start with the acceptance-02
  corpora, and ``oracle_corpus`` gives the pairs of acceptance 06;
- the wide family: breakpoints, atom locations and coefficients are rationals
  with large numerators and denominators, so two inputs share almost nothing;
- long step-and-delta sums whose text has a given number of terms.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

LOCS = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2)]

# Scalars are (re, im) Fraction pairs; polys are tuples of (scalar, degree);
# dists are (breakpoints, polys, atoms) with atoms (w, k, scalar).


# -- conftest family ---------------------------------------------------------


def rational_scalar(rng, imag_rate=0.3, max_num=5, max_den=3):
    num = rng.randint(-max_num, max_num)
    den = rng.choice([1, 1, 2, max_den])
    if rng.random() < imag_rate:
        return (Fraction(num, den), Fraction(rng.randint(-3, 3), den))
    return (Fraction(num, den), Fraction(0))


def random_poly(rng, max_deg=3, max_terms=2):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        c = rational_scalar(rng)
        terms.append((c, rng.randint(0, max_deg)))
    return tuple(terms)


def random_dist(rng, max_breaks=3, max_atoms=2, max_k=2):
    bks = tuple(sorted(rng.sample(LOCS, rng.randint(0, max_breaks))))
    polys = tuple(random_poly(rng) for _ in range(len(bks) + 1))
    atoms = []
    for _ in range(rng.randint(0, max_atoms)):
        w = rng.choice(LOCS)
        k = rng.randint(0, max_k)
        atoms.append((w, k, rational_scalar(rng)))
    return (bks, polys, tuple(atoms))


# -- wide family -------------------------------------------------------------


def wide_rational(rng):
    """A location in [-8, 8] with a denominator of up to 10^4."""
    den = rng.randint(2, 10 ** 4)
    return Fraction(rng.randint(-8 * den, 8 * den), den)


def wide_scalar(rng):
    re = Fraction(rng.randint(-10 ** 7, 10 ** 7), rng.randint(1, 10 ** 5))
    im = Fraction(0)
    if rng.random() < 0.3:
        im = Fraction(rng.randint(-10 ** 7, 10 ** 7), rng.randint(1, 10 ** 5))
    return (re, im)


def wide_dist(rng):
    """Two breakpoints, pieces a*x, b + c*x^2 and e*x^2, one atom.  The shape
    is fixed, so that only the numbers differ from one input to the next.
    Products then have pieces such as k*(b + c*x^2)*x, which print
    unexpanded; a round trip folds k into the sum, so the text changes
    once."""
    locs = set()
    while len(locs) < 2:
        locs.add(wide_rational(rng))
    bks = tuple(sorted(locs))
    polys = tuple(tuple((wide_scalar(rng), k) for k in degrees)
                  for degrees in ((1,), (0, 2), (2,)))
    atoms = ((rng.choice(bks), rng.randint(0, 1), wide_scalar(rng)),)
    return (bks, polys, atoms)


# -- long step-and-delta sums ------------------------------------------------


def long_sum(rng, n):
    """A piecewise-constant distribution, zero on the far left, with delta
    atoms on a third of its breakpoints; its text has exactly n terms."""
    n_atoms = n // 3
    n_breaks = n - n_atoms
    locs = set()
    while len(locs) < n_breaks:
        q = rng.randint(1, 12)
        locs.add(Fraction(rng.randint(-60 * q, 60 * q), q))
    bks = tuple(sorted(locs))
    values = [(Fraction(0), Fraction(0))]
    for _ in bks:
        v = values[-1]
        while v == values[-1] or v[0] == 0:
            v = (Fraction(rng.randint(-99, 99), rng.randint(1, 9)), Fraction(0))
        values.append(v)
    polys = tuple(((v, 0),) for v in values)
    atoms = tuple((w, rng.randint(0, 2),
                   (Fraction(rng.choice([-1, 1]) * rng.randint(1, 50),
                             rng.randint(1, 7)), Fraction(0)))
                  for w in sorted(rng.sample(bks, n_atoms)))
    return (bks, polys, atoms)


# -- ODE candidates ----------------------------------------------------------

# (kind, expected verdict).  "line" solves psi'' = 0 and "exp" solves
# psi' + psi = 0; the "+" kinds add a term that no solution has.
VERIFY_KINDS = (("line", "Equal"), ("line+", "Unequal"),
                ("exp", "Equal"), ("exp+", "Unequal"))


def small_rational(rng, nonzero=False):
    while True:
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if v or not nonzero:
            return v


# Interval shapes: a half line, a bounded interval ending right of 0, and a
# bounded interval with both ends negative.
SHAPES = ("half", "bounded", "negative")


def interval(rng, shape):
    if shape == "half":
        return (Fraction(rng.randint(-4, 4), rng.choice([1, 2])),)
    length = Fraction(rng.randint(1, 6), rng.choice([1, 2]))
    b = Fraction(rng.randint(1, 4), rng.choice([1, 2]))
    if shape == "negative":
        b = -b
    return (b - length, b)


def verify_case(rng, kind, shape):
    """(kind, interval, coefficients) for one confinement check."""
    iv = interval(rng, shape)
    if kind.startswith("line"):
        cs = (small_rational(rng), small_rational(rng))
    else:
        cs = (small_rational(rng, nonzero=True),)
    if kind.endswith("+"):
        cs += (small_rational(rng, nonzero=True),)
    return (kind, iv, cs)


# -- streams -----------------------------------------------------------------


def conftest_stream(seed):
    """The endless sequence that ``random_corpus(seed, n)`` starts."""
    rng = random.Random(seed)
    while True:
        yield random_dist(rng)


def oracle_corpus(n=50):
    """The (F, G) spec pairs of acceptance 06: ``random_corpus(101, n)``
    against ``random_corpus(102, n)``."""
    return list(zip(islice(conftest_stream(101), n),
                    islice(conftest_stream(102), n)))


# -- building library objects ------------------------------------------------


def build_scalar(d, s):
    return d.ComplexRational(s[0], s[1])


def build_poly(d, terms):
    return d.sum_of(d.ZERO, *[d.product_of(d.const(build_scalar(d, c)),
                                           d.power_of(d.X, k))
                              for c, k in terms])


def build_dist(d, spec):
    bks, polys, atoms = spec
    return d.dist._assemble(bks, [build_poly(d, p) for p in polys],
                            [d.DeltaAtom(w, k, build_scalar(d, c))
                             for w, k, c in atoms])


def build_psi(d, kind, cs):
    """The smooth candidate of a verify case."""
    if kind.startswith("line"):
        terms = [d.const(cs[0]), d.product_of(d.const(cs[1]), d.X)]
        if kind == "line+":
            terms.append(d.product_of(d.const(cs[2]), d.power_of(d.X, 2)))
        return d.sum_of(*terms)
    psi = d.product_of(d.const(cs[0]), d.exp_of(d.neg(d.X)))
    if kind == "exp+":
        psi = d.sum_of(psi, d.const(cs[1]))
    return psi


def build_ceq(d, kind, iv):
    coeffs = ([d.ZERO, d.ZERO, d.ONE] if kind.startswith("line")
              else [d.ONE, d.ONE])
    ode = d.make_ode(coeffs)
    if len(iv) == 1:
        return d.confine_halfline(ode, iv[0])
    return d.confine_interval(ode, *iv)
