"""Shared random families for the test suite.

The draws deliberately stay on small rational grids: breakpoints on
{-2,...,2}, sparse polynomial pieces of degree <= 3, atom orders <= 2,
coefficients with small numerators and denominators.  Everything downstream
(products, residuals, verdicts) is then exact, which is what the identity
tests rely on.

The Hypothesis strategies at the end draw the laws' operands on huge
(±10^30), tiny (10^-30) and nearly equal locations instead, each passed as
an ``int``, a ``Fraction`` or a ``Rat``.
"""

import random
from fractions import Fraction

from hypothesis import strategies as st

import distalg as d
from distalg.dist import _assemble
from distalg.scalars import Rat

LOCS = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2)]


def rational_scalar(rng, imag_rate=0.3, max_num=5, max_den=3):
    num = rng.randint(-max_num, max_num)
    den = rng.choice([1, 1, 2, max_den])
    if rng.random() < imag_rate:
        return d.ComplexRational(Fraction(num, den),
                                 Fraction(rng.randint(-3, 3), den))
    return d.ComplexRational(Fraction(num, den), Fraction(0))


def random_poly(rng, max_deg=3, max_terms=2):
    terms = [d.ZERO]
    for _ in range(rng.randint(1, max_terms)):
        terms.append(d.product_of(d.const(rational_scalar(rng)),
                                  d.power_of(d.X, rng.randint(0, max_deg))))
    return d.sum_of(*terms)


def random_dist(rng, max_breaks=3, max_atoms=2, max_k=2):
    bks = sorted(rng.sample(LOCS, rng.randint(0, max_breaks)))
    pieces = [random_poly(rng) for _ in range(len(bks) + 1)]
    atoms = [d.DeltaAtom(rng.choice(LOCS), rng.randint(0, max_k),
                         rational_scalar(rng))
             for _ in range(rng.randint(0, max_atoms))]
    return _assemble(bks, pieces, atoms)


def random_corpus(seed, n, **kw):
    rng = random.Random(seed)
    return [random_dist(rng, **kw) for _ in range(n)]


# ---------------------------------------------------------------------------
# Hypothesis: huge, tiny and nearly equal locations

EPS = Fraction(1, 10 ** 30)
wide_location = st.one_of(
    st.integers(-2, 2).map(Fraction),
    st.builds(lambda s, n: s * 10 ** 30 + n, st.sampled_from([1, -1]),
              st.integers(-2, 2)).map(Fraction),
    st.integers(-3, 3).map(lambda n: n * EPS),
    st.builds(lambda p, q, n: Fraction(p, q) + n * EPS,
              st.integers(-7, 7), st.integers(1, 5), st.integers(-1, 1)))
law_scalar = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))
law_poly = st.lists(law_scalar, max_size=3).map(
    lambda cs: d.sum_of(*(d.product_of(d.const(c), d.power_of(d.X, i))
                          for i, c in enumerate(cs))))


def location_as(w: Fraction, kind: str):
    """w as an int (when it is one), a Fraction or a Rat."""
    if kind == "int" and w.denominator == 1:
        return int(w)
    return Rat(w) if kind == "Rat" else w


@st.composite
def law_dists(draw, pool, n, piece=law_poly):
    """n distributions with pieces drawn from piece (polynomials unless
    given), whose breakpoints and atoms sit on the locations in pool, each
    passed as an int, Fraction or Rat."""
    out = []
    for _ in range(n):
        def loc():
            return location_as(draw(st.sampled_from(pool)), draw(
                st.sampled_from(["int", "Fraction", "Rat"])))
        bks = sorted({loc() for _ in range(draw(st.integers(0, 3)))})
        pieces = [draw(piece) for _ in range(len(bks) + 1)]
        atoms = [d.delta_dist(loc(), draw(st.integers(0, 2)),
                              d.ComplexRational(draw(law_scalar),
                                                draw(law_scalar)))
                 for _ in range(draw(st.integers(0, 2)))]
        out.append(d.add(d.make_piecewise(bks, pieces), *atoms))
    return out
