"""One-sided products, variants, bracket, and the disjoint-support product;
the algebra laws also as Hypothesis properties on huge, tiny and nearly
equal breakpoints."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import distalg as d
from distalg import Verdict, VariantTag
from distalg.dist import _assemble
from distalg.errors import OverlapError
from distalg.scalars import Rat

from conftest import LOCS, random_dist, random_poly


def CR(x):
    return d.ComplexRational.of(x)


H = d.heaviside(0)
DELTA = d.delta_dist(0)


def bracket_direct(F, G):
    """Independent construction: at every aligned breakpoint the bracket is
    (right-left piece gap of G) times F's atoms plus (left-right gap of F)
    times G's atoms; regular part cancels."""
    Fa, Ga = d.align(F, G)
    out = d.zero_dist()
    for j, w in enumerate(Fa.breakpoints):
        g_gap = d.sub_expr(Ga.pieces[j + 1], Ga.pieces[j])
        f_gap = d.sub_expr(Fa.pieces[j], Fa.pieces[j + 1])
        for a in Fa.atoms:
            if a.w == w:
                out = d.add(out, _assemble(
                    (), (d.ZERO,), d.smooth_times_atom(g_gap, a)))
        for a in Ga.atoms:
            if a.w == w:
                out = d.add(out, _assemble(
                    (), (d.ZERO,), d.smooth_times_atom(f_gap, a)))
    return out


class TestFrozenProducts:
    def test_heaviside_idempotent(self):
        assert d.equal_dist(d.star(H, H), H) is Verdict.EQUAL

    def test_delta_heaviside_asymmetry(self):
        assert d.equal_dist(d.star(DELTA, H), DELTA) is Verdict.EQUAL
        assert d.is_zero_dist(d.star(H, DELTA))

    def test_delta_delta_vanishes(self):
        assert d.is_zero_dist(d.star(DELTA, DELTA))

    def test_delta_prime_against_ramp(self):
        ramp = d.make_piecewise([0], [d.ZERO, d.X])
        out = d.star(d.delta_dist(0, 1), ramp)
        assert d.equal_dist(out, d.scale(-1, DELTA)) is Verdict.EQUAL

    def test_smooth_reduces_to_pointwise(self):
        rng = random.Random(21)
        for _ in range(20):
            f = random_poly(rng)
            G = random_dist(rng)
            assert d.equal_dist(d.star(d.smooth_dist(f), G),
                                d.smooth_mul(f, G)) is Verdict.EQUAL

    def test_continuous_pieces_reduce_to_pointwise(self):
        # |x|-like: continuous across the breakpoint, no atoms
        absx = d.make_piecewise([0], [d.neg(d.X), d.X])
        sq = d.star(absx, absx)
        assert d.equal_dist(sq, d.smooth_dist(d.power_of(d.X, 2))) is Verdict.EQUAL


class TestAlgebraLaws:
    def test_associative(self):
        rng = random.Random(22)
        for _ in range(80):
            F, G, J = (random_dist(rng) for _ in range(3))
            assert d.equal_dist(d.star(d.star(F, G), J),
                                d.star(F, d.star(G, J))) is Verdict.EQUAL

    def test_distributive(self):
        rng = random.Random(23)
        for _ in range(40):
            F, G, J = (random_dist(rng) for _ in range(3))
            assert d.equal_dist(
                d.star(d.add(F, G), J),
                d.add(d.star(F, J), d.star(G, J))) is Verdict.EQUAL
            assert d.equal_dist(
                d.star(F, d.add(G, J)),
                d.add(d.star(F, G), d.star(F, J))) is Verdict.EQUAL

    def test_derivative_leibniz(self):
        rng = random.Random(24)
        for _ in range(40):
            F, G = random_dist(rng), random_dist(rng)
            lhs = d.differentiate(d.star(F, G))
            rhs = d.add(d.star(d.differentiate(F), G),
                        d.star(F, d.differentiate(G)))
            assert d.equal_dist(lhs, rhs) is Verdict.EQUAL

    def test_noncommutative_witness(self):
        assert d.equal_dist(d.star(DELTA, H), d.star(H, DELTA)) is Verdict.UNEQUAL


class TestBracket:
    def test_delta_heaviside(self):
        assert d.equal_dist(d.bracket(DELTA, H), DELTA) is Verdict.EQUAL

    def test_smooth_commute(self):
        f = d.smooth_dist(d.power_of(d.X, 3))
        g = d.smooth_dist(d.exp_of(d.X))
        assert d.is_zero_dist(d.bracket(f, g))

    def test_antisymmetry_and_self(self):
        rng = random.Random(25)
        for _ in range(30):
            F, G = random_dist(rng), random_dist(rng)
            assert d.is_zero_dist(d.bracket(F, F))
            assert d.equal_dist(d.bracket(F, G),
                                d.scale(-1, d.bracket(G, F))) is Verdict.EQUAL

    def test_jacobi(self):
        rng = random.Random(26)
        for _ in range(25):
            F, G, J = (random_dist(rng) for _ in range(3))
            total = d.add(d.add(d.bracket(d.bracket(F, G), J),
                                d.bracket(d.bracket(G, J), F)),
                          d.bracket(d.bracket(J, F), G))
            assert d.equal_dist(total, d.zero_dist()) is Verdict.EQUAL

    def test_leibniz_over_product(self):
        rng = random.Random(27)
        for _ in range(25):
            F, G, J = (random_dist(rng) for _ in range(3))
            lhs = d.bracket(F, d.star(G, J))
            rhs = d.add(d.star(d.bracket(F, G), J),
                        d.star(G, d.bracket(F, J)))
            assert d.equal_dist(lhs, rhs) is Verdict.EQUAL

    def test_closed_form_matches(self):
        rng = random.Random(28)
        for _ in range(40):
            F, G = random_dist(rng), random_dist(rng)
            assert d.equal_dist(d.bracket(F, G),
                                bracket_direct(F, G)) is Verdict.EQUAL

    def test_support_and_regular_part(self):
        rng = random.Random(29)
        for _ in range(20):
            F, G = random_dist(rng), random_dist(rng)
            B = d.bracket(F, G)
            assert all(p == d.ZERO for p in B.pieces)
            allowed = set(d.singular_support(F)) | set(d.singular_support(G))
            assert set(a.w for a in B.atoms) <= allowed


class TestVariants:
    def test_star2_is_flipped_star(self):
        out = d.star_variant(DELTA, H, VariantTag.STAR2)
        assert d.is_zero_dist(out)  # equals H (*) delta

    def test_identity_chain(self):
        rng = random.Random(30)
        for _ in range(40):
            F, G = random_dist(rng), random_dist(rng)
            ref = d.star(G, F)
            for got in (d.star_variant(F, G, VariantTag.STAR2),
                        d.star_variant(F, G, VariantTag.STAR3),
                        d.star_variant(G, F, VariantTag.STAR4)):
                assert d.equal_dist(got, ref) is Verdict.EQUAL

    def test_swapped_variants_are_structurally_star(self):
        # exp(x)*H(x-w) differentiated gives float atoms, whose sums depend
        # on the order of the one-sided pairings; the swaps must match star
        # term for term, not only up to equal_dist
        def with_exp(rng):
            F = random_dist(rng)
            w = rng.choice(LOCS)
            return d.differentiate(
                d.add(F, d.smooth_mul(d.exp_of(d.X), d.heaviside(w))))

        rng = random.Random(5)
        for _ in range(60):
            F, G = with_exp(rng), with_exp(rng)
            ref = d.star(G, F)
            assert d.star_variant(F, G, VariantTag.STAR2) == ref
            assert d.star_variant(G, F, VariantTag.STAR4) == ref

    def test_star5_symmetrization(self):
        out = d.star_variant(DELTA, H, VariantTag.STAR5)
        assert d.equal_dist(out, d.delta_dist(0, 0, Fraction(1, 2))) is Verdict.EQUAL

    def test_star5_commutative(self):
        rng = random.Random(31)
        for _ in range(30):
            F, G = random_dist(rng), random_dist(rng)
            assert d.equal_dist(
                d.star_variant(F, G, VariantTag.STAR5),
                d.star_variant(G, F, VariantTag.STAR5)) is Verdict.EQUAL

    def test_star5_not_associative(self):
        s5 = lambda A, B: d.star_variant(A, B, VariantTag.STAR5)
        left = s5(s5(DELTA, H), H)
        right = s5(DELTA, s5(H, H))
        assert d.equal_dist(left, d.delta_dist(0, 0, Fraction(1, 4))) is Verdict.EQUAL
        assert d.equal_dist(right, d.delta_dist(0, 0, Fraction(1, 2))) is Verdict.EQUAL
        assert d.equal_dist(left, right) is Verdict.UNEQUAL

    def test_variants_coincide_on_smooth(self):
        f = d.smooth_dist(d.sum_of(d.X, d.ONE))
        g = d.smooth_dist(d.power_of(d.X, 2))
        want = d.smooth_mul(d.sum_of(d.X, d.ONE), g)
        for tag in VariantTag:
            assert d.equal_dist(d.star_variant(f, g, tag), want) is Verdict.EQUAL


class TestHormander:
    def test_delta_against_shifted_heaviside(self):
        assert d.is_zero_dist(d.hormander(DELTA, d.heaviside(1)))

    def test_heaviside_against_shifted_delta(self):
        out = d.hormander(H, d.delta_dist(1))
        assert d.equal_dist(out, d.delta_dist(1)) is Verdict.EQUAL

    def test_smooth_pair(self):
        f = d.smooth_dist(d.X)
        g = d.smooth_dist(d.exp_of(d.X))
        assert d.equal_dist(d.hormander(f, g),
                            d.smooth_mul(d.X, g)) is Verdict.EQUAL

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            d.hormander(DELTA, H)

    def test_agrees_with_star_when_disjoint(self):
        rng = random.Random(32)
        neg = [w for w in LOCS if w <= 0]
        pos = [w for w in LOCS if w > 0]
        for _ in range(60):
            bf = sorted(rng.sample(neg, rng.randint(1, 2)))
            bg = sorted(rng.sample(pos, rng.randint(1, 2)))
            F = _assemble(bf, [random_poly(rng) for _ in range(len(bf) + 1)],
                          [d.DeltaAtom(rng.choice(bf), rng.randint(0, 2),
                                       CR(rng.randint(1, 4)))])
            G = _assemble(bg, [random_poly(rng) for _ in range(len(bg) + 1)],
                          [d.DeltaAtom(rng.choice(bg), rng.randint(0, 2),
                                       CR(rng.randint(1, 4)))])
            assert d.equal_dist(d.star(F, G),
                                d.hormander(F, G)) is Verdict.EQUAL
            assert d.equal_dist(d.star(G, F),
                                d.hormander(G, F)) is Verdict.EQUAL


# ---------------------------------------------------------------------------
# the laws on huge, tiny and nearly equal locations

_EPS = Fraction(1, 10 ** 30)
_location = st.one_of(
    st.integers(-2, 2).map(Fraction),
    st.builds(lambda s, n: s * 10 ** 30 + n, st.sampled_from([1, -1]),
              st.integers(-2, 2)).map(Fraction),
    st.integers(-3, 3).map(lambda n: n * _EPS),
    st.builds(lambda p, q, n: Fraction(p, q) + n * _EPS,
              st.integers(-7, 7), st.integers(1, 5), st.integers(-1, 1)))
_scalar = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))


def _as_kind(w: Fraction, kind: str):
    """w as an int (when it is one), a Fraction or a Rat."""
    if kind == "int" and w.denominator == 1:
        return int(w)
    return Rat(w) if kind == "Rat" else w


@st.composite
def _dists(draw, pool, n):
    """n distributions with polynomial pieces, whose breakpoints and atoms
    sit on the locations in pool, each passed as an int, Fraction or Rat."""
    out = []
    for _ in range(n):
        def loc():
            return _as_kind(draw(st.sampled_from(pool)), draw(
                st.sampled_from(["int", "Fraction", "Rat"])))
        bks = sorted({loc() for _ in range(draw(st.integers(0, 3)))})
        pieces = [d.sum_of(*(d.product_of(d.const(c), d.power_of(d.X, i))
                             for i, c in enumerate(draw(
                                 st.lists(_scalar, max_size=3)))))
                  for _ in range(len(bks) + 1)]
        atoms = [d.delta_dist(loc(), draw(st.integers(0, 2)),
                              d.ComplexRational(draw(_scalar),
                                                draw(_scalar)))
                 for _ in range(draw(st.integers(0, 2)))]
        out.append(d.add(d.make_piecewise(bks, pieces), *atoms))
    return out


_triples = st.lists(_location, min_size=1, max_size=4, unique=True).flatmap(
    lambda pool: _dists(pool, 3))


def _equal(A, B):
    for w in list(A.breakpoints) + [a.w for a in A.all_atoms]:
        assert type(w) is Rat
    return d.equal_dist(A, B) is Verdict.EQUAL


class TestLawProperties:
    @settings(max_examples=60, deadline=None)
    @given(_triples)
    def test_associative(self, fgj):
        F, G, J = fgj
        assert _equal(d.star(d.star(F, G), J), d.star(F, d.star(G, J)))

    @settings(max_examples=60, deadline=None)
    @given(_triples)
    def test_bracket_antisymmetric(self, fgj):
        F, G, _ = fgj
        assert _equal(d.bracket(F, G), d.scale(-1, d.bracket(G, F)))

    @settings(max_examples=60, deadline=None)
    @given(_triples)
    def test_distributive_over_add(self, fgj):
        F, G, J = fgj
        assert _equal(d.star(F, d.add(G, J)),
                      d.add(d.star(F, G), d.star(F, J)))
        assert _equal(d.star(d.add(F, G), J),
                      d.add(d.star(F, J), d.star(G, J)))
