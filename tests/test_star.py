"""One-sided products, variants, bracket, and the disjoint-support product;
the algebra laws also as Hypothesis properties on huge, tiny and nearly
equal breakpoints."""

import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import distalg as d
from distalg import Verdict, VariantTag, dist as dist_mod, expr as expr_mod
from distalg.dist import _assemble
from distalg.errors import OverlapError
from distalg.scalars import Rat

from conftest import (LOCS, law_dists, law_poly, random_corpus, random_dist,
                      random_poly, wide_location)

# the module; the package's attribute `star` is the function
star_mod = importlib.import_module("distalg.star")


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

_triples = st.lists(wide_location, min_size=1, max_size=4,
                    unique=True).flatmap(lambda pool: law_dists(pool, 3))


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


# ---------------------------------------------------------------------------
# bracket against its defining formula

_TREES = [d.parse_smooth_expr(t) for t in (
    "exp(x)", "sin(x)", "cos(x)", "exp(-x)", "sin(x^2)", "1/(x-3)",
    "x/(x^2+1)", "1/x", "exp(x)*sin(x)", "2/3*x^2 + exp(-x) - 3*x",
    "(1/3-i)*(x+2)/(x-3) + 5*x^2")]
_tree_piece = st.one_of(
    law_poly,
    st.sampled_from(_TREES),
    st.builds(d.product_of, law_poly, st.sampled_from(_TREES)),
    st.builds(d.sum_of, law_poly, st.sampled_from(_TREES)))


@st.composite
def _tree_pair(draw):
    """F and G with tree pieces on huge, tiny, nearly equal or grid
    locations; each is differentiated half the time, so that the jumps of
    its exp, sin and cos pieces become inexact atoms."""
    pool = draw(st.lists(st.one_of(wide_location, st.sampled_from(LOCS)),
                         min_size=1, max_size=4, unique=True))
    out = []
    for F in draw(law_dists(pool, 2, piece=_tree_piece)):
        if draw(st.booleans()):
            try:
                F = d.differentiate(F)
            except d.DistAlgError:
                pass
        out.append(F)
    return out


_conftest_pair = st.integers(0, 2 ** 32).map(random.Random).map(
    lambda rng: [random_dist(rng), random_dist(rng)])


def _bracket_reference(F, G):
    """star(F, G) - star(G, F) with its regular part written as 0.  The
    difference can leave a piece as a tree that is zero without being the
    constant 0, such as -2*x^2 + 2*x^2 (``sum_of`` keeps x^2 as a Poly and
    as a power apart); such a piece must be proven zero, and a breakpoint
    that carries no atom must sit between two of them."""
    R = d.sub(d.star(F, G), d.star(G, F))
    bks = R.breakpoints
    for i, p in enumerate(R.pieces):
        lo = bks[i - 1] if i else None
        hi = bks[i] if i < len(bks) else None
        assert d.expr_equal(p, d.ZERO, (lo, hi)) is Verdict.EQUAL
    locs = tuple(w for w in bks if any(a.w == w for a in R.all_atoms))
    return d.GenDist(d.PiecewiseSmooth(locs, (d.ZERO,) * (len(locs) + 1)),
                     R.all_atoms)


def _outputs(op, F, G):
    """repr, text, LaTeX and JSON of op(F, G), or its error's type and
    message."""
    try:
        B = op(F, G)
    except d.DistAlgError as e:
        return type(e), str(e)
    return (repr(B),) + tuple(d.format_dist(B, m)
                              for m in ("text", "latex", "json"))


class TestBracketFormula:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_conftest_pair, _tree_pair()))
    def test_bracket_is_the_difference_of_the_two_products(self, fg):
        F, G = fg
        for A, B in ((F, G), (G, F)):
            assert _outputs(d.bracket, A, B) == _outputs(_bracket_reference,
                                                         A, B)

    def test_a_difference_left_as_a_tree_reads_zero(self):
        """At this pair the two products' pieces hold x^2 in a sum with
        exp(-x), times 2 and times -2; their difference has regular part 0
        like the bracket, and its atom, whose coefficient -2*exp(1) is
        inexact, is the bracket's."""
        F = d.parse_dist("(2/3*x^2 + exp(-x) - 3*x)*H(x+1)")
        G = d.parse_dist("2*delta(x+1) - 3*H(x+1)")
        atom = "(-7188812915856991/562949953421312)*delta(x+1)"
        diff = d.sub(d.star(F, G), d.star(G, F))
        assert d.format_dist(diff) == atom
        assert d.format_dist(d.bracket(F, G)) == atom
        assert _outputs(d.bracket, F, G) == _outputs(_bracket_reference, F, G)

    def test_builds_no_piece_product_and_assembles_once(self, monkeypatch):
        """On 30 acceptance triples, each pair in both orders, a bracket
        multiplies, adds and compares no pieces, and assembles once."""
        calls = []

        def counted(name, f):
            def wrapper(*args, **kw):
                calls.append(name)
                return f(*args, **kw)
            return wrapper

        for mod in (expr_mod, dist_mod, star_mod):
            for name in ("product_of", "sum_of", "expr_equal", "_assemble"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name,
                                        counted(name, getattr(mod, name)))
        fs, gs, js = (random_corpus(seed, 30) for seed in (11, 12, 13))
        for F, G, J in zip(fs, gs, js):
            for A, B in ((F, G), (G, F), (G, J), (J, G), (F, J), (J, F)):
                calls.clear()
                d.bracket(A, B)
                assert calls == ["_assemble"]
