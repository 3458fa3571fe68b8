"""Canonical form, linear structure, and distributional calculus."""

import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import distalg as d
import distalg.dist as dist_mod
import distalg.expr as expr_mod
import distalg.scalars as scalars_mod
from distalg import Verdict
from distalg.dist import _assemble
from distalg.errors import DomainError, ShapeError, UnsupportedPiece
from distalg.scalars import cr_of_ints

import atom_reference
import dist_reference
from conftest import (law_dists, random_corpus, random_dist, random_poly,
                      wide_location)


def CR(*a):
    if len(a) == 1:
        return d.ComplexRational.of(a[0])
    return d.ComplexRational(Fraction(a[0]), Fraction(a[1]))


class TestCanonicalForm:
    def test_heaviside_shape(self):
        H = d.make_piecewise([0], [0, 1])
        assert H.breakpoints == (Fraction(0),)
        assert H.pieces == (d.ZERO, d.ONE)
        assert H.atoms == ()

    def test_equal_pieces_merge(self):
        F = d.make_piecewise([0], [d.X, d.X])
        assert F.breakpoints == ()
        assert F.pieces == (d.X,)

    def test_indicator(self):
        chi = d.make_piecewise([0, 1], [0, 1, 0])
        assert chi.breakpoints == (Fraction(0), Fraction(1))
        assert d.equal_dist(chi, d.indicator(0, 1)) is Verdict.EQUAL

    def test_atom_location_padding(self):
        F = _assemble((), (d.X,), [d.DeltaAtom(Fraction(1), 0, CR(1))])
        assert F.breakpoints == (Fraction(1),)
        assert F.pieces == (d.X, d.X)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            d.make_piecewise([0], [d.ZERO])
        with pytest.raises(ShapeError):
            d.make_piecewise([1, 0], [0, 1, 2])
        with pytest.raises(ShapeError):
            _assemble((), (d.ZERO,), [d.DeltaAtom(Fraction(0), -1, CR(1))])

    def test_zero_coefficient_atoms_drop(self):
        F = _assemble((), (d.ZERO,), [d.DeltaAtom(Fraction(0), 0, CR(1)),
                                      d.DeltaAtom(Fraction(0), 0, CR(-1))])
        assert d.is_zero_dist(F)

    def test_normalization_idempotent(self):
        rng = random.Random(12)
        for _ in range(40):
            F = random_dist(rng)
            G = d.normalize_dist(F)
            assert G.breakpoints == F.breakpoints
            assert G.pieces == F.pieces
            assert G.atoms == F.atoms


class TestLinearOps:
    def test_add_heavisides(self):
        S = d.add(d.heaviside(0), d.heaviside(0))
        assert S.breakpoints == (Fraction(0),)
        assert d.poly_normal_form(S.pieces[1]) == (CR(2),)

    def test_delta_cancellation(self):
        Z = d.add(d.delta_dist(0), d.scale(-1, d.delta_dist(0)))
        assert d.is_zero_dist(Z)

    def test_mixed_sum(self):
        F = d.add(d.heaviside(0), d.delta_dist(0))
        assert F.atoms == (d.DeltaAtom(Fraction(0), 0, CR(1)),)
        assert F.pieces == (d.ZERO, d.ONE)

    def test_vector_space_axioms(self):
        rng = random.Random(13)
        for _ in range(25):
            F, G, J = (random_dist(rng) for _ in range(3))
            assert d.equal_dist(d.add(F, G), d.add(G, F)) is Verdict.EQUAL
            assert d.equal_dist(d.add(d.add(F, G), J),
                                d.add(F, d.add(G, J))) is Verdict.EQUAL
            c = Fraction(3, 2)
            assert d.equal_dist(
                d.scale(c, d.add(F, G)),
                d.add(d.scale(c, F), d.scale(c, G))) is Verdict.EQUAL
            assert d.is_zero_dist(d.sub(F, F))


def signed_terms(rng):
    """2 to 8 conftest terms with random signs; about 30 % of them are
    multiplied by exp(x)*H(x-w), which gives exp pieces and inexact atoms."""
    out = []
    for _ in range(rng.randint(2, 8)):
        F = random_dist(rng)
        if rng.random() < 0.3:
            F = d.smooth_mul(d.exp_of(d.X),
                             d.star(d.heaviside(rng.randint(-2, 2)), F))
        out.append((rng.choice("+-"), F))
    return out


def step_delta_text(rng, n):
    """A sum of n signed terms c*H(x-w) and c*delta[k](x-w), one location
    each."""
    terms = []
    for j, w in enumerate(rng.sample(range(-700, 700), n)):
        w = Fraction(w, 7)
        arg = f"x-{w}" if w >= 0 else f"x+{-w}"
        f = f"delta[{rng.randint(0, 2)}]({arg})" if j % 3 == 0 else f"H({arg})"
        c = Fraction(rng.randint(1, 99), rng.randint(1, 9))
        terms.append(f"{rng.choice('+-')}{c}*{f}")
    return " ".join(terms)


class TestNaryAdd:
    def test_agrees_with_the_binary_fold(self):
        rng = random.Random(41)
        for _ in range(60):
            terms = [(sign, d.parse_dist(d.format_dist(F)))
                     for sign, F in signed_terms(rng)]
            sign, fold = terms[0]
            if sign == "-":
                fold = d.scale(-1, fold)
            for sign, F in terms[1:]:
                fold = d.add(fold, F) if sign == "+" else d.sub(fold, F)
            text = " ".join(f"{sign}({d.format_dist(F)})" for sign, F in terms)
            parsed = d.parse_dist(text)
            summed = d.add(*(d.scale(-1, F) if sign == "-" else F
                             for sign, F in terms))
            assert parsed == fold and summed == fold
            assert d.format_dist(parsed) == d.format_dist(fold)
            assert d.format_dist(summed) == d.format_dist(fold)

    def test_no_and_one_operand(self):
        assert d.add() == d.zero_dist()
        for F in random_corpus(43, 20):
            assert d.add(F) == F

    def test_parse_work_is_linear_in_the_terms(self, monkeypatch):
        """Counts the breakpoints that _assemble receives while parsing 50
        and 200 terms.  A left fold of binary sums re-assembles the growing
        partial sum, about 16 times the work for 4 times the terms."""
        from distalg import dist
        assemble = dist._assemble
        received = [0]

        def counting_assemble(breakpoints, *args, **kw):
            received[0] += len(breakpoints)
            return assemble(breakpoints, *args, **kw)

        monkeypatch.setattr(dist, "_assemble", counting_assemble)
        work = {}
        for n in (50, 200):
            received[0] = 0
            d.parse_dist(step_delta_text(random.Random(n), n))
            work[n] = received[0]
        assert work[200] <= 5 * work[50]


class TestSmoothTimesAtom:
    def test_constant_is_identity(self):
        out = d.smooth_times_atom(d.ONE, d.DeltaAtom(Fraction(0), 1, CR(1)))
        assert out == [d.DeltaAtom(Fraction(0), 1, CR(1))]

    def test_x_times_delta_prime(self):
        out = d.smooth_times_atom(d.X, d.DeltaAtom(Fraction(0), 1, CR(1)))
        assert out == [d.DeltaAtom(Fraction(0), 0, CR(-1))]

    def test_x_squared_times_delta_vanishes(self):
        out = d.smooth_times_atom(d.power_of(d.X, 2),
                                  d.DeltaAtom(Fraction(0), 0, CR(1)))
        assert out == []

    def test_inexact_fallback(self):
        out = d.smooth_times_atom(d.exp_of(d.X),
                                  d.DeltaAtom(Fraction(1), 0, CR(1)))
        assert len(out) == 1
        a = out[0]
        assert isinstance(a, d.InexactAtom)
        assert abs(a.coeff - 2.718281828459045) < 1e-12

    def test_overflowing_value_names_the_overflow(self):
        with pytest.raises(DomainError, match="overflows a float at 1000"):
            d.parse_dist("exp(x)*delta(x-1000)")
        with pytest.raises(DomainError, match="overflows a float at 1000"):
            d.smooth_times_atom(d.exp_of(d.X),
                                d.DeltaAtom(Fraction(1000), 1, CR(1)))

    def test_action_contract(self):
        # <g*atom, t> must equal <atom, g*t>; checked through the quadrature
        rng = random.Random(14)
        t = d.make_bump(-3, 3)
        for _ in range(20):
            g = random_poly(rng)
            a = d.DeltaAtom(Fraction(rng.randint(-2, 2)), rng.randint(0, 2),
                            CR(rng.randint(-3, 3)))
            expanded = _assemble((), (d.ZERO,), d.smooth_times_atom(g, a))
            lhs = d.action(expanded, t)
            gF = d.smooth_mul(g, _assemble((), (d.ZERO,), [a]))
            rhs = d.action(gF, t)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


def _outcome(g, a):
    """The atom list of g times a, or the error it ends in."""
    try:
        return d.smooth_times_atom(g, a)
    except d.DistAlgError as e:
        return type(e), str(e)


def _tree_route(g, a):
    """smooth_times_atom with the Taylor values switched off, so every
    value comes from diff_expr and eval_exact."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist_mod, "leaf_kernel", lambda g: None)
        return _outcome(g, a)


def _poly_of(cs):
    return d.expr_from_poly([d.ComplexRational(re, im) for re, im in cs])


_small = st.fractions(min_value=-9, max_value=9, max_denominator=7)
_coeffs = st.lists(st.tuples(_small, st.one_of(st.just(Fraction(0)), _small)),
                   max_size=6)
_pieces = st.one_of(
    st.builds(_poly_of, _coeffs),
    st.builds(lambda p, q: d.product_of(_poly_of(p), _poly_of(q)),
              _coeffs, _coeffs),
    st.builds(lambda p, n: d.power_of(_poly_of(p), n), _coeffs,
              st.integers(2, 3)),
    st.builds(lambda p, q: d.sum_of(_poly_of(p), d.product_of(d.X, _poly_of(q))),
              _coeffs, _coeffs))
_ints = st.one_of(st.integers(-9, 9), st.integers(-10 ** 40, 10 ** 40))
_locs = st.builds(Fraction, _ints,
                  st.one_of(st.integers(1, 9), st.integers(1, 10 ** 40)))


LEAVES = {d.Const, d.Var, d.Poly}


def exact_walk(monkeypatch):
    """The classes of the nodes that exact evaluation meets from now on, by
    a spy on the walker under the exact value's rules."""
    met, interpret = [], expr_mod._interpret

    def spy(e, rules, arg=None, memo=None):
        if rules is expr_mod._EXACT:
            met.append(e.__class__)
        return interpret(e, rules, arg, memo)

    monkeypatch.setattr(expr_mod, "_interpret", spy)
    return met


class TestTaylorRoute:
    """Plain polynomial pieces read g^(j)(w) from their kernel's Taylor
    values; every other piece walks derivative trees.  Both must give the
    same atoms."""

    @settings(max_examples=200, deadline=None)
    @given(_pieces, _locs, st.integers(0, 6),
           st.tuples(_small, _small))
    def test_exact_atoms_agree(self, g, w, k, c):
        a = d.DeltaAtom(w, k, d.ComplexRational(*c))
        fast, tree = _outcome(g, a), _tree_route(g, a)
        assert dist_mod.leaf_kernel(g) is not None
        assert fast == tree and repr(fast) == repr(tree)

    @settings(max_examples=100, deadline=None)
    @given(_pieces, _locs, st.integers(0, 6),
           st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                              allow_infinity=False))
    def test_inexact_atoms_agree_bit_for_bit(self, g, w, k, c):
        a = d.InexactAtom(w, k, c)
        fast = _outcome(g, a)
        # repr of a float is exact, and tells -0.0 from 0.0
        assert repr(fast) == repr(_tree_route(g, a))

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_zero_constant_and_order_beyond_degree(self, k):
        w = Fraction(-3, 7)
        for cs in ([], [(Fraction(2), Fraction(-1))],
                   [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1, 2))]):
            g = _poly_of(cs)
            vals = [math.factorial(j) * CR(Fraction(r, s), Fraction(i, s))
                    for j, (r, i, s) in enumerate(
                        dist_mod._taylor_values(g.k, w, k))]
            vals += [CR(0)] * (k + 1 - len(vals))
            assert vals == [d.eval_exact(d.diff_n(g, j), w)
                            for j in range(k + 1)]
            assert all(v.is_zero for v in vals[len(cs):])
            a = d.DeltaAtom(w, k, CR(1, 1))
            assert _outcome(g, a) == _tree_route(g, a)

    def test_exactly_dividing_quotient_keeps_its_pole(self):
        q = d.quotient_of(d.expr_from_poly([-1, 0, 1]),
                          d.expr_from_poly([-1, 1]))
        assert dist_mod.leaf_kernel(q) is None
        with pytest.raises(DomainError):
            d.smooth_times_atom(q, d.DeltaAtom(Fraction(1), 1, CR(1)))
        # away from the pole it expands like x + 1
        a = d.DeltaAtom(Fraction(2), 1, CR(1))
        assert d.smooth_times_atom(q, a) == d.smooth_times_atom(
            d.expr_from_poly([1, 1]), a)

    def test_exp_piece_takes_the_tree_route(self):
        g = d.product_of(d.X, d.exp_of(d.X))
        assert dist_mod.leaf_kernel(g) is None

    def test_polynomial_jumps_walk_no_tree(self, monkeypatch):
        met = exact_walk(monkeypatch)
        D = d.differentiate(d.make_piecewise(
            [Fraction(1, 3)], [d.X, d.expr_from_poly([2, 0, CR(0, 1)])]))
        assert met and set(met) <= LEAVES
        assert D.atoms[0] == d.DeltaAtom(Fraction(1, 3), 0,
                                         CR(Fraction(5, 3), Fraction(1, 9)))


_cfrac = st.one_of(st.just(Fraction(0)), _small,
                  st.fractions(max_denominator=10 ** 12))
_leaves = st.one_of(
    st.just(d.X),
    st.builds(_poly_of, st.lists(st.tuples(_cfrac, _cfrac), max_size=9)))
_atom_locs = st.one_of(
    st.just(Fraction(0)), wide_location, _locs,
    st.builds(lambda n: Fraction(1, 10 ** n), st.integers(20, 60)),
    st.builds(lambda n: -Fraction(10 ** n, 3), st.integers(20, 60)))


class TestAtomExpansionInIntegers:
    """A polynomial leaf times an exact atom is reduced once per emitted
    atom; the atoms are those of the route that reduced each value and
    each product (``atom_reference``)."""

    @settings(max_examples=300, deadline=None)
    @given(_leaves, _atom_locs, st.integers(0, 5), st.tuples(_cfrac, _cfrac))
    def test_exact_atoms_match_the_reference(self, g, w, k, c):
        assert isinstance(g, (d.Const, d.Var, d.Poly))
        a = d.DeltaAtom(w, k, d.ComplexRational(*c))
        got = d.smooth_times_atom(g, a)
        want = atom_reference.smooth_times_atom(g, a)
        assert got == want and repr(got) == repr(want)
        assert all(not b.coeff.is_zero for b in got)

    @settings(max_examples=200, deadline=None)
    @given(_leaves, _atom_locs, st.integers(0, 5),
           st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                              allow_infinity=False))
    def test_inexact_atoms_match_the_reference_bit_for_bit(self, g, w, k, c):
        a = d.InexactAtom(w, k, c)
        try:
            want = atom_reference.smooth_times_atom(g, a)
        except d.DistAlgError as e:
            with pytest.raises(type(e), match="^" + re.escape(str(e)) + "$"):
                d.smooth_times_atom(g, a)
            return
        # repr of a float is exact, and tells -0.0 from 0.0
        assert repr(d.smooth_times_atom(g, a)) == repr(want)

    @pytest.mark.parametrize("k", [0, 3])
    def test_zero_results_drop(self, k):
        w = Fraction(-5, 2)
        zero = d.ComplexRational(0)
        for g in (d.ZERO, d.const(3), d.X, d.expr_from_poly([1, 2, 3])):
            assert d.smooth_times_atom(g, d.DeltaAtom(w, k, zero)) == []
        assert d.smooth_times_atom(d.ZERO, d.DeltaAtom(w, k, CR(2))) == []
        # (x + 5/2)^2 vanishes to order 2 at -5/2: only j = 2 survives
        sq = d.expr_from_poly([Fraction(25, 4), 5, 1])
        assert d.smooth_times_atom(sq, d.DeltaAtom(w, 3, CR(1))) == [
            d.DeltaAtom(w, 1, CR(6))]

    def test_the_first_coefficient_of_a_key_is_kept(self):
        w = Fraction(1, 3)
        z = complex(-1.5, -0.0)
        c = CR(2, -1)
        (a, b) = dist_mod._merge_atoms([d.InexactAtom(w, 0, z),
                                        d.DeltaAtom(w, 1, c)])  # exact first
        assert a.coeff is c
        # an inexact first value is 0j + z, as a sum from 0j made it
        assert repr(b.coeff) == repr(0j + z) == "(-1.5+0j)"


def test_one_reduction_per_expanded_atom(monkeypatch):
    """On acceptance 02's triples each atom that smooth_times_atom returns
    costs one cr_of_ints, and an atom that drops costs none."""
    reductions = []

    def counted(*args):
        reductions.append(args)
        return cr_of_ints(*args)

    star_mod = sys.modules["distalg.star"]
    for mod in (dist_mod, scalars_mod):
        monkeypatch.setattr(mod, "cr_of_ints", counted)
    expansions = [0, 0, 0]  # calls, atoms, reductions inside

    def expand(g, a):
        before = len(reductions)
        out = dist_mod.smooth_times_atom(g, a)
        expansions[0] += 1
        expansions[1] += len(out)
        expansions[2] += len(reductions) - before
        return out

    monkeypatch.setattr(star_mod, "smooth_times_atom", expand)
    fs, gs, js = (random_corpus(seed, 500) for seed in (11, 12, 13))
    for F, G, J in zip(fs, gs, js):
        d.star(d.star(F, G), J)
        d.star(F, d.star(G, J))
    assert expansions[0] > 1000
    assert expansions[2] == expansions[1]


def test_star_on_acceptance_triples_walks_no_tree(monkeypatch):
    """On the polynomial triples of acceptance 02, star never falls back to
    differentiating and evaluating trees, and differentiate evaluates no
    tree for a jump."""
    calls = []

    def counted(f):
        def wrapper(*args):
            calls.append(f.__name__)
            return f(*args)
        return wrapper

    monkeypatch.setattr(dist_mod, "diff_expr", counted(dist_mod.diff_expr))
    met = exact_walk(monkeypatch)
    fs, gs, js = (random_corpus(seed, 100) for seed in (11, 12, 13))
    for F, G, J in zip(fs, gs, js):
        d.star(d.star(F, G), J)
        d.star(F, d.star(G, J))
    assert calls == [] and met == []
    for F in fs:
        d.differentiate(F)
    assert met and set(met) <= LEAVES


def test_assembled_results_skip_the_shape_checks(monkeypatch):
    """_assemble and align fill the slots of shapes valid by construction,
    so on acceptance 02's triples neither PiecewiseSmooth's shape check nor
    GenDist's atom-location check runs; a value built by hand is checked."""
    fs, gs, js = (random_corpus(seed, 500) for seed in (11, 12, 13))
    checks = []
    for cls in (d.PiecewiseSmooth, d.GenDist):
        def counted(self, check=cls.__post_init__):
            checks.append(type(self).__name__)
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    for F, G, J in zip(fs, gs, js):
        assert d.equal_dist(d.star(d.star(F, G), J),
                            d.star(F, d.star(G, J))) is Verdict.EQUAL
        d.bracket(F, G)
    assert checks == []
    with pytest.raises(ShapeError):
        d.GenDist(d.PiecewiseSmooth((), (d.ZERO,)),
                  (d.DeltaAtom(Fraction(1), 0, CR(1)),))
    assert checks == ["PiecewiseSmooth", "GenDist"]


class TestDifferentiate:
    def test_heaviside_to_delta(self):
        D = d.differentiate(d.heaviside(0))
        assert d.is_zero_dist(d.sub(D, d.delta_dist(0)))

    def test_ramp_to_heaviside(self):
        ramp = d.make_piecewise([0], [d.ZERO, d.X])
        assert d.equal_dist(d.differentiate(ramp),
                            d.heaviside(0)) is Verdict.EQUAL

    def test_delta_order_increments(self):
        D = d.differentiate(d.delta_dist(0))
        assert D.atoms == (d.DeltaAtom(Fraction(0), 1, CR(1)),)

    def test_jump_with_nonpoly_exact_at_zero(self):
        # left piece 0, right piece exp(x): jump exp(0) = 1 stays exact
        F = d.make_piecewise([0], [d.ZERO, d.exp_of(d.X)])
        D = d.differentiate(F)
        assert D.atoms == (d.DeltaAtom(Fraction(0), 0, CR(1)),)
        assert not D.inexact_atoms

    def test_jump_with_nonpoly_inexact_elsewhere(self):
        F = d.make_piecewise([1], [d.ZERO, d.exp_of(d.X)])
        D = d.differentiate(F)
        assert not D.atoms
        assert len(D.inexact_atoms) == 1
        assert abs(D.inexact_atoms[0].coeff - 2.718281828459045) < 1e-12


class TestAntiderivative:
    def test_delta_to_heaviside(self):
        assert d.equal_dist(d.antiderivative(d.delta_dist(0)),
                            d.heaviside(0)) is Verdict.EQUAL

    def test_delta_prime_to_delta(self):
        A = d.antiderivative(d.delta_dist(0, 1))
        assert d.equal_dist(A, d.delta_dist(0)) is Verdict.EQUAL

    def test_heaviside_to_ramp(self):
        A = d.antiderivative(d.heaviside(0))
        ramp = d.make_piecewise([0], [d.ZERO, d.X])
        assert d.equal_dist(A, ramp) is Verdict.EQUAL

    def test_leftmost_constant_is_zero(self):
        A = d.antiderivative(d.heaviside(-1))
        assert d.poly_normal_form(A.pieces[0]) == ()

    def test_regular_part_continuous(self):
        rng = random.Random(15)
        for _ in range(30):
            F = random_dist(rng, max_atoms=1)
            A = d.antiderivative(F)
            for j, w in enumerate(A.breakpoints):
                atom0 = [a for a in F.atoms if a.w == w and a.k == 0]
                if atom0:
                    continue  # order-0 atoms create genuine steps
                left = d.eval_exact(A.pieces[j], w)
                right = d.eval_exact(A.pieces[j + 1], w)
                assert left == right

    def test_round_trip(self):
        rng = random.Random(16)
        for _ in range(60):
            F = random_dist(rng)
            assert d.equal_dist(d.differentiate(d.antiderivative(F)),
                                F) is Verdict.EQUAL

    def test_nonpoly_piece_rejected(self):
        F = d.make_piecewise([0], [d.ZERO, d.exp_of(d.X)])
        with pytest.raises(UnsupportedPiece):
            d.antiderivative(F)

    def test_inexact_step_rejected(self):
        F = _assemble((), (d.ZERO,),
                      [d.InexactAtom(Fraction(0), 0, 1.5)])
        with pytest.raises(DomainError):
            d.antiderivative(F)


class TestAlignTranslate:
    def test_align_union(self):
        Fa, Ga = d.align(d.heaviside(0), d.heaviside(1))
        assert Fa.breakpoints == Ga.breakpoints == (Fraction(0), Fraction(1))
        assert len(Fa.pieces) == 3

    def test_align_inserts_unnormalized(self):
        Fa, Ga = d.align(d.delta_dist(0), d.smooth_dist(d.X))
        assert Ga.breakpoints == (Fraction(0),)
        assert Ga.pieces == (d.X, d.X)

    def test_translate_shifts_features(self):
        T = d.translate(d.heaviside(0), Fraction(1))
        assert T.breakpoints == (Fraction(-1),)
        T2 = d.translate(d.delta_dist(0), Fraction(1, 2))
        assert T2.atoms[0].w == Fraction(-1, 2)

    def test_translate_inverse(self):
        rng = random.Random(17)
        for _ in range(20):
            F = random_dist(rng)
            back = d.translate(d.translate(F, Fraction(1, 3)), Fraction(-1, 3))
            assert d.equal_dist(F, back) is Verdict.EQUAL


class TestSingularSupport:
    def test_heaviside(self):
        assert d.singular_support(d.heaviside(0)) == [Fraction(0)]

    def test_smooth_is_empty(self):
        assert d.singular_support(d.smooth_dist(d.power_of(d.X, 2))) == []

    def test_mixed(self):
        F = d.add(d.heaviside(0), d.delta_dist(1))
        assert d.singular_support(F) == [Fraction(0), Fraction(1)]


class TestEqualDist:
    def test_delta_vs_derivative(self):
        assert d.equal_dist(d.delta_dist(0),
                            d.delta_dist(0, 1)) is Verdict.UNEQUAL

    def test_pythagorean_pieces_unknown(self):
        trig = d.smooth_dist(d.sum_of(d.power_of(d.sin_of(d.X), 2),
                                      d.power_of(d.cos_of(d.X), 2)))
        assert d.equal_dist(trig, d.smooth_dist(d.ONE)) is Verdict.UNKNOWN

    def test_inexact_atoms_compare_within_tolerance(self):
        F = _assemble((), (d.ZERO,), [d.InexactAtom(Fraction(0), 0, 1.0)])
        G = _assemble((), (d.ZERO,),
                      [d.InexactAtom(Fraction(0), 0, 1.0 + 1e-12)])
        assert d.equal_dist(F, G) is Verdict.UNKNOWN
        H = _assemble((), (d.ZERO,), [d.InexactAtom(Fraction(0), 0, 2.0)])
        assert d.equal_dist(F, H) is Verdict.UNEQUAL


# ---------------------------------------------------------------------------
# every GenDist the package returns is canonical; a hand-built one is checked
# for its shape where it is made


def _hand_built(breaks, pieces, atoms=()):
    return d.GenDist(d.PiecewiseSmooth(tuple(breaks), tuple(pieces)),
                     tuple(atoms))


class TestShapeCheckedWhereMade:
    def test_an_atom_off_the_breakpoints_never_reaches_star(self):
        with pytest.raises(ShapeError, match="not a breakpoint"):
            d.star(_hand_built((), (d.ONE,),
                               [d.DeltaAtom(Fraction(1), 0, CR(1))]),
                   d.heaviside(0))

    @pytest.mark.parametrize("breaks, pieces, atoms", [
        ((1, 0), (d.ZERO,) * 3, ()),
        ((0, 0), (d.ZERO,) * 3, ()),
        ((0,), (d.ZERO,), ()),
        ((0,), (d.ZERO,) * 3, ()),
        ((0,), (d.ZERO,) * 2, [d.DeltaAtom(Fraction(0), -1, CR(1))]),
        ((0,), (d.ZERO,) * 2, [d.InexactAtom(Fraction(1), 0, 1.0)]),
    ], ids=["descending", "repeated", "too-few-pieces", "too-many-pieces",
            "negative-order", "inexact-off-breakpoint"])
    def test_shape_errors(self, breaks, pieces, atoms):
        with pytest.raises(ShapeError):
            _hand_built([Fraction(b) for b in breaks], pieces, atoms)


def _non_canonical(rng, n):
    """(value, its normal form) for shape-valid values that ``_assemble``
    would change: ``align`` outputs, whose breakpoints include the other
    factor's, and the same with each atom split into two at its (w, k)
    and a cancelling pair added at a breakpoint."""
    out = []
    for _ in range(n):
        F = random_dist(rng)
        Fa, _ = d.align(F, random_dist(rng, max_breaks=4))
        split = [b for a in Fa.atoms
                 for b in (d.DeltaAtom(a.w, a.k, a.coeff * 3),
                           d.DeltaAtom(a.w, a.k, a.coeff * -2))]
        if Fa.breakpoints:
            w = rng.choice(Fa.breakpoints)
            split += [d.DeltaAtom(w, 1, CR(2)), d.DeltaAtom(w, 1, CR(-2))]
        S = d.GenDist(Fa.regular, tuple(split))
        out += [(Fa, F), (S, d.normalize_dist(S))]
    return out


def _result(f, *args):
    """f(*args), or the error it ends in."""
    try:
        return f(*args)
    except d.DistAlgError as e:
        return type(e), str(e)


class TestCanonicalByConstruction:
    def test_results_are_their_own_normal_form(self):
        corpus = random_corpus(41, 40)
        ceq = d.confine_interval(d.make_ode([d.ONE, d.X, d.ONE]), -1, 2)
        g = d.exp_of(d.neg(d.X))
        for F, G in zip(corpus, corpus[1:]):
            results = [d.star(F, G), d.bracket(F, G), d.add(F, G),
                       d.scale(CR(2, -1), F), d.smooth_mul(g, F),
                       d.add(d.smooth_mul(g, F), d.smooth_mul(g, G)),
                       d.differentiate(F), d.antiderivative(F),
                       d.translate(F, Fraction(1, 3)),
                       d.parse_dist(d.format_dist(F)), d.residual(ceq, F)]
            for R in results:
                assert d.normalize_dist(R) == R

    def test_equal_dist_assembles_nothing(self, monkeypatch):
        corpus = random_corpus(42, 30)
        pairs = [(F, G) for F, G in zip(corpus, corpus[1:])]
        pairs += [(d.star(F, G), d.star(G, F)) for F, G in pairs[:10]]
        pairs += [(F, d.parse_dist(d.format_dist(F))) for F in corpus]
        calls = []
        assemble = dist_mod._assemble

        def counting(*args, **kw):
            calls.append(args)
            return assemble(*args, **kw)

        monkeypatch.setattr(dist_mod, "_assemble", counting)
        verdicts = [d.equal_dist(F, G) for F, G in pairs]
        assert calls == []
        assert Verdict.EQUAL in verdicts and Verdict.UNEQUAL in verdicts

    def test_an_interval_beyond_float_range_is_unknown(self):
        """Sampling needs the interval's ends as floats; where they are
        not, the verdict is Unknown."""
        F, G = (d.make_piecewise([10 ** 400], [d.exp_of(d.X), f(d.X)])
                for f in (d.sin_of, d.cos_of))
        assert d.equal_dist(F, G) is Verdict.UNKNOWN
        assert d.expr_equal(d.sin_of(d.X), d.cos_of(d.X),
                            (Fraction(10 ** 400), None)) is Verdict.UNKNOWN

    def test_hand_built_values_act_as_their_normal_form(self):
        """Unmerged atoms are summed and redundant breakpoints only split
        an interval: equal_dist, hormander, action and star_oracle see a
        hand-built value as its normal form, the floats to round-off."""
        rng = random.Random(43)
        values = _non_canonical(rng, 12)
        assert any(V != N for V, N in values)
        t = d.make_bump(-3, 3)
        for (A, An), (B, Bn) in zip(values, values[1:] + values[:1]):
            assert d.equal_dist(A, An) is Verdict.EQUAL
            assert d.equal_dist(A, B) is d.equal_dist(An, Bn)
            assert _result(d.hormander, A, B) == _result(d.hormander, An, Bn)
            a1, a2 = d.action(A, t), d.action(An, t)
            assert abs(a1 - a2) <= 1e-9 * (1 + abs(a1))
            o1 = _result(d.star_oracle, A, B, t)
            o2 = _result(d.star_oracle, An, Bn, t)
            if isinstance(o1, complex):
                assert abs(o1 - o2) <= 1e-9 * (1 + abs(o1))
            else:
                assert o1 == o2


# ---------------------------------------------------------------------------
# equal_dist answers Equal from structure; dist_reference compares in full


_TREE_TEXTS = ["exp(x)*H(x) + sin(x)*H(-x) + 2*delta(x-1)",
               "x^2/(x+3)*H(x-1) + cos(x)", "x*H(x-1) + cos(x)",
               "(sin(x)^2 + cos(x)^2)*H(x)", "H(x)", "exp(-x)*delta[1](x)",
               "1/(x^2+1)*H(x) - 1/(x^2+1)*H(x-2)"]


def _triples(n):
    """The first n triples of streams 11-13, acceptance 02's for n = 500."""
    return list(zip(*(random_corpus(seed, n) for seed in (11, 12, 13))))


def _law_pairs(triples):
    """The associativity and bracket pairs of an acceptance-02 op on each
    triple, which must be Equal."""
    out = []
    for F, G, J in triples:
        out.append((d.star(d.star(F, G), J), d.star(F, d.star(G, J))))
        out.append((d.bracket(F, G), d.scale(-1, d.bracket(G, F))))
    return out


class TestStructuralEqual:
    def _check(self, pairs):
        got = [d.equal_dist(A, B) for A, B in pairs]
        assert got == [dist_reference.equal_dist(A, B) for A, B in pairs]
        return got

    def test_values_against_themselves_and_their_copies(self):
        rng = random.Random(44)
        corpus = random_corpus(44, 40)
        pairs = [(F, F) for F in corpus]
        pairs += [(F, d.parse_dist(d.format_dist(F))) for F in corpus]
        for V, N in _non_canonical(rng, 12):
            pairs += [(V, V), (V, N), (N, V)]
        assert set(self._check(pairs)) == {Verdict.EQUAL}

    def test_law_pairs_and_unequal_pairs(self):
        fs, gs = random_corpus(11, 100), random_corpus(12, 100)
        pairs = _law_pairs(_triples(100))
        pairs += [(F, G) for F, G in zip(fs, gs)]
        pairs += [(d.star(F, G), d.star(G, F)) for F, G in zip(fs, gs)]
        got = self._check(pairs)
        assert set(got[:200]) == {Verdict.EQUAL}
        assert Verdict.UNEQUAL in got[200:]

    def test_pieces_with_exp_sin_and_quotients(self):
        ts = [d.parse_dist(t) for t in _TREE_TEXTS]
        ts += [d.star(F, G) for F, G in zip(ts, ts[1:])]
        pairs = [(A, B) for A in ts for B in ts]
        pairs += [(A, d.parse_dist(d.format_dist(A))) for A in ts]
        got = self._check(pairs)
        assert {Verdict.EQUAL, Verdict.UNEQUAL, Verdict.UNKNOWN} <= set(got)

    def test_an_inexact_atom_keeps_its_value_unknown(self):
        D = d.differentiate(d.parse_dist("exp(x)*H(x-1)"))
        assert D.inexact_atoms
        assert self._check([(D, D)]) == [Verdict.UNKNOWN]


def test_law_checks_read_the_canonical_form(monkeypatch):
    """On acceptance 02's triples: star's piece products, the bracket and
    its negation never enter _flat; each order-0 exact atom on x or a Poly
    makes one _horner call, and on a constant none; and the two Equal
    checks of each op call neither align nor expr_equal."""
    triples = _triples(500)
    flat, horner, per_atom = [], [], []

    def counted(log, f):
        def wrapper(*args):
            log.append(args)
            return f(*args)
        return wrapper

    def expand(g, a, expand=dist_mod.smooth_times_atom):
        before = len(horner)
        out = expand(g, a)
        if a.k == 0 and isinstance(a, d.DeltaAtom):
            per_atom.append((g.__class__, len(horner) - before))
        return out

    monkeypatch.setattr(expr_mod, "_flat", counted(flat, expr_mod._flat))
    monkeypatch.setattr(dist_mod, "_horner",
                        counted(horner, dist_mod._horner))
    monkeypatch.setattr(sys.modules["distalg.star"], "smooth_times_atom",
                        expand)
    pairs = _law_pairs(triples)
    assert flat == []
    assert {cls for cls, _ in per_atom} == LEAVES
    assert all(n == (cls is not d.Const) for cls, n in per_atom)
    compared = []
    for name in ("align", "expr_equal"):
        monkeypatch.setattr(dist_mod, name,
                            counted(compared, getattr(dist_mod, name)))
    assert all(d.equal_dist(A, B) is Verdict.EQUAL for A, B in pairs)
    assert compared == []


# ---------------------------------------------------------------------------
# the calculus laws and the round trips on huge, tiny and nearly equal
# locations

_pairs = st.lists(wide_location, min_size=1, max_size=4,
                  unique=True).flatmap(lambda pool: law_dists(pool, 2))


def _equal(A, B):
    return d.equal_dist(A, B) is Verdict.EQUAL


class TestLawProperties:
    @settings(max_examples=60, deadline=None)
    @given(_pairs)
    def test_derivative_of_a_sum(self, fg):
        F, G = fg
        assert _equal(d.differentiate(d.add(F, G)),
                      d.add(d.differentiate(F), d.differentiate(G)))

    @settings(max_examples=60, deadline=None)
    @given(_pairs)
    def test_derivative_of_the_antiderivative(self, fg):
        for F in fg:
            assert _equal(d.differentiate(d.antiderivative(F)), F)

    @settings(max_examples=60, deadline=None)
    @given(_pairs)
    def test_text_and_json_round_trips(self, fg):
        for F in fg:
            assert _equal(d.parse_dist(d.format_dist(F)), F)
            assert _equal(d.parse_dist_json(d.format_dist(F, "json")), F)
