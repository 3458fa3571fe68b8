"""Quadrature actions and the translation-limit oracle."""

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

import distalg as d
from distalg import QuadratureConfig, VariantTag
from distalg.errors import DomainError, EpsilonTooLarge, ShapeError
from distalg import weak
from distalg.weak import DEFAULT_CONFIG, bump_values, bump_deriv_values

import weak_reference as ref
from conftest import LOCS, random_corpus, random_dist, random_poly


H = d.heaviside(0)
DELTA = d.delta_dist(0)
T = d.make_bump(-1, 1)


def bump_scalar(t, x):
    return complex(bump_values(t, np.array([float(x)]))[0])


class TestBump:
    def test_support(self):
        assert bump_scalar(T, 0.9) != 0
        assert bump_scalar(T, 1.0) == 0
        assert bump_scalar(T, 1.5) == 0
        assert bump_scalar(T, -2.0) == 0

    def test_peak_value(self):
        assert abs(bump_scalar(T, 0) - math.exp(-1)) < 1e-15

    def test_end_beyond_float_range(self):
        with pytest.raises(DomainError):
            d.make_bump(0, 10 ** 400)
        with pytest.raises(DomainError):
            d.make_bump(-Fraction(10 ** 400), 0)

    def test_amplitude(self):
        t3 = d.make_bump(-1, 1, 3)
        assert abs(bump_scalar(t3, 0) - 3 * math.exp(-1)) < 1e-14

    def test_derivatives_vanish_at_edges(self):
        for k in (1, 2, 3):
            vals = bump_deriv_values(T, k, np.array([-1.0, 1.0, 2.0]))
            assert np.all(vals == 0)

    def test_derivative_matches_finite_difference(self):
        xs = np.array([-0.6, -0.1, 0.4, 0.8])
        h = 1e-6
        fd = (bump_values(T, xs + h) - bump_values(T, xs - h)) / (2 * h)
        sym = bump_deriv_values(T, 1, xs)
        assert np.max(np.abs(fd - sym)) < 1e-7

    def test_bump_derivative_object(self):
        tp = d.bump_derivative(T)
        xs = np.array([-0.3, 0.2, 0.7])
        assert np.max(np.abs(bump_values(tp, xs)
                             - bump_deriv_values(T, 1, xs))) < 1e-13


class TestAction:
    def test_delta_samples_bump(self):
        assert abs(d.action(DELTA, T) - bump_scalar(T, 0)) < 1e-14

    def test_delta_prime_negates_derivative(self):
        want = -bump_deriv_values(T, 1, np.array([0.0]))[0]
        assert abs(d.action(d.delta_dist(0, 1), T) - want) < 1e-14

    def test_atom_outside_support_is_zero(self):
        assert d.action(d.delta_dist(5), T) == 0

    def test_heaviside_matches_adaptive_quadrature(self):
        mine = d.action(H, T)
        ref, _ = quad(lambda x: bump_scalar(T, x).real, 0.0, 1.0,
                      epsabs=1e-14, epsrel=1e-14)
        assert abs(mine - ref) <= 1e-10

    def test_linear_in_distribution(self):
        rng = random.Random(33)
        t = d.make_bump(-3, 3)
        for _ in range(30):
            F, G = random_dist(rng), random_dist(rng)
            aF, aG = d.action(F, t), d.action(G, t)
            aS = d.action(d.add(F, G), t)
            assert abs(aS - aF - aG) <= 1e-10 * (1 + abs(aF) + abs(aG))

    def test_normalization_preserves_action(self):
        rng = random.Random(34)
        t = d.make_bump(-3, 3)
        for _ in range(20):
            F = random_dist(rng)
            Fa, _ = d.align(F, d.heaviside(Fraction(1, 2)))  # denormalized
            a1, a2 = d.action(Fa, t), d.action(d.normalize_dist(Fa), t)
            assert abs(a1 - a2) <= 1e-9 * (1 + abs(a1))

    def test_integration_by_parts(self):
        rng = random.Random(35)
        t = d.make_bump(-3, 3)
        tp = d.bump_derivative(t)
        for _ in range(30):
            F = random_dist(rng)
            lhs = d.action(d.differentiate(F), t)
            rhs = d.action(F, tp)
            assert abs(lhs + rhs) <= 1e-8 * (1 + abs(lhs))


class TestEpsilonProduct:
    def test_delta_heaviside_sees_right_piece(self):
        v = d.epsilon_product_action(DELTA, H, T, Fraction(1, 1000))
        assert abs(v - bump_scalar(T, 0)) < 1e-9

    def test_heaviside_delta_sees_left_piece(self):
        v = d.epsilon_product_action(H, DELTA, T, Fraction(1, 1000))
        assert abs(v) < 1e-12

    def test_smooth_pair_is_shifted_integral(self):
        f = d.smooth_dist(d.X)
        g = d.smooth_dist(d.power_of(d.X, 2))
        eps = Fraction(1, 100)
        v = d.epsilon_product_action(f, g, T, eps)
        ref, _ = quad(lambda x: x * (x + 1 / 100) ** 2 * bump_scalar(T, x).real,
                      -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        assert abs(v - ref) < 1e-10

    def test_translation_must_separate(self):
        F = d.delta_dist(0)
        G = d.delta_dist(Fraction(1, 100))
        with pytest.raises(EpsilonTooLarge):
            d.epsilon_product_action(F, G, T, Fraction(1, 100))

    def test_nonzero_translation_required_on_overlap(self):
        with pytest.raises(EpsilonTooLarge):
            d.epsilon_product_action(DELTA, DELTA, T, 0)


class TestOracle:
    def test_delta_heaviside(self):
        v = d.star_oracle(DELTA, H, T)
        assert abs(v - d.action(DELTA, T)) < 1e-9

    def test_delta_delta(self):
        assert abs(d.star_oracle(DELTA, DELTA, T)) < 1e-12

    def test_heaviside_heaviside(self):
        v = d.star_oracle(H, H, T)
        assert abs(v - d.action(H, T)) < 1e-8

    def test_matches_closed_form_on_random_pairs(self):
        rng = random.Random(36)
        t = d.make_bump(-4, 4)
        for _ in range(15):
            F, G = random_dist(rng), random_dist(rng)
            num = d.star_oracle(F, G, t)
            sym = d.action(d.star(F, G), t)
            assert abs(num - sym) <= 1e-6 * (1 + abs(sym))

    def test_reverse_direction_validates_mirrored_product(self):
        rng = random.Random(37)
        t = d.make_bump(-4, 4)
        for _ in range(10):
            F, G = random_dist(rng), random_dist(rng)
            num = d.star_oracle(F, G, t, direction=-1)
            sym = d.action(d.star_variant(F, G, VariantTag.STAR2), t)
            assert abs(num - sym) <= 1e-6 * (1 + abs(sym))

    def test_last_value_mode(self):
        cfg = QuadratureConfig(extrapolation="last-value")
        v = d.star_oracle(DELTA, H, T, cfg)
        assert abs(v - d.action(DELTA, T)) < 1e-6


def quad_action(text, t):
    """<F, t> of an atom-free F by adaptive quadrature, piece by piece."""
    F = d.parse_dist(text)
    total = 0.0
    cuts = [float(t.a)] + [float(b) for b in F.breakpoints
                           if t.a < b < t.b] + [float(t.b)]
    for lo, hi in zip(cuts, cuts[1:]):
        piece = F.pieces[sum(1 for b in F.breakpoints if b <= lo)]
        f = lambda x: (d.eval_num(piece, x) * bump_scalar(t, x)).real
        total += quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
    return total


POLE_CASES = [
    ("1/(x-1)*H(x)", -1, 2),          # rational root inside a piece
    ("1/(x^2-2)*H(x)", -1, 2),        # irrational root sqrt(2)
    ("1/x*H(x)", -1, 1),              # root at a breakpoint
    ("exp(x)/(x-1/3)*H(x-1/3)", 0, 1),
    ("1/((x-1)*(x+i))", 0, 2),        # complex coefficients, real root
    ("1/(x^5-3*x+1)*H(x)", -1, 1),    # irrational root near 0.34
    ("(x-1)/(x-1)^2*H(x)", -1, 2),    # a factor cancels the pole once
]

NO_POLE_CASES = [
    ("1/(x^2-2)*H(x)", -1, 1),        # sqrt(2) outside the support
    ("1/x*H(x)", 0, 1),               # pole at a support end
    ("1/(x-1)^2*H(x-1)", 1, 3),
    ("1/(x^2+1)", -1, 1),             # no real root
    ("exp(x)/(x-2)*H(x)", -1, 1),
    ("1/((x-1)^3*(x^2-3))*H(x-2)", 0, 3),  # repeated and irrational roots
]


class TestPoles:
    """A quotient pole where a piece is integrated is a DomainError, never a
    number."""

    @pytest.mark.parametrize("text, a, b", POLE_CASES)
    def test_action_refuses_a_pole(self, text, a, b):
        with pytest.raises(DomainError):
            d.action(d.parse_dist(text), d.make_bump(a, b))

    @pytest.mark.parametrize("text, a, b", NO_POLE_CASES)
    def test_action_integrates_where_no_pole_is(self, text, a, b):
        t = d.make_bump(a, b)
        assert d.action(d.parse_dist(text), t).real == pytest.approx(
            quad_action(text, t), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("text, cancelled", [
        ("exp(x)*(x^2-1)/(x-1)*H(x)", "exp(x)*(x+1)*H(x)"),
        ("(x^2-1)/(x-1)*H(x)", "(x+1)*H(x)"),
        ("sin(x)*(x-1)^2/((x-1)*(x-3))*H(x)", "sin(x)*(x-1)/(x-3)*H(x)"),
        ("(x-1/2)/((x-3)*(x-1/2))*H(x)", "1/(x-3)*H(x)"),
    ])
    def test_action_integrates_a_removable_singularity(self, text, cancelled):
        """Polynomial factors of a product cancel its denominators."""
        t = d.make_bump(-1, 2)
        assert d.action(d.parse_dist(text), t) == pytest.approx(
            d.action(d.parse_dist(cancelled), t), rel=1e-12)

    def test_oracle_refuses_a_pole_on_either_side(self):
        P, H1 = d.parse_dist("1/(x-1)*H(x)"), d.parse_dist("H(x)")
        t = d.make_bump(-1, 3)
        for F, G in ((P, H1), (H1, P)):
            with pytest.raises(DomainError):
                d.star_oracle(F, G, t)

    def test_a_negative_power_is_a_pole(self):
        """Power(x-1, -1) is 1/(x-1) built by hand: its base is a pole site
        like a quotient's denominator."""
        P = d.make_piecewise([0], [d.ZERO, d.Power(d.sum_of(d.X, d.const(-1)), -1)])
        t = d.make_bump(-2, 3)
        with pytest.raises(DomainError, match="denominator has a root"):
            d.action(P, t)
        for F, G in ((P, H), (H, P)):
            with pytest.raises(DomainError, match="denominator has a root"):
                d.star_oracle(F, G, t)

    @pytest.mark.parametrize("s, e", [(-2, 0), (-1, 0), (-2, 3), (0, 3),
                                      (1, 2)])
    def test_a_zero_polynomial_denominator_is_refused_everywhere(self, s, e):
        """x + (-1)*x built by hand has the zero polynomial for its pole
        denominator, which vanishes on every segment, also where the end
        terms of the root count cancel."""
        p = d.Power(d.Sum((d.X, d.Product((d.const(-1), d.X)))), -1)
        assert d.expr.pole_denominators(p) == [d.expr._K_ZERO]
        with pytest.raises(DomainError, match="denominator has a root"):
            weak._refuse_pole(p, Fraction(s), Fraction(e),
                              d.make_bump(-2, 3))

    def test_oracle_skips_a_pole_under_a_zero_piece(self):
        F, G = d.heaviside(2), d.parse_dist("1/(x-1)")
        t = d.make_bump(-1, 3)
        assert d.star_oracle(F, G, t) == pytest.approx(
            d.action(d.smooth_mul(G.pieces[0], F), t), rel=1e-6)

    def test_cli_exit_code(self, capsys):
        from distalg.cli import main
        assert main(["action", "1/(x-1)*H(x)", "--bump", "-1,2"]) == 2
        assert main(["action", "1/x*H(x)", "--bump", "0,1"]) == 0


class TestConfigValidation:
    def test_schedule_must_descend(self):
        with pytest.raises(ShapeError):
            QuadratureConfig(eps_schedule=(Fraction(1, 1000), Fraction(1, 100)))

    def test_schedule_must_be_positive(self):
        with pytest.raises(ShapeError):
            QuadratureConfig(eps_schedule=(Fraction(1, 100), Fraction(0)))

    def test_nodes_positive(self):
        with pytest.raises(ShapeError):
            QuadratureConfig(nodes=0)


# ---------------------------------------------------------------------------
# the one-pass evaluation against the per-panel loop

LAST = QuadratureConfig(extrapolation="last-value")
TWO = QuadratureConfig(eps_schedule=(Fraction(1, 100), Fraction(1, 1000)))
ACCEPTANCE_06_BUMPS = [d.make_bump(-4, 4),
                       d.make_bump(Fraction(-7, 2), Fraction(9, 2)),
                       d.make_bump(-5, 3)]


def acceptance_06_cases():
    return [(F, G, t)
            for F, G in zip(random_corpus(101, 50), random_corpus(102, 50))
            for t in ACCEPTANCE_06_BUMPS]


def oracle_test_pairs():
    """TestOracle's random pairs, in both directions."""
    t = d.make_bump(-4, 4)
    out = []
    for seed, n in ((36, 15), (37, 10)):
        rng = random.Random(seed)
        for _ in range(n):
            F, G = random_dist(rng), random_dist(rng)
            out += [(F, G, t), (G, F, t)]
    return out


def derivative_atom_pairs():
    """Pairs whose atoms are all of order 1 or 2, several per side."""
    rng = random.Random(38)
    out = []
    for _ in range(20):
        F, G = (d.add(random_dist(rng, max_atoms=0),
                      *(d.delta_dist(rng.choice(LOCS), rng.randint(1, 2))
                        for _ in range(rng.randint(1, 3))))
                for _ in range(2))
        out.append((F, G, d.make_bump(-3, Fraction(7, 2))))
    return out


def outcome(fn, *args, **kw):
    """fn's value, or the type and message of the DistAlgError it raises."""
    try:
        return fn(*args, **kw)
    except d.DistAlgError as e:
        return type(e), str(e)


class TestOnePass:
    """``weak`` evaluates every panel and atom circle of all eps values in
    one numpy pass; each value is the per-panel loop's, bit for bit."""

    @pytest.mark.parametrize("cases", [acceptance_06_cases, oracle_test_pairs,
                                       derivative_atom_pairs],
                             ids=["acceptance_06", "random_pairs",
                                  "derivative_atoms"])
    def test_equals_the_per_panel_loop(self, cases):
        for F, G, t in cases():
            assert d.action(F, t) == ref.action(F, t)
            for direction in (1, -1):
                for e in DEFAULT_CONFIG.eps_schedule:
                    assert (d.epsilon_product_action(F, G, t, direction * e)
                            == ref.epsilon_product_action(F, G, t,
                                                          direction * e))
                for cfg in (LAST, TWO):
                    assert (d.star_oracle(F, G, t, cfg, direction)
                            == ref.star_oracle(F, G, t, cfg, direction))

    def test_same_errors_as_the_per_panel_loop(self):
        fails = 0
        for text, a, b in POLE_CASES + NO_POLE_CASES:
            F, t = d.parse_dist(text), d.make_bump(a, b)
            got = outcome(d.action, F, t)
            assert got == outcome(ref.action, F, t)
            fails += isinstance(got, tuple)
        P, H1 = d.parse_dist("1/(x-1)*H(x)"), d.parse_dist("H(x)")
        pairs = [(P, H1, d.make_bump(-1, 3)), (H1, P, d.make_bump(-1, 3)),
                 (d.heaviside(2), d.parse_dist("1/(x-1)"), d.make_bump(-1, 3))]
        for F, G, t in pairs:
            got = outcome(d.star_oracle, F, G, t, LAST)
            assert got == outcome(ref.star_oracle, F, G, t, LAST)
            fails += isinstance(got, tuple)
        E = Fraction(1, 100)
        for F, G, eps in ((DELTA, d.delta_dist(E), E), (DELTA, DELTA, 0),
                          (d.delta_dist(E), P, Fraction(-1, 100))):
            got = outcome(d.epsilon_product_action, F, G, T, eps)
            assert got == outcome(ref.epsilon_product_action, F, G, T, eps)
            fails += isinstance(got, tuple)
        assert fails == len(POLE_CASES) + 2 + 3

    def test_one_oracle_call_evaluates_each_factor_once(self, monkeypatch):
        """Each piece is evaluated at most once on the panels and once on
        the atom circles, over every shift and both factors, and the bump
        once on each, through its closed form."""
        F, G = d.parse_dist(KNOWN_F), d.parse_dist(KNOWN_G)
        t = d.make_bump(-5, 3)
        calls, bumps = Counter(), Counter()
        eval_num, closed = weak.eval_num, weak._bump_closed

        def counting(e, x, *args):
            calls[e, np.iscomplexobj(x)] += 1
            return eval_num(e, x, *args)

        def counting_closed(c, k, u):
            bumps[k, np.iscomplexobj(u)] += 1
            return closed(c, k, u)

        monkeypatch.setattr(weak, "eval_num", counting)
        monkeypatch.setattr(weak, "_bump_closed", counting_closed)
        d.star_oracle(F, G, t)
        pieces = (set(d.normalize_dist(F).pieces)
                  | set(d.normalize_dist(G).pieces))
        assert bumps == Counter({(0, False): 1, (0, True): 1})
        assert {on_circle for _, on_circle in calls} == {False, True}
        for (e, on_circle), count in calls.items():
            assert e in pieces and count == 1, (e, on_circle, count)


# acceptance 06's known miss at the two-point step, from bench/defects.py
KNOWN_F = ("(3-i)*x*H(x+1)*H(-x) + (1 + (-3-2*i)*x^2)*H(x)*H(-x+2)"
           " + (1 + (-3-2*i)*x^2)*H(x-2) + 4*delta[1](x)"
           " + (-5/2-3/2*i)*delta[2](x-2)")
KNOWN_G = ("(-4-i)*x^2*H(-x-1) + (-4 + (-1-2/3*i)*x)*H(x+1)*H(-x)"
           " + (2 + (-4+i)*x^3)*H(x)*H(-x+1) + (-5/2-i)*x^3*H(x-1)")


def oracle_rel_err(F, G, t):
    ref_value = d.action(d.star(F, G), t)
    return abs(d.star_oracle(F, G, t) - ref_value) / (1 + abs(ref_value))


class TestRichardsonTable:
    """The default mode extrapolates with a Neville table over the whole
    schedule."""

    def test_known_case_within_acceptance_tolerance(self):
        F, G = d.parse_dist(KNOWN_F), d.parse_dist(KNOWN_G)
        assert oracle_rel_err(F, G, d.make_bump(-5, 3)) < 1e-6

    def test_acceptance_06_cases_within_1e_8(self):
        worst = max(oracle_rel_err(F, G, t)
                    for F, G, t in acceptance_06_cases())
        assert worst <= 1e-8

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("swap", [False, True])
    def test_gap_inside_the_schedule(self, direction, swap):
        """H(x) and delta(x-1/200): one way or the other, the shifted atom
        crosses H's breakpoint at |eps| = 1/200, between the schedule's
        first and second values, so the table uses only the values below
        that gap."""
        F, G = H, d.delta_dist(Fraction(1, 200))
        if swap:
            F, G = G, F
        P = d.star(F, G) if direction == 1 else d.star(G, F)
        ref_value = d.action(P, T)
        got = d.star_oracle(F, G, T, direction=direction)
        assert abs(got - ref_value) / (1 + abs(ref_value)) < 1e-6

    @pytest.mark.parametrize("gap", [Fraction(1, 2000), Fraction(1, 20000)])
    @pytest.mark.parametrize("mode", ["richardson", "last-value"])
    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("swap", [False, True])
    def test_gap_below_the_schedule(self, gap, mode, direction, swap):
        """H(x) and delta(x-gap) with at most one schedule value below the
        gap: the schedule is scaled under the gap, where the unscaled
        linear step straddled the crossing (0j for 1/20000, 0.4088 for
        1/2000 against 0.3679)."""
        F, G = H, d.delta_dist(gap)
        if swap:
            F, G = G, F
        P = d.star(F, G) if direction == 1 else d.star(G, F)
        ref_value = d.action(P, T)
        cfg = QuadratureConfig(extrapolation=mode)
        got = d.star_oracle(F, G, T, cfg, direction=direction)
        tol = 1e-15 if mode == "richardson" else 1e-8
        assert abs(got - ref_value) / (1 + abs(ref_value)) < tol

    @pytest.mark.parametrize("direction", [1, -1])
    def test_gap_floats_cannot_resolve_is_refused(self, direction):
        w = Fraction(1, 3)
        F, G = d.heaviside(w), d.delta_dist(w + Fraction(1, 10 ** 20))
        for A, B in ((F, G), (G, F)):
            with pytest.raises(DomainError, match="vanish in floats"):
                d.star_oracle(A, B, T, direction=direction)

    def test_a_gap_outside_the_support_does_not_rescale(self):
        """Singular points of F outside the bump cannot be crossed inside
        it, so their gap to G does not shrink the schedule."""
        F = d.add(d.heaviside(Fraction(1, 2)), d.heaviside(10))
        G = d.add(d.delta_dist(Fraction(1, 2)),
                  d.delta_dist(10 + Fraction(1, 10 ** 20)))
        assert d.action(d.star(F, G), T) == 0
        assert d.star_oracle(F, G, T) == 0

    def test_three_values_cancel_a_quadratic(self):
        hs = [0.01, 0.001, 0.0001]
        vals = [complex(2 - 3 * h + 5 * h * h, h) for h in hs]
        assert abs(weak._neville(hs, vals) - 2) < 1e-14


# ---------------------------------------------------------------------------
# the bump's closed form

AMPLITUDES = [1, Fraction(-3, 2), d.ComplexRational(2, 1)]


def closed_form_points():
    """Real points with 1 - |u| from 1/2 down to 1e-6 at both ends and
    some in the middle, and points on three Cauchy circles of radius 0.1."""
    gaps = np.geomspace(0.5, 1e-6, 40)
    real = np.concatenate([1 - gaps, gaps - 1, np.linspace(-0.5, 0.5, 21)])
    circle = np.concatenate([w + 0.1 * np.exp(2j * np.pi * np.arange(64) / 64)
                             for w in (-0.6, 0.0, 0.55)])
    return [real, circle]


class TestBumpClosedForm:
    """make_bump's bodies c·exp(-1/(1-u^2)) and their derivatives are
    evaluated in closed form; any other body from its symbolic
    derivative."""

    @pytest.mark.parametrize("c", AMPLITUDES, ids=["1", "-3/2", "2+i"])
    @pytest.mark.parametrize("k", range(5))
    def test_agrees_with_the_symbolic_derivative(self, k, c):
        """The symbolic route loses accuracy near the support ends (about
        2e-12 of max |t^(k)| at k = 4 on these points), so k = 4 gets a
        wider bound."""
        body = d.make_bump(-1, 1, c).body
        tol = 1e-12 if k < 4 else 5e-12
        for u in closed_form_points():
            tree = weak.eval_num(weak._body_deriv(body, k), u)
            got = weak._body_values(body, k, u)
            assert np.max(np.abs(got - tree)) <= tol * np.max(np.abs(tree))

    @pytest.mark.parametrize("c", AMPLITUDES, ids=["1", "-3/2", "2+i"])
    @pytest.mark.parametrize("k", range(5))
    def test_within_1e_13_of_a_50_digit_reference(self, k, c):
        mpmath = pytest.importorskip("mpmath")
        body = d.make_bump(-1, 1, c).body
        cc = complex(c)
        with mpmath.workdps(50):
            f = lambda z: cc * mpmath.exp(-1 / (1 - z * z))
            for u in closed_form_points():
                pts = u[::3]
                ref = np.array([complex(mpmath.diff(f, mpmath.mpmathify(z), k))
                                for z in pts])
                got = weak._body_values(body, k, pts)
                assert (np.max(np.abs(got - ref))
                        <= 1e-13 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("k", range(5))
    def test_pointwise_accurate_near_the_support_ends(self, k):
        """Where 1 - |u| runs from 1/20 down to 2e-3 the values still are
        normal floats, and each is within 2e-13 of the reference relative
        to itself; the symbolic route, which cancels in an expanded
        1 - u^2, is off by about 1.5e-12 there."""
        mpmath = pytest.importorskip("mpmath")
        gaps = np.geomspace(0.05, 2e-3, 12)
        u = np.concatenate([1 - gaps, gaps - 1])
        with mpmath.workdps(50):
            f = lambda z: mpmath.exp(-1 / (1 - z * z))
            ref = np.array([complex(mpmath.diff(f, mpmath.mpf(z), k))
                            for z in u])
        got = weak._body_values(T.body, k, u)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 2e-13

    def test_make_bump_bodies_take_the_closed_form(self, monkeypatch):
        seen = []
        eval_num = weak.eval_num
        monkeypatch.setattr(weak, "eval_num",
                            lambda e, x: seen.append(e) or eval_num(e, x))
        xs = np.array([-0.9, 0.1, 0.7])
        for c in AMPLITUDES:
            for k in range(4):
                bump_deriv_values(d.make_bump(-2, 3, c), k, xs)
        assert seen == []

    def test_other_bodies_take_the_symbolic_route(self, monkeypatch):
        seen, closed = [], []
        eval_num, bump_closed = weak.eval_num, weak._bump_closed
        monkeypatch.setattr(weak, "eval_num",
                            lambda e, x: seen.append(e) or eval_num(e, x))
        monkeypatch.setattr(weak, "_bump_closed",
                            lambda *a: closed.append(a) or bump_closed(*a))
        tp = d.bump_derivative(T)
        xs = np.array([-0.3, 0.2, 0.7])
        bump_values(tp, xs)
        bump_deriv_values(tp, 2, xs)
        assert seen == [tp.body, weak._body_deriv(tp.body, 2)]
        assert closed == []

    def test_the_float_pole_guard_is_kept(self):
        with pytest.raises(DomainError, match="evaluation guard"):
            weak._body_values(T.body, 1, np.array([0.5, 1.0]))
        with pytest.raises(DomainError, match="evaluation guard"):
            weak.eval_num(weak._body_deriv(T.body, 1), np.array([0.5, 1.0]))
