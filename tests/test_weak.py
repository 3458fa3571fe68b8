"""Quadrature actions and the translation-limit oracle."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

import distalg as d
from distalg import QuadratureConfig, VariantTag
from distalg.errors import DomainError, EpsilonTooLarge, ShapeError
from distalg.weak import bump_values, bump_deriv_values

from conftest import random_dist, random_poly


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


class TestPoles:
    """A quotient pole where a piece is integrated is a DomainError, never a
    number."""

    @pytest.mark.parametrize("text, a, b", [
        ("1/(x-1)*H(x)", -1, 2),          # rational root inside a piece
        ("1/(x^2-2)*H(x)", -1, 2),        # irrational root sqrt(2)
        ("1/x*H(x)", -1, 1),              # root at a breakpoint
        ("exp(x)/(x-1/3)*H(x-1/3)", 0, 1),
        ("1/((x-1)*(x+i))", 0, 2),        # complex coefficients, real root
        ("1/(x^5-3*x+1)*H(x)", -1, 1),    # irrational root near 0.34
        ("(x-1)/(x-1)^2*H(x)", -1, 2),    # a factor cancels the pole once
    ])
    def test_action_refuses_a_pole(self, text, a, b):
        with pytest.raises(DomainError):
            d.action(d.parse_dist(text), d.make_bump(a, b))

    @pytest.mark.parametrize("text, a, b", [
        ("1/(x^2-2)*H(x)", -1, 1),        # sqrt(2) outside the support
        ("1/x*H(x)", 0, 1),               # pole at a support end
        ("1/(x-1)^2*H(x-1)", 1, 3),
        ("1/(x^2+1)", -1, 1),             # no real root
        ("exp(x)/(x-2)*H(x)", -1, 1),
        ("1/((x-1)^3*(x^2-3))*H(x-2)", 0, 3),  # repeated and irrational roots
    ])
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
