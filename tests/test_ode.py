"""Confined equations, residuals, and cutoff particular solutions."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import distalg as d
from distalg import Verdict
from distalg import dist as dist_mod
from distalg import ode as ode_mod
from distalg.dist import _assemble
from distalg.errors import DegenerateLeadingCoefficient, ShapeError

import ode_reference as ref
from conftest import law_dists, law_poly


def second_order():
    return d.make_ode([d.ZERO, d.ZERO, d.ONE])  # psi'' = 0


def first_order():
    return d.make_ode([d.ZERO, d.ONE])  # psi' = 0


def linear(c0, c1):
    return d.sum_of(d.const(Fraction(c0)),
                    d.product_of(d.const(Fraction(c1)), d.X))


class TestMakeOde:
    def test_accepts_constant_coefficients(self):
        ode = second_order()
        assert ode.n == 2
        assert ode.leading_sampled_nonzero

    def test_order_zero_rejected(self):
        with pytest.raises(ShapeError):
            d.make_ode([d.ONE])

    def test_zero_leading_rejected(self):
        with pytest.raises(DegenerateLeadingCoefficient):
            d.make_ode([d.ONE, d.ZERO])
        with pytest.raises(DegenerateLeadingCoefficient):
            d.make_ode([d.ONE, d.sub_expr(d.X, d.X)])

    def test_vanishing_leading_flagged_not_rejected(self):
        # effectively zero away from the origin, so the sampled check trips
        spike = d.exp_of(d.product_of(d.const(-10000), d.power_of(d.X, 2)))
        ode = d.make_ode([d.ONE, spike])
        assert not ode.leading_sampled_nonzero
        assert d.make_ode([d.ONE, d.ONE]).leading_sampled_nonzero


class TestConstantLeadShortcut:
    """make_ode tests a constant leading coefficient without sampling it;
    the result must be what sampling gives."""

    @pytest.mark.parametrize("lead", [
        1e-10, 1e-9, Fraction(1, 10**9) + Fraction(1, 10**20), -1e-10,
        d.ComplexRational(Fraction(3, 10**10), Fraction(4, 10**10)),
        d.ComplexRational(Fraction(0), Fraction(-7, 3)),
        d.ComplexRational(Fraction(-1, 2), Fraction(1, 2)),
        -2, Fraction(-5, 3), 10**300, -10**300, 1e308,
    ])
    def test_agrees_with_sampling(self, lead):
        e = d.const(lead)
        assert (d.make_ode([d.ONE, e]).leading_sampled_nonzero
                is ode_mod._sampled_nonvanishing(e))

    def test_constant_normal_form_of_a_tree(self):
        e = d.parse_smooth_expr("(x+1)^2 - x^2 - 2*x")
        assert d.poly_normal_form(e) == (d.ComplexRational.of(1),)
        assert d.make_ode([d.ONE, e]).leading_sampled_nonzero
        assert ode_mod._sampled_nonvanishing(e)


class TestPolynomialLeadRoots:
    """A polynomial lead with a real root in the sampled window [-10, 10]
    is flagged, though no sample node hits the root, and so is a lead
    whose polynomial factor has one, whatever its other factors, a lead
    with a pole there, whatever its numerator, and a polynomial times a
    quotient of two polynomials with a root or a pole there; otherwise the
    result is what sampling gives."""

    @pytest.mark.parametrize("lead", ["x", "(x-1/3)^2", "x^3-2", "i*x",
                                      "x+10", "x-10", "(x-2)*(x^2+1)"])
    def test_root_in_window_flagged(self, lead):
        e = d.parse_smooth_expr(lead)
        assert not d.make_ode([d.ONE, e]).leading_sampled_nonzero

    def test_sampling_misses_the_roots(self):
        for lead in ("x", "(x-1/3)^2", "x^3-2"):
            assert ode_mod._sampled_nonvanishing(d.parse_smooth_expr(lead))

    @pytest.mark.parametrize("lead", ["x/(x-1)", "(x-1)/(x+20)", "1/(x-3)",
                                      "-2*x/(x-1)", "1/(x+10)", "1/(x^2-2)",
                                      "(x^2-2)*(1/(x+20))"])
    def test_rational_root_or_pole_in_window_flagged(self, lead):
        e = d.parse_smooth_expr(lead)
        assert ode_mod._sampled_nonvanishing(e)
        assert not d.make_ode([d.ONE, e]).leading_sampled_nonzero

    @pytest.mark.parametrize("lead", ["exp(x)*(x-1)", "(x-1)*sin(x)",
                                      "exp(x)*(x^2-2)"])
    def test_root_of_the_polynomial_factor_flagged(self, lead):
        e = d.parse_smooth_expr(lead)
        assert ode_mod._sampled_nonvanishing(e)
        assert not d.make_ode([d.ONE, e]).leading_sampled_nonzero

    @pytest.mark.parametrize("lead", ["exp(x)/(x-1)",
                                      "exp(x)*(x^2+1)/(x-1)"])
    def test_pole_behind_any_numerator_flagged(self, lead):
        """A pole in the window is a root of one of the lead's
        ``pole_denominators``, whatever the numerator is."""
        e = d.parse_smooth_expr(lead)
        assert ode_mod._sampled_nonvanishing(e)
        assert not d.make_ode([d.ONE, e]).leading_sampled_nonzero

    @pytest.mark.parametrize("lead", ["x-11", "x+21/2", "1+x^2",
                                      "(x-i)*(x+i)", "x^2+1/1000", "x+i",
                                      "1/(x+20)", "(x^2+1)/(x^2+2)",
                                      "exp(x)/(x-20)", "(x^2+1)*(1/(x+20))"])
    def test_no_root_in_window_agrees_with_sampling(self, lead):
        e = d.parse_smooth_expr(lead)
        assert (d.make_ode([d.ONE, e]).leading_sampled_nonzero
                is ode_mod._sampled_nonvanishing(e) is True)


class TestConfinedStructure:
    def test_halfline_records(self):
        ceq = d.confine_halfline(second_order(), 0)
        recs = [(r.i, r.j, r.binomial, r.endpoint, r.hside_order, r.sign)
                for r in ceq.corrections]
        assert recs == [(2, 1, 2, "lower", 1, 1), (2, 2, 1, "lower", 2, 1)]

    def test_interval_records_cover_both_endpoints(self):
        ceq = d.confine_interval(second_order(), 0, 1)
        lower = [r for r in ceq.corrections if r.endpoint == "lower"]
        upper = [r for r in ceq.corrections if r.endpoint == "upper"]
        assert len(lower) == len(upper) == 2
        assert all(r.sign == 1 for r in lower)
        assert all(r.sign == -1 for r in upper)
        assert all(1 <= r.j <= r.i <= 2 for r in ceq.corrections)

    def test_zero_coefficients_contribute_no_records(self):
        ode = d.make_ode([d.ONE, d.ZERO, d.ONE])  # psi'' + psi = 0
        ceq = d.confine_halfline(ode, 0)
        assert {r.i for r in ceq.corrections} == {2}

    def test_indicator_shapes(self):
        half = d.confine_halfline(first_order(), Fraction(1, 2))
        assert d.equal_dist(d.indicator_dist(half),
                            d.heaviside(Fraction(1, 2))) is Verdict.EQUAL
        box = d.confine_interval(first_order(), 0, 1)
        assert d.equal_dist(d.indicator_dist(box),
                            d.indicator(0, 1)) is Verdict.EQUAL


class TestResidualHalfline:
    def test_heaviside_solves_first_order(self):
        ceq = d.confine_halfline(first_order(), 0)
        assert d.is_zero_dist(d.residual(ceq, d.heaviside(0)))

    def test_ramp_solves_second_order(self):
        ceq = d.confine_halfline(second_order(), 0)
        ramp = d.make_piecewise([0], [d.ZERO, d.X])
        assert d.is_zero_dist(d.residual(ceq, ramp))

    def test_random_cutoff_linear_solutions(self):
        rng = random.Random(41)
        ceq = d.confine_halfline(second_order(), 0)
        for _ in range(50):
            c0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            c1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            psi = d.smooth_mul(linear(c0, c1), d.heaviside(0))
            assert d.is_zero_dist(d.residual(ceq, psi))

    def test_unconfined_solution_leaves_deltas(self):
        ceq = d.confine_halfline(second_order(), 0)
        res = d.residual(ceq, d.smooth_dist(linear(3, 2)))
        want = _assemble((), (d.ZERO,),
                         [d.DeltaAtom(Fraction(0), 0, d.ComplexRational.of(2)),
                          d.DeltaAtom(Fraction(0), 1, d.ComplexRational.of(3))])
        assert d.equal_dist(res, want) is Verdict.EQUAL

    def test_shifted_endpoint(self):
        ceq = d.confine_halfline(second_order(), 1)
        psi = d.smooth_mul(linear(-1, 1), d.heaviside(1))  # (x-1)*H(x-1)
        assert d.is_zero_dist(d.residual(ceq, psi))
        assert {a.w for a in d.residual(ceq, d.smooth_dist(d.X)).atoms} == {Fraction(1)}

    def test_wrong_shapes_never_pass(self):
        # candidates with an extra atom or a live left branch must fail
        rng = random.Random(42)
        ceq = d.confine_halfline(second_order(), 0)
        for _ in range(50):
            c0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            c1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            good = d.smooth_mul(linear(c0, c1), d.heaviside(0))
            if rng.random() < 0.5:
                k = rng.randint(0, 1)
                c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
                bad = d.add(good, d.delta_dist(0, k, c * rng.choice([1, -1])))
            else:
                left = linear(rng.randint(1, 5), rng.randint(-3, 3))
                bad = d.add(good, d.smooth_mul(left, d.indicator(-5, 0)))
            assert not d.is_zero_dist(d.residual(ceq, bad))


class TestResidualInterval:
    def test_confined_linear_solution(self):
        ceq = d.confine_interval(second_order(), 0, 1)
        psi = d.smooth_mul(linear(3, 2), d.indicator(0, 1))
        assert d.is_zero_dist(d.residual(ceq, psi))

    def test_confined_constant_first_order(self):
        ceq = d.confine_interval(first_order(), 0, 1)
        psi = d.scale(Fraction(5, 7), d.indicator(0, 1))
        assert d.is_zero_dist(d.residual(ceq, psi))

    def test_unconfined_fails(self):
        ceq = d.confine_interval(second_order(), 0, 1)
        res = d.residual(ceq, d.smooth_dist(linear(3, 2)))
        assert not d.is_zero_dist(res)
        assert {a.w for a in res.atoms} == {Fraction(0), Fraction(1)}

    def test_random_interval_solutions(self):
        rng = random.Random(43)
        for _ in range(25):
            a = Fraction(rng.randint(-3, 0))
            b = a + rng.randint(1, 3)
            ceq = d.confine_interval(second_order(), a, b)
            psi = d.smooth_mul(
                linear(Fraction(rng.randint(-5, 5), 2),
                       Fraction(rng.randint(-5, 5), 3)),
                d.indicator(a, b))
            assert d.is_zero_dist(d.residual(ceq, psi))


class TestSupportInvariance:
    def test_corrections_ignore_left_supported_junk(self):
        # adding atoms strictly left of the endpoint changes nothing in the
        # correction terms, which only read right-of-endpoint data
        rng = random.Random(44)
        ode = d.make_ode([d.const(1), d.const(2), d.X, d.ONE])
        ceq = d.confine_halfline(ode, 0)
        for _ in range(40):
            psi_u = d.sum_of(
                d.const(Fraction(rng.randint(-4, 4), 2)),
                d.product_of(d.const(Fraction(rng.randint(-4, 4), 3)),
                             d.power_of(d.X, rng.randint(1, 3))))
            base = d.smooth_mul(psi_u, d.heaviside(0))
            atoms = [d.DeltaAtom(Fraction(-rng.randint(1, 4), rng.choice([1, 2])),
                                 rng.randint(0, 2),
                                 d.ComplexRational(Fraction(rng.randint(-5, 5)),
                                                   Fraction(rng.randint(-2, 2))))
                     for _ in range(rng.randint(1, 3))]
            junk = _assemble((), (d.ZERO,), atoms)
            c_base = d.correction_values(ceq, base)
            c_junk = d.correction_values(ceq, d.add(base, junk))
            assert len(c_base) == len(c_junk) == len(ceq.corrections)
            for u, v in zip(c_base, c_junk):
                assert d.equal_dist(u, v) is Verdict.EQUAL


class TestParticularRhs:
    def test_unit_value_gives_delta_prime(self):
        out = d.particular_rhs(second_order(), [1, 0], 0)
        assert d.equal_dist(out, d.delta_dist(0, 1)) is Verdict.EQUAL

    def test_unit_slope_gives_delta(self):
        out = d.particular_rhs(second_order(), [0, 1], 0)
        assert d.equal_dist(out, d.delta_dist(0)) is Verdict.EQUAL

    def test_zero_data_vanishes(self):
        assert d.is_zero_dist(d.particular_rhs(first_order(), [0], 0))

    def test_length_check(self):
        with pytest.raises(ShapeError):
            d.particular_rhs(second_order(), [1], 0)

    def test_cutoff_identity(self):
        # Sum a_i (H psi)^(i) = H * (sum a_i psi^(i)) + the delta combination
        # built from the endpoint data of psi, for any polynomial psi.
        rng = random.Random(45)
        for _ in range(30):
            n = rng.randint(1, 3)
            coeffs = [d.expr_from_poly([Fraction(rng.randint(-3, 3)),
                                        Fraction(rng.randint(-2, 2))])
                      for _ in range(n)] + [d.ONE]
            ode = d.make_ode(coeffs)
            a = Fraction(rng.randint(-2, 2))
            psi_u = d.expr_from_poly([Fraction(rng.randint(-4, 4), 2)
                                      for _ in range(rng.randint(1, 4))])
            cut = d.smooth_mul(psi_u, d.heaviside(a))
            lhs = d.zero_dist()
            deriv = cut
            derivs = [cut]
            for _ in range(ode.n):
                deriv = d.differentiate(deriv)
                derivs.append(deriv)
            for i, ai in enumerate(ode.coeffs):
                lhs = d.add(lhs, d.smooth_mul(ai, derivs[i]))
            classical = d.sum_of(*(d.product_of(ode.coeffs[i], d.diff_n(psi_u, i))
                                   for i in range(ode.n + 1)))
            values = [d.eval_exact(d.diff_n(psi_u, k), a) for k in range(ode.n)]
            rhs = d.add(d.smooth_mul(classical, d.heaviside(a)),
                        d.particular_rhs(ode, values, a))
            assert d.equal_dist(lhs, rhs) is Verdict.EQUAL


class TestVerify:
    def test_polynomial_solution_verdict(self):
        ceq = d.confine_halfline(second_order(), 0)
        rep = d.verify_confinement(ceq, linear(3, 2))
        assert rep.verdict is Verdict.EQUAL
        assert d.is_zero_dist(rep.residual)
        assert rep.classical_max == 0

    def test_decaying_exponential(self):
        ode = d.make_ode([d.ONE, d.ONE])  # psi' + psi = 0
        ceq = d.confine_halfline(ode, 0)
        rep = d.verify_confinement(ceq, d.exp_of(d.neg(d.X)))
        assert rep.verdict is Verdict.EQUAL
        assert rep.classical_max <= 1e-9

    def test_non_solution_reports_classical_residual(self):
        ceq = d.confine_halfline(second_order(), 0)
        rep = d.verify_confinement(ceq, d.power_of(d.X, 2))
        assert rep.classical_max > 1
        assert rep.verdict is not Verdict.EQUAL

    def test_report_serialization_keys(self):
        ceq = d.confine_halfline(second_order(), 0)
        rep = d.verify_confinement(ceq, linear(1, 1))
        obj = d.report_to_jsonable(rep)
        assert set(obj) >= {"verdict", "residual", "samples"}
        assert obj["verdict"] == "Equal"
        assert all(set(s) == {"x", "value"} for s in obj["samples"])


# -- one assembly per check ----------------------------------------------------

E = d.exp_of(d.X)
# grid points and two off-grid ends, so interval ends both are and are not
# breakpoints of the candidate
ENDS = [Fraction(n) for n in range(-2, 3)] + [Fraction(1, 3), Fraction(-5, 2)]


def _bench_numeric_cases(n=48):
    """The confinement checks of the numeric benchmark: every candidate
    kind on every interval shape."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = random.Random(18)
    out = []
    for j in range(n):
        kind = gen.VERIFY_KINDS[j % 4][0]
        kind, iv, cs = gen.verify_case(rng, kind, gen.SHAPES[(j // 4) % 3])
        out.append((gen.build_ceq(d, kind, iv), gen.build_psi(d, kind, cs)))
    return out


@st.composite
def confined_equations(draw):
    """Order 1-3, coefficients 0, constants, x and exp(x) (so a
    non-constant a_i meets chain atoms), on a half-line, a bounded or a
    negative interval."""
    coeff = st.sampled_from([d.ONE, d.const(Fraction(-3, 2)), d.X, E])
    n = draw(st.integers(1, 3))
    cs = [draw(st.one_of(st.just(d.ZERO), coeff)) for _ in range(n)]
    ode = d.make_ode(cs + [draw(coeff)],
                     draw(st.sampled_from([d.ZERO, d.ONE, d.X, E])))
    shape = draw(st.sampled_from(["half", "bounded", "negative"]))
    if shape == "half":
        return d.confine_halfline(ode, draw(st.sampled_from(ENDS)))
    a, b = sorted(draw(st.lists(st.sampled_from(ENDS), min_size=2,
                                max_size=2, unique=True)))
    if shape == "negative":
        a, b = a - 5, b - 5
    return d.confine_interval(ode, a, b)


@st.composite
def candidates(draw):
    """A conftest-law distribution plus, at times, an exp(x) piece from an
    endpoint other than 0 (inexact jumps in the chain) and an inexact
    atom."""
    psi = draw(law_dists([Fraction(n) for n in range(-2, 3)], 1))[0]
    if draw(st.booleans()):
        w = draw(st.sampled_from([-1, 1, 2, Fraction(1, 3)]))
        psi = d.add(psi, d.smooth_mul(E, d.heaviside(w)))
    if draw(st.booleans()):
        w = Fraction(draw(st.integers(-2, 2)))
        psi = d.add(psi, _assemble((), (d.ZERO,), [
            d.InexactAtom(w, draw(st.integers(0, 2)), 0.5 - 1.25j)]))
    return psi


def same(new, old):
    assert new == old
    assert repr(new) == repr(old)


class TestOneAssembly:
    """The residual, the correction values and the verify report from raw
    pieces and atoms are the ones the route through whole canonical
    distributions (``ode_reference``) gives, tree for tree and float for
    float."""

    @settings(max_examples=120, deadline=None)
    @given(confined_equations(), candidates())
    def test_residual_and_corrections_match_reference(self, ceq, psi):
        same(d.residual(ceq, psi), ref.residual(ceq, psi))
        same(d.correction_values(ceq, psi), ref.correction_values(ceq, psi))

    @settings(max_examples=80, deadline=None)
    @given(confined_equations(), st.one_of(
        law_poly, law_poly.map(lambda p: d.product_of(p, E)),
        law_poly.map(lambda p: d.sum_of(p, d.exp_of(d.neg(d.X))))))
    def test_verify_report_matches_reference(self, ceq, psi_u):
        same(d.verify_confinement(ceq, psi_u),
             ref.verify_confinement(ceq, psi_u))

    @pytest.mark.parametrize("ceq, psi_u", _bench_numeric_cases())
    def test_numeric_benchmark_cases_match_reference(self, ceq, psi_u):
        same(d.verify_confinement(ceq, psi_u),
             ref.verify_confinement(ceq, psi_u))

    def test_assemble_calls_per_check(self, monkeypatch):
        """At most two assemblies per residual (the indicator and the
        result) and four per verify (the indicator, the result and the zero
        it is compared with make three), where building every term as a
        whole distribution took 12-21 and 15-24 on the numeric cases."""
        calls = []
        real = dist_mod._assemble

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(dist_mod, "_assemble", counted)
        monkeypatch.setattr(ode_mod, "_assemble", counted)
        for ceq, psi_u in _bench_numeric_cases(12):
            psi_c = d.smooth_mul(psi_u, d.indicator_dist(ceq))
            calls.clear()
            d.residual(ceq, psi_c)
            assert len(calls) <= 2
            calls.clear()
            d.verify_confinement(ceq, psi_u)
            assert len(calls) <= 4
