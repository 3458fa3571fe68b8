"""Text grammar, JSON round trips, and the command-line front end."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import distalg as d
from distalg import Verdict
from distalg.cli import main as cli_main
from distalg.errors import DigitLimitError, ParseError, SemanticsError
from conftest import random_corpus


def run(*argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


class TestSmoothGrammar:
    def test_arithmetic_and_precedence(self):
        e = d.parse_smooth_expr("1+2*3")
        assert d.eval_exact(e, Fraction(0)) == d.ComplexRational.of(7)
        e = d.parse_smooth_expr("(x+1)^2")
        assert d.eval_exact(e, Fraction(2)) == d.ComplexRational.of(9)
        e = d.parse_smooth_expr("2^3")
        assert d.eval_exact(e, Fraction(0)) == d.ComplexRational.of(8)

    def test_exact_rationals(self):
        e = d.parse_smooth_expr("3/2*x - 1/3")
        v = d.eval_exact(e, Fraction(2))
        assert v == d.ComplexRational.of(Fraction(8, 3))

    def test_imaginary_unit(self):
        v = d.eval_exact(d.parse_smooth_expr("2*i + 1"), Fraction(0))
        assert v == d.ComplexRational(Fraction(1), Fraction(2))

    def test_transcendental(self):
        e = d.parse_smooth_expr("exp(-x^2/2)")
        got = complex(d.eval_num(e, 1.25))
        assert got == pytest.approx(math.exp(-1.25 ** 2 / 2), rel=1e-14)

    def test_signs(self):
        e = d.parse_smooth_expr("--x")
        assert d.expr_equal(e, d.X) is Verdict.EQUAL
        assert d.parse_smooth_expr("+5") == d.const(5)

    def test_rejects_distribution_names(self):
        with pytest.raises(ParseError, match="not a smooth function"):
            d.parse_smooth_expr("H(x)")
        with pytest.raises(ParseError):
            d.parse_smooth_expr("delta(x)")

    def test_error_position(self):
        with pytest.raises(ParseError, match="at position") as exc:
            d.parse_smooth_expr("x + ?")
        assert exc.value.position == 4

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            d.parse_smooth_expr("x)")

    def test_division_by_zero_constant(self):
        with pytest.raises(ParseError, match="division by zero"):
            d.parse_smooth_expr("x/0")

    def test_fractional_power_rejected(self):
        with pytest.raises(ParseError):
            d.parse_smooth_expr("x^(1/2)")


def _smooth_texts():
    """Smooth text from numbers, x, i, exp/sin/cos, parentheses, the binary
    operators and '^', with a sign allowed before any factor."""
    leaf = st.sampled_from(["x", "i", "0", "1", "2", "7", "3/4", "0.5"])

    def extend(inner):
        return st.one_of(
            st.builds("{}({})".format, st.sampled_from(["exp", "sin", "cos"]),
                      inner),
            st.builds("({})".format, inner),
            st.builds("{}^{}".format, inner, st.integers(0, 3)),
            st.builds("{}{}".format, st.sampled_from("+-"), inner),
            st.builds("{}{}{}".format, inner,
                      st.sampled_from(["+", "-", "*", "/", " - "]), inner))

    return st.recursive(leaf, extend, max_leaves=10)


def _parsed(parse, text):
    try:
        return parse(text)
    except d.DistAlgError as e:
        return type(e)


class TestEntryPointsAgree:
    """Smooth text means the same to both entry points."""

    @settings(max_examples=300, deadline=None)
    @given(_smooth_texts())
    def test_dist_of_smooth_text_is_its_smooth_dist(self, text):
        e = _parsed(d.parse_smooth_expr, text)
        want = e if isinstance(e, type) else d.smooth_dist(e)
        assert _parsed(d.parse_dist, text) == want

    def test_json_round_trip_of_a_negative_product(self):
        F = d.parse_dist("-(1+x)*exp(x)*H(x)")
        assert d.parse_dist_json(d.dist_to_jsonable(F)) == F

    @pytest.mark.parametrize("e", [
        d.neg(d.product_of(d.sum_of(d.ONE, d.X), d.exp_of(d.X))),
        d.neg(d.quotient_of(d.X, d.exp_of(d.ONE))),
    ], ids=["-(1 + x)*exp(x)", "-x/exp(1)"])
    def test_smooth_text_round_trip_is_tree_exact(self, e):
        assert d.parse_smooth_expr(d.format_expr(e)) == e

    def test_sign_before_a_factor_applies_to_its_term(self):
        assert d.parse_dist("H(x)*-x") == d.parse_dist("-x*H(x)")


class TestNestingDepth:
    @pytest.mark.parametrize("parse, text, position", [
        (d.parse_smooth_expr, "(" * 199 + "x" + ")" * 199, 100),
        (d.parse_dist, "(" * 331 + "H(x)" + ")" * 331, 100),
        (d.parse_smooth_expr, "-" * 2000 + "x", 100),
        (d.parse_smooth_expr, "exp(" * 300 + "x" + ")" * 300, 403),
        (d.parse_dist, "cos(" * 300 + "x" + ")" * 300 + "*H(x)", 403),
        (d.parse_dist, "(" * 100 + "-H(x)" + ")" * 100, 100),
    ], ids=["parens", "dist-parens", "signs", "exp", "cos", "dist-sign"])
    def test_deep_nesting_is_a_parse_error(self, parse, text, position):
        with pytest.raises(ParseError, match="nesting") as exc:
            parse(text)
        assert exc.value.position == position

    def test_nesting_at_the_limit_parses(self):
        assert d.parse_smooth_expr("(" * 100 + "x" + ")" * 100) == d.X
        assert d.parse_smooth_expr("-" * 100 + "x") == d.X
        F = d.parse_dist("(" * 100 + "H(x)" + ")" * 100)
        assert d.equal_dist(F, d.heaviside(0)) is Verdict.EQUAL

    def test_cli_reports_deep_nesting_as_syntax_error(self):
        code, out, err = run("fmt", "(" * 400 + "x" + ")" * 400)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "nesting" in err
        assert "Traceback" not in err


_LONG = "1" * 5000  # past the interpreter's default 4,300-digit limit


class TestDigitLimit:
    @pytest.mark.parametrize("parse, text, position", [
        (d.parse_dist, _LONG + "*H(x)", 0),
        (d.parse_dist, "H(x-" + _LONG + ")", 4),
        (d.parse_dist, "2/" + _LONG + "*delta(x)", 2),
        (d.parse_smooth_expr, "x^" + _LONG, 2),
        (d.parse_smooth_expr, "1." + _LONG, 0),
    ], ids=["literal", "location", "denominator", "exponent", "decimal"])
    def test_a_literal_past_the_limit_is_a_parse_error(self, parse, text,
                                                       position):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ParseError, match=f"{limit}-digit limit") as exc:
            parse(text)
        assert exc.value.position == position
        assert sys.get_int_max_str_digits() == limit

    def test_cli_reports_a_long_literal_as_syntax_error(self):
        code, out, err = run("fmt", _LONG + "*H(x)")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "digit limit" in err

    def test_ordering_by_a_constant_too_long_to_print_is_a_typed_error(self):
        """Terms are ordered by their printed form, so a sum whose terms
        differ in such a constant ends in DigitLimitError, CLI exit 2."""
        text = "exp(3/7^20000*x) + sin(x)"
        with pytest.raises(DigitLimitError, match="digit limit"):
            d.parse_smooth_expr(text)
        code, out, err = run("fmt", text)
        assert code == 2 and out == "" and err.startswith("error:")


class TestRational:
    def test_forms(self):
        assert d.parse_rational("3/2") == Fraction(3, 2)
        assert d.parse_rational("-1/3") == Fraction(-1, 3)
        assert d.parse_rational("0.25") == Fraction(1, 4)
        assert d.parse_rational(" 2 ") == Fraction(2)

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            d.parse_rational("abc")

    @pytest.mark.parametrize("text", ["1/0", "0/0", "1/2/3", "1/", "/2",
                                      "1/0.0", "inf", "nan"])
    def test_rejects_zero_denominator_and_extra_slash(self, text):
        with pytest.raises(ParseError):
            d.parse_rational(text)

    def test_scientific_and_spaced_parts(self):
        assert d.parse_rational("1e3/2") == 500
        assert d.parse_rational(" 1 / 2.5 ") == Fraction(2, 5)
        assert d.parse_rational("-1/-2") == Fraction(1, 2)

    @pytest.mark.parametrize("argv", [
        ["action", "H(x)", "--bump", "0,1/0"],
        ["action", "H(x)", "--bump", "0,1/2/3"],
        ["oracle", "delta(x)", "H(x)", "--bump", "-1,1",
         "--eps-schedule", "1/0"],
        ["verify", "--ode", "1,1;0", "--interval=1/0", "exp(-x)"],
        ["residual", "--ode", "1,1;0", "--interval=0,1/2/3", "H(x)"],
    ])
    def test_cli_bad_rational_is_a_usage_error(self, argv):
        code, out, err = run(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage error:") and "Traceback" not in err


class TestLinearArguments:
    @pytest.mark.parametrize("text,w,k,coeff", [
        ("delta(x)", 0, 0, 1),
        ("delta(x-1)", 1, 0, 1),
        ("delta(x+1/2)", Fraction(-1, 2), 0, 1),
        ("delta(1-x)", 1, 0, 1),
        ("delta[1](1-x)", 1, 1, -1),
        ("delta[2](-x)", 0, 2, 1),
        ("delta[1](-x-2)", -2, 1, -1),
    ])
    def test_delta_forms(self, text, w, k, coeff):
        F = d.parse_dist(text)
        assert len(F.atoms) == 1
        a = F.atoms[0]
        assert (a.w, a.k) == (Fraction(w), k)
        assert a.coeff == d.ComplexRational.of(coeff)

    @pytest.mark.parametrize("text,expected", [
        ("H(x)", d.heaviside(0)),
        ("H(x-1/2)", d.heaviside(Fraction(1, 2))),
        ("H(2-x)", d.make_piecewise([2], [d.ONE, d.ZERO])),
        ("H(-x+2)", d.make_piecewise([2], [d.ONE, d.ZERO])),
        ("H(-x)", d.make_piecewise([0], [d.ONE, d.ZERO])),
    ])
    def test_step_forms(self, text, expected):
        assert d.equal_dist(d.parse_dist(text), expected) is Verdict.EQUAL

    @pytest.mark.parametrize("text", [
        "delta(2*x)", "H(x^2)", "delta()", "H(x-)", "H(y)", "delta(x+x)",
    ])
    def test_nonlinear_arguments_rejected(self, text):
        with pytest.raises(ParseError):
            d.parse_dist(text)


class TestDistGrammar:
    def test_indicator_product(self):
        F = d.parse_dist("H(x)*H(1-x)")
        assert d.equal_dist(F, d.indicator(0, 1)) is Verdict.EQUAL

    def test_smooth_times_delta_expands(self):
        F = d.parse_dist("x*delta[1](x)")
        assert d.equal_dist(F, d.scale(-1, d.delta_dist(0))) is Verdict.EQUAL

    def test_smooth_times_delta_order_two(self):
        F = d.parse_dist("x^2*delta[2](x)")
        assert d.equal_dist(F, d.scale(2, d.delta_dist(0))) is Verdict.EQUAL

    def test_mixed_sum(self):
        F = d.parse_dist("(1+x)*H(x) - delta(x+1)")
        assert len(F.atoms) == 1
        assert F.atoms[0].w == Fraction(-1)
        assert F.atoms[0].coeff == d.ComplexRational.of(-1)

    def test_scalar_coefficients(self):
        F = d.parse_dist("3/2*H(x)")
        assert d.equal_dist(F, d.scale(Fraction(3, 2),
                                       d.heaviside(0))) is Verdict.EQUAL
        G = d.parse_dist("H(x)/2")
        assert d.equal_dist(G, d.scale(Fraction(1, 2),
                                       d.heaviside(0))) is Verdict.EQUAL

    def test_leading_sign(self):
        F = d.parse_dist("-H(x)")
        assert d.equal_dist(F, d.scale(-1, d.heaviside(0))) is Verdict.EQUAL

    def test_cancellation(self):
        assert d.is_zero_dist(d.parse_dist("x - x"))
        assert d.is_zero_dist(d.parse_dist("delta(x) - delta(x)"))

    def test_smooth_power_factor(self):
        F = d.parse_dist("(x+1)^2*H(x)")
        want = d.smooth_mul(d.power_of(d.sum_of(d.X, d.ONE), 2), d.heaviside(0))
        assert d.equal_dist(F, want) is Verdict.EQUAL

    def test_power_of_step_rejected(self):
        with pytest.raises(ParseError, match="smooth base"):
            d.parse_dist("(H(x))^2")

    def test_delta_times_delta_rejected(self):
        with pytest.raises(SemanticsError):
            d.parse_dist("delta(x)*delta(x)")

    def test_delta_times_step_rejected(self):
        with pytest.raises(SemanticsError):
            d.parse_dist("delta(x)*H(x)")
        with pytest.raises(SemanticsError):
            d.parse_dist("H(x)*delta(x-3)")

    def test_division_by_distribution_rejected(self):
        with pytest.raises(SemanticsError, match="divisor must be smooth"):
            d.parse_dist("H(x)/H(x)")

    def test_smooth_quotient_is_exact_division(self):
        # a/b between smooth factors is one quotient, as in the smooth
        # grammar, so an exact division keeps its polynomial normal form
        F = d.parse_dist("(x^2-1)/(x-1)*H(x)")
        assert d.poly_normal_form(F.pieces[1]) == d.poly_normal_form(
            d.parse_smooth_expr("x+1"))
        assert d.antiderivative(F) == d.parse_dist("(1/2*x^2+x)*H(x)")
        assert F.pieces[1] == d.parse_smooth_expr("(x^2-1)/(x-1)")

    def test_constant_divisor_unchanged(self):
        assert d.parse_dist("1/2*x^2*H(x)") == d.parse_dist("x^2*H(x)*1/2")
        assert d.parse_dist("x/3*H(x)") == d.parse_dist("(1/3)*x*H(x)")
        assert d.parse_dist("H(x)/(x-1)") == d.parse_dist("1/(x-1)*H(x)")

    def test_step_inside_smooth_function_rejected(self):
        with pytest.raises(ParseError):
            d.parse_dist("exp(H(x))")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            d.parse_dist("")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            d.parse_dist("H(x))")


class TestRoundTrips:
    def test_text_round_trip(self):
        for F in random_corpus(7, 40):
            G = d.parse_dist(d.format_dist(F))
            assert d.equal_dist(F, G) is Verdict.EQUAL

    def test_json_round_trip_exact(self):
        for F in random_corpus(8, 40):
            G = d.parse_dist_json(json.dumps(d.dist_to_jsonable(F)))
            assert G.breakpoints == F.breakpoints
            assert G.atoms == F.atoms
            assert d.equal_dist(F, G) is Verdict.EQUAL

    def test_json_inexact_atoms_survive(self):
        F = d.smooth_mul(d.exp_of(d.X), d.delta_dist(1))  # e at x = 1
        assert F.inexact_atoms
        G = d.parse_dist_json(json.dumps(d.dist_to_jsonable(F)))
        assert G.inexact_atoms == F.inexact_atoms

    def test_exact_and_inexact_atom_at_one_location(self):
        G = d.add(d.differentiate(d.smooth_mul(d.exp_of(d.X), d.heaviside(1))),
                  d.delta_dist(1))
        assert d.format_dist(G) == (
            "exp(x)*H(x-1) + delta(x-1) + "
            "(6121026514868073/2251799813685248)*delta(x-1)")
        assert d.format_dist(G, "json") == (
            '{"atoms": [{"im": "0", "k": 0, "re": "1", "w": "1"}], '
            '"breakpoints": ["1"], "inexact_atoms": [{"im": 0.0, "k": 0, '
            '"re": 2.718281828459045, "w": "1"}], "pieces": ["0", "exp(x)"]}')
        assert d.parse_dist_json(d.format_dist(G, "json")) == G

    def test_latex_of_float_coefficients(self):
        G = d.add(d.differentiate(d.smooth_mul(d.exp_of(d.X), d.heaviside(1))),
                  d.delta_dist(1))
        assert d.format_dist(G, "latex") == (
            r"\exp\left(x\right)\,H(x - 1) + \delta(x - 1) + "
            r"2.718281828459045\,\delta(x - 1)")
        F = d.parse_dist_json({"atoms": [], "inexact_atoms": [
            {"w": "0", "k": 1, "re": -1.5, "im": 2e-20},
            {"w": "2", "k": 0, "re": -0.25, "im": 0.0}]})
        assert d.format_dist(F, "latex") == (
            r"\left(-1.5 + 2\times 10^{-20}\,i\right)\,\delta^{(1)}(x) + "
            r"\left(-0.25\right)\,\delta(x - 2)")

    def test_latex_parenthesizes_negative_coefficients(self):
        F = d.parse_dist("-4*i*delta[1](x) + H(x)")
        assert d.format_dist(F, "latex") == (
            r"H(x) + \left(-4\,i\right)\,\delta^{(1)}(x)")
        G = d.parse_dist("H(x)*H(1-x) + (-4*i*x)*H(x-2)")
        assert d.format_dist(G, "latex") == (
            r"H(x)\,H(1 - x) + \left(-4\,i\,x\right)\,H(x - 2)")

    def test_json_accepts_dict_and_defaults(self):
        assert d.is_zero_dist(d.parse_dist_json({}))
        F = d.parse_dist_json({"breakpoints": ["1/2"], "pieces": ["0", "x"]})
        assert F.breakpoints == (Fraction(1, 2),)


class TestCliProducts:
    def test_mul_base(self):
        assert run("mul", "delta(x)", "H(x)") == (0, "delta(x)\n", "")
        assert run("mul", "H(x)", "delta(x)") == (0, "0\n", "")
        # as separate arguments the algebra product applies; within one
        # argument the same text is rejected construction syntax
        assert run("mul", "delta(x)", "delta(x)") == (0, "0\n", "")

    def test_mul_variants(self):
        assert run("mul", "delta(x)", "H(x)", "--variant", "star2")[1] == "0\n"
        assert run("mul", "delta(x)", "H(x)",
                   "--variant", "star5")[1] == "1/2*delta(x)\n"
        code, out, _ = run("mul", "H(x)", "delta(x)", "--variant", "star3")
        assert (code, out) == (0, "delta(x)\n")

    def test_mul_hormander(self):
        assert run("mul", "delta(x)", "H(x-1)",
                   "--variant", "hormander")[1] == "0\n"
        code, _, err = run("mul", "delta(x)", "H(x)", "--variant", "hormander")
        assert code == 2 and "intersect at 0" in err

    def test_mul_json_matches_library(self):
        code, out, _ = run("mul", "(1+x)*H(x)", "delta(x-1)", "--mode", "json")
        assert code == 0
        F = d.parse_dist("(1+x)*H(x)")
        G = d.parse_dist("delta(x-1)")
        want = json.dumps(d.dist_to_jsonable(d.star(F, G)), sort_keys=True)
        assert out == want + "\n"

    def test_bracket(self):
        assert run("bracket", "delta(x)", "H(x)") == (0, "delta(x)\n", "")

    def test_bracket_of_trees_with_inexact_atoms(self):
        """exp and quotient pieces against atoms whose expansion meets
        exp(1): every coefficient is a float, and the regular part, where
        the two products' pieces cancel, prints nothing (it printed as
        (-2*x^2 + 2*x^2) while the bracket was star(F,G) - star(G,F)).
        The coefficient at delta(x-1) is e, here the float nearest to it;
        its float sum adds each piece's polynomial part first."""
        F = ("exp(x)*H(x-1) + sin(x)/(x-3)*H(-x) "
             "+ (2/3*x^2 + exp(-x) - 3*x)*H(x+1)")
        G = "delta[1](x-1) + 2*delta(x+1) - 3*H(x+1)"
        assert run("bracket", F, G) == (0, (
            "(-7188812915856991/562949953421312)*delta(x+1) "
            "+ (6121026514868073/2251799813685248)*delta(x-1) "
            "+ (-6121026514868073/2251799813685248)*delta[1](x-1)\n"), "")
        code, out, err = run("bracket", F, G, "--mode", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "atoms": [], "breakpoints": ["-1", "1"],
            "inexact_atoms": [
                {"im": 0.0, "k": 0, "re": -12.769896990251423, "w": "-1"},
                {"im": 0.0, "k": 0, "re": 2.718281828459045, "w": "1"},
                {"im": 0.0, "k": 1, "re": -2.718281828459045, "w": "1"}],
            "pieces": ["0", "0", "0"]}

    def test_stdin_fallback(self):
        code, out, _ = run("mul", stdin="delta(x)\nH(x)\n")
        assert (code, out) == (0, "delta(x)\n")
        code, out, _ = run("mul", "-", "H(x)", stdin="delta(x)\n")
        assert (code, out) == (0, "delta(x)\n")

    def test_stdin_exhausted(self):
        code, _, err = run("mul", stdin="delta(x)\n")
        assert code == 1 and "standard input" in err


class TestCliCalculus:
    def test_diff(self):
        assert run("diff", "H(x)")[1] == "delta(x)\n"
        assert run("diff", "H(x)", "-n", "2")[1] == "delta[1](x)\n"
        assert run("diff", "H(x)", "-n", "0")[1] == "H(x)\n"

    def test_diff_negative_order(self):
        code, _, err = run("diff", "H(x)", "-n", "-1")
        assert code == 1 and "nonnegative" in err

    def test_antideriv(self):
        assert run("antideriv", "delta[1](x)")[1] == "delta(x)\n"
        assert run("antideriv", "H(x)")[1] == "x*H(x)\n"

    def test_antideriv_non_polynomial_piece(self):
        code, _, err = run("antideriv", "exp(x)*H(x)")
        assert code == 2 and err.startswith("error:")

    def test_action_of_delta_is_bump_value(self):
        code, out, _ = run("action", "delta(x)", "--bump", "-1,1")
        assert code == 0
        assert float(out) == pytest.approx(math.exp(-1), abs=1e-12)
        _, out, _ = run("action", "delta(x)", "--bump", "-1,1,2")
        assert float(out) == pytest.approx(2 * math.exp(-1), abs=1e-12)

    def test_action_bump_validation(self):
        assert run("action", "delta(x)", "--bump", "1,1")[0] == 1
        assert run("action", "delta(x)", "--bump", "1")[0] == 1

    def test_oracle_tracks_product(self):
        code, out, _ = run("oracle", "delta(x)", "H(x)", "--bump", "-1,1")
        assert code == 0
        assert float(out) == pytest.approx(math.exp(-1), abs=1e-6)

    def test_oracle_reverse_direction(self):
        code, out, _ = run("oracle", "delta(x)", "H(x)", "--bump", "-1,1",
                           "--direction", "-1")
        assert code == 0 and abs(float(out)) <= 1e-6

    def test_oracle_options(self):
        code, out, _ = run("oracle", "H(x)", "H(x)", "--bump", "-1,1",
                           "--eps-schedule", "1/100,1/1000",
                           "--extrapolation", "last-value", "--quad-nodes", "32")
        assert code == 0
        assert run("oracle", "H(x)", "H(x)", "--bump", "-1,1",
                   "--eps-schedule", "0")[0] == 1

    def test_quad_nodes_env(self, monkeypatch):
        monkeypatch.setenv("DISTALG_QUAD_NODES", "16")
        _, via_env, _ = run("action", "H(x)*H(1-x)", "--bump", "-2,2")
        monkeypatch.delenv("DISTALG_QUAD_NODES")
        _, via_flag, _ = run("action", "H(x)*H(1-x)", "--bump", "-2,2",
                             "--quad-nodes", "16")
        assert via_env == via_flag
        monkeypatch.setenv("DISTALG_QUAD_NODES", "junk")
        assert run("action", "delta(x)", "--bump", "-1,1")[0] == 1


class TestCliConfinement:
    def test_confine_text(self):
        code, out, _ = run("confine", "--ode", "1,0,0;0", "--interval", "0")
        assert code == 0
        assert out == "psi'' = 2*(delta(x) (*) psi') + (delta[1](x) (*) psi)\n"

    def test_confine_latex(self):
        _, out, _ = run("confine", "--ode", "1,0,0;0", "--interval", "0",
                        "--mode", "latex")
        assert "\\star" in out and "\\delta" in out and "\\psi''" in out

    def test_confine_json(self):
        code, out, _ = run("confine", "--ode", "1,0,0;0", "--interval", "0,1",
                           "--mode", "json")
        obj = json.loads(out)
        assert obj["interval"] == {"a": "0", "b": "1", "kind": "bounded"}
        assert obj["ode"]["coeffs"] == ["0", "0", "1"]
        assert len(obj["corrections"]) == 4
        assert {c["endpoint"] for c in obj["corrections"]} == {"lower", "upper"}

    def test_interval_with_negative_ends_after_a_space(self):
        code, out, err = run("residual", "--ode", "1,1;0", "--interval",
                             "-2,-1", "--", "H(x)")
        assert code == 0, err
        assert out == run("residual", "--ode", "1,1;0", "--interval=-2,-1",
                          "--", "H(x)")[1]

    def test_option_value_starting_with_minus_and_a_letter(self):
        code, out, err = run("confine", "--ode", "-x,1;0", "--interval", "0")
        assert code == 0, err
        assert out == run("confine", "--ode=-x,1;0", "--interval", "0")[1]

    def test_confine_bad_interval(self):
        assert run("confine", "--ode", "1,0;0", "--interval", "x")[0] == 1
        assert run("confine", "--ode", "1,0;0", "--interval", "1,0")[0] == 2

    def test_residual_zero_for_cutoff_solution(self):
        code, out, _ = run("residual", "--ode", "1,0,0;0", "--interval", "0",
                           "(3+2*x)*H(x)")
        assert (code, out) == (0, "0\n")

    def test_residual_nonzero_for_unconfined(self):
        _, out, _ = run("residual", "--ode", "1,0,0;0", "--interval", "0",
                        "3+2*x")
        assert out == "2*delta(x) + 3*delta[1](x)\n"

    def test_particular_rhs(self):
        code, out, _ = run("particular-rhs", "--ode", "1,0,0;0",
                           "--at", "0", "--values", "3,2")
        assert (code, out) == (0, "2*delta(x) + 3*delta[1](x)\n")

    def test_particular_rhs_reads_a_zero_normal_form_as_zero(self):
        """x/x - 1 is exactly 0 but for its pole at 0, where it is read."""
        want = run("particular-rhs", "--ode", "1,0,0;0", "--at", "0",
                   "--values", "0,1")
        assert want[:2] == (0, "delta(x)\n")
        assert run("particular-rhs", "--ode", "1,0,0;0", "--at", "0",
                   "--values", "x/x-1,1") == want

    def test_particular_rhs_rejects_nonconstant_values(self):
        code, _, err = run("particular-rhs", "--ode", "1,0;0",
                           "--at", "0", "--values", "x")
        assert code == 1 and "exact constants" in err

    def test_verify_equal(self):
        code, out, _ = run("verify", "--ode", "1,1;0", "--interval", "0",
                           "exp(-x)")
        assert code == 0
        assert "verdict: Equal" in out and "residual: 0" in out

    def test_verify_unequal(self):
        code, out, _ = run("verify", "--ode", "1,0,0;0", "--interval", "0",
                           "x^2")
        assert code == 0
        assert "verdict: Unequal" in out

    def test_verify_unknown_exits_three(self):
        code, out, _ = run("verify", "--ode", "1,0;2*exp(2*x)",
                           "--interval", "0", "exp(x)^2")
        assert code == 3
        assert "verdict: Unknown" in out

    def test_verify_json(self):
        code, out, _ = run("verify", "--ode", "1,1;0", "--interval", "0",
                           "exp(-x)", "--mode", "json")
        obj = json.loads(out)
        assert code == 0 and obj["verdict"] == "Equal"
        assert obj["leading_coefficient_nonvanishing_sampled"] is True

    def test_verify_warns_on_vanishing_leading_sample(self):
        _, out, _ = run("verify", "--ode", "exp(-10000*x^2),0;0",
                        "--interval", "0", "1")
        assert "warning: leading coefficient vanishes" in out


class TestFloatOverflow:
    """A value beyond the float range ends in a domain error, exit 2."""

    def assert_domain_error(self, *argv):
        code, out, err = run(*argv)
        assert (code, out) == (2, ""), err
        assert err.startswith("error:") and "not" in err

    def test_constant_in_weak_action(self):
        self.assert_domain_error("action", "10^400*H(x)", "--bump", "-1,1")

    def test_bump_end(self):
        self.assert_domain_error("action", "H(x)", "--bump", "0,1e400")
        self.assert_domain_error("oracle", "H(x)", "H(x)",
                                 "--bump=-1e400,0")

    def test_constant_times_atom(self):
        self.assert_domain_error("fmt", "10^400*exp(x)*delta(x-1)")

    def test_derivative_value_that_overflows(self):
        self.assert_domain_error("fmt", "delta[1](x-2)*exp(729*x)")

    def test_jump_that_overflows(self):
        self.assert_domain_error("diff", "exp(800*x)*H(x-1)")
        self.assert_domain_error("diff", "exp(800*x)*H(x-1)", "--mode", "json")

    def test_verify_with_exact_residual(self):
        # the residual is exactly zero; only sampled equality overflows
        code, out, _ = run("verify", "--ode", "1,1;0", "--interval", "0",
                           "10^400*exp(-x)")
        assert code == 0 and out.startswith("verdict: Equal\n")

    def test_inexact_atom_must_be_finite(self):
        with pytest.raises(d.DomainError):
            d.InexactAtom(Fraction(0), 0, complex("nan"))
        with pytest.raises(d.DomainError):
            d.parse_dist_json('{"breakpoints": [], "pieces": ["0"], '
                              '"atoms": [], "inexact_atoms": [{"w": "0", '
                              '"k": 0, "re": Infinity, "im": 0}]}')


class TestExactPoles:
    """A pole at a point where a value must be exact is refused, even
    behind a term without an exact value; no float stands in for it."""

    PIECE = "(exp(x+1)*sin(x+1) + 1/(x^2-1/100))"

    @pytest.mark.parametrize("argv", [("diff", PIECE + "*H(x-1/10)"),
                                      ("fmt", PIECE + "*delta(x-1/10)")],
                             ids=["jump", "atom"])
    def test_pole_behind_an_inexact_term(self, argv):
        assert run(*argv) == (2, "", "error: exact evaluation at a pole\n")

    @pytest.mark.parametrize("argv", [("fmt", "1/(x/x-1)*H(x)"),
                                      ("mul", "1/(x/x-1)*H(x)", "H(x)"),
                                      ("fmt", "1/(x-x)*H(x)")],
                             ids=["fmt", "mul", "constant"])
    def test_zero_polynomial_denominator(self, argv):
        """A denominator whose normal form is the zero polynomial is refused
        where the quotient is built, like a constant 0; no piece defined
        nowhere is printed."""
        assert run(*argv) == (1, "", "error: division by zero (at position "
                                     "1)\n")
        x_over_x = d.quotient_of(d.X, d.X)
        with pytest.raises(ZeroDivisionError):
            d.quotient_of(d.ONE, d.sum_of(x_over_x, d.const(-1)))
        with pytest.raises(ZeroDivisionError):  # x/0 built by hand
            d.quotient_of(d.ONE, d.Quotient(d.X, d.ZERO))
        assert d.poly_normal_form(d.quotient_of(d.ONE, x_over_x)) == (
            d.ComplexRational(1),)

    def test_merge_beyond_float_range_needs_no_sample(self):
        """Assembly joins only provably equal pieces, so a breakpoint no
        float can hold is never sampled."""
        big = "1" + "0" * 400
        code, out, err = run("fmt", f"exp(x)*H(x-{big}) + sin(x)*H(x-1)")
        assert (code, err) == (0, "")
        assert out == (f"sin(x)*H(x-1)*H(-x+{big}) + (exp(x) + sin(x))"
                       f"*H(x-{big})\n")


class TestCliMisc:
    def test_fmt(self):
        assert run("fmt", "H(x)+H(x)")[1] == "2*H(x)\n"
        assert run("fmt", "H(x)+H(x)", "--mode", "latex")[1] == "2\\,H(x)\n"
        obj = json.loads(run("fmt", "delta(x-1)", "--mode", "json")[1])
        assert obj["atoms"] == [{"w": "1", "k": 0, "re": "1", "im": "0"}]

    def test_parse_error_exit(self):
        code, _, err = run("fmt", "H((")
        assert code == 1 and err.startswith("error:")

    def test_semantics_error_exit(self):
        assert run("fmt", "delta(x)*delta(x)")[0] == 1

    def test_unknown_command(self):
        code, _, err = run("nope")
        assert code == 1 and "usage error" in err

    def test_argument_starting_with_minus_and_a_letter(self):
        code, out, err = run("mul", "-delta(x)", "H(x)")
        assert (code, out) == (0, "-delta(x)\n"), err
        assert run("diff", "-n", "2", "-x*H(x)")[:2] == (0, "-delta(x)\n")
        assert run("diff", "-i*H(x)")[:2] == (0, "(-i)*delta(x)\n")

    def test_option_names_and_stdin_dash_stay(self):
        assert run("diff", "-n2", "x^2")[:2] == (0, "2\n")
        code, out, _ = run("diff", "-h")
        assert code == 0 and "usage:" in out
        assert run("diff", "-nx", "H(x)")[0] == 1
        assert run("fmt", "-", stdin="H(x)+H(x)\n")[:2] == (0, "2*H(x)\n")

    def test_help(self):
        code, out, _ = run("--help")
        assert code == 0 and "COMMAND" in out

    def test_closed_stdout_exits_1_without_traceback(self):
        src = str(Path(d.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "distalg.cli", "fmt", "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env)
        # the child reads its input first, so it writes only after the
        # reader of its stdout is gone
        proc.stdout.close()
        _, err = proc.communicate(b"H(x)+H(x)\n", timeout=120)
        assert proc.returncode == 1
        assert b"Traceback" not in err, err.decode()
