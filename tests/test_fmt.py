"""Golden strings for the text and LaTeX renderers.

Each case pins both notations of one object, so a change to either
renderer, or to a token the two share, shows up as a one-line diff."""

import random
from fractions import Fraction as Q

import pytest

import distalg as d
from distalg.dist import DeltaAtom, InexactAtom, _assemble
from distalg.expr import Const, Cos, Exp, Power, Product, Quotient, Sin, Sum, X

from conftest import bench_gen


def c(re, im=0):
    return Const(d.ComplexRational(Q(re), Q(im)))


def atoms(*atom_list):
    return _assemble([], [d.ZERO], atom_list)


def cr(re, im=0):
    return d.ComplexRational(Q(re), Q(im))


EXPRESSIONS = [  # (expression, text, LaTeX)
    (X, "x", "x"),
    (Sum((c(1), X, Product((c(-2), X)))),
     "1 + x - 2*x",
     r"1 + x - 2\,x"),
    (Product((c(3), X, Exp(X))),
     "3*x*exp(x)",
     r"3\,x\,\exp\left(x\right)"),
    (Product((c(-1), X, Sin(X))),
     "-x*sin(x)",
     r"-x\,\sin\left(x\right)"),
    (Product((c(-3), Sum((c(1), X)))),
     "-3*(1 + x)",
     r"-3\,\left(1 + x\right)"),
    (Product((Sum((c(1), X)), Cos(X))),
     "(1 + x)*cos(x)",
     r"\left(1 + x\right)\,\cos\left(x\right)"),
    (Power(Sum((c(1), X)), 3),
     "(1 + x)^3",
     r"\left(1 + x\right)^{3}"),
    (Quotient(Sum((c(1), X)), Power(X, 2)),
     "(1 + x)/x^2",
     r"\frac{1 + x}{x^{2}}"),
    (Quotient(X, Product((c(2), X))),
     "x/(2*x)",
     r"\frac{x}{2\,x}"),
    (Quotient(c(-2), Sum((c(1), X))),
     "(-2)/(1 + x)",
     r"\frac{-2}{1 + x}"),
    (Exp(Product((c(-1), Power(X, 2)))),
     "exp(-x^2)",
     r"\exp\left(-x^{2}\right)"),
    (Sin(Quotient(X, c(2))),
     "sin(x/2)",
     r"\sin\left(\frac{x}{2}\right)"),
    (Cos(Sum((X, c(-1)))),
     "cos(x - 1)",
     r"\cos\left(x - 1\right)"),
]

CONSTANTS = [  # alone, as a product factor, or as a power base or summand
    (c(-3), "-3", "-3"),
    (c(Q(1, 2)), "1/2", r"\tfrac{1}{2}"),
    (c(Q(-1, 2)), "-1/2", r"-\tfrac{1}{2}"),
    (c(0, 1), "i", "i"),
    (c(0, -1), "-i", "-i"),
    (c(0, 2), "2*i", r"2\,i"),
    (c(0, -2), "-2*i", r"-2\,i"),
    (c(0, Q(3, 2)), "3/2*i", r"\tfrac{3}{2}\,i"),
    (c(1, 1), "1+i", "1 + i"),
    (c(1, -2), "1-2*i", r"1 - 2\,i"),
    (c(Q(-1, 2), Q(3, 2)), "-1/2+3/2*i", r"-\tfrac{1}{2} + \tfrac{3}{2}\,i"),
    (Product((c(0, -2), X)), "(-2*i)*x", r"-2\,i\,x"),
    (Product((c(1, 1), X)), "(1+i)*x", r"\left(1 + i\right)\,x"),
    (Product((c(Q(1, 2)), X)), "1/2*x", r"\tfrac{1}{2}\,x"),
    (Power(c(Q(1, 2)), 2), "(1/2)^2", r"\tfrac{1}{2}^{2}"),
    (Power(c(0, -1), 2), "(-i)^2", r"\left(-i\right)^{2}"),
    (Sum((X, c(0, -2))), "x - 2*i", r"x - 2\,i"),
    (Sum((X, c(-1, 1))), "x - 1+i", "x - 1 + i"),
]


@pytest.mark.parametrize("e, text, latex", EXPRESSIONS + CONSTANTS)
def test_expression(e, text, latex):
    assert d.format_expr(e) == text
    assert d.format_expr_latex(e) == latex


def test_latex_groups_a_quotient_raised_to_a_power():
    e = d.parse_smooth_expr("(1/x)^2")
    assert d.format_expr(e) == "(1/x)^2"
    assert d.format_expr_latex(e) == r"\left(\frac{1}{x}\right)^{2}"


DISTRIBUTIONS = [  # (distribution, text, LaTeX)
    (d.indicator(0, 2), "H(x)*H(-x+2)", r"H(x)\,H(2 - x)"),
    (d.indicator(Q(1, 3), 4),
     "H(x-1/3)*H(-x+4)",
     r"H(x - \tfrac{1}{3})\,H(4 - x)"),
    (d.indicator(Q(-5, 2), 0),
     "H(x+5/2)*H(-x)",
     r"H(x + \tfrac{5}{2})\,H(-x)"),
    (d.indicator(-3, -1), "H(x+3)*H(-x-1)", r"H(x + 3)\,H(-1 - x)"),
    (d.heaviside(Q(-1, 2)), "H(x+1/2)", r"H(x + \tfrac{1}{2})"),
    (_assemble([1], [c(1), d.ZERO]), "H(-x+1)", "H(1 - x)"),
    (_assemble([0], [X, Sum((c(1), X))]),
     "x*H(-x) + (1 + x)*H(x)",
     r"x\,H(-x) + \left(1 + x\right)\,H(x)"),
    (_assemble([0], [d.ZERO, Product((c(-2), X))]),
     "(-2*x)*H(x)",
     r"\left(-2\,x\right)\,H(x)"),
    (_assemble([0], [d.ZERO, c(0, -2)]),
     "(-2*i)*H(x)",
     r"\left(-2\,i\right)\,H(x)"),
    (_assemble([0], [d.ZERO, c(Q(1, 2))]), "1/2*H(x)", r"\tfrac{1}{2}\,H(x)"),
    (_assemble([], [Exp(X)]), "exp(x)", r"\exp\left(x\right)"),
    (d.zero_dist(), "0", "0"),
    (d.delta_dist(0, 0), "delta(x)", r"\delta(x)"),
    (d.delta_dist(Q(1, 2), 1),
     "delta[1](x-1/2)",
     r"\delta^{(1)}(x - \tfrac{1}{2})"),
    (d.delta_dist(-2, 3), "delta[3](x+2)", r"\delta^{(3)}(x + 2)"),
    (atoms(DeltaAtom(Q(0), 0, cr(-1)), DeltaAtom(Q(1), 1, cr(Q(3, 2))),
           DeltaAtom(Q(2), 3, cr(Q(-3, 2)))),
     "-delta(x) + 3/2*delta[1](x-1) - 3/2*delta[3](x-2)",
     r"\left(-1\right)\,\delta(x) + \tfrac{3}{2}\,\delta^{(1)}(x - 1) + "
     r"\left(-\tfrac{3}{2}\right)\,\delta^{(3)}(x - 2)"),
    (atoms(DeltaAtom(Q(0), 0, cr(0, 2)), DeltaAtom(Q(1), 0, cr(1, -1)),
           DeltaAtom(Q(2), 0, cr(0, -1))),
     "2*i*delta(x) + (1-i)*delta(x-1) + (-i)*delta(x-2)",
     r"2\,i\,\delta(x) + \left(1 - i\right)\,\delta(x - 1) + "
     r"\left(-i\right)\,\delta(x - 2)"),
    (atoms(InexactAtom(Q(0), 0, complex(0.5, 0)),
           InexactAtom(Q(1), 1, complex(-1.5, 2.0)),
           InexactAtom(Q(2), 0, complex(1.0, 2e-20)),
           InexactAtom(Q(3), 0, complex(1.0, 0))),
     "(1/2)*delta(x) + (-3/2+2*i)*delta[1](x-1) + "
     "(1+6646139978924579/332306998946228968225951765070086144*i)"
     "*delta(x-2) + (1)*delta(x-3)",
     r"0.5\,\delta(x) + \left(-1.5 + 2.0\,i\right)\,\delta^{(1)}(x - 1) + "
     r"\left(1.0 + 2\times 10^{-20}\,i\right)\,\delta(x - 2) + "
     r"1.0\,\delta(x - 3)"),
    (atoms(InexactAtom(Q(0), 0, complex(-0.25, -3e-9)),
           InexactAtom(Q(1), 0, complex(1e-20, 0))),
     "(-1/4-7253554917687775/2417851639229258349412352*i)*delta(x) + "
     "(6646139978924579/664613997892457936451903530140172288)*delta(x-1)",
     r"\left(-0.25 - 3\times 10^{-9}\,i\right)\,\delta(x) + "
     r"1\times 10^{-20}\,\delta(x - 1)"),
]


@pytest.mark.parametrize("F, text, latex", DISTRIBUTIONS)
def test_distribution(F, text, latex):
    assert d.format_dist(F) == text
    assert d.format_dist(F, "latex") == latex


ODE4 = d.make_ode([1, 0, 0, 0, 2], d.parse_smooth_expr("x"))
ODE2 = d.make_ode([1, d.parse_smooth_expr("x"), 3],
                  d.parse_smooth_expr("exp(x)"))


def test_ode_text():
    assert d.format_ode_text(ODE4) == "(2)*psi^(4) + psi = x"
    ode = d.make_ode([d.parse_smooth_expr("1+x"), 0, 1])
    assert d.format_ode_text(ode) == "psi'' + (1 + x)*psi = 0"


CONFINED = [  # (confined equation, text, LaTeX)
    (d.confine_halfline(ODE2, Q(1, 2)),
     "(3)*psi'' + (x)*psi' + psi = H(x-1/2)*(exp(x)) + "
     "(x)*(delta(x-1/2) (*) psi) + 2*(3)*(delta(x-1/2) (*) psi') + "
     "(3)*(delta[1](x-1/2) (*) psi)",
     r"\left(3\right)\psi'' + \left(x\right)\psi' + \psi = "
     r"H\left(x - \tfrac{1}{2}\right)\left(\exp\left(x\right)\right) + "
     r"\left(x\right)\,\delta\left(x - \tfrac{1}{2}\right) \star \psi + "
     r"2\left(3\right)\,\delta\left(x - \tfrac{1}{2}\right) \star \psi' + "
     r"\left(3\right)\,\delta^{(1)}\left(x - \tfrac{1}{2}\right) \star \psi"),
    (d.confine_interval(ODE2, -1, 2),
     "(3)*psi'' + (x)*psi' + psi = H(x+1)*H(-x+2)*(exp(x)) + "
     "(x)*(delta(x+1) (*) psi) + 2*(3)*(delta(x+1) (*) psi') + "
     "(3)*(delta[1](x+1) (*) psi) - (x)*(delta(x-2) (*) psi) - "
     "2*(3)*(delta(x-2) (*) psi') - (3)*(delta[1](x-2) (*) psi)",
     r"\left(3\right)\psi'' + \left(x\right)\psi' + \psi = "
     r"H\left(x + 1\right)H\left(2 - x\right)\left(\exp\left(x\right)\right)"
     r" + \left(x\right)\,\delta\left(x + 1\right) \star \psi + "
     r"2\left(3\right)\,\delta\left(x + 1\right) \star \psi' + "
     r"\left(3\right)\,\delta^{(1)}\left(x + 1\right) \star \psi - "
     r"\left(x\right)\,\delta\left(x - 2\right) \star \psi - "
     r"2\left(3\right)\,\delta\left(x - 2\right) \star \psi' - "
     r"\left(3\right)\,\delta^{(1)}\left(x - 2\right) \star \psi"),
    (d.confine_halfline(ODE4, -3),
     "(2)*psi^(4) + psi = H(x+3)*(x) + 4*(2)*(delta(x+3) (*) psi''') + "
     "6*(2)*(delta[1](x+3) (*) psi'') + 4*(2)*(delta[2](x+3) (*) psi') + "
     "(2)*(delta[3](x+3) (*) psi)",
     r"\left(2\right)\psi^{(4)} + \psi = H\left(x + 3\right)\left(x\right)"
     r" + 4\left(2\right)\,\delta\left(x + 3\right) \star \psi''' + "
     r"6\left(2\right)\,\delta^{(1)}\left(x + 3\right) \star \psi'' + "
     r"4\left(2\right)\,\delta^{(2)}\left(x + 3\right) \star \psi' + "
     r"\left(2\right)\,\delta^{(3)}\left(x + 3\right) \star \psi"),
]


@pytest.mark.parametrize("ceq, text, latex", CONFINED)
def test_confined_equation(ceq, text, latex):
    assert d.format_confined_text(ceq) == text
    assert d.format_confined_latex(ceq) == latex


# -- deep trees and exact rationals --------------------------------------------


def _sin_chain(depth):
    e = X
    for _ in range(depth):
        e = Sin(e)
    return e


@pytest.mark.parametrize("render", [
    d.format_expr, d.format_expr_latex,
    *(lambda e, mode=mode: d.format_dist(
        d.GenDist._unchecked(d.PiecewiseSmooth._unchecked((), (e,)), ()),
        mode) for mode in ("text", "latex", "json"))],
    ids=["format_expr", "format_expr_latex", "text", "latex", "json"])
def test_a_tree_too_deep_to_render_is_a_shape_error(render):
    """A hand-built 3,000-deep chain ends in a typed error that names the
    recursion limit, not in a RecursionError."""
    with pytest.raises(d.ShapeError, match="recursion limit"):
        render(_sin_chain(3000))


def test_textio_distributions_format_without_fractions(monkeypatch):
    """The long sums and wide products of the textio benchmark, seeds 0-9,
    print in every mode from the integers of their rationals."""
    gen = bench_gen()
    dists = []
    for seed in range(10):
        rng = random.Random(seed)
        dists.append(gen.build_dist(d, gen.long_sum(rng, 100)))
        F, G = (gen.build_dist(d, gen.wide_dist(rng)) for _ in range(2))
        dists.append(d.star(F, G))
    dists = [F for F in dists if not F.inexact_atoms]
    want = [[d.format_dist(F, m) for m in ("text", "latex", "json")]
            for F in dists]
    built = []
    new = Q.__new__

    def counted(cls, *args, **kw):
        built.append(args)
        return new(cls, *args, **kw)

    monkeypatch.setattr(Q, "__new__", counted)
    got = [[d.format_dist(F, m) for m in ("text", "latex", "json")]
           for F in dists]
    monkeypatch.undo()
    assert built == []
    assert got == want
