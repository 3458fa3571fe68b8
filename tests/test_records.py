"""The node and record classes are frozen ``__slots__`` classes built by
``scalars.record``: their repr, equality, hash, immutability, copy and
pickle are those of the frozen dataclasses they replaced."""

import copy
import pickle
import weakref
from fractions import Fraction

import pytest

import distalg as d
import distalg.expr as expr_mod
from distalg import fmt, ode
from distalg.errors import DomainError, ShapeError
from distalg.scalars import as_fraction

CR = d.ComplexRational
X = d.X
C = d.const(Fraction(-1, 2))
P = d.parse_smooth_expr("1 + x^2")
E = d.Exp(X)
STYLE_ARGS = [f"t{i}" for i in range(22)]


def instances():
    """One instance of every record class, by class name."""
    return {
        "Const": C, "Var": X, "Poly": P, "Sum": d.Sum((X, E)),
        "Product": d.Product((C, E)), "Power": d.Power(E, 2),
        "Quotient": d.Quotient(d.ONE, P), "Exp": E, "Sin": d.Sin(X),
        "Cos": d.Cos(P),
        "DeltaAtom": d.DeltaAtom(as_fraction(1), 2, CR(3, -1)),
        "InexactAtom": d.InexactAtom(as_fraction(Fraction(1, 2)), 0,
                                     0.5 - 2j),
        "PiecewiseSmooth": d.PiecewiseSmooth((as_fraction(0),),
                                             (d.ZERO, d.ONE)),
        "GenDist": d.parse_dist("H(x) + 2*delta(x)"),
        "LinearODE": d.make_ode([d.ONE, d.ZERO, d.ONE], X),
        "HalfLine": ode.HalfLine(as_fraction(0)),
        "Bounded": ode.Bounded(as_fraction(-1), as_fraction(Fraction(5, 2))),
        "CorrectionTerm": ode.CorrectionTerm(2, 1, 2, "lower", 1, 1),
        "ConfinedEquation": ode.ConfinedEquation(
            d.make_ode([d.ONE, d.ONE]), ode.HalfLine(as_fraction(0)),
            (ode.CorrectionTerm(1, 1, 1, "lower", 1, 1),)),
        "ConfinementReport": ode.ConfinementReport(
            d.Verdict.EQUAL, d.zero_dist(), ((0.5, 1 + 0j),), 0.0, True),
        "TestFunction": d.make_bump(-1, 1),
        "QuadratureConfig": d.QuadratureConfig(nodes=32),
        "_Style": fmt._Style(*STYLE_ARGS),
    }


_CR1 = "ComplexRational(re=Fraction(1, 1), im=Fraction(0, 1))"
_CR0 = "ComplexRational(re=Fraction(0, 1), im=Fraction(0, 1))"
_CH = "ComplexRational(re=Fraction(-1, 2), im=Fraction(0, 1))"
_STEP = (f"PiecewiseSmooth(breakpoints=(Fraction(0, 1),), pieces=("
         f"Const(value={_CR0}), Const(value={_CR1})))")
# the reprs of the frozen dataclasses, as they printed
GOLDEN = {
    "Const": f"Const(value={_CH})",
    "Var": "Var()",
    "Poly": "Poly(k=(1, (1, 0, 1), ()))",
    "Sum": "Sum(terms=(Var(), Exp(arg=Var())))",
    "Product": f"Product(factors=(Const(value={_CH}), Exp(arg=Var())))",
    "Power": "Power(base=Exp(arg=Var()), n=2)",
    "Quotient": (f"Quotient(num=Const(value={_CR1}), "
                 f"den=Poly(k=(1, (1, 0, 1), ())))"),
    "Exp": "Exp(arg=Var())",
    "Sin": "Sin(arg=Var())",
    "Cos": "Cos(arg=Poly(k=(1, (1, 0, 1), ())))",
    "DeltaAtom": ("DeltaAtom(w=Fraction(1, 1), k=2, coeff=ComplexRational("
                  "re=Fraction(3, 1), im=Fraction(-1, 1)))"),
    "InexactAtom": "InexactAtom(w=Fraction(1, 2), k=0, coeff=(0.5-2j))",
    "PiecewiseSmooth": _STEP,
    "GenDist": (f"GenDist(regular={_STEP}, all_atoms=(DeltaAtom(w=Fraction("
                f"0, 1), k=0, coeff=ComplexRational(re=Fraction(2, 1), "
                f"im=Fraction(0, 1))),))"),
    "LinearODE": (f"LinearODE(coeffs=(Const(value={_CR1}), Const(value="
                  f"{_CR0}), Const(value={_CR1})), rhs=Var(), "
                  f"leading_sampled_nonzero=True)"),
    "HalfLine": "HalfLine(a=Fraction(0, 1))",
    "Bounded": "Bounded(a=Fraction(-1, 1), b=Fraction(5, 2))",
    "CorrectionTerm": ("CorrectionTerm(i=2, j=1, binomial=2, "
                       "endpoint='lower', hside_order=1, sign=1)"),
    "ConfinedEquation": (
        f"ConfinedEquation(base=LinearODE(coeffs=(Const(value={_CR1}), "
        f"Const(value={_CR1})), rhs=Const(value={_CR0}), "
        f"leading_sampled_nonzero=True), interval=HalfLine(a=Fraction(0, "
        f"1)), corrections=(CorrectionTerm(i=1, j=1, binomial=1, "
        f"endpoint='lower', hside_order=1, sign=1),))"),
    "ConfinementReport": (
        f"ConfinementReport(verdict=<Verdict.EQUAL: 0>, residual=GenDist("
        f"regular=PiecewiseSmooth(breakpoints=(), pieces=(Const(value="
        f"{_CR0}),)), all_atoms=()), samples=((0.5, (1+0j)),), "
        f"classical_max=0.0, leading_sampled_nonzero=True)"),
    "TestFunction": (
        "TestFunction(a=Fraction(-1, 1), b=Fraction(1, 1), body=Exp(arg="
        "Quotient(num=Const(value=ComplexRational(re=Fraction(-1, 1), "
        "im=Fraction(0, 1))), den=Poly(k=(1, (1, 0, -1), ())))))"),
    "QuadratureConfig": (
        "QuadratureConfig(nodes=32, eps_schedule=(Fraction(1, 100), "
        "Fraction(1, 1000), Fraction(1, 10000)), extrapolation='richardson')"),
    "_Style": "_Style(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fmt._Style.__match_args__,
                                     STYLE_ARGS)) + ")",
}


def test_golden_reprs():
    got = {k: repr(v) for k, v in instances().items()}
    assert got == GOLDEN


def test_style_fields_in_order():
    assert fmt._Style.__match_args__[:3] == ("open", "close", "mul")
    assert fmt._Style.__match_args__[-1] == "psi_order"
    assert len(fmt._Style.__match_args__) == 22


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_frozen_hashed_copied_and_pickled(name):
    r = instances()[name]
    fields = type(r).__match_args__
    assert not hasattr(r, "__dict__")
    assert hash(r) == hash(tuple(getattr(r, f) for f in fields))
    for f in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(r, f, 1)
    for f in fields:
        with pytest.raises(AttributeError):
            delattr(r, f)
    for other in (copy.copy(r), copy.deepcopy(r),
                  pickle.loads(pickle.dumps(r))):
        assert type(other) is type(r)
        assert other == r and hash(other) == hash(r)
        assert repr(other) == repr(r)


def test_equality_holds_within_one_class():
    a, b = X, E
    assert d.Sum((a, b)) != d.Product((a, b))
    assert d.Sum((a, b)) == d.Sum((a, b))
    assert d.Exp(X) != d.Sin(X) and d.Sin(X) != d.Cos(X)
    assert ode.HalfLine(as_fraction(0)) != as_fraction(0)
    assert d.Var() == X and d.Var() != d.Const(CR(1))


def test_node_weakref_and_memos_are_slots():
    e = d.Sum((X, d.Exp(d.Quotient(d.ONE, P))))
    r = weakref.ref(e)
    assert r() is e
    assert not hasattr(e, "_hash_memo")
    h = hash(e)
    assert e._hash_memo == h == hash(e)
    expr_mod.pole_denominators(e)
    assert hasattr(e, "_pole_memo")
    assert copy.copy(e) == e and not hasattr(copy.copy(e), "_pole_memo")


def test_construction_by_position_keyword_and_default():
    cfg = d.QuadratureConfig(16, extrapolation="last-value")
    assert (cfg.nodes, cfg.extrapolation) == (16, "last-value")
    assert cfg.eps_schedule == d.QuadratureConfig().eps_schedule
    st = fmt._Style(**dict(zip(fmt._Style.__match_args__, STYLE_ARGS)))
    assert st == fmt._Style(*STYLE_ARGS)
    for bad in (lambda: d.QuadratureConfig(nodes=8, colour=1),
                lambda: d.QuadratureConfig(8, nodes=8),
                lambda: d.QuadratureConfig(8, (), "richardson", 1),
                lambda: fmt._Style(*STYLE_ARGS[:-1]),
                lambda: ode.CorrectionTerm(1, 1, 1, "lower", 1),
                lambda: d.Power(X), lambda: d.Var(X), lambda: d.Const()):
        with pytest.raises(TypeError):
            bad()


def test_hand_built_values_are_still_checked():
    w = as_fraction(1)
    with pytest.raises(ShapeError):
        d.PiecewiseSmooth((as_fraction(1), as_fraction(0)),
                          (d.ZERO, d.ZERO, d.ZERO))
    with pytest.raises(ShapeError):
        d.GenDist(d.PiecewiseSmooth((), (d.ZERO,)),
                  (d.DeltaAtom(w, 0, CR(1)),))
    with pytest.raises(DomainError):
        d.InexactAtom(w, 0, complex("nan"))
    with pytest.raises(ShapeError):
        d.QuadratureConfig(nodes=0)
    # the unchecked route is for shapes valid by construction only
    G = d.GenDist._unchecked(d.PiecewiseSmooth((), (d.ZERO,)), ())
    assert G == d.zero_dist()
