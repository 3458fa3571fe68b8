"""Exact algebra of piecewise-smooth functions with Dirac atoms.

Distributions are kept in the canonical shape regular-part + finite delta
combination, with rational breakpoints and exact complex-rational
coefficients.  On top of that sit a closed-form one-sided product and its
variants, the disjoint-support product, the Lie bracket, distributional
derivative and antiderivative, a quadrature oracle that evaluates the same
products through translated weak actions, and an ODE transform that confines
general solutions to an interval.

The public names are listed once, in one table from each module to the names
it defines; ``__all__`` is read from it.  A name's module is loaded on first
use (PEP 562), so ``import distalg`` loads only ``star`` and the modules it
needs (``errors``, ``scalars``, ``expr``, ``dist``), and ``weak``, ``ode``,
``parser`` and ``fmt`` wait until one of their names is asked for.
"""

from importlib import import_module

_PUBLIC = {
    "errors": ("DistAlgError", "DomainError", "ShapeError", "OverlapError",
               "EpsilonTooLarge", "UnsupportedPiece",
               "DegenerateLeadingCoefficient", "SemanticsError",
               "ParseError"),
    "scalars": ("ComplexRational", "as_fraction", "frac_str"),
    "expr": ("SmoothExpr", "Const", "Var", "Poly", "Sum", "Product", "Power",
             "Quotient", "Exp", "Sin", "Cos", "X", "ZERO", "ONE", "const",
             "sum_of", "product_of", "power_of", "quotient_of", "exp_of",
             "sin_of", "cos_of", "neg", "sub_expr", "diff_expr", "diff_n",
             "eval_expr", "eval_exact", "eval_num", "poly_normal_form",
             "expr_from_poly", "expr_equal", "subst", "shift_expr",
             "Verdict", "worst_verdict"),
    "dist": ("DeltaAtom", "InexactAtom", "PiecewiseSmooth", "GenDist",
             "make_piecewise", "smooth_dist", "zero_dist", "heaviside",
             "indicator", "delta_dist", "is_zero_dist", "normalize_dist",
             "align", "add", "scale", "sub", "smooth_times_atom",
             "smooth_mul", "differentiate", "antiderivative", "translate",
             "singular_support", "equal_dist"),
    "star": ("VariantTag", "star", "star_variant", "bracket", "hormander"),
    "weak": ("TestFunction", "make_bump", "bump_values", "bump_deriv_values",
             "bump_derivative", "QuadratureConfig", "action",
             "epsilon_product_action", "star_oracle"),
    "ode": ("LinearODE", "HalfLine", "Bounded", "CorrectionTerm",
            "ConfinedEquation", "ConfinementReport", "make_ode",
            "confine_halfline", "confine_interval", "indicator_dist",
            "correction_values", "residual", "particular_rhs",
            "verify_confinement"),
    "parser": ("parse_dist", "parse_smooth_expr", "parse_rational",
               "parse_dist_json"),
    "fmt": ("format_expr", "format_expr_latex", "format_dist",
            "format_dist_text", "format_dist_latex", "dist_to_jsonable",
            "format_ode_text", "format_confined_text",
            "format_confined_latex", "confined_to_jsonable",
            "report_to_jsonable"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_HOME]

# Bound now, not on first use: the first import of the submodule
# `distalg.star` sets this package's attribute `star` to that module, and
# `__getattr__` is only asked for attributes that are missing.
star = import_module(".star", __name__).star


def __getattr__(name):
    """Import a public name's module, or a submodule, on first use."""
    if name in _HOME:
        value = getattr(import_module("." + _HOME[name], __name__), name)
        globals()[name] = value
        return value
    if name in _PUBLIC:
        return import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
