"""Text, LaTeX and JSON rendering.

Text output round-trips through the parser: the regular part prints as
piece·H(...) indicator products, atoms as coeff·delta[k](x-w).  LaTeX is
display-only.  JSON is the exact interchange form: rational strings for
breakpoints and atom data, expression strings for pieces.

One set of rules renders both notations: ``expr``'s walker runs the table
``_RENDER``, whose rules receive their operands rendered as (string, level)
pairs, the level saying how tightly the string binds, and parenthesize an
operand below the level its position needs.  Every token in which text and
LaTeX differ is a value in one of two style tables, ``_TEXT`` and
``_LATEX``, which the walker hands to the rules.  Only the term joins of a
distribution differ in code: text carries a real coefficient's sign into a
signed join, LaTeX parenthesizes the coefficient.  Rationals print from
their integers: a ``ComplexRational``'s and a ``Rat``'s, never a
``Fraction``'s arithmetic.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from .dist import DeltaAtom, GenDist, _piece_interval
from .errors import ShapeError
from .expr import (Const, Cos, Exp, Poly, Power, Product, Quotient, Sin, Sum,
                   Var, SmoothExpr, ONE, ZERO, _interpret, _poly_terms)
from .scalars import CR_ONE, ComplexRational, frac_str, record

if TYPE_CHECKING:  # the ODE formatters' types; ode loads only when used
    from .ode import ConfinedEquation, ConfinementReport, LinearODE


def _frac(n: int, d: int, st: _Style) -> str:
    """n/d in lowest terms for integers n and d > 0; an integer alone."""
    g = gcd(n, d)
    if g == d:
        return str(n // g)
    return st.frac % ("-" if n < 0 else "", abs(n) // g, d // g)


def _float_rational(x: float) -> str:
    """Exact rational text of a float (floats are rationals)."""
    return _frac(*x.as_integer_ratio(), _TEXT)


def _decimal_latex(x: float) -> str:
    mantissa, _, exponent = repr(x).partition("e")
    if not exponent:
        return mantissa
    return mantissa + r"\times 10^{%d}" % int(exponent)


# precedence levels: 1 sum, 2 product/quotient, 3 power operand, 4 atom


@record
class _Style:
    """The tokens in which the two notations differ."""
    open: str  # grouping parentheses
    close: str
    mul: str  # joins the factors of a product
    power: str  # % (base, exponent)
    quot: str  # % (numerator, denominator)
    quot_prec: Tuple[int, int]  # levels the numerator and denominator need
    func: str  # % (name, argument)
    frac: str  # % (sign, |p|, q) of a rational p/q that is no integer
    float_str: Callable[[float], str]  # parts of a float coefficient
    frac_level: int  # level of a positive non-integer rational
    imag: str  # follows a non-unit imaginary magnitude
    neg_imag_level: int  # a factor: (-2*i)*x against -2\,i\,x
    plus: str  # + and - inside a constant or an H or delta argument
    minus: str
    reflected: str  # the argument w - x, % (sign, |w|)
    reflected_signs: Tuple[str, str]  # that sign for w > 0 and for w < 0
    juxt: str  # joins the factors of an ODE term
    star: str  # % (delta, psi)
    delta: str
    delta_order: str
    psi: str
    psi_order: str


_TEXT = _Style(open="(", close=")", mul="*", power="%s^%d", quot="%s/%s",
               quot_prec=(2, 3), func="%s(%s)", frac="%s%d/%d",
               float_str=_float_rational, frac_level=2, imag="*i",
               neg_imag_level=1, plus="+", minus="-", reflected="-x%s%s",
               reflected_signs=("+", "-"), juxt="*", star="(%s (*) %s)",
               delta="delta", delta_order="[%d]", psi="psi",
               psi_order="^(%d)")

_LATEX = _Style(open=r"\left(", close=r"\right)", mul=r"\,",
                power="%s^{%d}", quot=r"\frac{%s}{%s}", quot_prec=(0, 0),
                func=r"\%s\left(%s\right)", frac=r"%s\tfrac{%d}{%d}",
                float_str=_decimal_latex, frac_level=4, imag=r"\,i",
                neg_imag_level=2, plus=" + ", minus=" - ",
                reflected="%s%s - x", reflected_signs=("", "-"), juxt="",
                star=r"%s \star %s", delta=r"\delta", delta_order="^{(%d)}",
                psi=r"\psi", psi_order="^{(%d)}")


def _const(v: ComplexRational, st: _Style) -> tuple:
    """(string, level) of an exact constant, from its integers: the real
    part a/d and the imaginary part b/d."""
    a, b, d = v.re_num, v.im_num, v.den
    if not b:
        return _frac(a, d, st), 1 if a < 0 else 4 if d == 1 else st.frac_level
    if not a:
        if b == d:
            return "i", 4
        if b == -d:
            return "-i", 1
        return _frac(b, d, st) + st.imag, st.neg_imag_level if b < 0 else 2
    op = st.plus if b > 0 else st.minus
    istr = "i" if abs(b) == d else _frac(abs(b), d, st) + st.imag
    return _frac(a, d, st) + op + istr, 1


def _render(e: SmoothExpr, st: _Style) -> tuple:
    """(string, level) of e; ShapeError when e is too deep to walk."""
    try:
        return _interpret(e, _RENDER, st)
    except RecursionError:
        raise ShapeError("expression too deep to render within the recursion"
                         f" limit of {sys.getrecursionlimit()}") from None


def _group(e: SmoothExpr, prec: int, st: _Style) -> str:
    return _paren(*_render(e, st), prec, st)


def _paren(s: str, level: int, prec: int, st: _Style) -> str:
    """s, in parentheses when its level is below prec."""
    if level < prec:
        return st.open + s + st.close
    return s


def _render_poly(e: Poly, st: _Style) -> tuple:
    """From the coefficients, each c*x^i a product."""
    terms = []
    for i, c in _poly_terms(e.k):
        xi = ("x", 4) if i == 1 else (st.power % ("x", i), 3)
        terms.append(_const(c, st) if i == 0 else
                     _product(None if c == CR_ONE else c, [xi], st))
    return _sum(terms)


# (string, precedence level) of a smooth expression, from those of its
# operands; a leading constant factor is a product's scalar
_RENDER = {
    Const: lambda e, st: _const(e.value, st), Var: lambda e, st: ("x", 4),
    Poly: _render_poly,
    Sum: lambda e, st, *ts: _sum(ts),
    Product: lambda e, st, *fs: (
        _product(e.factors[0].value, fs[1:], st)
        if e.factors[0].__class__ is Const else _product(None, fs, st)),
    Power: lambda e, st, b: (st.power % (_paren(*b, 3, st), e.n), 3),
    Quotient: lambda e, st, n, d: (st.quot % (
        _paren(*n, st.quot_prec[0], st), _paren(*d, st.quot_prec[1], st)), 2),
    **dict.fromkeys((Exp, Sin, Cos), lambda e, st, a: (
        st.func % (e.__class__.__name__.lower(), a[0]), 4)),
}


def _sum(terms: Sequence[tuple]) -> tuple:
    """(string, level) of rendered terms as a sum: ' + ' between them, or
    ' - ' in place of a term's leading '-'.  No term is below level 1."""
    if len(terms) == 1:
        return terms[0]
    out = [terms[0][0]]
    for s, _ in terms[1:]:
        out.append(" - " + s[1:] if s.startswith("-") else " + " + s)
    return "".join(out), 1


def _product(c: Optional[ComplexRational], fs: Sequence[tuple], st: _Style
             ) -> tuple:
    """(string, level) of the scalar c (None for none) times the rendered
    factors fs; a real negative c puts its sign in front."""
    if c is not None and c.is_real and c.re_num < 0:
        rest = _product(None if c == -CR_ONE else -c, fs, st)
        return "-" + _paren(*rest, 2, st), 1
    if c is not None:
        fs = [_const(c, st), *fs]
    if len(fs) == 1:
        return fs[0]
    return st.mul.join(_paren(s, level, 2, st) for s, level in fs), 2


def format_expr(e: SmoothExpr) -> str:
    """Parseable text for a smooth expression."""
    return _group(e, 0, _TEXT)


def format_expr_latex(e: SmoothExpr) -> str:
    return _group(e, 0, _LATEX)


# ---------------------------------------------------------------------------
# distributions

_PLAIN = ("(", ")")


def _shift(w: Fraction, reflect: bool, st: _Style) -> str:
    """The argument x-w, or w-x when reflect."""
    n = w.numerator
    if n == 0:
        return "-x" if reflect else "x"
    mag = _frac(abs(n), w.denominator, st)
    if reflect:
        return st.reflected % (st.reflected_signs[n < 0], mag)
    return "x" + (st.plus if n < 0 else st.minus) + mag


def _heavisides(lo: Optional[Fraction], hi: Optional[Fraction], st: _Style,
                paren: Tuple[str, str] = _PLAIN) -> List[str]:
    """H factors selecting ]lo, hi[; None is an open end."""
    out = []
    if lo is not None:
        out.append("H" + paren[0] + _shift(lo, False, st) + paren[1])
    if hi is not None:
        out.append("H" + paren[0] + _shift(hi, True, st) + paren[1])
    return out


def _delta(w: Fraction, k: int, st: _Style,
           paren: Tuple[str, str] = _PLAIN) -> str:
    head = st.delta if k == 0 else st.delta + st.delta_order % k
    return head + paren[0] + _shift(w, False, st) + paren[1]


def _factor(s: str, level: int, st: _Style) -> str:
    """A coefficient as the leading factor of a term; terms join with
    ' + ', so a sum or a leading minus sign goes in parentheses."""
    if level < 2 or s.startswith("-"):
        return st.open + s + st.close
    return s


def _float_coeff(c: complex, st: _Style) -> tuple:
    """Like _const for a float coefficient: the real part alone when the
    imaginary part is zero."""
    if c.imag == 0:
        return st.float_str(c.real), 1 if c.real < 0 else 4
    op = st.plus if c.imag >= 0 else st.minus
    return (st.float_str(c.real) + op + st.float_str(abs(c.imag))
            + st.imag), 1


def _piece_terms(F: GenDist, st: _Style) -> List[str]:
    """Each nonzero piece times the H factors of its interval."""
    out = []
    breaks = F.breakpoints
    for i, piece in enumerate(F.pieces):
        if piece == ZERO:
            continue
        hs = st.mul.join(_heavisides(*_piece_interval(breaks, i), st))
        if not hs:
            out.append(_group(piece, 0, st))
        elif piece == ONE:
            out.append(hs)
        else:
            out.append(_factor(*_render(piece, st), st) + st.mul + hs)
    return out


def _join_signed(terms: List[tuple]) -> str:
    """Join (sign, text) terms with ' + ' and ' - '; '0' when empty."""
    if not terms:
        return "0"
    out = []
    for idx, (sign, text) in enumerate(terms):
        if idx == 0:
            out.append(("-" if sign < 0 else "") + text)
        else:
            out.append((" - " if sign < 0 else " + ") + text)
    return "".join(out)


def format_dist_text(F: GenDist) -> str:
    """A real coefficient's sign goes to the term join; a float coefficient
    is written as the exact rational of the float."""
    st = _TEXT
    terms = [(1, t) for t in _piece_terms(F, st)]  # (sign, text)
    for a in F.all_atoms:
        sign = 1
        if not isinstance(a, DeltaAtom):
            pre = st.open + _float_coeff(complex(a.coeff), st)[0] + st.close
        elif a.coeff.is_real:
            n, d = a.coeff.re_num, a.coeff.den
            sign = -1 if n < 0 else 1
            pre = None if abs(n) == d else _frac(abs(n), d, st)
        else:
            pre = _factor(*_const(a.coeff, st), st)
        body = _delta(a.w, a.k, st)
        terms.append((sign, body if pre is None else pre + st.mul + body))
    return _join_signed(terms)


def format_dist_latex(F: GenDist) -> str:
    st = _LATEX
    terms = _piece_terms(F, st)
    for a in F.all_atoms:
        if isinstance(a, DeltaAtom):
            cs, lvl = _const(a.coeff, st)
        else:
            cs, lvl = _float_coeff(complex(a.coeff), st)
        pre = "" if a.coeff == CR_ONE else _factor(cs, lvl, st) + st.mul
        terms.append(pre + _delta(a.w, a.k, st))
    if not terms:
        return "0"
    return " + ".join(terms)


def dist_to_jsonable(F: GenDist) -> dict:
    out = {
        "breakpoints": [frac_str(b) for b in F.breakpoints],
        "pieces": [format_expr(p) for p in F.pieces],
        "atoms": [{"w": frac_str(a.w), "k": a.k,
                   "re": _frac(a.coeff.re_num, a.coeff.den, _TEXT),
                   "im": _frac(a.coeff.im_num, a.coeff.den, _TEXT)}
                  for a in F.atoms],
    }
    if F.inexact_atoms:
        out["inexact_atoms"] = [{"w": frac_str(a.w), "k": a.k,
                                 "re": complex(a.coeff).real,
                                 "im": complex(a.coeff).imag}
                                for a in F.inexact_atoms]
    return out


def format_dist(F: GenDist, mode: str = "text") -> str:
    """Render a distribution; text mode parses back to an Equal value."""
    if mode == "text":
        return format_dist_text(F)
    if mode == "latex":
        return format_dist_latex(F)
    if mode == "json":
        import json
        return json.dumps(dist_to_jsonable(F), sort_keys=True)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# ODE objects


_PRIMES = {0: "", 1: "'", 2: "''", 3: "'''"}


def _psi(i: int, st: _Style) -> str:
    if i in _PRIMES:
        return st.psi + _PRIMES[i]
    return st.psi + st.psi_order % i


def _coeff_group(c: SmoothExpr, st: _Style) -> str:
    return st.open + _group(c, 0, st) + st.close


def _ode_lhs(ode: LinearODE, st: _Style) -> str:
    """sum a_i·psi^(i), highest order first."""
    terms = []
    for i, c in enumerate(ode.coeffs):
        if c == ZERO:
            continue
        terms.append(_psi(i, st) if c == ONE
                     else _coeff_group(c, st) + st.juxt + _psi(i, st))
    return " + ".join(reversed(terms)) if terms else "0"


def format_ode_text(ode: LinearODE) -> str:
    return f"{_ode_lhs(ode, _TEXT)} = {format_expr(ode.rhs)}"


def _confined(ceq: ConfinedEquation, st: _Style) -> str:
    """lhs = chi·rhs + the signed corrections, each
    binomial·a_i·(delta^(j-1)(x-endpoint) ⋆ psi^(i-j))."""
    from .ode import HalfLine, _endpoint_loc
    ode = ceq.base
    paren = (st.open, st.close)
    rhs_terms = []
    if ode.rhs != ZERO:
        hi = None if isinstance(ceq.interval, HalfLine) else ceq.interval.b
        chi = st.juxt.join(_heavisides(ceq.interval.a, hi, st, paren))
        rhs_terms.append((1, chi + st.juxt + _coeff_group(ode.rhs, st)))
    for rec in ceq.corrections:
        datom = _delta(_endpoint_loc(ceq, rec), rec.j - 1, st, paren)
        a_i = ode.coeffs[rec.i]
        coeff_bits = [] if rec.binomial == 1 else [str(rec.binomial)]
        if a_i != ONE:
            coeff_bits.append(_coeff_group(a_i, st))
        pre = st.juxt.join(coeff_bits) + st.mul if coeff_bits else ""
        rhs_terms.append((rec.sign,
                          pre + st.star % (datom, _psi(rec.i - rec.j, st))))
    return f"{_ode_lhs(ode, st)} = {_join_signed(rhs_terms)}"


def format_confined_text(ceq: ConfinedEquation) -> str:
    return _confined(ceq, _TEXT)


def format_confined_latex(ceq: ConfinedEquation) -> str:
    return _confined(ceq, _LATEX)


def confined_to_jsonable(ceq: ConfinedEquation) -> dict:
    from .ode import HalfLine
    if isinstance(ceq.interval, HalfLine):
        interval = {"kind": "halfline", "a": frac_str(ceq.interval.a)}
    else:
        interval = {"kind": "bounded", "a": frac_str(ceq.interval.a),
                    "b": frac_str(ceq.interval.b)}
    return {
        "ode": {"coeffs": [format_expr(c) for c in ceq.base.coeffs],
                "rhs": format_expr(ceq.base.rhs)},
        "interval": interval,
        "corrections": [{"i": r.i, "j": r.j, "binomial": r.binomial,
                         "endpoint": r.endpoint,
                         "heaviside_derivative_order": r.hside_order,
                         "sign": r.sign}
                        for r in ceq.corrections],
    }


def report_to_jsonable(rep: ConfinementReport) -> dict:
    return {
        "verdict": str(rep.verdict),
        "residual": dist_to_jsonable(rep.residual),
        "samples": [{"x": x, "value": [v.real, v.imag]}
                    for x, v in rep.samples],
        "classical_max": rep.classical_max,
        "leading_coefficient_nonvanishing_sampled": rep.leading_sampled_nonzero,
    }
