"""Text, LaTeX and JSON rendering.

Text output round-trips through the parser: the regular part prints as
piece·H(...) indicator products, atoms as coeff·delta[k](x-w).  LaTeX is
display-only.  JSON is the exact interchange form: rational strings for
breakpoints and atom data, expression strings for pieces.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import List, Optional

from .dist import DeltaAtom, GenDist
from .expr import (Const, Cos, Exp, Power, Product, Quotient, Sin, Sum, Var,
                   SmoothExpr, ONE, ZERO)
from .ode import (Bounded, ConfinedEquation, ConfinementReport, HalfLine,
                  LinearODE)
from .scalars import ComplexRational, frac_str

# precedence levels: 1 sum, 2 product/quotient, 3 power operand, 4 atom


def _const_text(v: ComplexRational) -> tuple:
    if v.im == 0:
        s = frac_str(v.re)
        level = 1 if v.re < 0 else (4 if v.re.denominator == 1 else 2)
        return s, level
    if v.re == 0:
        if v.im == 1:
            return "i", 4
        if v.im == -1:
            return "-i", 1
        return f"{frac_str(v.im)}*i", 1 if v.im < 0 else 2
    im = v.im
    op = "+" if im > 0 else "-"
    mag = abs(im)
    istr = "i" if mag == 1 else f"{frac_str(mag)}*i"
    return f"{frac_str(v.re)}{op}{istr}", 1


def _fmt(e: SmoothExpr, prec: int) -> str:
    s, level = _fmt_level(e)
    if level < prec:
        return f"({s})"
    return s


def _fmt_level(e: SmoothExpr) -> tuple:
    if isinstance(e, Const):
        return _const_text(e.value)
    if isinstance(e, Var):
        return "x", 4
    if isinstance(e, Sum):
        parts = [_fmt(e.terms[0], 1)]
        for t in e.terms[1:]:
            s = _fmt(t, 1)
            if s.startswith("-"):
                parts.append(" - " + s[1:])
            else:
                parts.append(" + " + s)
        return "".join(parts), 1
    if isinstance(e, Product):
        fs = e.factors
        if (isinstance(fs[0], Const) and fs[0].value.im == 0
                and fs[0].value.re < 0):
            if fs[0].value.re == -1:
                rest = fs[1:]
            else:
                rest = (Const(ComplexRational(-fs[0].value.re,
                                              Fraction(0))),) + fs[1:]
            body = rest[0] if len(rest) == 1 else Product(rest)
            return "-" + _fmt(body, 2), 1
        return "*".join(_fmt(f, 2) for f in fs), 2
    if isinstance(e, Power):
        return f"{_fmt(e.base, 3)}^{e.n}", 3
    if isinstance(e, Quotient):
        return f"{_fmt(e.num, 2)}/{_fmt(e.den, 3)}", 2
    if isinstance(e, Exp):
        return f"exp({_fmt(e.arg, 0)})", 4
    if isinstance(e, Sin):
        return f"sin({_fmt(e.arg, 0)})", 4
    if isinstance(e, Cos):
        return f"cos({_fmt(e.arg, 0)})", 4
    raise TypeError(f"not a SmoothExpr: {e!r}")


def format_expr(e: SmoothExpr) -> str:
    """Parseable text for a smooth expression."""
    return _fmt(e, 0)


# ---------------------------------------------------------------------------
# LaTeX for expressions


def _frac_latex(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    sign = "-" if x < 0 else ""
    return sign + r"\tfrac{%d}{%d}" % (abs(x.numerator), x.denominator)


def _const_latex(v: ComplexRational) -> tuple:
    if v.im == 0:
        return _frac_latex(v.re), 1 if v.re < 0 else 4
    if v.re == 0:
        if v.im == 1:
            return "i", 4
        if v.im == -1:
            return "-i", 1
        return _frac_latex(v.im) + r"\,i", 2
    op = "+" if v.im > 0 else "-"
    mag = abs(v.im)
    istr = "i" if mag == 1 else _frac_latex(mag) + r"\,i"
    return f"{_frac_latex(v.re)} {op} {istr}", 1


def _ltx(e: SmoothExpr, prec: int) -> str:
    s, level = _ltx_level(e)
    if level < prec:
        return r"\left(" + s + r"\right)"
    return s


def _ltx_level(e: SmoothExpr) -> tuple:
    if isinstance(e, Const):
        return _const_latex(e.value)
    if isinstance(e, Var):
        return "x", 4
    if isinstance(e, Sum):
        parts = [_ltx(e.terms[0], 1)]
        for t in e.terms[1:]:
            s = _ltx(t, 1)
            parts.append(" - " + s[1:] if s.startswith("-") else " + " + s)
        return "".join(parts), 1
    if isinstance(e, Product):
        fs = e.factors
        if (isinstance(fs[0], Const) and fs[0].value.im == 0
                and fs[0].value.re < 0):
            if fs[0].value.re == -1:
                rest = fs[1:]
            else:
                rest = (Const(ComplexRational(-fs[0].value.re,
                                              Fraction(0))),) + fs[1:]
            body = rest[0] if len(rest) == 1 else Product(rest)
            return "-" + _ltx(body, 2), 1
        return r"\,".join(_ltx(f, 2) for f in fs), 2
    if isinstance(e, Power):
        return f"{_ltx(e.base, 3)}^{{{e.n}}}", 3
    if isinstance(e, Quotient):
        return r"\frac{%s}{%s}" % (_ltx(e.num, 0), _ltx(e.den, 0)), 4
    if isinstance(e, Exp):
        return r"\exp\left(" + _ltx(e.arg, 0) + r"\right)", 4
    if isinstance(e, Sin):
        return r"\sin\left(" + _ltx(e.arg, 0) + r"\right)", 4
    if isinstance(e, Cos):
        return r"\cos\left(" + _ltx(e.arg, 0) + r"\right)", 4
    raise TypeError(f"not a SmoothExpr: {e!r}")


def format_expr_latex(e: SmoothExpr) -> str:
    return _ltx(e, 0)


# ---------------------------------------------------------------------------
# distributions


def _shift_text(w: Fraction, reflect: bool) -> str:
    """Argument string: x-w, or w-x written as -x+w, for the linear-argument
    grammar."""
    if not reflect:
        if w == 0:
            return "x"
        op = "-" if w > 0 else "+"
        return f"x{op}{frac_str(abs(w))}"
    if w == 0:
        return "-x"
    op = "+" if w > 0 else "-"
    return f"-x{op}{frac_str(abs(w))}"


def _indicator_factors(breaks, i: int) -> List[str]:
    """H factors selecting the i-th piece interval."""
    out = []
    if i >= 1:
        out.append(f"H({_shift_text(breaks[i - 1], False)})")
    if i < len(breaks):
        out.append(f"H({_shift_text(breaks[i], True)})")
    return out


def _atom_text(w: Fraction, k: int, coeff_str: Optional[str]) -> str:
    name = "delta" if k == 0 else f"delta[{k}]"
    body = f"{name}({_shift_text(w, False)})"
    if coeff_str is None:
        return body
    return f"{coeff_str}*{body}"


def _coeff_prefix(v: ComplexRational) -> tuple:
    """(prefix string or None for unit magnitude, sign); real coefficients
    print their sign through the term join."""
    if v.im == 0:
        sign = -1 if v.re < 0 else 1
        mag = abs(v.re)
        if mag == 1:
            return None, sign
        return _fmt(Const(ComplexRational(mag)), 2), sign
    s, level = _const_text(v)
    return (f"({s})" if level < 2 else s), 1


def _float_rational(x: float) -> str:
    """Exact rational text of a float (floats are rationals)."""
    return frac_str(Fraction(x))


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
    terms: List[tuple] = []  # (sign, text)
    breaks = F.breakpoints
    for i, piece in enumerate(F.pieces):
        if piece == ZERO:
            continue
        hs = _indicator_factors(breaks, i)
        if not hs:
            terms.append((1, format_expr(piece)))
            continue
        if piece == ONE:
            terms.append((1, "*".join(hs)))
            continue
        terms.append((1, "*".join([_fmt(piece, 2)] + hs)))
    for a in F.all_atoms:
        if isinstance(a, DeltaAtom):
            pre, sign = _coeff_prefix(a.coeff)
            terms.append((sign, _atom_text(a.w, a.k, pre)))
            continue
        c = complex(a.coeff)
        if c.imag == 0:
            pre = f"({_float_rational(c.real)})"
        else:
            op = "+" if c.imag >= 0 else "-"
            pre = (f"({_float_rational(c.real)}{op}"
                   f"{_float_rational(abs(c.imag))}*i)")
        terms.append((1, _atom_text(a.w, a.k, pre)))
    return _join_signed(terms)


def _latex_shift(w: Fraction, reflect: bool) -> str:
    if not reflect:
        if w == 0:
            return "x"
        op = "-" if w > 0 else "+"
        return f"x {op} {_frac_latex(abs(w))}"
    if w == 0:
        return "-x"
    return f"{_frac_latex(w)} - x"


def _decimal_latex(x: float) -> str:
    mantissa, _, exponent = repr(x).partition("e")
    if not exponent:
        return mantissa
    return mantissa + r"\times 10^{%d}" % int(exponent)


def _float_latex(c: complex) -> tuple:
    """Like _const_latex for a float coefficient: decimals, the real part
    alone when the imaginary part is zero."""
    if c.imag == 0:
        return _decimal_latex(c.real), 1 if c.real < 0 else 4
    op = "+" if c.imag >= 0 else "-"
    return (f"{_decimal_latex(c.real)} {op} "
            f"{_decimal_latex(abs(c.imag))}" + r"\,i"), 1


def _latex_factor(s: str, level: int) -> str:
    """A coefficient as the leading factor of a term; terms join with
    ' + ', so a sum or a leading minus sign goes in parentheses."""
    if level < 2 or s.startswith("-"):
        return r"\left(" + s + r"\right)"
    return s


def format_dist_latex(F: GenDist) -> str:
    terms: List[str] = []
    breaks = F.breakpoints
    for i, piece in enumerate(F.pieces):
        if piece == ZERO:
            continue
        hs = []
        if i >= 1:
            hs.append(f"H({_latex_shift(breaks[i - 1], False)})")
        if i < len(breaks):
            hs.append(f"H({_latex_shift(breaks[i], True)})")
        body = r"\," .join(hs)
        if piece == ONE and hs:
            terms.append(body)
        elif hs:
            terms.append(_latex_factor(*_ltx_level(piece)) + r"\," + body)
        else:
            terms.append(format_expr_latex(piece))
    for a in F.all_atoms:
        if isinstance(a, DeltaAtom):
            cs, lvl = _const_latex(a.coeff)
        else:
            cs, lvl = _float_latex(complex(a.coeff))
        pre = "" if a.coeff == ComplexRational.of(1) else \
            _latex_factor(cs, lvl) + r"\,"
        sup = "" if a.k == 0 else f"^{{({a.k})}}"
        terms.append(pre + r"\delta%s(%s)" % (sup, _latex_shift(a.w, False)))
    if not terms:
        return "0"
    return " + ".join(terms)


def dist_to_jsonable(F: GenDist) -> dict:
    out = {
        "breakpoints": [frac_str(b) for b in F.breakpoints],
        "pieces": [format_expr(p) for p in F.pieces],
        "atoms": [{"w": frac_str(a.w), "k": a.k, "re": frac_str(a.coeff.re),
                   "im": frac_str(a.coeff.im)} for a in F.atoms],
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
        return json.dumps(dist_to_jsonable(F), sort_keys=True)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# ODE objects


_PRIMES = {0: "", 1: "'", 2: "''", 3: "'''"}


def _psi_name(i: int) -> str:
    if i in _PRIMES:
        return "psi" + _PRIMES[i]
    return f"psi^({i})"


def _ode_lhs_text(ode: LinearODE) -> str:
    """sum a_i·psi^(i), highest order first."""
    terms = []
    for i, c in enumerate(ode.coeffs):
        if c == ZERO:
            continue
        terms.append(_psi_name(i) if c == ONE
                     else f"({format_expr(c)})*{_psi_name(i)}")
    return " + ".join(reversed(terms)) if terms else "0"


def format_ode_text(ode: LinearODE) -> str:
    return f"{_ode_lhs_text(ode)} = {format_expr(ode.rhs)}"


def format_confined_text(ceq: ConfinedEquation) -> str:
    ode = ceq.base
    lhs = _ode_lhs_text(ode)
    if isinstance(ceq.interval, HalfLine):
        chi = f"H({_shift_text(ceq.interval.a, False)})"
    else:
        chi = (f"H({_shift_text(ceq.interval.a, False)})"
               f"*H({_shift_text(ceq.interval.b, True)})")
    rhs_terms = []
    if ode.rhs != ZERO:
        rhs_terms.append((1, f"{chi}*({format_expr(ode.rhs)})"))
    for rec in ceq.corrections:
        loc = ceq.interval.a if (isinstance(ceq.interval, HalfLine)
                                 or rec.endpoint == "lower") else ceq.interval.b
        datom = _atom_text(loc, rec.j - 1, None)
        a_i = ode.coeffs[rec.i]
        coeff_bits = [] if rec.binomial == 1 else [str(rec.binomial)]
        if a_i != ONE:
            coeff_bits.append(f"({format_expr(a_i)})")
        pre = "*".join(coeff_bits) + "*" if coeff_bits else ""
        rhs_terms.append((rec.sign,
                          f"{pre}({datom} (*) {_psi_name(rec.i - rec.j)})"))
    return f"{lhs} = {_join_signed(rhs_terms)}"


def _psi_latex(i: int) -> str:
    if i in _PRIMES:
        return "\\psi" + _PRIMES[i]
    return f"\\psi^{{({i})}}"


def _delta_latex(w: Fraction, k: int) -> str:
    head = "\\delta" if k == 0 else f"\\delta^{{({k})}}"
    return f"{head}\\left({_latex_shift(w, False)}\\right)"


def format_confined_latex(ceq: ConfinedEquation) -> str:
    ode = ceq.base
    lhs_terms = []
    for i, c in enumerate(ode.coeffs):
        if c == ZERO:
            continue
        lhs_terms.append(_psi_latex(i) if c == ONE
                         else f"\\left({format_expr_latex(c)}\\right){_psi_latex(i)}")
    lhs = " + ".join(reversed(lhs_terms)) if lhs_terms else "0"
    if isinstance(ceq.interval, HalfLine):
        chi = f"H\\left({_latex_shift(ceq.interval.a, False)}\\right)"
    else:
        chi = (f"H\\left({_latex_shift(ceq.interval.a, False)}\\right)"
               f"H\\left({_latex_shift(ceq.interval.b, True)}\\right)")
    rhs_terms = []
    if ode.rhs != ZERO:
        rhs_terms.append((1, f"{chi}\\left({format_expr_latex(ode.rhs)}\\right)"))
    for rec in ceq.corrections:
        loc = ceq.interval.a if (isinstance(ceq.interval, HalfLine)
                                 or rec.endpoint == "lower") else ceq.interval.b
        datom = _delta_latex(loc, rec.j - 1)
        a_i = ode.coeffs[rec.i]
        coeff_bits = [] if rec.binomial == 1 else [str(rec.binomial)]
        if a_i != ONE:
            coeff_bits.append(f"\\left({format_expr_latex(a_i)}\\right)")
        pre = "".join(coeff_bits)
        if pre:
            pre += "\\,"
        rhs_terms.append((rec.sign,
                          f"{pre}{datom} \\star {_psi_latex(rec.i - rec.j)}"))
    return f"{lhs} = {_join_signed(rhs_terms)}"


def confined_to_jsonable(ceq: ConfinedEquation) -> dict:
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
