"""Recursive-descent parsing of smooth expressions and distributions.

Distribution syntax is construction syntax: ``H(...)`` factors act as
pointwise indicators, ``smooth*delta[k](x-w)`` expands through the atom
product rule, and products never mean the one-sided algebra product (that is
a command, not notation).  A product that would need the algebra -- two
delta factors, or a delta against a piecewise factor -- is rejected with a
SemanticsError.

Grammar sketch (rationals are ``p/q`` or decimal digits, parsed exactly):

    dist    := ('+'|'-')? dterm (('+'|'-') dterm)*
    dterm   := dfactor (('*'|'/') dfactor)*      -- '/' needs a smooth divisor
    dfactor := 'H' '(' linarg ')'
             | 'delta' ('[' uint ']')? '(' linarg ')'
             | '(' dist ')' ('^' uint)?          -- power needs smooth content
             | smooth-factor
    linarg  := ('+'|'-')? 'x' (('+'|'-') rational)? | rational '-' 'x'
    smooth  := full arithmetic over rationals, 'i', 'x', exp/sin/cos,
               with '+', '-', '*', '/', '^' uint and parentheses
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple, Union

from .dist import (DeltaAtom, GenDist, InexactAtom, _assemble, add,
                   delta_dist, make_piecewise, scale, smooth_dist, smooth_mul)
from .errors import ParseError, SemanticsError
from .expr import (SmoothExpr, X, ONE, const, cos_of, exp_of, neg, power_of,
                   product_of, quotient_of, sin_of, sum_of)
from .scalars import ComplexRational, as_fraction

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<id>[A-Za-z_]+)"
                       r"|(?P<op>[-+*/^()\[\],;]))")


@dataclass(frozen=True)
class _Tok:
    kind: str  # num | id | op | end
    text: str
    pos: int


def _tokenize(text: str) -> List[_Tok]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            bad = len(text) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.group("num"):
            out.append(_Tok("num", m.group("num"), m.start("num")))
        elif m.group("id"):
            out.append(_Tok("id", m.group("id"), m.start("id")))
        else:
            out.append(_Tok("op", m.group("op"), m.start("op")))
        pos = m.end()
    out.append(_Tok("end", "", len(text)))
    return out


_Value = Tuple[str, Union[SmoothExpr, GenDist]]  # ("smooth", e) | ("dist", F)

# Parentheses, function arguments and unary signs each open one level; the
# limit keeps the descent and the later tree walks inside Python's
# recursion limit.
_MAX_DEPTH = 100


def _pointwise_mul(A: GenDist, B: GenDist, pos: int) -> GenDist:
    from .dist import align
    if A.all_atoms or B.all_atoms:
        raise SemanticsError(
            "a delta factor can only be multiplied by smooth factors in "
            "construction syntax; use the mul command for the algebra "
            f"product (at position {pos})")
    Aa, Ba = align(A, B)
    pieces = tuple(product_of(p, q) for p, q in zip(Aa.pieces, Ba.pieces))
    return _assemble(Aa.breakpoints, pieces)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, ch: str) -> _Tok:
        t = self.peek()
        if t.kind != "op" or t.text != ch:
            raise ParseError(f"expected {ch!r}", t.pos)
        return self.next()

    def at_op(self, *chs: str) -> bool:
        t = self.peek()
        return t.kind == "op" and t.text in chs

    def nested(self, parse, pos: int):
        """Run one nested parse one level deeper; errors past _MAX_DEPTH."""
        if self.depth == _MAX_DEPTH:
            raise ParseError(f"nesting deeper than {_MAX_DEPTH} levels", pos)
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    # -- numbers ----------------------------------------------------------

    def uint(self) -> int:
        t = self.peek()
        if t.kind != "num" or "." in t.text:
            raise ParseError("expected a nonnegative integer", t.pos)
        self.next()
        return int(t.text)

    def rational(self) -> Fraction:
        t = self.peek()
        if t.kind != "num":
            raise ParseError("expected a number", t.pos)
        self.next()
        val = Fraction(t.text)
        if self.at_op("/") and self.toks[self.i + 1].kind == "num":
            self.next()
            q = Fraction(self.next().text)
            if q == 0:
                raise ParseError("zero denominator", t.pos)
            val = val / q
        return val

    # -- smooth expressions ----------------------------------------------

    def smooth_expr(self) -> SmoothExpr:
        e = self.smooth_term()
        while self.at_op("+", "-"):
            op = self.next().text
            rhs = self.smooth_term()
            e = sum_of(e, rhs if op == "+" else neg(rhs))
        return e

    def smooth_term(self) -> SmoothExpr:
        e = self.smooth_unary()
        while self.at_op("*", "/"):
            op = self.next().text
            rhs = self.smooth_unary()
            if op == "*":
                e = product_of(e, rhs)
            else:
                try:
                    e = quotient_of(e, rhs)
                except ZeroDivisionError:
                    raise ParseError("division by zero", self.peek().pos)
        return e

    def smooth_unary(self) -> SmoothExpr:
        if self.at_op("-"):
            return neg(self.nested(self.smooth_unary, self.next().pos))
        if self.at_op("+"):
            return self.nested(self.smooth_unary, self.next().pos)
        return self.smooth_postfix()

    def smooth_postfix(self) -> SmoothExpr:
        e = self.smooth_primary()
        while self.at_op("^"):
            self.next()
            e = power_of(e, self.uint())
        return e

    def smooth_primary(self) -> SmoothExpr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return const(Fraction(t.text))
        if t.kind == "id":
            if t.text == "x":
                self.next()
                return X
            if t.text == "i":
                self.next()
                return const(ComplexRational(Fraction(0), Fraction(1)))
            if t.text in ("exp", "sin", "cos"):
                self.next()
                arg = self.nested(self.smooth_expr, self.expect_op("(").pos)
                self.expect_op(")")
                return {"exp": exp_of, "sin": sin_of, "cos": cos_of}[t.text](arg)
            raise ParseError(f"{t.text!r} is not a smooth function here", t.pos)
        if self.at_op("("):
            e = self.nested(self.smooth_expr, self.next().pos)
            self.expect_op(")")
            return e
        raise ParseError("expected a smooth operand", t.pos)

    # -- distributions ----------------------------------------------------

    def linarg(self) -> Tuple[Fraction, bool]:
        """Linear argument of H or delta: returns (w, reflected) meaning
        x - w, or w - x when reflected."""
        t = self.peek()
        if t.kind == "num":
            r = self.rational()
            self.expect_op("-")
            tx = self.peek()
            if tx.kind != "id" or tx.text != "x":
                raise ParseError("expected x after the constant", tx.pos)
            self.next()
            return r, True
        reflected = False
        if self.at_op("+", "-"):
            reflected = self.next().text == "-"
        tx = self.peek()
        if tx.kind != "id" or tx.text != "x":
            raise ParseError("expected x in linear argument", tx.pos)
        self.next()
        q = Fraction(0)
        if self.at_op("+", "-"):
            sgn = 1 if self.next().text == "+" else -1
            q = sgn * self.rational()
        # unreflected: x + q  ->  w = -q ; reflected: -x + q  ->  w = q
        return (q if reflected else -q), reflected

    def dfactor(self) -> _Value:
        t = self.peek()
        if t.kind == "id" and t.text == "H":
            self.next()
            self.expect_op("(")
            w, reflected = self.linarg()
            self.expect_op(")")
            pieces = ([const(1), const(0)] if reflected
                      else [const(0), const(1)])
            return "dist", make_piecewise([w], pieces)
        if t.kind == "id" and t.text == "delta":
            self.next()
            k = 0
            if self.at_op("["):
                self.next()
                k = self.uint()
                self.expect_op("]")
            self.expect_op("(")
            w, reflected = self.linarg()
            self.expect_op(")")
            c = (-1) ** k if reflected else 1
            return "dist", delta_dist(w, k, c)
        if self.at_op("("):
            D = self.nested(self.dist_body, self.next().pos)
            self.expect_op(")")
            if not D.breakpoints and not D.all_atoms:
                e: SmoothExpr = D.pieces[0]
                while self.at_op("^"):
                    self.next()
                    e = power_of(e, self.uint())
                return "smooth", e
            if self.at_op("^"):
                raise ParseError("'^' needs a smooth base", self.peek().pos)
            return "dist", D
        return "smooth", self.smooth_postfix()

    def dterm(self) -> GenDist:
        kind, val = self.dfactor()
        while self.at_op("*", "/"):
            op = self.next()
            k2, v2 = self.dfactor()
            if op.text == "/":
                if k2 != "smooth":
                    raise SemanticsError(
                        f"divisor must be smooth (at position {op.pos})")
                # smooth/smooth is one quotient, as in parse_smooth_expr, so
                # an exact division keeps its polynomial normal form
                try:
                    q = quotient_of(val if kind == "smooth" else ONE, v2)
                except ZeroDivisionError:
                    raise ParseError("division by zero", op.pos)
                val = q if kind == "smooth" else smooth_mul(q, val)
                continue
            if kind == "smooth" and k2 == "smooth":
                val = product_of(val, v2)
            elif kind == "smooth":
                val = smooth_mul(val, v2)
                kind = "dist"
            elif k2 == "smooth":
                val = smooth_mul(v2, val)
            else:
                val = _pointwise_mul(val, v2, op.pos)
        if kind == "smooth":
            return smooth_dist(val)
        return val

    def dist_body(self) -> GenDist:
        terms = []
        op = "+"
        if self.at_op("+", "-"):
            op = self.next().text
        while True:
            F = self.dterm()
            terms.append(scale(-1, F) if op == "-" else F)
            if not self.at_op("+", "-"):
                # a lone term is assembled already; add would renormalize it
                return add(*terms) if len(terms) > 1 else terms[0]
            op = self.next().text


def parse_smooth_expr(text: str) -> SmoothExpr:
    p = _Parser(text)
    e = p.smooth_expr()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"unexpected trailing input {t.text!r}", t.pos)
    return e


def parse_dist(text: str) -> GenDist:
    """Parse construction syntax into a normalized distribution."""
    p = _Parser(text)
    F = p.dist_body()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"unexpected trailing input {t.text!r}", t.pos)
    return F


def parse_rational(text: str) -> Fraction:
    """Exact rational from 'p/q', decimal, or scientific notation."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(num.strip()) / Fraction(den.strip())
    raise ParseError(f"not a rational: {text!r}", 0)


def parse_dist_json(src: Union[str, dict]) -> GenDist:
    """Inverse of the JSON rendering; exact round-trip."""
    obj = json.loads(src) if isinstance(src, str) else src
    breaks = [as_fraction(b) for b in obj.get("breakpoints", [])]
    pieces = [parse_smooth_expr(p) for p in obj.get("pieces", ["0"])]
    atoms = [DeltaAtom(as_fraction(a["w"]), int(a["k"]),
                       ComplexRational(as_fraction(a["re"]),
                                       as_fraction(a["im"])))
             for a in obj.get("atoms", [])]
    inexact = [InexactAtom(as_fraction(a["w"]), int(a["k"]),
                           complex(float(a["re"]), float(a["im"])))
               for a in obj.get("inexact_atoms", [])]
    return _assemble(breaks, pieces, atoms + inexact)
