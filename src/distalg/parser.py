"""Recursive-descent parsing of smooth expressions and distributions.

Distribution syntax is construction syntax: ``H(...)`` factors act as
pointwise indicators, ``smooth*delta[k](x-w)`` expands through the atom
product rule, and products never mean the one-sided algebra product (that is
a command, not notation).  A product that would need the algebra -- two
delta factors, or a delta against a piecewise factor -- is rejected with a
SemanticsError.

Smooth text and distribution text share one grammar (rationals are ``p/q``
or decimal digits, parsed exactly):

    sum     := ('+'|'-')? term (('+'|'-') term)*
    term    := signed (('*'|'/') signed)*     -- '/' needs a smooth divisor
    signed  := ('+'|'-') signed | primary ('^' uint)*   -- '^' a smooth base
    primary := rational | 'x' | 'i' | ('exp'|'sin'|'cos') '(' sum ')'
             | '(' sum ')' | 'H' '(' linarg ')'
             | 'delta' ('[' uint ']')? '(' linarg ')'
    linarg  := ('+'|'-')? 'x' (('+'|'-') rational)? | rational '-' 'x'

A value is a smooth expression until an H or delta factor makes it a
distribution.  H and delta are names only in distribution text, and never
inside a function's argument.  A term's sign applies to the whole term.  A
parenthesized distribution with no breakpoints and no atoms reads as its
smooth piece.  Parentheses, function arguments and signs each open one
nesting level.
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
from .star import star

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


_Value = Union[SmoothExpr, GenDist]  # smooth until an H or delta factor

# Parentheses, function arguments and signs each open one level; the limit
# keeps the descent and the later tree walks inside Python's recursion limit.
_MAX_DEPTH = 100

_FUNCTIONS = {"exp": exp_of, "sin": sin_of, "cos": cos_of}


def _negate(v: _Value) -> _Value:
    return scale(-1, v) if isinstance(v, GenDist) else neg(v)


def _pointwise_mul(A: GenDist, B: GenDist, pos: int) -> GenDist:
    if A.all_atoms or B.all_atoms:
        raise SemanticsError(
            "a delta factor can only be multiplied by smooth factors in "
            "construction syntax; use the mul command for the algebra "
            f"product (at position {pos})")
    return star(A, B)


class _Parser:
    def __init__(self, text: str, dist_names: bool):
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0
        # whether H and delta are names; never inside a function argument
        self.dist_names = dist_names

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

    # -- the grammar ------------------------------------------------------

    def sign(self, parse) -> _Value:
        """A '+' or '-' followed by parse(), one level deeper."""
        t = self.next()
        v = self.nested(parse, t.pos)
        return _negate(v) if t.text == "-" else v

    def sum(self) -> _Value:
        terms = [self.sign(self.term) if self.at_op("+", "-")
                 else self.term()]
        while self.at_op("+", "-"):
            op = self.next().text
            v = self.term()
            terms.append(_negate(v) if op == "-" else v)
        if len(terms) == 1:
            # a lone term is assembled already; add would renormalize it
            return terms[0]
        if not any(isinstance(v, GenDist) for v in terms):
            return sum_of(*terms)
        return add(*(v if isinstance(v, GenDist) else smooth_dist(v)
                     for v in terms))

    def term(self) -> _Value:
        v = self.signed()
        while self.at_op("*", "/"):
            op = self.next()
            rhs = self.signed()
            smooth = not isinstance(v, GenDist)
            if op.text == "/":
                if isinstance(rhs, GenDist):
                    raise SemanticsError(
                        f"divisor must be smooth (at position {op.pos})")
                # smooth/smooth is one quotient, so an exact division keeps
                # its polynomial normal form
                try:
                    q = quotient_of(v if smooth else ONE, rhs)
                except ZeroDivisionError:
                    raise ParseError("division by zero", op.pos)
                v = q if smooth else smooth_mul(q, v)
            elif not isinstance(rhs, GenDist):
                v = product_of(v, rhs) if smooth else smooth_mul(rhs, v)
            elif smooth:
                v = smooth_mul(v, rhs)
            else:
                v = _pointwise_mul(v, rhs, op.pos)
        return v

    def signed(self) -> _Value:
        if self.at_op("+", "-"):
            return self.sign(self.signed)
        v = self.primary()
        while self.at_op("^"):
            if isinstance(v, GenDist):
                raise ParseError("'^' needs a smooth base", self.peek().pos)
            self.next()
            v = power_of(v, self.uint())
        return v

    def primary(self) -> _Value:
        t = self.next()
        if t.kind == "num":
            return const(Fraction(t.text))
        if t.kind == "id":
            if t.text == "x":
                return X
            if t.text == "i":
                return const(ComplexRational(Fraction(0), Fraction(1)))
            if t.text in _FUNCTIONS:
                outer, self.dist_names = self.dist_names, False
                arg = self.nested(self.sum, self.expect_op("(").pos)
                self.dist_names = outer
                self.expect_op(")")
                return _FUNCTIONS[t.text](arg)
            if self.dist_names and t.text in ("H", "delta"):
                return self.step_or_delta(t.text)
            raise ParseError(f"{t.text!r} is not a smooth function here", t.pos)
        if t.kind == "op" and t.text == "(":
            v = self.nested(self.sum, t.pos)
            self.expect_op(")")
            if (isinstance(v, GenDist) and not v.breakpoints
                    and not v.all_atoms):
                return v.pieces[0]
            return v
        raise ParseError("expected a smooth operand", t.pos)

    def step_or_delta(self, name: str) -> GenDist:
        k = 0
        if name == "delta" and self.at_op("["):
            self.next()
            k = self.uint()
            self.expect_op("]")
        self.expect_op("(")
        w, reflected = self.linarg()
        self.expect_op(")")
        if name == "delta":
            return delta_dist(w, k, (-1) ** k if reflected else 1)
        pieces = [const(1), const(0)] if reflected else [const(0), const(1)]
        return make_piecewise([w], pieces)

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


def _parse(text: str, dist_names: bool) -> _Value:
    p = _Parser(text, dist_names)
    v = p.sum()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"unexpected trailing input {t.text!r}", t.pos)
    return v


def parse_smooth_expr(text: str) -> SmoothExpr:
    """Parse smooth text: the grammar without H and delta."""
    return _parse(text, False)


def parse_dist(text: str) -> GenDist:
    """Parse construction syntax into a normalized distribution."""
    v = _parse(text, True)
    return v if isinstance(v, GenDist) else smooth_dist(v)


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
