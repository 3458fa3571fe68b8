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

While a term is parsed, a distribution value keeps one of two light shapes
instead of being assembled after every factor:

- ``_Piece``: a smooth piece g on an open interval ]lo, hi[ cut out by the
  term's H factors, zero elsewhere;
- ``_Atoms``: the atoms at one point w of the term's one delta factor,
  expanded by the smooth factors around it with ``smooth_times_atom``.

Each factor updates the shape exactly as assembling the term after that
factor would: g comes from the same ``product_of`` calls, atoms are merged
as ``_assemble`` merges them, an empty interval or an empty atom list is
the zero term, and a piece proven zero joins its zero neighbours.  A sum
hands its terms to one ``add``, so a parse assembles once per sum of
several terms with a distribution among them.  Only such a sum, when it
sits in parentheses and keeps breakpoints or atoms, is a ``GenDist``
inside a term; it meets other factors through ``smooth_mul`` and the
pointwise product.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import List, NamedTuple, Optional, Tuple, Union

from .dist import (Atom, DeltaAtom, GenDist, InexactAtom, PiecewiseSmooth,
                   _assemble, _merge_atoms, _scaled_atoms, add, scale,
                   smooth_mul, smooth_times_atom)
from .errors import ParseError, SemanticsError
from .expr import (SmoothExpr, Verdict, X, ZERO, ONE, const, cos_of,
                   exact_verdict, exp_of, neg, power_of, product_of,
                   quotient_of, sin_of, sum_of)
from .scalars import ComplexRational, Rat, _rat, as_fraction
from .star import star

# One match per token: its leading whitespace, then exactly one of a
# number, a name, an operator or any other (bad) character.
_TOKEN_RE = re.compile(r"(\s*)(?:(\d+(?:\.\d+)?)|([A-Za-z_]+)"
                       r"|([-+*/^()\[\],;])|(\S))")

# A token is a (kind, text, position) triple; kind is num, id, op or end.
_Tok = Tuple[str, str, int]


def _tokenize(text: str) -> List[_Tok]:
    """The tokens of text.  Every character but whitespace starts a match,
    so the matches tile the text up to trailing whitespace, and a token's
    position is the running sum of the lengths before it."""
    out = []
    pos = 0
    for space, num, name, op, bad in _TOKEN_RE.findall(text):
        pos += len(space)
        if num:
            out.append(("num", num, pos))
            pos += len(num)
        elif name:
            out.append(("id", name, pos))
            pos += len(name)
        elif op:
            out.append(("op", op, pos))
            pos += 1
        else:
            raise ParseError(f"unexpected character {bad!r}", pos)
    out.append(("end", "", len(text)))
    return out


def _number(text: str) -> Union[int, Fraction]:
    """The exact value of a numeric literal: an int unless it has a point."""
    return Fraction(text) if "." in text else int(text)


def _ratio(text: str) -> Tuple[int, int]:
    """A numeric literal as an integer over a power of ten, not reduced."""
    whole, _, frac = text.partition(".")
    return int(whole + frac), 10 ** len(frac)


def _location(n: int, d: int) -> Rat:
    """The breakpoint n/d, for integers n and d > 0, reduced once."""
    g = gcd(n, d)
    return _rat(n // g, d // g)


class _Piece(NamedTuple):
    """g on ]lo, hi[ and zero elsewhere; a bound of None is infinite."""
    g: SmoothExpr
    lo: Optional[Fraction]
    hi: Optional[Fraction]


class _Atoms(NamedTuple):
    """Merged, nonzero atoms, all at w."""
    w: Fraction
    atoms: Tuple[Atom, ...]


_ZERO_TERM = _Piece(ZERO, None, None)


def _piece(g: SmoothExpr, lo: Optional[Fraction], hi: Optional[Fraction]
           ) -> _Piece:
    """The piece as ``_assemble`` leaves ZERO | g | ZERO on ]lo, hi[.  An
    empty interval is the zero term.  A g that ``exact_verdict`` proves
    zero joins its neighbours, and a join keeps the left tree: g over the
    whole line when it has no left bound, else zero."""
    if lo is not None and hi is not None and lo >= hi:
        return _ZERO_TERM
    if ((lo is not None or hi is not None)
            and exact_verdict(g, ZERO) is Verdict.EQUAL):
        return _ZERO_TERM if lo is not None else _Piece(g, None, None)
    return _Piece(g, lo, hi)


def _atoms(w: Fraction, atoms: List[Atom]) -> Union[_Atoms, _Piece]:
    merged = _merge_atoms(atoms)
    return _Atoms(w, tuple(merged)) if merged else _ZERO_TERM


_Value = Union[SmoothExpr, _Piece, _Atoms, GenDist]  # smooth until H or delta
_DIST = (_Piece, _Atoms, GenDist)

# Parentheses, function arguments and signs each open one level; the limit
# keeps the descent and the later tree walks inside Python's recursion limit.
_MAX_DEPTH = 100

_FUNCTIONS = {"exp": exp_of, "sin": sin_of, "cos": cos_of}
_MINUS_ONE = ComplexRational.of(-1)


def _as_dist(v: _Value) -> GenDist:
    """The assembled distribution of a value; the light shapes are
    canonical already, so they are built without reassembly."""
    if isinstance(v, GenDist):
        return v
    if isinstance(v, _Atoms):
        return GenDist(PiecewiseSmooth((v.w,), (ZERO, ZERO)), v.atoms)
    if not isinstance(v, _Piece):
        return GenDist(PiecewiseSmooth((), (v,)), ())
    breaks, pieces = (), (v.g,)
    if v.lo is not None:
        breaks, pieces = (v.lo,), (ZERO, v.g)
    if v.hi is not None:
        breaks, pieces = breaks + (v.hi,), pieces + (ZERO,)
    return GenDist(PiecewiseSmooth(breaks, pieces), ())


def _negate(v: _Value) -> _Value:
    if isinstance(v, _Piece):
        return _piece(neg(v.g), v.lo, v.hi)
    if isinstance(v, _Atoms):
        return _atoms(v.w, _scaled_atoms(_MINUS_ONE, v.atoms))
    return scale(-1, v) if isinstance(v, GenDist) else neg(v)


def _times(g: SmoothExpr, v: _Value) -> _Value:
    """The smooth g times the distribution v, as ``smooth_mul``."""
    if isinstance(v, _Piece):
        return _piece(product_of(g, v.g), v.lo, v.hi)
    if isinstance(v, _Atoms):
        return _atoms(v.w, [b for a in v.atoms
                            for b in smooth_times_atom(g, a)])
    return smooth_mul(g, v)


def _bound(a: Optional[Fraction], b: Optional[Fraction], pick):
    return b if a is None else a if b is None else pick(a, b)


def _pointwise_mul(A: _Value, B: _Value, pos: int) -> _Value:
    if any(isinstance(v, _Atoms) or isinstance(v, GenDist) and v.all_atoms
           for v in (A, B)):
        raise SemanticsError(
            "a delta factor can only be multiplied by smooth factors in "
            "construction syntax; use the mul command for the algebra "
            f"product (at position {pos})")
    if isinstance(A, _Piece) and isinstance(B, _Piece):
        # star's aligned pieces: zero but on the intersection of the two
        return _piece(product_of(A.g, B.g), _bound(A.lo, B.lo, max),
                      _bound(A.hi, B.hi, min))
    return star(_as_dist(A), _as_dist(B))


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
        kind, text, pos = self.peek()
        if kind != "op" or text != ch:
            raise ParseError(f"expected {ch!r}", pos)
        return self.next()

    def at_op(self, *chs: str) -> bool:
        # only an op token's text is one of these characters
        return self.toks[self.i][1] in chs

    def at_x(self) -> bool:
        kind, text, _ = self.peek()
        return kind == "id" and text == "x"

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
        kind, text, pos = self.peek()
        if kind != "num" or "." in text:
            raise ParseError("expected a nonnegative integer", pos)
        self.next()
        return int(text)

    def rational(self) -> Tuple[int, int]:
        """A literal p or p/q as integers (n, d) with n/d its value and
        d > 0, not reduced."""
        kind, text, pos = self.peek()
        if kind != "num":
            raise ParseError("expected a number", pos)
        self.next()
        n, d = _ratio(text)
        if self.at_op("/") and self.toks[self.i + 1][0] == "num":
            self.next()
            qn, qd = _ratio(self.next()[1])
            if qn == 0:
                raise ParseError("zero denominator", pos)
            n, d = n * qd, d * qn
        return n, d

    # -- the grammar ------------------------------------------------------

    def sign(self, parse) -> _Value:
        """A '+' or '-' followed by parse(), one level deeper."""
        _, text, pos = self.next()
        v = self.nested(parse, pos)
        return _negate(v) if text == "-" else v

    def sum(self) -> _Value:
        terms = [self.sign(self.term) if self.at_op("+", "-")
                 else self.term()]
        while self.at_op("+", "-"):
            op = self.next()[1]
            v = self.term()
            terms.append(_negate(v) if op == "-" else v)
        if len(terms) == 1:
            # a lone term is canonical already; add would renormalize it
            return terms[0]
        if not any(isinstance(v, _DIST) for v in terms):
            return sum_of(*terms)
        return add(*map(_as_dist, terms))

    def term(self) -> _Value:
        v = self.signed()
        while self.at_op("*", "/"):
            _, op, pos = self.next()
            rhs = self.signed()
            smooth = not isinstance(v, _DIST)
            if op == "/":
                if isinstance(rhs, _DIST):
                    raise SemanticsError(
                        f"divisor must be smooth (at position {pos})")
                # smooth/smooth is one quotient, so an exact division keeps
                # its polynomial normal form
                try:
                    q = quotient_of(v if smooth else ONE, rhs)
                except ZeroDivisionError:
                    raise ParseError("division by zero", pos)
                v = q if smooth else _times(q, v)
            elif not isinstance(rhs, _DIST):
                v = product_of(v, rhs) if smooth else _times(rhs, v)
            elif smooth:
                v = _times(v, rhs)
            else:
                v = _pointwise_mul(v, rhs, pos)
        return v

    def signed(self) -> _Value:
        if self.at_op("+", "-"):
            return self.sign(self.signed)
        v = self.primary()
        while self.at_op("^"):
            if isinstance(v, _DIST):
                raise ParseError("'^' needs a smooth base", self.peek()[2])
            self.next()
            v = power_of(v, self.uint())
        return v

    def primary(self) -> _Value:
        kind, text, pos = self.next()
        if kind == "num":
            return const(_number(text))
        if kind == "id":
            if text == "x":
                return X
            if text == "i":
                return const(ComplexRational(Fraction(0), Fraction(1)))
            if text in _FUNCTIONS:
                outer, self.dist_names = self.dist_names, False
                arg = self.nested(self.sum, self.expect_op("(")[2])
                self.dist_names = outer
                self.expect_op(")")
                return _FUNCTIONS[text](arg)
            if self.dist_names and text in ("H", "delta"):
                return self.step_or_delta(text)
            raise ParseError(f"{text!r} is not a smooth function here", pos)
        if kind == "op" and text == "(":
            v = self.nested(self.sum, pos)
            self.expect_op(")")
            if isinstance(v, _Piece) and v.lo is None and v.hi is None:
                return v.g
            if (isinstance(v, GenDist) and not v.breakpoints
                    and not v.all_atoms):
                return v.pieces[0]
            return v
        raise ParseError("expected a smooth operand", pos)

    def step_or_delta(self, name: str) -> _Value:
        k = 0
        if name == "delta" and self.at_op("["):
            self.next()
            k = self.uint()
            self.expect_op("]")
        self.expect_op("(")
        w, reflected = self.linarg()
        self.expect_op(")")
        if name == "delta":
            c = ComplexRational.of((-1) ** k if reflected else 1)
            return _Atoms(w, (DeltaAtom(w, k, c),))
        return _Piece(ONE, None, w) if reflected else _Piece(ONE, w, None)

    def linarg(self) -> Tuple[Rat, bool]:
        """Linear argument of H or delta: returns (w, reflected) meaning
        x - w, or w - x when reflected."""
        if self.peek()[0] == "num":
            n, d = self.rational()
            self.expect_op("-")
            if not self.at_x():
                raise ParseError("expected x after the constant",
                                 self.peek()[2])
            self.next()
            return _location(n, d), True
        reflected = False
        if self.at_op("+", "-"):
            reflected = self.next()[1] == "-"
        if not self.at_x():
            raise ParseError("expected x in linear argument", self.peek()[2])
        self.next()
        n, d = 0, 1
        if self.at_op("+", "-"):
            plus = self.next()[1] == "+"
            n, d = self.rational()
            # unreflected: x + q  ->  w = -q ; reflected: -x + q  ->  w = q
            if plus != reflected:
                n = -n
        return _location(n, d), reflected


def _parse(text: str, dist_names: bool) -> _Value:
    p = _Parser(text, dist_names)
    v = p.sum()
    kind, text, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {text!r}", pos)
    return v


def parse_smooth_expr(text: str) -> SmoothExpr:
    """Parse smooth text: the grammar without H and delta."""
    return _parse(text, False)


def parse_dist(text: str) -> GenDist:
    """Parse construction syntax into a normalized distribution."""
    return _as_dist(_parse(text, True))


def parse_rational(text: str) -> Fraction:
    """Exact rational from a decimal or scientific number, or from 'p/q'
    where p and q are each one; a zero q raises ``ParseError``."""
    num, slash, den = text.strip().partition("/")
    try:
        if "/" not in den:
            q = Fraction(den.strip()) if slash else 1
            return Fraction(num.strip()) / q
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(f"not a rational: {text!r}", 0)


def parse_dist_json(src: Union[str, dict]) -> GenDist:
    """Inverse of the JSON rendering; exact round-trip."""
    import json
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
