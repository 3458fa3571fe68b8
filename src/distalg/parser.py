"""Recursive-descent parsing of smooth expressions and distributions.

Distribution syntax is construction syntax: ``H(...)`` factors act as
pointwise indicators, ``smooth*delta[k](x-w)`` expands through the atom
product rule, and products never mean the one-sided algebra product (that is
a command, not notation).  A product that would need the algebra -- two
delta factors, or a delta against a piecewise factor -- is rejected with a
SemanticsError.

Smooth text and distribution text share one grammar (rationals are ``p/q``
or decimal digits, parsed exactly).  The tokens are the strings of one
regex scan, the empty end match last; a token's position is computed only
for an error.  A literal p or p/q that opens a term, with no '^' after it,
is read as one ``Const`` from its integers:

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
import sys
from fractions import Fraction
from math import gcd
from typing import List, NamedTuple, Optional, Tuple, Union

from .dist import (Atom, DeltaAtom, GenDist, InexactAtom, PiecewiseSmooth,
                   _assemble, _merge_atoms, _scaled_atoms, add, scale,
                   smooth_mul, smooth_times_atom)
from .errors import ParseError, SemanticsError
from .expr import (Const, SmoothExpr, Verdict, X, ZERO, ONE, cos_of,
                   exact_verdict, exp_of, neg, power_of, product_of,
                   quotient_of, sin_of, sum_of)
from .scalars import (CR_ONE, ComplexRational, Rat, _rat, as_fraction,
                      cr_of_ints)
from .star import star

# A token is one operator character, a number or a name, and the empty
# match at the end of the text is the last one.  Whitespace separates
# tokens; a character that starts no token is a bad one.
_TOKEN = r"[-+*/^()\[\],;]|\d+(?:\.\d+)?|[A-Za-z_]+"
_TOKEN_RE = re.compile(_TOKEN + r"|\Z")
_GOOD_RE = re.compile(r"(?:\s|%s)*" % _TOKEN)  # up to the first bad one
# No number starts with one of these, and every string holds "", the end.
_NOT_NUM = ("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
            "_-+*/^()[],;")
_SIGNS = ("+", "-")


def _tokenize(text: str) -> List[str]:
    """The tokens of text.  The scan skips a bad character, so then the
    tokens miss a non-space character, and the first bad one raises."""
    toks = _TOKEN_RE.findall(text)
    if "".join(toks) != "".join(text.split()):
        end = _GOOD_RE.match(text).end()
        raise ParseError(f"unexpected character {text[end]!r}", end)
    return toks


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
_I = Const(cr_of_ints(0, 1, 1))


def _as_dist(v: _Value) -> GenDist:
    """The assembled distribution of a value; the light shapes are
    canonical already, so they are built without a check or reassembly."""
    cls = v.__class__
    if cls is GenDist:
        return v
    if cls is _Atoms:
        breaks, pieces, atoms = (v.w,), (ZERO, ZERO), v.atoms
    elif cls is _Piece:
        breaks, pieces, atoms = (), (v.g,), ()
        if v.lo is not None:
            breaks, pieces = (v.lo,), (ZERO, v.g)
        if v.hi is not None:
            breaks, pieces = breaks + (v.hi,), pieces + (ZERO,)
    else:
        breaks, pieces, atoms = (), (v,), ()
    return GenDist._unchecked(PiecewiseSmooth._unchecked(breaks, pieces),
                              atoms)


def _negate(v: _Value) -> _Value:
    cls = v.__class__
    if cls is Const:  # as neg, which multiplies by the Const -1
        return Const(-v.value)
    if cls is _Piece:
        return _piece(neg(v.g), v.lo, v.hi)
    if cls is _Atoms:
        return _atoms(v.w, _scaled_atoms(_MINUS_ONE, v.atoms))
    return scale(-1, v) if cls is GenDist else neg(v)


def _times(g: SmoothExpr, v: _Value) -> _Value:
    """The smooth g times the distribution v, as ``smooth_mul``."""
    if v.__class__ is _Piece:
        return _piece(product_of(g, v.g), v.lo, v.hi)
    if v.__class__ is _Atoms:
        return _atoms(v.w, [b for a in v.atoms
                            for b in smooth_times_atom(g, a)])
    return smooth_mul(g, v)


def _bound(a: Optional[Fraction], b: Optional[Fraction], pick):
    return b if a is None else a if b is None else pick(a, b)


class _Parser:
    """The descent over the token strings; i indexes the next one."""

    def __init__(self, text: str, dist_names: bool):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0
        # whether H and delta are names; never inside a function argument
        self.dist_names = dist_names

    def pos(self, i: int) -> int:
        """The position of token i, from a second scan; only errors ask."""
        return [m.start() for m in _TOKEN_RE.finditer(self.text)][i]

    def expect(self, ch: str) -> int:
        """The index of the token ch at the cursor, which steps past it."""
        i = self.i
        if self.toks[i] != ch:
            raise ParseError(f"expected {ch!r}", self.pos(i))
        self.i = i + 1
        return i

    def nested(self, parse, i: int):
        """parse() one level deeper, opened by token i; errors past
        _MAX_DEPTH."""
        if self.depth == _MAX_DEPTH:
            raise ParseError(f"nesting deeper than {_MAX_DEPTH} levels",
                             self.pos(i))
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    # -- numbers ----------------------------------------------------------

    def uint(self) -> int:
        i = self.i
        t = self.toks[i]
        if t[:1] in _NOT_NUM or "." in t:
            raise ParseError("expected a nonnegative integer", self.pos(i))
        self.i = i + 1
        return self.ratio(i)[0]

    def ratio(self, i: int) -> Tuple[int, int]:
        """Numeric token i as an integer over a power of ten, not reduced;
        ParseError when it is past the interpreter's digit limit."""
        text = self.toks[i]
        try:
            if "." not in text:
                return int(text), 1
            whole, _, frac = text.partition(".")
            return int(whole + frac), 10 ** len(frac)
        except ValueError:
            raise ParseError(f"number longer than the interpreter's "
                             f"{sys.get_int_max_str_digits()}-digit limit",
                             self.pos(i)) from None

    def rational(self) -> Tuple[int, int]:
        """A literal p or p/q as integers (n, d) with n/d its value and
        d > 0, not reduced."""
        toks, i = self.toks, self.i
        if toks[i][:1] in _NOT_NUM:
            raise ParseError("expected a number", self.pos(i))
        n, d = self.ratio(i)
        if toks[i + 1] == "/" and toks[i + 2][:1] not in _NOT_NUM:
            qn, qd = self.ratio(i + 2)
            if qn == 0:
                raise ParseError("zero denominator", self.pos(i))
            n, d, i = n * qd, d * qn, i + 2
        self.i = i + 1
        return n, d

    def literal(self) -> Optional[Const]:
        """A term's first factor as one Const when it is a literal p, or
        p/q with q nonzero, and no '^' follows it; None otherwise."""
        toks, i = self.toks, self.i
        if toks[i][:1] in _NOT_NUM or toks[i + 1] == "^":
            return None
        n, d = self.ratio(i)
        if (toks[i + 1] == "/" and toks[i + 2][:1] not in _NOT_NUM
                and toks[i + 3] != "^"):
            qn, qd = self.ratio(i + 2)
            if qn:  # a zero q is left to the division and its error
                n, d, i = n * qd, d * qn, i + 2
        self.i = i + 1
        return Const(cr_of_ints(n, 0, d))

    # -- the grammar ------------------------------------------------------

    def sign(self, parse) -> _Value:
        """A '+' or '-' followed by parse(), one level deeper."""
        i = self.i
        self.i = i + 1
        v = self.nested(parse, i)
        return _negate(v) if self.toks[i] == "-" else v

    def sum(self) -> _Value:
        toks = self.toks
        v = self.sign(self.term) if toks[self.i] in _SIGNS else self.term()
        if toks[self.i] not in _SIGNS:
            # a lone term is canonical already; add would renormalize it
            return v
        terms = [v]
        while toks[self.i] in _SIGNS:
            op = toks[self.i]
            self.i += 1
            v = self.term()
            terms.append(_negate(v) if op == "-" else v)
        if not any(v.__class__ in _DIST for v in terms):
            return sum_of(*terms)
        return add(*map(_as_dist, terms))

    def term(self) -> _Value:
        v = self.literal() or self.signed()
        toks = self.toks
        while toks[self.i] in ("*", "/"):
            at = self.i
            self.i += 1
            rhs = self.signed()
            smooth = v.__class__ not in _DIST
            if toks[at] == "/":
                if rhs.__class__ in _DIST:
                    raise SemanticsError("divisor must be smooth (at "
                                         f"position {self.pos(at)})")
                # smooth/smooth is one quotient, so an exact division keeps
                # its polynomial normal form
                try:
                    q = quotient_of(v if smooth else ONE, rhs)
                except ZeroDivisionError:
                    raise ParseError("division by zero", self.pos(at))
                v = q if smooth else _times(q, v)
            elif rhs.__class__ not in _DIST:
                v = product_of(v, rhs) if smooth else _times(rhs, v)
            elif smooth:
                v = _times(v, rhs)
            else:
                v = self.pointwise(v, rhs, at)
        return v

    def pointwise(self, A: _Value, B: _Value, at: int) -> _Value:
        if any(v.__class__ is _Atoms or v.__class__ is GenDist and v.all_atoms
               for v in (A, B)):
            raise SemanticsError(
                "a delta factor can only be multiplied by smooth factors in "
                "construction syntax; use the mul command for the algebra "
                f"product (at position {self.pos(at)})")
        if A.__class__ is _Piece and B.__class__ is _Piece:
            # star's aligned pieces: zero but on the intersection of the two
            return _piece(product_of(A.g, B.g), _bound(A.lo, B.lo, max),
                          _bound(A.hi, B.hi, min))
        return star(_as_dist(A), _as_dist(B))

    def signed(self) -> _Value:
        toks = self.toks
        if toks[self.i] in _SIGNS:
            return self.sign(self.signed)
        v = self.primary()
        while toks[self.i] == "^":
            if v.__class__ in _DIST:
                raise ParseError("'^' needs a smooth base", self.pos(self.i))
            self.i += 1
            v = power_of(v, self.uint())
        return v

    def primary(self) -> _Value:
        i = self.i
        t = self.toks[i]
        self.i = i + 1
        if t[:1] not in _NOT_NUM:
            n, d = self.ratio(i)
            return Const(cr_of_ints(n, 0, d))
        if t == "x":
            return X
        if t == "i":
            return _I
        if t in _FUNCTIONS:
            outer, self.dist_names = self.dist_names, False
            arg = self.nested(self.sum, self.expect("("))
            self.dist_names = outer
            self.expect(")")
            return _FUNCTIONS[t](arg)
        if self.dist_names and t in ("H", "delta"):
            return self.step_or_delta(t)
        if t == "(":
            v = self.nested(self.sum, i)
            self.expect(")")
            if v.__class__ is _Piece and v.lo is None and v.hi is None:
                return v.g
            if (v.__class__ is GenDist and not v.breakpoints
                    and not v.all_atoms):
                return v.pieces[0]
            return v
        raise ParseError(f"{t!r} is not a smooth function here"
                         if t.isidentifier() else "expected a smooth operand",
                         self.pos(i))

    def step_or_delta(self, name: str) -> _Value:
        k = 0
        if name == "delta" and self.toks[self.i] == "[":
            self.i += 1
            k = self.uint()
            self.expect("]")
        self.expect("(")
        w, reflected = self.linarg()
        self.expect(")")
        if name == "delta":
            c = _MINUS_ONE if reflected and k % 2 else CR_ONE
            return _Atoms(w, (DeltaAtom(w, k, c),))
        return _Piece(ONE, None, w) if reflected else _Piece(ONE, w, None)

    def linarg(self) -> Tuple[Rat, bool]:
        """Linear argument of H or delta: returns (w, reflected) meaning
        x - w, or w - x when reflected."""
        toks = self.toks
        if toks[self.i][:1] not in _NOT_NUM:
            n, d = self.rational()
            self.expect("-")
            if toks[self.i] != "x":
                raise ParseError("expected x after the constant",
                                 self.pos(self.i))
            self.i += 1
            return _location(n, d), True
        i = self.i
        reflected = toks[i] == "-"
        if toks[i] in _SIGNS:
            i += 1
        if toks[i] != "x":
            raise ParseError("expected x in linear argument", self.pos(i))
        self.i = i + 1
        n, d = 0, 1
        if toks[i + 1] in _SIGNS:
            self.i = i + 2
            n, d = self.rational()
            # unreflected: x + q  ->  w = -q ; reflected: -x + q  ->  w = q
            if (toks[i + 1] == "+") != reflected:
                n = -n
        return _location(n, d), reflected


def _parse(text: str, dist_names: bool) -> _Value:
    p = _Parser(text, dist_names)
    v = p.sum()
    if p.toks[p.i]:
        raise ParseError(f"unexpected trailing input {p.toks[p.i]!r}",
                         p.pos(p.i))
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
