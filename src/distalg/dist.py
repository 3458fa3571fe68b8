"""Canonical representation of piecewise-smooth functions plus finite
delta combinations, with their distributional calculus.

A ``GenDist`` is a regular part (strictly ascending rational breakpoints
x_1 < ... < x_N with N+1 smooth pieces, piece k governing the open interval
]x_k, x_{k+1}[ where x_0 = -inf and x_{N+1} = +inf) together with a finite
list of delta atoms C·delta^(k)(x - w), each of order >= 0 at a
breakpoint.  This whole shape is checked wherever the constructor runs.

It is canonical when at most one atom exists per (kind, location, order)
and no breakpoint without an atom joins two provably equal pieces.  Every
operation returns it so: ``_assemble`` makes it, valid by construction and
unchecked, and the only other direct builds are ``align``'s, unchecked and
deliberately not canonical, and the parser's light shapes, canonical as
built.  No operation normalizes its inputs, and ``normalize_dist`` is for a
GenDist built by hand.

Breakpoints and atom locations are ``scalars.Rat`` values: ``_assemble``
and ``_merge_atoms`` pass each one through ``as_fraction``, so the sorts,
``bisect`` calls, sets and dict keys of assembly, alignment and ``star``
compare and hash integers.  ``align`` and the parser take their locations
from values made that way.

Coefficients stay exact.  When an operation needs a pointwise value that has
no exact form (say exp(1)), the resulting atom is an ``InexactAtom`` with a
floating coefficient; exact-equality verdicts refuse to say Equal in its
presence.  Both kinds live in one sorted atom tuple, exact atoms first; an
exact and an inexact atom at the same (location, order) stay separate.
"""

from __future__ import annotations

import bisect
import cmath
import math
import operator
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import DomainError, ShapeError, UnsupportedPiece
from .expr import (_NODE_TYPES, Const, Kernel, SmoothExpr, Verdict, ZERO,
                   _horner, const, diff_expr, eval_exact, eval_expr,
                   exact_verdict, expr_equal, leaf_kernel,
                   poly_antiderivative, product_of, shift_expr, sum_of,
                   worst_verdict)
from .scalars import (CR_ZERO, ComplexRational, ScalarLike, as_fraction,
                      cr_of_ints, record)

def as_expr(v) -> SmoothExpr:
    if isinstance(v, _NODE_TYPES):
        return v
    return const(v)


@record
class DeltaAtom:
    """One term coeff·delta^(k)(x - w) with an exact coefficient."""
    w: Fraction
    k: int
    coeff: ComplexRational


@record
class InexactAtom:
    """Same shape as DeltaAtom but the coefficient is a float, produced when
    a jump or derivative value had no exact evaluation."""
    w: Fraction
    k: int
    coeff: complex

    def __post_init__(self):
        if not cmath.isfinite(self.coeff):
            raise DomainError(f"inexact atom coefficient {self.coeff} at "
                              f"{self.w} is not finite")


@record
class PiecewiseSmooth:
    breakpoints: Tuple[Fraction, ...]
    pieces: Tuple[SmoothExpr, ...]

    def __post_init__(self):
        _check_shape(self.breakpoints, self.pieces)


def _check_shape(bs: Sequence[Fraction], pieces: Sequence) -> None:
    if len(pieces) != len(bs) + 1:
        raise ShapeError(f"{len(bs)} breakpoints require {len(bs) + 1} "
                         f"pieces, got {len(pieces)}")
    if len(bs) > 1 and not all(map(operator.lt, bs, bs[1:])):
        raise ShapeError("breakpoints must be strictly ascending")


Atom = Union[DeltaAtom, InexactAtom]


@record
class GenDist:
    regular: PiecewiseSmooth
    all_atoms: Tuple[Atom, ...]

    def __post_init__(self):
        locs = set(self.regular.breakpoints) if self.all_atoms else ()
        for a in self.all_atoms:
            if a.k < 0:
                raise ShapeError("atom order must be >= 0")
            if a.w not in locs:
                raise ShapeError(f"atom location {a.w} is not a breakpoint")

    @property
    def atoms(self) -> Tuple[DeltaAtom, ...]:
        return tuple(a for a in self.all_atoms if isinstance(a, DeltaAtom))

    @property
    def inexact_atoms(self) -> Tuple[InexactAtom, ...]:
        return tuple(a for a in self.all_atoms if isinstance(a, InexactAtom))

    @property
    def breakpoints(self) -> Tuple[Fraction, ...]:
        return self.regular.breakpoints

    @property
    def pieces(self) -> Tuple[SmoothExpr, ...]:
        return self.regular.pieces


# ---------------------------------------------------------------------------
# assembly and normalization


def _merge_atoms(atoms: Iterable[Atom]) -> List[Atom]:
    """Sum coefficients per (kind, w, k) and sort by that key, so exact
    atoms come first; zero sums drop.  A negative order raises."""
    acc: dict[Tuple[bool, Fraction, int], Union[ComplexRational, complex]] = {}
    for a in atoms:
        if a.k < 0:
            raise ShapeError("atom order must be >= 0")
        inexact = isinstance(a, InexactAtom)
        key = (inexact, as_fraction(a.w), a.k)
        if inexact:
            acc[key] = acc.get(key, 0j) + complex(a.coeff)
        else:
            acc[key] = acc[key] + a.coeff if key in acc else a.coeff
    return [InexactAtom(w, k, c) if inexact else DeltaAtom(w, k, c)
            for (inexact, w, k), c in sorted(acc.items())
            if (c != 0 if inexact else not c.is_zero)]


def _piece_interval(breaks: Sequence[Fraction], i: int
                    ) -> Tuple[Optional[Fraction], Optional[Fraction]]:
    lo = breaks[i - 1] if i >= 1 else None
    hi = breaks[i] if i < len(breaks) else None
    return lo, hi


def _assemble(breakpoints: Sequence[Fraction], pieces: Sequence[SmoothExpr],
              atoms: Iterable[Atom] = ()) -> GenDist:
    """The canonical GenDist of a shape: atoms merged, each atom location
    made a breakpoint, and provably equal pieces joined, the left one kept."""
    breaks = [as_fraction(b) for b in breakpoints]
    ps = [as_expr(p) for p in pieces]
    _check_shape(breaks, ps)
    atoms = _merge_atoms(atoms)
    atom_locs = {a.w for a in atoms}
    # every atom location must be a breakpoint; pad by duplicating the piece
    for w in sorted(atom_locs):
        pos = bisect.bisect_left(breaks, w)
        if pos == len(breaks) or breaks[pos] != w:
            breaks.insert(pos, w)
            ps.insert(pos, ps[pos])
    i = 0
    while i < len(breaks):
        if breaks[i] in atom_locs:
            i += 1
            continue
        if exact_verdict(ps[i], ps[i + 1]) is Verdict.EQUAL:
            del breaks[i]
            del ps[i + 1]
        else:
            i += 1
    return GenDist._unchecked(PiecewiseSmooth._unchecked(
        tuple(breaks), tuple(ps)), tuple(atoms))


def normalize_dist(F: GenDist) -> GenDist:
    """The canonical form of a GenDist built by hand; results already are."""
    return _assemble(F.breakpoints, F.pieces, F.all_atoms)


# ---------------------------------------------------------------------------
# constructors


def make_piecewise(breakpoints: Sequence, pieces: Sequence) -> GenDist:
    """Atom-free piecewise function; normalized."""
    return _assemble(breakpoints, pieces)


def smooth_dist(e) -> GenDist:
    return _assemble((), (as_expr(e),))


def zero_dist() -> GenDist:
    return _assemble((), (ZERO,))


def heaviside(w=0) -> GenDist:
    return _assemble((as_fraction(w),), (ZERO, const(1)))


def indicator(a, b) -> GenDist:
    return _assemble((as_fraction(a), as_fraction(b)), (ZERO, const(1), ZERO))


def delta_dist(w=0, k: int = 0, c: ScalarLike = 1) -> GenDist:
    atom = DeltaAtom(as_fraction(w), k, ComplexRational.of(c))
    return _assemble((), (ZERO,), (atom,))


def is_zero_dist(F: GenDist) -> bool:
    return not F.all_atoms and all(p == ZERO for p in F.pieces)


# ---------------------------------------------------------------------------
# linear structure


def _repiece(ps: PiecewiseSmooth, newbreaks: Sequence[Fraction]
             ) -> Tuple[SmoothExpr, ...]:
    ob, op = ps.breakpoints, ps.pieces
    out = [op[0]]
    for i in range(1, len(newbreaks) + 1):
        start = newbreaks[i - 1]
        out.append(op[bisect.bisect_right(ob, start)])
    return tuple(out)


def align(F: GenDist, G: GenDist) -> Tuple[GenDist, GenDist]:
    """Rewrite both on the union of their breakpoints (pieces duplicated,
    atoms untouched; one already on it is returned as it is).  Results are
    valid but deliberately not normalized."""
    union = tuple(sorted(set(F.breakpoints) | set(G.breakpoints)))
    return tuple(H if len(H.breakpoints) == len(union) else GenDist._unchecked(
        PiecewiseSmooth._unchecked(union, _repiece(H.regular, union)),
        H.all_atoms) for H in (F, G))


def add(*terms: GenDist) -> GenDist:
    """The sum of any number of distributions, n-ary, summed in argument
    order.

    The union of all breakpoints is taken once; each operand's nonzero
    pieces are placed on the union intervals they cover, whose ends are
    found by a dict lookup of each breakpoint's place in the union; each
    interval's piece is one ``sum_of`` of its collected pieces, in operand
    order; all atoms go through one ``_assemble``.  A sum of n
    overlapping steps ``H(x-w1) + ... + H(x-wn)`` hands ``sum_of`` about
    n^2/2 pieces in all, since every step covers every interval to its
    right.

    The result equals the left fold of binary sums, tree for tree, with one
    exception: where the fold joined two neighbouring pieces equal in value
    but written differently, such as x and x^2/x (a quotient stays a tree),
    and a later operand splits them again, each side keeps its own tree
    here, while the fold carries the left tree over both."""
    union = sorted(set().union(*(F.breakpoints for F in terms)))
    place = {b: i for i, b in enumerate(union, 1)}
    collected: List[list] = [[] for _ in range(len(union) + 1)]
    for F in terms:
        ends = [place[b] for b in F.breakpoints]
        for p, i, j in zip(F.pieces, [0] + ends, ends + [len(union) + 1]):
            if p != ZERO:
                for k in range(i, j):
                    collected[k].append(p)
    pieces = [sum_of(*ps) for ps in collected]
    return _assemble(union, pieces, [a for F in terms for a in F.all_atoms])


def _scaled_atoms(cv: ComplexRational, atoms: Iterable[Atom]) -> List[Atom]:
    return [DeltaAtom(a.w, a.k, cv * a.coeff) if isinstance(a, DeltaAtom)
            else InexactAtom(a.w, a.k, complex(cv) * a.coeff) for a in atoms]


def scale(c: ScalarLike, F: GenDist) -> GenDist:
    cv = ComplexRational.of(c)
    pieces = tuple(product_of(Const(cv), p) for p in F.pieces)
    return _assemble(F.breakpoints, pieces, _scaled_atoms(cv, F.all_atoms))


def sub(F: GenDist, G: GenDist) -> GenDist:
    return add(F, scale(-1, G))


# ---------------------------------------------------------------------------
# atom expansion


def _taylor_values(kern: Kernel, w: Fraction, k: int
                   ) -> List[Tuple[int, int, int]]:
    """g^(j)(w)/j! for j = 0..min(k, deg g), g the polynomial kern, as
    unreduced integers (re, im, den): g(w) by ``_horner`` when k = 0, else
    the remainders of repeated synthetic division by x - w = x - p/q, in
    place on the Gaussian integers br + bi*i.  The first division is
    Horner's scheme, whose running values are the quotient times powers of
    q, so each later one shifts by p alone, over one power of q less."""
    p, q = w.numerator, w.denominator
    if k == 0:
        return [_horner(kern, p, 0, q)]
    den, re, im = kern
    n = max(len(re), len(im), 1)
    br, bi = list(re) + [0] * (n - len(re)), list(im) + [0] * (n - len(im))
    pw = 1
    for i in range(n - 2, -1, -1):
        pw *= q
        br[i] = br[i + 1] * p + br[i] * pw
        bi[i] = bi[i + 1] * p + bi[i] * pw
    s = den * pw
    out = [(br[0], bi[0], s)]
    for j in range(1, min(k + 1, n)):
        for i in range(n - 2, j - 1, -1):
            br[i] += p * br[i + 1]
            bi[i] += p * bi[i + 1]
        s //= q
        out.append((br[j], bi[j], s))
    return out


def smooth_times_atom(g: SmoothExpr, a: Atom) -> List[Atom]:
    """Expand g·delta^(k)(x-w) into plain atoms.

    The expansion is sum over j of (k choose j)(-1)^j g^(j)(w)
    delta^(k-j)(x-w); equivalently the unique atom list with the same weak
    action as delta^(k)(·-w) applied to g·t.  Derivative values without an
    exact evaluation produce InexactAtom entries.

    An exact atom times a polynomial leaf stays in integers: a constant
    multiplies the coefficient, and otherwise coefficient j is one reduction
    of the atom coefficient's integers times C(k,j)·j!·(-1)^j times the
    Taylor value g^(j)(w)/j! from ``_taylor_values``.  A tree, even a
    quotient that divides exactly, or an inexact atom, differentiates with
    ``diff_expr`` and evaluates each derivative with ``eval_exact``,
    falling back to floats where that has no exact value.
    """
    g = as_expr(g)
    w, k, c = a.w, a.k, a.coeff
    exact = a.__class__ is DeltaAtom
    if g.__class__ is Const and exact:
        return ([] if c.is_zero or g.value.is_zero
                else [DeltaAtom(w, k, c * g.value)])
    kern = leaf_kernel(g) if exact else None
    out: List[Atom] = []
    if kern is not None:
        f = 1  # C(k,j)·j!·(-1)^j
        for j, (r, i, s) in enumerate(_taylor_values(kern, w, k)):
            cr, ci = c.re_num * r - c.im_num * i, c.re_num * i + c.im_num * r
            if cr or ci:
                out.append(DeltaAtom(w, k - j, cr_of_ints(f * cr, f * ci,
                                                          c.den * s)))
            f *= j - k
        return out
    d = g
    for j in range(k + 1):
        if j > 0:
            d = diff_expr(d)
        v = eval_exact(d, w)
        factor = math.comb(k, j) * (-1) ** j
        if exact and v is not None:
            coeff = c * v * factor
            if not coeff.is_zero:
                out.append(DeltaAtom(w, k - j, coeff))
        else:
            vn = complex(v) if v is not None else eval_expr(d, w)
            if not cmath.isfinite(vn):
                raise DomainError(f"derivative {j} of the smooth factor "
                                  f"overflows a float at {w}, so the "
                                  f"atom coefficient is not finite")
            cn = complex(c) * vn * factor
            if cn != 0:
                out.append(InexactAtom(w, k - j, cn))
    return out


def smooth_mul(g, F: GenDist) -> GenDist:
    """Multiply by a globally smooth expression."""
    g = as_expr(g)
    pieces = tuple(product_of(g, p) for p in F.pieces)
    atoms = [b for a in F.all_atoms for b in smooth_times_atom(g, a)]
    return _assemble(F.breakpoints, pieces, atoms)


# ---------------------------------------------------------------------------
# calculus


def _jump_value(left: SmoothExpr, right: SmoothExpr, w: Fraction
                ) -> Union[ComplexRational, complex, None]:
    """Right limit minus left limit at w; None when zero, exact when possible."""
    if left == right:
        return None
    lv = eval_exact(left, w)
    rv = eval_exact(right, w)
    if lv is not None and rv is not None:
        d = rv - lv
        return None if d.is_zero else d
    lf = complex(lv) if lv is not None else eval_expr(left, w)
    rf = complex(rv) if rv is not None else eval_expr(right, w)
    d = rf - lf
    return None if d == 0 else d


def _derivative_parts(breaks: Sequence[Fraction],
                      pieces: Sequence[SmoothExpr], atoms: Iterable[Atom]
                      ) -> Tuple[Tuple[SmoothExpr, ...], List[Atom]]:
    """The derivative of a shape, unassembled: the pieces differentiated;
    the atoms one order up, then a delta at each jump in breakpoint order."""
    out = [type(a)(a.w, a.k + 1, a.coeff) for a in atoms]
    for i, w in enumerate(breaks):
        d = _jump_value(pieces[i], pieces[i + 1], w)
        if d is None:
            continue
        if isinstance(d, ComplexRational):
            out.append(DeltaAtom(w, 0, d))
        else:
            out.append(InexactAtom(w, 0, d))
    return tuple(diff_expr(p) for p in pieces), out


def differentiate(F: GenDist) -> GenDist:
    """Distributional derivative: pieces differentiate, each breakpoint with
    a jump gains a delta, existing atoms move up one order."""
    return _assemble(F.breakpoints,
                     *_derivative_parts(F.breakpoints, F.pieces, F.all_atoms))


def antiderivative(F: GenDist) -> GenDist:
    """Exact antiderivative for polynomial-piece inputs.

    differentiate(result) reproduces F.  Atoms of order k >= 1 drop to order
    k-1; order-0 atoms become jumps of the regular part.  The regular part is
    continuous elsewhere and the leftmost piece has zero constant term.
    """
    prims = []
    for p in F.pieces:
        prim = poly_antiderivative(p)
        if prim is None:
            raise UnsupportedPiece("antiderivative requires polynomial pieces")
        prims.append(prim)
    if any(isinstance(a, InexactAtom) and a.k == 0 for a in F.all_atoms):
        raise DomainError("order-0 atom with inexact coefficient has no "
                          "exact antiderivative")
    jumps = {a.w: a.coeff for a in F.all_atoms if a.k == 0}
    consts = [CR_ZERO]
    for i, b in enumerate(F.breakpoints):
        c = consts[i] + eval_exact(prims[i], b) - eval_exact(prims[i + 1], b)
        consts.append(c + jumps.get(b, CR_ZERO))
    pieces = [sum_of(prim, Const(c)) for prim, c in zip(prims, consts)]
    atoms = [type(a)(a.w, a.k - 1, a.coeff) for a in F.all_atoms if a.k >= 1]
    return _assemble(F.breakpoints, pieces, atoms)


def translate(F: GenDist, h) -> GenDist:
    """x ↦ x + h: features move left by h (breakpoints and atom locations
    shift by -h), pieces get the substituted variable."""
    hf = as_fraction(h)
    breaks = tuple(b - hf for b in F.breakpoints)
    pieces = tuple(shift_expr(p, hf) for p in F.pieces)
    atoms = [type(a)(a.w - hf, a.k, a.coeff) for a in F.all_atoms]
    return _assemble(breaks, pieces, atoms)


# ---------------------------------------------------------------------------
# structure queries


def singular_support(F: GenDist) -> List[Fraction]:
    """Breakpoints carrying nonzero atoms or a non-provably-smooth junction."""
    atom_locs = {a.w for a in _merge_atoms(F.all_atoms)}
    return [w for i, w in enumerate(F.breakpoints) if w in atom_locs
            or exact_verdict(F.pieces[i], F.pieces[i + 1]) is not Verdict.EQUAL]


_INEXACT_RTOL = 1e-9


def _atom_sums(F: GenDist) -> dict:
    """(w, k) -> total coefficient; a float wherever an inexact atom sits."""
    out: dict = {}
    for a in F.all_atoms:
        key = (a.w, a.k)
        prev = out.get(key, CR_ZERO)
        if isinstance(a, InexactAtom) or isinstance(prev, complex):
            out[key] = complex(prev) + complex(a.coeff)
        else:
            out[key] = prev + a.coeff
    return out


def equal_dist(F: GenDist, G: GenDist) -> Verdict:
    """Equal from structure when F == G with exact atoms only: equal exact
    results are the same canonical record.  Otherwise compare on the union
    of the breakpoints: atoms by their summed coefficient per (location,
    order), exactly, and pieces by expr_equal on each interval; the worst
    verdict wins.  Inexact atoms can at best leave the verdict Unknown.
    Nothing is normalized first: on a hand-built value the sums stand in
    for merging."""
    if F == G and all(a.__class__ is DeltaAtom for a in F.all_atoms):
        return Verdict.EQUAL
    Fa, Ga = align(F, G)
    verdict = Verdict.EQUAL
    fs, gs = _atom_sums(Fa), _atom_sums(Ga)
    for key in fs.keys() | gs.keys():
        a, b = fs.get(key, CR_ZERO), gs.get(key, CR_ZERO)
        if not (isinstance(a, complex) or isinstance(b, complex)):
            if a != b:
                return Verdict.UNEQUAL
            continue
        a, b = complex(a), complex(b)
        if abs(a - b) > _INEXACT_RTOL * (1 + max(abs(a), abs(b))):
            return Verdict.UNEQUAL
        verdict = worst_verdict(verdict, Verdict.UNKNOWN)
    for i in range(len(Fa.pieces)):
        lo, hi = _piece_interval(Fa.breakpoints, i)
        verdict = worst_verdict(verdict, expr_equal(Fa.pieces[i], Ga.pieces[i],
                                                    (lo, hi)))
        if verdict is Verdict.UNEQUAL:
            return verdict
    return verdict
