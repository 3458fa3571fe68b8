"""Numerical weak actions and the translation-limit oracle.

``action`` evaluates <F, t> for a compactly supported bump t: piecewise
Gauss-Legendre quadrature for the regular part (split at every breakpoint so
each panel sees a smooth integrand) plus coeff·(-1)^k·t^(k)(w) for the
atoms.

``epsilon_product_action`` evaluates <F·G^eps, t> while deliberately
avoiding the closed-form product code: G is sampled at shifted points inside
the integral, and every atom term is obtained by numerically differentiating
the product of the opposing smooth piece with the bump (Cauchy integral on a
small circle, which needs only function values).  ``star_oracle`` drives it
along a shrinking eps schedule and extrapolates, giving an independent check
of the symbolic product.

Both evaluate in one numpy pass.  They first collect rows: a panel row is
a panel's float ends and its factors, each a (piece, shift) pair standing
for piece(x + shift); an atom row of the eps-actions is a location, an
order, a circle radius and one factor.  The exact checks run while the
rows are collected.  The float bookkeeping that does not move with eps,
the bump's ends, F's breakpoints and atoms and the piece finders, is done
once per call, not once per eps.
``_quadrature`` then evaluates each distinct piece once, in one
``eval_num`` call over the Gauss nodes of every row and factor it appears
in, each row at its own shift, and the bump once over all nodes;
``_cauchy`` does the same on the atoms' circles.  ``star_oracle`` sends the
rows of its whole eps schedule through one call of each, and each eps
value is summed in the order of the per-panel loop it replaces.  eval_num
is elementwise, so every value is unchanged.

The bump that ``make_bump`` builds, c·exp(-1/(1-u^2)), is evaluated with
its derivatives in closed form, c·P_k(u)·exp(-1/v - 2k·log v) with
v = (1-u)(1+u) and P_k an integer polynomial (``_bump_closed``): that walks
no tree, and keeps its relative accuracy near the support ends, where the
expanded 1 - u^2 of the symbolic derivatives cancels.  Any other body, such
as ``bump_derivative``'s or one built by hand, is evaluated from its
symbolic derivatives, the one route that knows it.

Neither integrates across a pole: a piece with a polynomial denominator,
a quotient's or a negative power's, in lowest terms, that has a real root
on the segment being integrated raises DomainError (``_refuse_pole``, by
expr's one rule for poles); ``vanishes_between`` counts the roots
exactly.
"""

from __future__ import annotations

import bisect
import functools
import math
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

from .dist import GenDist, singular_support
from .errors import DomainError, EpsilonTooLarge, ShapeError
from .expr import (Const, Product, QUOTIENT_GUARD, SmoothExpr, X, const,
                   diff_expr, eval_num, exp_of, pole_denominators, power_of,
                   product_of, quotient_of, sub_expr, vanishes_between, ONE,
                   ZERO)
from .scalars import as_fraction, record


# ---------------------------------------------------------------------------
# bump test functions


@record
class TestFunction:
    """A bump supported on [a, b]: body(u) in the normalized variable
    u = (2x - a - b)/(b - a), extended by zero outside.  The default body
    c·exp(-1/(1-u^2)) vanishes with all derivatives at the endpoints."""
    a: Fraction
    b: Fraction
    body: SmoothExpr


def make_bump(a, b, c=1) -> TestFunction:
    af, bf = as_fraction(a), as_fraction(b)
    if af >= bf:
        raise ShapeError("bump support needs a < b")
    try:
        float(af), float(bf)
    except OverflowError:
        raise DomainError("a bump end does not fit in a float") from None
    return TestFunction(af, bf, product_of(const(c), _bump_core()))


@functools.lru_cache(maxsize=1)
def _bump_core() -> SmoothExpr:
    """exp(-1/(1-u^2)), the factor of every body that make_bump builds."""
    return exp_of(quotient_of(const(-1), sub_expr(ONE, power_of(X, 2))))


def _bump_amplitude(body: SmoothExpr) -> Optional[complex]:
    """c when body is make_bump's c·exp(-1/(1-u^2)), else None."""
    c, core = ONE, body
    if (isinstance(body, Product) and len(body.factors) == 2
            and isinstance(body.factors[0], Const)):
        c, core = body.factors
    return complex(c.value) if core == _bump_core() else None


@functools.lru_cache(maxsize=None)
def _bump_poly(k: int) -> Tuple[int, ...]:
    """P_k, ascending integer coefficients, such that the k-th derivative
    of exp(-1/v), v = 1 - u^2, is P_k(u)·exp(-1/v)/v^(2k): P_0 = 1 and
    P_(k+1) = v^2·P_k' + (4k·u·v - 2u)·P_k."""
    if k == 0:
        return (1,)
    p, j = _bump_poly(k - 1), k - 1
    out = [0] * (len(p) + 3)
    for i, c in enumerate(p):
        if i:  # v^2·P' with v^2 = 1 - 2u^2 + u^4
            out[i - 1] += i * c
            out[i + 1] -= 2 * i * c
            out[i + 3] += i * c
        out[i + 1] += (4 * j - 2) * c  # (4j·u·v - 2u) = (4j - 2)u - 4j·u^3
        out[i + 3] -= 4 * j * c
    while out[-1] == 0:
        out.pop()
    return tuple(out)


def _bump_closed(c: complex, k: int, u: np.ndarray) -> np.ndarray:
    """The k-th derivative of c·exp(-1/(1-u^2)) at real or complex u, in
    closed form: c·P_k(u)·exp(-1/v - 2k·log v) with v = (1-u)(1+u), which
    keeps its relative accuracy up to the support ends, where the expanded
    1 - u^2 of the symbolic derivative cancels.  A v within
    ``QUOTIENT_GUARD`` of 0 raises, as ``eval_num`` does at a pole."""
    import numpy as np
    v = (1.0 - u) * (1.0 + u)
    if v.size and np.min(np.abs(v)) <= QUOTIENT_GUARD:
        raise DomainError("denominator below evaluation guard")
    p = _bump_poly(k)
    acc = np.full(u.shape, float(p[-1]), dtype=u.dtype)
    for a in reversed(p[:-1]):
        acc *= u
        acc += a
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = -1.0 / v - 2 * k * np.log(v) if k else -1.0 / v
        return c * (acc * np.exp(w))


def _body_values(body: SmoothExpr, k: int, u: np.ndarray) -> np.ndarray:
    """The k-th derivative of a bump body at u: in closed form for
    make_bump's bodies, else by evaluating the symbolic derivative."""
    c = _bump_amplitude(body)
    if c is None:
        return eval_num(_body_deriv(body, k), u)
    return _bump_closed(c, k, u)


@functools.lru_cache(maxsize=4096)
def _body_deriv(body: SmoothExpr, k: int) -> SmoothExpr:
    if k == 0:
        return body
    return diff_expr(_body_deriv(body, k - 1))


def _u_of_x(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The normalized variable of the bump on [a, b] at x."""
    return (2.0 * x - a - b) / (b - a)


def bump_values(t: TestFunction, x, guard: float = 0.0) -> np.ndarray:
    """t at real points; zero outside the (guard-shrunk) support."""
    return bump_deriv_values(t, 0, x, guard)


def bump_deriv_values(t: TestFunction, k: int, x, guard: float = 0.0) -> np.ndarray:
    """k-th derivative of t at real points.  Within `guard` of an endpoint
    the value is exactly 0 (all true derivatives vanish there faster than
    any polynomial).  A make_bump body takes the closed form of
    ``_bump_closed``; any other body, such as bump_derivative's, is
    evaluated from its symbolic derivative."""
    import numpy as np
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    a, b = float(t.a), float(t.b)
    inside = (xs > a + guard) & (xs < b - guard)
    out = np.zeros(xs.shape, dtype=complex)
    if np.any(inside):
        u = _u_of_x(a, b, xs[inside])
        out[inside] = (2.0 / (b - a)) ** k * _body_values(t.body, k, u)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return complex(out[0])
    return out


def bump_analytic(t: TestFunction, z) -> np.ndarray:
    """The bump's smooth branch at complex points (no support cutoff); valid
    near real points strictly inside ]a, b[."""
    import numpy as np
    return _body_values(t.body, 0, _u_of_x(float(t.a), float(t.b),
                                            np.asarray(z, dtype=complex)))


def bump_derivative(t: TestFunction) -> TestFunction:
    """The bump whose values are t': same support, body d/du scaled by the
    chain factor."""
    chain = Fraction(2) / (t.b - t.a)
    return TestFunction(t.a, t.b, product_of(const(chain), diff_expr(t.body)))


# ---------------------------------------------------------------------------
# quadrature configuration

_GUARD = 1e-12  # the support ends move in by this much before integration


@record
class QuadratureConfig:
    nodes: int = 64
    eps_schedule: Tuple[Fraction, ...] = (Fraction(1, 100), Fraction(1, 1000),
                                          Fraction(1, 10000))
    extrapolation: str = "richardson"  # or "last-value"

    def __post_init__(self):
        if self.nodes < 1:
            raise ShapeError("need at least one quadrature node")
        sched = tuple(as_fraction(e) for e in self.eps_schedule)
        object.__setattr__(self, "eps_schedule", sched)
        if any(e <= 0 for e in sched):
            raise ShapeError("epsilon schedule must be positive")
        if any(sched[i] <= sched[i + 1] for i in range(len(sched) - 1)):
            raise ShapeError("epsilon schedule must be strictly descending")
        if self.extrapolation not in ("richardson", "last-value"):
            raise ShapeError("extrapolation must be 'richardson' or 'last-value'")


DEFAULT_CONFIG = QuadratureConfig()


@functools.lru_cache(maxsize=64)
def _gauss(n: int) -> Tuple[np.ndarray, np.ndarray]:
    import numpy as np
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _quadrature(t: TestFunction, panels: Sequence[tuple],
                cfg: QuadratureConfig) -> list:
    """Gauss-Legendre quadrature of factors·t over each panel row
    (fs, fe, factors), where each factor (piece, shift) stands for
    piece(x + shift).  The node matrix is built once; each distinct piece
    is evaluated once over every row and factor it appears in, the factors
    are multiplied in the rows' factor order, then t once over all nodes.
    One value per row."""
    import numpy as np
    if not panels:
        return []
    x, w = _gauss(cfg.nodes)
    lo = np.array([p[0] for p in panels])
    hi = np.array([p[1] for p in panels])
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    xs = mid[:, None] + half[:, None] * x
    vals, *rest = _factor_values(xs, list(zip(*(p[2] for p in panels))))
    for col in rest:
        vals *= col
    vals *= bump_values(t, xs.ravel(), _GUARD).reshape(xs.shape)
    sums = (w * vals).sum(axis=1)
    return [complex(h * v) for h, v in zip(half.tolist(), sums)]


def _factor_values(zs: np.ndarray, cols: Sequence[Sequence[tuple]]
                   ) -> np.ndarray:
    """out[j, i] = piece(zs[i] + shift) for the factor (piece, shift) in
    row i of column j.  Each distinct piece is evaluated once, in one
    ``eval_num`` call over all of its rows in every column, each row moved
    by its own shift; eval_num is elementwise, so every value is the one a
    call per (piece, shift) would give."""
    import numpy as np
    n = len(zs)
    groups = {}  # piece -> (rows of out, rows of zs, shifts)
    for j, col in enumerate(cols):
        for i, (piece, shift) in enumerate(col):
            g = groups.get(piece)
            if g is None:
                groups[piece] = g = ([], [], [])
            g[0].append(j * n + i)
            g[1].append(i)
            g[2].append(shift)
    out = np.empty((len(cols) * n, zs.shape[1]), dtype=complex)
    for piece, (rows, ix, shifts) in groups.items():
        z = zs[ix]
        if any(shifts):
            z += np.array(shifts)[:, None]
        out[rows] = eval_num(piece, z.ravel()).reshape(z.shape)
    return out.reshape((len(cols),) + zs.shape)


def _segments(t: TestFunction, cuts: Sequence[Fraction]) -> list:
    """The panels (s, e, fs, fe) of the bump's support between the cuts:
    the float ends fs < fe are integrated, the support ends moved in by
    ``_GUARD``; s and e are the exact cuts or support ends they stand for."""
    return _cut_support(t, float(t.a) + _GUARD, float(t.b) - _GUARD,
                        {float(c): c for c in cuts})


def _cut_support(t: TestFunction, lo: float, hi: float, inner: dict) -> list:
    """``_segments`` for the guarded float support ends lo and hi and the
    cuts as a map float -> exact cut, converted by the caller."""
    pts = ([(lo, t.a)] + sorted((f, c) for f, c in inner.items() if lo < f < hi)
           + [(hi, t.b)])
    return [(s, e, fs, fe) for (fs, s), (fe, e) in zip(pts, pts[1:]) if fe > fs]


# ---------------------------------------------------------------------------
# poles


def _refuse_pole(p: SmoothExpr, s: Fraction, e: Fraction, t: TestFunction,
                 shift: Fraction = Fraction(0)) -> None:
    """Raise DomainError when the integrand factor p(x + shift) on the
    segment [s, e] has a pole: a denominator of ``pole_denominators(p)``,
    from a quotient or a negative power, vanishes on the segment.  The
    support ends t.a and t.b are exempt, since the bump vanishes there to
    every order.  A denominator that is not a polynomial, such as sin(x) in
    1/sin(x), cannot be checked, and a removable singularity that
    polynomial factors do not cancel, such as 0 in sin(x)/x, is refused
    like a pole, and so is the zero polynomial, on every segment."""
    for k in pole_denominators(p):
        lo, hi = s + shift, e + shift
        if vanishes_between(k, lo, hi, s != t.a, e != t.b):
            raise DomainError(f"a denominator has a root on "
                              f"[{lo}, {hi}], inside the bump's support")


def _piece_finder(F: GenDist) -> Callable[[float], SmoothExpr]:
    """x -> the piece of F at x, the one to the left at a breakpoint; the
    breakpoints are converted to float once, and each lookup bisects."""
    fb = [float(b) for b in F.breakpoints]
    return lambda x: F.pieces[bisect.bisect_left(fb, x)]


# ---------------------------------------------------------------------------
# weak action


def action(F: GenDist, t: TestFunction, cfg: Optional[QuadratureConfig] = None
           ) -> complex:
    """<F, t>: quadrature of the regular part over supp t plus
    coeff·(-1)^k·t^(k)(w) for every atom, t^(k) evaluated once per order k
    over all of its atoms."""
    cfg = cfg or DEFAULT_CONFIG
    lo, hi = float(t.a) + _GUARD, float(t.b) - _GUARD
    piece_at = _piece_finder(F)
    panels = []
    for s, e, fs, fe in _segments(t, F.breakpoints):
        piece = piece_at((fs + fe) / 2.0)
        if piece == ZERO:
            continue
        _refuse_pole(piece, s, e, t)
        panels.append((fs, fe, ((piece, 0.0),)))
    total = 0j
    for v in _quadrature(t, panels, cfg):
        total += v
    atoms = [(a, w) for a in F.all_atoms if lo < (w := float(a.w)) < hi]
    by_k = {}
    for a, w in atoms:
        by_k.setdefault(a.k, []).append(w)
    tks = {k: iter(bump_deriv_values(t, k, ws, _GUARD))
           for k, ws in by_k.items()}
    for a, _ in atoms:
        total += complex(a.coeff) * (-1) ** a.k * complex(next(tks[a.k]))
    return total


# ---------------------------------------------------------------------------
# the translation-limit oracle


def _cauchy(t: TestFunction, atoms: Sequence[tuple]) -> list:
    """For each atom row (w, k, r, factor), the k-th derivative at w of
    factor·t, from values on the circle of radius r about w (trapezoidal
    Cauchy integral; spectrally accurate).  Each distinct piece and the
    bump's analytic branch are evaluated once over all circles."""
    import numpy as np
    if not atoms:
        return []
    nodes = 64  # on each circle
    th = 2.0 * np.pi * np.arange(nodes) / nodes
    circle = np.exp(1j * th)
    zs = np.array([w + r * circle for w, _, r, _ in atoms])
    vals = _factor_values(zs, [[a[3] for a in atoms]])[0]
    vals *= bump_analytic(t, zs.ravel()).reshape(zs.shape)
    out = []
    for (_, k, r, _), v in zip(atoms, vals):
        if k == 0:
            out.append(complex(np.mean(v)))
        else:
            out.append(complex(math.factorial(k) / (nodes * r ** k)
                               * np.sum(v * np.exp(-1j * k * th))))
    return out


def _atom_radius(w: float, lo: float, hi: float) -> float:
    return min(0.35 * (w - lo), 0.35 * (hi - w), 0.1)


def _eps_rows(F: GenDist, G: GenDist, sf: Sequence[Fraction],
              sg: Sequence[Fraction], t: TestFunction, eps_values) -> list:
    """For each eps, the panel rows of <F·G^eps, t> for ``_quadrature`` and
    its atom terms (c, row), c = coeff·(-1)^k and row for ``_cauchy``,
    after the exact checks: the singular supports sf of F and sg of G,
    shifted by eps, are disjoint, zero pieces are skipped, and no
    integrated piece has a pole.  The bump's ends and F's breakpoints
    and atoms are converted to float, and both piece finders built, once
    per call; only what moves with eps, G's breakpoints and atoms, is
    converted per eps."""
    ta, tb = float(t.a), float(t.b)
    lo, hi = ta + _GUARD, tb - _GUARD
    f_at, g_at = _piece_finder(F), _piece_finder(G)
    f_cuts = {float(c): c for c in F.breakpoints}
    f_atoms = [(a, complex(a.coeff) * (-1) ** a.k,
                (w, a.k, _atom_radius(w, ta, tb)))
               for a in F.all_atoms if lo < (w := float(a.w)) < hi]
    g_atoms = [(a, complex(a.coeff) * (-1) ** a.k) for a in G.all_atoms]
    sf = set(sf)
    out = []
    for epsf in eps_values:
        sg_shift = {v - epsf for v in sg}
        if sf & sg_shift:
            raise EpsilonTooLarge(f"eps={epsf} collides singular supports "
                                  f"at {sorted(sf & sg_shift)}")
        eps_float = float(epsf)
        cuts = dict(f_cuts)
        cuts.update((float(c), c) for c in (b - epsf for b in G.breakpoints))
        panels = []
        for s, e, fs, fe in _cut_support(t, lo, hi, cuts):
            mid = (fs + fe) / 2.0
            fp = f_at(mid)
            gp = g_at(mid + eps_float)
            if fp == ZERO or gp == ZERO:
                continue
            _refuse_pole(fp, s, e, t)
            _refuse_pole(gp, s, e, t, epsf)
            panels.append((fs, fe, ((fp, 0.0), (gp, eps_float))))
        atoms = [(c, row + ((g_at(float(a.w + epsf)), eps_float),))
                 for a, c, row in f_atoms]
        for a, c in g_atoms:
            w = float(a.w - epsf)
            if lo < w < hi:
                atoms.append((c, (w, a.k, _atom_radius(w, ta, tb),
                                  (f_at(w), 0.0))))
        out.append((panels, atoms))
    return out


def _eps_actions(F: GenDist, G: GenDist, sf: Sequence[Fraction],
                 sg: Sequence[Fraction], t: TestFunction, eps_values,
                 cfg: QuadratureConfig) -> list:
    """<F·G^eps, t> for each eps, given the singular supports sf and sg: the
    rows of every eps go through one ``_quadrature`` and one ``_cauchy``
    call, and each eps's terms are added back in row order, panels first."""
    parts = _eps_rows(F, G, sf, sg, t, [as_fraction(e) for e in eps_values])
    panel_vals = iter(_quadrature(t, [p for ps, _ in parts for p in ps], cfg))
    atom_vals = iter(_cauchy(t, [row for _, ats in parts for _, row in ats]))
    out = []
    for panels, atoms in parts:
        total = 0j
        for _ in panels:
            total += next(panel_vals)
        for c, _ in atoms:
            total += c * next(atom_vals)
        out.append(total)
    return out


def epsilon_product_action(F: GenDist, G: GenDist, t: TestFunction, eps,
                           cfg: Optional[QuadratureConfig] = None) -> complex:
    """<F(x)·G(x+eps), t> without the closed-form product code.

    Regular part: quadrature of f(x)·g(x+eps)·t(x) split at the breakpoints
    of F and of the shifted G.  Atoms: an atom of F at w meets the G piece
    covering w+eps, an atom of G at v sits at v-eps and meets the F piece
    covering that point; either way the contribution is
    coeff·(-1)^k·(m·t)^(k) at the location, differentiated numerically from
    complex function values.  Requires the shifted singular supports to be
    exactly disjoint.
    """
    return _eps_actions(F, G, singular_support(F), singular_support(G), t,
                        [eps], cfg or DEFAULT_CONFIG)[0]


def _neville(hs: Sequence[float], vals: Sequence[complex]) -> complex:
    """The value at 0 of the polynomial through the points (hs[i], vals[i]).
    Column m of Neville's table holds the values at 0 of the polynomials
    through m + 1 consecutive points; two points give
    (h0·v1 - h1·v0)/(h0 - h1)."""
    col = list(vals)
    for m in range(1, len(col)):
        col = [(hs[i] * col[i + 1] - hs[i + m] * col[i]) / (hs[i] - hs[i + m])
               for i in range(len(col) - 1)]
    return col[0]


def _smallest_gap(sf: Sequence[Fraction], sg: Sequence[Fraction]):
    """The smallest nonzero distance between a point of sf and one of sg
    (inf when there is none): no |eps| below it moves a singular point of
    the shifted G onto one of F."""
    return min((abs(v - u) for u in sf for v in sg if v != u),
               default=math.inf)


def star_oracle(F: GenDist, G: GenDist, t: TestFunction,
                cfg: Optional[QuadratureConfig] = None,
                direction: int = 1) -> complex:
    """Extrapolated eps -> 0 limit of <F·G^eps, t> along cfg.eps_schedule.

    direction=-1 translates the other way; its limit is star(G, F).
    The actions at every eps of the schedule come from one quadrature pass.
    Below the smallest nonzero gap between the singular points of F in the
    bump's support [a, b] and those of G the action is smooth in eps; at a
    larger eps a shifted singular point of G may have crossed one of F,
    leaving a kink or a jump between the schedule's values (a crossing
    outside [a, b] meets a zero integrand).  So the default Richardson mode
    extrapolates with a Neville table over the schedule's values below
    that gap: n values cancel the error terms up to eps^(n-1), at no extra
    quadrature (Richardson 1911; Sidi, *Practical Extrapolation Methods*,
    2003, ch. 1).  When fewer than two values lie below the gap (none, for a
    one-value schedule), the schedule is first scaled by gap/(2·eps_0),
    eps_0 its largest value, so that all do, in either mode and at the
    same number of quadratures; DomainError if floats then cannot tell a
    shifted singular point inside the support from one of the other factor.
    "last-value" returns the action at the smallest eps.
    """
    cfg = cfg or DEFAULT_CONFIG
    sf, sg = singular_support(F), singular_support(G)
    inside = [u for u in sf if t.a <= u <= t.b]
    gap = _smallest_gap(inside, sg)
    sched = cfg.eps_schedule
    if sum(e < gap for e in sched) < min(2, len(sched)):
        sched = [e * gap / (2 * sched[0]) for e in sched]
        if any(float(v - h) == float(u) or float(u + h) == float(v)
               for u in inside for v in sg
               for h in (direction * e for e in sched)):
            raise DomainError(f"shifts below the gap {gap} vanish in floats")
    hs = [direction * e for e in sched]
    vals = _eps_actions(F, G, sf, sg, t, hs, cfg)
    if cfg.extrapolation == "last-value":
        return vals[-1]
    n = sum(e < gap for e in sched)
    return _neville([float(h) for h in hs[-n:]], vals[-n:])
