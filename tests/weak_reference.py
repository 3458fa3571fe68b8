"""The per-panel weak actions that ``distalg.weak`` evaluates in one pass.

Each Gauss panel and each atom's Cauchy circle here evaluates the bump and
its pieces afresh, once per eps value.  The tests hold the one-pass code to
these values exactly (``==``), and to the same exceptions.
"""

import math

import numpy as np

from distalg.dist import normalize_dist, singular_support
from distalg.errors import EpsilonTooLarge
from distalg.expr import const, eval_num
from distalg.scalars import as_fraction
from distalg.weak import (DEFAULT_CONFIG, _GUARD, _atom_radius, _gauss,
                          _piece_finder, _refuse_pole, _segments,
                          bump_analytic, bump_deriv_values, bump_values)


def panel_integral(fn, lo, hi, nodes):
    if hi <= lo:
        return 0j
    x, w = _gauss(nodes)
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    vals = np.asarray(fn(mid + half * x), dtype=complex)
    return complex(half * np.sum(w * vals))


def cauchy_deriv(fn, w, k, r, nodes=64):
    th = 2.0 * np.pi * np.arange(nodes) / nodes
    z = w + r * np.exp(1j * th)
    vals = np.asarray(fn(z), dtype=complex)
    if k == 0:
        return complex(np.mean(vals))
    return complex(math.factorial(k) / (nodes * r ** k)
                   * np.sum(vals * np.exp(-1j * k * th)))


def action(F, t, cfg=None):
    cfg = cfg or DEFAULT_CONFIG
    lo, hi = float(t.a) + _GUARD, float(t.b) - _GUARD
    total = 0j
    piece_at = _piece_finder(F)
    for s, e, fs, fe in _segments(t, F.breakpoints):
        piece = piece_at((fs + fe) / 2.0)
        if piece == const(0):
            continue
        _refuse_pole(piece, s, e, t)
        total += panel_integral(
            lambda xs: eval_num(piece, xs) * bump_values(t, xs, _GUARD),
            fs, fe, cfg.nodes)
    for a in F.all_atoms:
        w = float(a.w)
        if not (lo < w < hi):
            continue
        tk = bump_deriv_values(t, a.k, w, _GUARD)
        total += complex(a.coeff) * (-1) ** a.k * tk
    return total


def epsilon_product_action(F, G, t, eps, cfg=None):
    cfg = cfg or DEFAULT_CONFIG
    epsf = as_fraction(eps)
    Fn = normalize_dist(F)
    Gn = normalize_dist(G)
    sf = set(singular_support(Fn))
    sg_shift = {v - epsf for v in singular_support(Gn)}
    if sf & sg_shift:
        raise EpsilonTooLarge(f"eps={epsf} collides singular supports at "
                              f"{sorted(sf & sg_shift)}")
    eps_float = float(epsf)
    lo, hi = float(t.a) + _GUARD, float(t.b) - _GUARD
    total = 0j
    f_at, g_at = _piece_finder(Fn), _piece_finder(Gn)
    cuts = list(Fn.breakpoints) + [b - epsf for b in Gn.breakpoints]
    for s, e, fs, fe in _segments(t, cuts):
        mid = (fs + fe) / 2.0
        fp = f_at(mid)
        gp = g_at(mid + eps_float)
        if fp == const(0) or gp == const(0):
            continue
        _refuse_pole(fp, s, e, t)
        _refuse_pole(gp, s, e, t, epsf)
        total += panel_integral(
            lambda xs: (eval_num(fp, xs) * eval_num(gp, xs + eps_float)
                        * bump_values(t, xs, _GUARD)),
            fs, fe, cfg.nodes)
    for a in Fn.all_atoms:
        w = float(a.w)
        if not (lo < w < hi):
            continue
        gp = g_at(float(a.w + epsf))
        fn = lambda z: eval_num(gp, z + eps_float) * bump_analytic(t, z)
        d = cauchy_deriv(fn, w, a.k, _atom_radius(w, float(t.a), float(t.b)))
        total += complex(a.coeff) * (-1) ** a.k * d
    for a in Gn.all_atoms:
        wv = a.w - epsf
        w = float(wv)
        if not (lo < w < hi):
            continue
        fp = f_at(w)
        fn = lambda z: eval_num(fp, z) * bump_analytic(t, z)
        d = cauchy_deriv(fn, w, a.k, _atom_radius(w, float(t.a), float(t.b)))
        total += complex(a.coeff) * (-1) ** a.k * d
    return total


def star_oracle(F, G, t, cfg=None, direction=1):
    """The eps actions along the schedule, then the last value or the
    two-point Richardson step on the last two."""
    cfg = cfg or DEFAULT_CONFIG
    vals = [epsilon_product_action(F, G, t, direction * e, cfg)
            for e in cfg.eps_schedule]
    if cfg.extrapolation == "last-value" or len(vals) < 2:
        return vals[-1]
    e1, e2 = (float(direction * cfg.eps_schedule[-2]),
              float(direction * cfg.eps_schedule[-1]))
    v1, v2 = vals[-2], vals[-1]
    return (e1 * v2 - e2 * v1) / (e1 - e2)
