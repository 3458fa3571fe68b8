"""Multiplicative structure on piecewise + delta distributions.

``star`` is the associative, noncommutative product obtained as the weak
limit of F(x)·G(x+eps) for eps -> 0+.  Its closed form multiplies aligned
regular parts pointwise and pairs each atom with a one-sided piece of the
other factor: F's atoms see G's piece just RIGHT of the atom location, G's
atoms see F's piece just LEFT of it.  That one-sided selection is the entire
asymmetry and lives in ``star`` alone; the product variants are that
product with its arguments swapped, so they share one audited site.

``hormander`` is the classical product for disjoint singular supports; it is
implemented independently (covering pieces instead of one-sided pieces) so
the two routes can be compared in tests.
"""

from __future__ import annotations

import bisect
import enum
from fractions import Fraction

from .dist import (GenDist, _assemble, align, normalize_dist, add, scale, sub,
                   singular_support, smooth_times_atom)
from .errors import OverlapError
from .expr import product_of


class VariantTag(enum.Enum):
    STAR = "star"
    STAR2 = "star2"
    STAR3 = "star3"
    STAR4 = "star4"
    STAR5 = "star5"


def star(F: GenDist, G: GenDist) -> GenDist:
    """The noncommutative product; associative, distributive, and equal to
    the pointwise product whenever either factor is smooth."""
    Fa, Ga = align(F, G)
    breaks = Fa.breakpoints
    pieces = tuple(product_of(p, q) for p, q in zip(Fa.pieces, Ga.pieces))
    atoms = []
    # every atom location is a breakpoint; per (location, order) the
    # F-atom terms are summed before the G-atom terms
    for a in Fa.all_atoms:
        j = bisect.bisect_left(breaks, a.w)
        atoms += smooth_times_atom(Ga.pieces[j + 1], a)
    for a in Ga.all_atoms:
        j = bisect.bisect_left(breaks, a.w)
        atoms += smooth_times_atom(Fa.pieces[j], a)
    return _assemble(breaks, pieces, atoms)


def star_variant(F: GenDist, G: GenDist, tag: VariantTag) -> GenDist:
    """The related products: star2 (the opposite-side translation limit)
    and star3 are star(G, F); star4, which is star2 with its arguments
    swapped, is star(F, G); star5 is the symmetrization (commutative but not
    associative)."""
    if tag in (VariantTag.STAR, VariantTag.STAR4):
        return star(F, G)
    if tag in (VariantTag.STAR2, VariantTag.STAR3):
        return star(G, F)
    if tag is VariantTag.STAR5:
        return scale(Fraction(1, 2), add(star(F, G), star(G, F)))
    raise ValueError(f"unknown variant {tag!r}")


def bracket(F: GenDist, G: GenDist) -> GenDist:
    """Lie bracket star(F,G) - star(G,F); always atom-only, supported on the
    union of the two singular supports."""
    return sub(star(F, G), star(G, F))


def hormander(F: GenDist, G: GenDist) -> GenDist:
    """Product for disjoint singular supports: aligned pointwise piece
    product, each atom multiplied by the piece of the other factor whose
    interval covers the atom location."""
    Fn = normalize_dist(F)
    Gn = normalize_dist(G)
    sf = set(singular_support(Fn))
    sg = set(singular_support(Gn))
    if sf & sg:
        where = ", ".join(str(w) for w in sorted(sf & sg))
        raise OverlapError(f"singular supports intersect at {where}; "
                           f"use star instead")
    Fa, Ga = align(Fn, Gn)
    pieces = tuple(product_of(p, q) for p, q in zip(Fa.pieces, Ga.pieces))
    atoms = []
    for a in Fn.all_atoms:
        cover = Gn.pieces[bisect.bisect_right(Gn.breakpoints, a.w)]
        atoms += smooth_times_atom(cover, a)
    for a in Gn.all_atoms:
        cover = Fn.pieces[bisect.bisect_right(Fn.breakpoints, a.w)]
        atoms += smooth_times_atom(cover, a)
    return _assemble(Fa.breakpoints, pieces, atoms)
