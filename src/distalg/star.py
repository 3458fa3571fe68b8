"""Multiplicative structure on piecewise + delta distributions.

``star`` is the associative, noncommutative product obtained as the weak
limit of F(x)·G(x+eps) for eps -> 0+.  Its closed form multiplies aligned
regular parts pointwise and pairs each atom with a one-sided piece of the
other factor: F's atoms see G's piece just RIGHT of the atom location, G's
atoms see F's piece just LEFT of it.  That one-sided selection is the entire
asymmetry and lives in ``_atom_terms`` alone, which ``star`` and
``bracket`` share; the product variants are that product with its
arguments swapped, so they share the same audited site.

``hormander`` is the classical product for disjoint singular supports; it is
implemented independently (covering pieces instead of one-sided pieces) so
the two routes can be compared in tests.
"""

from __future__ import annotations

import bisect
import enum
from fractions import Fraction
from typing import List

from .dist import (Atom, GenDist, _assemble, _merge_atoms, _scaled_atoms,
                   align, add, scale, singular_support,
                   smooth_times_atom)
from .errors import OverlapError
from .expr import ZERO, product_of
from .scalars import ComplexRational


_MINUS_ONE = ComplexRational.of(-1)


class VariantTag(enum.Enum):
    STAR = "star"
    STAR2 = "star2"
    STAR3 = "star3"
    STAR4 = "star4"
    STAR5 = "star5"


def _atom_terms(Fa: GenDist, Ga: GenDist) -> List[Atom]:
    """The unmerged atom terms of star(F, G) from the aligned factors:
    each F atom times G's piece just right of it, then each G atom times
    F's piece just left of it.  Every atom location is a breakpoint; per
    (location, order) the F-atom terms are summed before the G-atom
    terms."""
    breaks = Fa.breakpoints
    atoms: List[Atom] = []
    for a in Fa.all_atoms:
        j = bisect.bisect_left(breaks, a.w)
        atoms += smooth_times_atom(Ga.pieces[j + 1], a)
    for a in Ga.all_atoms:
        j = bisect.bisect_left(breaks, a.w)
        atoms += smooth_times_atom(Fa.pieces[j], a)
    return atoms


def star(F: GenDist, G: GenDist) -> GenDist:
    """The noncommutative product; associative, distributive, and equal to
    the pointwise product whenever either factor is smooth."""
    Fa, Ga = align(F, G)
    pieces = tuple(product_of(p, q) for p, q in zip(Fa.pieces, Ga.pieces))
    return _assemble(Fa.breakpoints, pieces, _atom_terms(Fa, Ga))


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
    union of the two singular supports.

    Both products multiply the same aligned pieces pointwise, and the
    canonical ``product_of`` does not depend on its factors' order, so
    the two regular parts are the same trees and their difference is 0;
    only the atom terms differ.  The bracket therefore computes no piece
    product: it merges each order's atom terms as its ``star`` would,
    negates the second, and assembles their sum once, so every
    coefficient, exact or float, is the one ``sub(star(F, G), star(G,
    F))`` gives, as is the regular part, 0."""
    Fa, Ga = align(F, G)
    fg = _merge_atoms(_atom_terms(Fa, Ga))
    gf = _merge_atoms(_atom_terms(Ga, Fa))
    neg_gf = _scaled_atoms(_MINUS_ONE, gf)
    return _assemble((), (ZERO,), fg + neg_gf)


def hormander(F: GenDist, G: GenDist) -> GenDist:
    """Product for disjoint singular supports: aligned pointwise piece
    product, each atom multiplied by the piece of the other factor whose
    interval covers the atom location."""
    sf = set(singular_support(F))
    sg = set(singular_support(G))
    if sf & sg:
        where = ", ".join(str(w) for w in sorted(sf & sg))
        raise OverlapError(f"singular supports intersect at {where}; "
                           f"use star instead")
    Fa, Ga = align(F, G)
    pieces = tuple(product_of(p, q) for p, q in zip(Fa.pieces, Ga.pieces))
    atoms = []
    for a in F.all_atoms:
        cover = G.pieces[bisect.bisect_right(G.breakpoints, a.w)]
        atoms += smooth_times_atom(cover, a)
    for a in G.all_atoms:
        cover = F.pieces[bisect.bisect_right(F.breakpoints, a.w)]
        atoms += smooth_times_atom(cover, a)
    return _assemble(Fa.breakpoints, pieces, atoms)
