"""Exception hierarchy shared across the package."""

import sys


class DistAlgError(Exception):
    """Base class for all errors raised by distalg."""


class DomainError(DistAlgError):
    """Evaluation outside the domain of an expression (e.g. a quotient pole),
    or a required exact value that cannot be produced."""


class ShapeError(DistAlgError):
    """Structurally inconsistent input (lengths, ordering, arity)."""


class OverlapError(DistAlgError):
    """Product of distributions whose singular supports intersect was requested
    where disjointness is a precondition."""


class EpsilonTooLarge(DistAlgError):
    """Translation step does not separate the singular supports."""


class UnsupportedPiece(DistAlgError):
    """Operation restricted to polynomial pieces hit a non-polynomial piece."""


class DegenerateLeadingCoefficient(DistAlgError):
    """Leading ODE coefficient is identically zero."""


class SemanticsError(DistAlgError):
    """Input is syntactically valid but has no literal constructive meaning
    (e.g. a pointwise product of two delta factors)."""


class DigitLimitError(DistAlgError):
    """An integer to print has more digits than the interpreter converts to
    text (``sys.get_int_max_str_digits()``), a limit the package leaves as
    it is."""

    def __init__(self):
        super().__init__(f"an integer has more digits than the interpreter's "
                         f"{sys.get_int_max_str_digits()}-digit limit for "
                         f"printing")


class ParseError(DistAlgError):
    """Syntax error in a textual expression, with position information."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
