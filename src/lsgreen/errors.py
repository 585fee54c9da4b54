"""Exception types shared across the package.

Every failure mode that callers are expected to catch has its own class here;
anything else is a plain ValueError/TypeError and indicates a programming
error rather than a mathematical one.
"""

from __future__ import annotations

__all__ = [
    "LsgreenError",
    "NotDivisible",
    "ZeroDenominator",
    "DivisionByZero",
    "NotRational",
    "NotPolynomial",
    "SingularBlock",
    "InvalidM",
    "BadSubgroup",
    "NotUnique",
    "SearchBoundExceeded",
    "InvalidFSequence",
    "BadInput",
]


class LsgreenError(Exception):
    """Base class for all package-specific errors."""


class NotDivisible(LsgreenError):
    """Exact polynomial division left a nonzero remainder."""


class ZeroDenominator(LsgreenError):
    """A rational function was constructed with denominator zero."""


class DivisionByZero(LsgreenError):
    """Division by the zero polynomial / zero field element."""


class NotRational(LsgreenError):
    """A cyclotomic number expected to be rational has nonzero root part."""


class NotPolynomial(LsgreenError):
    """A rational function expected to be a polynomial has a nontrivial
    denominator, or a matrix entry guaranteed polynomial is not."""


class SingularBlock(LsgreenError):
    """A linear system that must be uniquely solvable has a singular
    coefficient block."""


class InvalidM(LsgreenError):
    """The dihedral order parameter m is outside the supported range."""


class BadSubgroup(LsgreenError):
    """Requested reflection subgroup does not exist, or the generated group
    has the wrong order."""


class NotUnique(LsgreenError):
    """Truncated induction did not single out exactly one constituent in the
    lowest degree."""


class SearchBoundExceeded(LsgreenError):
    """An exhaustive enumeration exceeded its configured bound."""


class InvalidFSequence(LsgreenError):
    """A proposed multiplicity-free sequence violates its admissibility
    constraints."""


class BadInput(LsgreenError):
    """Input from outside the program -- a command-line value, a config
    file, a datum file -- is malformed, or names something that does not
    exist, such as an atlas fixture; the command line reports it as bad
    input (exit 2).  A ValueError is not bad input: the command line lets
    it through as a fault of the program."""
