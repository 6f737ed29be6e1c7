"""Exception hierarchy.

Errors that indicate bad user input derive from InputError (which is
also a ValueError, so defensive callers using ValueError still work).
Errors that indicate a violated internal contract or an impossible
request derive directly from GhkError.
"""


class GhkError(Exception):
    """Base class for every error raised by this package."""


class InputError(GhkError, ValueError):
    """Invalid input data or parameters."""


class CollinearRays(InputError):
    """The two given rays do not span the plane."""


class EmptyInput(InputError):
    """An operation that needs at least one element got none."""


class GeneratorOutsideCone(InputError):
    """An ideal generator lies outside the ambient cone."""


class NotSaturated(InputError):
    """The operation requires a saturated ideal."""


class NotMPrimary(InputError):
    """The operation requires a finite-colength ideal."""


class BadParameters(InputError):
    """A numeric parameter is out of its allowed range."""


class DimensionMismatch(InputError):
    """Vector and table dimensions disagree."""


class AsymmetricTable(InputError):
    """A pairing table that must be symmetric is not."""


class UnboundedRegion(GhkError):
    """The region whose area or lattice count was requested is infinite."""


class NoStabilization(GhkError):
    """A sequence did not settle onto a quasi-polynomial in the window."""


class ContractViolation(GhkError):
    """An internal consistency check failed; this is a bug, not bad input."""
