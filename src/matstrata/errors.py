"""Exception types shared across the package."""


class StrataError(Exception):
    """Base class for all library-specific errors."""


class CompactParseError(StrataError, ValueError):
    """Malformed compact-notation string.

    `position` is the character offset of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SizeMismatchError(StrataError, ValueError):
    """Two objects that must share a size do not."""


class SpectraOverlapError(StrataError, ValueError):
    """Sylvester-type solve requested for blocks with overlapping spectra."""


class ReductionError(StrataError, RuntimeError):
    """Reduction to miniversal form failed (perturbation too large or
    iteration did not converge)."""


class CatalogError(StrataError, ValueError):
    """Canonical form is outside the implemented catalog (wrong size, excluded
    parameter, or a block or flag the catalog does not know)."""


class NumericalAmbiguityError(StrataError, RuntimeError):
    """A rank or clustering decision fell inside the tolerance band and
    cannot be made reliably.  Carries enough context to re-run with a
    different tolerance."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}


def raise_ambiguous(results: list) -> list:
    """``results`` once none of them is a NumericalAmbiguityError; else
    raise the first that is."""
    for r in results:
        if isinstance(r, NumericalAmbiguityError):
            raise r
    return results
