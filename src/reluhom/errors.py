"""Exception types shared across the package."""


class ReluhomError(Exception):
    """Base class for all package errors."""


class FormatError(ReluhomError):
    """Malformed input file or stream."""


class DimensionMismatch(ReluhomError):
    """Array shapes do not chain or do not agree."""


class NonFiniteEntry(ReluhomError):
    """A weight, bias, or matrix entry is NaN or infinite."""


class InfeasibleSystemError(ReluhomError):
    """An inequality system expected to be feasible is empty."""


class DegenerateSystemError(ReluhomError):
    """A region is feasible but not full-dimensional."""


class BoundaryPointError(ReluhomError):
    """A point sits on a region boundary (some pre-activation is ~0)."""


class ResourceCapError(ReluhomError):
    """A configured size guard (brute-force h, simplex count) was exceeded."""


class IterationLimitError(ReluhomError):
    """The LP solver hit its pivot limit without converging."""
