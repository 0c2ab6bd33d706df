"""Exception hierarchy shared across the package."""


class TwinAssetsError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(TwinAssetsError, ValueError):
    """A model or option parameter violates its domain constraints."""


class UnsupportedSimilarityError(TwinAssetsError, ValueError):
    """Operation requires alpha > 0 (e.g. the twin pricing formula)."""


class NumericalError(TwinAssetsError, ArithmeticError):
    """A numerical routine failed to converge; message carries diagnostics."""
