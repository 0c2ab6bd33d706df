"""Exception hierarchy shared across the package."""

from contextlib import contextmanager


class TwinAssetsError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(TwinAssetsError, ValueError):
    """A model, option or grid parameter violates its domain constraints,
    such as alpha <= 0 in the twin pricing formula (CLI exit 2)."""


class NumericalError(TwinAssetsError, ArithmeticError):
    """A result is not finite (or not positive where it must be); the
    message names the parameters, cell or step it arose at (CLI exit 4)."""


@contextmanager
def naming(name: str):
    """Prefix a ValueError raised inside, such as int('abc'), with the flag,
    config key, asset or grid cell it concerns, as an InvalidParameterError."""
    try:
        yield
    except ValueError as exc:
        raise InvalidParameterError(f"{name}: {exc}") from None
