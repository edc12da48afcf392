"""Exceptions shared across the package."""


class GWError(Exception):
    """Base class for all package errors."""


class SymmetryObstruction(GWError):
    """Raised when the requested parameters admit no symmetric construction.

    The weighing-matrix construction is symmetric exactly when -1 is an m-th
    power in the base field, equivalently when (q-1)/m is even or the
    characteristic is 2.
    """


class NotAScheme(GWError):
    """Raised when a family of 0/1 matrices fails the association scheme axioms."""


class VerificationError(GWError):
    """Raised when an exact identity that must hold fails to verify."""


class InputError(GWError, ValueError):
    """Raised when outside input, such as a scheme file, is malformed."""
