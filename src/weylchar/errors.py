"""Exception hierarchy shared across the package."""


class WeylcharError(Exception):
    """Base class for every error raised deliberately by this package."""


class InputError(WeylcharError):
    """A caller-supplied value violates a documented precondition."""


class IntegrityError(WeylcharError):
    """An internal consistency check failed: a bug, or corrupted data."""


class EnvelopeError(WeylcharError):
    """The requested computation exceeds the supported size envelope."""
