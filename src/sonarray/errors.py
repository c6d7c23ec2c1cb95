"""Exception types shared across the package.

Plain argument validation raises the builtin ``ValueError``; the classes
here cover failure modes that callers are expected to handle.
"""


class SonarrayError(Exception):
    """Base class for package-specific errors."""


class ConfigError(SonarrayError):
    """A run configuration key is missing, malformed, or out of range."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")

    @classmethod
    def from_field(cls, prefix: str, exc: ValueError) -> "ConfigError":
        """Re-key a ValueError worded "<field> <complaint>" under its key.

        The dataclasses that check config values (GridSpec, ChirpSpec,
        Direction, ReflectorTarget) name the bad field first, e.g.
        "strength must lie in (0, 1]".  The key is ``prefix`` + field, or
        the field alone when it is already a dotted key such as
        "grid.az_step", so the message names the key once.
        """
        field, _, message = str(exc).partition(" ")
        key = field if "." in field else prefix + field
        return cls(key, message)


class SingularMatrixError(SonarrayError):
    """A covariance (plus loading) could not be factorized.

    Raised by the MVDR beamformer; the usual fix is a nonzero diagonal
    loading fraction.
    """


class NoPeakError(SonarrayError):
    """A power map has no unique global maximum to measure."""


class UnreliableEstimateError(SonarrayError):
    """A matched-filter peak sits too close to the trace edges to trust."""
