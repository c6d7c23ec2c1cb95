"""Exception types shared across the package.

Plain argument validation raises the builtin ``ValueError``; the classes
here cover failure modes that callers are expected to handle.
"""


class SonarrayError(Exception):
    """Base class for package-specific errors."""


class SingularMatrixError(SonarrayError):
    """A covariance (plus loading) could not be factorized.

    Raised by the MVDR beamformer; the usual fix is a nonzero diagonal
    loading fraction.
    """


class NoPeakError(SonarrayError):
    """A power map has no unique global maximum to measure."""


class UnreliableEstimateError(SonarrayError):
    """A matched-filter peak sits too close to the trace edges to trust."""
