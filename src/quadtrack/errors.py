"""Exception types shared across the package."""


class QuadtrackError(Exception):
    """Base class for all package-specific errors."""


class NotConverged(QuadtrackError):
    """An iterative numerical routine stagnated above its tolerance."""


class SingularInnovation(QuadtrackError):
    """Innovation variance fell below the invertibility threshold."""


class AlgebraicLoop(QuadtrackError):
    """A feedback interconnection requires a strictly proper controller."""


class DimensionMismatch(QuadtrackError, ValueError):
    """Operands have incompatible shapes."""


class InvalidBounds(QuadtrackError, ValueError):
    """An interval violates 0 < lo <= hi."""


class InvalidSpectrum(QuadtrackError, ValueError):
    """A curvature spectrum contains non-positive entries."""


class InvalidDensity(QuadtrackError, ValueError):
    """Weighted samples do not form a usable density."""


class NoStabilizingController(QuadtrackError):
    """Synthesis found no controller stable over the whole uncertainty grid."""


class UnknownPreset(QuadtrackError, KeyError):
    """Requested benchmark preset name does not exist."""

    def __str__(self):
        # the plain message; KeyError's own __str__ would put it in quotes
        return Exception.__str__(self)


class ConfigError(QuadtrackError, ValueError):
    """Experiment configuration is missing or malformed; message names the field."""
