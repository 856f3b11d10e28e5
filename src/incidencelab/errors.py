"""Exception types shared across the package.

Every error raised by the library derives from :class:`Error`, so callers
(and the CLI) can distinguish data problems from programming mistakes.
"""


class Error(Exception):
    """Base class for all incidencelab errors."""


class CompositeModulusError(Error):
    """The requested modulus is not prime."""


class OutOfRangeError(Error):
    """A modulus outside the supported range [3, 2**31)."""


class InvalidParameterError(Error, ValueError):
    """A library argument outside its allowed range."""


class DivisionByZeroError(Error, ZeroDivisionError):
    """Inverse of zero requested in a prime field."""


class ModulusMismatchError(Error):
    """Operands live in fields with different moduli."""


class CoincidentPointsError(Error):
    """Two distinct points were required but the same point was given twice."""


class VerticalLinePresentError(Error):
    """An operation requiring slope-intercept lines met a vertical line."""


class PointSentToInfinityError(Error):
    """A projective map sent an affine point onto the line at infinity."""

    def __init__(self, point, message=None):
        self.point = point
        super().__init__(message or f"point {point} is sent to the line at infinity")


class LineSentToInfinityError(Error):
    """A projective map sent an affine line onto the line at infinity."""

    def __init__(self, line, message=None):
        self.line = line
        super().__init__(message or f"line {line} is sent to the line at infinity")


class EmptyInstanceError(Error):
    """An instance with no points where at least one point is required."""


class NoIncidencesError(Error):
    """The extraction needs at least one incidence to start from."""


class EmptyGridError(Error):
    """Two-pencil extraction produced an empty grid (legal terminal outcome)."""


class TooManyRequestedError(Error):
    """More distinct points or lines requested than the plane contains."""


class CharacteristicTooSmallError(Error):
    """Construction parameters exceed what the characteristic allows."""


class EmptyInputError(Error):
    """A required input set is empty."""


class DegenerateInputError(Error):
    """An input set is degenerate for the requested report (for example {0})."""


class TooFewPointsError(Error):
    """At least two points are required."""


class ParseError(Error):
    """A file does not conform to the expected schema."""


class ConfigError(Error):
    """A sweep configuration is malformed."""


class InsufficientDataError(Error):
    """Not enough data points for a fit."""


class NonPositiveValueError(Error):
    """Log-log fitting requires strictly positive finite values."""
