"""Exception types shared across the package.

The command line maps these onto exit codes: configuration problems are
usage errors, file-format problems are data errors, and the remaining
types signal numerical failures.  The private checks at the end hold
the value rules that several parameter types share.
"""

import cmath
import math
from numbers import Integral, Real


class DpdError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(DpdError):
    """Invalid parameter value, structure definition, or config file key."""


class FormatError(DpdError):
    """Malformed input file.

    ``path`` names the offending file when known.  For binary files
    ``offset`` is the byte position of the problem; for text files
    ``line`` is the 1-based line number.
    """

    def __init__(self, message, path=None, offset=None, line=None):
        self.path = path
        self.offset = offset
        self.line = line
        where = []
        if path is not None:
            where.append(str(path))
        if offset is not None:
            where.append(f"byte {offset}")
        if line is not None:
            where.append(f"line {line}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)


class DimensionError(DpdError):
    """Operands whose shapes or lengths do not agree."""


class DegenerateInputError(DpdError):
    """Input with no usable content, e.g. an all-zero reference signal."""


class DegenerateAlignmentError(DpdError):
    """Received signal orthogonal to the reference; no gain can align them."""


class RankDeficiencyError(DpdError):
    """Normal equations too ill-conditioned to solve reliably."""


class DivergenceError(DpdError):
    """Iterative learning loop whose error keeps growing, or a model or
    gain-normalized amplifier output that leaves the floating-point
    range."""


def _integer(name, value, low, high=None):
    """Raise ConfigurationError unless ``value`` is an integer, not a
    bool, in ``[low, high]`` (no upper bound when ``high`` is None)."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bound = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
        raise ConfigurationError(f"{name} must {bound}, got {value}")


def _real(name, value):
    """Raise ConfigurationError unless ``value`` is a real number, not a bool."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")


def _positive(name, value):
    """Raise ConfigurationError unless ``value`` is a finite real number
    above zero."""
    _real(name, value)
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{name} must be positive, got {value}")


def _non_negative(name, value):
    """Raise ConfigurationError unless ``value`` is a finite real number
    at or above zero."""
    _real(name, value)
    if not (math.isfinite(value) and value >= 0):
        raise ConfigurationError(f"{name} must be finite and non-negative, got {value}")


def _gain(name, value) -> complex:
    """``value`` as a complex number; raise ConfigurationError unless it
    is finite and non-zero."""
    gain = complex(value)
    if not cmath.isfinite(gain) or gain == 0:
        raise ConfigurationError(f"{name} must be finite and non-zero, got {value}")
    return gain
