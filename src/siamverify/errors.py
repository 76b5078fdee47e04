"""Exception types shared across the package, and the number test of its config checks."""

import math

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the operation's contract."""


class ConfigError(ValueError):
    """A configuration value is out of its legal range."""


class DomainError(ValueError):
    """A numeric argument lies outside the operation's domain."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


class StateError(RuntimeError):
    """An operation was invoked in the wrong order (e.g. backward before forward)."""


class FormatError(ValueError):
    """A file does not conform to its binary/textual format."""


class ManifestError(ValueError):
    """A manifest line is malformed; message names the offending line."""


def finite_real(value) -> bool:
    """An int or float, Python's or numpy's but no bool, that float64 holds finite."""
    try:
        return (isinstance(value, (int, float, np.integer, np.floating))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an int past float64's range
        return False
