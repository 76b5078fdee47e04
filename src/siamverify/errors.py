"""Exception types shared across the package, and the one owner of its number checks."""

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


def check_int(name: str, value, low: int, high: int | None = None) -> None:
    """A ``ConfigError`` unless ``value`` is an int (numpy's too, no bool) in ``[low, high]``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low
            or high is not None and value > high):
        span = f">= {low}" if high is None else f"from {low} to {high}"
        raise ConfigError(f"{name} must be an int {span}, got {value!r}")


def check_real(name: str, value, low, high=math.inf, above: bool = False) -> None:
    """A ``ConfigError`` unless ``value`` is a finite real in [low, high]; (low, high] if above."""
    if not (finite_real(value) and (value > low if above else value >= low) and value <= high):
        span = (f"{'>' if above else '>='} {low}" if high == math.inf
                else f"in {'(' if above else '['}{low}, {high}]")
        raise ConfigError(f"{name} must be a finite number {span}, got {value!r}")
