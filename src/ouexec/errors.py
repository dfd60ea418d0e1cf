"""Exception and warning types shared across the package, and the one place that warns.

The CLI maps these onto exit codes: ConfigError -> 1, RegimeError -> 2,
NumericalError -> 3.
"""

import math
import numbers
import os
import sys
import warnings


class ConfigError(ValueError):
    """Invalid parameters, state, strategy, or run configuration."""


class RegimeError(RuntimeError):
    """The requested computation is not defined for this parameter regime."""


class NumericalError(RuntimeError):
    """A root find or quadrature failed to reach its tolerance."""


class StandingAssumptionWarning(UserWarning):
    """Inputs violate the standing assumption z > 2y.

    Results are still computed in extended mode but carry no optimality
    claim among nonnegative strategies.
    """


def check_int(name: str, value, low: int) -> None:
    """Raise ConfigError unless value is an integer >= low; a bool is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def check_positive(name: str, value) -> None:
    """Raise ConfigError unless value is a positive finite real number; a bool is not one here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 < value < math.inf:
        raise ConfigError(f"{name} must be a positive finite number, got {value!r}")


def _warn(message: str, category: type[Warning]) -> None:
    """Warn at the caller of the package's outermost frame, so a filter shows one per call."""
    package, frame, level, outside = os.path.dirname(__file__), sys._getframe(1), 2, 2
    while frame is not None:  # the whole stack: contextlib's decorator frames sit between
        if os.path.dirname(frame.f_code.co_filename) == package:
            outside = level + 1
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=outside)
