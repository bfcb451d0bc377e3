"""Exception types shared across the solver and harness, and the input rules they share."""

import math
import sys


class KgzError(Exception):
    """Base class for all errors raised by this package.

    ``k`` and ``t`` locate a failure inside a time march (see kgz.solver.march).
    """

    k = t = None


class ParameterError(KgzError, ValueError):
    """A scalar parameter is outside its admissible range."""


class ShapeError(KgzError, ValueError):
    """An array does not match the grid or partner array it is used with."""


class SingularSystemError(KgzError, ArithmeticError):
    """A zero pivot was encountered while factoring a linear system."""


class IllConditionedError(KgzError, ArithmeticError):
    """A linear solve finished but failed its residual or dominance check."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class StabilityError(KgzError, ArithmeticError):
    """The implicit field system lost diagonal dominance at some node.

    Carries the offending node index, the local coefficient and the time
    step so callers can report where the blow-up happened.
    """

    def __init__(self, message, j=None, coefficient=None, tau=None):
        super().__init__(message)
        self.j = j
        self.coefficient = coefficient
        self.tau = tau


class DegenerateProblemError(KgzError, ArithmeticError):
    """A relative error was requested against an identically zero reference."""


def positive_finite(name, value):
    """``value`` if it is positive and finite, else a ParameterError naming it; NaN fails too."""
    if not 0 < value < math.inf:
        raise ParameterError(f"{name} must be positive and finite, got {value}")
    return value


def countable(count, unit, inputs):
    """``count`` cells or steps if one array can hold one value more, else a ParameterError."""
    if not abs(count) < sys.maxsize // 8:  # float64 values numpy can index; NaN and inf fail
        raise ParameterError(f"{inputs}: {count} {unit}, more than a numpy array can index")
    return count


def inverse_square_finite(name, value):
    """``value`` if ``1/value^2`` is finite, else a ParameterError naming it."""
    if not (value * value > 0 and 1.0 / (value * value) < math.inf):
        raise ParameterError(f"{name}={value} is too small: 1/{name}^2 is not finite")
    return value


def describe(exc):
    """The one-line ``Type: message`` form in which a failure is reported."""
    return f"{type(exc).__name__}: {exc}"
