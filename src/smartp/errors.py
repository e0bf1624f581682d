"""Package exceptions, and the rule that makes an overflow one."""

from contextlib import contextmanager

import numpy as np


class SmartpError(Exception):
    """Base class for package errors."""


class UndefinedMomentError(SmartpError, ValueError):
    """A requested moment does not exist for the given degrees of freedom."""


class NotPositiveDefiniteError(SmartpError, ValueError):
    """A matrix required to be SPD failed its Cholesky factorization."""


class InfeasibleTargetError(SmartpError, ValueError):
    """A calibration target lies outside the attainable range."""


class DegenerateMissingnessError(SmartpError, RuntimeError):
    """The missingness model implies near-total sub-unit loss."""


class ConfigError(SmartpError, ValueError):
    """Invalid run configuration."""


@contextmanager
def named_overflow(what: str):
    """Numpy overflow raises in the block, and an overflow there, in numpy or in a Python float
    power, is ``ValueError("<what> overflows")``: ``what`` names the inputs, not inf and NaN."""
    try:
        with np.errstate(over="raise"):
            yield
    except (OverflowError, FloatingPointError):
        raise ValueError(f"{what} overflows") from None
