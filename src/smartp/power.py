"""Sample-size formula and the Wald test.

The required cluster count for a two-sided level-alpha test with power
1 - beta is ``N = ceil(2 (z_{alpha/2} - z_{1-beta})^2 sigma^2 / delta^2)``,
where sigma^2 is half the N-scaled variance of the effect estimator
(``Var(delta_hat) = 2 sigma^2 / N``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .missing import normal_cdf, normal_quantile


ALPHA_RANGE = "in (0, 1) and above 1.1e-16"  # ``alpha_in_range`` in words


def alpha_in_range(alpha: float) -> bool:
    """0 < alpha < 1 and 1 - alpha/2 < 1: below 2^-53 the quantile z_{1-alpha/2} is infinite."""
    return 0.0 < alpha < 1.0 and 1.0 - alpha / 2.0 < 1.0


@dataclass(frozen=True)
class SampleSizeResult:
    """Required N and the effect it is sized for; the variance components are in ``EffectSummary``."""

    n: int
    delta: float  # |effect size|
    delta_std: float  # |effect| / sqrt(sig_e_sq / 2)
    n_exact: float  # N before rounding up


def exact_n(delta: float, sigma_sq: float, alpha: float, beta: float) -> float:
    """Unrounded N* = 2 (z_{1-alpha/2} - z_beta)^2 sigma^2 / delta^2."""
    if not sigma_sq > 0.0:
        raise ValueError(f"sigma^2 must be > 0, got {sigma_sq}")
    z_a = normal_quantile(1.0 - alpha / 2.0)
    z_b = normal_quantile(beta)
    try:
        delta_sq = float(delta) ** 2
    except OverflowError:  # N* underflows to 0, and N is 1
        delta_sq = math.inf
    n = 2.0 * (z_a - z_b) ** 2 * float(sigma_sq) / delta_sq if delta_sq else math.inf
    if not n < math.inf:  # delta is 0, delta^2 underflows, or the quotient overflows
        raise ValueError("effect size must be nonzero" if delta == 0.0 else "N is not finite: the "
                         f"effect size {delta} is too small for sigma^2 = {sigma_sq}")
    return n


def required_n(delta: float, sigma_sq: float, alpha: float, beta: float) -> int:
    """Smallest integer N achieving the target power: ``exact_n`` rounded up, at least 1."""
    return max(1, math.ceil(exact_n(delta, sigma_sq, alpha, beta) - 1e-12))


def analytic_power(delta: float, sigma_sq: float, n: int, alpha: float) -> float:
    """Normal-approximation power, dominant tail only."""
    z_a = normal_quantile(1.0 - alpha / 2.0)
    return normal_cdf(abs(delta) * math.sqrt(n / (2.0 * sigma_sq)) - z_a)


def wald_z(delta_hat, sigma_sq, n: int):
    """Z = delta_hat / sqrt(2 sigma^2 / N), elementwise over arrays of estimates and variances."""
    if not np.all(np.greater(sigma_sq, 0.0)):
        raise ValueError(f"sigma^2 must be > 0, got {np.min(sigma_sq)}")
    return delta_hat / np.sqrt(2.0 * sigma_sq / n)


def reject(z, alpha: float):
    """Two-sided rejection at level alpha, elementwise over arrays."""
    return np.abs(z) > normal_quantile(1.0 - alpha / 2.0)
