"""Skew-normal and skew-t error distributions: sampling and exact moments.

A skew-t variate is built as ``W = xi + scale * X / sqrt(V)`` where
``X = kappa*|Z0| + sqrt(1-kappa^2)*Z1`` with independent standard normals
Z0, Z1, ``V ~ chi2_nu / nu`` independent of X, and
``kappa = skew / sqrt(1 + skew^2)``.  ``dof = inf`` selects the skew-normal
limit exactly (the V draw is skipped).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMomentError, named_overflow

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class SkewTParams:
    """Location/scale/skewness/degrees-of-freedom of a univariate skew-t."""

    location: float = 0.0
    scale: float = 1.0
    skew: float = 0.0
    dof: float = math.inf

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        if not self.dof > 0:
            raise ValueError(f"dof must be > 0 (inf allowed), got {self.dof}")

    @property
    def kappa(self) -> float:
        return self.skew / math.sqrt(1.0 + self.skew * self.skew)

    @property
    def is_normal_limit(self) -> bool:
        return math.isinf(self.dof)


def _gamma_ratio(nu: float) -> float:
    """Gamma((nu-1)/2) / Gamma(nu/2), via lgamma differences (no overflow)."""
    return math.exp(math.lgamma((nu - 1.0) / 2.0) - math.lgamma(nu / 2.0))


def _std_mean(p: SkewTParams) -> float:
    """Mean of the standardized variate X/sqrt(V) (location 0, scale 1)."""
    if p.is_normal_limit:
        return p.kappa * _SQRT_2_OVER_PI
    return p.kappa * math.sqrt(p.dof / math.pi) * _gamma_ratio(p.dof)


def st_mean(p: SkewTParams) -> float:
    """Exact mean; requires dof > 1."""
    if not p.is_normal_limit and p.dof <= 1:
        raise UndefinedMomentError(f"mean requires dof > 1, got {p.dof}")
    return p.location + p.scale * _std_mean(p)


def st_variance(p: SkewTParams) -> float:
    """Exact variance; requires dof > 2 and a finite result."""
    if p.is_normal_limit:
        ratio = 1.0 - (2.0 / math.pi) * p.kappa**2
    elif p.dof <= 2:
        raise UndefinedMomentError(f"variance requires dof > 2, got {p.dof}")
    else:
        ratio = p.dof / (p.dof - 2.0) - _std_mean(p) ** 2
    with named_overflow(f"the error variance (sigma1, lambda, nu) at scale {p.scale}"):
        return float(p.scale**2 * np.float64(ratio))  # numpy's product raises on overflow


def sample_st(p: SkewTParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n iid skew-t variates.

    Draw order is fixed (Z0 block only when skew != 0, Z1 block, then the
    chi-square block when dof is finite) so results are reproducible given
    the generator state.  At skew 0, X is Z1 itself.  The chi-square draw
    uses the gamma sampler with shape dof/2, scale 2.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if p.skew != 0.0:
        kap = p.kappa
        z0 = rng.standard_normal(n)
        z1 = rng.standard_normal(n)
        x = kap * np.abs(z0) + math.sqrt(1.0 - kap * kap) * z1
    else:
        x = rng.standard_normal(n)
    if p.is_normal_limit:
        return p.location + p.scale * x
    v = rng.standard_gamma(p.dof / 2.0, n) * (2.0 / p.dof)
    return p.location + p.scale * x / np.sqrt(v)
