"""Shared-parameter probit missingness model.

A sub-unit is missing when ``a0 + b0*Q + eps0 > cutoff`` with
``eps0 ~ N(0, sigma0^2)`` and Q the latent spatial effect.  Closed forms:

* expected fraction of available sub-units
  ``p = mean_t Phi((cutoff - a0) / sqrt(b0^2 Sigma_tt + sigma0^2))``
* mean Pearson correlation between the outcome and the latent missingness
  score ``c = mean_t b0 Sigma_tt / sqrt((Sigma_tt + var_eps1)(b0^2 Sigma_tt + sigma0^2))``

``solve_missingness`` inverts the pair (p, c) for (a0, b0): c depends on b0
only and is monotone on b0 >= 0, then p is monotone in a0, so two bracketed
bisections suffice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dists import SkewTParams, st_variance
from .errors import InfeasibleTargetError
from .spatial import SpdMatrix

_A0_BRACKET = 20.0
_MAX_DOUBLINGS = 200


@dataclass(frozen=True)
class MissingnessParams:
    intercept: float  # a0
    loading: float  # b0, couples missingness to the spatial effect
    sigma0: float = 1.0
    cutoff: float = 0.0

    def __post_init__(self):
        if not self.sigma0 > 0:
            raise ValueError(f"sigma0 must be > 0, got {self.sigma0}")


def normal_cdf(x: float) -> float:
    """Standard normal CDF, |error| <= 1e-12."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(u: float) -> float:
    """Standard normal quantile on (0,1) (Wichura-style rational approximation)."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"quantile argument must be in (0,1), got {u}")
    from statistics import NormalDist  # imported here: commands that take no quantile skip it

    return NormalDist().inv_cdf(u)


def prob_available(mp: MissingnessParams, sigma: SpdMatrix) -> float:
    """Expected fraction of available sub-units, in (0,1)."""
    diag = sigma.diagonal
    z = (mp.cutoff - mp.intercept) / np.sqrt(mp.loading**2 * diag + mp.sigma0**2)
    return float(np.mean([normal_cdf(v) for v in z]))


def corr_y_m(mp: MissingnessParams, sigma: SpdMatrix, st: SkewTParams) -> float:
    """Mean per-unit Pearson correlation between outcome and latent missingness score."""
    var1 = st_variance(st)
    diag = sigma.diagonal
    c = mp.loading * diag / np.sqrt((diag + var1) * (mp.loading**2 * diag + mp.sigma0**2))
    return float(np.mean(c))


def max_corr(sigma: SpdMatrix, st: SkewTParams) -> float:
    """Supremum of |corr_y_m| as the loading grows without bound."""
    var1 = st_variance(st)
    diag = sigma.diagonal
    return float(np.mean(np.sqrt(diag / (diag + var1))))


def _bracket_root(f, centre: float, lo: float, hi: float, what: str) -> float:
    """Root of the monotone f: double the distances of [lo, hi] from ``centre`` until f changes
    sign on it, then bisect to a bracket no wider than ``1e-13 + 1e-15 |x|`` and return its
    midpoint.  Raises InfeasibleTargetError after _MAX_DOUBLINGS widenings without a sign change.
    """
    for _ in range(_MAX_DOUBLINGS):
        f_lo, f_hi = f(lo), f(hi)
        if min(f_lo, f_hi) <= 0 <= max(f_lo, f_hi):
            break
        lo, hi = lo * 2 - centre, hi * 2 - centre
    else:
        raise InfeasibleTargetError(f"could not bracket {what}")
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-13 + 1e-15 * abs(mid) or mid in (lo, hi):
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid


def solve_missingness(
    p_target: float,
    c_target: float,
    sigma: SpdMatrix,
    st: SkewTParams,
    sigma0: float = 1.0,
    cutoff: float = 0.0,
) -> MissingnessParams:
    """Recover (a0, b0) from targets (p, c), each matched to ~1e-8."""
    if not 0.0 < p_target < 1.0:
        raise InfeasibleTargetError(f"p target must be in (0,1), got {p_target}")
    bound = max_corr(sigma, st)
    if abs(c_target) >= bound:
        raise InfeasibleTargetError(
            f"|c| target {abs(c_target)} is not attainable; the supremum for this "
            f"model is {bound:.6f}"
        )

    def corr_at(b0: float) -> float:
        return corr_y_m(MissingnessParams(0.0, b0, sigma0, cutoff), sigma, st)

    # the correlation is 0 at b0 = 0 and increases with b0 >= 0
    c_abs = abs(c_target)
    b0 = 0.0 if c_abs == 0.0 else math.copysign(_bracket_root(
        lambda b: corr_at(b) - c_abs, 0.0, 0.0, 1.0, f"the loading for c={c_target}"), c_target)

    def p_at(a0: float) -> float:
        return prob_available(MissingnessParams(a0, b0, sigma0, cutoff), sigma)

    # p decreases in a0
    a0 = _bracket_root(lambda a: p_at(a) - p_target, cutoff, cutoff - _A0_BRACKET,
                       cutoff + _A0_BRACKET, f"the intercept for p={p_target}")
    return MissingnessParams(a0, b0, sigma0, cutoff)
