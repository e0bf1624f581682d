"""Orchestration: moments -> IPW regime moments -> sample size / power.

``compute_sample_size`` is the programmatic equivalent of the
``smartp samplesize`` command: it simulates the outcome model once, takes
from that pass the moments of every path, takes the regime means and
N-scaled covariance from ``regime_moments``, and applies the sample-size
formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import SmartDesign, contrast_weights
from .moments import (
    ModelMoments,
    OutcomeModel,
    PathMoments,
    estimate_path_moments,
    regime_moments,
    require_same_units,
)
from .power import SampleSizeResult, TestSpec, exact_n, required_n


@dataclass(frozen=True)
class EffectSummary:
    """Effect size and variance components for one regime or a pair."""

    delta_signed: float
    ybard1: float
    ybard2: float
    sig_d1_sq: float
    sig_d2_sq: float
    sig_d1d2: float
    sig_e_sq: float
    path_moments: dict[int, PathMoments]

    @property
    def delta(self) -> float:
        return abs(self.delta_signed)

    @property
    def sigma_sq(self) -> float:
        """sigma^2 in the Var(delta_hat) = 2 sigma^2 / N convention."""
        return self.sig_e_sq / 2.0

    @property
    def delta_std(self) -> float:
        if self.sig_e_sq <= 0.0:
            raise ValueError("variance is zero; standardized effect undefined")
        return self.delta / np.sqrt(self.sigma_sq)


def compute_effect(
    design: SmartDesign,
    model: OutcomeModel,
    regime_ids: tuple[int, ...],
    num: int,
    seed: int,
    workers: int = 1,
    moments: ModelMoments | None = None,
) -> EffectSummary:
    """Assemble delta and the N-scaled variance components for the test.

    ``moments`` is an ``estimate_path_moments`` result for ``model`` to reuse;
    without it the model is simulated once at (num, seed).
    """
    require_same_units(design, model)
    contrast_weights(design, regime_ids)  # one regime or two distinct ones, before the pass
    if moments is None:
        moments = estimate_path_moments(model, num, seed, workers)
    with np.errstate(over="raise"):  # huge path means: FloatingPointError, not inf and NaN
        pm = {p.index: moments.for_path(p.mu, p.index) for p in design.paths}
        mu = np.array([m.mu for m in pm.values()])
        means, ncov = regime_moments(design, regime_ids, mu, [m.sigma2 for m in pm.values()])
        # sum of |c_rp P_p mu_p| over both regimes: the weights and probabilities are >= 0
        scale = regime_moments(design, regime_ids, np.abs(mu), np.zeros(mu.size))[0].sum()
        if len(regime_ids) == 1:  # the second regime's block is zero
            means, ncov = np.append(means, 0.0), np.pad(ncov, (0, 1))
        delta = means[0] - means[1]
        if abs(delta) <= len(design.paths) * np.finfo(float).eps * scale:
            delta = 0.0  # rounding left over when the regime means are equal
        sig_e = ncov[0, 0] + ncov[1, 1] - 2.0 * ncov[0, 1]
    return EffectSummary(delta, *means, ncov[0, 0], ncov[1, 1], ncov[0, 1], sig_e, pm)


def compute_sample_size(
    design: SmartDesign,
    model: OutcomeModel,
    regime_ids: tuple[int, ...],
    alpha: float = 0.05,
    beta: float = 0.2,
    num: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
    moments: ModelMoments | None = None,
) -> tuple[SampleSizeResult, EffectSummary]:
    TestSpec(alpha, beta)  # refuses an alpha or beta out of range before the pass
    eff = compute_effect(design, model, regime_ids, num, seed, workers, moments)
    sizing = (eff.delta, eff.sigma_sq, alpha, beta)
    return SampleSizeResult(required_n(*sizing), eff.delta, eff.delta_std, exact_n(*sizing)), eff

