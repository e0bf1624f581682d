"""Orchestration: moments -> IPW regime moments -> sample size / power.

``compute_effect`` is algebra on one ``estimate_path_moments`` result, so one
pass serves every design and regime pair over its outcome model.
``compute_sample_size`` is the programmatic equivalent of the ``smartp
samplesize`` command: it runs that pass once and applies the sample-size
formula to the effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import SmartDesign, contrast_weights
from .errors import named_overflow
from .moments import (
    ModelMoments,
    OutcomeModel,
    PathMoments,
    estimate_path_moments,
    regime_moments,
    require_same_units,
)
from .power import ALPHA_RANGE, SampleSizeResult, alpha_in_range, exact_n, required_n


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
    design: SmartDesign, moments: ModelMoments, regime_ids: tuple[int, ...]
) -> EffectSummary:
    """Delta and the N-scaled variance components of the test, from the design's path means and
    one ``estimate_path_moments`` result of the outcome model."""
    contrast_weights(design, regime_ids)  # one regime or two distinct ones
    size = max(np.abs(p.mu).max() for p in design.paths)
    with named_overflow(f"the IPW regime variance at path means up to {size:.6g} in size"):
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
) -> tuple[SampleSizeResult, EffectSummary]:
    if not alpha_in_range(alpha):
        raise ValueError(f"alpha must be {ALPHA_RANGE}, got {alpha}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0,1), got {beta}")
    require_same_units(design, model)
    contrast_weights(design, regime_ids)  # before the pass
    eff = compute_effect(design, estimate_path_moments(model, num, seed, workers), regime_ids)
    sizing = (eff.delta, eff.sigma_sq, alpha, beta)
    return SampleSizeResult(required_n(*sizing), eff.delta, eff.delta_std, exact_n(*sizing)), eff
