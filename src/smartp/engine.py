"""Orchestration: moments -> regime algebra -> sample size / power.

``compute_sample_size`` is the programmatic equivalent of the
``smartp samplesize`` command: it simulates the outcome model once, takes
from that pass the moments of every referenced path, assembles the regime
mean/variance/covariance, and applies the sample-size formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import SmartDesign, require_valid
from .moments import (
    ModelMoments,
    OutcomeModel,
    PathMoments,
    estimate_path_moments,
    regime_covariance,
    regime_mean,
    regime_pair_is_shared,
    regime_pieces,
    regime_variance,
    require_same_units,
)
from .power import SampleSizeResult, TestKind, exact_n, required_n


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
    shared: bool
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


def test_kind_for(design: SmartDesign, regime_ids: tuple[int, ...]) -> TestKind:
    if len(regime_ids) == 1:
        return TestKind.SINGLE_REGIME
    r1, r2 = (design.regimes[i] for i in regime_ids)
    return TestKind.SHARED_PAIR if r1.arm == r2.arm else TestKind.DISTINCT_PAIR


def needed_paths(design: SmartDesign, regime_ids: tuple[int, ...]) -> list[int]:
    out: list[int] = []
    for rid in regime_ids:
        r = design.regimes[rid]
        for p in (r.responder_path, r.nonresp_path):
            if p not in out:
                out.append(p)
    return out


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
    require_valid(design)
    require_same_units(design, model)
    if len(regime_ids) not in (1, 2):
        raise ValueError("regime list must have one or two entries")
    if len(regime_ids) == 2 and regime_ids[0] == regime_ids[1]:
        raise ValueError("cannot compare a regime against itself")
    if moments is None:
        moments = estimate_path_moments(model, num, seed, workers)
    pm = {
        pid: moments.for_path(design.paths[pid].mu, pid) for pid in needed_paths(design, regime_ids)
    }

    r1 = design.regimes[regime_ids[0]]
    g1, pi1_1, p2r_1, p2nr_1, m1r, m1nr = regime_pieces(design, r1, pm)
    mu_d1 = regime_mean(m1r.mu, m1nr.mu, g1)
    v1 = regime_variance(m1r.mu, m1r.sigma2, m1nr.mu, m1nr.sigma2, g1, pi1_1, p2r_1, p2nr_1)

    if len(regime_ids) == 1:
        return EffectSummary(mu_d1, mu_d1, 0.0, v1, 0.0, 0.0, v1, False, pm)

    r2 = design.regimes[regime_ids[1]]
    g2, pi1_2, p2r_2, p2nr_2, m2r, m2nr = regime_pieces(design, r2, pm)
    mu_d2 = regime_mean(m2r.mu, m2nr.mu, g2)
    v2 = regime_variance(m2r.mu, m2r.sigma2, m2nr.mu, m2nr.sigma2, g2, pi1_2, p2r_2, p2nr_2)
    shared = regime_pair_is_shared(design, r1, r2)
    cov = regime_covariance(
        m1r.mu, m1r.sigma2, m1nr.mu, m2r.mu, m2nr.mu, g1, g2, pi1_1, p2r_1, shared
    )
    sig_e = v1 + v2 - 2.0 * cov
    return EffectSummary(mu_d1 - mu_d2, mu_d1, mu_d2, v1, v2, cov, sig_e, shared, pm)


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
    eff = compute_effect(design, model, regime_ids, num, seed, workers, moments)
    sizing = (eff.delta, eff.sigma_sq, alpha, beta)
    return SampleSizeResult(required_n(*sizing), eff.delta, eff.delta_std, exact_n(*sizing)), eff

