"""Full-trial simulation, IPW estimation, and Monte Carlo power.

A simulated trial draws, per cluster: the treatment path (one uniform
against the cumulative ``design.path_probs``, the law the IPW formula
inverts; arm and response are the path's), then the sub-unit
outcomes/missingness with the path's mean vector through
``moments._simulate_ybar``, block by block: the missingness index, the
per-sub-unit errors unless they are normal, then ``w . Q`` given the index
as one normal per cluster, into which normal errors fold; exact in
distribution.  Path means stay one (P, T) table: no (n, T) array exists.
Cluster i takes the i-th index row with an observed sub-unit that the
chunk's generator gives; rows with none are dropped (and counted) before
any error is drawn for them.

A regime's IPW weight depends only on the observed path: ``1/(pi1 pi2)``
on the regime's two paths and 0 elsewhere, so weights are the per-path
tables of ``design.ipw_path_weights`` (the ones ``regime_moments`` reads)
indexed by each cluster's path; ``mc_power`` weighs by ``design.contrast_weights``.

Monte Carlo power simulates the ``reps`` trials in fixed chunks of whole
reps (about ``TRIAL_ROWS`` clusters each); each chunk lives on its own RNG
substream keyed by (seed, TRIAL, POWER, chunk), so results do not depend
on the worker count.  The Wald statistic uses the design-stage closed-form
variance by default; ``empirical_variance=True`` switches to the
per-dataset plug-in variant.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .design import Regime, SmartDesign, contrast_weights, ipw_path_weights, path_probs
from .moments import OutcomeModel, _simulate_ybar, require_same_units
from .power import TestSpec, reject, wald_z
from .rngs import POWER, TRIAL, check_redraws, chunk_map, substream

#: cluster rows per power chunk, rounded down to whole reps (at least one);
#: fixed, not tunable: results must not depend on it at runtime
TRIAL_ROWS = 16384


@dataclass(frozen=True)
class TrialDataset:
    """One simulated trial; arrays are per cluster (path 0-based)."""

    path: np.ndarray
    ybar: np.ndarray
    n_units: np.ndarray
    n_redrawn: int = 0

    @property
    def n_clusters(self) -> int:
        return self.path.size


@dataclass(frozen=True)
class PowerEstimate:
    power: float
    reps: int
    mean_abs_delta: float
    mcsd: float

    @property
    def se_power(self) -> float:
        return math.sqrt(self.power * (1.0 - self.power) / self.reps)


def _pick_paths(design: SmartDesign, u: np.ndarray) -> np.ndarray:
    """Path per cluster: the one whose interval of the cumulative ``path_probs`` holds ``u``.

    Normalising puts the last edge at exactly 1.0, so every ``u`` in [0, 1)
    lands on a path, and a path of probability 0 has an empty interval.
    """
    cdf = np.cumsum(path_probs(design))
    return np.searchsorted(cdf / cdf[-1], u, side="right")


def _simulate_clusters(
    design: SmartDesign, model: OutcomeModel, n_rows: int, rng: np.random.Generator
) -> TrialDataset:
    """Simulate ``n_rows`` independent clusters from one generator: path uniforms, then
    ``_simulate_ybar``'s draws."""
    path = _pick_paths(design, rng.random(n_rows))
    mu_matrix = np.array([p.mu for p in design.paths])
    return TrialDataset(path, *_simulate_ybar(model, mu_matrix, path, rng))


def simulate_trial(
    design: SmartDesign,
    model: OutcomeModel,
    n_clusters: int,
    seed: int,
    _key: tuple[int, ...] = (),
) -> TrialDataset:
    """Simulate one trial of ``n_clusters`` clusters on substream (seed, TRIAL, *_key)."""
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    require_same_units(design, model)
    return _simulate_clusters(design, model, n_clusters, substream(seed, TRIAL, *_key))


def ipw_weights(ds: TrialDataset, design: SmartDesign, regime: Regime) -> np.ndarray:
    """Per-cluster IPW weight for one regime (zero when inconsistent)."""
    w = ipw_path_weights(design, regime)[ds.path]
    if not w.any():
        warnings.warn(
            f"no cluster is consistent with regime {regime.index + 1}; estimate degenerates to 0",
            stacklevel=2,
        )
    return w


def ipw_estimate(ds: TrialDataset, design: SmartDesign, regime_ids: tuple[int, ...]) -> float:
    """IPW estimate of the regime mean (one id) or mean difference (two ids, 0-based);
    ``contrast_weights`` refuses other ids first."""
    contrast_weights(design, regime_ids)
    est = 0.0
    for sign, rid in zip((1.0, -1.0), regime_ids):
        w = ipw_weights(ds, design, design.regimes[rid])
        est += sign * float(np.mean(w * ds.ybar))
    return est


def _power_chunk(
    design: SmartDesign,
    model: OutcomeModel,
    contrast: np.ndarray,
    n_clusters: int,
    seed: int,
    empirical_variance: bool,
    chunk: int,
    reps: int,
) -> tuple[TrialDataset, np.ndarray, np.ndarray | None]:
    """Simulate ``reps`` trials as one block: (trials, per-rep estimate, per-rep plug-in sigma^2).

    The plug-in sigma^2, half the per-rep variance of the weighted
    contrasts, is computed only for ``empirical_variance``.
    """
    rng = substream(seed, TRIAL, POWER, chunk)
    ds = _simulate_clusters(design, model, reps * n_clusters, rng)
    x = (contrast[ds.path] * ds.ybar).reshape(reps, n_clusters)
    return ds, x.mean(axis=1), x.var(axis=1, ddof=1) / 2.0 if empirical_variance else None


def require_power_n(n_clusters: int, empirical_variance: bool) -> None:
    """Raise ValueError unless ``mc_power`` can test at ``n_clusters``: at least one cluster,
    and two for the plug-in variance."""
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    if empirical_variance and n_clusters < 2:
        raise ValueError("the plug-in variance (empirical_variance) needs n >= 2 clusters, "
                         f"got n = {n_clusters}")


def mc_power(
    design: SmartDesign,
    model: OutcomeModel,
    test: TestSpec,
    regime_ids: tuple[int, ...],
    n_clusters: int,
    sigma_sq: float,
    reps: int = 5000,
    seed: int = 0,
    workers: int = 1,
    empirical_variance: bool = False,
    on_chunk: Callable[[int, TrialDataset], None] | None = None,
) -> PowerEstimate:
    """Monte Carlo power of the Wald test at the given N.

    ``sigma_sq`` is the design-stage closed-form variance (N x Var / 2)
    used in the test statistic unless ``empirical_variance`` is set.
    ``on_chunk(first_rep, ds)`` receives each chunk's trials in rep order;
    ``ds`` holds whole reps of ``n_clusters`` rows each, starting at rep
    ``first_rep`` (0-based).
    """
    require_power_n(n_clusters, empirical_variance)
    require_same_units(design, model)
    contrast = contrast_weights(design, regime_ids)
    if reps < 2:
        raise ValueError(f"reps must be >= 2 for the Monte Carlo SD, got {reps}")
    if reps < 100:
        warnings.warn(f"reps={reps} is small; the power estimate will be noisy", stacklevel=2)
    if not sigma_sq > 0:  # refused before any trial; every rep's plug-in sigma^2 is 0 then too
        ids = " and ".join(str(r + 1) for r in regime_ids)
        raise ValueError(f"the design-stage sigma^2 of regime{'s' * (len(regime_ids) - 1)} {ids} "
                         f"is {sigma_sq}" + ("; their estimators coincide, so no trial can tell "
                                             "them apart" if len(regime_ids) == 2 else ""))
    run = partial(_power_chunk, design, model, contrast, n_clusters, seed, empirical_variance)
    per_chunk = max(1, TRIAL_ROWS // n_clusters)
    deltas, s_sqs, n_redrawn = [], [], 0
    # chunks reach on_chunk in rep order while the pool simulates later ones
    for chunk, (ds, d_hat, s_sq) in enumerate(chunk_map(run, reps, per_chunk, workers)):
        if on_chunk is not None:
            on_chunk(chunk * per_chunk, ds)
        deltas.append(d_hat)
        s_sqs.append(s_sq)
        n_redrawn += ds.n_redrawn
    check_redraws(n_redrawn, reps * n_clusters)
    deltas = np.concatenate(deltas)
    if empirical_variance:
        sigma_sq = np.concatenate(s_sqs)
        if zero := np.count_nonzero(sigma_sq <= 0):
            raise ValueError(f"{zero} of {reps} reps have a plug-in sigma^2 of 0 (no cluster on "
                             f"a path the contrast weighs, at n = {n_clusters}); use a larger n "
                             "(--n) or drop the plug-in variance (--empirical-variance)")
    z = wald_z(deltas, sigma_sq, n_clusters)
    return PowerEstimate(
        power=float(np.mean(reject(z, test.alpha))),
        reps=reps,
        mean_abs_delta=float(np.mean(np.abs(deltas))),
        mcsd=float(np.std(deltas, ddof=1)),
    )
