"""Monte Carlo path moments and the IPW regime mean/covariance formula.

A sub-unit is observed when its missingness index ``v = b0*Q + sigma0*eps0``
is at most the cutoff.  With ``w = mask / k`` the availability weights of
one replicate (k sub-units available), a path with per-sub-unit mean ``mu``
has cluster mean ``ybar = w . (mu + Q + eps1)``.  ``estimate_path_moments``
simulates an outcome model once for every path (common random numbers) and
draws only the index, ``v = L_v zeta`` with ``zeta ~ N(0, I_T)`` and ``L_v L_v' =
Sigma_v = b0^2 Sigma + sigma0^2 I``, in mirrored pairs (zeta, -zeta), so T/2 normals per
replicate.  The rest is integrated out given v (conditional Monte Carlo): Q ~ N(b0 K v,
sigma0^2 K) with ``K = Sigma Sigma_v^-1``, and eps1 adds mean ``st_mean`` and
variance ``st_variance / k``, so dof must exceed 2.  Each path's moments are
quadratic forms in ``a = [mu, 1]`` over the scatter of ``z = [w, w . E[Q|v]]``.
``_index_sweep`` draws the index rows in fixed blocks of BLOCK = 1024 rows, whose
scratch stays in cache, and redraws the index of all-missing replicates from the same
generator (and counts them); the outcome error is independent of (Q, eps0), so
redrawing the index alone conditions on k >= 1.  The pass pairs rows within a block; the
trials' draws, iid, do not depend on the block size.  Work proceeds in fixed 65536-replicate
chunks, each on its own RNG substream keyed by (seed, MOMENTS, chunk), so the result is
bit-identical for any worker count.
``_chunk_moments`` merges each block as it is drawn; ``_simulate_ybar``, the trials' kernel,
keeps each block's conditional mean and variance of ``w . Q | v`` per cluster and then draws
it as one normal, so no pass holds an (n, T) array.  Normal errors (skew 0, dof inf) fold
into that normal, whose variance is then ``w' Cov(Q + e1 | v) w``; other errors draw e1 per
sub-unit with each block.
``_backend`` holds the brute-force reference kernel for tests.

``regime_moments`` converts per-path moments into the means and the
N-scaled covariance matrix of inverse-probability-weighted regime mean
estimators, one formula for a single regime and for any pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .design import SmartDesign, ipw_path_weights, path_probs
from .dists import SkewTParams, sample_st, st_mean, st_variance
from .missing import MissingnessParams
from .rngs import CHUNK, MOMENTS, REDRAW_SLACK, check_redraws, chunk_map, substream
from .spatial import CarModel, SpdMatrix, car_covariance

#: index rows per block of ``_index_sweep``: one block's scratch (about 0.9 MB at T = 28)
#: stays in cache; fixed, and the draws do not depend on it
BLOCK = 1024


@dataclass(frozen=True)
class OutcomeModel:
    """Spatial + error + missingness model for the sub-unit outcome."""

    car: CarModel
    st: SkewTParams
    mp: MissingnessParams

    def __post_init__(self):
        if self.st.location != 0.0:
            raise ValueError("outcome error must have location 0; path means carry the location")

    @cached_property
    def sigma(self) -> SpdMatrix:
        return car_covariance(self.car)

    @cached_property
    def index_projection(self) -> tuple[np.ndarray, np.ndarray]:
        """``(P, Cov(Q|v))``: for ``zeta ~ N(0, I)``, ``zeta @ P`` is ``[v, E[Q|v]]``.

        ``P = [L_v' | (b0 K L_v)']``; ``Cov(Q|v) = sigma0^2 K`` keeps the positive
        definiteness that ``Sigma - b0^2 Sigma Sigma_v^-1 Sigma`` can lose to rounding."""
        mp, sig = self.mp, self.sigma.matrix
        sigma_v = mp.loading**2 * sig + mp.sigma0**2 * np.eye(sig.shape[0])
        chol_v = np.linalg.cholesky(sigma_v)
        k = np.linalg.solve(sigma_v, sig)  # symmetric: Sigma and Sigma_v commute
        return np.hstack([chol_v.T, (mp.loading * k @ chol_v).T]), mp.sigma0**2 * k

    @cached_property
    def cond_cov(self) -> np.ndarray:
        """``Cov(Q + e1 | v) = st_variance I + Cov(Q|v)``; dof <= 2 fails before the projection."""
        return st_variance(self.st) * np.eye(self.sigma.dim) + self.index_projection[1]


@dataclass(frozen=True)
class PathMoments:
    path: int
    mu: float
    sigma2: float
    n_samples: int
    n_redrawn: int = 0


@dataclass(frozen=True, eq=False)
class ModelMoments:
    """Count, mean vector and centred scatter of ``z = [w, r]`` for one outcome model.

    ``r = w . E[Q|v] + st_mean`` is the conditional mean of ``w . (Q + eps1)``.
    ``m2[-1, -1]`` is the scatter of r plus the conditional variances
    ``sum_i w_i' (Cov(Q|v) + st_variance I) w_i``.  ``for_path`` divides by
    n - 1, so that share enters with a factor n / (n - 1), an O(1/n) bias.
    """

    n_samples: int
    mean: np.ndarray
    m2: np.ndarray
    n_redrawn: int = 0

    def for_path(self, path_mu: np.ndarray, path: int = 0) -> PathMoments:
        """Mean and variance of ``ybar = w . mu + r`` for the per-sub-unit mean ``path_mu``."""
        mu_vec = np.asarray(path_mu, dtype=float)
        if mu_vec.shape != (self.mean.size - 1,):
            raise ValueError(
                f"path mean has shape {mu_vec.shape}, expected ({self.mean.size - 1},)"
            )
        a = np.append(mu_vec, 1.0)
        sigma2 = float(a @ self.m2 @ a) / (self.n_samples - 1) if self.n_samples > 1 else 0.0
        return PathMoments(path, float(a @ self.mean), sigma2, self.n_samples, self.n_redrawn)


def require_same_units(design: SmartDesign, model: OutcomeModel) -> None:
    """Raise ValueError unless the design and the outcome model count the same sub-units."""
    if design.n_units != model.sigma.dim:
        raise ValueError(
            f"the design has {design.n_units} sub-units per cluster "
            f"but the outcome model has {model.sigma.dim}"
        )


def _merge(n_a: int, mean_a, m2_a, n_b: int, mean_b, m2_b):
    """Chan/Welford merge of (count, mean vector, centred scatter matrix)."""
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n)
    m2 = m2_a + m2_b + np.multiply.outer(delta, delta) * (n_a * n_b / n)
    return n, mean, m2


def _index_sweep(model: OutcomeModel, n: int, rng: np.random.Generator, paired: bool = False):
    """Yield n index rows ``[w, w . E[Q|v]]``, every one with k >= 1, block by block in one
    reused scratch, as (positions, rows, float k, all-missing rows left out).  Consecutive
    fills draw the stream of one ``(n, T)`` draw, and the GEMM rounds each row alike in any
    block, so the rows are bit for bit one block's.  The last block of a round takes up to
    BLOCK + 1 rows: numpy sends a one-row block to its matrix-vector product instead, which
    rounds differently.  The positions left out are redrawn in rounds through the same loop
    until none is left; ``check_redraws`` with REDRAW_SLACK bounds the redraws before each
    round.  ``paired`` (mirrored pairs) draws and projects ceil(m/2) rows zeta of a block of m;
    the other m // 2 rows are those of -zeta for the first rows drawn, whose index is the
    product negated: each is masked by ``v >= -(cutoff - a0)`` and takes the masked sum of
    E[Q|v] negated as its r.  Negation is exact, so the rows are bit for bit those of
    [zeta, -zeta] projected whole.  k is one matrix-vector product, and each row is scaled by
    1/k."""
    mp, proj = model.mp, model.index_projection[0]
    t_dim, rows, c = model.sigma.dim, min(n, BLOCK + 1), mp.cutoff - mp.intercept
    zeta, v_and_q = np.empty((rows, t_dim)), np.empty((rows, 2 * t_dim))
    k, inv_k, ones = np.empty(rows), np.empty(rows), np.ones(t_dim)
    block, todo, n_redrawn = np.empty((rows, t_dim + 1)), None, 0
    while todo is None or todo.size:
        size, left, start = n if todo is None else todo.size, [], 0
        while start < size:
            m = size - start if size - start <= BLOCK + 1 else BLOCK
            # the first round (todo None) makes its positions block by block: all n at once
            # would add 8 bytes a row to the peak memory
            pos = np.arange(start, start + m) if todo is None else todo[start:start + m]
            zb, kb, ikb = block[:m], k[:m], inv_k[:m]
            start += m
            h = (m + 1) // 2 if paired else m
            rng.standard_normal(out=zeta[:h])
            if h == 1 < m:  # one row would take numpy's matrix-vector product: mirror
                np.negative(zeta[:1], out=zeta[1:2])  # the pair in zeta and project both
                h = 2
            np.matmul(zeta[:h], proj, out=v_and_q[:h])
            v, q, w, r = v_and_q[:h, :t_dim], v_and_q[:h, t_dim:], zb[:, :-1], zb[:, -1]
            np.less_equal(v, c, out=w[:h])
            np.greater_equal(v[:m - h], -c, out=w[h:])  # the mirrored rows: -v <= c
            np.matmul(w, ones, out=kb)
            np.einsum("it,it->i", w[:h], q, out=r[:h])
            np.einsum("it,it->i", w[h:], q[:m - h], out=r[h:])
            np.negative(r[h:], out=r[h:])
            with np.errstate(divide="ignore", invalid="ignore"):  # k = 0 rows are left out
                zb *= np.reciprocal(kb, out=ikb)[:, None]
            full = kb > 0
            left.append(pos[~full])
            if left[-1].size:
                pos, zb, kb = pos[full], zb[full], kb[full]
            yield pos, zb, kb, left[-1].size
        todo = np.concatenate(left)
        n_redrawn += todo.size
        check_redraws(n_redrawn, n, REDRAW_SLACK)


def _simulate_ybar(model: OutcomeModel, path_mu: np.ndarray, path: np.ndarray,
                   rng: np.random.Generator):
    """(ybar, k, redraws) for clusters on ``path`` of the (P, T) path means ``path_mu``.  For
    each block of index rows (k >= 1) it keeps the mean ``w . mu + r`` and the variance
    ``w' C w`` of ``w . Q | v``; then ybar is one normal per cluster.  Normal errors join that
    normal (C = Cov(Q + e1 | v)); other errors are drawn with their block, C = Cov(Q|v)."""
    normal = model.st.skew == 0.0 and model.st.is_normal_limit
    cov = model.cond_cov if normal else model.index_projection[1]
    n = path.size
    mean, var, k, n_redrawn = np.empty(n), np.empty(n), np.empty(n, np.intp), 0
    wc = np.empty((BLOCK + 1, model.sigma.dim))  # one block's w @ cov
    for pos, rows, kb, n_left in _index_sweep(model, n, rng):
        n_redrawn += n_left
        if not pos.size:  # a block can be all-missing
            continue
        w, mu = rows[:, :-1], path_mu[path[pos]]
        if not normal:
            mu += sample_st(model.st, mu.size, rng).reshape(mu.shape)
        np.matmul(w, cov, out=wc[:pos.size])
        k[pos], var[pos] = kb, np.einsum("it,it->i", wc[:pos.size], w)
        mean[pos] = np.einsum("it,it->i", w, mu) + rows[:, -1]
    mean += np.sqrt(var, out=var) * rng.standard_normal(n)
    return mean, k, n_redrawn


def _chunk_moments(model: OutcomeModel, seed: int, chunk: int, size: int):
    """(size, mean, scatter, redraws) of z = [w, w . E[Q|v]] over one chunk, each block of
    ``_index_sweep`` centred and merged as it is drawn.  The rows come in mirrored pairs
    (zeta, -zeta): each is a draw of the index, and r, nearly odd in zeta, cancels much of
    its noise within a pair."""
    rng, acc, n_redrawn = substream(seed, MOMENTS, chunk), (0, 0.0, 0.0), 0
    ones = np.ones(min(size, BLOCK + 1))
    for _, rows, _, n_left in _index_sweep(model, size, rng, paired=True):
        n_redrawn += n_left
        m = rows.shape[0]
        if m:  # a block can be all-missing
            mean = ones[:m] @ rows
            mean /= m
            rows -= mean
            acc = _merge(*acc, m, mean, rows.T @ rows)
    return *acc, n_redrawn


def estimate_path_moments(
    model: OutcomeModel,
    num: int,
    seed: int,
    workers: int = 1,
) -> ModelMoments:
    """Monte Carlo moments from which every path's cluster-mean moments follow.

    One pass of ``num`` replicates serves all paths of the outcome model:
    ``estimate_path_moments(model, num, seed).for_path(mu)`` gives a path's
    mean and variance.  Results are deterministic given (seed, num) and do
    not depend on ``workers``.  Raises UndefinedMomentError unless the
    outcome error has a finite variance (dof > 2).
    """
    if num < 1:
        raise ValueError(f"num must be >= 1, got {num}")
    if num < 10_000:
        warnings.warn(f"num={num} is small; moment estimates will be noisy", stacklevel=2)
    cond_cov = model.cond_cov  # first: dof <= 2 fails here, before any draw
    chunks = chunk_map(partial(_chunk_moments, model, seed), num, CHUNK, workers)
    n, mean, m2, redrawn = 0, 0.0, 0.0, 0
    for n_c, mean_c, m2_c, red_c in chunks:
        n, mean, m2 = _merge(n, mean, m2, n_c, mean_c, m2_c)
        redrawn += red_c
    check_redraws(redrawn, num)
    # r adds st_mean, and its scatter sum_i w_i' cond_cov w_i: sum_i w_i w_i' is the uncentred
    # w-block of the scatter
    m2[-1, -1] += np.sum(cond_cov * (m2[:-1, :-1] + n * np.outer(mean[:-1], mean[:-1])))
    mean[-1] += st_mean(model.st)
    return ModelMoments(n, mean, m2, redrawn)


def regime_moments(
    design: SmartDesign, regime_ids: tuple[int, ...], mu: np.ndarray, sigma2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Means and N x covariance matrix of the IPW mean estimators of the given regimes.

    ``mu`` and ``sigma2`` are per-path cluster-mean moments.  A cluster
    follows path p with probability ``P_p`` and adds ``c_rp ybar`` to regime
    r's estimator, ``c_rp`` being the regime's IPW weight on p, so
    ``mean_r = sum_p P_p c_rp mu_p`` and
    ``N Cov(r, s) = sum_p P_p c_rp c_sp (sigma2_p + mu_p^2) - mean_r mean_s``.
    """
    mu, sigma2 = np.asarray(mu, dtype=float), np.asarray(sigma2, dtype=float)
    c = np.array([ipw_path_weights(design, design.regimes[r]) for r in regime_ids])
    pc = c * path_probs(design)
    means = pc @ mu
    return means, (pc * (sigma2 + mu**2)) @ c.T - np.outer(means, means)
