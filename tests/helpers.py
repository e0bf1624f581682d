"""Shared test utilities: reference estimators and kernels, jackknife SEs and a normality test."""

from __future__ import annotations

import math

import numpy as np

STATS = ("mean", "var", "skew", "kurt")


def welford_reference(values: np.ndarray):
    """Two-pass mean and sample (co)variance of the rows of ``values``; the accumulation oracle."""
    v = np.asarray(values, dtype=float)
    mean = v.mean(axis=0)
    d = v - mean
    return mean, d.T @ d / (v.shape[0] - 1)


def ybar_loop_reference(zq, e0, e1, chol, mu, a0, b0, sigma0, cutoff):
    """Column-at-a-time cluster kernel, the oracle for ``_backend.ybar_and_count``.

    Forms q one sub-unit at a time with sequential sums, the arithmetic of
    the per-cluster loop kernel the package used to ship.
    """
    n, t_dim = zq.shape
    total = np.zeros(n)
    n_avail = np.zeros(n, dtype=np.int64)
    for t in range(t_dim):
        q = zq[:, 0] * chol[t, 0]
        for j in range(1, t + 1):
            q = q + zq[:, j] * chol[t, j]
        avail = (a0 + b0 * q + sigma0 * e0[:, t]) <= cutoff
        total[avail] = total[avail] + (mu[avail, t] + q[avail] + e1[avail, t])
        n_avail += avail
    ybar = np.full(n, np.nan)
    ok = n_avail > 0
    ybar[ok] = total[ok] / n_avail[ok]
    return ybar, n_avail


def sample_moments(x: np.ndarray) -> dict[str, float]:
    x = np.asarray(x, dtype=float)
    m = x.mean()
    d = x - m
    m2 = np.mean(d**2)
    m3 = np.mean(d**3)
    m4 = np.mean(d**4)
    return {
        "mean": float(m),
        "var": float(m2 * x.size / (x.size - 1)),
        "skew": float(m3 / m2**1.5),
        "kurt": float(m4 / m2**2 - 3.0),
    }


def _stats_from_power_sums(n: float, s1: float, s2: float, s3: float, s4: float):
    """Moment statistics from sums of powers of (x - reference_mean)."""
    d = s1 / n
    m2 = s2 / n - d * d
    m3 = s3 / n - 3 * d * s2 / n + 2 * d**3
    m4 = s4 / n - 4 * d * s3 / n + 6 * d * d * s2 / n - 3 * d**4
    return {
        "mean": d,  # offset from the reference mean; caller adds it back
        "var": m2 * n / (n - 1),
        "skew": m3 / m2**1.5,
        "kurt": m4 / m2**2 - 3.0,
    }


def moments_with_se(x: np.ndarray, n_blocks: int = 40) -> dict[str, tuple[float, float]]:
    """(estimate, jackknife SE) for mean/var/skew/kurt, via delete-one-block sums."""
    x = np.asarray(x, dtype=float)
    n = x.size - (x.size % n_blocks)
    ref = float(x[:n].mean())
    c = (x[:n] - ref).reshape(n_blocks, -1)
    bs = np.stack([c.sum(axis=1), (c**2).sum(axis=1), (c**3).sum(axis=1), (c**4).sum(axis=1)])
    tot = bs.sum(axis=1)
    nb = n // n_blocks
    full = _stats_from_power_sums(n, *tot)
    jack = {k: [] for k in STATS}
    for b in range(n_blocks):
        st = _stats_from_power_sums(n - nb, *(tot - bs[:, b]))
        for k in STATS:
            jack[k].append(st[k])
    out = {}
    fac = (n_blocks - 1) / n_blocks
    for k in STATS:
        vals = np.asarray(jack[k])
        se = math.sqrt(fac * np.sum((vals - vals.mean()) ** 2))
        est = full[k] + (ref if k == "mean" else 0.0)
        out[k] = (est, se)
    return out


def moment_band(x: np.ndarray, stat: str, n_se: float = 3.0) -> tuple[float, float, float]:
    """(estimate, se, n_se) for asserting |estimate - truth| <= n_se * se."""
    est, se = moments_with_se(x)[stat]
    return est, se, n_se


def block_jackknife_se(values: np.ndarray, stat_fn, n_blocks: int = 40) -> float:
    """Jackknife SE of an arbitrary statistic of one sample (row-deleting blocks)."""
    v = np.asarray(values)
    n = v.shape[0] - (v.shape[0] % n_blocks)
    v = v[:n]
    idx = np.arange(n).reshape(n_blocks, -1)
    vals = np.array([stat_fn(np.delete(v, idx[b], axis=0)) for b in range(n_blocks)])
    return float(math.sqrt((n_blocks - 1) / n_blocks * np.sum((vals - vals.mean()) ** 2)))


def anderson_darling_normal(x: np.ndarray) -> tuple[float, float]:
    """AD statistic (mean/variance estimated) and its approximate p-value.

    Uses the small-sample adjustment A*^2 = A^2 (1 + 0.75/n + 2.25/n^2) and
    the standard piecewise-exponential p-value approximation.
    """
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    z = (x - x.mean()) / x.std(ddof=1)
    cdf = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2)) for v in z]))
    cdf = np.clip(cdf, 1e-300, 1 - 1e-16)
    i = np.arange(1, n + 1)
    a2 = -n - np.mean((2 * i - 1) * (np.log(cdf) + np.log1p(-cdf[::-1])))
    a2_star = a2 * (1.0 + 0.75 / n + 2.25 / n**2)
    if a2_star >= 0.6:
        p = math.exp(1.2937 - 5.709 * a2_star + 0.0186 * a2_star**2)
    elif a2_star >= 0.34:
        p = math.exp(0.9177 - 4.279 * a2_star - 1.38 * a2_star**2)
    elif a2_star >= 0.2:
        p = 1.0 - math.exp(-8.318 + 42.796 * a2_star - 59.938 * a2_star**2)
    else:
        p = 1.0 - math.exp(-13.436 + 101.14 * a2_star - 223.73 * a2_star**2)
    return float(a2_star), float(min(max(p, 0.0), 1.0))


def pick_paths_reference(design, arm, responder, u):
    """Per-cluster path picker, the oracle for ``simtrial._pick_paths``.

    Option ``min(int(u * len), len - 1)`` of the cluster's (arm, responder)
    list of paths in index order, one cluster at a time.
    """
    resp_paths = [
        [p.index for p in design.paths if p.arm == a.index and p.responder]
        for a in design.arms
    ]
    nr_paths = [
        [p.index for p in design.paths if p.arm == a.index and not p.responder]
        for a in design.arms
    ]
    path = np.empty(len(arm), dtype=np.int64)
    for i in range(len(arm)):
        opts = resp_paths[arm[i]] if responder[i] else nr_paths[arm[i]]
        path[i] = opts[min(int(u[i] * len(opts)), len(opts) - 1)]
    return path


def ipw_weights_reference(ds, design, regime):
    """Per-cluster IPW weight ``consistent / (pi1[arm] * pi2_obs)``, one stage-2 probability per cluster."""
    from smartp.design import stage1_probs, stage2_prob

    pi1 = stage1_probs(design)
    target_path = np.where(ds.responder, regime.responder_path, regime.nonresp_path)
    consistent = (ds.arm == regime.arm) & (ds.path == target_path)
    pi2_obs = np.array([stage2_prob(design, p) for p in ds.path])
    return consistent / (pi1[ds.arm] * pi2_obs)


def empirical_sigma_sq_reference(ds, design, regime_ids):
    """Per-dataset sigma^2 = N Var(delta_hat) / 2 from the weighted contrasts of one trial."""
    contrast = np.zeros(ds.n_clusters)
    for sign, rid in zip((1.0, -1.0), regime_ids):
        contrast += sign * ipw_weights_reference(ds, design, design.regimes[rid]) * ds.ybar
    return float(np.var(contrast, ddof=1)) / 2.0


def simulate_trial_reference(design, model, n_clusters, seed, key=()):
    """One trial drawn cluster by cluster in the path step, the oracle for ``simulate_trial``.

    Same substream and draw order: arm, response and stage-2 uniforms,
    then the sub-unit blocks, redraw rounds appended.
    """
    from smartp.design import stage1_probs
    from smartp.moments import _simulate_ybar
    from smartp.rngs import TRIAL, substream

    rng = substream(seed, TRIAL, *key)
    arm = np.searchsorted(np.cumsum(stage1_probs(design)), rng.random(n_clusters), side="right")
    arm = np.minimum(arm, len(design.arms) - 1)
    gammas = np.array([a.response_rate for a in design.arms])
    responder = rng.random(n_clusters) < gammas[arm]
    path = pick_paths_reference(design, arm, responder, rng.random(n_clusters))
    mu_matrix = np.array([p.mu for p in design.paths])
    ybar, n_avail = _simulate_ybar(model, mu_matrix[path], rng)
    bad = np.flatnonzero(n_avail == 0)
    n_redrawn = 0
    while bad.size:
        n_redrawn += bad.size
        yb, na = _simulate_ybar(model, mu_matrix[path[bad]], rng)
        ybar[bad] = yb
        n_avail[bad] = na
        bad = bad[na == 0]
    return arm, responder, path, ybar, n_avail, n_redrawn


def qe0_model_moments(model, num, seed):
    """The moments pass drawing Q and eps0 separately, the oracle for the index-conditioned pass.

    Same chunking, substream keys and redraw rule as ``estimate_path_moments``.
    Each replicate draws (zq, e0) and forms ``q = zq @ chol.T``; the row is
    ``[w, w . q]`` and only the outcome error is integrated out, adding
    ``st_mean`` and ``st_variance / k``.  Returns a ``ModelMoments``.
    """
    from smartp import ModelMoments, st_mean, st_variance
    from smartp.rngs import CHUNK, MOMENTS, substream

    mp, chol = model.mp, model.sigma.chol
    rows, inv_k = [], []
    for chunk, start in enumerate(range(0, num, CHUNK)):
        size, round_no = min(CHUNK, num - start), 0
        while size:
            rng = substream(seed, MOMENTS, chunk, round_no)
            zq, e0 = rng.standard_normal((size, chol.shape[0])), rng.standard_normal((size, chol.shape[0]))
            q = zq @ chol.T
            avail = (mp.intercept + mp.loading * q + mp.sigma0 * e0) <= mp.cutoff
            k = avail.sum(axis=1)
            keep = k > 0
            w = avail[keep] / k[keep, None]
            rows.append(np.column_stack([w, (w * q[keep]).sum(axis=1)]))
            inv_k.append(1.0 / k[keep])
            size, round_no = size - int(keep.sum()), round_no + 1
    z = np.concatenate(rows)
    mean = z.mean(axis=0)
    d = z - mean
    m2 = d.T @ d
    m2[-1, -1] += st_variance(model.st) * np.concatenate(inv_k).sum()
    mean[-1] += st_mean(model.st)
    return ModelMoments(z.shape[0], mean, m2)
