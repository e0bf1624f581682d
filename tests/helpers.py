"""Shared test utilities: reference estimators and kernels, the skew-t shape moments, jackknife
SEs, a normality test, a strategy for random designs and the trial dump's rows."""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from hypothesis import strategies as st

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


def brute_force_ybar(model, path_mu, path, rng):
    """Cluster outcomes drawn tooth by tooth, the oracle for ``moments._simulate_ybar``.

    Draws the spatial-effect normals, the missingness noise eps0 and the error
    e1 for every sub-unit of the (n, T) means ``path_mu[path]`` and averages
    ``mu + Q + e1`` over the available ones with ``_backend.ybar_and_count``.
    Same signature as the kernel, but it returns only (ybar, k), NaN at k = 0:
    it leaves all-missing rows to the caller, where the kernel redraws them.
    """
    from smartp import sample_st
    from smartp._backend import ybar_and_count

    mp, mu2d = model.mp, path_mu[path]
    zq, e0 = rng.standard_normal(mu2d.shape), rng.standard_normal(mu2d.shape)
    e1 = sample_st(model.st, mu2d.size, rng).reshape(mu2d.shape)
    return ybar_and_count(
        zq, e0, e1, model.sigma.chol, mu2d, mp.intercept, mp.loading, mp.sigma0, mp.cutoff
    )


def index_rows_reference(model, n, rng):
    """The index rows of one (n, T) draw by a masked sum, the oracle for the rows of
    ``moments._index_sweep``.

    Returns the (n, T+1) rows ``[w, w . E[Q|v]]`` and the integer counts k,
    NaN rows at k = 0.
    """
    return index_rows_of(model, rng.standard_normal((n, model.sigma.dim)))


def index_rows_of(model, zeta):
    """``index_rows_reference``'s (z, k) for the given (n, T) index normals ``zeta``."""
    mp = model.mp
    n, t_dim = zeta.shape
    v_and_q = zeta @ model.index_projection[0]
    avail = mp.intercept + v_and_q[:, :t_dim] <= mp.cutoff
    k = avail.sum(axis=1)
    z = np.empty((n, t_dim + 1))
    z[:, :-1] = avail
    np.sum(v_and_q[:, t_dim:], axis=1, where=avail, out=z[:, -1])
    with np.errstate(invalid="ignore"):
        z /= k[:, None]
    return z, k


def first_kept_rows(n, block, draw):
    """The first n rows with k >= 1 of the (z, k) blocks that ``draw(m)`` gives, as
    ``moments._index_sweep`` draws them: each block takes ``block`` of the rows still missing,
    or up to ``block + 1`` when those are all that is missing.  Returns (z, k, rows dropped)."""
    zs, ks, kept, drawn = [], [], 0, 0
    while kept < n:
        m = n - kept if n - kept <= block + 1 else block
        zb, kb = draw(m)
        zs.append(zb[kb > 0])
        ks.append(kb[kb > 0])
        kept, drawn = kept + ks[-1].size, drawn + m
    return np.vstack(zs), np.concatenate(ks), drawn - n


def simulate_z_reference(model, n, rng):
    """``index_rows_reference``'s first n rows with k >= 1, drawn in rounds of the rows still
    missing from the same generator, the oracle for ``moments._index_sweep``: (z, k, drops)."""
    return first_kept_rows(n, n, lambda m: index_rows_reference(model, m, rng))


def paired_z_reference(model, n, rng, block):
    """The moments pass's mirrored rows, the oracle for ``moments._index_sweep(...,
    paired=True)``: (z, k, drops).  A block of m rows draws ceil(m/2) rows zeta and projects
    ``[zeta, -zeta[:m // 2]]`` by ``index_rows_of``, the negated normals included."""
    def draw(m):
        zeta = rng.standard_normal(((m + 1) // 2, model.sigma.dim))
        return index_rows_of(model, np.vstack([zeta, -zeta[:m // 2]]))

    return first_kept_rows(n, block, draw)


def reference_model_moments(model, num, seed, paired=True):
    """The moments pass from reference rows: ``paired_z_reference``'s chunk by chunk on the
    pass's substreams (``moments.CHUNK`` and ``moments.BLOCK`` read at the call), stacked and
    finished row by row: r's scatter gains ``sum_i w_i' Cov(Q + e1 | v) w_i`` and its mean
    ``st_mean``.  ``paired=False`` takes iid rows from ``simulate_z_reference`` on the same
    substreams instead: the unpaired oracle for the precision of the mirrored pairs.  Returns a
    ``ModelMoments``."""
    from smartp import ModelMoments, moments, st_mean
    from smartp.rngs import MOMENTS, substream

    parts = []
    for chunk, start in enumerate(range(0, num, moments.CHUNK)):
        rng, size = substream(seed, MOMENTS, chunk), min(moments.CHUNK, num - start)
        parts.append(paired_z_reference(model, size, rng, moments.BLOCK) if paired
                     else simulate_z_reference(model, size, rng))
    z = np.vstack([part[0] for part in parts])
    mean = z.mean(axis=0)
    m2 = (z - mean).T @ (z - mean)
    m2[-1, -1] += np.einsum("it,ts,is->", z[:, :-1], model.cond_cov, z[:, :-1])
    mean[-1] += st_mean(model.st)
    return ModelMoments(z.shape[0], mean, m2, sum(part[2] for part in parts))


def blocked_trial_reference(model, n, rng, block):
    """The trial kernel's draws for skew-t errors, the oracle for the order of
    ``moments._simulate_ybar``: (z, k, drops, e1).  Index rows in blocks of ``block`` rows (see
    ``first_kept_rows``), each block drawn by ``index_rows_reference`` and followed by the
    errors of its rows with k >= 1."""
    from smartp import sample_st

    t_dim, e1 = model.sigma.dim, []

    def draw(m):
        zb, kb = index_rows_reference(model, m, rng)
        if kb.any():
            e1.append(sample_st(model.st, np.count_nonzero(kb) * t_dim, rng).reshape(-1, t_dim))
        return zb, kb

    return *first_kept_rows(n, block, draw), np.vstack(e1)


def sample_mvn(cov, n, rng):
    """n iid rows from N(0, cov) via the cached lower factor of an ``SpdMatrix``."""
    return rng.standard_normal((n, cov.dim)) @ cov.chol.T


def degree(graph, v):
    """Number of edges of an ``AdjacencyGraph`` that touch vertex v."""
    return sum(1 for a, b in graph.edges if v in (a, b))


def st_skewness(p) -> float:
    """Exact skewness gamma_1 of a skew-t; requires dof > 3."""
    from smartp import UndefinedMomentError
    from smartp.dists import _std_mean

    kap = p.kappa
    if p.is_normal_limit:
        d = kap * math.sqrt(2.0 / math.pi)
        return 0.5 * (4.0 - math.pi) * d**3 / (1.0 - d * d) ** 1.5
    if p.dof <= 3:
        raise UndefinedMomentError(f"skewness requires dof > 3, got {p.dof}")
    nu = p.dof
    m = _std_mean(p)
    var = nu / (nu - 2.0) - m * m
    return m * (nu * (3.0 - kap * kap) / (nu - 3.0) - 3.0 * nu / (nu - 2.0) + 2.0 * m * m) / var**1.5


def st_kurtosis(p) -> float:
    """Exact excess kurtosis gamma_2 of a skew-t; requires dof > 4."""
    from smartp import UndefinedMomentError
    from smartp.dists import _std_mean

    kap = p.kappa
    if p.is_normal_limit:
        d2 = kap * kap * 2.0 / math.pi
        return 2.0 * (math.pi - 3.0) * d2 * d2 / (1.0 - d2) ** 2
    if p.dof <= 4:
        raise UndefinedMomentError(f"kurtosis requires dof > 4, got {p.dof}")
    nu = p.dof
    m = _std_mean(p)
    m2 = m * m
    var = nu / (nu - 2.0) - m2
    num = (
        3.0 * nu * nu / ((nu - 2.0) * (nu - 4.0))
        - 4.0 * m2 * nu * (3.0 - kap * kap) / (nu - 3.0)
        + 6.0 * m2 * nu / (nu - 2.0)
        - 3.0 * m2 * m2
    )
    return num / (var * var) - 3.0


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


def ipw_weights_reference(ds, design, regime):
    """Per-cluster IPW weight ``consistent / (pi1[arm] * pi2_obs)``, one stage-2 probability per cluster."""
    from smartp.design import stage1_probs, stage2_prob

    pi1 = stage1_probs(design)
    arm = np.array([design.paths[p].arm for p in ds.path], dtype=np.int64)
    responder = np.array([design.paths[p].responder for p in ds.path], dtype=bool)
    target_path = np.where(responder, regime.responder_path, regime.nonresp_path)
    consistent = (arm == regime.arm) & (ds.path == target_path)
    pi2_obs = np.array([stage2_prob(design, p) for p in ds.path])
    return consistent / (pi1[arm] * pi2_obs)


def empirical_sigma_sq_reference(ds, design, regime_ids):
    """Per-dataset sigma^2 = N Var(delta_hat) / 2 from the weighted contrasts of one trial."""
    contrast = np.zeros(ds.n_clusters)
    for sign, rid in zip((1.0, -1.0), regime_ids):
        contrast += sign * ipw_weights_reference(ds, design, design.regimes[rid]) * ds.ybar
    return float(np.var(contrast, ddof=1)) / 2.0


def dump_rows_reference(fields, n, first_rep, path, ybar, units) -> str:
    """A chunk's ``--dump-trials`` rows as ``csv.writer`` writes them with ``repr`` for Ybar: the
    oracle for the ``_dump`` helper.  The chunk holds whole reps of ``n`` rows from rep
    ``first_rep`` (0-based); ``fields[p]`` is path p's ``arm,R,path``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row, (p, y, k) in enumerate(zip(path, ybar, units)):
        writer.writerow([first_rep + 1 + row // n, row % n + 1, *fields[p].split(","),
                         repr(float(y)), int(k)])
    return buf.getvalue()


def simulate_trial_reference(design, model, n_clusters, seed, key=()):
    """One trial drawn stage by stage and tooth by tooth, the oracle for ``simulate_trial``.

    Each cluster draws its stage-1 arm from ``stage1_probs``, its response
    with the arm's rate, and then option ``min(int(u * len), len - 1)`` of
    its (arm, response) list of paths in index order: three uniform streams,
    in that order, on substream (seed, TRIAL, *key).  The sub-unit blocks
    follow, drawn by ``brute_force_ybar``, redraw rounds appended.  Nothing
    here reads ``path_probs``, so the trial checks the path law the formula
    inverts.  Returns a ``TrialDataset``.
    """
    from smartp.design import stage1_probs
    from smartp.rngs import TRIAL, substream
    from smartp.simtrial import TrialDataset

    rng = substream(seed, TRIAL, *key)
    arm = np.searchsorted(np.cumsum(stage1_probs(design)), rng.random(n_clusters), side="right")
    arm = np.minimum(arm, len(design.arms) - 1)
    gammas = np.array([a.response_rate for a in design.arms])
    responder = rng.random(n_clusters) < gammas[arm]
    u = rng.random(n_clusters)
    path = np.empty(n_clusters, dtype=np.int64)
    for a in design.arms:
        for resp in (False, True):
            opts = np.array([p.index for p in design.paths
                             if p.arm == a.index and p.responder == resp])
            rows = (arm == a.index) & (responder == resp)
            path[rows] = opts[np.minimum((u[rows] * opts.size).astype(np.int64), opts.size - 1)]
    mu_matrix = np.array([p.mu for p in design.paths])
    ybar, n_avail = brute_force_ybar(model, mu_matrix, path, rng)
    bad = np.flatnonzero(n_avail == 0)
    n_redrawn = 0
    while bad.size:
        n_redrawn += bad.size
        yb, na = brute_force_ybar(model, mu_matrix, path[bad], rng)
        ybar[bad] = yb
        n_avail[bad] = na
        bad = bad[na == 0]
    return TrialDataset(path, ybar, n_avail, n_redrawn)


def qe0_model_moments(model, num, seed):
    """The moments pass drawing Q and eps0 separately, the oracle for the index-conditioned pass.

    Same chunking as ``estimate_path_moments``, but it redraws whole
    all-missing replicates, round r on substream (seed, MOMENTS, chunk, r); a
    trailing 0 does not change a key, so round 0 is the chunk's own substream.
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


def fd_se(fn, vals, ses):
    """Delta-method SE of ``fn(vals)`` for independent inputs, by central differences."""
    grad = []
    for i, v in enumerate(vals):
        h = max(1e-7, 1e-5 * abs(v))
        up, dn = list(vals), list(vals)
        up[i] += h
        dn[i] -= h
        grad.append((fn(up) - fn(dn)) / (2 * h))
    return math.sqrt(sum((g * s) ** 2 for g, s in zip(grad, ses)))


def smart_design(options, gammas, stage1_mode="balanced", pi1_literal=False, n_units=1):
    """A design with ``options[a] = (n_resp, n_nonresp)`` paths on arm a and one regime per
    (responder, non-responder) pair of an arm; paths and regimes run arm by arm, means zero."""
    from smartp import design_from_matrices

    st1, dtr, first = [], [], 1
    for arm, ((n_r, n_nr), gamma) in enumerate(zip(options, gammas)):
        st1.append([n_r, n_nr, gamma])
        dtr += [[len(dtr) + 1, first + r, first + n_r + j, arm + 1]
                for r in range(n_r) for j in range(n_nr)]
        first += n_r + n_nr
    return design_from_matrices(np.zeros((first - 1, n_units)), st1, dtr, stage1_mode, pi1_literal)


# --- the closed-form regime algebra the package used to ship: the oracle for
# ``moments.regime_moments`` on designs whose arms have one responder option


def regime_mean(mu_r: float, mu_nr: float, gamma: float) -> float:
    """gamma * mu_R + (1 - gamma) * mu_NR."""
    return gamma * mu_r + (1.0 - gamma) * mu_nr


def regime_variance(
    mu_r: float,
    sigma2_r: float,
    mu_nr: float,
    sigma2_nr: float,
    gamma: float,
    pi1: float,
    pi2_r: float,
    pi2_nr: float,
) -> float:
    """N x Var of the IPW regime mean estimator."""
    for name, p in (("pi1", pi1), ("pi2_r", pi2_r), ("pi2_nr", pi2_nr)):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"{name} must be in (0,1], got {p}")
    w_r = pi1 * pi2_r
    w_nr = pi1 * pi2_nr
    return (
        gamma / w_r * (sigma2_r + (1.0 - w_r) * mu_r**2)
        + (1.0 - gamma) / w_nr * (sigma2_nr + (1.0 - w_nr) * mu_nr**2)
        + gamma * (1.0 - gamma) * (mu_r - mu_nr) ** 2
    )


def regime_covariance(
    mu1_r: float,
    sigma2_1r: float,
    mu1_nr: float,
    mu2_r: float,
    mu2_nr: float,
    gamma1: float,
    gamma2: float,
    pi1: float,
    pi2_r: float,
    shared_responder: bool,
) -> float:
    """N x Cov of two IPW regime mean estimators.

    ``shared_responder`` means the regimes share the initial arm and the
    responder path (so responders are consistent with both); the moments of
    the shared responder path enter through the regime-1 arguments and
    gamma1 must equal gamma2.  Without sharing, only the negative
    cross-product terms remain.
    """
    cov = -(
        gamma1 * gamma2 * mu1_r * mu2_r
        + gamma1 * (1.0 - gamma2) * mu1_r * mu2_nr
        + gamma2 * (1.0 - gamma1) * mu1_nr * mu2_r
        + (1.0 - gamma1) * (1.0 - gamma2) * mu1_nr * mu2_nr
    )
    if shared_responder:
        if gamma1 != gamma2:
            raise ValueError("regimes sharing an initial treatment must share its response rate")
        if not 0.0 < pi1 * pi2_r <= 1.0:
            raise ValueError("pi1 * pi2_r must be in (0,1]")
        cov += gamma1 / (pi1 * pi2_r) * (sigma2_1r + mu1_r**2)
    return cov


def regime_pair_is_shared(design, r1, r2) -> bool:
    """Shared initial treatment; asserts the responder path is then identical."""
    if r1.arm != r2.arm:
        return False
    if r1.responder_path != r2.responder_path:
        raise ValueError(
            f"regimes {r1.index + 1} and {r2.index + 1} share arm {r1.arm + 1} but have "
            "different responder paths; the shared-arm covariance assumes a common one"
        )
    return True


def regime_pieces(design, regime, pm):
    """(gamma, pi1, pi2_r, pi2_nr, PathMoments_R, PathMoments_NR) for one regime."""
    from smartp.design import stage1_probs, stage2_prob

    gamma = design.arms[regime.arm].response_rate
    pi1 = float(stage1_probs(design)[regime.arm])
    pi2_r = stage2_prob(design, regime.responder_path)
    pi2_nr = stage2_prob(design, regime.nonresp_path)
    return gamma, pi1, pi2_r, pi2_nr, pm[regime.responder_path], pm[regime.nonresp_path]


def closed_form_regime_moments(design, regime_ids, mu, sigma2):
    """(means, N x covariance) of one regime or a pair from the closed forms above, assembled
    as the package's ``compute_effect`` used to."""
    from smartp import PathMoments

    pm = {p: PathMoments(p, float(m), float(s), 1) for p, (m, s) in enumerate(zip(mu, sigma2))}
    pieces = [regime_pieces(design, design.regimes[r], pm) for r in regime_ids]
    means = [regime_mean(mr.mu, mnr.mu, g) for g, _, _, _, mr, mnr in pieces]
    ncov = np.diag([
        regime_variance(mr.mu, mr.sigma2, mnr.mu, mnr.sigma2, g, pi1, p2r, p2nr)
        for g, pi1, p2r, p2nr, mr, mnr in pieces
    ])
    if len(regime_ids) == 2:
        (g1, pi1, p2r, _, m1r, m1nr), (g2, _, _, _, m2r, m2nr) = pieces
        shared = regime_pair_is_shared(design, *(design.regimes[r] for r in regime_ids))
        ncov[0, 1] = ncov[1, 0] = regime_covariance(
            m1r.mu, m1r.sigma2, m1nr.mu, m2r.mu, m2nr.mu, g1, g2, pi1, p2r, shared
        )
    return np.array(means), ncov


@st.composite
def designs(draw):
    """Random valid designs: 1-3 arms, 1-3 responder and 1-4 non-responder options, shuffled
    path ids, two sub-units with finite means."""
    from smartp import design_from_matrices

    n_arms = draw(st.integers(1, 3))
    st1 = [
        [draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.floats(0.0, 1.0))]
        for _ in range(n_arms)
    ]
    n_paths = sum(r + nr for r, nr, _ in st1)
    ids = iter(draw(st.permutations(range(1, n_paths + 1))))
    pairs = []  # (responder path, non-responder path, arm), 1-based
    for a, (n_r, n_nr, _) in enumerate(st1):
        resp, nonresp = [next(ids) for _ in range(n_r)], [next(ids) for _ in range(n_nr)]
        pairs += [(r, nr, a + 1) for r in resp for nr in nonresp]
    dtr = [[i + 1, *pair] for i, pair in enumerate(pairs)]
    mu = [[draw(st.floats(-10.0, 10.0)) for _ in range(2)] for _ in range(n_paths)]
    return design_from_matrices(mu, st1, dtr)


def design_matrices(design):
    """The (mu, st1, dtr) matrix triple of a design, 1-based ids as ``design_from_matrices`` reads."""
    mu = np.array([p.mu for p in design.paths])
    st1 = [[a.n_resp_options, a.n_nonresp_options, a.response_rate] for a in design.arms]
    dtr = [[r.index + 1, r.responder_path + 1, r.nonresp_path + 1, r.arm + 1]
           for r in design.regimes]
    return mu, st1, dtr
