import itertools
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from smartp import (
    DegenerateMissingnessError,
    MissingnessParams,
    OutcomeModel,
    SkewTParams,
    Stage1Mode,
    car_covariance,
    compute_effect,
    default_car_model,
    design_from_matrices,
    estimate_path_moments,
    ipw_path_weights,
    periodontitis_default,
    regime_moments,
    sample_st,
    simulate_trial,
    solve_missingness,
    st_mean,
    st_variance,
    stage1_probs,
)
from smartp._backend import ybar_and_count
from smartp import moments
from smartp.rngs import CHUNK, MOMENTS, substream
from smartp.moments import _index_sweep, _merge, _simulate_ybar
from smartp.simtrial import TRIAL_ROWS, _simulate_clusters
from conftest import GOLDEN_C, GOLDEN_P, make_design, make_model
from helpers import (
    block_jackknife_se,
    blocked_trial_reference,
    brute_force_ybar,
    closed_form_regime_moments,
    fd_se,
    paired_z_reference,
    qe0_model_moments,
    reference_model_moments,
    simulate_z_reference,
    smart_design,
    st_kurtosis,
    welford_reference,
    ybar_loop_reference,
)

INF = math.inf


def sweep_rows(model, n, rng):
    """``_index_sweep``'s rows scattered by position: (z, integer k, redraws); a position the
    sweep never yields stays NaN."""
    z, k, n_redrawn = np.full((n, model.sigma.dim + 1), np.nan), np.zeros(n, dtype=np.intp), 0
    for pos, rows, kb, n_left in _index_sweep(model, n, rng):
        z[pos], k[pos] = rows, kb
        n_redrawn += n_left
    return z, k, n_redrawn


def reference_ybar(model, mu_vec, num, seed):
    """Independent sampler of the cluster mean: legacy MT19937 generator, plain vectorized numpy.

    Clusters with every sub-unit missing are dropped, which conditions on k > 0 as redraws do.
    """
    rs = np.random.RandomState(seed)
    t_dim = model.sigma.dim
    chol = model.sigma.chol
    kap = model.st.kappa
    vals = []
    for start in range(0, num, 50_000):
        m = min(50_000, num - start)
        q = rs.standard_normal((m, t_dim)) @ chol.T
        e0 = rs.standard_normal((m, t_dim))
        z0 = rs.standard_normal((m, t_dim))
        z1 = rs.standard_normal((m, t_dim))
        x = kap * np.abs(z0) + math.sqrt(1 - kap**2) * z1
        if math.isinf(model.st.dof):
            e1 = model.st.scale * x
        else:
            v = rs.standard_gamma(model.st.dof / 2, (m, t_dim)) * 2 / model.st.dof
            e1 = model.st.scale * x / np.sqrt(v)
        mp = model.mp
        avail = (mp.intercept + mp.loading * q + mp.sigma0 * e0) <= mp.cutoff
        n_avail = avail.sum(axis=1)
        keep = n_avail > 0
        ybar = ((mu_vec + q + e1) * avail).sum(axis=1)[keep] / n_avail[keep]
        vals.append(ybar)
    return np.concatenate(vals)


def pair_se(var, n):
    """Large-sample SE of a normal sample variance over n rows drawn in n/2 mirrored pairs,
    counting each pair as one row: it bounds the SE of the moments pass, whose pair-mates can
    carry the same r^2 (at full availability r is odd in zeta).  The iid formula over n rows
    is sqrt(2) smaller, so "4 iid SE" was about 2.8 of these."""
    return var * math.sqrt(2 / (n / 2 - 1))


def test_iid_limit():
    """No missingness and vanishing spatial effect: ybar is a plain mean of errors.  At b0 = 0
    r is 0, so the pass has no Monte Carlo error here; its sigma2 is the closed form times
    n / (n - 1), 0.001 pair-aware SE off."""
    model = OutcomeModel(
        default_car_model(tau=1e-6),
        SkewTParams(0.0, 0.95, 0.0, INF),
        MissingnessParams(-30.0, 0.0),
    )
    pm = estimate_path_moments(model, 200_000, seed=3).for_path(np.zeros(28))
    want_var = 0.95**2 / 28
    assert abs(pm.mu) < 3 * math.sqrt(pm.sigma2 / pm.n_samples) + 1e-9
    assert abs(pm.sigma2 - want_var) < 2.8 * pair_se(want_var, pm.n_samples)
    assert pm.n_redrawn == 0


def test_determinism_and_worker_independence():
    """Bit-identical across runs and worker counts, redraw rounds included."""
    for a0 in (-1.0, 0.5):  # next to no redraws; redraws in most chunks
        model = make_model(a0=a0, b0=1.0)
        a = estimate_path_moments(model, 150_000, seed=11, workers=1)
        b = estimate_path_moments(model, 150_000, seed=11, workers=1)
        c = estimate_path_moments(model, 150_000, seed=11, workers=4)
        for other in (b, c):
            assert (other.n_samples, other.n_redrawn) == (a.n_samples, a.n_redrawn)
            assert np.array_equal(other.mean, a.mean)
            assert np.array_equal(other.m2, a.m2)
        if a0 > 0:
            assert a.n_redrawn > 0
        else:  # all-missing replicates are rare here, not impossible
            assert a.n_redrawn <= 1e-4 * a.n_samples
        d = estimate_path_moments(model, 150_000, seed=12)
        assert not np.array_equal(d.mean, a.mean)


def test_full_availability_closed_form():
    """No sub-unit is ever missing, so k = 28 and Var(ybar) = 1'Sigma 1 / 784 + st_variance / 28."""
    st = SkewTParams(0.0, 0.95, 10.0, 5.0)
    model = OutcomeModel(default_car_model(), st, MissingnessParams(-30.0, 0.0))
    pm = estimate_path_moments(model, 200_000, seed=4).for_path(np.zeros(28))
    var_q = float(model.sigma.matrix.sum()) / 28**2
    n = pm.n_samples
    assert pm.n_redrawn == 0
    # the spatial mean, Gaussian with variance var_q, is all that is left to sample; at b0 = 0
    # the pass integrates it out too (r = 0), so the gap is the n / (n - 1) factor alone
    assert abs(pm.mu - st_mean(st)) < 4 * math.sqrt(var_q / n)
    assert abs(pm.sigma2 - (var_q + st_variance(st) / 28)) < 2.8 * pair_se(var_q, n)


def test_conditional_moments_match_kernel_given_index():
    """On 6 fixed rows of the missingness index v, the trial kernel averaged over fresh
    Q | v and outcome errors has the pass's conditional moments: mean a . z + st_mean and
    variance w' Cov(Q|v) w + st_variance / k, with Cov(Q|v) from the joint (Q, v) covariance."""
    model = make_model(lam=10.0, nu=5.0, a0=0.0, b0=1.0)
    st, mp, sig, chol = model.st, model.mp, model.sigma.matrix, model.sigma.chol
    rows, batch, batches, t_dim = 6, 5_000, 4, 28
    mu_vec = np.random.default_rng(3).uniform(-1.0, 5.0, t_dim)
    # the pass's first rows and, from the same draws, their index v = L_v zeta
    z, k, _ = sweep_rows(model, rows, np.random.default_rng(5))
    sigma_v = mp.loading**2 * sig + mp.sigma0**2 * np.eye(t_dim)
    v = np.random.default_rng(5).standard_normal((rows, t_dim)) @ np.linalg.cholesky(sigma_v).T
    # Q | v by the Schur complement of the joint covariance [[S, b0 S], [b0 S, S_v]]
    cross = mp.loading * sig
    cond_mean = v @ np.linalg.solve(sigma_v, cross)
    cond_cov = sig - cross @ np.linalg.solve(sigma_v, cross)
    evals, evecs = np.linalg.eigh((cond_cov + cond_cov.T) / 2)
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))
    params = (mp.intercept, mp.loading, mp.sigma0, mp.cutoff)

    rng = np.random.default_rng(8)
    ybar = []
    for _ in range(batches):
        q = np.repeat(cond_mean, batch, axis=0) + rng.standard_normal((batch * rows, t_dim)) @ root.T
        e0 = (np.repeat(v, batch, axis=0) - mp.loading * q) / mp.sigma0
        zq = np.linalg.solve(chol, q.T).T
        e1 = sample_st(st, batch * rows * t_dim, rng).reshape(batch * rows, t_dim)
        y, k_ker = ybar_and_count(zq, e0, e1, chol, np.tile(mu_vec, (batch * rows, 1)), *params)
        assert np.array_equal(k_ker, np.repeat(k, batch))
        ybar.append(y.reshape(rows, batch))
    ybar = np.concatenate(ybar, axis=1)
    draws = ybar.shape[1]
    assert (k > 0).all() and len(set(k)) > 1

    w = z[:, :-1]
    s1 = st_variance(st)
    want_mean = z @ np.append(mu_vec, 1.0) + st_mean(st)
    want_var = np.einsum("it,ts,is->i", w, cond_cov, w) + s1 / k
    assert np.all(np.abs(ybar.mean(axis=1) - want_mean) < 4 * np.sqrt(want_var / draws))
    # Var(sample variance) = var^2 2/(n-1) + fourth cumulant / n; only the k-mean of e1 has one
    kappa4 = st_kurtosis(st) * (s1 / k) ** 2 / k
    se_var = np.sqrt(want_var**2 * 2 / (draws - 1) + kappa4 / draws)
    assert np.all(np.abs(ybar.var(axis=1, ddof=1) - want_var) < 4 * se_var)


@pytest.mark.parametrize("sparse", [False, True], ids=["worked", "skewt-sparse"])
def test_index_conditioned_pass_matches_q_draws_oracle(sparse):
    """Over 8 seeds, each path's mu and sigma2 agree with the pass that draws Q and eps0.

    The sparse model has sigma0 = 0.7, so that Cov(Q|v) = sigma0^2 K differs from K."""
    model = make_model()
    if sparse:
        st = SkewTParams(0.0, 0.95, 10.0, 5.0)
        mp = solve_missingness(0.3, 0.4, model.sigma, st, sigma0=0.7)
        model = OutcomeModel(default_car_model(), st, mp)
    paths = [np.zeros(28), np.linspace(-1.0, 5.0, 28)]
    stats = {"new": [], "oracle": []}
    for seed in range(1, 9):
        for name, mm in (("new", estimate_path_moments(model, 131_072, seed)),
                         ("oracle", qe0_model_moments(model, 131_072, seed))):
            stats[name].append([(pm.mu, pm.sigma2) for pm in map(mm.for_path, paths)])
    new, oracle = np.array(stats["new"]), np.array(stats["oracle"])
    joint_se = np.sqrt((new.var(axis=0, ddof=1) + oracle.var(axis=0, ddof=1)) / new.shape[0])
    assert np.all(np.abs(new.mean(axis=0) - oracle.mean(axis=0)) < 4 * joint_se)


def test_vectorized_kernel_matches_loop_oracle(normal_model):
    rng = np.random.default_rng(17)
    n, t_dim = 4000, 28
    zq = rng.standard_normal((n, t_dim))
    e0 = rng.standard_normal((n, t_dim))
    e1 = sample_st(SkewTParams(0.0, 0.95, 2.0, 8.0), n * t_dim, rng).reshape(n, t_dim)
    mu = rng.uniform(-1.0, 5.0, (n, t_dim))
    for a0 in (-1.0, 1.5):  # mostly available; about one cluster in ten all-missing
        args = (zq, e0, e1, normal_model.sigma.chol, mu, a0, 0.5, 1.0, 0.0)
        got, n_avail = ybar_and_count(*args)
        want, want_n = ybar_loop_reference(*args)
        assert np.array_equal(n_avail, want_n)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmax(np.abs(got - want)) <= 1e-12
    assert (n_avail == 0).any()


def test_dual_implementation_cross_check(normal_model):
    """Informative missingness biases the path mean; two independent samplers agree.

    Normal errors at 80% availability, and skew-t errors (lambda 10, nu 5) at 30%.
    """
    st = SkewTParams(0.0, 0.95, 10.0, 5.0)
    mp = solve_missingness(0.3, 0.4, normal_model.sigma, st)
    sparse = OutcomeModel(default_car_model(), st, mp)
    for model in (normal_model, sparse):
        pm = estimate_path_moments(model, 300_000, seed=21).for_path(np.full(28, 2.0))
        y = reference_ybar(model, 2.0, 300_000, seed=987)
        joint_se = math.sqrt(pm.sigma2 / pm.n_samples + y.var(ddof=1) / y.size)
        assert abs(pm.mu - y.mean()) < 4 * joint_se
        var_se = block_jackknife_se(y, lambda v: np.var(v, ddof=1))
        # 2.8 joint SE, the pass's side pair-aware (the former 4 iid SE was 3.2-3.4 of these)
        var_tol = 2.8 * math.hypot(var_se, pair_se(pm.sigma2, pm.n_samples))
        assert abs(pm.sigma2 - y.var(ddof=1)) < var_tol
        # the bias term is clearly negative: availability favours low spatial effects
        assert pm.mu < 2.0 + st_mean(model.st) - 0.1


def _observed_ybar(kernel, model, mu_vec, n, seed):
    """``kernel``'s cluster outcomes and counts over n rows of one path, all-missing rows (the
    brute-force kernel's; the trial kernel redraws them) dropped."""
    path = np.zeros(n, dtype=np.intp)
    ybar, k = kernel(model, mu_vec[None, :], path, np.random.default_rng(seed))[:2]
    return ybar[k > 0], k[k > 0]


def _var_se(x):
    """Large-sample SE of the sample variance: sqrt((m4 - var^2) / n)."""
    d = x - x.mean()
    return math.sqrt((np.mean(d**4) - np.mean(d**2) ** 2) / x.size)


@pytest.mark.parametrize("lam, nu, sparse", [(0.0, INF, False), (0.0, INF, True), (10.0, 5.0, True)],
                         ids=["worked", "normal-sparse", "skewt-sparse"])
def test_conditional_trial_kernel_matches_brute_force(lam, nu, sparse):
    """The trial kernel, which draws w . Q | v (and normal errors) as one normal, against the
    kernel that draws every tooth: mean, variance and mean k within 4 joint SE, and the same
    distribution (KS).  The sparse cases have sigma0 = 0.7, so Cov(Q|v) differs from K, and
    redraws."""
    st = SkewTParams(0.0, 0.95, lam, nu)
    sigma = car_covariance(default_car_model())
    mp = (solve_missingness(0.3, 0.4, sigma, st, sigma0=0.7) if sparse
          else solve_missingness(GOLDEN_P, GOLDEN_C, sigma, st))
    model = OutcomeModel(default_car_model(), st, mp)
    mu_vec = np.linspace(-1.0, 5.0, 28)
    new, k_new = _observed_ybar(_simulate_ybar, model, mu_vec, 250_000, 31)
    old, k_old = _observed_ybar(brute_force_ybar, model, mu_vec, 250_000, 32)
    assert abs(new.mean() - old.mean()) < 4 * math.sqrt(new.var() / new.size + old.var() / old.size)
    assert abs(new.var() - old.var()) < 4 * math.hypot(_var_se(new), _var_se(old))
    assert abs(k_new.mean() - k_old.mean()) < 4 * math.sqrt(
        k_new.var() / k_new.size + k_old.var() / k_old.size
    )
    assert sps.ks_2samp(new, old).pvalue > 0.001


@pytest.mark.parametrize("lam, nu", [(0.0, INF), (10.0, 5.0)], ids=["normal", "skewt"])
def test_trial_kernel_stream_and_law_given_the_index(lam, nu):
    """After n rows the trial kernel has drawn the n x T index normals, the index normals of
    the all-missing rows' redraws, and then n normals g, in that order; errors that are not
    normal are drawn with each block of index rows, for its rows with k >= 1.  Every row has
    k >= 1, and ybar = w . (mu + e1) + w . E[Q|v] + sd g with sd^2 = w' C w.  C is Cov(Q|v)
    from the Schur complement of the joint (Q, v) covariance, plus sigma1^2 I for normal
    errors, which join the one normal instead."""
    st = SkewTParams(0.0, 0.95, lam, nu)
    model = OutcomeModel(default_car_model(), st,
                         solve_missingness(0.3, 0.4, car_covariance(default_car_model()), st,
                                           sigma0=0.7))
    mp, sig, n, t_dim = model.mp, model.sigma.matrix, 5_000, 28
    path_mu = np.random.default_rng(3).uniform(-1.0, 5.0, (10, t_dim))
    path = np.random.default_rng(4).integers(0, 10, n)
    rng = np.random.default_rng(71)
    ybar, k, n_redrawn = _simulate_ybar(model, path_mu, path, rng)

    ref = np.random.default_rng(71)
    normal = st.skew == 0.0 and st.is_normal_limit
    if normal:
        (z, want_k, want_redrawn), e1 = simulate_z_reference(model, n, ref), 0.0
    else:
        z, want_k, want_redrawn, e1 = blocked_trial_reference(model, n, ref, moments.BLOCK)
    g = ref.standard_normal(n)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(k, want_k) and (k >= 1).all()
    assert n_redrawn == want_redrawn > 0

    sigma_v = mp.loading**2 * sig + mp.sigma0**2 * np.eye(t_dim)
    cross = mp.loading * sig
    cond_cov = sig - cross @ np.linalg.solve(sigma_v, cross)
    if normal:
        cond_cov += st.scale**2 * np.eye(t_dim)
    w = z[:, :-1]
    sd = np.sqrt(np.einsum("it,ts,is->i", w, cond_cov, w))
    want = np.einsum("it,it->i", w, path_mu[path] + e1) + z[:, -1] + sd * g
    np.testing.assert_allclose(ybar, want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("a0, block, n", [(-1.0, 7, 2000), (2.0, 7, 2000), (1.5, 1024, 20_000)])
def test_streamed_trial_kernel_matches_the_whole_chunk_draw(monkeypatch, a0, block, n):
    """With normal errors the trial kernel, which keeps each block's conditional mean and
    variance, against the whole-chunk arithmetic on ``simulate_z_reference``'s rows: ybar
    ``w . mu + r + sqrt(w' C w) g`` within 1e-12 of the largest |ybar|, the same counts and
    redraws, and the generator left in the same state.  At a0 = 2.0 with blocks of 7 rows, the redraw rounds yield one-row
    blocks and all-missing ones."""
    model = make_model(a0=a0)
    monkeypatch.setattr(moments, "REDRAW_SLACK", 10_000)
    monkeypatch.setattr(moments, "BLOCK", block)
    sizes, sweep = [], moments._index_sweep

    def recording(*args):
        for out in sweep(*args):
            sizes.append(out[0].size)
            yield out

    monkeypatch.setattr(moments, "_index_sweep", recording)
    path_mu = np.random.default_rng(3).uniform(-1.0, 5.0, (10, 28))
    path = np.random.default_rng(4).integers(0, 10, n)
    rng, ref = np.random.default_rng(81), np.random.default_rng(81)
    ybar, k, n_redrawn = _simulate_ybar(model, path_mu, path, rng)
    z, want_k, want_redrawn = simulate_z_reference(model, n, ref)
    w = z[:, :-1]
    sd = np.sqrt(np.einsum("it,it->i", w @ model.cond_cov, w))
    want = np.einsum("it,it->i", w, path_mu[path]) + z[:, -1] + sd * ref.standard_normal(n)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(k, want_k) and n_redrawn == want_redrawn
    assert np.max(np.abs(ybar - want)) <= 1e-12 * np.max(np.abs(want))
    assert (1 in sizes and 0 in sizes) == (a0 == 2.0)


@pytest.mark.parametrize("a0", [-1.0, 1.5])
def test_index_rows_match_masked_sum_reference(monkeypatch, a0):
    """The sweep's rows, scattered by position, against the masked-sum reference and its redraw
    loop on the same draws, for blocks of 7, 1024 and more than n rows, at n = 2 BLOCK + 3,
    16351 (a trial chunk) and 20000: every position filled with k >= 1, the same integer counts
    and redraws, rows within 1e-12, and the generator left in the same state.  The rows are also
    bit for bit those of one block.  The last block of a round takes a trailing single row with
    it (n = 2 BLOCK + 1): numpy sends a one-row product to its matrix-vector path, which rounds
    differently from the GEMM, by 6.7e-16 in one measurement.  At a0 = 1.5 a tenth of the rows
    are all-missing, past the redraw limit, so the limit (pinned by the scripted tests below) is
    lifted here."""
    model = make_model(a0=a0)
    monkeypatch.setattr(moments, "REDRAW_SLACK", 10_000)
    cases = [(7, 17), (7, 15), (7, 16_351), (1024, 2051), (1024, 2049), (1024, 16_351),
             (1024, 20_000), (20_001, 20_000)]
    for block, n in cases:
        monkeypatch.setattr(moments, "BLOCK", block)
        rng, ref = np.random.default_rng(61), np.random.default_rng(61)
        z, k, n_redrawn = sweep_rows(model, n, rng)
        want, want_k, want_redrawn = simulate_z_reference(model, n, ref)
        assert rng.bit_generator.state == ref.bit_generator.state, (block, n)
        assert np.array_equal(k, want_k) and (k >= 1).all(), (block, n)
        assert n_redrawn == want_redrawn, (block, n)
        assert np.max(np.abs(z - want)) <= 1e-12, (block, n)
        monkeypatch.setattr(moments, "BLOCK", n)
        one_block, _, _ = sweep_rows(model, n, np.random.default_rng(61))
        assert one_block.tobytes() == z.tobytes(), (block, n)
    assert (n_redrawn > 0) == (a0 > 0)


def test_moments_pass_allocates_little_beyond_the_chunk_rows():
    """A four-chunk moments pass peaks, under tracemalloc, at no more than a quarter of the bytes
    of one chunk's (CHUNK, T+1) rows, on one worker and on two: each block of index rows is
    folded into the chunk's moments as it is drawn, so no array the size of a chunk exists."""
    model = make_model()
    model.cond_cov  # the cached projection is built outside the measurement
    for workers in (1, 2):
        tracemalloc.start()
        try:
            estimate_path_moments(model, 4 * CHUNK, seed=5, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * CHUNK * (model.sigma.dim + 1) * 8, workers


@pytest.mark.parametrize("n", [TRIAL_ROWS, 40_000])
@pytest.mark.parametrize("lam, nu", [(0.0, INF), (10.0, 5.0)], ids=["normal", "skewt"])
def test_trial_kernel_allocates_blocks_and_cluster_vectors(lam, nu, n):
    """One ``_simulate_clusters`` call of n rows (one trial chunk, and a rep larger than one)
    peaks, under tracemalloc, within 16 blocks of index rows plus six n-vectors: each block's
    errors, mean and variance are formed as it is drawn, so no (n, T) array exists.  The
    whole-chunk kernel this replaced peaked at 11.8 (normal) and 30.0 MB (skew-t) at n = 16384."""
    model, design = make_model(lam=lam, nu=nu), periodontitis_default()
    model.cond_cov  # the cached projection is built outside the measurement
    tracemalloc.start()
    try:
        _simulate_clusters(design, model, n, np.random.default_rng(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    t_dim = model.sigma.dim
    bound = 16 * moments.BLOCK * (t_dim + 1) * 8 + 6 * n * 8
    assert peak <= bound < peak + n * t_dim * 8  # one (n, T) array more would break the bound


@pytest.mark.parametrize("a0, block, size", [(-1.0, 7, 5000), (1.5, 7, 400), (2.0, 2, 60)])
def test_streamed_chunk_moments_match_the_whole_chunk_scatter(monkeypatch, a0, block, size):
    """The block-by-block chunk moments against the scatter of the whole z that
    ``paired_z_reference`` draws from the same substream, in mirrored pairs within blocks of
    the same size: the same count and redraws, mean and scatter within 1e-12 relative.  At
    a0 = 1.5 a tenth of the rows are all-missing; at a0 = 2.0 with blocks of 2 rows (one pair)
    whole blocks are, and are merged as none."""
    model = make_model(a0=a0)
    monkeypatch.setattr(moments, "BLOCK", block)
    sizes, sweep = [], moments._index_sweep

    def recording(*args, **kwargs):
        for out in sweep(*args, **kwargs):
            sizes.append(out[0].size)
            yield out

    monkeypatch.setattr(moments, "_index_sweep", recording)
    n, mean, m2, n_redrawn = moments._chunk_moments(model, 9, 1, size)
    z, _, want_redrawn = paired_z_reference(model, size, substream(9, MOMENTS, 1), block)
    want_mean = z.mean(axis=0)
    want_m2 = (z - want_mean).T @ (z - want_mean)
    assert n == size and n_redrawn == want_redrawn
    assert np.max(np.abs(mean - want_mean)) <= 1e-12 * np.max(np.abs(want_mean))
    assert np.max(np.abs(m2 - want_m2)) <= 1e-12 * np.max(np.abs(want_m2))
    assert (n_redrawn > 0) == (a0 > 0)
    assert (0 in sizes) == (block == 2)


@pytest.mark.parametrize("lam, nu, a0", [(0.0, INF, -1.0), (10.0, 5.0, 0.8)])
def test_multi_chunk_moments_match_the_reference_finish(monkeypatch, lam, nu, a0):
    """A pass of four chunks (the last one short), each on its own substream, against the
    scatter of their ``paired_z_reference`` rows stacked, finished row by row: r's scatter
    gains ``sum_i w_i' Cov(Q + e1 | v) w_i`` and its mean ``st_mean``.  The pass adds both once,
    after the merge; the count, redraws, mean and scatter agree within 1e-12 relative."""
    model = make_model(lam=lam, nu=nu, a0=a0)
    monkeypatch.setattr(moments, "CHUNK", 500)
    with pytest.warns(UserWarning, match="num=1700 is small"):
        got = estimate_path_moments(model, 1700, seed=9)
    want = reference_model_moments(model, 1700, seed=9)
    assert got.n_samples == 1700 and got.n_redrawn == want.n_redrawn
    assert (got.n_redrawn > 0) == (a0 > 0) and (st_mean(model.st) != 0) == (lam != 0)
    assert np.max(np.abs(got.mean - want.mean)) <= 1e-12 * np.max(np.abs(want.mean))
    assert np.max(np.abs(got.m2 - want.m2)) <= 1e-12 * np.max(np.abs(want.m2))


class ReplayedNormals:
    """Stands in for the generator: ``standard_normal(out=...)`` fills ``out`` with the next
    rows of ``values``."""

    def __init__(self, values):
        self.values, self.at = values, 0

    def standard_normal(self, out):
        out[:] = self.values[self.at:self.at + out.shape[0]]
        self.at += out.shape[0]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 2049, 2050, 4000])
def test_paired_rows_are_those_of_the_negated_normals(n):
    """The paired sweep draws ceil(m/2) rows of normals for a block of m, and its rows are bit
    for bit those of the unpaired sweep given ``[zeta, -zeta[:m // 2]]`` block by block: the
    negated product is the product of the negated normals.  n = 2 and n = 2050 end in a block
    of one pair, which the sweep projects as two rows, not as a matrix-vector product (that
    one rounds otherwise)."""
    model = make_model()
    blocks, left, rng = [], n, np.random.default_rng(n)
    while left:  # the sweep's blocks: the last one takes up to BLOCK + 1 rows
        blocks.append(left if left <= moments.BLOCK + 1 else moments.BLOCK)
        left -= blocks[-1]
    halves = [rng.standard_normal(((m + 1) // 2, 28)) for m in blocks]
    mirrored = np.vstack([np.vstack([h, -h[:m // 2]]) for h, m in zip(halves, blocks)])
    paired_rng = ReplayedNormals(np.vstack(halves))
    paired = list(_index_sweep(model, n, paired_rng, paired=True))
    plain = list(_index_sweep(model, n, ReplayedNormals(mirrored), paired=False))
    assert paired_rng.at == sum(h.shape[0] for h in halves)
    assert [p[3] for p in paired] == [p[3] for p in plain] == [0] * len(blocks)
    for (pos, rows, kb, _), (want_pos, want_rows, want_kb, _) in zip(paired, plain):
        assert np.array_equal(pos, want_pos) and np.array_equal(kb, want_kb)
        assert rows.tobytes() == want_rows.tobytes()


class ScriptedNormals:
    """Stands in for the generator: ``standard_normal(out=...)`` fills one value a row from
    ``values`` (the last one from then on) and records how many rows each call asks for."""

    def __init__(self, values):
        self.values, self.asked = list(values), []

    def standard_normal(self, out):
        self.asked.append(out.shape[0])
        for row in out:
            row[:] = self.values.pop(0) if len(self.values) > 1 else self.values[0]


#: one sub-unit with v = E[Q|v] = zeta: a row is available (k = 1, z = [1, zeta]) at zeta <= 0
ONE_UNIT = SimpleNamespace(
    mp=SimpleNamespace(cutoff=0.0, intercept=0.0),
    index_projection=(np.ones((1, 2)), None),
    sigma=SimpleNamespace(dim=1),
)


def test_index_sweep_redraws_only_the_empty_rows():
    """Rows 2 and 4 are empty; their redraw leaves row 2 empty once more.  Each round yields
    the filled positions and leaves the empty ones out, and the next round draws only those."""
    rng = ScriptedNormals([-1, -2, 3, -4, 5, 6, -7, -8])
    out = [(pos.tolist(), rows.tolist(), kb.tolist(), n_left)
           for pos, rows, kb, n_left in _index_sweep(ONE_UNIT, 5, rng)]
    assert rng.asked == [5, 2, 1]
    assert out == [([0, 1, 3], [[1, -1], [1, -2], [1, -4]], [1, 1, 1], 2),
                   ([4], [[1, -7]], [1], 1),
                   ([2], [[1, -8]], [1], 0)]
    z, k, n_redrawn = sweep_rows(ONE_UNIT, 5, ScriptedNormals([-1, -2, 3, -4, 5, 6, -7, -8]))
    assert n_redrawn == 3 and k.tolist() == [1] * 5
    assert z.tolist() == [[1, -1], [1, -2], [1, -8], [1, -4], [1, -7]]


def test_index_sweep_without_empty_rows_draws_once():
    rng = ScriptedNormals([-1, -2])
    z, k, n_redrawn = sweep_rows(ONE_UNIT, 2, rng)
    assert rng.asked == [2] and n_redrawn == 0 and k.tolist() == [1, 1]


def test_index_sweep_refuses_the_61st_redraw_before_drawing():
    """1% of the sweep's 1000 rows plus 50 allows 60 redraws, however few rows are left over: a
    row that never fills is redrawn 60 times and refused at its 61st redraw, before that draw."""
    values = [-1.0] * 1000
    values[7] = 1.0
    rng = ScriptedNormals(values + [1.0])
    with pytest.raises(DegenerateMissingnessError, match="61 all-missing redraws for 1000 rows"):
        sweep_rows(ONE_UNIT, 1000, rng)
    assert rng.asked == [1000] + [1] * 60


def _closed_form_without_loading(model, mu_vec):
    """At b0 = 0 teeth are missing independently with p = Phi((cutoff - a0) / sigma0), so
    k ~ Bin(T, p) given k >= 1, and E[w w'] = E[1/k]/T I + E[(k-1)/k]/(T(T-1)) (11' - I).
    Then E[ybar] = mean(mu) + st_mean and Var(ybar) = mu'E[ww']mu - mean(mu)^2
    + tr((Sigma + st_variance I) E[ww']).  Returns (E[ybar], Var(ybar), P(k), k)."""
    mp, t_dim = model.mp, model.sigma.dim
    p = 0.5 * math.erfc((mp.intercept - mp.cutoff) / (mp.sigma0 * math.sqrt(2)))
    pk = np.array([math.comb(t_dim, k) * p**k * (1 - p) ** (t_dim - k) for k in range(1, t_dim + 1)])
    pk /= pk.sum()
    ks = np.arange(1, t_dim + 1)
    off = np.ones((t_dim, t_dim)) - np.eye(t_dim)
    eww = pk @ (1 / ks) / t_dim * np.eye(t_dim) + pk @ ((ks - 1) / ks) / (t_dim * (t_dim - 1)) * off
    cov = model.sigma.matrix + st_variance(model.st) * np.eye(t_dim)
    want_var = mu_vec @ eww @ mu_vec - mu_vec.mean() ** 2 + np.sum(cov * eww)
    return mu_vec.mean() + st_mean(model.st), want_var, pk, ks


@pytest.mark.parametrize("lam, nu, a0", [(0.0, INF, 1.0), (10.0, 5.0, 0.3)])
def test_conditional_trial_kernel_closed_form_without_loading(lam, nu, a0):
    """The trial kernel at b0 = 0 against ``_closed_form_without_loading``: mean, variance
    and mean k."""
    model = make_model(lam=lam, nu=nu, a0=a0, b0=0.0)
    mu_vec = np.linspace(-1.0, 5.0, 28)
    want_mean, want_var, pk, ks = _closed_form_without_loading(model, mu_vec)
    ybar, k = _observed_ybar(_simulate_ybar, model, mu_vec, 250_000, 41)
    assert abs(ybar.mean() - want_mean) < 4 * math.sqrt(want_var / ybar.size)
    assert abs(ybar.var(ddof=1) - want_var) < 4 * _var_se(ybar)
    assert abs(k.mean() - pk @ ks) < 4 * math.sqrt((pk @ ks**2 - (pk @ ks) ** 2) / k.size)


@pytest.mark.parametrize("lam, nu, a0", [(0.0, INF, 1.0), (10.0, 5.0, 0.3)])
def test_paired_pass_closed_form_without_loading(lam, nu, a0):
    """The moments pass, in mirrored pairs, at b0 = 0 (r = 0) against
    ``_closed_form_without_loading``: over 12 seeds of 65536 replicates, the seed mean of each
    path's mean and variance is within 4 SE of the closed form, the SE taken from the spread
    over the seeds (an iid SE would not hold for paired rows).  The paths are two teeth-varying
    means."""
    model = make_model(lam=lam, nu=nu, a0=a0, b0=0.0)
    paths = [np.linspace(-1.0, 5.0, 28), np.where(np.arange(28) % 3 == 0, 4.0, -0.5)]
    want = np.array([_closed_form_without_loading(model, mu_vec)[:2] for mu_vec in paths])
    got = np.array([[(pm.mu, pm.sigma2) for pm in map(mm.for_path, paths)]
                    for mm in (estimate_path_moments(model, CHUNK, seed) for seed in range(1, 13))])
    se = got.std(axis=0, ddof=1) / math.sqrt(got.shape[0])
    assert np.all(np.abs(got.mean(axis=0) - want) < 4 * se), (got.mean(axis=0) - want) / se


@pytest.mark.parametrize("sparse", [False, True], ids=["worked", "skewt-sparse"])
def test_paired_pass_is_more_precise_than_iid_rows(sparse):
    """The seed-to-seed SD of sig.e.sq over 24 seeds of 65536 replicates: the pass, in mirrored
    pairs, against ``reference_model_moments(paired=False)``, iid rows on the same substreams,
    lower by a fifth at least (SD ratios of 0.34 and 0.61 here), so that an unpaired pass,
    which equals the oracle up to rounding, fails.  On the worked example's and skewt-sparse's inputs r is nearly odd in zeta, so a pair
    cancels much of its noise, which drives sig.e.sq's mu^2 terms; 100 seeds measured variance
    ratios (iid over paired) of 12.7 and 3.2.  The pairs help no even term: a tooth-constant
    path's sigma2 had 0.44 and 0.67."""
    if sparse:
        st = SkewTParams(0.0, 0.95, 10.0, 5.0)
        model = OutcomeModel(default_car_model(), st,
                             solve_missingness(0.3, 0.4, car_covariance(default_car_model()), st))
        design, regimes = make_design({2: 0.5, 4: 2.0}), (0, 2)
    else:
        model, design, regimes = make_model(), make_design({2: 0.5, 7: 5.0}), (0, 4)
    sd = [np.std([compute_effect(design, model, regimes, CHUNK, seed, moments=moments_of(seed))
                  .sig_e_sq for seed in range(1, 25)], ddof=1)
          for moments_of in (lambda seed: estimate_path_moments(model, CHUNK, seed),
                             lambda seed: reference_model_moments(model, CHUNK, seed, paired=False))]
    assert sd[0] < 0.8 * sd[1], sd


@pytest.mark.parametrize("b0", [50.0, -200.0, 1e4])
def test_conditional_trial_kernel_finite_at_extreme_loadings(b0):
    """A huge missingness loading makes Cov(Q|v) tiny; no row gets NaN, the redrawn ones
    included."""
    model = make_model(lam=10.0, nu=5.0, b0=b0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ybar, k, n_redrawn = _simulate_ybar(model, np.ones((1, 28)), np.zeros(20_000, np.intp),
                                            np.random.default_rng(51))
    assert (k >= 1).all() and np.isfinite(ybar).all() and n_redrawn > 0


def test_welford_merge_matches_two_pass():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.0, (1000, 3))
    n, mean, m2 = 0, 0.0, 0.0
    for chunk in np.array_split(x, 7):
        cm = chunk.mean(axis=0)
        d = chunk - cm
        n, mean, m2 = _merge(n, mean, m2, chunk.shape[0], cm, d.T @ d)
    ref_mean, ref_cov = welford_reference(x)
    np.testing.assert_allclose(mean, ref_mean, rtol=1e-12)
    np.testing.assert_allclose(m2 / (n - 1), ref_cov, rtol=1e-10, atol=1e-12)


def test_estimate_warns_below_floor(normal_model):
    with pytest.warns(UserWarning, match="small"):
        estimate_path_moments(normal_model, 2_000, seed=1)


def test_degenerate_missingness_raises():
    model = make_model(a0=6.0, b0=0.0)  # availability ~ 1e-9 per tooth
    with pytest.raises(DegenerateMissingnessError):
        estimate_path_moments(model, 20_000, seed=1)


def test_se_scales_with_num(normal_model):
    small = estimate_path_moments(normal_model, 50_000, seed=8).for_path(np.zeros(28))
    big = estimate_path_moments(normal_model, 200_000, seed=8).for_path(np.zeros(28))
    ratio = math.sqrt(big.sigma2 / big.n_samples / (small.sigma2 / small.n_samples))
    assert ratio == pytest.approx(0.5, abs=0.05)


# --- IPW regime moments ------------------------------------------------------


def test_regime_mean_trivials():
    # one arm, gamma 1 then 0.5: gamma mu_R + (1 - gamma) mu_NR
    assert regime_moments(smart_design([(1, 1)], [1.0]), (0,), [5.0, 1.0], [0, 0])[0][0] == 5.0
    assert regime_moments(smart_design([(1, 1)], [0.5]), (0,), [0.0, 2.0], [0, 0])[0][0] == 1.0


def test_regime_variance_hand_examples():
    # single path, no weighting inflation: gamma 1, pi1 1, pi2_R 1
    d = smart_design([(1, 4)], [1.0])
    ncov = regime_moments(d, (0,), [0.0] + [9.9] * 4, [2.5] + [9.9] * 4)[1]
    assert ncov[0, 0] == pytest.approx(2.5)
    # worked arithmetic: gamma 0.5, pi1 0.5, pi2 1 and 0.25: 0.5/0.5 + 0.5/0.125 = 1 + 4 = 5
    d = periodontitis_default(0.5, 0.5)
    assert stage1_probs(d)[0] == 0.5
    assert regime_moments(d, (0,), np.zeros(10), np.ones(10))[1][0, 0] == pytest.approx(5.0)


def test_regime_variance_lower_bound():
    rng = np.random.default_rng(1)
    for _ in range(200):
        g = rng.uniform(0.05, 0.95, 2)
        options = [(1, int(rng.integers(1, 5))) for _ in g]
        d = smart_design(options, g, list(Stage1Mode)[rng.integers(3)], bool(rng.integers(0, 2)))
        mu, s2 = rng.normal(0, 3, len(d.paths)), rng.uniform(0, 4, len(d.paths))
        for r in d.regimes:
            v = regime_moments(d, (r.index,), mu, s2)[1][0, 0]
            gap = mu[r.responder_path] - mu[r.nonresp_path]
            assert v >= g[r.arm] * (1 - g[r.arm]) * gap**2 - 1e-12


def test_regime_covariance_trivials():
    # distinct arms, all means zero: every term carries a mean factor
    d = periodontitis_default(0.3, 0.6)
    assert regime_moments(d, (0, 4), np.zeros(10), np.full(10, 3.0))[1][0, 1] == 0.0
    # shared responders only: gamma=1, unit weights -> sigma2_R
    d = smart_design([(1, 2)], [1.0])
    assert regime_moments(d, (0, 1), [1.5, 0, 0], [2.0, 1, 1])[1][0, 1] == pytest.approx(2.0)


def test_pair_variance_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(200):
        options = [(int(rng.integers(1, 3)), int(rng.integers(1, 5))) for _ in range(2)]
        d = smart_design(options, rng.uniform(0.05, 0.95, 2), list(Stage1Mode)[rng.integers(3)])
        mu, s2 = rng.normal(0, 2, len(d.paths)), rng.uniform(0.1, 3, len(d.paths))
        r, s = rng.choice(len(d.regimes), 2, replace=False)
        ncov = regime_moments(d, (r, s), mu, s2)[1]
        assert ncov[0, 0] + ncov[1, 1] - 2 * ncov[0, 1] > -1e-10


FINITE = dict(allow_nan=False, allow_infinity=False)


def _check_regime_moments_match_closed_forms(d, mu, s2):
    """One formula reproduces the per-case closed forms for every regime and ordered pair.

    The tolerance is relative to each regime's root second moment
    ``hypot(mean_r, sqrt(ncov_rr))``, the size of the terms both sides sum (a variance can
    cancel to near zero), plus the smallest normal float, since near 1e-300 that size
    underflows while the two sides still differ by a subnormal.
    """
    tiny = np.finfo(float).tiny
    scale = {}
    for r in range(len(d.regimes)):
        means, ncov = regime_moments(d, (r,), mu, s2)
        want_means, want_ncov = closed_form_regime_moments(d, (r,), mu, s2)
        scale[r] = math.hypot(means[0], math.sqrt(max(ncov[0, 0], 0.0)))
        assert abs(means[0] - want_means[0]) <= 1e-12 * scale[r] + tiny
        assert abs(ncov[0, 0] - want_ncov[0, 0]) <= 1e-12 * scale[r] ** 2 + tiny
    for r, s in itertools.permutations(range(len(d.regimes)), 2):
        means, ncov = regime_moments(d, (r, s), mu, s2)
        want_means, want_ncov = closed_form_regime_moments(d, (r, s), mu, s2)
        pair = np.array([scale[r], scale[s]])
        assert np.all(np.abs(means - want_means) <= 1e-12 * pair + tiny)
        assert np.all(np.abs(ncov - want_ncov) <= 1e-12 * np.outer(pair, pair) + tiny)


@settings(max_examples=60, deadline=None)
@given(
    n_nonresp=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    data=st.data(),
    mode=st.sampled_from(list(Stage1Mode)),
    literal=st.booleans(),
)
def test_regime_moments_match_closed_forms(n_nonresp, data, mode, literal):
    gammas = data.draw(st.lists(st.floats(0, 1, **FINITE), min_size=len(n_nonresp),
                                max_size=len(n_nonresp)))
    d = smart_design([(1, k) for k in n_nonresp], gammas, mode, literal)
    n_paths = len(d.paths)
    mu = np.array(data.draw(st.lists(st.floats(-10, 10, **FINITE), min_size=n_paths,
                                     max_size=n_paths)))
    s2 = np.array(data.draw(st.lists(st.floats(0, 10, **FINITE), min_size=n_paths,
                                     max_size=n_paths)))
    _check_regime_moments_match_closed_forms(d, mu, s2)


@pytest.mark.parametrize("path", [5, 6])
def test_regime_moments_match_closed_forms_near_underflow(path):
    """A mean near 1e-300 squares to 0; the formulas may still differ by a subnormal."""
    d = smart_design([(1, 1), (1, 1), (1, 2)], [0.0, 0.0, 0.375])
    mu = np.zeros(len(d.paths))
    mu[path] = 1.4021145886667312e-304
    _check_regime_moments_match_closed_forms(d, mu, np.zeros(len(d.paths)))


#: arm 1 has two responder paths (1, 2) and two non-responder paths (3, 4); regimes 1 and 2
#: share arm 1 and non-responder path 3 but not their responder path
SHARED_ARM_ST1 = [[2, 2, 0.4], [1, 1, 0.5]]
SHARED_ARM_DTR = [[1, 1, 3, 1], [2, 2, 3, 1], [3, 1, 4, 1], [4, 2, 4, 1], [5, 5, 6, 2]]


def test_shared_arm_pair_without_common_responder_matches_brute_force():
    """Regimes on one arm with different responder paths: the IPW contrast of a 1e6-cluster
    trial has the mean and N x variance ``compute_effect`` gives, within 3 joint SE."""
    t_dim, num = 4, 1_000_000
    mu = np.tile(np.array([1.0, -0.5, 0.3, 2.0, 0.0, 1.0])[:, None], (1, t_dim))
    design = design_from_matrices(mu, SHARED_ARM_ST1, SHARED_ARM_DTR)
    model = make_model(a0=-2.0, n_units=t_dim)
    mm = estimate_path_moments(model, num, seed=31)
    eff = compute_effect(design, model, (0, 1), num, seed=31, moments=mm)

    # formula side, SE propagated from the per-path moments
    pm = [eff.path_moments[p.index] for p in design.paths]
    n = len(pm)
    vals = [m.mu for m in pm] + [m.sigma2 for m in pm]
    ses = [math.sqrt(m.sigma2 / m.n_samples) for m in pm] + [
        m.sigma2 * math.sqrt(2 / (m.n_samples - 1)) for m in pm
    ]

    def delta(v):
        means, _ = regime_moments(design, (0, 1), v[:n], v[n:])
        return means[0] - means[1]

    def n_var(v):
        _, ncov = regime_moments(design, (0, 1), v[:n], v[n:])
        return ncov[0, 0] + ncov[1, 1] - 2 * ncov[0, 1]

    assert delta(vals) == pytest.approx(eff.delta_signed, rel=1e-12)
    assert n_var(vals) == pytest.approx(eff.sig_e_sq, rel=1e-12)

    ds = simulate_trial(design, model, num, seed=32)
    x = (ipw_path_weights(design, design.regimes[0]) - ipw_path_weights(design, design.regimes[1]))
    x = x[ds.path] * ds.ybar
    for name, brute, stat, formula, fn in (
        ("mean", float(np.mean(x)), np.mean, eff.delta_signed, delta),
        ("N x Var", float(np.var(x, ddof=1)), lambda v: np.var(v, ddof=1), eff.sig_e_sq, n_var),
    ):
        tol = 3 * math.hypot(block_jackknife_se(x, stat), fd_se(fn, vals, ses))
        assert abs(brute - formula) <= tol, (name, brute, formula, tol)
