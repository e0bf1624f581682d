import math
import re

import numpy as np
import pytest
from scipy import stats

from smartp import (
    SkewTParams,
    UndefinedMomentError,
    sample_st,
    st_mean,
    st_variance,
)
from helpers import moment_band, st_kurtosis, st_skewness

INF = math.inf


def test_mean_trivials():
    assert st_mean(SkewTParams(0, 1, 0, INF)) == 0.0
    # kappa = 1/sqrt(2), mean = sqrt(2/pi)/sqrt(2) = sqrt(1/pi)
    assert st_mean(SkewTParams(0, 1, 1, INF)) == pytest.approx(math.sqrt(1 / math.pi), abs=1e-12)
    assert st_mean(SkewTParams(3.5, 2, 0, 7)) == 3.5


def test_variance_trivials():
    assert st_variance(SkewTParams(0, 1, 0, INF)) == pytest.approx(1.0)
    assert st_variance(SkewTParams(0, 1, 0, 6)) == pytest.approx(1.5)
    assert st_variance(SkewTParams(2, 0.95, 0, INF)) == pytest.approx(0.95**2)


@pytest.mark.parametrize("scale, dof", [(1e300, INF), (1.1e154, 5.0)], ids=["square", "product"])
def test_variance_overflow_names_the_error_variance(scale, dof):
    """A variance past the largest double is a ValueError naming the error variance, whether the
    scale's square overflows (an OverflowError) or its product with dof/(dof-2) does (an inf)."""
    message = f"the error variance (sigma1, lambda, nu) at scale {scale} overflows"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        st_variance(SkewTParams(0, scale, 0, dof))
    assert type(st_variance(SkewTParams(0, 1e154, 0, INF))) is float


def test_shape_trivials():
    assert st_skewness(SkewTParams(0, 1, 0, INF)) == 0.0
    assert st_kurtosis(SkewTParams(0, 1, 0, INF)) == 0.0
    assert st_kurtosis(SkewTParams(0, 1, 0, 8)) == pytest.approx(6 / 4)


def test_moment_preconditions():
    with pytest.raises(UndefinedMomentError):
        st_mean(SkewTParams(0, 1, 1, 1.0))
    with pytest.raises(UndefinedMomentError):
        st_variance(SkewTParams(0, 1, 1, 2.0))
    with pytest.raises(UndefinedMomentError):
        st_skewness(SkewTParams(0, 1, 1, 3.0))
    with pytest.raises(UndefinedMomentError):
        st_kurtosis(SkewTParams(0, 1, 1, 4.0))
    with pytest.raises(ValueError):
        SkewTParams(0, -1, 0, INF)
    with pytest.raises(ValueError):
        SkewTParams(0, 1, 0, 0.0)


@pytest.mark.parametrize(
    "lam,nu",
    [(10.0, 6.0), (2.0, 8.0), (10.0, INF), (2.0, 10.0)],
)
def test_mc_oracle_moments(lam, nu):
    """Analytic moments agree with a large Monte Carlo sample."""
    p = SkewTParams(0.0, 0.95, lam, nu)
    rng = np.random.default_rng(1234)
    x = sample_st(p, 400_000, rng)
    for stat, truth in [
        ("mean", st_mean(p)),
        ("var", st_variance(p)),
        ("skew", st_skewness(p)),
        ("kurt", st_kurtosis(p)),
    ]:
        est, se, k = moment_band(x, stat)
        assert abs(est - truth) <= k * se, f"{stat}: est {est} vs {truth} (se {se})"


def test_gaussian_reduction_ks():
    p = SkewTParams(0.0, 0.95, 0.0, INF)
    rng = np.random.default_rng(7)
    x = sample_st(p, 100_000, rng)
    d = stats.kstest(x, "norm", args=(0.0, 0.95)).statistic
    assert d < 0.006


def test_sample_mean_matches_analytic():
    p = SkewTParams(0.0, 1.0, 2.0, INF)
    rng = np.random.default_rng(99)
    x = sample_st(p, 200_000, rng)
    se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - st_mean(p)) <= 3 * se


def test_heavy_skew_signs():
    p = SkewTParams(0.0, 1.0, 10.0, 6.0)
    rng = np.random.default_rng(5)
    x = sample_st(p, 1_000_000, rng)
    assert stats.skew(x) > 0
    assert stats.kurtosis(x) > 0  # excess over the Gaussian


def test_mean_sign_follows_skew():
    for lam in (-8.0, -1.0, -1e-3, 1e-3, 1.0, 8.0):
        assert math.copysign(1, st_mean(SkewTParams(0, 1, lam, 12))) == math.copysign(1, lam)
        assert math.copysign(1, st_mean(SkewTParams(0, 1, lam, INF))) == math.copysign(1, lam)


def test_continuity_at_infinite_dof():
    for lam in (0.0, 2.0, 10.0):
        near = SkewTParams(0, 0.95, lam, 1e6)
        limit = SkewTParams(0, 0.95, lam, INF)
        assert st_mean(near) == pytest.approx(st_mean(limit), rel=1e-3)
        assert st_variance(near) == pytest.approx(st_variance(limit), rel=1e-3)


def test_sampler_deterministic():
    p = SkewTParams(0.0, 0.95, 2.0, 6.0)
    a = sample_st(p, 1000, np.random.default_rng(42))
    b = sample_st(p, 1000, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_zero_skew_draws_no_z0_block():
    """At skew 0 the variate is location + scale * Z1 (/ sqrt(V)), Z1 the first block drawn."""
    n = 1000
    twin = np.random.default_rng(7)
    z1 = twin.standard_normal(n)
    got = sample_st(SkewTParams(1.5, 0.95, 0.0, INF), n, np.random.default_rng(7))
    assert np.array_equal(got, 1.5 + 0.95 * z1)
    v = twin.standard_gamma(3.0, n) * (2.0 / 6.0)
    rng = np.random.default_rng(7)
    got_t = sample_st(SkewTParams(1.5, 0.95, 0.0, 6.0), n, rng)
    assert np.array_equal(got_t, 1.5 + 0.95 * z1 / np.sqrt(v))
    assert rng.random() == twin.random()  # both generators consumed the same draws


def test_sampler_rejects_empty():
    with pytest.raises(ValueError):
        sample_st(SkewTParams(), 0, np.random.default_rng(0))
