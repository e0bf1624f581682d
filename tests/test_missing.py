import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from smartp import (
    InfeasibleTargetError,
    MissingnessParams,
    SkewTParams,
    corr_y_m,
    max_corr,
    normal_cdf,
    normal_quantile,
    prob_available,
    sample_st,
    solve_missingness,
    st_variance,
)
from smartp import missing
from conftest import GOLDEN_C, GOLDEN_P
from helpers import sample_mvn

INF = math.inf
NORMAL_ST = SkewTParams(0.0, 0.95, 0.0, INF)


def test_normal_cdf_quantile_values():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-12)
    assert normal_cdf(-1.0) == pytest.approx(0.15865525393145707, abs=1e-12)
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert normal_quantile(0.2) == pytest.approx(-0.8416212335729143, abs=1e-9)


def test_quantile_round_trip():
    for u in (1e-8, 0.3, 0.5, 0.7, 0.975, 1 - 1e-8):
        assert normal_cdf(normal_quantile(u)) == pytest.approx(u, abs=1e-10)
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)


def test_golden_pair(default_cov, default_mp):
    assert prob_available(default_mp, default_cov) == pytest.approx(GOLDEN_P, abs=1e-4)
    assert corr_y_m(default_mp, default_cov, NORMAL_ST) == pytest.approx(GOLDEN_C, abs=1e-4)


def test_heavy_skew_corr_golden(default_cov, default_mp):
    """At lambda=10, nu=6 the error variance shrinks, pushing the correlation to ~0.44."""
    st = SkewTParams(0.0, 0.95, 10.0, 6.0)
    c = corr_y_m(default_mp, default_cov, st)
    assert st_variance(st) < st_variance(NORMAL_ST)
    assert c == pytest.approx(0.44, abs=0.01)
    assert c > corr_y_m(default_mp, default_cov, NORMAL_ST)


def test_corr_trivials(default_cov):
    assert corr_y_m(MissingnessParams(-1.0, 0.0), default_cov, NORMAL_ST) == 0.0
    c_pos = corr_y_m(MissingnessParams(-1.0, 0.7), default_cov, NORMAL_ST)
    c_neg = corr_y_m(MissingnessParams(-1.0, -0.7), default_cov, NORMAL_ST)
    assert c_pos == pytest.approx(-c_neg)
    assert -1.0 < c_neg < 0.0 < c_pos < 1.0


def test_corr_is_zero_at_loading_zero_whatever_sigma0(default_cov):
    """At b0 = 0 with sigma0^2 underflowing to 0, corr_y_m used to divide 0 by 0 (a numpy
    RuntimeWarning and NaN)."""
    assert corr_y_m(MissingnessParams(-1.0, 0.0, 1e-300), default_cov, NORMAL_ST) == 0.0


@pytest.mark.parametrize("sigma0, cutoff", [(1e-8, 0.3), (1e-100, 0.0), (1e3, 0.3)])
def test_solve_meets_its_targets_at_any_sigma0(default_cov, sigma0, cutoff):
    """c and p depend on b0 / sigma0 and (a0 - cutoff) / sigma0 alone, which the solve finds;
    bisecting b0 itself to 1e-13 gave c = 0.400001 at sigma0 1e-8, and the supremum of c at
    sigma0 1e-100."""
    mp = solve_missingness(0.8, 0.4, default_cov, NORMAL_ST, sigma0=sigma0, cutoff=cutoff)
    assert prob_available(mp, default_cov) == pytest.approx(0.8, abs=1e-8)
    assert corr_y_m(mp, default_cov, NORMAL_ST) == pytest.approx(0.4, abs=1e-8)
    assert mp.loading / sigma0 == pytest.approx(0.479242, abs=1e-6)


@pytest.mark.parametrize("sigma0, cutoff, message", [
    (1e-300, 0.0, "sigma0=1e-300 is too small: sigma0^2 underflows"),
    (1.0, 1e20, "the targets are lost to rounding at cutoff=1e+20, sigma0=1.0: p=0.5, c=0.4"),
], ids=["sigma0-underflows", "huge-cutoff"])
def test_solve_refuses_targets_it_cannot_meet(default_cov, sigma0, cutoff, message):
    with pytest.raises(InfeasibleTargetError) as err:
        solve_missingness(0.8, 0.4, default_cov, NORMAL_ST, sigma0=sigma0, cutoff=cutoff)
    assert str(err.value) == message


def test_prob_available_limit(default_cov):
    assert prob_available(MissingnessParams(-30.0, 0.5), default_cov) == pytest.approx(1.0)
    assert prob_available(MissingnessParams(0.0, 0.0, 1.0, 0.0), default_cov) == 0.5


def test_monotonicity(default_cov):
    ps = [prob_available(MissingnessParams(a0, 0.5), default_cov) for a0 in np.linspace(-3, 3, 13)]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    cs = [
        corr_y_m(MissingnessParams(-1.0, b0), default_cov, NORMAL_ST)
        for b0 in np.linspace(0.0, 5.0, 11)
    ]
    assert all(a < b for a, b in zip(cs, cs[1:]))


def test_solve_golden_pair(default_cov):
    mp = solve_missingness(GOLDEN_P, GOLDEN_C, default_cov, NORMAL_ST)
    assert mp.intercept == pytest.approx(-1.0, abs=1e-3)
    assert mp.loading == pytest.approx(0.5, abs=1e-3)


def test_solve_zero_corr_closed_form(default_cov):
    mp = solve_missingness(0.73, 0.0, default_cov, NORMAL_ST, sigma0=1.3, cutoff=0.4)
    assert mp.loading == 0.0
    assert mp.intercept == pytest.approx(0.4 - 1.3 * normal_quantile(0.73), abs=1e-9)


def test_solve_round_trip_random(default_cov):
    rng = np.random.default_rng(2024)
    for _ in range(100):
        a0 = rng.uniform(-2.5, 1.0)
        b0 = rng.uniform(-2.0, 2.0)
        truth = MissingnessParams(a0, b0)
        p = prob_available(truth, default_cov)
        c = corr_y_m(truth, default_cov, NORMAL_ST)
        mp = solve_missingness(p, c, default_cov, NORMAL_ST)
        assert prob_available(mp, default_cov) == pytest.approx(p, abs=1e-8)
        assert corr_y_m(mp, default_cov, NORMAL_ST) == pytest.approx(c, abs=1e-8)
        assert mp.intercept == pytest.approx(a0, abs=1e-6)
        assert mp.loading == pytest.approx(b0, abs=1e-6)


def test_solve_infeasible_target(default_cov):
    bound = max_corr(default_cov, NORMAL_ST)
    with pytest.raises(InfeasibleTargetError, match="supremum"):
        solve_missingness(0.8, bound + 0.01, default_cov, NORMAL_ST)
    with pytest.raises(InfeasibleTargetError):
        solve_missingness(1.0, 0.2, default_cov, NORMAL_ST)


def test_solve_refuses_a_target_it_cannot_bracket(default_cov, monkeypatch):
    """Both unknowns are bracketed by one widening rule.  With one bracket allowed, the loading
    of c = corr at b0 = 1.5 (outside [0, 1]) and the intercept of p = 1e-300 (near 46.5, outside
    [-20, 20]) are refused; the intercept search used to bisect the unchecked [-40, 40] and
    return a0 = 40, where p is 1.7e-223."""
    c = corr_y_m(MissingnessParams(0.0, 1.5), default_cov, NORMAL_ST)
    assert solve_missingness(0.5, c, default_cov, NORMAL_ST).loading == pytest.approx(1.5)
    assert 40 < solve_missingness(1e-300, 0.4, default_cov, NORMAL_ST).intercept < 80
    monkeypatch.setattr(missing, "_MAX_DOUBLINGS", 1)
    with pytest.raises(InfeasibleTargetError, match=f"could not bracket the loading for c={c}$"):
        solve_missingness(0.5, c, default_cov, NORMAL_ST)
    with pytest.raises(InfeasibleTargetError,
                       match="could not bracket the intercept for p=1e-300$"):
        solve_missingness(1e-300, 0.4, default_cov, NORMAL_ST)


@settings(max_examples=30, deadline=None)
@given(p=hst.floats(0.2, 0.95), frac=hst.floats(0.0, 0.9), negative=hst.booleans(),
       skewed=hst.booleans(), excess=hst.floats(0.0, 0.5))
def test_solve_inverts_targets_property(default_cov, p, frac, negative, skewed, excess):
    """solve_missingness inverts (prob_available, corr_y_m) below max_corr and refuses |c| >= it."""
    st = SkewTParams(0.0, 0.95, 10.0, 5.0) if skewed else NORMAL_ST
    bound = max_corr(default_cov, st)
    sign = -1.0 if negative else 1.0
    mp = solve_missingness(p, sign * frac * bound, default_cov, st)
    assert abs(prob_available(mp, default_cov) - p) <= 1e-6
    assert abs(corr_y_m(mp, default_cov, st) - sign * frac * bound) <= 1e-6
    with pytest.raises(InfeasibleTargetError):
        solve_missingness(p, sign * (bound + excess), default_cov, st)


def test_mc_validation(default_cov, default_mp):
    """Simulated availability and outcome/missingness correlation match the formulas."""
    n_total = 600_000
    chunk = 100_000
    var1 = st_variance(NORMAL_ST)
    frac_sum = 0.0
    frac_sq_sum = 0.0
    # accumulate correlation pieces for tooth 0 (largest variance) and tooth 13
    teeth = [0, 13]
    sums = {t: np.zeros(5) for t in teeth}  # sy, sm, syy, smm, sym
    rng = np.random.default_rng(77)
    for _ in range(n_total // chunk):
        q = sample_mvn(default_cov, chunk, rng)
        e0 = rng.standard_normal((chunk, 28))
        m0 = default_mp.intercept + default_mp.loading * q + default_mp.sigma0 * e0
        e1 = sample_st(NORMAL_ST, chunk * 28, rng).reshape(chunk, 28)
        y = q + e1
        frac = np.mean(m0 <= default_mp.cutoff, axis=1)
        frac_sum += frac.sum()
        frac_sq_sum += (frac**2).sum()
        for t in teeth:
            sums[t] += np.array(
                [
                    y[:, t].sum(),
                    m0[:, t].sum(),
                    (y[:, t] ** 2).sum(),
                    (m0[:, t] ** 2).sum(),
                    (y[:, t] * m0[:, t]).sum(),
                ]
            )
    p_emp = frac_sum / n_total
    p_true = prob_available(default_mp, default_cov)
    se_p = math.sqrt((frac_sq_sum / n_total - p_emp**2) / n_total)
    assert abs(p_emp - p_true) < 3 * se_p
    for t in teeth:
        sy, sm, syy, smm, sym = sums[t]
        n = n_total
        cov = sym / n - (sy / n) * (sm / n)
        r_emp = cov / math.sqrt((syy / n - (sy / n) ** 2) * (smm / n - (sm / n) ** 2))
        s_tt = default_cov.matrix[t, t]
        r_true = default_mp.loading * s_tt / math.sqrt(
            (s_tt + var1) * (default_mp.loading**2 * s_tt + default_mp.sigma0**2)
        )
        se_r = (1 - r_true**2) / math.sqrt(n)
        assert abs(r_emp - r_true) < 3 * se_r


def test_corr_stays_inside_unit_interval(default_cov):
    rng = np.random.default_rng(9)
    for _ in range(50):
        mp = MissingnessParams(rng.normal(0, 2), rng.normal(0, 4), rng.uniform(0.2, 3))
        c = corr_y_m(mp, default_cov, NORMAL_ST)
        assert -1.0 < c < 1.0
        assert (c == 0.0) == (mp.loading == 0.0)
