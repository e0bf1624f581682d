import math

import numpy as np
import pytest

from smartp import (
    analytic_power,
    compute_effect,
    compute_sample_size,
    engine,
    estimate_path_moments,
    mc_power,
    normal_quantile,
    reject,
    required_n,
    simtrial,
    wald_z,
)
from smartp.power import exact_n
from conftest import make_design, make_model


def test_required_n_reference_anchor():
    # delta* = 0.45 at alpha=.05, beta=.2: ceil(2*(1.959964+0.841621)^2 / 0.2025)
    assert required_n(0.45, 1.0, 0.05, 0.2) == 78
    assert required_n(0.36, 1.0, 0.05, 0.2) == 122


def test_required_n_edges():
    assert required_n(1.0, 1e-12, 0.05, 0.2) == 1
    with pytest.raises(ValueError):
        required_n(0.0, 1.0, 0.05, 0.2)
    with pytest.raises(ValueError):
        required_n(1.0, 0.0, 0.05, 0.2)


@pytest.mark.parametrize("delta, sigma_sq", [(1e-300, 1.0), (1e-160, 1.0), (0.5, 1e308)],
                         ids=["square-underflows", "quotient-overflows", "huge-variance"])
def test_exact_n_refuses_an_n_that_is_not_finite(delta, sigma_sq):
    """delta^2 underflowing to 0 used to end in ZeroDivisionError; an infinite N* in an
    OverflowError from its ceiling."""
    with pytest.raises(ValueError, match=r"^N is not finite: the effect size"):
        exact_n(delta, sigma_sq, 0.05, 0.2)


def test_required_n_monotone():
    base = required_n(0.5, 2.0, 0.05, 0.2)
    assert required_n(0.7, 2.0, 0.05, 0.2) <= base
    assert required_n(0.5, 3.0, 0.05, 0.2) >= base
    assert required_n(0.5, 2.0, 0.01, 0.2) >= base
    assert required_n(0.5, 2.0, 0.05, 0.1) >= base


def test_ceiling_sharpness():
    rng = np.random.default_rng(4)
    for _ in range(50):
        delta = rng.uniform(0.2, 3.0)
        sigma_sq = rng.uniform(0.5, 20.0)
        alpha, beta = 0.05, 0.2
        n = required_n(delta, sigma_sq, alpha, beta)
        assert analytic_power(delta, sigma_sq, n, alpha) >= 1 - beta - 1e-9
        if n > 1:
            assert analytic_power(delta, sigma_sq, n - 1, alpha) < 1 - beta


def test_wald_trivials():
    assert wald_z(0.0, 1.0, 50) == 0.0
    assert not reject(0.0, 0.05)
    assert reject(1.959965, 0.05)
    assert not reject(1.9599, 0.05)
    assert reject(-2.5, 0.05)
    with pytest.raises(ValueError):
        wald_z(1.0, 0.0, 50)


def test_quantile_convention():
    # the N formula uses the lower-beta quantile, negative for beta < 1/2
    assert normal_quantile(0.2) < 0


def test_null_rejection_rate_matches_alpha():
    """Simulated trials under H0: the Wald test rejects at ~alpha."""
    design = make_design({})  # all path means zero
    model = make_model()
    eff = compute_effect(design, estimate_path_moments(model, 150_000, seed=5), (0, 4))
    assert abs(eff.delta_signed) < 6 * 0.01  # sanity: near-null effect
    est = mc_power(design, model, 0.05, (0, 4), 100, eff.sigma_sq, reps=5000, seed=17, workers=4)
    se = math.sqrt(0.05 * 0.95 / est.reps)
    assert abs(est.power - 0.05) < 3 * se


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1e-300, 1e-17, math.nan])
def test_alpha_out_of_range_refused_before_the_moments_pass(monkeypatch, alpha):
    """``mc_power`` and ``compute_sample_size`` refuse an alpha outside (0, 1) or so small that
    1 - alpha/2 rounds to 1, naming alpha, before any Monte Carlo work: before any trial and
    before the moments pass.  Both take 1.2e-16."""
    def ran(*_, **__):
        raise AssertionError("a Monte Carlo pass ran")

    monkeypatch.setattr(simtrial, "_power_chunk", ran)
    monkeypatch.setattr(engine, "estimate_path_moments", ran)
    design, model = make_design({1: 1.0}), make_model()
    message = f"alpha must be in \\(0, 1\\) and above 1.1e-16, got {alpha}"
    with pytest.raises(ValueError, match=message):
        mc_power(design, model, alpha, (0,), 20, 1.0, reps=100)
    with pytest.raises(ValueError, match=message):
        compute_sample_size(design, model, (0,), alpha=alpha, num=20_000)
    monkeypatch.undo()
    assert 0.0 <= mc_power(design, model, 1.2e-16, (0,), 20, 1.0, reps=100).power <= 1.0
    assert compute_sample_size(design, model, (0,), alpha=1.2e-16, num=20_000)[0].n >= 1


def test_one_moments_pass_serves_several_designs():
    """Two designs over one outcome model, with other gammas and other path means, each with a
    shared-arm pair (regimes 1 and 3) and a distinct-arm pair (regimes 1 and 5):
    ``compute_effect`` on one moments pass equals the effect of a standalone
    ``compute_sample_size`` at the same (num, seed), field for field and bit for bit."""
    model, num, seed = make_model(lam=2.0, nu=8.0), 20_000, 3
    moments = estimate_path_moments(model, num, seed)
    for design in (make_design({2: 0.5, 4: 2.0, 7: 5.0}),
                   make_design({1: -1.0, 2: 1.5, 4: 0.3, 6: 0.7, 7: 2.5}, gamma1=0.4, gamma2=0.6)):
        for regime_ids in ((0, 2), (0, 4)):
            eff = compute_effect(design, moments, regime_ids)
            assert eff.delta > 0
            assert eff == compute_sample_size(design, model, regime_ids, num=num, seed=seed)[1]
