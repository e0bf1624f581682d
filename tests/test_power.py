import math

import numpy as np
import pytest

from smartp import (
    TestSpec,
    analytic_power,
    compute_effect,
    compute_sample_size,
    engine,
    mc_power,
    normal_quantile,
    reject,
    required_n,
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
    eff = compute_effect(design, model, (0, 4), num=150_000, seed=5)
    assert abs(eff.delta_signed) < 6 * 0.01  # sanity: near-null effect
    spec = TestSpec(0.05, 0.2)
    est = mc_power(design, model, spec, (0, 4), 100, eff.sigma_sq, reps=5000, seed=17, workers=4)
    se = math.sqrt(0.05 * 0.95 / est.reps)
    assert abs(est.power - 0.05) < 3 * se


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1e-300, 1e-17, math.nan])
def test_alpha_out_of_range_refused_before_the_moments_pass(monkeypatch, alpha):
    """``TestSpec`` and ``compute_sample_size`` refuse an alpha outside (0, 1) or so small that
    1 - alpha/2 rounds to 1, naming alpha, before any Monte Carlo work."""
    def moments_pass(*_, **__):
        raise AssertionError("the moments pass ran")

    monkeypatch.setattr(engine, "estimate_path_moments", moments_pass)
    message = f"alpha must be in \\(0, 1\\) and above 1.1e-16, got {alpha}"
    with pytest.raises(ValueError, match=message):
        TestSpec(alpha, 0.2)
    with pytest.raises(ValueError, match=message):
        compute_sample_size(make_design({1: 1.0}), make_model(), (0,), alpha=alpha, num=20_000)
    TestSpec(1.2e-16, 0.2)
