import math
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from smartp import (
    TestSpec,
    compute_effect,
    contrast_weights,
    design_from_matrices,
    estimate_path_moments,
    ipw_estimate,
    mc_power,
    path_probs,
    prob_available,
    regime_moments,
    simulate_trial,
    stage1_probs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from smartp import DegenerateMissingnessError, engine, reject, simtrial, wald_z
from smartp.simtrial import (
    TRIAL_ROWS,
    TrialDataset,
    _pick_paths,
    _power_chunk,
    ipw_weights,
)
from conftest import make_design, make_model
from helpers import (
    designs,
    empirical_sigma_sq_reference,
    ipw_weights_reference,
    smart_design,
)


def test_all_responders_when_gamma_one():
    design = make_design({2: 1.0}, gamma1=1.0, gamma2=1.0)
    model = make_model()
    ds = simulate_trial(design, model, 2000, seed=1)
    assert all(design.paths[p].responder for p in ds.path)
    assert set(np.unique(ds.path)) <= {0, 5}


def test_arm_frequencies_match_stage1_probs():
    design = make_design({})
    ds = simulate_trial(design, make_model(), 100_000, seed=3)
    pi1 = stage1_probs(design)
    arm = np.array([p.arm for p in design.paths])[ds.path]
    emp = np.mean(arm == 0)
    se = math.sqrt(pi1[0] * (1 - pi1[0]) / ds.n_clusters)
    assert abs(emp - pi1[0]) < 3 * se


def test_available_fraction_matches_model():
    design = make_design({})
    model = make_model()
    ds = simulate_trial(design, model, 60_000, seed=4)
    frac = ds.n_units / design.n_units
    p_true = prob_available(model.mp, model.sigma)
    se = frac.std(ddof=1) / math.sqrt(ds.n_clusters)
    assert abs(frac.mean() - p_true) < 3 * se


def test_ipw_weights_average_to_one():
    design = make_design({})
    ds = simulate_trial(design, make_model(), 40_000, seed=5)
    for rid in (0, 4):
        w = ipw_weights(ds, design, design.regimes[rid])
        se = w.std(ddof=1) / math.sqrt(w.size)
        assert abs(w.mean() - 1.0) < 3 * se


def test_ipw_reduces_to_sample_mean_without_weighting():
    # one arm, one option per response status: weights are identically 1
    mu = np.full((2, 6), 0.0)
    mu[1] = 1.5
    design = design_from_matrices(mu, [[1, 1, 0.5]], [[1, 1, 2, 1]])
    model = make_model(n_units=6)
    ds = simulate_trial(design, model, 4000, seed=6)
    assert ipw_estimate(ds, design, (0,)) == pytest.approx(float(ds.ybar.mean()))


def test_ipw_warns_when_no_consistent_cluster():
    design = make_design({})
    ds = TrialDataset(
        path=np.zeros(5, dtype=np.int64),
        ybar=np.ones(5),
        n_units=np.full(5, 28),
    )
    with pytest.warns(UserWarning, match="consistent"):
        est = ipw_estimate(ds, design, (4,))  # regime 5 lives on arm 2
    assert est == 0.0


def test_estimator_mean_and_sd_match_closed_form():
    """E(delta_hat) ~ delta and MCSD ~ sqrt(2 sigma^2 / N) over repeated trials."""
    design = make_design({2: 0.5, 4: 2.0})
    model = make_model()
    eff = compute_effect(design, model, (0, 2), num=200_000, seed=7)
    n = 120
    reps = 2000
    est = mc_power(
        design,
        model,
        TestSpec(),
        (0, 2),
        n,
        eff.sigma_sq,
        reps=reps,
        seed=8,
        workers=4,
    )
    esd = math.sqrt(2 * eff.sigma_sq / n)
    assert abs(est.mean_abs_delta - eff.delta) < 3 * esd / math.sqrt(reps) + 0.01 * eff.delta
    assert est.mcsd / esd == pytest.approx(1.0, abs=0.05)


def test_mc_power_deterministic_across_workers():
    design = make_design({2: 2.0})
    model = make_model()
    spec = TestSpec()
    # 1000 reps of 60 clusters span four chunks
    runs = [
        mc_power(design, model, spec, (0,), 60, 8.0, reps=1000, seed=9, workers=w)
        for w in (1, 2, 8)
    ]
    assert runs[0] == runs[1] == runs[2]


def test_power_monotone_in_n():
    design = make_design({2: 2.0})
    model = make_model()
    eff = compute_effect(design, model, (0,), num=150_000, seed=10)
    spec = TestSpec()
    n_mid = 78
    powers = [
        mc_power(design, model, spec, (0,), n, eff.sigma_sq, reps=400, seed=11, workers=4).power
        for n in (n_mid // 2, n_mid, 2 * n_mid)
    ]
    assert powers[0] < powers[1] < powers[2]


def test_simulate_trial_deterministic():
    design = make_design({2: 2.0})
    model = make_model()
    a = simulate_trial(design, model, 500, seed=12)
    b = simulate_trial(design, model, 500, seed=12)
    assert np.array_equal(a.ybar, b.ybar) and np.array_equal(a.path, b.path)


def test_empirical_variance_variant_runs():
    design = make_design({2: 2.0})
    model = make_model()
    spec = TestSpec()
    est = mc_power(
        design, model, spec, (0,), 78, 8.0, reps=200, seed=13, empirical_variance=True
    )
    assert 0.0 <= est.power <= 1.0


# u at and next to every k/m (m <= 4), and the largest uniform below 1
BOUNDARY_U = sorted(
    {float(x) for m in range(1, 5) for k in range(m + 1)
     for x in (k / m, np.nextafter(k / m, 0.0), np.nextafter(k / m, 1.0)) if 0.0 <= x < 1.0}
    | {1.0 - 2.0**-53}
)


def path_law_reference(design) -> np.ndarray:
    """Per-path chance ``pi1 * (gamma or 1 - gamma) * pi2``, read off ``design.arms``.

    pi1 weighs each arm by ``1 / (gamma / n_R + (1 - gamma) / n_NR)`` (balanced),
    ``max(n_R, n_NR)`` (max) or 1 (equal); ``pi1_literal`` counts one
    non-responder option on every arm after the first.
    """
    weights = []
    for a in design.arms:
        n_r, g = a.n_resp_options, a.response_rate
        n_nr = 1 if design.pi1_literal and a.index > 0 else a.n_nonresp_options
        weights.append({"balanced": 1.0 / (g / n_r + (1.0 - g) / n_nr),
                        "max": max(n_r, n_nr), "equal": 1.0}[design.stage1_mode.value])
    pi1 = np.array(weights) / sum(weights)
    probs = []
    for p in design.paths:
        a = design.arms[p.arm]
        if p.responder:
            probs.append(pi1[p.arm] * a.response_rate / a.n_resp_options)
        else:
            probs.append(pi1[p.arm] * (1.0 - a.response_rate) / a.n_nonresp_options)
    return np.array(probs)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_path_picker_returns_the_interval_holding_u(data):
    design = data.draw(designs())
    cdf = np.cumsum(path_probs(design))
    edges = cdf / cdf[-1]
    near_edges = [float(x) for e in edges for x in (e, np.nextafter(e, 0.0)) if 0.0 <= x < 1.0]
    u_value = (st.sampled_from(BOUNDARY_U + near_edges)
               | st.floats(0.0, 1.0, exclude_max=True))
    u = np.array(data.draw(st.lists(u_value, min_size=1, max_size=60)))
    got = _pick_paths(design, u)
    lower = np.concatenate([[0.0], edges[:-1]])
    assert np.all((lower[got] <= u) & (u < edges[got]))
    assert np.all(path_law_reference(design)[got] > 0)


@pytest.mark.parametrize("mode,literal", [
    ("balanced", False), ("max", False), ("equal", False), ("balanced", True),
], ids=["balanced", "max", "equal", "pi1-literal"])
def test_path_frequencies_match_the_two_stage_law(mode, literal):
    """Chi-square of ``simulate_trial``'s path counts against pi1 * (gamma or 1 - gamma) * pi2."""
    design = smart_design([(1, 4), (2, 3), (1, 2)], [0.25, 0.6, 0.4], mode, literal, n_units=2)
    ds = simulate_trial(design, make_model(a0=-4.0, b0=0.0, n_units=2), 100_000, seed=31)
    counts = np.bincount(ds.path, minlength=len(design.paths))
    expected = path_law_reference(design) * ds.n_clusters
    assert np.all(ds.n_units >= 1) and np.all(np.isfinite(ds.ybar))
    assert sps.chisquare(counts, expected).pvalue > 0.001


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_per_path_ipw_table_matches_per_cluster_formula(data):
    design = data.draw(designs())
    n = data.draw(st.integers(1, 60))
    path = np.array(data.draw(st.lists(st.integers(0, len(design.paths) - 1), min_size=n, max_size=n)))
    ds = TrialDataset(
        path=path,
        ybar=np.ones(n),
        n_units=np.ones(n, dtype=np.int64),
    )
    for regime in design.regimes:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = ipw_weights(ds, design, regime)
        assert np.array_equal(got, ipw_weights_reference(ds, design, regime))


@pytest.mark.parametrize("ids", [(0, 4, 2), (0, 0), (-1,), (0, -4), (8,)],
                         ids=["three", "same", "negative", "negative-second", "past-last"])
def test_regime_misuse_is_refused_before_any_monte_carlo(ids, monkeypatch):
    """mc_power, compute_effect, ipw_estimate and regime_moments refuse a regime list the design
    cannot answer before any draw (the passes here fail the test if they run).  They used to
    answer: (0, 4, 2) gave the power and the estimate of (0, 4), (0, 0) a power and an estimate
    of 0, a negative id wrapped to a regime from the end, and an id past the last one ended in a
    bare IndexError."""
    def ran(*_, **__):
        raise AssertionError("a Monte Carlo pass ran")

    monkeypatch.setattr(simtrial, "_power_chunk", ran)
    monkeypatch.setattr(engine, "estimate_path_moments", ran)
    design, model = make_design({2: 0.5, 4: 2.0, 7: 5.0}), make_model()
    with pytest.raises(ValueError, match="regime"):
        mc_power(design, model, TestSpec(), ids, 197, 56.4, reps=300, seed=1)
    with pytest.raises(ValueError, match="regime"):
        compute_effect(design, model, ids, 20000, 1)
    ds = TrialDataset(np.arange(10), np.linspace(-1.0, 3.0, 10), np.ones(10, dtype=np.intp))
    with pytest.raises(ValueError, match="regime"):
        ipw_estimate(ds, design, ids)
    if len(set(ids)) == len(ids) <= 2:  # regime_moments takes any list of regimes that exist
        with pytest.raises(ValueError, match="regime ids are 0-based, below 8"):
            regime_moments(design, ids, np.zeros(10), np.ones(10))


@pytest.mark.parametrize("empirical", [False, True], ids=["design-var", "empirical-var"])
@pytest.mark.parametrize("regime_ids", [(0,), (0, 2), (0, 4)], ids=["single", "shared", "distinct"])
def test_batched_power_chunk_matches_per_rep_oracle(regime_ids, empirical):
    """One chunk: per-rep IPW estimate, plug-in variance and Wald decision against the per-rep code."""
    design = make_design({2: 0.5, 4: 2.0, 7: 1.0})
    model = make_model(lam=2.0, nu=8.0, a0=0.0, b0=0.7)
    n, sigma_sq, alpha = 60, 20.0, 0.05
    reps = TRIAL_ROWS // n
    contrast = contrast_weights(design, regime_ids)
    ds, d_hat, s_sq = _power_chunk(design, model, contrast, n, 21, empirical, 0, reps)
    assert ds.n_clusters == reps * n and d_hat.shape == (reps,)
    assert (s_sq is not None) == empirical
    trials = [
        TrialDataset(ds.path[sl], ds.ybar[sl], ds.n_units[sl])
        for sl in (slice(r * n, (r + 1) * n) for r in range(reps))
    ]
    old_d = [ipw_estimate(t, design, regime_ids) for t in trials]
    old_s = [empirical_sigma_sq_reference(t, design, regime_ids) if empirical else sigma_sq for t in trials]
    old_reject = [bool(reject(wald_z(d, s, n), alpha)) for d, s in zip(old_d, old_s)]
    np.testing.assert_allclose(d_hat, old_d, rtol=0, atol=1e-12)
    if empirical:
        np.testing.assert_allclose(s_sq, old_s, rtol=1e-12)
    new_reject = reject(wald_z(d_hat, s_sq if empirical else sigma_sq, n), alpha)
    assert new_reject.tolist() == old_reject
    # mc_power over exactly this chunk reports the same draws
    est = mc_power(
        design, model, TestSpec(alpha), regime_ids, n, sigma_sq,
        reps=reps, seed=21, empirical_variance=empirical,
    )
    assert est.power == np.mean(old_reject)
    assert est.mean_abs_delta == pytest.approx(np.mean(np.abs(old_d)), rel=1e-12)
    assert est.mcsd == pytest.approx(np.std(old_d, ddof=1), rel=1e-12)


def test_mc_power_chunks_and_callback_cover_every_rep():
    design = make_design({2: 2.0})
    model = make_model()
    seen = []
    reps, n = 250, 100  # 163 reps per chunk: one full chunk and one short one

    def record(first_rep, ds):
        seen.append((first_rep, ds.n_clusters))

    mc_power(design, model, TestSpec(), (0,), n, 8.0,
             reps=reps, seed=4, workers=2, on_chunk=record)
    per_chunk = TRIAL_ROWS // n
    assert seen == [(0, per_chunk * n), (per_chunk, (reps - per_chunk) * n)]


def test_unit_count_mismatch_raises_everywhere():
    design = make_design({}, n_units=6)
    model = make_model()  # 28 sub-units
    spec = TestSpec()
    for call in (
        lambda: simulate_trial(design, model, 10, seed=1),
        lambda: mc_power(design, model, spec, (0,), 10, 1.0, reps=100, seed=1),
        lambda: compute_effect(design, model, (0,), num=20_000, seed=1),
    ):
        with pytest.raises(ValueError, match=r"6 sub-units.*28"):
            call()


def test_mc_power_refuses_a_single_rep():
    """One rep has no Monte Carlo SD: refused before any trial, where it gave MCSD NaN."""
    with pytest.raises(ValueError, match="reps must be >= 2 for the Monte Carlo SD, got 1"):
        mc_power(make_design({2: 2.0}), make_model(), TestSpec(), (0,), 20, 8.0, reps=1)


def test_few_redraws_at_small_n_are_accepted():
    """One all-missing redraw among 40 clusters is not degenerate missingness."""
    design = make_design({2: 0.5, 4: 2.0})
    model = make_model(lam=10.0, nu=5.0, a0=0.3, b0=0.9)  # about 0.1% of clusters redrawn
    est = mc_power(design, model, TestSpec(), (0, 2), 40, 20.0, reps=400, seed=3)
    assert 0.0 <= est.power <= 1.0
    # the first of 200 trials that redraws a cluster: one redraw is above the old
    # 1%-of-clusters limit (0.4 here)
    redrawn = next((ds.n_redrawn for key in range(200)
                    if (ds := simulate_trial(design, model, 40, seed=3, _key=(key,))).n_redrawn), 0)
    assert redrawn >= 1


@pytest.mark.parametrize("runner", ["simulate_trial", "mc_power", "estimate_path_moments"])
def test_near_total_missingness_raises(runner):
    """Every Monte Carlo entry point stops at the same redraw rule with the same message."""
    design = make_design({})
    model = make_model(a0=6.0, b0=0.0)  # P(available) = Phi(-6) per sub-unit
    message = r"^\d+ all-missing redraws for \d+ rows; the missingness model implies near-total"
    with pytest.raises(DegenerateMissingnessError, match=message):
        if runner == "simulate_trial":
            simulate_trial(design, model, 40, seed=1)
        elif runner == "mc_power":
            mc_power(design, model, TestSpec(), (0,), 40, 1.0, reps=200, seed=1)
        else:
            estimate_path_moments(model, 20_000, seed=1)


def test_mc_power_refuses_a_zero_design_variance_before_any_trial(monkeypatch):
    """sigma^2 <= 0 leaves the Wald statistic undefined in both variance modes: refused, naming
    the regimes, before any trial is simulated."""
    def trials(*_, **__):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(simtrial, "_power_chunk", trials)
    design, model = make_design({2: 2.0}), make_model()
    for regime_ids, sigma_sq, message in (
        ((1, 2), 0.0, "the design-stage sigma^2 of regimes 2 and 3 is 0.0; their estimators "
                      "coincide, so no trial can tell them apart"),
        ((0,), -1e-18, "the design-stage sigma^2 of regime 1 is -1e-18"),
    ):
        for empirical in (False, True):
            with pytest.raises(ValueError) as info:
                mc_power(design, model, TestSpec(), regime_ids, 20, sigma_sq, reps=100,
                         empirical_variance=empirical)
            assert str(info.value) == message
