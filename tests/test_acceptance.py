"""Acceptance criteria, one test per criterion.

Each test prints a "criterion N" PASS/FAIL line (run with ``pytest -v -s``
to see them).  Heavy Monte Carlo inputs (one moments pass per outcome
model at 1e6 replicates) are computed once per session and shared across
criteria.

Criterion 1c checks the worked example's standardized effect against
the README definition, Del_std = Del / sqrt(sig.e.sq / 2), and against the
printed reference row for the same configuration, "T3 pair dist 5"
(TABLE_ROWS[5]: paths 2 and 7 at mu 0.5 and 5, regimes 1 and 5,
gamma = 0.25, normal errors; printed Del 2.12, N 197, Del_std 0.28), to
criterion 3's tolerance.  An earlier band of [0.23, 0.25] was dropped: the
sample-size identity N = ceil(2 (z_0.975 - z_0.2)^2 / Del_std^2) turns any
Del_std in that band into N >= 252, which criterion 1a's N in [195, 199]
rules out.  The companion test checks that identity on the CLI output.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats as sps

import smartp
from smartp import (
    MissingnessParams,
    SkewTParams,
    corr_y_m,
    design_from_matrices,
    ipw_estimate,
    normal_quantile,
    prob_available,
    required_n,
    sample_st,
    simulate_trial,
    st_mean,
    st_variance,
)
from smartp.engine import compute_sample_size
from smartp.moments import OutcomeModel, estimate_path_moments
from smartp.simtrial import ipw_weights
from conftest import GOLDEN_C, GOLDEN_P, make_design, make_model
from helpers import (
    anderson_darling_normal,
    block_jackknife_se,
    fd_se,
    moments_with_se,
    simulate_trial_reference,
    st_kurtosis,
    st_skewness,
)

NUM = 1_000_000
SEED = 20_240_601
INF = math.inf
DEL_STD_TOL = 0.01  # tolerance on a printed Del_std (criteria 1c and 3)

WORKED_ARGS = [
    "samplesize",
    "--regime", "1,5",
    "--p-i", "0.8027872",
    "--c-i", "0.4125813",
    "--mu-scalar", "0,0.5,0,2,0,0,5,0,0,0",
]

# reference table rows: (label, mu by 1-based path, regimes, gamma1, lam, nu,
#                        printed delta, printed ESD, printed N, printed delta_std)
TABLE_ROWS = [
    ("T1 g.25 normal", {2: 2.0}, (0,), 0.25, 0.0, INF, 1.32, 0.47, 78, 0.45),
    ("T1 g.50 normal", {2: 2.0}, (0,), 0.50, 0.0, INF, 0.82, 0.29, 169, 0.31),
    ("T1 g.25 skew10", {2: 2.0}, (0,), 0.25, 10.0, INF, 2.07, 0.74, 58, 0.52),
    ("T2 pair shared", {2: 0.5, 4: 2.0}, (0, 2), 0.25, 0.0, INF, 1.13, 0.40, 121, 0.36),
    ("T3 pair dist 2", {2: 0.5, 7: 2.0}, (0, 4), 0.25, 0.0, INF, 0.63, 0.22, 408, 0.20),
    ("T3 pair dist 5", {2: 0.5, 7: 5.0}, (0, 4), 0.25, 0.0, INF, 2.12, 0.76, 197, 0.28),
]


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="session")
def moment_cache():
    """Moments passes at NUM replicates, one per outcome model, keyed (lam, nu)."""
    cache = {}

    def get(lam, nu):
        if (lam, nu) not in cache:
            cache[lam, nu] = estimate_path_moments(make_model(lam=lam, nu=nu), NUM, SEED, workers=1)
        return cache[lam, nu]

    return get


def row_outputs(row, moment_cache):
    _, mu_by_path, regimes, gamma1, lam, nu, *_ = row
    design = make_design(mu_by_path, gamma1=gamma1)
    model = make_model(lam=lam, nu=nu)
    result, eff = compute_sample_size(
        design, model, regimes, num=NUM, seed=SEED, moments=moment_cache(lam, nu)
    )
    return result, eff


@pytest.fixture(scope="session")
def worked_example_cli(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc") / "worked.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "smartp.cli"]
        + WORKED_ARGS
        + ["--num", str(NUM), "--seed", str(SEED), "--workers", "1", "--json", str(out)],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())["result"], elapsed


def test_criterion_1a_worked_example_n_and_runtime(worked_example_cli):
    result, elapsed = worked_example_cli
    ok_n = 195 <= result["N"] <= 199
    ok_t = elapsed < 60.0
    assert report("1a (N in [195,199])", ok_n, f"N={result['N']}")
    assert report("1a (runtime < 60 s single-threaded)", ok_t, f"{elapsed:.1f} s")


def test_criterion_1b_worked_example_delta(worked_example_cli):
    result, _ = worked_example_cli
    ok = 2.10 <= result["Del"] <= 2.14
    assert report("1b (|Del| in [2.10,2.14])", ok, f"Del={result['Del']:.4f}")


def test_criterion_1c_worked_example_delta_std_as_specified(worked_example_cli):
    """Del_std follows the README definition and matches the printed reference row."""
    result, _ = worked_example_cli
    label, *_, want_dstd = TABLE_ROWS[5]
    dstd = result["Del_std"]
    ok_def = math.isclose(dstd, result["Del"] / math.sqrt(result["sig.e.sq"] / 2.0), rel_tol=1e-12)
    assert report(
        "1c (Del_std = Del / sqrt(sig.e.sq / 2))",
        ok_def,
        f"Del_std={dstd!r}, Del={result['Del']!r}, sig.e.sq={result['sig.e.sq']!r}",
    )
    ok = abs(dstd - want_dstd) <= DEL_STD_TOL
    n_factor = 2.0 * (normal_quantile(0.975) - normal_quantile(0.2)) ** 2
    assert report(
        f"1c (Del_std within {DEL_STD_TOL} of {want_dstd}, printed in {label})",
        ok,
        f"Del_std={dstd:.4f}; N=ceil({n_factor:.3f}/Del_std^2)="
        f"{required_n(dstd, 1.0, 0.05, 0.2)}",
    )


def test_criterion_1c_companion_consistent_delta_std(worked_example_cli):
    """N and Del_std satisfy the sample-size identity N = required_n(Del_std, 1)."""
    result, _ = worked_example_cli
    want_n = required_n(result["Del_std"], 1.0, 0.05, 0.2)
    ok = result["N"] == want_n
    assert report(
        "1c-companion (N consistent with Del_std)",
        ok,
        f"N={result['N']}, required_n(Del_std={result['Del_std']:.4f})={want_n}",
    )


def test_criterion_2_missingness_goldens(default_cov, default_mp):
    t0 = time.perf_counter()
    p = prob_available(default_mp, default_cov)
    c = corr_y_m(default_mp, default_cov, SkewTParams(0, 0.95, 0, INF))
    elapsed = time.perf_counter() - t0
    ok_p = abs(p - GOLDEN_P) < 1e-4
    ok_c = abs(c - GOLDEN_C) < 1e-4
    assert report("2 (p_i golden)", ok_p, f"p={p:.7f} vs {GOLDEN_P}")
    assert report("2 (c_i golden)", ok_c, f"c={c:.7f} vs {GOLDEN_C}")
    assert report("2 (runtime < 1 s)", elapsed < 1.0, f"{elapsed * 1e3:.1f} ms")


def test_criterion_3_table_rows(moment_cache):
    t0 = time.perf_counter()
    all_ok = True
    for row in TABLE_ROWS:
        label, _, _, _, _, _, want_delta, want_esd, want_n, want_dstd = row
        result, eff = row_outputs(row, moment_cache)
        esd = math.sqrt(eff.sig_e_sq / want_n)
        ok = (
            abs(result.n - want_n) <= 2
            and abs(esd - want_esd) <= 0.02
            and abs(result.delta - want_delta) <= 0.02
            and abs(result.delta_std - want_dstd) <= DEL_STD_TOL
        )
        all_ok &= report(
            f"3 ({label})",
            ok,
            f"N={result.n} (want {want_n}+-2), ESD={esd:.3f} (want {want_esd}+-0.02), "
            f"Del={result.delta:.3f} (printed {want_delta}), "
            f"Del_std={result.delta_std:.3f} (printed {want_dstd})",
        )
    elapsed = time.perf_counter() - t0
    all_ok &= report("3 (runtime < 10 min)", elapsed < 600, f"{elapsed:.0f} s")
    assert all_ok


@pytest.mark.parametrize("row_idx", [0, 3, 5], ids=["T1g25", "T2pair", "T3pair5"])
def test_criterion_4_mc_power(row_idx, moment_cache):
    row = TABLE_ROWS[row_idx]
    label, mu_by_path, regimes, gamma1, lam, nu, *_ = row
    result, eff = row_outputs(row, moment_cache)
    design = make_design(mu_by_path, gamma1=gamma1)
    model = make_model(lam=lam, nu=nu)
    test = smartp.TestSpec()
    est = smartp.mc_power(
        design, model, test, regimes, result.n, eff.sigma_sq,
        reps=1000, seed=SEED + 1, workers=4,
    )
    ok = 0.76 <= est.power <= 0.84
    assert report(f"4 ({label})", ok, f"power={est.power:.3f} at N={result.n} (want [0.76,0.84])")


def test_criterion_5_distribution_grid():
    all_ok = True
    for lam in (0.0, 2.0, 10.0):
        for nu in (INF, 10.0, 8.0, 6.0):
            p = SkewTParams(0.0, 0.95, lam, nu)
            rng = np.random.default_rng(SEED + int(lam) * 100 + int(nu if nu != INF else 0))
            x = sample_st(p, NUM, rng)
            est = moments_with_se(x)
            for stat, truth in [
                ("mean", st_mean(p)),
                ("var", st_variance(p)),
                ("skew", st_skewness(p)),
                ("kurt", st_kurtosis(p)),
            ]:
                e, se = est[stat]
                ok = abs(e - truth) <= 3 * se
                if not ok:
                    report(f"5 (lam={lam}, nu={nu}, {stat})", ok, f"{e:.4f} vs {truth:.4f} se={se:.4f}")
                all_ok &= ok
    rng = np.random.default_rng(SEED)
    ks = sps.kstest(sample_st(SkewTParams(0, 0.95, 0, INF), 100_000, rng), "norm", args=(0, 0.95))
    ok_ks = ks.statistic < 0.006
    all_ok &= ok_ks
    assert report("5 (12-point grid, 3 SE + KS)", all_ok, f"KS={ks.statistic:.4f}")


def test_criterion_6_algebra_oracle():
    """Closed-form N*Var / N*Cov vs a brute-force one-million-cluster simulation.

    The trials (``simulate_trial_reference``) draw arm, response and stage-2 option per
    cluster and every tooth, so the check shares neither ``path_probs`` with the formula
    nor the moments pass's integration of Q and the error."""
    all_ok = True
    for k in range(5):
        rng = np.random.default_rng(6000 + k)
        t_dim = int(rng.choice([2, 4]))
        n_nr1, n_nr2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        g1, g2 = rng.uniform(0.2, 0.8, 2)
        n_paths = 2 + n_nr1 + n_nr2
        mu = np.tile(rng.uniform(-1.0, 3.0, n_paths)[:, None], (1, t_dim))
        st1 = [[1, n_nr1, g1], [1, n_nr2, g2]]
        arm2_resp = 2 + n_nr1
        dtr = [[j + 1, 1, 2 + j, 1] for j in range(n_nr1)] + [
            [n_nr1 + j + 1, arm2_resp, arm2_resp + 1 + j, 2] for j in range(n_nr2)
        ]
        design = design_from_matrices(mu, st1, dtr)
        model = OutcomeModel(
            smartp.CarModel(
                smartp.tooth_chain(t_dim),
                float(rng.uniform(0.5, 1.2)),
                float(rng.uniform(0.3, 0.95)),
                self_adjacent=bool(rng.integers(0, 2)),
            ),
            SkewTParams(0.0, float(rng.uniform(0.5, 1.2)), float(rng.choice([0.0, 2.0])),
                        float(rng.choice([INF, 8.0]))),
            MissingnessParams(float(rng.uniform(-1.5, -0.5)), float(rng.uniform(0.0, 1.0))),
        )

        # formula side, with SE propagated from the path-moment uncertainty
        mm = estimate_path_moments(model, NUM, SEED + 60 + k, workers=4)
        pm = [mm.for_path(p.mu, p.index) for p in design.paths]
        vals = [m.mu for m in pm] + [m.sigma2 for m in pm]
        ses = [math.sqrt(m.sigma2 / m.n_samples) for m in pm] + [
            m.sigma2 * math.sqrt(2 / (m.n_samples - 1)) for m in pm
        ]
        r1, r2, r3 = design.regimes[0], design.regimes[1], design.regimes[n_nr1]

        def ncov(regime_ids, v):
            return smartp.regime_moments(design, regime_ids, v[:n_paths], v[n_paths:])[1]

        def f_var(v):
            return ncov((0,), v)[0, 0]

        def f_cov_shared(v):
            return ncov((0, 1), v)[0, 1]

        def f_cov_dist(v):
            return ncov((0, n_nr1), v)[0, 1]

        theory = {
            "var": (f_var(vals), fd_se(f_var, vals, ses)),
            "cov_shared": (f_cov_shared(vals), fd_se(f_cov_shared, vals, ses)),
            "cov_distinct": (f_cov_dist(vals), fd_se(f_cov_dist, vals, ses)),
        }

        # brute force: one million-cluster trial, empirical moments of W*Ybar
        ds = simulate_trial_reference(design, model, NUM, SEED + 70 + k)
        x1 = ipw_weights(ds, design, r1) * ds.ybar
        x2 = ipw_weights(ds, design, r2) * ds.ybar
        x3 = ipw_weights(ds, design, r3) * ds.ybar
        emp = {
            "var": float(np.var(x1, ddof=1)),
            "cov_shared": float(np.cov(x1, x2, ddof=1)[0, 1]),
            "cov_distinct": float(np.cov(x1, x3, ddof=1)[0, 1]),
        }
        emp_se = {
            "var": block_jackknife_se(x1, lambda v: np.var(v, ddof=1)),
            "cov_shared": block_jackknife_se(
                np.column_stack([x1, x2]), lambda m: np.cov(m[:, 0], m[:, 1], ddof=1)[0, 1]
            ),
            "cov_distinct": block_jackknife_se(
                np.column_stack([x1, x3]), lambda m: np.cov(m[:, 0], m[:, 1], ddof=1)[0, 1]
            ),
        }
        for key in theory:
            th, th_se = theory[key]
            gap = abs(emp[key] - th)
            tol = 3 * math.hypot(th_se, emp_se[key])
            ok = gap <= tol
            all_ok &= report(
                f"6 (design {k + 1} {key})", ok, f"|{emp[key]:.4f} - {th:.4f}| <= {tol:.4f}"
            )
    assert all_ok


def test_criterion_7_estimator_normality(moment_cache):
    row = TABLE_ROWS[3]  # shared pair
    result, eff = row_outputs(row, moment_cache)
    design = make_design(row[1], gamma1=row[3])
    model = make_model()
    n, reps = 500, 2000
    deltas = np.array(
        [
            ipw_estimate(simulate_trial(design, model, n, SEED + 7, _key=(9, r)), design, (0, 2))
            for r in range(reps)
        ]
    )
    target_var = 2 * eff.sigma_sq / n
    z = (deltas - eff.delta_signed) / math.sqrt(target_var)
    ok_mean = abs(deltas.mean() - eff.delta_signed) <= 3 * deltas.std(ddof=1) / math.sqrt(reps)
    ok_var = abs(np.var(deltas, ddof=1) / target_var - 1) <= 0.10
    a2, p_val = anderson_darling_normal(z)
    ok_norm = p_val > 0.001
    assert report("7 (mean within 3 SE)", ok_mean, f"mean={deltas.mean():.4f} vs {eff.delta_signed:.4f}")
    assert report("7 (variance within 10%)", ok_var, f"ratio={np.var(deltas, ddof=1) / target_var:.3f}")
    assert report("7 (AD normality p > 0.001)", ok_norm, f"A2*={a2:.3f}, p={p_val:.4f}")


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "smartp.cli"] + args, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_8_determinism(tmp_path):
    outputs = []
    for tag, workers in [("a", 1), ("b", 1), ("c", 2), ("d", 8)]:
        j = tmp_path / f"ss_{tag}.json"
        out = _run_cli(
            WORKED_ARGS
            + ["--num", "50000", "--seed", "11", "--workers", str(workers), "--json", str(j)]
        )
        outputs.append((out, j.read_bytes()))
    ok_ss = all(o == outputs[0] for o in outputs[1:])

    pw_outputs = []
    for tag, workers in [("a", 1), ("b", 2), ("c", 8)]:
        j = tmp_path / f"pw_{tag}.json"
        out = _run_cli(
            [
                "power", "--regime", "1", "--mu-scalar", "0,2,0,0,0,0,0,0,0,0",
                "--num", "30000", "--reps", "50", "--n", "60", "--seed", "3",
                "--workers", str(workers), "--json", str(j),
            ]
        )
        pw_outputs.append((out, j.read_bytes()))
    ok_pw = all(o == pw_outputs[0] for o in pw_outputs[1:])
    assert report("8 (samplesize bit-identical, runs x workers 1/2/8)", ok_ss, "4 runs compared")
    assert report("8 (power bit-identical, workers 1/2/8)", ok_pw, "3 runs compared")
