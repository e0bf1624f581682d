"""What the benchmark scripts under ``perfbench/`` need from ``src``.

``probe.py`` imports names and reads the ``.chol`` factor, ``derive_band.py`` wraps
``smartp.cli.compute_sample_size`` and reads what it returns, and ``tracer.py`` wraps every
function that a per-layer metric of ``BENCHMARK.json`` names, plus ``moments._simulate_ybar``,
and counts from their arguments and results by name.  A name leaves this test only in the
change that updates ``perfbench/`` to match, so that the scripts keep running on every version
of the source.
"""

import importlib
import inspect
import json
import math
from pathlib import Path

import numpy as np

from smartp import cli, moments, simtrial
from conftest import make_model

ROOT = Path(__file__).resolve().parents[1]
SKEWT_SPARSE = [
    "samplesize", "--regime", "1,3", "--lambda", "10", "--nu", "5", "--p-i", "0.3", "--c-i",
    "0.4", "--mu-scalar", "0,0.5,0,2,0,0,0,0,0,0",
]


def test_probe_imports_and_the_cholesky_factor():
    import smartp
    from smartp import (
        MissingnessParams, SkewTParams, active_backend, car_covariance, default_car_model,
        sample_st,
    )
    from smartp._backend import ybar_and_count

    cov = car_covariance(default_car_model())
    chol = cov.chol
    assert np.allclose(chol, np.tril(chol)) and np.allclose(chol @ chol.T, cov.matrix)
    rng, rows = np.random.default_rng(1), 8
    mp, st = MissingnessParams(-1.0, 0.5), SkewTParams(0.0, 0.95, 0.0, math.inf)
    zq, e0 = rng.standard_normal((rows, 28)), rng.standard_normal((rows, 28))
    e1 = sample_st(st, rows * 28, rng).reshape(rows, 28)
    mu = np.full((rows, 28), 2.0)
    ybar, k = ybar_and_count(zq, e0, e1, chol, mu, mp.intercept, mp.loading, mp.sigma0, mp.cutoff)
    assert ybar.shape == k.shape == (rows,)
    assert isinstance(active_backend(), str) and isinstance(smartp.__version__, str)


def test_derive_band_wraps_compute_sample_size(monkeypatch):
    """derive_band's pattern: wrap ``smartp.cli.compute_sample_size``, run ``cli.main`` on the
    skewt-sparse command and read the design, the result and the path moments it returns."""
    captured = {}
    compute = cli.compute_sample_size

    def keep(design, model, regime_ids, *a, **kw):
        result, eff = compute(design, model, regime_ids, *a, **kw)
        captured.update(design=design, regime_ids=regime_ids, result=result, eff=eff)
        return result, eff

    monkeypatch.setattr(cli, "compute_sample_size", keep)
    assert cli.main(SKEWT_SPARSE + ["--num", "20000", "--seed", "3"]) == 0
    design, eff = captured["design"], captured["eff"]
    assert captured["regime_ids"] == (0, 2) and captured["result"].delta > 0
    for rid in captured["regime_ids"]:
        r = design.regimes[rid]
        assert 0 < design.arms[r.arm].response_rate < 1
        for p in (r.responder_path, r.nonresp_path):
            assert eff.path_moments[p].sigma2 > 0 and eff.path_moments[p].n_redrawn >= 0


def test_tracer_finds_the_functions_it_wraps():
    """Every per-layer ``module.function.stat`` metric names a public function of that module
    (``backend`` is ``_backend``); ``moments._simulate_ybar`` is the one module attribute the
    trials look up; and the counters read their arguments and results by these names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"] if m["name"].count(".") == 2}
    for name in names:
        module, function = name.split(".")
        module = importlib.import_module(f"smartp.{'_' if module == 'backend' else ''}{module}")
        assert inspect.isfunction(getattr(module, function)), name
    assert simtrial._simulate_ybar is moments._simulate_ybar
    ybar, k, n_redrawn = moments._simulate_ybar(make_model(), np.zeros((1, 28)),
                                                np.zeros(5, np.intp), np.random.default_rng(2))
    assert ybar.shape == k.shape == (5,) and n_redrawn >= 0
    for module, function, argument in (("simtrial", "simulate_trial", "n_clusters"),
                                       ("simtrial", "ipw_weights", "ds"),
                                       ("design", "path_tables", "design")):
        fn = getattr(importlib.import_module(f"smartp.{module}"), function)
        assert argument in inspect.signature(fn).parameters, (function, argument)
    out = moments.estimate_path_moments(make_model(), 20_000, 1)
    assert out.n_samples == 20_000 and out.n_redrawn >= 0
