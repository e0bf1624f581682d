"""Layer probe: time single layers on one fixed 65536 x 28 chunk.

    python3 perfbench/probe.py --src SRC --seed N

Prints one JSON object of median milliseconds over REPEATS timed calls
(after one untimed warm-up call each):

* ``normals_ms``: one (65536, 28) block of standard normals;
* ``sample_st_inf_ms`` / ``sample_st_nu8_ms``: ``dists.sample_st`` for the
  same number of variates at nu = Inf (lambda 0) and nu = 8 (lambda 2);
* ``kernel_ms``: ``_backend.ybar_and_count`` on that chunk with the default
  CAR factor and missingness (a0, b0) = (-1, 0.5).

``reference_ms`` carries the figures the ROADMAP records for the same
layers (numpy backend, 2 cores, best of 3) so a run shows where it differs.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

ROWS, UNITS, REPEATS = 65536, 28, 5
REFERENCE_MS = {"normals_ms": 29.0, "sample_st_inf_ms": 92.0, "sample_st_nu8_ms": 186.0, "kernel_ms": 264.0}


def median_ms(fn) -> float:
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))

    import numpy as np

    from smartp import MissingnessParams, SkewTParams, active_backend, car_covariance, default_car_model, sample_st
    from smartp._backend import ybar_and_count

    rng = np.random.default_rng(args.seed)
    n = ROWS * UNITS
    st_inf = SkewTParams(0.0, 0.95, 0.0, math.inf)
    st_nu8 = SkewTParams(0.0, 0.95, 2.0, 8.0)
    chol = car_covariance(default_car_model()).chol
    mp = MissingnessParams(-1.0, 0.5)
    zq = rng.standard_normal((ROWS, UNITS))
    e0 = rng.standard_normal((ROWS, UNITS))
    e1 = sample_st(st_inf, n, rng).reshape(ROWS, UNITS)
    mu = np.tile(np.full(UNITS, 2.0), (ROWS, 1))

    out = {
        "normals_ms": median_ms(lambda: rng.standard_normal((ROWS, UNITS))),
        "sample_st_inf_ms": median_ms(lambda: sample_st(st_inf, n, rng)),
        "sample_st_nu8_ms": median_ms(lambda: sample_st(st_nu8, n, rng)),
        "kernel_ms": median_ms(
            lambda: ybar_and_count(zq, e0, e1, chol, mu, mp.intercept, mp.loading, mp.sigma0, mp.cutoff)
        ),
        "backend": active_backend(),
        "repeats": REPEATS,
        "reference_ms": REFERENCE_MS,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
