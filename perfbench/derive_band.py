"""Derive the acceptance band for Del on the skewt-sparse workload.

    python3 perfbench/derive_band.py

Runs the workload's ``smartp samplesize`` command in-process once at
NUM_REF replicates per path with SEED_REF, a seed the benchmark never
passes (benchmark seeds are whatever the caller gives; 7919 is only used
here), and keeps the path moments ``compute_sample_size`` returns.

Del is a fixed linear combination of the path means, sum_p c_p mu_p, with
c_p = +-gamma for a regime's responder path and +-(1 - gamma) for its
non-responder path (signs from the two regimes; a shared responder path
cancels).  Paths are simulated on independent substreams, so at num
replicates Var(Del_hat) = sum_p c_p^2 sigma2_p / num.  The band for a
benchmark run at ``num`` is

    Del_ref +- 4 * sqrt(SE(num)^2 + SE(num_ref)^2),

the second term covering the error of the reference itself.  The result
and every input to it are written to ``perfbench/skewt_band.json``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import smartp.cli  # noqa: E402

from run import WORKLOADS  # noqa: E402

WIDTH_SE = 4.0
NUM_REF = 4_194_304
SEED_REF = 7919
WORKERS = 2  # the result does not depend on it


def main() -> int:
    w = WORKLOADS["skewt-sparse"]

    captured = {}
    compute = smartp.cli.compute_sample_size

    def keep(design, model, regime_ids, *a, **kw):
        result, eff = compute(design, model, regime_ids, *a, **kw)
        captured.update(design=design, regime_ids=regime_ids, result=result, eff=eff)
        return result, eff

    smartp.cli.compute_sample_size = keep
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    argv = w.command + ["--num", str(NUM_REF), "--seed", str(SEED_REF),
                        "--workers", str(WORKERS), "--json", str(out / "band-reference.json")]
    if smartp.cli.main(argv) != 0:
        return 1

    design, eff = captured["design"], captured["eff"]
    coef: dict[int, float] = {}
    for sign, rid in zip((1.0, -1.0), captured["regime_ids"]):
        r = design.regimes[rid]
        gamma = design.arms[r.arm].response_rate
        coef[r.responder_path] = coef.get(r.responder_path, 0.0) + sign * gamma
        coef[r.nonresp_path] = coef.get(r.nonresp_path, 0.0) + sign * (1.0 - gamma)
    var_unit = sum(c * c * eff.path_moments[p].sigma2 for p, c in coef.items())
    se_ref = math.sqrt(var_unit / NUM_REF)
    se_bench = math.sqrt(var_unit / w.num)
    half = WIDTH_SE * math.hypot(se_ref, se_bench)
    del_ref = captured["result"].delta
    band = {
        "num": w.num,
        "del_lo": del_ref - half,
        "del_hi": del_ref + half,
        "derivation": {
            "argv": argv[:-2],
            "num_ref": NUM_REF,
            "seed_ref": SEED_REF,
            "del_ref": del_ref,
            "coefficients": {str(p + 1): c for p, c in sorted(coef.items())},
            "path_sigma2": {str(p + 1): eff.path_moments[p].sigma2 for p in sorted(coef)},
            "path_redrawn": {str(p + 1): eff.path_moments[p].n_redrawn for p in sorted(coef)},
            "se_ref": se_ref,
            "se_at_num": se_bench,
            "width_se": WIDTH_SE,
            "formula": "del_ref +- width_se * sqrt(se_at_num^2 + se_ref^2), "
                       "se(n) = sqrt(sum_p c_p^2 sigma2_p / n)",
        },
    }
    (HERE / "skewt_band.json").write_text(json.dumps(band, indent=2) + "\n")
    print(json.dumps(band, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
