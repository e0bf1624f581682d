"""Command-line interface.

Subcommands::

    smartp samplesize      required N for a regime effect or a regime contrast
    smartp power           Monte Carlo power of the Wald test at a given N
    smartp solve-missing   recover (a0, b0) from targets (p_i, c_i)
    smartp describe-design print the paths/regimes/probability tables

Runs are configured by a JSON document (``--config``) with blocks
``design``, ``model``, ``test``, ``mc``; every scalar is also a flag and
flags win.  Exit codes: 0 success, 2 configuration error, 3 numeric or
infeasibility error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from .design import (
    SmartDesign,
    Stage1Mode,
    design_from_matrices,
    path_tables,
    periodontitis_default,
    stage1_probs,
    validate,
)
from .dists import SkewTParams
from .engine import compute_effect, compute_sample_size, test_kind_for
from .errors import ConfigError, SmartpError
from .missing import MissingnessParams, corr_y_m, prob_available, solve_missingness
from .moments import OutcomeModel
from .power import TestSpec, exact_n, required_n
from .simtrial import mc_power
from .spatial import CarModel, car_covariance, default_car_model, load_edge_list

SCHEMA_VERSION = 1
#: dests of the model-only flags, then of the design and Monte Carlo flags; --delta-std refuses both
MODEL_FLAGS = ("tau", "rho", "sigma1", "lambda_", "nu", "sigma0", "cutoff", "a0", "b0", "p_i",
               "c_i", "graph", "self_adjacent", "sigma_csv")
DESIGN_MC_FLAGS = ("design", "stage1_mode", "pi1_literal", "gamma", "mu_scalar", "mu_csv",
                   "regime", "num", "seed", "workers")
DEFAULTS = {
    "tau": 0.85,
    "rho": 0.975,
    "sigma1": 0.95,
    "lambda": 0.0,
    "nu": math.inf,
    "sigma0": 1.0,
    "cutoff": 0.0,
    "a0": -1.0,
    "b0": 0.5,
    "alpha": 0.05,
    "beta": 0.2,
    "num": 1_000_000,
    "reps": 5000,
    "workers": 1,
    "gamma1": 0.25,
    "gamma2": 0.5,
}


def _parse_nu(value) -> float:
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity"):
        return math.inf
    nu = float(value)
    if not nu > 0:
        raise ConfigError(f"nu must be > 0 or Inf, got {value!r}")
    return nu


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.6g}"


def _jsonable(obj):
    """Recursively convert to JSON-storable values; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return "Inf" if obj > 0 else "-Inf"
    return obj


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    schema = cfg.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema {schema}; this build reads schema 1")
    return cfg


def _merge_scalar(args, cfg_block: dict, name: str, flag_value, default):
    if flag_value is not None:
        return flag_value
    if name in cfg_block:
        return cfg_block[name]
    return default


def _resolve_mu(args, design_cfg: dict, n_paths: int, n_units: int) -> np.ndarray:
    if args.mu_csv is not None:
        with open(args.mu_csv, newline="") as fh:
            rows = [[float(x) for x in row] for row in csv.reader(fh) if row]
        mu = np.array(rows)
    elif args.mu_scalar is not None:
        scalars = [float(x) for x in args.mu_scalar.split(",")]
        mu = np.tile(np.array(scalars)[:, None], (1, n_units))
    elif "mu" in design_cfg and "mu_scalar_per_path" in design_cfg:
        raise ConfigError("give the path means once: mu matrix or mu_scalar_per_path")
    elif "mu" in design_cfg:
        mu = np.array(design_cfg["mu"], dtype=float)
    elif "mu_scalar_per_path" in design_cfg:
        mu = np.tile(np.array(design_cfg["mu_scalar_per_path"], dtype=float)[:, None], (1, n_units))
    else:
        mu = np.zeros((n_paths, n_units))
    if mu.shape[0] != n_paths:
        raise ConfigError(f"mu has {mu.shape[0]} rows but the design has {n_paths} paths")
    if mu.shape[1] != n_units:
        raise ConfigError(f"mu has {mu.shape[1]} columns but the design has {n_units} sub-units")
    return mu


def _build_design(args, cfg: dict) -> SmartDesign:
    design_cfg = cfg.get("design", {})
    name = args.design or design_cfg.get("name", "periodontitis-default")
    mode = args.stage1_mode or design_cfg.get("stage1_mode", "balanced")
    literal = args.pi1_literal or bool(design_cfg.get("pi1_literal", False))
    n_units = int(design_cfg.get("n_units", 28))

    if "st1" in design_cfg or "dtr" in design_cfg:
        if "st1" not in design_cfg or "dtr" not in design_cfg:
            raise ConfigError("custom designs need both st1 and dtr")
        st1 = np.array(design_cfg["st1"], dtype=float)
        dtr = np.array(design_cfg["dtr"], dtype=float)
        if args.gamma is not None:
            rates = [float(x) for x in args.gamma.split(",")]
            if len(rates) != st1.shape[0]:
                raise ConfigError(f"--gamma needs {st1.shape[0]} rates")
            st1[:, 2] = rates
        n_paths = int(max(dtr[:, 1].max(), dtr[:, 2].max()))
        mu = _resolve_mu(args, design_cfg, n_paths, n_units)
        try:
            return design_from_matrices(mu, st1, dtr, mode, literal)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if name != "periodontitis-default":
        raise ConfigError(f"unknown design {name!r}; built-ins: periodontitis-default")
    g1, g2 = DEFAULTS["gamma1"], DEFAULTS["gamma2"]
    if args.gamma is not None:
        rates = [float(x) for x in args.gamma.split(",")]
        if len(rates) != 2:
            raise ConfigError("--gamma needs 2 rates for the built-in design")
        g1, g2 = rates
    elif "gamma" in design_cfg:
        g1, g2 = (float(x) for x in design_cfg["gamma"])
    mu = _resolve_mu(args, design_cfg, 10, n_units)
    try:
        return periodontitis_default(g1, g2, mu, n_units, mode, literal)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_model(args, cfg: dict, n_units: int) -> tuple[OutcomeModel, dict]:
    model_cfg = cfg.get("model", {})
    get = lambda name, flag: _merge_scalar(args, model_cfg, name, flag, DEFAULTS.get(name))
    tau = float(get("tau", args.tau))
    rho = float(get("rho", args.rho))
    sigma1 = float(get("sigma1", args.sigma1))
    lam = float(get("lambda", args.lambda_))
    nu = _parse_nu(get("nu", args.nu))
    sigma0 = float(get("sigma0", args.sigma0))
    cutoff = float(get("cutoff", args.cutoff))

    graph_path = args.graph or model_cfg.get("graph")
    graph = load_edge_list(graph_path) if graph_path else None
    self_adj = model_cfg.get("self_adjacent", graph is None)
    if args.self_adjacent is not None:
        self_adj = args.self_adjacent
    try:
        if graph is None:
            graph = default_car_model(tau, rho, n_units).graph
        car = CarModel(graph, tau, rho, self_adj)
        st = SkewTParams(0.0, sigma1, lam, nu)
        mp = MissingnessParams(float(get("a0", args.a0)), float(get("b0", args.b0)), sigma0, cutoff)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    given = lambda *names: any(getattr(args, n) is not None or n in model_cfg for n in names)
    direct, targets = given("a0", "b0"), given("p_i", "c_i")
    if direct and targets:
        raise ConfigError("give either (a0, b0) or (p_i, c_i), not both")
    solved = {}
    if targets:
        p_i, c_i = get("p_i", args.p_i), get("c_i", args.c_i)
        if p_i is None or c_i is None:
            raise ConfigError("the target form needs both p_i and c_i")
        p_i, c_i = float(p_i), float(c_i)
        if not 0.0 < p_i < 1.0:
            raise ConfigError(f"p_i must be in (0,1), got {p_i}")
        mp = solve_missingness(p_i, c_i, car_covariance(car), st, sigma0, cutoff)
        solved = {"a0": mp.intercept, "b0": mp.loading, "p_i": p_i, "c_i": c_i}
    model = OutcomeModel(car, st, mp)
    resolved = {
        "tau": tau,
        "rho": rho,
        "sigma1": sigma1,
        "lambda": lam,
        "nu": nu,
        "sigma0": sigma0,
        "cutoff": cutoff,
        "a0": mp.intercept,
        "b0": mp.loading,
        "graph": graph_path,
        "self_adjacent": self_adj,
        **({"solved_from": solved} if solved else {}),
    }
    return model, resolved


def _regime_ids(args, cfg: dict, design: SmartDesign) -> tuple[int, ...]:
    test_cfg = cfg.get("test", {})
    raw = args.regime if args.regime is not None else test_cfg.get("regime", [1])
    if isinstance(raw, str):
        raw = raw.split(",")
    n_regimes = len(design.regimes)
    try:
        ids = tuple(int(x) - 1 for x in raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"regime must list one or two regime numbers, got {raw!r}") from exc
    if len(ids) not in (1, 2) or not all(0 <= i < n_regimes for i in ids):
        raise ConfigError(f"regime must list one or two regime numbers in 1..{n_regimes}")
    if len(ids) == 2 and ids[0] == ids[1]:
        raise ConfigError("cannot compare a regime against itself")
    return ids


def _alpha_beta(args, cfg: dict) -> tuple[float, float]:
    test_cfg = cfg.get("test", {})
    alpha = float(_merge_scalar(args, test_cfg, "alpha", args.alpha, DEFAULTS["alpha"]))
    if args.power is not None and args.beta is not None:
        raise ConfigError("give --power or --beta, not both")
    if args.power is not None:
        beta = 1.0 - float(args.power)
    elif args.beta is not None:
        beta = float(args.beta)
    elif "beta" in test_cfg:
        beta = float(test_cfg["beta"])
    elif "power" in test_cfg:
        beta = 1.0 - float(test_cfg["power"])
    else:
        beta = DEFAULTS["beta"]
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise ConfigError(f"alpha and beta must be in (0,1); got alpha={alpha}, beta={beta}")
    return alpha, beta


def _mc_params(args, cfg: dict) -> tuple[int, int, int, int]:
    mc_cfg = cfg.get("mc", {})
    num = int(_merge_scalar(args, mc_cfg, "num", args.num, DEFAULTS["num"]))
    reps = int(_merge_scalar(args, mc_cfg, "reps", getattr(args, "reps", None), DEFAULTS["reps"]))
    seed_env = os.environ.get("SMARTP_SEED")
    seed_default = int(seed_env) if seed_env is not None else 0
    seed = int(_merge_scalar(args, mc_cfg, "seed", args.seed, seed_default))
    workers = int(_merge_scalar(args, mc_cfg, "workers", args.workers, DEFAULTS["workers"]))
    n = getattr(args, "n", None)
    if min(num, reps, workers) < 1 or (n is not None and n < 1):
        raise ConfigError("num, reps, workers and n must be positive")
    return num, reps, seed, workers


def _report(args, command: str, inputs: dict, result: dict) -> None:
    """Print one aligned ``key value`` line per scalar of ``result``; write both dicts to --json."""
    scalars = {k: v for k, v in result.items() if not isinstance(v, list)}
    width = max(map(len, scalars)) + 1
    for key, value in scalars.items():
        print(f"{key:<{width}} {_fmt(value)}")
    if args.json:
        payload = {"schema": SCHEMA_VERSION, "command": command, "inputs": inputs, "result": result}
        Path(args.json).write_text(json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n")


def _write_sigma_csv(path: str, sigma: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in sigma:
            writer.writerow([repr(float(x)) for x in row])


def _trial_writer(fh, design: SmartDesign, n: int):
    """``mc_power`` chunk callback writing one CSV row per simulated cluster.

    The rows are byte-identical to ``csv.writer`` output with ``repr`` for
    Ybar.  The ``arm,R,path,`` field of a row is looked up by its
    (arm, responder, path) code and the ``,i,`` field by cluster number.
    """
    fh.write("rep,i,arm,R,path,Ybar,n_teeth\r\n")
    n_paths = len(design.paths)
    middles = [
        f"{a + 1},{r},{p + 1},"
        for a in range(len(design.arms))
        for r in (0, 1)
        for p in range(n_paths)
    ]
    clusters = [f",{i}," for i in range(1, n + 1)]

    def write(first_rep: int, ds) -> None:
        codes = ((2 * ds.arm + ds.responder) * n_paths + ds.path).tolist()
        ybar, n_units = ds.ybar.tolist(), ds.n_units.tolist()
        lines, j = [], 0
        for rep in range(first_rep + 1, first_rep + 1 + ds.n_clusters // n):
            for i in clusters:
                lines.append(f"{rep}{i}{middles[codes[j]]}{ybar[j]!r},{n_units[j]}\r\n")
                j += 1
        fh.write("".join(lines))

    return write


def _print_path_table(tables: dict[str, np.ndarray]) -> None:
    print("path  p_st1     p_st2     res  ga        initr")
    for i in range(len(tables["res"])):
        print(f"{i + 1:>4}  {tables['p_st1'][i]:<8.6g}  {tables['p_st2'][i]:<8.6g}  "
              f"{tables['res'][i]:<3}  {tables['ga'][i]:<8.6g}  {tables['initr'][i]}")


def cmd_samplesize(args) -> int:
    cfg = _load_config(args.config)
    alpha, beta = _alpha_beta(args, cfg)
    if args.delta_std is not None:
        for group in (MODEL_FLAGS, DESIGN_MC_FLAGS):
            ignored = [d for d in group if getattr(args, d) is not None]
            if ignored:
                flags = ", ".join("--" + d.rstrip("_").replace("_", "-") for d in ignored)
                raise ConfigError(f"{flags} ignored with --delta-std")
        delta_std = float(args.delta_std)
        if not 0.0 < delta_std < math.inf:
            raise ConfigError(f"--delta-std must be a positive number, got {args.delta_std}")
        sizing = (delta_std, 1.0, alpha, beta)
        result = {"N": required_n(*sizing), "N_exact": exact_n(*sizing), "Del_std": delta_std}
        _report(args, "samplesize", {"delta_std": delta_std, "alpha": alpha, "beta": beta}, result)
        return 0

    design = _build_design(args, cfg)
    num, _, seed, workers = _mc_params(args, cfg)
    model, resolved = _build_model(args, cfg, design.n_units)
    regime_ids = _regime_ids(args, cfg, design)
    size, eff = compute_sample_size(
        design, model, regime_ids, alpha, beta, num=num, seed=seed, workers=workers
    )
    tables = path_tables(design)
    inputs = {
        "model": resolved,
        "regime": [i + 1 for i in regime_ids],
        "alpha": alpha,
        "beta": beta,
        "num": num,
        "seed": seed,
    }
    result = {
        "N": size.n,
        "N_exact": size.n_exact,
        "Del": size.delta,
        "Del_std": size.delta_std,
        "ybard1": eff.ybard1,
        "ybard2": eff.ybard2,
        "sig.d1.sq": eff.sig_d1_sq,
        "sig.d2.sq": eff.sig_d2_sq,
        "sig.d1d2": eff.sig_d1d2,
        "sig.e.sq": eff.sig_e_sq,
        **{name: column.tolist() for name, column in tables.items()},
    }
    _report(args, "samplesize", inputs, result)
    _print_path_table(tables)
    if args.sigma_csv:
        _write_sigma_csv(args.sigma_csv, model.sigma.matrix)
    return 0


def cmd_power(args) -> int:
    cfg = _load_config(args.config)
    design = _build_design(args, cfg)
    model, resolved = _build_model(args, cfg, design.n_units)
    alpha, beta = _alpha_beta(args, cfg)
    num, reps, seed, workers = _mc_params(args, cfg)
    regime_ids = _regime_ids(args, cfg, design)

    eff = compute_effect(design, model, regime_ids, num, seed, workers)
    n = int(args.n) if args.n is not None else required_n(eff.delta, eff.sigma_sq, alpha, beta)
    test = TestSpec(test_kind_for(design, regime_ids), alpha, beta)
    with open(args.dump_trials, "w", newline="") if args.dump_trials else nullcontext() as fh:
        est = mc_power(
            design,
            model,
            test,
            regime_ids,
            n,
            eff.sigma_sq,
            reps=reps,
            seed=seed,
            workers=workers,
            empirical_variance=args.empirical_variance,
            on_chunk=_trial_writer(fh, design, n) if fh else None,
        )
    inputs = {
        "model": resolved,
        "regime": [i + 1 for i in regime_ids],
        "alpha": alpha,
        "beta": beta,
        "num": num,
        "reps": reps,
        "seed": seed,
        "empirical_variance": bool(args.empirical_variance),
    }
    result = {
        "N": n,
        "power": est.power,
        "se_power": est.se_power,
        "mean_abs_delta": est.mean_abs_delta,
        "MCSD": est.mcsd,
        "sigma_sq": eff.sigma_sq,
        "Del": eff.delta,
    }
    _report(args, "power", inputs, result)
    return 0


def cmd_solve_missing(args) -> int:
    cfg = _load_config(args.config)
    if args.p_i is None or args.c_i is None:
        raise ConfigError("solve-missing needs --p-i and --c-i")
    # force target form regardless of config contents
    args.a0 = args.b0 = None
    cfg.setdefault("model", {}).pop("a0", None)
    cfg["model"].pop("b0", None)
    design_units = int(cfg.get("design", {}).get("n_units", 28))
    model, _ = _build_model(args, cfg, design_units)
    result = {
        "a0": model.mp.intercept,
        "b0": model.mp.loading,
        "p_i": prob_available(model.mp, model.sigma),
        "c_i": corr_y_m(model.mp, model.sigma, model.st),
    }
    _report(args, "solve-missing", {"p_i": float(args.p_i), "c_i": float(args.c_i)}, result)
    return 0


def cmd_describe_design(args) -> int:
    cfg = _load_config(args.config)
    design = _build_design(args, cfg)
    issues = validate(design)
    print(f"sub-units per cluster: {design.n_units}")
    print(f"arms: {len(design.arms)}  paths: {len(design.paths)}  regimes: {len(design.regimes)}")
    literal = " (literal pi1)" if design.pi1_literal else ""
    print(f"stage1 mode: {design.stage1_mode.value}{literal}")
    graph_path = args.graph or cfg.get("model", {}).get("graph")
    if graph_path:
        print(f"graph: {graph_path}")
    pi1 = stage1_probs(design)
    for arm in design.arms:
        print(f"arm {arm.index + 1}: pi1={pi1[arm.index]:.6g} gamma={arm.response_rate:.6g} "
              f"options R/NR = {arm.n_resp_options}/{arm.n_nonresp_options}")
    for p in design.paths:
        mu = np.asarray(p.mu)
        mu_desc = f"{mu[0]:.6g}" if np.all(mu == mu[0]) else f"[{mu.min():.6g}..{mu.max():.6g}]"
        print(f"path {p.index + 1}: arm {p.arm + 1} {'R ' if p.responder else 'NR'} mu={mu_desc}")
    for r in design.regimes:
        print(f"regime {r.index + 1}: arm {r.arm + 1} responder->path {r.responder_path + 1} "
              f"non-responder->path {r.nonresp_path + 1}")
    _print_path_table(path_tables(design))
    if issues:
        print("violations:")
        for v in issues:
            print(f"  [{v.kind}] {v.detail}")
        return 2
    print("design ok")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (schema 1)")
    p.add_argument("--design", help="built-in design name (periodontitis-default)")
    p.add_argument("--stage1-mode", choices=[m.value for m in Stage1Mode], dest="stage1_mode")
    p.add_argument("--pi1-literal", action="store_true", default=None, dest="pi1_literal",
                   help="printed-form stage-1 weights (compatibility quirk)")
    p.add_argument("--gamma", help="comma list of per-arm response rates")
    mu = p.add_mutually_exclusive_group()
    mu.add_argument("--mu-scalar", dest="mu_scalar", help="comma list: one constant mean per path")
    mu.add_argument("--mu-csv", dest="mu_csv", help="CSV of per-path mean vectors (rows=paths)")
    p.add_argument("--graph", help="edge-list file overriding the tooth neighborhood")
    adj = p.add_mutually_exclusive_group()
    adj.add_argument("--self-adjacent", dest="self_adjacent", action="store_true", default=None)
    adj.add_argument("--no-self-adjacent", dest="self_adjacent", action="store_false", default=None)
    for flag, dest in [
        ("--tau", None), ("--rho", None), ("--sigma1", None), ("--lambda", "lambda_"),
        ("--sigma0", None), ("--cutoff", None), ("--a0", None), ("--b0", None),
        ("--p-i", "p_i"), ("--c-i", "c_i"), ("--alpha", None), ("--beta", None),
        ("--power", None),
    ]:
        p.add_argument(flag, type=float, dest=dest)
    p.add_argument("--nu", help="degrees of freedom, a number or Inf")
    p.add_argument("--regime", help="one or two regime numbers, e.g. 1,5")
    for flag in ("--num", "--seed", "--workers"):
        p.add_argument(flag, type=int)
    p.add_argument("--json", help="write the result as JSON to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smartp", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"smartp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [
        ("samplesize", cmd_samplesize),
        ("power", cmd_power),
        ("solve-missing", cmd_solve_missing),
        ("describe-design", cmd_describe_design),
    ]:
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(func=fn)
    samplesize, power = sub.choices["samplesize"], sub.choices["power"]
    samplesize.add_argument("--delta-std", type=float, dest="delta_std")
    samplesize.add_argument("--sigma-csv", dest="sigma_csv", help="write the CAR covariance as CSV")
    for flag in ("--reps", "--n"):
        power.add_argument(flag, type=int)
    power.add_argument("--dump-trials", dest="dump_trials", help="per-replicate CSV dump")
    power.add_argument("--empirical-variance", action="store_true", dest="empirical_variance",
                       help="studentize with the per-dataset variance instead of the design value")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SmartpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
