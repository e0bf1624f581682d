"""Command-line interface.

Subcommands::

    smartp samplesize      required N for a regime effect or a regime contrast
    smartp power           Monte Carlo power of the Wald test at a given N
    smartp solve-missing   recover (a0, b0) from targets (p_i, c_i)
    smartp describe-design print the paths/regimes/probability tables

Each parameter is a flag of the commands that read it and a key of one
block (``design``, ``model``, ``test``, ``mc``) of the JSON document given
by ``--config``; flags win.  A command takes only the flags it reads.
Exit codes: 0 success, 1 standard output closed early, 2 configuration
error, 3 numeric or infeasibility error.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # ``python -m smartp.cli``: no collection from numpy's import on
    gc.disable()

import argparse
import csv
import json
import math
import os
import re
import stat
import sys
import warnings
from contextlib import ExitStack, contextmanager, nullcontext, suppress
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .design import (
    SmartDesign,
    Stage1Mode,
    contrast_weights,
    design_from_matrices,
    path_tables,
    periodontitis_matrices,
    stage1_probs,
)
from .dists import SkewTParams
from .engine import compute_effect, compute_sample_size
from .errors import ConfigError, SmartpError
from .missing import MissingnessParams, corr_y_m, prob_available, solve_missingness
from .moments import OutcomeModel, estimate_path_moments
from .power import ALPHA_RANGE, alpha_in_range, exact_n, required_n
from .spatial import CarModel, car_covariance, load_edge_list, tooth_chain

SCHEMA_VERSION = 1
SAMPLESIZE, POWER, SOLVE, DESCRIBE = "samplesize", "power", "solve-missing", "describe-design"
#: the form ``samplesize --delta-std D``: it reads only the rows that list it and refuses the others
DELTA_STD = "samplesize --delta-std"
DESIGNED = {SAMPLESIZE, POWER, DESCRIBE}
MODELLED = {SAMPLESIZE, POWER, SOLVE}
SIMULATED = {SAMPLESIZE, POWER}
SIZED = {SAMPLESIZE, POWER, DELTA_STD}

#: range checks, each a predicate on the parsed value and what it requires; NaN fails them all
FINITE = (lambda x: bool(np.isfinite(x).all()), "finite")
POSITIVE = (lambda x: 0 < x < math.inf, "positive and finite")
UNIT = (lambda x: 0 < x < 1, "in (0, 1)")
COUNT = (lambda n: n >= 1, "positive")


#: size caps: MAX_DRAWS bounds the rows of one moments pass and the clusters over all of
#: ``power``'s trials (reps x N); MAX_N bounds the clusters of one trial
MAX_DRAWS, MAX_N = 10**9, 10**6


def _count(low: int, high: int) -> tuple[Callable, str]:
    """The range check of a whole number from low to high."""
    return (lambda n: low <= n <= high, f"in [{low}, {high}]")


def _items(raw) -> list:
    """A comma list given as a flag, or a JSON list from the config."""
    return raw.split(",") if isinstance(raw, str) else raw


def _float(raw) -> float:
    """A flag string or a JSON number; a bool is an error, not 1 or 0."""
    if isinstance(raw, bool):
        raise ValueError(f"not a number: {raw!r}")
    return float(raw)


def _floats(raw) -> np.ndarray:
    return np.array([_float(x) for x in _items(raw)])


def _int(raw) -> int:
    """A flag string or a JSON number; a bool or a fraction is an error, never truncated."""
    if isinstance(raw, bool) or isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"not an integer: {raw!r}")
    return int(raw)


def _bool(raw) -> bool:
    """A switch: a store_true flag, or a JSON true or false."""
    if not isinstance(raw, bool):
        raise ValueError(f"not a boolean: {raw!r}")
    return raw


def _ints(raw) -> tuple[int, ...]:
    return tuple(_int(x) for x in _items(raw))


def _matrix(raw) -> np.ndarray:
    m = np.array(raw, dtype=object)
    if m.ndim != 2:
        raise ValueError("not a matrix")
    return np.array([[_float(x) for x in row] for row in m])


def _csv_rows(path: str) -> list[list[str]]:
    """``--mu-csv`` names a CSV file of path rows; the ``mu`` row parses them as it does the config
    matrix."""
    try:
        with open(path, newline="") as fh:
            return [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


class Row(NamedTuple):
    name: str  # config key, argparse dest and inputs key
    flag: str | None
    block: str | None  # config block; None for a flag-only row
    parse: Callable  # raw flag string or JSON value -> value; _bool makes a store_true flag
    default: object
    check: tuple[Callable, str] | None
    commands: set[str]  # the commands that read the row


#: every parameter of the CLI, named once: its flag, config key, default, range check and the
#: commands that read it; the flags, the merge, the checks and the ``inputs`` echo come from here
TABLE = (
    Row("n_units", None, "design", _int, 28, COUNT, DESIGNED | {SOLVE}),
    Row("st1", None, "design", _matrix, None,
        (lambda m: m.shape[1] >= 3 and FINITE[0](m), "finite, 3 columns per arm"), DESIGNED),
    Row("dtr", None, "design", _matrix, None,
        (lambda m: m.shape[1] >= 4 and FINITE[0](m), "finite, 4 columns per regime"), DESIGNED),
    Row("gamma", "--gamma", "design", _floats, None,
        (lambda g: bool(((g >= 0) & (g <= 1)).all()), "rates in [0, 1]"), DESIGNED),
    Row("mu", "--mu-csv", "design", _matrix, None, FINITE, DESIGNED),
    Row("mu_scalar_per_path", "--mu-scalar", "design", _floats, None, FINITE, DESIGNED),
    Row("stage1_mode", "--stage1-mode", "design", Stage1Mode, Stage1Mode.BALANCED, None, DESIGNED),
    Row("tau", "--tau", "model", _float, 0.85, POSITIVE, MODELLED),
    Row("rho", "--rho", "model", _float, 0.975, (lambda x: 0 <= x < 1, "in [0, 1)"), MODELLED),
    Row("sigma1", "--sigma1", "model", _float, 0.95, POSITIVE, MODELLED),
    Row("lambda", "--lambda", "model", _float, 0.0, FINITE, MODELLED),
    # float reads "Inf", the normal-error limit; nu alone may be infinite
    Row("nu", "--nu", "model", _float, math.inf, (lambda x: x > 0, "positive or Inf"), MODELLED),
    Row("a0", "--a0", "model", _float, -1.0, FINITE, SIMULATED),
    Row("b0", "--b0", "model", _float, 0.5, FINITE, SIMULATED),
    Row("p_i", "--p-i", "model", _float, None, UNIT, MODELLED),
    Row("c_i", "--c-i", "model", _float, None, FINITE, MODELLED),
    Row("graph", "--graph", "model", str, None, None, MODELLED),
    # by default the built-in chain counts each tooth as its own neighbour; an edge list does not
    Row("self_adjacent", "--self-adjacent", "model", _bool, None, None, MODELLED),
    Row("delta_std", "--delta-std", None, _float, None, POSITIVE, {DELTA_STD}),
    Row("regime", "--regime", "test", _ints, (1,), None, SIMULATED),
    Row("alpha", "--alpha", "test", _float, 0.05, (alpha_in_range, ALPHA_RANGE), SIZED),
    Row("beta", "--beta", "test", _float, 0.2, UNIT, SIZED),
    Row("power", "--power", "test", _float, None,
        (lambda x: 0 < 1 - x < 1, "in (0, 1) and above 5.6e-17, so beta < 1"), SIZED),
    # a run at the size caps would take minutes; a mistyped size is refused, not run for hours
    Row("num", "--num", "mc", _int, 1_000_000, _count(1, MAX_DRAWS), SIMULATED),
    Row("reps", "--reps", "mc", _int, 5000, _count(2, 10**6), {POWER}),
    Row("seed", "--seed", "mc", _int, 0, (lambda s: s >= 0, "non-negative"), SIMULATED),
    # results do not depend on workers; the cap bounds the threads a run starts
    Row("workers", "--workers", "mc", _int, 1, _count(1, 64), SIMULATED),
    Row("n", "--n", None, _int, None, _count(1, MAX_N), {POWER}),
    Row("empirical_variance", "--empirical-variance", None, _bool, False, None, {POWER}),
    Row("sigma_csv", "--sigma-csv", None, str, None, None, {SAMPLESIZE}),
    Row("dump_trials", "--dump-trials", None, str, None, None, {POWER}),
)
#: rows the ``inputs`` echo leaves out besides the design: workers does not change the result,
#: power is echoed as beta, n is reported as N, and the rest name output files
NOT_ECHOED = {"workers", "power", "n", "sigma_csv", "dump_trials"}


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.6g}"


def _jsonable(obj):
    """Recursively convert to JSON-storable values; infinities become strings, NaN stays."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and math.isinf(obj):
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
    schema = cfg.pop("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema {schema}; this build reads schema 1")
    for block, keys in cfg.items():
        known = {row.name for row in TABLE if row.block == block}
        if not known:
            raise ConfigError(f"unknown config block {block!r}")
        if not isinstance(keys, dict):
            raise ConfigError(f"config block {block!r} must be a JSON object")
        unknown = sorted(set(keys) - known)
        if unknown:
            raise ConfigError(f"unknown key(s) in config block {block!r}: {', '.join(unknown)}")
    return cfg


def _lookup(args, cfg: dict, row: Row) -> tuple:
    """A row's raw value and its source: the flag, else the config key, else (None, None)."""
    if getattr(args, row.name, None) is not None:
        return getattr(args, row.name), row.flag
    if row.block and cfg.get(row.block, {}).get(row.name) is not None:
        return cfg[row.block][row.name], f"config {row.block}.{row.name}"
    return None, None


def _pick(given: dict, a: str, b: str) -> str | None:
    """Which of two rows that give one quantity to use.

    A flag beats the config; both in the config is an error.
    """
    both = [name for name in (a, b) if name in given]
    if len(both) < 2:
        return both[0] if both else None
    flagged = [name for name in both if given[name].startswith("--")]
    if len(flagged) != 1:
        raise ConfigError(f"give {given[a]} or {given[b]}, not both")
    return flagged[0]


def _resolve(args, cfg: dict, command: str) -> tuple[dict, dict]:
    """Every row ``command`` reads: its flag, else its config key, else its default.

    A given value is parsed and checked here, so a malformed or out-of-range
    one is a configuration error that names its parameter.  Returns the
    values and, for each given row, where it came from.
    """
    values, given = {}, {}
    for row in TABLE:
        if command not in row.commands:
            continue
        raw, where = _lookup(args, cfg, row)
        if raw is None:
            values[row.name] = row.default
            continue
        try:
            value = row.parse(raw)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{row.name} ({where}): cannot read {raw!r}") from None
        if row.check and not row.check[0](value):
            raise ConfigError(f"{row.name} ({where}) must be {row.check[1]}, got {raw}")
        values[row.name], given[row.name] = value, where
    if _pick(given, "beta", "power") == "power":
        values["beta"] = 1.0 - values["power"]
    if _pick(given, "mu", "mu_scalar_per_path") == "mu_scalar_per_path":
        values["mu"] = np.tile(values["mu_scalar_per_path"][:, None], (1, values["n_units"]))
    return values, given


def _inputs(values: dict, model: dict | None = None) -> dict:
    """The ``inputs`` echo: the model, then the rows read outside the design, in table order."""
    rest = {row.name: values[row.name] for row in TABLE if row.name in values
            and row.block not in ("design", "model") and row.name not in NOT_ECHOED}
    return {"model": model, **rest} if model else rest


def _build_design(v: dict) -> SmartDesign:
    st1, dtr, gamma, n_units = v["st1"], v["dtr"], v["gamma"], v["n_units"]
    if (st1 is None) != (dtr is None):
        raise ConfigError("custom designs need both st1 and dtr")
    if st1 is None:
        st1, dtr = periodontitis_matrices()
    if gamma is not None:
        if len(gamma) != st1.shape[0]:
            raise ConfigError(f"gamma needs {st1.shape[0]} rates")
        st1[:, 2] = gamma
    mu = np.zeros((int(dtr[:, 1:3].max()), n_units)) if v["mu"] is None else v["mu"]
    if mu.shape[1] != n_units:
        raise ConfigError(f"mu has {mu.shape[1]} columns but the design has {n_units} sub-units")
    try:
        return design_from_matrices(mu, st1, dtr, v["stage1_mode"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_model(v: dict, given: dict) -> tuple[OutcomeModel, dict]:
    """The outcome model and its echo: the model rows, with (a0, b0) as solved from any targets."""
    self_adj = v["graph"] is None if v["self_adjacent"] is None else v["self_adjacent"]
    try:
        graph = load_edge_list(v["graph"]) if v["graph"] else tooth_chain(v["n_units"])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"graph ({v['graph']}): {exc}") from exc
    if graph.size != v["n_units"]:
        raise ConfigError(f"graph ({v['graph']}) has {graph.size} sub-units "
                          f"but design.n_units is {v['n_units']}")
    car = CarModel(graph, v["tau"], v["rho"], self_adj)
    st = SkewTParams(0.0, v["sigma1"], v["lambda"], v["nu"])
    direct, targets = {"a0", "b0"} & given.keys(), {"p_i", "c_i"} & given.keys()
    if direct and targets:
        raise ConfigError("give either (a0, b0) or (p_i, c_i), not both")
    if targets:
        if len(targets) < 2:
            raise ConfigError("the target form needs both p_i and c_i")
        mp = solve_missingness(v["p_i"], v["c_i"], car_covariance(car), st)
    else:
        mp = MissingnessParams(v["a0"], v["b0"])
    resolved = {**v, "a0": mp.intercept, "b0": mp.loading, "self_adjacent": self_adj}
    echo = {row.name: resolved[row.name] for row in TABLE
            if row.block == "model" and row.name not in ("p_i", "c_i")}
    if targets:
        echo["solved_from"] = {
            "a0": mp.intercept, "b0": mp.loading, "p_i": v["p_i"], "c_i": v["c_i"]
        }
    return OutcomeModel(car, st, mp), echo


def _setup(v: dict, given: dict):
    """What ``samplesize`` and ``power`` simulate: (design, model, model echo, regime ids)."""
    design = _build_design(v)
    model, model_echo = _build_model(v, given)
    ids = tuple(r - 1 for r in v["regime"])
    try:
        contrast_weights(design, ids)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return design, model, model_echo, ids


def _report(json_fh, command: str, inputs: dict, result: dict, lines: list[str]) -> None:
    """Print one aligned ``key value`` line per scalar of ``result``, then ``lines``; write both
    dicts to the open --json file, if any.  A NaN anywhere in ``result`` is an error naming its
    key, raised before anything is printed."""
    if undefined := [key for key, value in result.items() if np.isnan(value).any()]:
        raise ValueError(f"the result is not a number (NaN): {', '.join(undefined)}")
    scalars = {k: v for k, v in result.items() if not isinstance(v, list)}
    width = max(map(len, scalars), default=0) + 1
    for key, value in scalars.items():
        print(f"{key:<{width}} {_fmt(value)}")
    for line in lines:
        print(line)
    if json_fh:
        payload = {"schema": SCHEMA_VERSION, "command": command, "inputs": inputs, "result": result}
        with _cannot_write(json_fh.name), json_fh:
            json_fh.write(json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n")


@contextmanager
def _outputs(**paths: str | None):
    """Open the output files, each given by its flag's name (``json``, ``sigma_csv``,
    ``dump_trials``; None for one not given), and yield them in that order.  ``main`` opens them
    before the plan runs, so a path that cannot be written, or two flags that name one file,
    fail first, as a config error.  A regular file is written as a new file beside it
    (``_open_output``), which replaces it only when the block succeeds; any other way out
    removes the new files, so a run that fails leaves every output as it was."""
    seen, moves = {}, []
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(_open_output(path, "--" + name.replace("_", "-"), seen,
                                                    moves)) if path else None
                   for name, path in paths.items()]
        for new, target, path in moves:
            with _cannot_write(path):
                with suppress(FileNotFoundError):  # an existing target keeps its mode
                    os.chmod(new, stat.S_IMODE(os.stat(target).st_mode))
                os.replace(new, target)
    except BaseException:
        for new, _, _ in moves:
            with suppress(OSError):
                os.remove(new)
        raise


def _open_output(path: str, flag: str, seen: dict, moves: list):
    """``path`` opened for writing: a device or pipe (/dev/full) in place, else a new file beside
    the file ``path`` names (through any symlink), appended to ``moves`` as (new file, target,
    path).  Two flags that name one file (by inode, or by real path for a new one) are refused,
    and so is an existing file that cannot be written."""
    with _cannot_write(path):
        try:  # through any link, so a pipe named /dev/stdout or /dev/fd/N is written in place
            st = os.stat(path)
        except FileNotFoundError:
            st = None
        if st and not stat.S_ISREG(st.st_mode):
            return open(path, "w", newline="")
        target = os.path.realpath(path)
        if (other := seen.setdefault((st.st_dev, st.st_ino) if st else target, flag)) != flag:
            raise ConfigError(f"{other} and {flag} name the same file {path}")
        if st:
            os.close(os.open(target, os.O_WRONLY))
        new = f"{target}.{os.getpid()}.tmp"
        # the handle is named by path, so every message names the file the user gave
        fh = open(path, "x", newline="", opener=lambda _, flags: os.open(new, flags))
        moves.append((new, target, path))
        return fh


@contextmanager
def _cannot_write(path: str):
    """An OSError in the block is a config error naming the output ``path``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


@contextmanager
def _trial_writer(fh, design: SmartDesign, n: int):
    """Yield the ``mc_power`` chunk callback that has the helper ``_dump`` write one CSV row per
    simulated cluster to the open file ``fh``, formatting chunk c while the trials of chunk c+1
    run; close the helper's input and wait for it on the way out.  A helper that stops early or
    fails to write is a config error naming the file."""
    # imported here, not at the top, so that no other command's start-up pays for them
    import subprocess

    from . import _dump

    fields = [f"{p.arm + 1},{int(p.responder)},{p.index + 1}" for p in design.paths]
    helper = subprocess.Popen([sys.executable, "-I", "-S", _dump.__file__, str(n), *fields],
                              stdin=subprocess.PIPE, stdout=fh)

    def failed() -> ConfigError:
        status = helper.wait()
        # an OSError's errno, or 1 when the helper itself failed, or minus a signal
        reason = (os.strerror(status) if status > 1
                  else f"the dump writer exited with status {status}")
        return ConfigError(f"cannot write {fh.name}: {reason}")

    def send(first_rep: int, ds) -> None:
        try:
            helper.stdin.write(_dump.HEAD.pack(first_rep, ds.n_clusters))
            for column in (ds.path.astype(np.int32), ds.n_units.astype(np.int32),
                           np.ascontiguousarray(ds.ybar, np.float64)):
                helper.stdin.write(column)
        except BrokenPipeError:
            raise failed() from None

    try:
        yield send
    finally:
        with suppress(BrokenPipeError):
            helper.stdin.close()
        helper.wait()
    if helper.returncode:
        raise failed()


def _path_tables(design: SmartDesign) -> tuple[dict[str, list], list[str]]:
    """The per-path tables as result lists, and as the lines of the printed table."""
    t = {name: column.tolist() for name, column in path_tables(design).items()}
    return t, ["path  p_st1     p_st2     res  ga        initr"] + [
        f"{i + 1:>4}  {t['p_st1'][i]:<8.6g}  {t['p_st2'][i]:<8.6g}  {t['res'][i]:<3}  "
        f"{t['ga'][i]:<8.6g}  {t['initr'][i]}" for i in range(len(t["res"]))]


# A plan: (values, given) from ``_resolve``, and its command's open side output if any, to
# (inputs, result, lines) for ``_report``.  It prints nothing and writes only to that output.

def plan_samplesize(v: dict, given: dict, sigma_csv=None) -> tuple[dict, dict, list[str]]:
    """N for the regime effect or contrast, its moments and the path tables; the CAR covariance
    goes to the open ``sigma_csv`` file, if any."""
    design, model, model_echo, regime_ids = _setup(v, given)
    size, eff = compute_sample_size(design, model, regime_ids, v["alpha"], v["beta"],
                                    num=v["num"], seed=v["seed"], workers=v["workers"])
    tables, table_lines = _path_tables(design)
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
        **tables,
    }
    if sigma_csv:
        with _cannot_write(sigma_csv.name), sigma_csv:
            csv.writer(sigma_csv).writerows([repr(float(x)) for x in row]
                                            for row in model.sigma.matrix)
    return _inputs(v, model_echo), result, table_lines


def plan_delta_std(v: dict, given: dict) -> tuple[dict, dict, list[str]]:
    """``samplesize --delta-std D``: N for a given standardized effect, with no simulation."""
    sizing = (v["delta_std"], 1.0, v["alpha"], v["beta"])
    result = {"N": required_n(*sizing), "N_exact": exact_n(*sizing), "Del_std": v["delta_std"]}
    return _inputs(v), result, []


def plan_power(v: dict, given: dict, dump_trials=None) -> tuple[dict, dict, list[str]]:
    """Monte Carlo power of the Wald test at n, else at the formula's N; one CSV row per
    simulated cluster goes to the open ``dump_trials`` file, if any."""
    from .simtrial import mc_power, require_power_n  # imported here: only power runs trials

    design, model, model_echo, regime_ids = _setup(v, given)
    alpha, beta, seed, workers, reps = v["alpha"], v["beta"], v["seed"], v["workers"], v["reps"]
    if v["n"] is not None:
        require_power_n(v["n"], v["empirical_variance"])
        if v["n"] * reps > MAX_DRAWS:
            raise ConfigError(f"n ({given['n']}) x reps must be at most {MAX_DRAWS}, "
                              f"got {v['n']} x {reps}")
    eff = compute_effect(design, estimate_path_moments(model, v["num"], seed, workers), regime_ids)
    n = v["n"] or required_n(eff.delta, eff.sigma_sq, alpha, beta)
    if n > MAX_N or n * reps > MAX_DRAWS:  # only the formula's: --n is checked above
        raise ValueError(f"the formula's N = {n} is too large to simulate: power takes at most "
                         f"{MAX_N} clusters per trial and {MAX_DRAWS} in all (reps x N)")
    with _trial_writer(dump_trials, design, n) if dump_trials else nullcontext() as on_chunk:
        est = mc_power(design, model, alpha, regime_ids, n, eff.sigma_sq,
                       reps=reps, seed=seed, workers=workers,
                       empirical_variance=v["empirical_variance"], on_chunk=on_chunk)
    result = {"N": n, "power": est.power, "se_power": est.se_power,
              "mean_abs_delta": est.mean_abs_delta, "MCSD": est.mcsd, "sigma_sq": eff.sigma_sq,
              "Del": eff.delta}
    return _inputs(v, model_echo), result, []


def plan_solve_missing(v: dict, given: dict) -> tuple[dict, dict, list[str]]:
    """(a0, b0) from the targets (p_i, c_i), and the p_i and c_i that they give back."""
    if not {"p_i", "c_i"} <= given.keys():
        raise ConfigError("solve-missing needs p_i and c_i")
    model, _ = _build_model(v, given)
    result = {"a0": model.mp.intercept, "b0": model.mp.loading,
              "p_i": prob_available(model.mp, model.sigma),
              "c_i": corr_y_m(model.mp, model.sigma, model.st)}
    return {"p_i": v["p_i"], "c_i": v["c_i"]}, result, []


def plan_describe_design(v: dict, given: dict) -> tuple[dict, dict, list[str]]:
    """The design's arms, paths and regimes, then its path tables and ``design ok``."""
    design = _build_design(v)
    lines = [f"sub-units per cluster: {design.n_units}",
             f"arms: {len(design.arms)}  paths: {len(design.paths)}  regimes: {len(design.regimes)}",
             f"stage1 mode: {design.stage1_mode.value}"]
    pi1 = stage1_probs(design)
    lines += [f"arm {arm.index + 1}: pi1={pi1[arm.index]:.6g} gamma={arm.response_rate:.6g} "
              f"options R/NR = {arm.n_resp_options}/{arm.n_nonresp_options}" for arm in design.arms]
    for p in design.paths:
        mu = np.asarray(p.mu)
        mu_desc = f"{mu[0]:.6g}" if np.all(mu == mu[0]) else f"[{mu.min():.6g}..{mu.max():.6g}]"
        lines.append(f"path {p.index + 1}: arm {p.arm + 1} {'R ' if p.responder else 'NR'} "
                     f"mu={mu_desc}")
    lines += [f"regime {r.index + 1}: arm {r.arm + 1} responder->path {r.responder_path + 1} "
              f"non-responder->path {r.nonresp_path + 1}" for r in design.regimes]
    tables, table_lines = _path_tables(design)
    return {}, tables, [*lines, *table_lines, "design ok"]


PLANS = {SAMPLESIZE: plan_samplesize, DELTA_STD: plan_delta_std, POWER: plan_power,
         SOLVE: plan_solve_missing, DESCRIBE: plan_describe_design}


def _add_flags(parser: argparse.ArgumentParser, reads: set[str]) -> None:
    """Register the flag of every row that one of ``reads`` reads."""
    parser.add_argument("--config", help="JSON config file (schema 1)")
    for row in TABLE:
        if row.flag is None or not row.commands & reads:
            continue
        kw = {"action": "store_true", "default": None} if row.parse is _bool else {}
        if row.name == "mu":
            kw["type"] = _csv_rows
        # one row with two flags: they exclude each other; two rows for one quantity are _pick's
        target = parser.add_mutually_exclusive_group() if row.name == "self_adjacent" else parser
        target.add_argument(row.flag, dest=row.name,
                            help=f"config {row.block}.{row.name}" if row.block else None, **kw)
        if row.name == "self_adjacent":
            target.add_argument("--no-self-adjacent", dest=row.name, action="store_false",
                                default=None)
    parser.add_argument("--json", help="write the result as JSON to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smartp", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"smartp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (SAMPLESIZE, POWER, SOLVE, DESCRIBE):
        p = sub.add_parser(name)
        # a value may start like any negative number (-1e-3, -1,0.5), not only -1 or -0.5
        p._negative_number_matcher = re.compile(r"-\.?\d")
        _add_flags(p, {name, DELTA_STD} if name == SAMPLESIZE else {name})
    return parser


def _command(args) -> tuple[str, dict, dict]:
    """The plan ``args`` name (``samplesize --delta-std`` refuses the rows it does not read),
    and its values and their sources from ``_resolve``."""
    cfg, command = _load_config(args.config), args.command
    if getattr(args, "delta_std", None) is not None:
        refused = [_lookup(args, cfg, row)[1] for row in TABLE
                   if SAMPLESIZE in row.commands and DELTA_STD not in row.commands]
        if ignored := [where for where in refused if where]:
            raise ConfigError(f"{', '.join(ignored)} ignored with --delta-std")
        command = DELTA_STD
    return (command, *_resolve(args, cfg, command))


def plan(argv: list[str]) -> tuple[dict, dict, list[str]]:
    """The (inputs, result, lines) that ``smartp *argv`` reports, with nothing printed and no
    file written: the output flags are read but not used."""
    command, values, given = _command(build_parser().parse_args(argv))
    return PLANS[command](values, given)


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """``warnings.formatwarning`` while ``main`` runs: the message, after its category unless that
    is UserWarning, with no source path or line, so that stderr stays the same across edits."""
    kind = "" if category is UserWarning else f"{category.__name__}: "
    return f"warning: {kind}{message}\n"


def main(argv: list[str] | None = None) -> int:
    """Run one command: resolve its values, open its outputs, run its plan, print and write the
    report, and only then put the outputs in place.  Returns the exit code."""
    args = build_parser().parse_args(argv)
    format_warning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        command, values, given = _command(args)
        sides = {name: values[name] for name in ("sigma_csv", "dump_trials") if name in values}
        with _outputs(json=args.json, **sides) as (json_fh, *side):
            _report(json_fh, args.command, *PLANS[command](values, given, *side))
            sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return 0
    except BrokenPipeError:
        # the reader is gone: send what is left to devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SmartpError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OverflowError, FloatingPointError):
        print("error: the computation overflowed; an input is too large", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = format_warning


def script(argv: list[str] | None = None) -> int:
    """The ``smartp`` command: ``main`` with the cycle collector off, and the heap frozen before
    exit so that the interpreter's last collection skips it.  A run leaves a few hundred cyclic
    objects whatever its size, so it collects none; ``main`` keeps the collector as it finds it."""
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(script())
