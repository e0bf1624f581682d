import argparse
import csv
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from smartp import cli, engine, simtrial
from smartp import car_covariance, default_car_model, ipw_estimate, periodontitis_default
from smartp.moments import estimate_path_moments
from smartp.power import required_n
from smartp.simtrial import PowerEstimate, TrialDataset

BASE_ARGS = [sys.executable, "-m", "smartp.cli"]
WORKED = [
    "--regime", "1,5",
    "--p-i", "0.8027872",
    "--c-i", "0.4125813",
    "--mu-scalar", "0,0.5,0,2,0,0,5,0,0,0",
]
#: skew-t errors at 30% availability: about 0.1% of replicates and clusters are redrawn
SKEWT_SPARSE = [
    "--regime", "1,3", "--lambda", "10", "--nu", "5", "--p-i", "0.3", "--c-i", "0.4",
    "--mu-scalar", "0,0.5,0,2,0,0,0,0,0,0",
]


def run_cli(*args, env_extra=None, check=True, timeout=None):
    env = dict(os.environ)
    env.pop("SMARTP_SEED", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        BASE_ARGS + list(args), capture_output=True, text=True, env=env, timeout=timeout
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
    return proc


def test_describe_default_design():
    out = run_cli("describe-design").stdout
    assert "paths: 10" in out and "regimes: 8" in out
    assert "design ok" in out


def test_describe_json_holds_the_path_table(tmp_path):
    """``describe-design --json`` writes the path-table columns that ``samplesize --json`` does."""
    described, sized = tmp_path / "d.json", tmp_path / "s.json"
    run_cli("describe-design", "--gamma", "0.3,0.6", "--json", str(described))
    run_cli("samplesize", *WORKED, "--gamma", "0.3,0.6", "--num", "20000", "--seed", "1",
            "--json", str(sized))
    payload = json.loads(described.read_text())
    assert list(payload) == ["schema", "command", "inputs", "result"]
    assert payload["schema"] == 1 and payload["command"] == "describe-design"
    assert payload["inputs"] == {}
    table = json.loads(sized.read_text())["result"]
    assert payload["result"] == {name: table[name] for name in ("p_st1", "p_st2", "res", "ga", "initr")}


def test_closed_pipe_exits_1_without_a_traceback():
    """The reader leaves before the first line: exit 1 and nothing on stderr."""
    proc = subprocess.Popen(BASE_ARGS + ["describe-design"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_describe_invalid_design_reports_violations(tmp_path):
    cfg = {
        "schema": 1,
        "design": {
            "n_units": 4,
            "st1": [[1, 2, 0.4]],
            "dtr": [[1, 1, 2, 1], [2, 1, 3, 1]],
            "mu_scalar_per_path": [0, 1, 2],
        },
    }
    p = tmp_path / "bad.json"
    # arm 1 claims two responder options, but only path 1 is a responder path
    cfg["design"]["st1"] = [[2, 2, 0.4]]
    p.write_text(json.dumps(cfg))
    proc = run_cli("describe-design", "--config", str(p), check=False)
    assert proc.returncode == 2
    assert proc.stderr == (
        "config error: invalid design: arm 1 declares 2 responder options "
        "but has 1 responder paths\n"
    )


def test_samplesize_delta_std_direct():
    out = run_cli("samplesize", "--delta-std", "0.45").stdout
    assert out.splitlines()[0].split() == ["N", "78"]


def test_samplesize_worked_example_small(tmp_path):
    out_json = tmp_path / "r.json"
    proc = run_cli(
        "samplesize", *WORKED, "--num", "50000", "--seed", "7", "--json", str(out_json)
    )
    n_line = proc.stdout.splitlines()[0].split()
    assert n_line[0] == "N"
    assert 190 <= int(n_line[1]) <= 204
    payload = json.loads(out_json.read_text())
    assert payload["result"]["N"] == int(n_line[1])
    assert payload["inputs"]["model"]["a0"] == pytest.approx(-1.0, abs=1e-3)
    # JSON round-trip preserves every numeric field exactly
    assert json.loads(json.dumps(payload)) == payload


def test_single_regime_zeroes_second_block(tmp_path):
    out_json = tmp_path / "r.json"
    run_cli(
        "samplesize", "--regime", "1", "--mu-scalar", "0,2,0,0,0,0,0,0,0,0",
        "--num", "20000", "--seed", "3", "--json", str(out_json),
    )
    res = json.loads(out_json.read_text())["result"]
    assert res["sig.d2.sq"] == 0.0 and res["sig.d1d2"] == 0.0
    assert res["ybard2"] == 0.0


def test_cli_determinism_across_runs_and_workers(tmp_path):
    """Also on the model that redraws, over three chunks (118 redraws at seed 42)."""
    for name, model, num in (("worked", WORKED, "30000"), ("skewt", SKEWT_SPARSE, "140000")):
        args = ["samplesize", *model, "--num", num, "--seed", "42"]
        outs = []
        for i, extra in enumerate((["--workers", "1"], ["--workers", "1"], ["--workers", "4"])):
            j = tmp_path / f"{name}{i}.json"
            proc = run_cli(*args, *extra, "--json", str(j))
            outs.append((proc.stdout, j.read_bytes()))
        assert outs[0] == outs[1] == outs[2], name


def test_env_seed_fallback(tmp_path):
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("samplesize", *WORKED, "--num", "20000", "--seed", "5", "--json", str(j1))
    run_cli(
        "samplesize", *WORKED, "--num", "20000", "--json", str(j2),
        env_extra={"SMARTP_SEED": "5"},
    )
    assert j1.read_bytes() == j2.read_bytes()


def test_solve_missing_golden():
    out = run_cli(
        "solve-missing", "--p-i", "0.8027872", "--c-i", "0.4125813"
    ).stdout.splitlines()
    vals = {line.split()[0]: float(line.split()[1]) for line in out}
    assert vals["a0"] == pytest.approx(-1.0, abs=1e-3)
    assert vals["b0"] == pytest.approx(0.5, abs=1e-3)


def test_conflicting_missingness_inputs_exit_2():
    proc = run_cli(
        "samplesize", "--a0", "-1", "--p-i", "0.8", "--c-i", "0.4", check=False
    )
    assert proc.returncode == 2
    assert "not both" in proc.stderr


def test_infeasible_target_exit_3():
    proc = run_cli(
        "solve-missing", "--p-i", "0.8", "--c-i", "0.99", check=False
    )
    assert proc.returncode == 3
    assert "attainable" in proc.stderr or "supremum" in proc.stderr


def test_sigma_csv_matches_library(tmp_path):
    f = tmp_path / "sigma.csv"
    proc = run_cli(
        "samplesize", "--delta-std", "0.45", "--sigma-csv", str(f),
        "--num", "1000", check=False,
    )
    # --delta-std skips the model, so it refuses model-only flags
    assert proc.returncode == 2
    assert "--sigma-csv ignored with --delta-std" in proc.stderr and not f.exists()
    run_cli(
        "samplesize", "--regime", "1", "--mu-scalar", "0,1,0,0,0,0,0,0,0,0",
        "--num", "20000", "--sigma-csv", str(f),
    )
    with open(f, newline="") as fh:
        rows = [[float(x) for x in row] for row in csv.reader(fh)]
    got = np.array(rows)
    want = car_covariance(default_car_model()).matrix
    assert got.shape == (28, 28)
    assert np.array_equal(got, want)


def test_power_command_and_dump(tmp_path):
    dump = tmp_path / "trials.csv"
    j = tmp_path / "p.json"
    proc = run_cli(
        "power", "--regime", "1", "--mu-scalar", "0,2,0,0,0,0,0,0,0,0",
        "--num", "30000", "--reps", "40", "--n", "50", "--seed", "9",
        "--dump-trials", str(dump), "--json", str(j),
    )
    assert proc.stdout.splitlines()[0].split() == ["N", "50"]
    payload = json.loads(j.read_text())
    assert 0.0 <= payload["result"]["power"] <= 1.0
    assert [line.split()[0] for line in proc.stdout.splitlines()] == list(payload["result"])
    with open(dump, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rep", "i", "arm", "R", "path", "Ybar", "n_teeth"]
    assert len(rows) == 1 + 40 * 50


def test_dump_reproduces_power_from_the_same_draws(tmp_path):
    """Per-rep IPW estimates recomputed from the dump give the JSON's mean |delta| and MCSD; the
    dump and the JSON are byte-identical across --workers, also on the model that redraws."""
    reps, n = 150, 120  # two chunks, the second one short
    for name, model, regime_ids in (("worked", WORKED, (0, 4)), ("skewt", SKEWT_SPARSE, (0, 2))):
        args = ["power", *model, "--num", "20000", "--reps", str(reps), "--n", str(n),
                "--seed", "13"]
        dumps = {w: tmp_path / f"{name}-t{w}.csv" for w in ("1", "2")}
        jsons = {w: tmp_path / f"{name}-p{w}.json" for w in ("1", "2")}
        for workers in ("1", "2"):
            run_cli(*args, "--workers", workers, "--json", str(jsons[workers]),
                    "--dump-trials", str(dumps[workers]))
        assert dumps["1"].read_bytes() == dumps["2"].read_bytes(), name
        assert jsons["1"].read_bytes() == jsons["2"].read_bytes(), name
        assert dumps["1"].read_bytes().count(b"\r\n") == 1 + reps * n

        with open(dumps["1"], newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        cols = np.array([[float(x) for x in row] for row in rows])
        assert np.array_equal(cols[:, 0], np.repeat(np.arange(1, reps + 1), n))
        assert np.array_equal(cols[:, 1], np.tile(np.arange(1, n + 1), reps))
        assert (cols[:, 6] >= 1).all()
        mu_scalar = np.array([float(x) for x in model[model.index("--mu-scalar") + 1].split(",")])
        design = periodontitis_default(mu=np.tile(mu_scalar[:, None], (1, 28)))
        path_arm_r = np.array([[p.arm + 1, int(p.responder)] for p in design.paths])
        assert np.array_equal(cols[:, 2:4], path_arm_r[cols[:, 4].astype(int) - 1])
        deltas = []
        for r in range(reps):
            c = cols[r * n:(r + 1) * n]
            ds = TrialDataset(c[:, 4].astype(int) - 1, c[:, 5], c[:, 6].astype(int))
            deltas.append(ipw_estimate(ds, design, regime_ids))
        result = json.loads(jsons["1"].read_text())["result"]
        assert result["mean_abs_delta"] == pytest.approx(np.mean(np.abs(deltas)), rel=1e-12)
        assert result["MCSD"] == pytest.approx(np.std(deltas, ddof=1), rel=1e-12)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("n, reps", [(20, 100), (197, 200)], ids=["within-pipe", "past-pipe"])
def test_dump_to_a_full_disk_exits_2(capsys, n, reps):
    """A dump the disk cannot take is a config error naming the file and the errno, with nothing
    printed; the helper fails on its first write, whether the trials fit in the pipe to it and
    finish first (32 kB) or not (630 kB, a broken pipe in the middle of the trials)."""
    assert cli.main(["power", *SIZED, "--n", str(n), "--reps", str(reps),
                     "--dump-trials", "/dev/full"]) == 2
    printed = capsys.readouterr()
    assert printed.err == "config error: cannot write /dev/full: No space left on device\n"
    assert printed.out == ""


def test_every_dump_writer_has_exited_when_main_returns(tmp_path, monkeypatch, capsys):
    """Each helper that ``power --dump-trials`` starts has exited when ``cli.main`` returns: on
    success, on a failure after the trials, and when the helper exits at once, which is a
    config error naming the dump file (never the closed-stdout exit 1).  That helper's input,
    16351 rows of 16 bytes in the first chunk, is more than a pipe holds, so it breaks."""
    started, popen, replacement = [], subprocess.Popen, {}

    def start(args, **kwargs):
        started.append(popen(replacement.get("args", args), **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", start)
    dump = str(tmp_path / "trials.csv")
    zero_plug_in = ["power", "--empirical-variance", "--regime", "2,3", *WORKED[2:6], "--n", "3",
                    "--reps", "200", "--num", "20000", "--seed", "1"]
    for argv, code in ((["power", *SIZED, "--n", "20", "--reps", "100"], 0), (zero_plug_in, 3)):
        assert cli.main(argv + ["--dump-trials", dump]) == code
        assert len(started) == 1 and started.pop().poll() is not None

    replacement["args"] = [sys.executable, "-c", "pass"]
    argv = ["power", *SIZED, "--n", "197", "--reps", "200", "--dump-trials", dump]
    assert cli.main(argv) in (2, 3)
    assert len(started) == 1 and started.pop().poll() is not None
    assert f"cannot write {dump}: " in capsys.readouterr().err


def test_power_small_n_with_a_few_redraws_succeeds():
    """About 0.09% of clusters are redrawn: a handful per run, more than 1% of one 40-cluster trial."""
    proc = run_cli(
        "power", "--regime", "1,3", "--lambda", "10", "--nu", "5", "--p-i", "0.3", "--c-i", "0.4",
        "--mu-scalar", "0,0.5,0,2,0,0,0,0,0,0", "--num", "65536", "--reps", "2000", "--n", "40",
        "--seed", "3", check=False, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split() == ["N", "40"]


def test_power_near_total_missingness_exits_3():
    proc = run_cli(
        "power", "--regime", "1", "--a0", "6", "--b0", "0", "--num", "20000", "--reps", "200",
        "--n", "40", "--seed", "3", check=False, timeout=120,
    )
    assert proc.returncode == 3
    assert "near-total" in proc.stderr


def test_power_reps_seed_reproducible(tmp_path):
    args = [
        "power", "--regime", "1", "--mu-scalar", "0,2,0,0,0,0,0,0,0,0",
        "--num", "20000", "--reps", "100", "--n", "40", "--seed", "7",
    ]
    a = run_cli(*args).stdout
    b = run_cli(*args).stdout
    assert a == b


def test_mu_csv_input(tmp_path):
    mu = np.zeros((10, 28))
    mu[1] = 1.0
    f = tmp_path / "mu.csv"
    with open(f, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in mu:
            w.writerow(row)
    out = run_cli(
        "samplesize", "--regime", "1", "--mu-csv", str(f), "--num", "20000"
    ).stdout
    assert out.splitlines()[0].startswith("N")


def test_graph_override(tmp_path):
    edges = tmp_path / "arches.txt"
    lines = [f"{t} {t + 1}" for t in range(1, 14)] + [f"{t} {t + 1}" for t in range(15, 28)]
    edges.write_text("\n".join(lines) + "\n")
    out = run_cli(
        "samplesize", "--regime", "1", "--mu-scalar", "0,1,0,0,0,0,0,0,0,0",
        "--graph", str(edges), "--no-self-adjacent", "--num", "20000",
    ).stdout
    assert out.splitlines()[0].startswith("N")
    # describe-design reads no model row, so it refuses --graph
    proc = run_cli("describe-design", "--graph", str(edges), check=False)
    assert proc.returncode == 2 and proc.stdout == ""


@pytest.mark.parametrize("command", ["samplesize", "power"])
def test_graph_and_design_unit_counts_differ_exit_2(tmp_path, command):
    edges = tmp_path / "six_teeth.txt"
    edges.write_text("".join(f"{t} {t + 1}\n" for t in range(1, 6)))
    proc = run_cli(command, "--graph", str(edges), "--num", "20000", check=False)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        f"config error: graph ({edges}) has 6 sub-units but design.n_units is 28\n"
    )


@pytest.mark.parametrize("args,message", [
    (["samplesize", "--sigma1", "1e300"], "the computation overflowed"),
    (["samplesize", "--tau", "1e200"], "the computation overflowed"),
    (["power", "--sigma1", "1e200", "--n", "10"], "the computation overflowed"),
    (["solve-missing", "--p-i", "0.8", "--c-i", "0.4", "--tau", "1e200"],
     "the computation overflowed"),
    (["samplesize", "--rho", "0.9999999999999999"], "Cholesky factorization failed"),
    (["samplesize", "--mu-scalar", "1e200,0.5,0,2,0,0,5,0,0,0", "--num", "20000"],
     "the computation overflowed"),
    # b0^2 Sigma overflows in numpy, not in Python: it used to warn and end in "got nan"
    (["samplesize", "--b0", "1e154", "--num", "20000"], "the computation overflowed"),
    # squares that underflow to 0: a ZeroDivisionError traceback, numpy's RuntimeWarning and a
    # message about the loading, and numpy's bare "Matrix is not positive definite"
    (["samplesize", "--delta-std", "1e-300"],
     "N is not finite: the effect size 1e-300 is too small for sigma^2 = 1.0"),
    (["solve-missing", "--p-i", "0.8", "--c-i", "0.4", "--sigma0", "1e-300"],
     "sigma0=1e-300 is too small: sigma0^2 underflows"),
    (["samplesize", "--sigma0", "1e-300", "--b0", "0", "--num", "20000"],
     "Sigma_v = b0^2 Sigma + sigma0^2 I at b0=0.0, sigma0=1e-300: Cholesky factorization failed"),
], ids=["sigma1", "tau", "power-sigma1", "solve-missing-tau", "rho-below-1", "mu-1e200",
        "b0-1e154", "delta-std-1e-300", "solve-missing-sigma0-1e-300", "sigma-v-singular"])
def test_numeric_edge_exit_3(args, message):
    """Inputs at the edge of the arithmetic end in one error line, never a traceback or a numpy
    RuntimeWarning."""
    proc = run_cli(*args, check=False)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("flag, value", [
    ("--mu-scalar", "-1,0.5,0,2,0,0,5,0,0,0"), ("--a0", "-1e-3"), ("--cutoff", "-.5"),
], ids=["mu-scalar-list", "a0-exponent", "cutoff-leading-dot"])
def test_negative_value_parses_as_with_equals(flag, value):
    """A negative value that is not a plain decimal is read as the flag's value: the output is
    byte-identical to that of ``flag=value``."""
    spaced = run_cli("samplesize", "--num", "20000", flag, value, timeout=120)
    joined = run_cli("samplesize", "--num", "20000", f"{flag}={value}", timeout=120)
    assert spaced.stdout == joined.stdout and spaced.stdout.startswith("N ")


def test_bad_config_schema_exit_2(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"schema": 99}))
    proc = run_cli("describe-design", "--config", str(p), check=False)
    assert proc.returncode == 2


def test_pi1_literal_flag_in_describe():
    out = run_cli("describe-design", "--pi1-literal").stdout
    assert "(literal pi1)" in out
    assert "pi1=0.695652" in out


def test_identical_regimes_rejected():
    proc = run_cli("samplesize", "--regime", "1,1", "--num", "20000", check=False)
    assert proc.returncode == 2
    assert "itself" in proc.stderr


@pytest.mark.parametrize("regime, message", [
    ("0,5", "regime must list one or two regime numbers in 1..8"),
    ("9", "regime must list one or two regime numbers in 1..8"),
    ("1,1", "cannot compare a regime against itself"),
    ("1,2,3", "regime must list one or two regime numbers in 1..8"),
    ("a", "regime (--regime): cannot read 'a'"),
], ids=["0,5", "9", "1,1", "1,2,3", "a"])
def test_regime_out_of_range_exit_2(tmp_path, regime, message):
    """``design.contrast_weights`` owns the rule; the CLI reports it as a config error before it
    opens an output file."""
    out = tmp_path / "out.json"
    proc = run_cli("samplesize", "--regime", regime, "--num", "20000", "--json", str(out),
                   check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"config error: {message}\n" and proc.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--tau", "0"], ["--rho", "1"], ["--sigma1", "0"], ["--sigma0", "0"],
    ["--p-i", "1", "--c-i", "0.4"], ["--sigma0", "0", "--p-i", "0.5", "--c-i", "0.3"],
    ["--lambda", "nan"], ["--b0", "inf"], ["--a0", "nan"], ["--cutoff", "nan"], ["--cutoff", "inf"],
    ["--c-i", "nan", "--p-i", "0.5"],
], ids=["tau", "rho", "sigma1", "sigma0", "p-i", "sigma0-targets", "lambda-nan", "b0-inf",
        "a0-nan", "cutoff-nan", "cutoff-inf", "c-i-nan"])
def test_model_scalar_out_of_range_exit_2(flags):
    """Each float must be finite (only nu may be Inf) and in range; the message names the flag."""
    proc = run_cli("samplesize", "--regime", "1", *flags, "--num", "20000", check=False,
                   timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:") and proc.stdout == ""
    assert flags[0] in proc.stderr


@pytest.mark.parametrize("args,cfg,env,named", [
    (["--gamma", "a,b", "--num", "20000"], None, None, "--gamma"),
    (["--mu-scalar", "0,x,0,0,0,0,0,0,0,0", "--num", "20000"], None, None, "--mu-scalar"),
    (["--num", "20000"], {"model": {"nu": "abc"}}, None, "model.nu"),
    ([], {"mc": {"num": "x"}}, None, "mc.num"),
    (["--num", "20000"], None, {"SMARTP_SEED": "abc"}, "SMARTP_SEED"),
], ids=["gamma", "mu-scalar", "config-nu", "config-num", "env-seed"])
def test_malformed_value_exit_2(tmp_path, args, cfg, env, named):
    """A value that does not parse is a configuration error that names where it came from."""
    if cfg is not None:
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"schema": 1, **cfg}))
        args = [*args, "--config", str(p)]
    proc = run_cli("samplesize", "--regime", "1", *args, env_extra=env, check=False, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:") and proc.stdout == ""
    assert named in proc.stderr


FOUR_NR = {"st1": [[1, 4, 0.3]], "dtr": [[1, 1, 2, 1], [2, 1, 3, 1], [3, 1, 4, 1], [4, 1, 5, 1]],
           "mu_scalar_per_path": [0, 2, 0, 0, 0]}


@pytest.mark.parametrize("command,cfg,named", [
    ("samplesize", {"mc": {"num": 20000.9}}, "mc.num"),
    ("samplesize", {"test": {"regime": [1.9]}}, "test.regime"),
    ("samplesize", {"mc": {"workers": True}}, "mc.workers"),
    ("samplesize", {"mc": {"seed": 3.5}}, "mc.seed"),
    ("samplesize", {"design": {"n_units": 27.5}}, "design.n_units"),
    ("power", {"mc": {"reps": 100.5}}, "mc.reps"),
    ("describe-design", {"design": {**FOUR_NR, "st1": [[1, 4.7, 0.3]]}}, "st1"),
    ("describe-design", {"design": {**FOUR_NR, "dtr": [[1, 1, 2, 1], [2, 1, 3.4, 1],
                                                        [3, 1, 4, 1], [4, 1, 5, 1]]}}, "dtr ids"),
    # the fractional id is the largest: reported as such, not as a mu row-count mismatch
    ("describe-design", {"design": {**FOUR_NR, "dtr": [[1, 1, 2, 1], [2, 3, 4.5, 2]]}},
     "dtr ids must be whole numbers"),
], ids=["num", "regime", "workers-bool", "seed", "n_units", "reps", "st1-count", "dtr-id",
        "dtr-largest-id"])
def test_integer_input_must_be_integral_exit_2(tmp_path, command, cfg, named):
    """A fraction or a bool where a count or an id belongs is refused, not truncated."""
    base = {"mc": {"num": 20000}} if command != "describe-design" else {}
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"schema": 1, **base, **cfg}))
    extra = ["--mu-scalar", "0,2,0,0,0,0,0,0,0,0"] if command != "describe-design" else []
    if command == "power":
        extra += ["--n", "50"]
    proc = run_cli(command, "--config", str(p), *extra, check=False, timeout=120)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.startswith("config error:") and named in proc.stderr


def test_shared_arm_pair_with_different_responder_paths(tmp_path):
    """Regimes 1 and 2 share arm 1 and non-responder path 3 but not their responder path."""
    cfg = {
        "schema": 1,
        "design": {"n_units": 4, "st1": [[2, 2, 0.4], [1, 1, 0.5]],
                   "dtr": [[1, 1, 3, 1], [2, 2, 3, 1], [3, 1, 4, 1], [4, 2, 4, 1], [5, 5, 6, 2]],
                   "mu_scalar_per_path": [1.0, -0.5, 0.3, 2.0, 0.0, 1.0]},
        "model": {"a0": -2.0},
        "test": {"regime": [1, 2]},
        "mc": {"num": 20000, "reps": 200, "seed": 3},
    }
    p, j = tmp_path / "c.json", tmp_path / "out.json"
    p.write_text(json.dumps(cfg))
    run_cli("samplesize", "--config", str(p), "--json", str(j), timeout=120)
    # the shared non-responder path cancels: Del = gamma (mu_1 - mu_2)
    assert json.loads(j.read_text())["result"]["Del"] == pytest.approx(0.4 * 1.5, abs=1e-9)
    run_cli("power", "--config", str(p), "--n", "60", "--json", str(j), timeout=120)
    assert 0.0 < json.loads(j.read_text())["result"]["power"] < 1.0


@pytest.mark.parametrize("command,nu", [
    ("samplesize", "2"), ("samplesize", "1"), ("samplesize", "0.5"), ("power", "2"),
])
def test_infinite_error_variance_exit_3(command, nu):
    """At nu <= 2 the outcome error has no variance, so there is no N to report."""
    proc = run_cli(
        command, "--regime", "1,5", "--mu-scalar", "0,0.5,0,2,0,0,5,0,0,0", "--nu", nu,
        check=False, timeout=120,
    )
    assert proc.returncode == 3
    assert "variance requires dof > 2" in proc.stderr and proc.stdout == ""


def test_power_n_zero_exit_2():
    proc = run_cli("power", "--regime", "1", "--n", "0", "--num", "20000", check=False)
    assert proc.returncode == 2
    assert "must be positive" in proc.stderr


def test_mu_csv_and_mu_scalar_together_exit_2(tmp_path):
    f = tmp_path / "mu.csv"
    f.write_text("\n".join(",".join(["0"] * 28) for _ in range(10)) + "\n")
    proc = run_cli(
        "samplesize", "--regime", "1", "--mu-csv", str(f), "--mu-scalar", "0,1,0,0,0,0,0,0,0,0",
        "--num", "20000", check=False,
    )
    assert proc.returncode == 2
    assert "not allowed with argument" in proc.stderr


def test_cli_import_does_not_load_scipy():
    code = "import sys, smartp.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_import_starts_one_thread():
    """OpenBLAS is pinned to one thread before numpy loads; --workers is the thread knob."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads")
    code = "import os, smartp.cli; print(len(os.listdir('/proc/self/task')))"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=env)
    assert proc.stdout.strip() == "1"


@pytest.mark.parametrize("args", [
    ["samplesize", "--delta-std", "0.45"],
    ["solve-missing", "--p-i", "0.3", "--c-i", "0.4", "--lambda", "10", "--nu", "5"],
])
def test_printed_lines_are_the_json_result(tmp_path, args):
    j = tmp_path / "r.json"
    out = run_cli(*args, "--json", str(j)).stdout
    printed = dict(line.split() for line in out.splitlines())
    result = json.loads(j.read_text())["result"]
    assert list(printed) == list(result)
    assert all(float(printed[k]) == pytest.approx(v, rel=1e-5) for k, v in result.items())


@pytest.mark.parametrize("args", [
    ["--delta-std", "0.45"], [*WORKED, "--num", "20000", "--seed", "7"],
], ids=["delta-std", "simulated"])
def test_samplesize_reports_unrounded_n(tmp_path, args):
    j = tmp_path / "r.json"
    out = run_cli("samplesize", *args, "--json", str(j)).stdout.splitlines()
    result = json.loads(j.read_text())["result"]
    assert list(result)[:2] == ["N", "N_exact"]
    assert result["N"] == math.ceil(result["N_exact"] - 1e-12)
    scalars = [k for k, v in result.items() if not isinstance(v, list)]
    assert [line.split()[0] for line in out[:len(scalars)]] == scalars


SIZED = ["--regime", "1", "--mu-scalar", "0,2,0,0,0,0,0,0,0,0", "--num", "20000"]


@pytest.mark.parametrize("args", [
    ["power", *SIZED, "--reps", "40", "--n", "50", "--sigma-csv", "OUT"],
    ["power", *SIZED, "--reps", "40", "--delta-std", "0.3"],
    ["samplesize", *SIZED, "--dump-trials", "OUT"],
    ["samplesize", *SIZED, "--reps", "7"],
    ["samplesize", *SIZED, "--n", "3"],
    ["samplesize", *SIZED, "--empirical-variance"],
    ["samplesize", "--delta-std", "0.45", "--regime", "1,99"],
    ["samplesize", "--delta-std", "0.45", "--num", "5"],
    ["samplesize", "--delta-std", "0.45", "--seed", "3"],
    ["samplesize", "--delta-std", "0.45", "--workers", "2"],
    ["samplesize", "--delta-std", "0.45", "--mu-scalar", "0,1,0,0,0,0,0,0,0,0"],
    ["samplesize", "--delta-std", "0.45", "--gamma", "0.3,0.5"],
    ["samplesize", "--delta-std", "0.45", "--pi1-literal"],
    ["samplesize", "--delta-std", "0"],
    ["samplesize", "--delta-std", "-0.45"],
    ["samplesize", "--delta-std", "inf"],
    ["solve-missing", "--p-i", "0.8", "--c-i", "0.4", "--regime", "1,5", "--num", "5",
     "--alpha", "0.9"],
    ["describe-design", "--tau", "0", "--num", "3"],
], ids=["power-sigma-csv", "power-delta-std", "ss-dump-trials", "ss-reps", "ss-n",
        "ss-empirical-variance", "ds-regime", "ds-num", "ds-seed", "ds-workers", "ds-mu", "ds-gamma",
        "ds-pi1-literal", "ds-zero", "ds-negative", "ds-inf", "sm-test-mc", "dd-model-mc"])
def test_flag_the_command_does_not_read_exit_2(tmp_path, args):
    """Each command refuses a flag it would ignore; --delta-std sizes from alpha and beta alone."""
    out = tmp_path / "out.csv"
    proc = run_cli(*[str(out) if a == "OUT" else a for a in args], check=False, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and not out.exists()


@pytest.mark.parametrize("args", [
    ["describe-design", "--json", "OUT"],
    ["samplesize", *SIZED, "--sigma-csv", "OUT"],
    ["power", *SIZED, "--reps", "40", "--n", "20", "--dump-trials", "OUT"],
], ids=["json", "sigma-csv", "dump-trials"])
def test_unwritable_output_exit_2(tmp_path, args):
    """An output file in a directory that does not exist: a config error naming it, exit 2."""
    out = str(tmp_path / "missing" / "out")
    proc = run_cli(*[out if a == "OUT" else a for a in args], check=False, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"config error: cannot write {out}: ")
    assert "Traceback" not in proc.stderr


def test_power_plug_in_variance_needs_two_clusters():
    """--empirical-variance at --n 1 is refused before any trial: no numpy warning, no NaN."""
    proc = run_cli("power", *SIZED, "--reps", "40", "--n", "1", "--empirical-variance",
                   check=False, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: the plug-in variance") and "n = 1" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("args, code, message", [
    (["samplesize", *SIZED, "--json", "OUT"], 2, "config error: cannot write OUT: "),
    # two flags that name one file, spelt alike or not
    (["power", *SIZED, "--n", "20", "--json", "SAME", "--dump-trials", "SAME"], 2,
     "config error: --json and --dump-trials name the same file SAME\n"),
    (["samplesize", *SIZED, "--json", "SAME", "--sigma-csv", "ALIAS"], 2,
     "config error: --json and --sigma-csv name the same file ALIAS\n"),
    (["samplesize", *SIZED, "--sigma-csv", "OUT"], 2, "config error: cannot write OUT: "),
    (["power", *SIZED, "--n", "20", "--json", "OUT"], 2, "config error: cannot write OUT: "),
    (["power", *SIZED, "--n", "1", "--empirical-variance"], 3,
     "error: the plug-in variance (empirical_variance) needs n >= 2 clusters, got n = 1"),
    # 1 - alpha/2 rounds to 1: the quantile would be infinite
    (["samplesize", *SIZED, "--alpha", "1e-300"], 2,
     "config error: alpha (--alpha) must be in (0, 1) and above 1.1e-16, got 1e-300"),
    (["power", *SIZED, "--alpha", "1e-17"], 2,
     "config error: alpha (--alpha) must be in (0, 1) and above 1.1e-16, got 1e-17"),
    # beta = 1 - power rounds to 1: it ended in a quantile error, or "beta must be in (0,1)"
    (["samplesize", *SIZED, "--power", "1e-300"], 2, "config error: power (--power) must be in "
     "(0, 1) and above 5.6e-17, so beta < 1, got 1e-300"),
], ids=["samplesize-json", "power-json-dump-same", "json-sigma-csv-same", "sigma-csv",
        "power-json", "plug-in-n-1", "alpha-1e-300", "power-alpha-1e-17", "power-1e-300"])
def test_refused_before_any_monte_carlo_work(tmp_path, monkeypatch, capsys, args, code, message):
    """An output path that cannot be written, two output flags that name one file (the JSON
    was written over the start of the dump), a plug-in variance at n = 1, an alpha too small
    for its quantile or a power too small for beta < 1 ends the command before the moments pass,
    which here fails the test if it is called."""
    def moments_pass(*_, **__):
        raise AssertionError("the moments pass ran")

    monkeypatch.setattr(engine, "estimate_path_moments", moments_pass)
    paths = {"OUT": str(tmp_path / "missing" / "out"), "SAME": str(tmp_path / "same"),
             "ALIAS": f"{tmp_path}/./same"}
    assert cli.main([paths.get(a, a) for a in args]) == code
    printed = capsys.readouterr()
    for placeholder, path in paths.items():
        message = message.replace(placeholder, path)
    assert printed.err.startswith(message) and printed.out == ""


@pytest.mark.parametrize("json_name, dump_name", [
    ("keep.json", "keep.json"), ("keep.json", "missing/x.csv"),
    ("new.json", "new.json"), ("new.json", "missing/x.csv"),
], ids=["same-file", "unwritable", "same-new-file", "new-and-unwritable"])
def test_refused_outputs_leave_the_files_as_they_were(tmp_path, monkeypatch, capsys, json_name,
                                                      dump_name):
    """A refused ``--json F --dump-trials G`` (G is F, or cannot be written) exits 2 before the
    moments pass with F as it was: an existing F keeps its bytes, where it was left empty, and
    an F the call created is removed."""
    def moments_pass(*_, **__):
        raise AssertionError("the moments pass ran")

    monkeypatch.setattr(engine, "estimate_path_moments", moments_pass)
    keep = tmp_path / "keep.json"
    keep.write_text('{"old": 1}\n')
    argv = ["power", *SIZED, "--n", "20", "--json", str(tmp_path / json_name),
            "--dump-trials", str(tmp_path / dump_name)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert keep.read_text() == '{"old": 1}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.json"]


def test_a_failed_run_keeps_the_files_it_did_not_write(tmp_path, capsys):
    """A run that fails after the trials (exit 3: reps with a plug-in sigma^2 of 0) keeps the
    bytes of an existing ``--json`` file, which it never wrote, and removes the
    ``--dump-trials`` file it created, which the dump helper had written.  Both files used to be
    emptied before the moments pass, which left the JSON at 0 bytes and an empty dump."""
    keep = tmp_path / "keep.json"
    keep.write_text('{"old": 1}\n')
    argv = ["power", "--empirical-variance", "--regime", "2,3", *WORKED[2:6], "--n", "3",
            "--reps", "200", "--num", "20000", "--seed", "1", "--json", str(keep),
            "--dump-trials", str(tmp_path / "new.csv")]
    assert cli.main(argv) == 3
    assert "reps have a plug-in sigma^2 of 0" in capsys.readouterr().err
    assert keep.read_text() == '{"old": 1}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.json"]


def test_power_needs_two_reps(tmp_path, monkeypatch, capsys):
    """One rep has no Monte Carlo SD: ``--reps 1`` and ``"reps": 1`` exit 2 naming reps before
    the moments pass, with no numpy RuntimeWarning, where they printed MCSD nan and wrote it as
    "-Inf"."""
    def moments_pass(*_, **__):
        raise AssertionError("the moments pass ran")

    monkeypatch.setattr(engine, "estimate_path_moments", moments_pass)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"schema": 1, "mc": {"reps": 1}}))
    for args, where in ((["--reps", "1"], "--reps"), (["--config", str(cfg)], "config mc.reps")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["power", *SIZED, "--n", "20", *args]) == 2
        printed = capsys.readouterr()
        assert printed.err == f"config error: reps ({where}) must be at least 2, got 1\n"
        assert printed.out == ""


def test_power_refuses_coinciding_regimes_before_any_trial(monkeypatch, capsys):
    """At gamma 1, 1 every cluster responds, so regimes 2 and 3 (arm 1, one responder path) have
    one estimator and the design-stage sigma^2 is 0.  In both variance modes power exits 3 naming
    the two regimes before any trial (the trials here fail the test if they run), where it
    simulated all 1,000,000 clusters and then stopped at ``sigma^2 must be > 0, got 0.0``."""
    def trials(*_, **__):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(simtrial, "_power_chunk", trials)
    argv = ["power", "--regime", "2,3", "--gamma", "1,1", *WORKED[2:], "--n", "200",
            "--reps", "5000", "--num", "20000", "--seed", "1"]
    for extra in ([], ["--empirical-variance"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(argv + extra) == 3
        printed = capsys.readouterr()
        assert printed.err == ("error: the design-stage sigma^2 of regimes 2 and 3 is 0.0; their "
                               "estimators coincide, so no trial can tell them apart\n")
        assert printed.out == ""


def test_zero_plug_in_variance_is_refused_with_its_count(capsys):
    """At n = 3 some reps have no cluster on path 3 or 4, the only paths on which the estimators
    of regimes 2 and 3 differ, so their plug-in sigma^2 is 0: exit 3 with the count of those
    reps and the two ways out, no numpy warning, where it ended with ``sigma^2 must be > 0``."""
    argv = ["power", "--empirical-variance", "--regime", "2,3", *WORKED[2:6], "--n", "3",
            "--reps", "200", "--num", "20000", "--seed", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(argv) == 3
    printed = capsys.readouterr()
    zero = re.fullmatch(r"error: (\d+) of 200 reps have a plug-in sigma\^2 of 0 \(no cluster on "
                        r"a path the contrast weighs, at n = 3\); use a larger n \(--n\) or drop "
                        r"the plug-in variance \(--empirical-variance\)\n", printed.err)
    assert zero and 0 < int(zero[1]) < 200 and printed.out == ""


def test_gamma_sets_the_rates_of_the_built_in_and_a_custom_design(tmp_path, capsys):
    """--gamma gives one response rate per arm to the built-in design and to a custom st1/dtr
    one alike; a wrong count is refused with the message it had.  The built-in design the CLI
    builds is ``periodontitis_default``'s."""
    out, cfg = tmp_path / "d.json", tmp_path / "c.json"
    cfg.write_text(json.dumps({"schema": 1, "design": FOUR_NR}))

    def rates(*args):
        assert cli.main(["describe-design", *args, "--json", str(out)]) == 0
        capsys.readouterr()
        return json.loads(out.read_text())["result"]["ga"]

    assert rates() == [0.25] * 5 + [0.5] * 5
    assert rates("--gamma", "0.3,0.6") == [0.3] * 5 + [0.6] * 5
    assert rates("--config", str(cfg)) == [0.3] * 5
    assert rates("--config", str(cfg), "--gamma", "0.7") == [0.7] * 5
    for args, n in ((["--gamma", "0.3"], 2), (["--config", str(cfg), "--gamma", "0.3,0.6"], 1)):
        assert cli.main(["describe-design", *args]) == 2
        printed = capsys.readouterr()
        assert printed.err == f"config error: gamma needs {n} rates\n" and printed.out == ""
    args = cli.build_parser().parse_args(["describe-design", "--gamma", "0.3,0.6",
                                          "--stage1-mode", "max", "--pi1-literal"])
    values, _ = cli._resolve(args, {}, cli.DESCRIBE)
    assert cli._build_design(values) == periodontitis_default(0.3, 0.6, stage1_mode="max",
                                                              pi1_literal=True)


def test_nan_in_a_result_is_an_error_naming_it(tmp_path, monkeypatch, capsys):
    """A NaN in the result exits 3 naming its key, before any output line; it is never written
    as an infinity, which ``_jsonable`` keeps for the infinities alone."""
    def nan_power(*_, **kwargs):
        return PowerEstimate(0.5, kwargs["reps"], 1.0, math.nan)

    monkeypatch.setattr(simtrial, "mc_power", nan_power)  # cmd_power imports it when it runs
    out, dump = tmp_path / "p.json", tmp_path / "d.csv"
    argv = ["power", *SIZED, "--n", "20", "--reps", "40", "--json", str(out),
            "--dump-trials", str(dump)]
    assert cli.main(argv) == 3
    printed = capsys.readouterr()
    assert printed.err == "error: the result is not a number (NaN): MCSD\n" and printed.out == ""
    assert all("Inf" not in p.read_text() for p in tmp_path.iterdir())
    assert cli._jsonable([math.inf, -math.inf, 1.5]) == ["Inf", "-Inf", 1.5]
    assert math.isnan(cli._jsonable({"x": math.nan})["x"])


ZERO_MEANS = ["--mu-scalar", "0,0,0,0,0,0,0,0,0,0", "--num", "20000", "--seed", "1"]


def test_equal_regime_means_give_a_zero_effect(monkeypatch, capsys):
    """With every path mean 0 each regime's mean is the same missingness bias, so the effect is
    0 however the IPW sums round: every regime pair under six gamma pairs and the three stage-1
    modes exits 3 (effect size must be nonzero), where some printed an N near 1e34 from a
    rounded Del of 2.8e-17.  ``power`` at a given n reports Del 0.  The design does not change
    the outcome model, so one moments pass serves every command."""
    passes = []

    def one_pass(*args, **kwargs):
        passes[:] = passes or [estimate_path_moments(*args, **kwargs)]
        return passes[0]

    monkeypatch.setattr(engine, "estimate_path_moments", one_pass)
    for gamma, mode, pair in itertools.product(
        ["0.1,0.7", "0.25,0.5", "0.3,0.3", "0.5,0.9", "0.05,0.95", "0.6,0.2"],
        ["balanced", "max", "equal"], itertools.combinations(range(1, 9), 2),
    ):
        argv = ["samplesize", "--regime", "%d,%d" % pair, "--gamma", gamma, "--stage1-mode", mode]
        assert cli.main(argv + ZERO_MEANS) == 3, argv
        assert capsys.readouterr().err == "error: effect size must be nonzero\n", argv
    argv = ["power", "--regime", "1,5", "--gamma", "0.1,0.7", "--n", "50", "--reps", "200"]
    assert cli.main(argv + ZERO_MEANS) == 0
    assert "\nDel             0\n" in capsys.readouterr().out


def test_delta_std_refuses_config_it_ignores(tmp_path):
    """--delta-std refuses the config keys that only the simulated samplesize reads."""
    p = tmp_path / "c.json"
    for cfg in (
        {"model": {"tau": 0}, "mc": {"num": 5}, "test": {"regime": [1, 99]}},
        {"design": {"n_units": 4}}, {"model": {"a0": -1.0}}, {"mc": {"seed": 3}},
        {"test": {"regime": [1]}},
    ):
        p.write_text(json.dumps({"schema": 1, **cfg}))
        proc = run_cli("samplesize", "--delta-std", "0.45", "--config", str(p), check=False)
        assert proc.returncode == 2, cfg
        assert "ignored with --delta-std" in proc.stderr and proc.stdout == ""
    p.write_text(json.dumps({"schema": 1, "test": {"alpha": 0.1, "power": 0.9}}))
    out = run_cli("samplesize", "--delta-std", "0.45", "--config", str(p)).stdout
    assert out.splitlines()[0].split() == ["N", str(required_n(0.45, 1.0, 0.1, 0.1))]


@pytest.mark.parametrize("cfg,named", [
    ({"model": {"sigma_1": 5.0}}, ["'model'", "sigma_1"]),
    ({"modle": {"tau": 0.85}}, ["'modle'"]),
    ({"model": [0.85]}, ["'model'"]),
    ({"test": {"beta": 0.1, "power": 0.9}}, ["test.beta", "test.power"]),
    ({"design": {"st1": [[1, 4, 0.3]], "dtr": [[1, 1]], "mu_scalar_per_path": [0]}},
     ["design.dtr"]),
], ids=["unknown-key", "unknown-block", "block-not-object", "beta-and-power", "short-dtr"])
def test_config_the_program_cannot_read_exit_2(tmp_path, cfg, named):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"schema": 1, **cfg}))
    proc = run_cli("samplesize", "--regime", "1", "--num", "20000", "--config", str(p),
                   check=False, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and all(word in proc.stderr for word in named)


def test_every_flag_is_a_table_row():
    """Each subcommand registers the flags of the table rows it reads, and --config and --json."""
    from smartp.cli import DELTA_STD, TABLE, build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        reads = {command, DELTA_STD} if command == "samplesize" else {command}
        rows = {row.name for row in TABLE if row.flag and row.commands & reads}
        dests = {a.dest for a in parser._actions if a.option_strings}
        assert dests - {"help", "config", "json"} == rows, command


def test_full_config_file_with_flag_override(tmp_path):
    cfg = {
        "schema": 1,
        "design": {
            "name": "periodontitis-default",
            "gamma": [0.25, 0.5],
            "mu_scalar_per_path": [0, 0.5, 0, 2, 0, 0, 5, 0, 0, 0],
        },
        "model": {"tau": 0.85, "rho": 0.975, "sigma1": 0.95, "lambda": 0.0,
                  "nu": "Inf", "a0": -1.0, "b0": 0.5},
        "test": {"regime": [1, 5], "alpha": 0.05, "power": 0.8},
        "mc": {"num": 30000, "seed": 4, "workers": 1},
    }
    p = tmp_path / "run.json"
    p.write_text(json.dumps(cfg))
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("samplesize", "--config", str(p), "--json", str(j1))
    # flag overrides the config seed; result must differ in the moments
    run_cli("samplesize", "--config", str(p), "--seed", "5", "--json", str(j2))
    r1 = json.loads(j1.read_text())
    r2 = json.loads(j2.read_text())
    assert r1["inputs"]["seed"] == 4 and r2["inputs"]["seed"] == 5
    assert r1["result"]["Del"] != r2["result"]["Del"]
    assert 185 <= r1["result"]["N"] <= 210


def test_power_without_n_uses_computed_sample_size(tmp_path):
    j = tmp_path / "p.json"
    run_cli(
        "power", "--regime", "1", "--mu-scalar", "0,2,0,0,0,0,0,0,0,0",
        "--num", "60000", "--reps", "30", "--seed", "2", "--json", str(j),
    )
    payload = json.loads(j.read_text())
    assert 74 <= payload["result"]["N"] <= 82  # computed N for this effect is ~78


def test_finite_nu_through_cli():
    out = run_cli(
        "samplesize", "--regime", "1", "--mu-scalar", "0,2,0,0,0,0,0,0,0,0",
        "--nu", "6", "--lambda", "10", "--num", "30000", "--seed", "6",
    ).stdout
    n = int(out.splitlines()[0].split()[1])
    assert 50 <= n <= 66  # heavier-right-skew errors shift the effect up


def test_power_and_beta_conflict_exit_2():
    proc = run_cli("samplesize", "--delta-std", "0.45", "--power", "0.8",
                   "--beta", "0.2", check=False)
    assert proc.returncode == 2


def test_stage1_equal_mode_cli():
    out = run_cli("describe-design", "--stage1-mode", "equal").stdout
    assert "pi1=0.5 " in out


def test_solve_missing_zero_corr_cli():
    out = run_cli("solve-missing", "--p-i", "0.73", "--c-i", "0").stdout.splitlines()
    vals = {line.split()[0]: float(line.split()[1]) for line in out}
    assert vals["b0"] == 0.0
    assert vals["p_i"] == pytest.approx(0.73, abs=1e-9)
