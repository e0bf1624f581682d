"""smartp benchmark: end-to-end CLI timings and a traced per-module breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It measures the source checkout it sits in: the program is imported from
the checkout's ``src/`` (no install step), and everything it writes goes to
``perfbench/out/``.  Without ``src/smartp`` it exits with code 2 and prints
no result.

``--trace 0`` measures end to end, with tracing off:

1. ``setup_s``: SETUP_CALLS runs of ``smartp solve-missing`` with the
   workload's model flags (import, CAR covariance and the (p, c)
   inversion, no Monte Carlo); each result is checked against its targets.
2. For ``--seconds`` seconds, closed loop: run the workload's CLI command in
   a child process, one at a time, at least MIN_CALLS times.  Each child is
   reaped with ``os.wait4``, which gives its own CPU time and peak RSS
   (``RUSAGE_CHILDREN`` would keep the high-water mark over all children),
   and is killed after INVOKE_TIMEOUT_S, which counts as a failure.

Every metric is the median over the run's samples; quartiles and the
sample count are printed beside it.  Each output is checked (see
``check_*``) and must be byte-identical across the run's invocations,
which all use the same seed.

``--trace 1`` runs the same untraced loop as the baseline, then the
workload once more under ``perfbench/tracer.py`` (``smartp.cli.main``
in-process with a span around every public function of each module), then,
for multi-worker workloads, once at ``--workers 1``, then the layer probe
``perfbench/probe.py``.  The traced and the one-worker outputs must equal
the untraced ones byte for byte.  It reports the ``per_layer`` metrics of
BENCHMARK.json; ``trace.overhead_s`` is the traced wall time minus the
untraced median.

A run counts as failed when the child exits non-zero, times out or fails
an output check; ``failed``/``attempted`` (fail_frac) cover every child the
run starts.  The last line of standard output is the JSON result; a fuller
record with provenance goes to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_CALLS = 5
MIN_CALLS = 3
INVOKE_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0

WORKED_MODEL = ["--p-i", "0.8027872", "--c-i", "0.4125813"]
WORKED_MU = ["--mu-scalar", "0,0.5,0,2,0,0,5,0,0,0"]
SKEWT_MODEL = ["--lambda", "10", "--nu", "5", "--p-i", "0.3", "--c-i", "0.4"]


@dataclass(frozen=True)
class Workload:
    """One CLI command; ``clusters`` is the simulated cluster count it asks for."""

    command: list[str]
    model: list[str]
    num: int
    workers: int
    paths: int  # treatment paths the regimes reference, each simulated num times
    reps: int = 0
    n: int = 0
    dump: bool = False

    @property
    def clusters(self) -> int:
        return self.num * self.paths + self.reps * self.n

    def argv(self, seed: int, json_path: Path, dump_path: Path, workers: int | None = None) -> list[str]:
        out = self.command + [
            "--num", str(self.num),
            "--workers", str(self.workers if workers is None else workers),
            "--seed", str(seed),
            "--json", str(json_path),
        ]
        if self.reps:
            out += ["--reps", str(self.reps)]
        if self.dump:
            out += ["--dump-trials", str(dump_path)]
        return out


WORKLOADS = {
    # README worked example (criteria 1a/1b): normal errors, four paths,
    # one thread; the kernel and the normal draws do nearly all the work.
    "worked-example": Workload(
        ["samplesize", "--regime", "1,5", *WORKED_MODEL, *WORKED_MU],
        WORKED_MODEL, num=262_144, workers=1, paths=4,
    ),
    # Same layers used differently: finite nu (gamma sampler), lambda != 0
    # (the Z0 block), 30% availability (all-missing redraws), a shared pair
    # over three paths, two workers on the chunk pool.
    "skewt-sparse": Workload(
        ["samplesize", "--regime", "1,3", *SKEWT_MODEL, "--mu-scalar", "0,0.5,0,2,0,0,0,0,0,0"],
        SKEWT_MODEL, num=262_144, workers=2, paths=3,
    ),
    # The trial layer: one 197-cluster kernel call and substream per rep,
    # per-cluster Python loops, and the CSV dump re-simulating every trial.
    # One worker: the reps are GIL-bound, so a second thread adds no speed,
    # only wall time that depends on when the host schedules it.
    "power-dump": Workload(
        ["power", "--regime", "1,5", *WORKED_MODEL, *WORKED_MU, "--n", "197"],
        WORKED_MODEL, num=65_536, workers=1, paths=4, reps=2000, n=197, dump=True,
    ),
}


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems (empty when the output is right)


def required_n(delta: float, sigma_sq: float, alpha: float, beta: float) -> int:
    """N = ceil(2 (z_{1-alpha/2} - z_beta)^2 sigma^2 / delta^2), recomputed here."""
    z = NormalDist()
    n = 2.0 * (z.inv_cdf(1.0 - alpha / 2.0) - z.inv_cdf(beta)) ** 2 * sigma_sq / delta**2
    return max(1, math.ceil(n - 1e-12))


def _in(name: str, value, lo: float, hi: float) -> list[str]:
    return [] if lo <= value <= hi else [f"{name}={value} outside [{lo}, {hi}]"]


def _non_finite(obj, path="result") -> list[str]:
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _non_finite(v, f"{path}[{i}]")]
    if isinstance(obj, bool) or not isinstance(obj, (int, float)) or not math.isfinite(obj):
        return [f"{path}={obj!r} is not a finite number"]
    return []


def check_worked_example(doc: dict, w: Workload, dump_rows: int | None) -> list[str]:
    r = doc["result"]
    return _in("N", r["N"], 195, 199) + _in("Del", r["Del"], 2.10, 2.14)


def check_skewt_sparse(doc: dict, w: Workload, dump_rows: int | None) -> list[str]:
    r, inputs = doc["result"], doc["inputs"]
    problems = _non_finite(r)
    if problems:
        return problems
    want = required_n(r["Del"], r["sig.e.sq"] / 2.0, inputs["alpha"], inputs["beta"])
    if r["N"] != want:
        problems.append(f"N={r['N']} but required_n(Del, sig.e.sq/2) = {want}")
    band = json.loads((HERE / "skewt_band.json").read_text())
    if band["num"] != w.num:
        raise RuntimeError(f"skewt_band.json was derived for num={band['num']}, the workload uses {w.num}")
    return problems + _in("Del", r["Del"], band["del_lo"], band["del_hi"])


def check_power_dump(doc: dict, w: Workload, dump_rows: int | None) -> list[str]:
    r = doc["result"]
    problems = _in("power", r["power"], 0.76, 0.84)
    if dump_rows != w.reps * w.n:
        problems.append(f"dump has {dump_rows} data rows, expected {w.reps} x {w.n}")
    return problems


CHECKS = {
    "worked-example": check_worked_example,
    "skewt-sparse": check_skewt_sparse,
    "power-dump": check_power_dump,
}


def check_setup(doc: dict, model: list[str]) -> list[str]:
    targets = dict(zip(model[::2], model[1::2]))
    problems = []
    for key, flag in (("p_i", "--p-i"), ("c_i", "--c-i")):
        got, want = doc["result"][key], float(targets[flag])
        if not abs(got - want) <= 1e-6:
            problems.append(f"solve-missing gives {key}={got}, target {want}")
    return problems


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Invocation:
    label: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    problems: list[str] = field(default_factory=list)


class Run:
    """Starts children, keeps their resource usage and counts failures."""

    def __init__(self, name: str, limit_s: float):
        self.deadline = time.perf_counter() + limit_s
        self.env = {k: v for k, v in os.environ.items() if k != "SMARTP_SEED"}
        self.env["PYTHONPATH"] = str(SRC)
        self.log = OUT / f"{name}.log"
        self.log.write_bytes(b"")
        self.invocations: list[Invocation] = []

    def child(self, label: str, argv: list[str], stdout: Path | None = None) -> Invocation:
        """Run argv to completion (or kill it at its timeout) and record it.

        Standard output goes to ``stdout`` if given, else with standard
        error to the run's log.
        """
        timeout = min(INVOKE_TIMEOUT_S, self.deadline - time.perf_counter())
        with open(self.log, "ab") as log, open(stdout or os.devnull, "wb") as out:
            log.write(f"$ {label}: {' '.join(argv)}\n".encode())
            log.flush()
            reaped = {}
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out if stdout else log, stderr=log, env=self.env, cwd=OUT
            )

            def reap():
                _, status, usage = os.wait4(proc.pid, 0)
                reaped.update(t1=time.perf_counter(), status=status, usage=usage)

            waiter = threading.Thread(target=reap)
            waiter.start()
            waiter.join(max(timeout, 0.0))
            timed_out = waiter.is_alive()
            if timed_out:
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                waiter.join()
        code = os.waitstatus_to_exitcode(reaped["status"])
        proc.returncode = code
        usage = reaped["usage"]
        inv = Invocation(
            label,
            wall_s=reaped["t1"] - t0,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=code,
        )
        if timed_out:
            inv.problems.append(f"killed after {timeout:.0f} s")
        elif code != 0:
            inv.problems.append(f"exit code {code} (see {self.log.name})")
        self.invocations.append(inv)
        return inv

    def smartp(self, label: str, argv: list[str]) -> Invocation:
        return self.child(label, [sys.executable, "-m", "smartp.cli", *argv])

    @property
    def failed(self) -> int:
        return sum(1 for inv in self.invocations if inv.problems)


def read_outputs(json_path: Path, dump_path: Path | None) -> tuple[dict, bytes, str | None, int | None]:
    """(parsed JSON, its bytes, sha256 of the dump, dump data rows)."""
    raw = json_path.read_bytes()
    if dump_path is None:
        return json.loads(raw), raw, None, None
    digest, lines = hashlib.sha256(), 0
    with open(dump_path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
            lines += block.count(b"\n")
    return json.loads(raw), raw, digest.hexdigest(), lines - 1


class WorkloadRunner:
    """Runs one workload's invocations and checks each output."""

    def __init__(self, run: Run, name: str, seed: int):
        self.run, self.name, self.seed = run, name, seed
        self.w = WORKLOADS[name]
        self.json_path = OUT / f"{name}-seed{seed}.json"
        self.dump_path = OUT / f"{name}-seed{seed}-trials.csv"
        self.reference: tuple[bytes, str | None] | None = None

    def invoke(self, label: str, prefix: list[str] | None = None, workers: int | None = None) -> Invocation:
        """One run of the workload; ``prefix`` replaces ``python -m smartp.cli``."""
        for p in (self.json_path, self.dump_path):
            p.unlink(missing_ok=True)
        argv = self.w.argv(self.seed, self.json_path, self.dump_path, workers)
        if prefix is None:
            inv = self.run.smartp(label, argv)
        else:
            inv = self.run.child(label, prefix + argv)
        if inv.problems:
            return inv
        try:
            doc, raw, dump_hash, dump_rows = read_outputs(
                self.json_path, self.dump_path if self.w.dump else None
            )
        except (OSError, ValueError) as exc:
            inv.problems.append(f"unreadable output: {exc}")
            return inv
        try:
            inv.problems += CHECKS[self.name](doc, self.w, dump_rows)
        except (KeyError, TypeError) as exc:
            inv.problems.append(f"malformed output: {exc!r}")
        if self.reference is None:
            self.reference = (raw, dump_hash)
        elif (raw, dump_hash) != self.reference:
            inv.problems.append("output differs from the first run of this seed")
        return inv

    def window(self, seconds: float) -> list[Invocation]:
        """Closed loop for ``seconds``: start another run while one more fits."""
        samples: list[Invocation] = []
        start = time.perf_counter()
        while True:
            samples.append(self.invoke(f"{self.name} #{len(samples) + 1}"))
            typical = statistics.median(s.wall_s for s in samples)
            now = time.perf_counter()
            if len(samples) >= MIN_CALLS and now - start + typical > seconds:
                return samples
            if now + 1.5 * typical > self.run.deadline:
                return samples


# ---------------------------------------------------------------------------
# metrics


def stats(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def end_to_end(w: Workload, setup: list[Invocation], samples: list[Invocation]) -> dict[str, dict]:
    return {
        "wall_s": stats([s.wall_s for s in samples]),
        "setup_s": stats([s.wall_s for s in setup]),
        "cpu_s": stats([s.cpu_s for s in samples]),
        "peak_rss_mb": stats([s.rss_mb for s in samples]),
        "clusters_per_s": stats([w.clusters / s.wall_s for s in samples]),
    }


SPAN_STATS = ("calls", "total_s", "self_s")


def per_layer(spec: list[dict], summary: dict, extra: dict[str, float]) -> tuple[dict, list[str]]:
    """Flatten the tracer summary to ``<module>.<function>.<stat>`` values.

    A stat the tracer can produce but did not reach (a function never
    called) reads 0.  A metric of a function the tracer no longer finds
    (removed or renamed in ``src/``) reads None and gets a note.  Any
    other name, such as a misspelled stat of a wrapped function, is an
    error.  Returns (values, notes).
    """
    values = dict(extra)
    values.update({f"{f}.{stat}": 0 for f in summary["wrapped"] for stat in SPAN_STATS})
    values.update({name: 0 for name in summary["counted"]})
    for name, f in summary["functions"].items():
        for stat, v in f.items():
            values[f"{name}.{stat}"] = v
    values.update(summary["counters"])
    c = summary["counters"]
    values["moments.redraw_frac"] = c.get("moments.estimate_path_moments.redrawn", 0) / max(
        c.get("moments.estimate_path_moments.replicates", 0), 1
    )
    values["simtrial.redraw_frac"] = c.get("simtrial.simulate_trial.redrawn", 0) / max(
        c.get("simtrial.simulate_trial.clusters", 0), 1
    )
    out, notes = {}, []
    for metric in spec:
        name = metric["name"]
        if name in values:
            out[name] = values[name]
        elif name.rsplit(".", 1)[0] in summary["wrapped"]:
            raise KeyError(f"per-layer metric {name}: the function is traced but has no such stat")
        else:
            out[name] = None
            notes.append(f"{name} is absent: no traced smartp function produces it")
    return out, notes


# ---------------------------------------------------------------------------


PROVENANCE = """
import importlib.util, json, platform
import numpy, scipy, smartp
backend = getattr(smartp, "active_backend", None)
print(json.dumps({
    "smartp_file": smartp.__file__, "smartp_version": smartp.__version__,
    "backend": backend() if backend else None,
    "numba": importlib.util.find_spec("numba") is not None,
    "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
}))
"""


def provenance(run: Run) -> dict:
    out = OUT / f"{run.log.stem}-provenance.json"
    inv = run.child("provenance", [sys.executable, "-c", PROVENANCE], stdout=out)
    info = json.loads(out.read_text()) if not inv.problems else {}
    if info and SRC not in Path(info["smartp_file"]).resolve().parents:
        inv.problems.append(f"smartp was imported from {info['smartp_file']}, not from {SRC}")
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    return {
        **info,
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "smartp" / "cli.py").is_file():
        print(f"no smartp sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run = Run(tag, RUN_LIMIT_S)
    w = WORKLOADS[args.workload]
    runner = WorkloadRunner(run, args.workload, args.seed)
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "provenance": provenance(run)}

    if args.trace == 0:
        setup_json = OUT / f"{tag}-setup.json"
        setup = []
        for k in range(SETUP_CALLS):
            setup_json.unlink(missing_ok=True)
            inv = run.smartp(f"setup #{k + 1}", ["solve-missing", *w.model, "--json", str(setup_json)])
            if not inv.problems:
                inv.problems += check_setup(json.loads(setup_json.read_text()), w.model)
            setup.append(inv)
        samples = runner.window(args.seconds)
        e2e = end_to_end(w, setup, samples)
        metrics = {m["name"]: (e2e[m["name"]]["median"], m["unit"]) for m in spec["end_to_end"]}
        record["end_to_end"] = e2e
    else:
        samples = runner.window(args.seconds)
        summary_path = OUT / f"{tag}-spans.json"
        summary_path.unlink(missing_ok=True)
        traced = runner.invoke(
            "traced", [sys.executable, str(HERE / "tracer.py"), "--src", str(SRC), "--out", str(summary_path), "--"]
        )
        dump_bytes = runner.dump_path.stat().st_size if runner.dump_path.exists() else 0
        if w.workers > 1:
            runner.invoke(f"{args.workload} --workers 1", workers=1)
        probe_path = OUT / f"{tag}-probe.json"
        probe = run.child(
            "probe", [sys.executable, str(HERE / "probe.py"), "--src", str(SRC), "--seed", str(args.seed)],
            stdout=probe_path,
        )
        probe_ms = json.loads(probe_path.read_text()) if not probe.problems else {}
        summary = json.loads(summary_path.read_text()) if summary_path.exists() else None
        notes: list[str] = []
        if summary is None or not probe_ms:
            metrics = {}
        else:
            untraced = statistics.median(s.wall_s for s in samples)
            extra = {
                "cli.import_s": summary["import_s"],
                "cli.dump_bytes": dump_bytes,
                "trace.overhead_s": traced.wall_s - untraced,
                **{f"probe.{k}": v for k, v in probe_ms.items() if k.endswith("_ms")},
            }
            values, notes = per_layer(spec["per_layer"], summary, extra)
            metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["per_layer"]}
        record["probe"] = probe_ms
        record["notes"] = notes
        record["trace_summary"] = summary

    runner.dump_path.unlink(missing_ok=True)  # ~15 MB per run; its hash and row count are kept
    record["workload_params"] = {"num": w.num, "reps": w.reps, "n": w.n, "workers": w.workers,
                                 "clusters": w.clusters, "runs": len(samples)}
    record["invocations"] = [vars(inv) for inv in run.invocations]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    attempted, failed = len(run.invocations), run.failed
    correct = failed == 0 and bool(metrics)
    record.update(correct=correct, attempted=attempted, failed=failed)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"smartp benchmark  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"runs={len(samples)} backend={record['provenance'].get('backend')}")
    for inv in run.invocations:
        for p in inv.problems:
            print(f"FAIL {inv.label}: {p}")
    if args.trace == 0:
        for name, s in record["end_to_end"].items():
            unit = next(m["unit"] for m in spec["end_to_end"] if m["name"] == name)
            print(f"  {name:<16} {s['median']:>12.6g} {unit:<6} [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] n={s['n']}")
    else:
        for name, (value, unit) in metrics.items():
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"  {name:<44} {shown:>14} {unit}")
        for note in notes:
            print(f"  note: {note}")
        for k, ref in probe_ms.get("reference_ms", {}).items():
            print(f"  probe.{k} is {probe_ms[k] / ref:.3f} x the ROADMAP figure of {ref:g} ms")
    print(f"  {'fail_frac':<16} {failed / attempted:>12.6g} ratio  ({failed} of {attempted} runs failed)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
