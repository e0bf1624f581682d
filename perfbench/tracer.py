"""Traced in-process run of the smartp CLI.

    python3 perfbench/tracer.py --src SRC --out SUMMARY.json -- <smartp arguments>

Imports ``smartp.cli`` from SRC (timing the import in this fresh process),
wraps every public function of every ``smartp`` module (of ``cli`` only
``main``), plus ``moments._simulate_ybar`` (the one private boundary both
``moments`` and ``simtrial`` cross), and calls ``smartp.cli.main(argv)``.  A wrapper is
installed at every module attribute that refers to the function, so names
bound by ``from ... import`` are traced where their callers look them up.

Each call records a span (name, start, end, id, parent id); spans stay in
memory and are reduced to per-function call counts, total time and self
time (duration minus the union of the child spans) when ``main`` returns.
Some functions also add counts computed from their arguments and result
(COUNTERS); ``design.stage2_prob`` is not wrapped, its calls are counted
at its callers.  Thread pools created inside smartp are swapped for one
that carries the submitting span into the worker, so work on a worker
thread is a child of
the call that scheduled it; such children overlap their parent and each
other, hence the union.  The wrappers only read the clock and their
arguments: they draw no random numbers, so outputs stay byte-identical to
an untraced run.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# private functions traced besides the public ones
EXTRA = {"moments._simulate_ybar"}
# the CLI is timed as one layer: its command functions and the argument
# parsing (and the --dump-trials writer) are part of main's self time
ENTRY_ONLY = {"cli": "main"}
# public functions left unwrapped: one call per cluster on the trial path,
# counted at their callers (see COUNTERS)
UNTRACED = {"design.stage2_prob"}


def _kernel_work(a, out):
    """Work of one cluster-kernel call, computed from the argument shapes.

    Per row: the lower-triangular product q = L z costs T*T flops, the
    probit index and the masked outcome sum 7 per sub-unit, the mean 1.
    Bytes are the compulsory traffic: four (n, T) float64 inputs, the
    factor, and two n-vectors out.
    """
    n, t = a["zq"].shape
    return n, n * (t * t + 7 * t + 1), 8 * (4 * n * t + t * t + 2 * n)


STAGE2_CALLS = "design.stage2_prob.calls"

# wrapped function -> (the counts it adds, fn(bound arguments, result) -> their values)
COUNTERS = {
    "backend.ybar_and_count": (
        ("backend.ybar_and_count.rows", "backend.ybar_and_count.flops", "backend.ybar_and_count.bytes"),
        _kernel_work,
    ),
    "dists.sample_st": (("dists.sample_st.variates",), lambda a, out: (int(a["n"]),)),
    "moments.estimate_path_moments": (
        ("moments.estimate_path_moments.replicates", "moments.estimate_path_moments.redrawn"),
        lambda a, out: (out.n_samples, out.n_redrawn),
    ),
    "simtrial.simulate_trial": (
        ("simtrial.simulate_trial.clusters", "simtrial.simulate_trial.redrawn"),
        lambda a, out: (int(a["n_clusters"]), out.n_redrawn),
    ),
    # calls of the unwrapped design.stage2_prob: one per cluster, one per
    # path, and one for each of a regime's two paths
    "simtrial.ipw_weights": ((STAGE2_CALLS,), lambda a, out: (len(a["ds"].path),)),
    "design.path_tables": ((STAGE2_CALLS,), lambda a, out: (len(a["design"].paths),)),
    "moments.regime_pieces": ((STAGE2_CALLS,), lambda a, out: (2,)),
}


class ContextPool(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks run in the submitter's context (and so its span)."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int | None]] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("span", default=None)
        self.wrapped: set[str] = set()

    def _add(self, values: dict) -> None:
        with self._lock:
            self.counts.update(values)

    def counted(self) -> list[str]:
        """Every count the wrapped functions can add (0 when never reached)."""
        return sorted({c for f in self.wrapped if f in COUNTERS for c in COUNTERS[f][0]})

    def wrap(self, name: str, fn):
        self.wrapped.add(name)
        names, counter = COUNTERS.get(name, ((), None))
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._current.get()
            token = self._current.set(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._current.reset(token)
                self.spans.append((name, t0, t1, sid, parent))
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self._add(dict(zip(names, counter(bound, out))))
            return out

        return traced

    def summary(self) -> dict:
        children = defaultdict(list)
        for _, t0, t1, _, parent in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        functions: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for name, t0, t1, sid, _ in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                lo, hi = max(c0, end), min(c1, t1)
                if hi > lo:
                    covered += hi - lo
                end = max(end, hi)
            f = functions[name]
            f["calls"] += 1
            f["total_s"] += t1 - t0
            f["self_s"] += t1 - t0 - covered
        return {
            "wrapped": sorted(self.wrapped),
            "functions": dict(functions),
            "counted": self.counted(),
            "counters": dict(self.counts),
            "spans": len(self.spans),
        }


def smartp_modules(package):
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{package.__name__}.{info.name}")
    return [package] + [m for name, m in sys.modules.items() if name.startswith(package.__name__ + ".")]


def install(tracer: Tracer, package) -> None:
    modules = smartp_modules(package)
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1].lstrip("_")
        for attr, obj in vars(mod).items():
            if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                continue
            name = f"{short}.{attr}"
            if ENTRY_ONLY.get(short, attr) != attr or name in UNTRACED:
                continue
            if not attr.startswith("_") or name in EXTRA:
                wrappers[id(obj)] = tracer.wrap(name, obj)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
            elif obj is ThreadPoolExecutor:
                setattr(mod, attr, ContextPool)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding the smartp package")
    ap.add_argument("--out", required=True, help="where to write the span summary (JSON)")
    ap.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the smartp arguments")
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    cli = importlib.import_module("smartp.cli")
    import_s = time.perf_counter() - t0
    package = sys.modules["smartp"]
    if src not in Path(package.__file__).resolve().parents:
        print(f"smartp was imported from {package.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = Tracer()
    install(tracer, package)
    try:
        return cli.main(argv)
    finally:
        Path(args.out).write_text(json.dumps({"import_s": import_s, **tracer.summary()}, indent=1))


if __name__ == "__main__":
    sys.exit(main())
