"""Edge-of-range sweep generated from ``cli.TABLE``: every row with a value flag, under every
command that reads it, at zero, the extremes of double precision, ±1e154 (whose square is near
the largest double), NaN, the infinities, a small negative value and each range check's
boundaries with the nearest value on each side.

Each case runs ``cli.main`` in-process on a small Monte Carlo (``--num 2000 --reps 20 --n 30``)
and must exit 0, 2 or 3 within TIME_BOUND seconds, without raising and without a
RuntimeWarning.  On exit 0 every number it prints is finite; on exit 2 or 3 the message names
the parameter or the quantity that failed.
"""

import math
import re
import time
import warnings

import pytest

from smartp import cli

EXTREMES = ("0", "1e-300", "-1e-300", "1e300", "-1e300", "1e154", "-1e154", "nan", "inf", "-inf",
            "-1e-3")
#: the boundaries of each row's range check; the sweep adds the nearest value on each side
BOUNDS = {
    "tau": (0.0, math.inf), "sigma1": (0.0, math.inf),
    "delta_std": (0.0, math.inf), "rho": (0.0, 1.0), "nu": (0.0,), "p_i": (0.0, 1.0),
    "beta": (0.0, 1.0), "power": (0.0, 2.0**-54, 1.0), "gamma": (0.0, 1.0),
    "alpha": (0.0, 1.0, 2.0**-53), "num": (1,), "workers": (1,), "n": (1,), "reps": (2,), "seed": (0,),
}
#: rows with a FINITE check: their boundaries are the infinities, which EXTREMES holds
UNBOUNDED = {"lambda", "a0", "b0", "c_i", "mu_scalar_per_path"}
#: list rows take the value once per arm or per path of the built-in design
COPIES = {"gamma": 2, "mu_scalar_per_path": 10}
#: what a message may name instead of the parameter: the quantity that failed
QUANTITIES = {
    "nu": ("dof",), "c_i": ("|c| target",), "delta_std": ("effect size",),
    "mu_scalar_per_path": ("effect size", "path means"), "gamma": ("effect size",),
    "num": ("variance",),
}
#: quantities any input can break: a covariance that is not positive definite, and a missingness
#: model that leaves no sub-unit
ANY_QUANTITY = ("not positive definite", "missingness model")
#: seconds one case may take: the slowest takes a few hundredths, so a case over this bound
#: hangs or runs far more Monte Carlo than the sweep asks for
TIME_BOUND = 2.0
#: the base arguments of each command; the swept flag replaces its entry
SIZED = {"--regime": "1,5", "--mu-scalar": "0,0.5,0,2,0,0,5,0,0,0", "--num": "2000"}
BASE = {
    cli.SAMPLESIZE: ("samplesize", SIZED),
    cli.POWER: ("power", {**SIZED, "--reps": "20", "--n": "30"}),
    cli.SOLVE: ("solve-missing", {"--p-i": "0.8", "--c-i": "0.4"}),
    cli.DESCRIBE: ("describe-design", {}),
    cli.DELTA_STD: ("samplesize", {"--delta-std": "0.45"}),
}
NUMERIC = {cli._float, cli._int, cli._floats, cli._ints}


def _values(row: cli.Row) -> list[str]:
    if row.parse is cli._int or row.parse is cli._ints:
        near = [str(b + d) for b in BOUNDS.get(row.name, ()) for d in (-1, 0, 1)]
    else:
        near = [repr(math.nextafter(b, to)) for b in BOUNDS.get(row.name, ())
                for to in (-math.inf, math.inf)] + [repr(b) for b in BOUNDS.get(row.name, ())]
    return list(dict.fromkeys([*EXTREMES, *near]))


def _cases():
    for row in cli.TABLE:
        if row.flag is None or row.parse not in NUMERIC:
            continue
        for command in sorted(row.commands):
            name, base = BASE[command]
            for value in _values(row):
                copies = ",".join([value] * COPIES.get(row.name, 1))
                argv = [name, *(f"{flag}={v}" for flag, v in {**base, row.flag: copies}.items())]
                yield pytest.param(row, argv, id=f"{command}{row.flag}={value}")


def test_every_numeric_row_has_its_bounds():
    """A row with a new range check must list its boundaries here, or the sweep would miss them."""
    checked = {row.name for row in cli.TABLE
               if row.flag and row.parse in NUMERIC and row.check is not None}
    assert checked <= BOUNDS.keys() | UNBOUNDED


@pytest.mark.parametrize("row, argv", list(_cases()))
def test_edge_values_exit_cleanly(row, argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    printed = capsys.readouterr()
    assert seconds < TIME_BOUND, (argv, seconds)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    assert code in (0, 2, 3), (argv, printed.err)
    if code == 0:
        assert not re.search(r"\b(nan|inf)\b", printed.out, re.IGNORECASE), printed.out
    else:
        names = (row.name, row.flag, *QUANTITIES.get(row.name, ()), *ANY_QUANTITY)
        assert any(name in printed.err for name in names), (argv, printed.err)
        # no message reports a nan that the user did not type
        nan = re.compile(r"\bnan\b", re.IGNORECASE)
        assert nan.search(" ".join(argv)) or not nan.search(printed.err), (argv, printed.err)
