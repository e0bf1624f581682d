"""What each command and ``import smartp`` load: a command imports only the modules it runs, and
the package's public names load their module on first use."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import smartp

WORKED = ["--regime", "1,5", "--p-i", "0.8027872", "--c-i", "0.4125813",
          "--mu-scalar", "0,0.5,0,2,0,0,5,0,0,0"]
WATCHED = ("smartp.simtrial", "smartp._backend", "smartp._dump", "concurrent.futures",
           "statistics", "logging")
#: run ``cli.main`` on the arguments, then print the watched modules it loaded as a last line
LOADED = f"""
import json, sys
from smartp import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, [m for m in {WATCHED!r} if m in sys.modules]]))
"""


def _python(code, *args, env=None):
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def loaded_by(*argv):
    code, loaded = json.loads(_python(LOADED, *argv).stdout.splitlines()[-1])
    assert code == 0
    return set(loaded)


@pytest.mark.parametrize("argv, want", [
    (["solve-missing", "--p-i", "0.8", "--c-i", "0.4"], set()),
    (["describe-design"], set()),
    (["samplesize", *WORKED, "--num", "20000", "--workers", "1"], {"statistics"}),
    (["power", *WORKED, "--num", "20000", "--n", "20", "--reps", "40"],
     {"statistics", "smartp.simtrial"}),
    (["samplesize", *WORKED, "--num", "20000", "--workers", "2"],
     {"statistics", "concurrent.futures", "logging"}),
], ids=["solve-missing", "describe-design", "samplesize", "power", "two-workers"])
def test_a_command_loads_only_what_it_runs(argv, want):
    """``simtrial`` loads only in ``power``, ``concurrent.futures`` (and its ``logging``) only at
    ``--workers`` > 1, ``statistics`` only where a normal quantile is taken, and the reference
    kernel ``_backend`` and the dump helper ``_dump`` in no command without ``--dump-trials``."""
    assert loaded_by(*argv) == want


def test_import_smartp_loads_no_submodule_and_no_numpy():
    """A fresh ``import smartp`` loads nothing more, and ``dir`` lists the names not yet loaded."""
    code = "import sys, smartp; print([m for m in sys.modules if m.startswith('smartp.')], " \
           "'numpy' in sys.modules, sorted(set(smartp._MODULE_OF) - set(dir(smartp))))"
    assert _python(code).stdout.split() == ["[]", "False", "[]"]


def test_every_lazy_name_resolves_to_its_module_object():
    for module, names in smartp._EXPORTS.items():
        mod = importlib.import_module(f"smartp.{module}")
        for name in names:
            assert getattr(smartp, name) is getattr(mod, name), name
    assert "__version__" in dir(smartp)
    star = {}
    exec("from smartp import *", star)
    assert set(smartp._MODULE_OF) <= star.keys()
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        smartp.nope
    from smartp import moments  # a submodule, not a lazy name
    assert moments.__name__ == "smartp.moments"


@pytest.mark.parametrize("order, preset, warns", [
    ("numpy, smartp", None, True),
    ("smartp, numpy", None, False),
    ("numpy, smartp", "2", False),
])
def test_warns_once_when_numpy_came_first_with_blas_threads_unset(order, preset, warns):
    """OpenBLAS reads OPENBLAS_NUM_THREADS when numpy loads, so ``import smartp`` after numpy
    can no longer set it; it warns then, once, unless the variable was set.  Imported first, it
    sets the variable to 1 unless set."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = f"import os, importlib, {order}; importlib.reload(smartp); " \
           "print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = _python(code, env=env)
    assert proc.stdout.strip() == (preset or "1")
    assert proc.stderr.count("numpy was imported before smartp") == (1 if warns else 0)
