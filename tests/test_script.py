"""The ``smartp`` command's entry, ``cli.script``: a CLI run collects no cycles and freezes its
heap before exit, while ``cli.main`` and ``cli.plan`` keep the collector as they find it."""

import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

from smartp import cli

WORKED = ["--regime", "1,5", "--p-i", "0.8027872", "--c-i", "0.4125813",
          "--mu-scalar", "0,0.5,0,2,0,0,5,0,0,0"]
SAMPLESIZE = ["samplesize", *WORKED, "--num", "20000"]
POWER = ["power", *WORKED, "--num", "20000", "--n", "20", "--reps", "100"]
#: run ``cli.script`` on the arguments, then print its exit code and the collector's state
SCRIPT = """
import gc, json, sys
from smartp import cli
try:
    code = cli.script(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, gc.isenabled(), gc.get_freeze_count() > 0]))
"""
#: ``python -m smartp.cli`` in-process, with a hook that records each collection and whether it
#: ran while code of ``cli`` was on the stack; prints the exit code and the records
RUN_MODULE = """
import gc, json, os, runpy, sys
collections = []

def hook(phase, info):
    if phase == "start":
        frame = sys._getframe(1)
        while frame and not frame.f_code.co_filename.endswith(os.path.join("smartp", "cli.py")):
            frame = frame.f_back
        collections.append([info["generation"], frame is not None])

gc.callbacks.append(hook)
sys.argv = ["smartp", *sys.argv[1:]]
try:
    runpy.run_module("smartp.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, collections]))
"""


def _python(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def gc_state():
    """Restore the collector's state and unfreeze what a test froze."""
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    yield enabled, frozen
    (gc.enable if enabled else gc.disable)()
    if gc.get_freeze_count() > frozen:
        gc.unfreeze()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("argv", [SAMPLESIZE, POWER, ["samplesize", *WORKED, "--workers", "65"]],
                         ids=["samplesize", "power", "refused"])
def test_main_and_plan_keep_the_collector_as_they_find_it(gc_state, capsys, argv, enabled):
    """A library caller of ``main`` or ``plan`` keeps its own collector state; only ``script``
    changes it."""
    (gc.enable if enabled else gc.disable)()
    frozen = gc.get_freeze_count()
    if cli.main(argv) == 0:
        cli.plan(argv)
    capsys.readouterr()
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)


@pytest.mark.parametrize("argv, code", [
    (["describe-design"], 0),
    (["solve-missing", *WORKED[2:6]], 0),
    (["samplesize", *WORKED, "--workers", "65"], 2),
    (["samplesize", "--no-such-flag"], 2),
], ids=["describe-design", "solve-missing", "config-error", "parser-error"])
def test_script_returns_the_exit_code_of_main_with_the_collector_off_and_the_heap_frozen(
        capsys, argv, code):
    """``script`` returns what ``main`` returns, or lets the parser's exit through, and on every
    way out leaves the collector off and the heap frozen, so the collection at exit skips it."""
    try:
        assert cli.main(argv) == code
    except SystemExit as exc:
        assert exc.code == code
    capsys.readouterr()
    assert _python(SCRIPT, *argv) == [code, False, True]


@pytest.mark.parametrize("argv", [SAMPLESIZE, [*POWER, "--workers", "2"]],
                         ids=["samplesize", "power-two-workers"])
def test_python_m_collects_nothing_once_cli_runs(argv):
    """Under ``python -m smartp.cli`` the collector is off before ``cli`` imports numpy: no
    collection runs while its code is on the stack.  Compiling ``cli.py`` from source, which the
    interpreter does before the module's first line, may still run a young collection or two."""
    code, collections = _python(RUN_MODULE, *argv)
    assert code == 0
    assert [c for c in collections if c[1]] == []


def _cycles(argv, capsys) -> int:
    """The cyclic garbage one ``main`` run leaves with the collector off."""
    gc.collect()
    gc.disable()
    assert cli.main(argv) == 0
    capsys.readouterr()
    return gc.collect()


@pytest.mark.parametrize("small, large", [
    (POWER, [*POWER[:-1], "1000"]),
    (SAMPLESIZE, [*SAMPLESIZE[:-1], "200000"]),
    ([*SAMPLESIZE, "--workers", "2"], [*SAMPLESIZE[:-1], "200000", "--workers", "2"]),
], ids=["reps", "num", "num-two-workers"])
def test_a_run_leaves_the_same_cycles_at_any_size(gc_state, capsys, small, large):
    """With the collector off, the garbage a run leaves does not grow with ``--reps`` or
    ``--num``: no chunk makes a cycle, so a run that never collects holds no more memory."""
    _cycles(small, capsys)  # the first run of a command loads its modules
    assert _cycles(small, capsys) == _cycles(large, capsys)


def test_the_smartp_script_is_cli_script():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert project["project"]["scripts"] == {"smartp": "smartp.cli:script"}
