"""What a fresh process imports and runs: the start-up cost of every CLI call.

``-X importtime`` lists each module a process imports.  Importing the
package, or running a one-shot command, must not bring in any of the
modules below beyond what a bare interpreter already loads here.

Which of the package's own modules run is read off the ``exec`` audit
event that running a module's code raises: the package registers its
library modules without running them, and a module runs on first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import imbalattice

KEPT_OFF_THE_IMPORT_PATH = {"dataclasses", "inspect", "fractions", "decimal", "json"}


def imported(*args):
    """Run ``python -X importtime ARGS`` and return the names it imported."""
    env = dict(os.environ, PYTHONPATH=str(Path(imbalattice.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return names, proc.stdout


LIBRARY = {
    "errors", "sequences", "transforms", "lattice",
    "irreducibility", "oracle", "trees", "verify",
}

# Records the package modules whose code runs, then runs argv[1] and
# prints their names as JSON.
RAN = """
import json, pathlib, sys
ran = []
def hook(event, args):
    if event == "exec" and pathlib.Path(getattr(args[0], "co_filename", "")).parent == PACKAGE:
        ran.append(pathlib.Path(args[0].co_filename).stem)
PACKAGE = pathlib.Path(sys.argv.pop()).resolve()
sys.addaudithook(hook)
exec(sys.argv[1])
print(json.dumps(ran))
"""


def ran(code):
    """The package modules, ``__init__`` included, whose code runs when a
    fresh process runs ``code``."""
    package = Path(imbalattice.__file__).parent
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    proc = subprocess.run(
        [sys.executable, "-c", RAN, code, str(package)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_package_loads_none_of_them():
    bare, _ = imported("-c", "pass")
    # ``verify`` imports every other library module, so reading one of its
    # names runs them all.
    names, out = imported("-c", "import imbalattice; print(imbalattice.run_checks.__module__)")
    assert out == "imbalattice.verify\n"
    assert (names - bare) & KEPT_OFF_THE_IMPORT_PATH == set()


def test_a_one_shot_command_loads_none_of_them():
    bare, _ = imported("-c", "pass")
    names, out = imported("-m", "imbalattice", "meet", "1,2,3,3", "2,2,2,2")
    assert out == "2,2,2,2\n"
    assert "imbalattice.cli" in names
    assert (names - bare) & KEPT_OFF_THE_IMPORT_PATH == set()


@pytest.mark.parametrize("code, expected", [
    ("import imbalattice", {"__init__"}),
    ("import imbalattice; imbalattice.validate", {"__init__", "errors", "_value", "sequences"}),
    # A submodule outside the eight is left to the import system.
    ("from imbalattice import cli", {"__init__", "cli"}),
    ("import imbalattice; hasattr(imbalattice, '__wrapped__')", {"__init__"}),
])
def test_a_name_runs_only_the_modules_it_needs(code, expected):
    assert ran(code) == expected


def test_a_reload_keeps_the_registered_modules():
    code = (
        "import importlib, imbalattice\n"
        "meet, lattice = imbalattice.meet, imbalattice.lattice\n"
        "importlib.reload(imbalattice)\n"
        "assert imbalattice.lattice is lattice and lattice.meet is meet is imbalattice.meet"
    )
    assert "lattice" in ran(code)


def test_every_library_module_is_registered_on_import():
    # Tools that patch the package from outside find every module in
    # ``sys.modules`` without running it.
    code = (
        "import sys, imbalattice\n"
        f"assert all('imbalattice.' + m in sys.modules for m in {sorted(LIBRARY)!r})"
    )
    assert ran(code) == {"__init__"}


@pytest.mark.parametrize("argv", [
    ["compare", "1,2,3,3", "2,2,2,2"],
    ["meet", "1,2,3,3", "2,2,2,2"],
    ["balance", "1,2,3,3"],
    ["tree", "1,2,3,3"],
    ["code", "1,2,3,3"],
])
def test_a_one_shot_command_runs_no_oracle_law_or_irreducibility_module(argv):
    modules = ran(f"from imbalattice.cli import main; assert main({argv!r}) == 0")
    assert {"cli", "sequences"} <= modules
    assert modules & {"verify", "oracle", "irreducibility"} == set()


def test_enumeration_and_covers_run_no_trees():
    for argv in (["enumerate", "4"], ["hasse", "4"]):
        modules = ran(f"from imbalattice.cli import main; assert main({argv!r}) == 0")
        assert "lattice" in modules and "trees" not in modules


def test_dir_lists_every_public_name():
    code = (
        "import importlib, imbalattice\n"
        "listed = set(dir(imbalattice))\n"
        f"for m in {sorted(LIBRARY)!r}:\n"
        "    assert set(importlib.import_module('imbalattice.' + m).__all__) <= listed, m"
    )
    assert ran(code) >= LIBRARY


def test_threads_racing_to_first_use_all_get_the_finished_objects():
    # Eight threads start together, each reading the four names in its own
    # order; half read through the package, half import from the module.
    code = """
import sys, threading
sys.setswitchinterval(1e-6)
import imbalattice
NAMES = [("lattice", "meet"), ("verify", "run_checks"),
         ("trees", "tree_from_sequence"), ("oracle", "leq_by_definition")]
start = threading.Barrier(8, timeout=30)
got = {}
def read(i):
    start.wait()
    for module, name in NAMES[i % 4:] + NAMES[:i % 4]:
        if i % 2:
            got[i, name] = getattr(imbalattice, name)
        else:
            got[i, name] = getattr(__import__("imbalattice." + module, fromlist=[name]), name)
threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
for t in threads: t.start()
for t in threads: t.join(timeout=30)
assert not any(t.is_alive() for t in threads)
assert len(got) == 32, sorted(got)
home = {name: module for module, name in NAMES}
for (i, name), value in got.items():
    owner = sys.modules["imbalattice." + home[name]]
    assert value is getattr(owner, name) and value.__module__ == owner.__name__
"""
    assert ran(code) >= LIBRARY
