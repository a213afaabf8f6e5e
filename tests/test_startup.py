"""What a fresh process imports: the start-up cost of every CLI call.

``-X importtime`` lists each module a process imports.  Importing the
package, or running a one-shot command, must not bring in any of the
modules below beyond what a bare interpreter already loads here.
"""

import os
import subprocess
import sys
from pathlib import Path

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


def test_importing_the_package_loads_none_of_them():
    bare, _ = imported("-c", "pass")
    names, _ = imported("-c", "import imbalattice")
    assert "imbalattice.lattice" in names
    assert (names - bare) & KEPT_OFF_THE_IMPORT_PATH == set()


def test_a_one_shot_command_loads_none_of_them():
    bare, _ = imported("-c", "pass")
    names, out = imported("-m", "imbalattice", "meet", "1,2,3,3", "2,2,2,2")
    assert out == "2,2,2,2\n"
    assert "imbalattice.cli" in names
    assert (names - bare) & KEPT_OFF_THE_IMPORT_PATH == set()
