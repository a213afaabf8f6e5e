"""The demos and the README quick start run as written.

Each demo is copied into a temporary directory, so whatever it writes into
``out/`` lands there, and runs in a fresh interpreter that imports this
checkout's package.  The README's ``>>>`` examples run under ``doctest``.
"""

import doctest
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import imbalattice

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.stem
)
def test_demo_runs_cleanly(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=str(Path(imbalattice.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_readme_quick_start():
    failed, attempted = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert attempted and not failed
