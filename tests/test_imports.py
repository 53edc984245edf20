"""Cold-start cost: importing the toolkit loads no scipy submodule."""

import os
import subprocess
import sys
from pathlib import Path

import scipy.constants

from optospring.model import C_LIGHT, HBAR, K_B

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import sys
import optospring, optospring.cli
heavy = ("scipy.signal", "scipy.optimize", "scipy.linalg", "scipy.constants")
print(sorted(m for m in heavy if m in sys.modules))
assert optospring.cli.main(["check", "--config", "experiment"]) == 0
print(sorted(m for m in heavy if m in sys.modules))
"""


def test_import_and_check_load_no_scipy_submodule():
    """Run in a fresh interpreter: this session has loaded scipy already."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "[]"


def test_literal_constants_equal_scipy():
    assert HBAR == scipy.constants.hbar
    assert K_B == scipy.constants.k
    assert C_LIGHT == scipy.constants.c
