"""Cold-start cost: importing the toolkit and running the commands that do
no Monte Carlo load no scipy module at all."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.constants

from optospring.model import C_LIGHT, HBAR, K_B

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import sys
import optospring, optospring.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(scipy_modules())
assert optospring.cli.main(sys.argv[1:]) == 0
print(scipy_modules())
"""

COMMANDS = {
    "spectrum": ["spectrum", "--config", "experiment"],
    "cool": ["cool", "--config", "experiment", "--gel-range", "14:560:3"],
    "map": ["map", "--config", "experiment", "--delta-range", "0:1.7e6:4",
            "--gel-range", "0:1.5:3"],
}


def _scipy_before_and_after(argv):
    """Run in a fresh interpreter: this session has loaded scipy already."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[0], lines[-1]


def test_import_and_check_load_no_scipy_submodule():
    assert _scipy_before_and_after(["check", "--config", "experiment"]) \
        == ("[]", "[]")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_no_scipy_module(tmp_path, command):
    """``cool`` covers the Lorentzian peak fit."""
    argv = COMMANDS[command] + ["--out-dir", str(tmp_path)]
    assert _scipy_before_and_after(argv) == ("[]", "[]")


def test_literal_constants_equal_scipy():
    assert HBAR == scipy.constants.hbar
    assert K_B == scipy.constants.k
    assert C_LIGHT == scipy.constants.c
