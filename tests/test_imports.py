"""Cold-start cost: importing the toolkit and running any command loads no
scipy module, and no numpy.ma, at all; numpy is the only runtime
dependency."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.constants

from optospring.model import C_LIGHT, HBAR, K_B

SRC = Path(__file__).resolve().parents[1] / "src"

_LOADED = """
import sys
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
                  or m == "numpy.ma" or m.startswith("numpy.ma."))
"""

_PROBE = _LOADED + """
import optospring, optospring.cli
print(loaded())
assert optospring.cli.main(sys.argv[1:]) == 0
print(loaded())
"""

# the Monte Carlo and the Welch estimate, called as a library
_LIBRARY_PROBE = _LOADED + """
from optospring import load_config
from optospring.dynamics import (SimPlan, measure_rate, run_ensemble,
                                 simulate_trajectory)
from optospring.spectra import welch_psd
config = load_config("experiment")
plan = SimPlan(duration=1.0, n_trajectories=2, master_seed=1)
run_ensemble(config, config.noise, plan)
measure_rate(config, config.noise, plan)
t, x, _, _ = simulate_trajectory(config, config.noise, plan, 0)
welch_psd(x, float(t[1] - t[0]), segment_length=256)
print(loaded())
"""

COMMANDS = {
    "spectrum": ["spectrum", "--config", "experiment"],
    "cool": ["cool", "--config", "experiment", "--gel-range", "14:560:3"],
    "map": ["map", "--config", "experiment", "--delta-range", "0:1.7e6:4",
            "--gel-range", "0:1.5:3"],
    "retherm": ["retherm", "--config", "experiment", "--n-trajectories", "2",
                "--duration", "1"],
    "scan": ["scan", "--config", "experiment", "--n-trajectories", "2",
             "--duration", "1", "--deltas", "9e5:1e6:2"],
}


def _run_fresh(code, argv=()):
    """Run in a fresh interpreter: this session has loaded scipy already."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _loaded_before_and_after(argv):
    lines = _run_fresh(_PROBE, argv)
    return lines[0], lines[-1]


def test_import_and_check_load_no_scipy_submodule():
    assert _loaded_before_and_after(["check", "--config", "experiment"]) \
        == ("[]", "[]")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_no_scipy_module(tmp_path, command):
    """``cool`` covers the Lorentzian peak fit, ``spectrum`` and ``cool``
    the frequency grid (np.unique would load numpy.ma), ``retherm`` and
    ``scan`` the Monte Carlo kernel, its phase maps and the exact oracle."""
    argv = COMMANDS[command] + ["--out-dir", str(tmp_path)]
    assert _loaded_before_and_after(argv) == ("[]", "[]")


def test_monte_carlo_and_welch_load_no_scipy_module():
    assert _run_fresh(_LIBRARY_PROBE)[-1] == "[]"


def test_literal_constants_equal_scipy():
    assert HBAR == scipy.constants.hbar
    assert K_B == scipy.constants.k
    assert C_LIGHT == scipy.constants.c
