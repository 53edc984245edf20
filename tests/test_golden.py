"""Regression oracle for the response layer and the Monte Carlo.

The CSVs under ``golden/`` were written by an earlier revision of the
toolkit.  Rerunning the same commands must reproduce their header, row
count, ``stable`` column (where there is one) and NaN cells exactly, and
every float to 1e-12.  The rethermalization file pins one seeded
realisation of the ensemble.
"""

from pathlib import Path

import numpy as np
import pytest

from optospring.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "map_experiment_6x5.csv": ["map", "--config", "experiment",
                               "--delta-range", "0:1.7e6:6",
                               "--gel-range", "0:1.5:5"],
    "map_ideal_auto.csv": ["map", "--config", "ideal"],
    "cool_experiment_14_560_14.csv": ["cool", "--config", "experiment",
                                      "--gel-range", "14:560:14"],
    "retherm_experiment_8x1_seed20.csv": ["retherm", "--config", "experiment",
                                          "--n-trajectories", "8",
                                          "--duration", "1", "--seed", "20"],
}
OUTPUT = {"retherm": "retherm_mean_n.csv"}


def _read(path):
    lines = [line for line in path.read_text().splitlines()
             if line.strip() and not line.startswith("#")]
    return lines[0].split(","), np.array(
        [line.split(",") for line in lines[1:]], dtype=float)


@pytest.mark.parametrize("golden", sorted(CASES))
def test_matches_golden(tmp_path, golden):
    argv = CASES[golden]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    header, want = _read(GOLDEN / golden)
    got_header, got = _read(tmp_path / OUTPUT.get(argv[0], f"{argv[0]}.csv"))
    assert got_header == header
    assert got.shape == want.shape
    if "stable" in header:
        stable = header.index("stable")
        np.testing.assert_array_equal(got[:, stable], want[:, stable])
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
