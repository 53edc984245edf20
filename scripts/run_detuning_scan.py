#!/usr/bin/env python3
"""Decoherence rate vs detuning: measured (Monte Carlo) and predicted.

The scan walks the trap along the far side of the buildup resonance (the
side where the parked servo leaves the mode weakly damped).  Expect the
measured curve to track the rate law and to bottom out well below the bare
pendulum value.  --fast runs 8 trajectories per detuning instead of 50.
"""

import sys
from pathlib import Path

from optospring.cli import main

OUT = Path(__file__).resolve().parent.parent / "runs"


if __name__ == "__main__":
    fast = "--fast" in sys.argv
    n_traj = "8" if fast else "50"
    # far-branch detunings spanning traps from ~960 Hz down through the
    # rate minimum near 430 Hz
    sys.exit(main(["scan", "--config", "experiment",
                   "--deltas", "8.8e5:2.6e6:8",
                   "--n-trajectories", n_traj,
                   "--duration", "1.0",
                   "--seed", "31415",
                   "--out-dir", str(OUT / "scan_detuning")]))
