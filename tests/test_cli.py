"""Command-line frontend: outputs, manifests, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from optospring.cli import _parse_range, main
from optospring.dynamics import (MAX_PLAN_FLOATS, MEASUREMENT_COLUMNS, SimPlan,
                                 off_state_mode, reduced_model)
from optospring.errors import ValidationError
from optospring.model import TWO_PI, load_config, resolve_config_path
from optospring.response import extract_mode


# the measurement's output schema, written out: scan.csv's ten columns in
# their earlier order, then the six it gained
SCHEMA = ("delta_Hz", "f_eff_Hz", "rate_measured", "rate_predicted", "n_osc",
          "rate_exact", "rate_exact_err", "gamma_measured", "gamma_exact",
          "gamma_exact_err", "f_ref_Hz", "n_segments", "rate_ols_err",
          "rate_thermal", "rate_trap", "gamma_off")


def _read_csv(path, columns):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        if not line[0].isdigit() and not line.startswith("-"):
            header = line.split(",")
            continue
        rows.append(dict(zip(header, line.split(","))))
    return [{k: row[k] for k in columns} for row in rows]


# --------------------------------------------------------------------------
# map
# --------------------------------------------------------------------------

def test_map_zero_detuning_column(tmp_path, ideal_config):
    out = tmp_path / "m"
    rc = main(["map", "--config", "ideal", "--delta-range", "0:2e6:5",
               "--gel-range", "0:4e-7:3", "--out-dir", str(out)])
    assert rc == 0
    rows = _read_csv(out / "map.csv",
                     ["delta_Hz", "gel", "f_eff_Hz", "gamma_eff_Hz", "stable"])
    zero_col = [r for r in rows if float(r["delta_Hz"]) == 0.0]
    assert len(zero_col) == 3
    for r in zero_col:
        assert float(r["f_eff_Hz"]) == pytest.approx(1.0, rel=1e-3, abs=0)
        assert float(r["gamma_eff_Hz"]) == pytest.approx(1e-6, rel=1e-3, abs=0)
        assert r["stable"] == "1"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "map"
    assert manifest["config_sha256"]


def test_map_default_ranges(tmp_path):
    """With no ranges given, the auto grid starts at zero detuning and the
    first column reproduces the intrinsic mode."""
    out = tmp_path / "auto"
    rc = main(["map", "--config", "ideal", "--out-dir", str(out)])
    assert rc == 0
    rows = _read_csv(out / "map.csv", ["delta_Hz", "f_eff_Hz", "gamma_eff_Hz"])
    zero_col = [r for r in rows if float(r["delta_Hz"]) == 0.0]
    assert zero_col
    for r in zero_col:
        assert float(r["f_eff_Hz"]) == pytest.approx(1.0, rel=1e-3, abs=0)
        assert float(r["gamma_eff_Hz"]) == pytest.approx(1e-6, rel=1e-3, abs=0)


def test_map_reports_cell_counts(tmp_path, capsys):
    """The manifest and the summary line count cells, unconverged cells and
    cells with an ambiguous trapped branch."""
    out = tmp_path / "auto"
    assert main(["map", "--config", "ideal", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["cells"], manifest["unconverged"],
            manifest["ambiguous"]) == (117, 0, 9)
    assert capsys.readouterr().out == (
        f"map: 13 x 9 cells (0 unconverged, 9 ambiguous) -> {out / 'map.csv'}\n")


def test_map_reports_unconverged_cells(tmp_path, capsys, monkeypatch):
    """A detuning where the pole polish fails is counted in the manifest and
    the summary line, its CSV row is NaN and unstable, and map exits 0."""
    from optospring import response

    exact = response._characteristic_exact
    bad = TWO_PI * np.linspace(0.0, 1.7e6, 6)[3]
    monkeypatch.setattr(
        response, "_characteristic_exact",
        lambda config, deltas, *rest: np.where(
            np.asarray(deltas) == bad, np.nan, exact(config, deltas, *rest)))
    out = tmp_path / "map"
    assert main(["map", "--config", "experiment", "--delta-range", "0:1.7e6:6",
                 "--gel-range", "0:1.5:5", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["cells"], manifest["unconverged"]) == (30, 5)
    assert capsys.readouterr().out.startswith(
        "map: 6 x 5 cells (5 unconverged, 0 ambiguous)")
    rows = _read_csv(out / "map.csv", ["delta_Hz", "f_eff_Hz", "stable"])
    failed = [r for r in rows if math.isnan(float(r["f_eff_Hz"]))]
    assert len(failed) == 5
    assert {float(r["delta_Hz"]) for r in failed} == {bad / TWO_PI}
    assert all(r["stable"] == "0" for r in failed)


@pytest.mark.parametrize("argv, invariant", [
    (["map", "--config", "ideal", "--delta-range", "1:2:0"], "nonempty"),
    (["map", "--config", "ideal", "--delta-range", "nan:1e6:3"],
     "--delta-range start and stop finite"),
    (["scan", "--config", "experiment", "--deltas", "nan:1e6:2"],
     "--deltas start and stop finite"),
    (["cool", "--config", "experiment", "--gel-range", "inf:1:2"],
     "--gel-range start and stop finite"),
    (["map", "--config", "ideal", "--delta-range=-1.7e308:1.7e308:3"],
     "--delta-range start and stop finite, and their span"),
    (["scan", "--config", "experiment", "--deltas", "9e5:1e6:100000000000"],
     "--deltas count <= MAX_PLAN_FLOATS = 5.0e+07"),
    (["cool", "--config", "experiment", "--gel-range", "14:560:100000000000"],
     "--gel-range count <= MAX_PLAN_FLOATS = 5.0e+07"),
    (["map", "--config", "experiment", "--delta-range", "0:1e6:100000000000",
      "--gel-range", "0:1:2"],
     "--delta-range count <= MAX_PLAN_FLOATS = 5.0e+07"),
    (["map", "--config", "experiment", "--delta-range", "0:1e6:10000000",
      "--gel-range", "0:1:2"],
     "map grid arrays, MAP_CELL_FLOATS = 8 a cell, <= MAX_PLAN_FLOATS"),
], ids=["map-empty", "map-nan", "scan-nan", "cool-inf", "map-span",
        "scan-huge", "cool-huge", "map-huge", "map-grid"])
def test_map_empty_range_is_usage_error(tmp_path, capsys, monkeypatch, argv,
                                        invariant):
    """An empty, non-finite or over-budget range exits 2 naming the
    invariant, before any range array is built and without a numpy warning
    or a traceback.  Over budget are a count over MAX_PLAN_FLOATS, and a
    map grid whose whole-grid arrays, 8 floats a cell, would exceed it
    (1e7 x 2 cells: 1.6e8 floats)."""
    def never(*args, **kwargs):
        raise AssertionError("a range array was built")

    monkeypatch.setattr(np, "linspace", never)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv + ["--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert invariant in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


_range_ends = st.one_of(st.floats(), st.sampled_from([-1.7e308, 1.7e308]))
_range_counts = st.one_of(
    st.integers(-2, 40),
    st.integers(MAX_PLAN_FLOATS - 2, MAX_PLAN_FLOATS + 2),
    st.integers(MAX_PLAN_FLOATS, 10**15))


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(
    st.builds(lambda a, b, n: f"{a!r}:{b!r}:{n}", _range_ends, _range_ends,
              _range_counts),
    st.text(alphabet="0123456789.:-+einfa ", max_size=16)))
def test_range_text_is_refused_or_bounded(text):
    """Any range text either raises ValidationError or yields at most
    MAX_PLAN_FLOATS finite points; a count over the budget is refused before
    np.linspace is called.  Ranges over 64 points are checked at the
    np.linspace call, which is never run on them."""
    linspace = np.linspace
    counts = []

    def guarded(start, stop, count):
        counts.append(count)
        assert count <= MAX_PLAN_FLOATS, "an over-budget range reached np.linspace"
        return linspace(start, stop, count) if count <= 64 else None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "linspace", guarded)
        try:
            points = _parse_range(text, "--range")
        except ValidationError:
            return
    [count] = counts
    if points is not None:
        assert points.size == count and np.isfinite(points).all()


def test_map_single_point_matches_extract_mode(tmp_path, ideal_config):
    delta_hz, gel = 1.0e6, 2.0e-7
    out = tmp_path / "one"
    rc = main(["map", "--config", "ideal",
               "--delta-range", f"{delta_hz}:{delta_hz}:1",
               "--gel-range", f"{gel}:{gel}:1", "--out-dir", str(out)])
    assert rc == 0
    rows = _read_csv(out / "map.csv", ["f_eff_Hz", "gamma_eff_Hz"])
    assert len(rows) == 1
    mode = extract_mode(ideal_config.with_detuning(TWO_PI * delta_hz), gel=gel)
    assert float(rows[0]["f_eff_Hz"]) == pytest.approx(
        mode.omega_eff / TWO_PI, rel=1e-12, abs=0)
    assert float(rows[0]["gamma_eff_Hz"]) == pytest.approx(
        mode.gamma_eff / TWO_PI, rel=1e-12, abs=0)


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

def test_spectrum_zero_temperature_zero_noise(tmp_path):
    out = tmp_path / "s"
    rc = main(["spectrum", "--config", "experiment", "--temperature", "0",
               "--noise-amp", "0", "--out-dir", str(out)])
    assert rc == 0
    for name in ("thermal", "freqnoise", "total", "voltage"):
        rows = _read_csv(out / f"spectrum_{name}.csv", ["value"])
        assert all(float(r["value"]) == 0.0 for r in rows)


def test_spectrum_noise_amp_replaces_noise_table(tmp_path):
    """--noise-amp sets the 1/f model in place of a configured table, so an
    amplitude of 0 at 0 K leaves every spectrum exactly 0."""
    (tmp_path / "table.csv").write_text("10, 0.4\n1e4, 0.4\n")
    path = _preset_with(tmp_path, "label", "table")
    path.write_text(path.read_text() + "freq_noise_table_csv = table.csv\n")
    out = tmp_path / "s"
    rc = main(["spectrum", "--config", str(path), "--noise-amp", "0",
               "--temperature", "0", "--out-dir", str(out)])
    assert rc == 0
    for name in ("thermal", "freqnoise", "total", "voltage"):
        rows = _read_csv(out / f"spectrum_{name}.csv", ["value"])
        assert all(float(r["value"]) == 0.0 for r in rows)


def test_spectrum_calibration_round_trip(tmp_path, capsys):
    out = tmp_path / "s"
    rc = main(["spectrum", "--config", "experiment", "--calibrate-then-invert",
               "--out-dir", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    line = [l for l in stdout.splitlines() if "round trip" in l][0]
    err = float(line.split("=")[1])
    assert err < 1e-12


def test_spectrum_thermal_dominates_below_resonance(tmp_path):
    """At the strongly trapped operating point the bath noise sits above the
    trap noise everywhere under the resonance."""
    out = tmp_path / "s"
    rc = main(["spectrum", "--config", "experiment", "--out-dir", str(out)])
    assert rc == 0
    th = _read_csv(out / "spectrum_thermal.csv", ["f_Hz", "value"])
    fr = _read_csv(out / "spectrum_freqnoise.csv", ["f_Hz", "value"])
    for a, b in zip(th, fr):
        f = float(a["f_Hz"])
        if 10.0 < f < 600.0:
            assert float(a["value"]) > float(b["value"])


# --------------------------------------------------------------------------
# cool
# --------------------------------------------------------------------------

def test_cool_reports_millikelvin_temperatures(tmp_path):
    out = tmp_path / "c"
    rc = main(["cool", "--config", "experiment", "--gel-range", "56:56:1",
               "--out-dir", str(out)])
    assert rc == 0
    rows = _read_csv(out / "cool.csv", ["gel", "T_eff_mK", "n_th_prime"])
    assert len(rows) == 1
    t_eff = float(rows[0]["T_eff_mK"])
    assert 1.0 < t_eff < 1000.0  # deeply cooled relative to 300 K
    assert float(rows[0]["n_th_prime"]) > 0


def test_cool_summary_counts_nan_rows(tmp_path, capsys):
    """The 560 N*s/m gain has no fittable peak: its T_eff is NaN, the run
    still exits 0, and the summary line says how many rows are NaN.  The
    occupations do not hang on the fit and stay finite."""
    out = tmp_path / "c"
    rc = main(["cool", "--config", "experiment", "--gel-range", "14:560:2",
               "--out-dir", str(out)])
    assert rc == 0
    assert "cool: 2 gain point(s), 1 with T_eff = NaN ->" in capsys.readouterr().out
    occupations = ["n_th_prime", "n_freq", "n_th_bare"]
    rows = _read_csv(out / "cool.csv", ["T_eff_mK"] + occupations)
    assert [math.isnan(float(r["T_eff_mK"])) for r in rows] == [False, True]
    assert all(math.isfinite(float(r[k])) for r in rows for k in occupations)


def test_python_dash_m_runs_the_command(tmp_path):
    """``python -m optospring`` is the ``optospring`` command: same parser,
    same exit codes."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "optospring", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120, cwd=tmp_path)

    ok = run("check", "--config", "experiment")
    assert ok.returncode == 0, ok.stderr
    bad = run("check")
    assert bad.returncode == 2 and "--config or every scalar" in bad.stderr


# --------------------------------------------------------------------------
# retherm / scan
# --------------------------------------------------------------------------

@pytest.mark.parametrize("flag", ["--duration", "--dt"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_retherm_nonfinite_plan_value_is_usage_error(tmp_path, capsys, flag,
                                                     value):
    rc = main(["retherm", "--config", "experiment", "--n-trajectories", "1",
               flag, value, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{flag[2:]} finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value, invariant", [
    ("--seed", "-1", "master_seed >= 0"),
    ("--record-stride", "20000", ">= 10 records in the initial-slope fit window"),
])
def test_retherm_plan_checked_before_the_monte_carlo(tmp_path, capsys,
                                                     monkeypatch, flag, value,
                                                     invariant):
    """A negative seed and a record stride that leaves 5 records per phase
    both exit 2 with the invariant named, before the walk starts."""
    def no_walk(*args, **kwargs):
        raise AssertionError("the Monte Carlo ran")

    monkeypatch.setattr("optospring.dynamics._walk", no_walk)
    rc = main(["retherm", "--config", "experiment", "--n-trajectories", "2",
               flag, value, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert invariant in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args, size", [
    (["--duration", "1e308"], "100 x 1e+308 x 2022"),
    (["--record-stride", "1", "--dt", "1e-9"], "100 x 1 x 5e+08"),
    (["--duration", "1.5", "--n-trajectories", "16485"], "1.648e+04 x 2 x 2022"),
])
def test_retherm_oversized_plan_is_usage_error(tmp_path, capsys, monkeypatch,
                                               args, size):
    """A plan whose largest array would exceed MAX_PLAN_FLOATS exits 2,
    naming its size and the budget, before any phase map is built or the
    walk starts: 1e308 periods (which once looped building 2e308 phase
    entries), 5e8 records per phase, and 1.5 s, which rounds to 2
    periods."""
    def never(*args, **kwargs):
        raise AssertionError("the plan was built")

    monkeypatch.setattr("optospring.dynamics._walk", never)
    monkeypatch.setattr("optospring.dynamics.PhaseMap", never)
    rc = main(["retherm", "--config", "experiment", *args,
               "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "MAX_PLAN_FLOATS = 5.0e+07 floats" in err and size in err
    assert "Traceback" not in err


def test_scan_oversized_plan_is_usage_error(tmp_path, capsys, monkeypatch):
    """A scan whose plan exceeds MAX_PLAN_FLOATS at every detuning exits 2
    before its first row, as retherm does, and writes no table."""
    def never(*args, **kwargs):
        raise AssertionError("a row was measured")

    monkeypatch.setattr("optospring.dynamics.measure_rate", never)
    rc = main(["scan", "--config", "experiment", "--deltas", "9e5:1e6:2",
               "--duration", "1e308", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "MAX_PLAN_FLOATS = 5.0e+07 floats" in err and "100 x 1e+308 x 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "scan.csv").exists()


def test_retherm_reports_why_gamma_is_nan(tmp_path, capsys):
    """25 x 1 s at seed 1 fits a growing exponential (-0.909 rad/s):
    retherm_fit.json holds a NaN gamma, and the manifest and the summary
    line give the reason.  The summary gives the rate its exact error."""
    assert main(["retherm", "--config", "experiment", "--n-trajectories", "25",
                 "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    fit = json.loads((tmp_path / "retherm_fit.json").read_text())
    assert math.isnan(fit["gamma_measured"])
    [error] = json.loads((tmp_path / "manifest.json").read_text())[
        "gamma_fit_errors"]
    assert error["delta_Hz"] == fit["delta_Hz"]
    reason = error["reason"]
    assert reason.startswith("fitted gamma = -0.9094 rad/s <= 0")
    assert f"gamma_measured = NaN: {reason}" in out
    assert (f"rate = {fit['rate_measured']:.4g} +- {fit['rate_exact_err']:.2g}"
            f" /s (exact {fit['rate_exact']:.4g}, predicted ") in out


def test_scan_names_a_row_whose_gamma_fit_fails(tmp_path, capsys):
    """Row 0 of a scan at the preset's detuning draws retherm's streams, so
    at 25 x 1 s and seed 1 its gamma fit fails as retherm's does: the scan
    manifest names the row with the same reason, and the row's
    gamma_measured is NaN."""
    plan_args = ["--config", "experiment", "--n-trajectories", "25",
                 "--seed", "1"]
    assert main(["retherm", *plan_args, "--out-dir", str(tmp_path / "r")]) == 0
    assert main(["scan", *plan_args, "--deltas", "9.1e5:9.1e5:1",
                 "--out-dir", str(tmp_path / "s")]) == 0
    errors = [json.loads((tmp_path / d / "manifest.json").read_text())[
        "gamma_fit_errors"] for d in ("r", "s")]
    assert errors[1] == errors[0]
    [error] = errors[1]
    assert error["delta_Hz"] == pytest.approx(9.1e5, rel=1e-12, abs=0)
    assert error["reason"].startswith("fitted gamma = -0.9094 rad/s <= 0")
    [row] = _read_csv(tmp_path / "s" / "scan.csv", ["gamma_measured"])
    assert math.isnan(float(row["gamma_measured"]))


def test_retherm_names_an_anti_damped_detuning(tmp_path, capsys):
    """At 7e5 Hz the servo-off phase is anti-damped (gamma_off = -1.47
    rad/s): retherm still writes its numbers, and the manifest and the
    summary line say so; at the preset's detuning the manifest lists no
    row."""
    config = _preset_with(tmp_path, "detuning_over_2pi_Hz", "7e5")
    for cfg, out in ((str(config), tmp_path / "anti"),
                     ("experiment", tmp_path / "preset")):
        assert main(["retherm", "--config", cfg, "--n-trajectories", "2",
                     "--seed", "4", "--out-dir", str(out)]) == 0
    summary = capsys.readouterr().out.splitlines()
    [anti] = json.loads((tmp_path / "anti" / "manifest.json").read_text())[
        "anti_damped_rows"]
    assert anti["delta_Hz"] == pytest.approx(7e5, rel=1e-12, abs=0)
    gamma_off = anti["gamma_off"]
    assert gamma_off == pytest.approx(-1.466, rel=1e-3, abs=0)
    fit = json.loads((tmp_path / "anti" / "retherm_fit.json").read_text())
    assert fit["gamma_off"] == gamma_off
    assert f"anti-damped (gamma_off = {gamma_off:.4g} rad/s <= 0)" in summary[0]
    assert "anti-damped" not in summary[1]
    assert json.loads((tmp_path / "preset" / "manifest.json").read_text())[
        "anti_damped_rows"] == []


def test_retherm_deterministic_across_runs(tmp_path):
    args = ["retherm", "--config", "experiment", "--n-trajectories", "8",
            "--duration", "1.0", "--seed", "20"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    data1 = (out1 / "retherm_mean_n.csv").read_bytes()
    assert data1 == (out2 / "retherm_mean_n.csv").read_bytes()
    fit = json.loads((out1 / "retherm_fit.json").read_text())
    assert sorted(fit) == [
        "delta_Hz", "f_eff_Hz", "f_ref_Hz", "gamma_exact", "gamma_exact_err",
        "gamma_measured", "gamma_off", "n_osc", "n_segments", "rate_exact",
        "rate_exact_err", "rate_measured", "rate_ols_err", "rate_predicted",
        "rate_thermal", "rate_trap"]
    assert fit["rate_measured"] > 0
    assert fit["rate_predicted"] > 0
    assert fit["rate_predicted"] == fit["rate_thermal"] + fit["rate_trap"]
    # the exact oracle's rate sits within 1% of the rate law; the exact
    # error is the honest one, well above the OLS error of 8 segments
    assert fit["rate_exact"] == pytest.approx(fit["rate_predicted"], rel=0.01, abs=0)
    _assert_exact_error_above_ols(load_config("experiment"), SimPlan(
        duration=1.0, n_trajectories=8, master_seed=20),
        fit["rate_exact_err"], fit["rate_ols_err"])


def _assert_exact_error_above_ols(config, plan, exact_err, ols_err):
    """The exact error matches the oracle's and exceeds the OLS error by a
    factor derived, not tuned: the exact SD over the OLS error's mean + 4
    SD (``ols_error_bound``), 4.1-4.4 on these 1 s plans at the default
    stride, where the exact error is 6.7-7.1 times the OLS error's mean.
    For a Gaussian mean curve the OLS error passes with probability
    > 0.9999 (>= 94% by Cantelli's inequality for any law)."""
    from conftest import ols_error_bound

    from optospring.dynamics import _protocol

    want, bound = ols_error_bound(_protocol(config, config.noise, plan),
                                  plan.n_trajectories)
    assert exact_err == pytest.approx(want, rel=1e-9, abs=0)
    assert exact_err > (want / bound) * ols_err


def test_retherm_and_scan_report_one_n_osc(tmp_path):
    """retherm_fit.json is the one row of a one-row scan of the same
    config, plan and seed: its keys are scan.csv's header, which is
    MEASUREMENT_COLUMNS and the schema written out above, and every value
    is the row's cell bit for bit.
    n_osc is f_eff / rate_measured, with f_eff the servo-off pole."""
    plan_args = ["--config", "experiment", "--n-trajectories", "8",
                 "--duration", "1.0", "--seed", "20"]
    assert main(["retherm", *plan_args, "--out-dir", str(tmp_path / "r")]) == 0
    assert main(["scan", *plan_args, "--deltas", "9.1e5:9.1e5:1",
                 "--out-dir", str(tmp_path / "s")]) == 0
    fit = json.loads((tmp_path / "r" / "retherm_fit.json").read_text())
    assert MEASUREMENT_COLUMNS == SCHEMA
    assert list(fit) == sorted(SCHEMA)
    header, line = (tmp_path / "s" / "scan.csv").read_text().splitlines()[1:]
    assert tuple(header.split(",")) == SCHEMA
    row = dict(zip(SCHEMA, line.split(",")))
    for name, cell in row.items():
        value = fit[name]
        if isinstance(value, int):
            assert cell == str(value), name
        else:
            assert np.float64(cell).tobytes() == np.float64(value).tobytes(), name
    config = load_config("experiment")
    f_eff = off_state_mode(config, config.noise).omega_eff / TWO_PI
    assert fit["f_eff_Hz"] == f_eff
    assert fit["n_osc"] == pytest.approx(f_eff / fit["rate_measured"],
                                         rel=1e-12, abs=0)


def test_manifest_reproduces_outputs(tmp_path):
    out1 = tmp_path / "r1"
    assert main(["retherm", "--config", "experiment", "--n-trajectories", "4",
                 "--seed", "31", "--out-dir", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["master_seed"] == 31
    # re-running the recorded argv (with a fresh out dir) reproduces bytes
    argv = list(manifest["argv"])
    argv[argv.index(str(out1))] = str(tmp_path / "r2")
    assert main(argv) == 0
    assert (out1 / "retherm_mean_n.csv").read_bytes() == \
        (tmp_path / "r2" / "retherm_mean_n.csv").read_bytes()


def test_manifest_records_resolved_step(tmp_path):
    """With --dt and --record-stride left at their defaults, the retherm
    and scan manifests record the step that ran, 1/(200*f_ref), the
    resolved stride (47 on the preset) and the kernel step
    record_stride*dt."""
    out = tmp_path / "r"
    assert main(["retherm", "--config", "experiment", "--n-trajectories", "1",
                 "--seed", "3", "--out-dir", str(out)]) == 0
    [plan] = json.loads((out / "manifest.json").read_text())["plans"]
    f_ref = json.loads((out / "retherm_fit.json").read_text())["f_ref_Hz"]
    assert plan["record_stride"] == 47
    assert plan["dt"] == pytest.approx(1.0 / (200.0 * f_ref), rel=1e-12, abs=0)
    assert plan["kernel_step"] == pytest.approx(47 * plan["dt"], rel=1e-15, abs=0)

    out = tmp_path / "s"
    assert main(["scan", "--config", "experiment", "--deltas", "7e5:1.1e6:2",
                 "--n-trajectories", "1", "--record-stride", "4",
                 "--out-dir", str(out)]) == 0
    plans = json.loads((out / "manifest.json").read_text())["plans"]
    assert len(plans) == 2
    config = load_config("experiment")
    for p, delta in zip(plans, np.linspace(7e5, 1.1e6, 2) * TWO_PI):
        cfg = config.with_detuning(float(delta))
        omega_ref = reduced_model(cfg, cfg.noise).omega_ref
        assert p["dt"] == pytest.approx(1.0 / (200.0 * omega_ref / TWO_PI),
                                        rel=1e-12, abs=0)
        assert p["kernel_step"] == pytest.approx(4 * p["dt"], rel=1e-15, abs=0)
    assert plans[0]["dt"] != plans[1]["dt"]


def test_scan_writes_rows(tmp_path, capsys):
    """Both rows are written; the 7e5 Hz one, whose servo-off phase is
    anti-damped (gamma_off = -1.47 rad/s), keeps its numbers and is named
    in the manifest and counted in the summary line."""
    out = tmp_path / "sc"
    rc = main(["scan", "--config", "experiment", "--deltas", "7e5:1.1e6:2",
               "--n-trajectories", "4", "--seed", "5", "--out-dir", str(out)])
    assert rc == 0
    assert "(0 failed, 1 anti-damped: gamma_off <= 0)" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["deltas_Hz"] == pytest.approx([7e5, 1.1e6], rel=1e-12,
                                                  abs=0)
    [anti] = manifest["anti_damped_rows"]
    assert anti["delta_Hz"] == pytest.approx(7e5, rel=1e-12, abs=0)
    assert anti["gamma_off"] == pytest.approx(-1.466, rel=1e-3, abs=0)
    assert f"\n{','.join(SCHEMA)}\n" in (out / "scan.csv").read_text()
    rows = [{k: float(v) for k, v in r.items()}
            for r in _read_csv(out / "scan.csv", SCHEMA)]
    assert len(rows) == 2
    assert rows[0]["gamma_off"] == anti["gamma_off"]
    assert rows[1]["gamma_off"] > 0
    for r in rows:
        assert r["rate_measured"] > 0
        assert r["rate_predicted"] > 0
        assert r["rate_predicted"] == r["rate_thermal"] + r["rate_trap"]
        assert r["rate_exact"] == pytest.approx(r["rate_predicted"], rel=0.05, abs=0)
        assert r["gamma_exact_err"] > 0
        assert r["n_osc"] > 0
        assert r["n_segments"] == 4
    # rate_exact_err is the exact error, well above the OLS error
    config = load_config("experiment")
    plan = SimPlan(duration=1.0, n_trajectories=4, master_seed=5)
    for r in rows:
        _assert_exact_error_above_ols(
            config.with_detuning(TWO_PI * r["delta_Hz"]), plan,
            r["rate_exact_err"], r["rate_ols_err"])


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------

def test_check_reference_point(capsys):
    rc = main(["check", "--m1-mg", "5", "--f-eff-hz", "1000",
               "--noise-mhz-rthz", "4", "--length-cm", "5", "--q1", "5e7",
               "--f1-hz", "1", "--temperature-k", "300"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "achievable" in out
    n_osc = float(out.split("n_osc = ")[1].split()[0])
    assert n_osc == pytest.approx(1.09, abs=0.01)


def test_check_zero_noise_margin(capsys):
    rc = main(["check", "--m1-mg", "5", "--f-eff-hz", "1000",
               "--noise-mhz-rthz", "0", "--length-cm", "5", "--q1", "5e7",
               "--f1-hz", "1", "--temperature-k", "300"])
    assert rc == 0
    assert "margin = 0" in capsys.readouterr().out


def test_check_nonfinite_scalar_is_usage_error(capsys):
    rc = main(["check", "--m1-mg", "nan", "--f-eff-hz", "1000",
               "--noise-mhz-rthz", "4", "--length-cm", "5", "--q1", "5e7",
               "--f1-hz", "1", "--temperature-k", "300"])
    assert rc == 2
    assert "m1 > 0 and finite" in capsys.readouterr().err


def test_check_missing_scalar_is_usage_error(capsys):
    rc = main(["check", "--m1-mg", "5", "--f-eff-hz", "1000"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--noise-mhz-rthz" in err and "--q1" in err


def test_check_json_output(tmp_path):
    out = tmp_path / "budget.json"
    rc = main(["check", "--config", "experiment", "--json-out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert {"inv_n_osc_thermal", "inv_n_osc_trap", "n_osc",
            "condition_margin", "g0", "satisfied"} <= payload.keys()


def _is_number(text):
    try:
        float(text.split("#")[0])
    except ValueError:
        return False
    return True


_PRESET_LINES = resolve_config_path("experiment").read_text().splitlines()
# keys with a number in the preset, plus the off gain (preset value "auto")
_NUMERIC_KEYS = [line.split("=")[0].strip() for line in _PRESET_LINES
                 if "=" in line and _is_number(line.split("=")[1])]
_NUMERIC_KEYS.append("off_gain_Ns_per_m")


def _preset_with(tmp_path, key, value):
    lines = [f"{key} = {value}" if line.split("=")[0].strip() == key else line
             for line in _PRESET_LINES]
    path = tmp_path / "edited.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("key,value", [("off_gain_Ns_per_m", "abc"),
                                       ("input_power_mW", "inf")])
def test_check_bad_config_number_is_usage_error(tmp_path, capsys, key, value):
    rc = main(["check", "--config", str(_preset_with(tmp_path, key, value))])
    assert rc == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("m1_mg", "1e300"), ("f1_Hz", "1e300"), ("f2_Hz", "1e300"),
    ("kappa_over_2pi_Hz", "1e300"), ("detuning_over_2pi_Hz", "1e300"),
    ("freq_noise_amp_Hz2_per_rtHz", "1e300"),
    ("round_trip_length_cm", "1e300"), ("kappa_over_2pi_Hz", "1e-300")])
def test_check_extreme_config_number_is_numerical_error(tmp_path, capsys,
                                                        key, value):
    """Finite but extreme values overflow or divide by zero: exit 1 with a
    one-line numerical error, no traceback."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(["check", "--config", str(_preset_with(tmp_path, key, value))])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("numerical error:")
    assert "Traceback" not in err


def test_check_malformed_noise_table_is_usage_error(tmp_path, capsys):
    """A bad frequency-noise table row or a missing table exits 2 naming the
    file (and the line)."""
    table = tmp_path / "table.csv"
    path = _preset_with(tmp_path, "label", "table")
    path.write_text(path.read_text() + f"freq_noise_table_csv = {table}\n")
    for row in ("100, abc", "100, nan", "100"):
        table.write_text(f"# f_Hz, sqrt(S)\n10, 0.4\n{row}\n")
        assert main(["check", "--config", str(path)]) == 2
        assert f"{table}:3: expected two finite numbers" in capsys.readouterr().err
    table.unlink()
    assert main(["check", "--config", str(path)]) == 2
    assert f"{table}: cannot read" in capsys.readouterr().err


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(_NUMERIC_KEYS),
       value=st.one_of(st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999"]),
                       st.text(alphabet=st.characters(
                           blacklist_characters="#\n\r"), max_size=12)))
def test_check_config_fuzz_exits_cleanly(tmp_path, key, value):
    """A preset with one numeric value replaced by text, nan or inf ends in
    an exit code, never a traceback."""
    path = _preset_with(tmp_path, key, value)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(["check", "--config", str(path)])
    assert rc in (0, 1, 2)
    if value.strip().lower() in ("nan", "inf", "-inf", "1e999"):
        assert rc == 2


def test_unknown_config_is_usage_error(tmp_path):
    rc = main(["map", "--config", "no-such-preset", "--out-dir", str(tmp_path)])
    assert rc == 2
