"""The one least-squares solver, ``fitting.separable_fit``, against
oracles that share no code with it, and its failure modes.

The peak-fit oracle is ``scipy.optimize.curve_fit`` (MINPACK's
Levenberg-Marquardt on all three parameters, finite-difference Jacobian)
at xtol = ftol = gtol = 1e-15, far tighter than its default 1.5e-8; scipy
is needed by the tests only.  The exponential-fit oracle is a
golden-section search on the variable-projection cost in extended
precision (``_longdouble_exponential_fit``): the tight ``curve_fit`` stalls
in that fit's flat gamma valley.  Each fit must land on the oracle's
minimum: the gates are 1e-7 relative, where the default-tolerance
``curve_fit`` that the toolkit used before reads up to 6.1e-6 on the
``cool`` sweep, up to 2.3e-6 on the Welch fits and 3.4e-5 on the 8 x 1 s
exponential fit.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import OptimizeWarning, curve_fit

from optospring import spectra
from optospring.cli import _spectrum_bundle, main
from optospring.dynamics import SimPlan, _fit_exponential, run_ensemble, \
    simulate_trajectory
from optospring.errors import FitError, SpectrumBandError
from optospring.fitting import separable_fit
from optospring.model import TWO_PI
from optospring.response import extract_mode
from optospring.spectra import Spectrum, fit_peak_width, mode_temperature, \
    welch_psd

RTOL = 1e-7
COOL_GAINS = np.linspace(14.0, 560.0, 14)
# the cool sweep's rows without a temperature, and why (band edges below the
# grid at 350-518 N*s/m; the peak fit wanders off to 388 Hz at 560 N*s/m)
COOL_FAILURES = {350.0: SpectrumBandError, 392.0: SpectrumBandError,
                 434.0: SpectrumBandError, 476.0: SpectrumBandError,
                 518.0: SpectrumBandError, 560.0: FitError}


def _tight_curve_fit(model, x, y, p0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        popt, _ = curve_fit(model, x, y, p0=p0, maxfev=200000,
                            xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return popt


def _oracle_fit_peak_width(spectrum, f_guess, width_guess):
    """The peak fit with the oracle solver: same window, same checks."""
    f, s = spectrum.grid, spectrum.values
    sel = (np.abs(f - f_guess) <= 8.0 * width_guess) \
        & (f >= 0.5 * f_guess) & (f <= 2.0 * f_guess)
    p0 = (float(np.interp(f_guess, f, s)), f_guess, width_guess)
    s0, f0, width = _tight_curve_fit(
        lambda ff, a, b, w: a / (1.0 + ((ff - b) / w) ** 2), f[sel], s[sel], p0)
    if s0 <= 0 or width <= 0:
        raise FitError("non-physical")
    if not 0.5 * f_guess <= f0 <= 2.0 * f_guess:
        raise FitError("wandered")
    return s0, f0, width


def _temperatures(spectrum, mode, mirror, monkeypatch):
    """T_eff, or the exception class, with the toolkit's fit and the
    oracle's."""
    out = []
    for fit in (fit_peak_width, _oracle_fit_peak_width):
        monkeypatch.setattr(spectra, "fit_peak_width", fit)
        try:
            out.append(mode_temperature(spectrum, mode.omega_eff,
                                        mode.gamma_eff, mirror).t_eff)
        except (FitError, SpectrumBandError) as exc:
            out.append(type(exc))
    monkeypatch.undo()
    return out


def test_cool_temperatures_match_tight_oracle(experiment_config, monkeypatch):
    """All 14 gains of the ``cool`` golden sweep: finite T_eff within 1e-7
    of the oracle's (the old default-tolerance fit is 6.1e-6 off at 308
    N*s/m), and the same 6 gains fail with the same exception class."""
    failures = {}
    for gel in COOL_GAINS:
        cfg = experiment_config.with_gain(float(gel))
        mode, _, _, _, total = _spectrum_bundle(
            cfg, experiment_config.noise.temperature)
        got, want = _temperatures(total, mode, cfg.mirror1, monkeypatch)
        if isinstance(want, float):
            assert got == pytest.approx(want, rel=RTOL, abs=0), gel
        else:
            assert got is want, gel
            failures[float(gel)] = got
    assert failures == COOL_FAILURES


@pytest.mark.parametrize("seed", range(1, 9))
def test_welch_peak_fit_matches_tight_oracle(experiment_config,
                                             thermal_only_noise, monkeypatch,
                                             seed):
    """The acceptance-8 pipeline (2 s at stride 1, 8192-sample Welch
    segments, a 31-point fit window) on 8 seeds: (s0, f0, width) and T_eff
    within 1e-7 of the oracle's."""
    gel = 56.0
    servo = dataclasses.replace(experiment_config.servo, g_el=gel,
                                off_gain=gel)
    cfg = dataclasses.replace(experiment_config, servo=servo, raw_items=())
    plan = SimPlan(duration=2.0, n_trajectories=1, master_seed=seed,
                   record_stride=1)
    t, x, _, _ = simulate_trajectory(cfg, thermal_only_noise, plan, 0)
    spec = welch_psd(x, float(t[1] - t[0]), segment_length=8192)
    mode = extract_mode(cfg, gel=gel)
    f_guess = mode.omega_eff / TWO_PI
    width_guess = mode.gamma_eff / (4.0 * math.pi)
    got = fit_peak_width(spec, f_guess, width_guess)
    want = _oracle_fit_peak_width(spec, f_guess, width_guess)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0)
    t_got, t_want = _temperatures(spec, mode, cfg.mirror1, monkeypatch)
    assert t_got == pytest.approx(t_want, rel=RTOL, abs=0)


def _longdouble_exponential_fit(t, n):
    """(n0, n_inf, gamma) of the least-squares fit of
    n_inf + (n0 - n_inf) exp(-gamma t), in extended precision.

    At each gamma, n_inf and the amplitude are the linear least-squares
    solution on the centred data.  A log-spaced scan of |gamma| on both
    signs brackets the cost's minimum over gamma (a curve that does not
    relax fits gamma <= 0), and a golden-section search narrows the
    bracket to 1e-15 of |gamma|.  With eps(longdouble) = 1.1e-19 the cost
    resolves gamma to ~1e-10 (2.2e-10 from a 40-digit mpmath minimiser on
    an earlier 8 x 1 s curve), well inside the 1e-7 gate."""
    t = np.asarray(t, dtype=np.longdouble)
    y = np.asarray(n, dtype=np.longdouble)
    y_c = y - y.mean()

    def solve(gamma):
        e = np.exp(-gamma * t)
        e_c = e - e.mean()
        amp = np.dot(e_c, y_c) / np.dot(e_c, e_c)
        r = y_c - amp * e_c
        return np.dot(r, r), y.mean() - amp * e.mean(), amp

    half = np.geomspace(np.longdouble(1e-3), np.longdouble(1e3), 241) / t[-1]
    grid = np.concatenate((-half[::-1], half))
    i = int(np.argmin([solve(g)[0] for g in grid]))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    inv_phi = (np.sqrt(np.longdouble(5)) - 1) / 2
    a, b = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fa, fb = solve(a)[0], solve(b)[0]
    while hi - lo > 1e-15 * max(abs(lo), abs(hi)):
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - inv_phi * (hi - lo)
            fa = solve(a)[0]
        else:
            lo, a, fa = a, b, fb
            b = lo + inv_phi * (hi - lo)
            fb = solve(b)[0]
    gamma = (lo + hi) / 2
    _, n_inf, amp = solve(gamma)
    return float(n_inf + amp), float(n_inf), float(gamma)


@pytest.mark.parametrize("n_traj, duration, seed",
                         [(100, 2.0, 2718), (8, 1.0, 20), (50, 2.0, 7)])
def test_exponential_fit_matches_tight_oracle(experiment_config, n_traj,
                                              duration, seed):
    """n_inf and gamma of the relaxation fit within 1e-7 of the
    extended-precision oracle's, n0 within 1e-7 of n_inf, on three mean
    curves: the retherm script's 100 x 2 s at seed 2718, the golden's 8 x 1
    s at seed 20 (which fits gamma = -1.02 rad/s, so the ensemble reports
    NaN) and 50 x 2 s at seed 7."""
    if np.finfo(np.longdouble).eps >= 1e-18:
        pytest.skip("the oracle needs an extended-precision longdouble")
    plan = SimPlan(duration=duration, n_trajectories=n_traj, master_seed=seed)
    result = run_ensemble(experiment_config, experiment_config.noise, plan)
    t, n = result.time_grid, result.mean_phonon
    want = _longdouble_exponential_fit(t, n)
    got = _fit_exponential(t, n)
    np.testing.assert_allclose(got[1:], want[1:], rtol=RTOL, atol=0)
    # n0 = n_inf + (n0 - n_inf) cancels about two digits of n_inf
    assert abs(got[0] - want[0]) <= RTOL * abs(want[1])
    if got[2] > 0:
        assert result.fitted_gamma_eff == got[2]
    else:  # a curve that does not relax reports a NaN gamma
        assert math.isnan(result.fitted_gamma_eff)


# --------------------------------------------------------------------------
# degenerate input: FitError, never LinAlgError or a traceback
# --------------------------------------------------------------------------

DEGENERATE = {
    "flat": 2e-26,  # the best "Lorentzian" is infinitely wide
    "all-zero": 0.0,  # zero height: a zero Jacobian, a singular step solve
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_window_raises_fit_error(name):
    grid = np.linspace(900.0, 1000.0, 101)
    spec = Spectrum(grid=grid, values=np.full(grid.size, DEGENERATE[name]),
                    kind="displacement")
    with pytest.raises(FitError):
        fit_peak_width(spec, 950.0, 10.0)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_cool_writes_nan_row_for_degenerate_window(tmp_path, monkeypatch, name):
    """The same windows inside ``cool``: exit 0, a NaN T_eff row, the
    failure named in the manifest."""
    def degenerate_bundle(config, temperature):
        mode, chi, s_th, s_fr, total = _spectrum_bundle(config, temperature)
        values = np.full(total.grid.size, DEGENERATE[name])
        return mode, chi, s_th, s_fr, Spectrum(grid=total.grid, values=values,
                                               kind="displacement")

    monkeypatch.setattr("optospring.cli._spectrum_bundle", degenerate_bundle)
    assert main(["cool", "--config", "experiment", "--out-dir",
                 str(tmp_path)]) == 0
    lines = (tmp_path / "cool.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].split(",")[3] == "nan"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    [row] = manifest["nan_t_eff_rows"]
    assert row["gel"] == float(lines[1].split(",")[0])
    assert row["reason"].startswith("FitError: Lorentzian")


def test_singular_exponential_fit_raises_fit_error():
    """An all-zero curve fits with zero amplitude, so the Jacobian and the
    step solve are singular.  FitError keeps p0 and the residual at p0."""
    t = np.linspace(0.0, 1.0, 200)
    with pytest.raises(FitError, match=r"singular.*p0 = .*max residual at "
                                       r"p0 = 0"):
        _fit_exponential(t, np.zeros(t.size))


def test_non_finite_iterate_raises_fit_error():
    x = np.linspace(0.0, 1.0, 20)

    def overflowing(theta):
        g = np.exp(theta[0] * 1e3 * x)
        return g[None], (1e3 * x * g)[None, None]

    with pytest.raises(FitError, match="non-finite"), \
            np.errstate(over="ignore", invalid="ignore"):
        separable_fit(overflowing, np.ones(x.size), (1.0,))
