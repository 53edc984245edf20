"""Spectrum synthesis, Welch estimation, calibration, mode temperature."""

import dataclasses
import math

import numpy as np
import pytest

from optospring import spectra
from optospring.errors import (InstabilityError, InsufficientDataError,
                               SpectrumBandError, ValidationError)
from optospring.model import HBAR, K_B, TWO_PI
from optospring.response import (ComplexResponse, EffectiveMode,
                                 adiabatic_spring, closed_loop_response,
                                 extract_mode, mech_susceptibility,
                                 servo_response)
from optospring.spectra import (LORENTZIAN_3SIGMA_FRACTION, Spectrum,
                                build_frequency_grid, calibration_factor,
                                displacement_to_voltage, freqnoise_spectrum,
                                mode_temperature, occupations,
                                read_spectrum_csv, thermal_spectrum,
                                voltage_to_displacement, welch_psd,
                                write_spectrum_csv)


def _lossless_trap_response(config):
    """chi_eff of the mirror held by the real (zero-frequency) part of the
    spring only: a textbook damped oscillator at the trapped frequency."""
    m1, cav = config.mirror1, config.cavity
    k0, _ = adiabatic_spring(cav)
    w_eff = math.sqrt(m1.omega0**2 + cav.zeta1**2 * k0 / m1.mass)
    grid_hz = build_frequency_grid(peaks=((w_eff / TWO_PI, m1.gamma0),))
    w = grid_hz * TWO_PI
    chi = 1.0 / (m1.mass * (m1.omega0**2 - w**2 + 1j * m1.gamma0 * w)
                 + cav.zeta1**2 * k0)
    return ComplexResponse(grid=w, values=chi), w_eff


# --------------------------------------------------------------------------
# thermal noise
# --------------------------------------------------------------------------

def test_thermal_zero_temperature(experiment_config):
    chi, _ = _lossless_trap_response(experiment_config)
    s = thermal_spectrum(0.0, experiment_config.mirror1, chi)
    assert np.all(s.values == 0.0)


def test_thermal_equipartition_bare_pendulum(experiment_config):
    """Integral oracle: a velocity-damped oscillator in a 300 K bath holds
    <x^2> = kB*T/(m*w0^2)."""
    m1 = experiment_config.mirror1
    grid_hz = build_frequency_grid(peaks=((m1.omega0 / TWO_PI, m1.gamma0),))
    w = grid_hz * TWO_PI
    chi = ComplexResponse(grid=w, values=mech_susceptibility(m1, w))
    s = thermal_spectrum(300.0, m1, chi)
    expected = K_B * 300.0 / (m1.mass * m1.omega0**2)
    assert s.variance() == pytest.approx(expected, rel=1e-2, abs=0)


def test_thermal_peak_value(experiment_config):
    m1 = experiment_config.mirror1
    chi, w_eff = _lossless_trap_response(experiment_config)
    s = thermal_spectrum(300.0, m1, chi)
    idx = np.argmin(np.abs(chi.grid - w_eff))
    expected = 4.0 * K_B * 300.0 * m1.gamma0 * m1.mass * abs(chi.values[idx]) ** 2
    assert s.values[idx] == pytest.approx(expected, rel=1e-12, abs=0)


# --------------------------------------------------------------------------
# frequency-noise-driven displacement
# --------------------------------------------------------------------------

def test_freqnoise_zero(experiment_config):
    noise = dataclasses.replace(experiment_config.noise, freq_noise_amp=0.0)
    chi, _ = _lossless_trap_response(experiment_config)
    s = freqnoise_spectrum(noise, experiment_config.with_gain(0.0), chi)
    assert np.all(s.values == 0.0)


def test_freqnoise_flat_without_loop(experiment_config):
    """With no spring and no feedback the bracket is unity and the
    displacement spectrum is S_phidot/g^2, flat in the transfer."""
    noise = experiment_config.noise
    grid_hz = np.geomspace(1.0, 1e4, 200)
    w = grid_hz * TWO_PI
    chi1 = mech_susceptibility(experiment_config.mirror1, w)
    chi_eff = ComplexResponse(grid=w, values=chi1)  # k_opt = chi_fb = 0
    s = freqnoise_spectrum(noise, experiment_config.with_gain(0.0), chi_eff)
    expected = noise.sphidot(grid_hz) / experiment_config.cavity.g_pull**2
    np.testing.assert_allclose(s.values, expected, rtol=1e-12)


def test_freqnoise_against_independent_transfer(experiment_config):
    """Independent closed-loop transfer oracle, assembled from scratch."""
    cfg = experiment_config
    noise = cfg.noise
    grid_hz = build_frequency_grid(n_base=512)
    w = grid_hz * TWO_PI
    chi_eff = closed_loop_response(cfg, w)
    chi1 = mech_susceptibility(cfg.mirror1, w)
    chi2 = mech_susceptibility(cfg.mirror2, w)
    chi_fb = servo_response(cfg.servo, w)
    s = freqnoise_spectrum(noise, cfg, chi_eff)

    amp = noise.freq_noise_amp
    oracle = (amp / grid_hz) ** 2 * np.abs(
        chi_eff.values / (chi1 * (1.0 + cfg.cavity.zeta2 * chi2 * chi_fb)
                          * cfg.cavity.g_pull)) ** 2
    np.testing.assert_allclose(s.values, oracle, rtol=1e-12)
    # response peaks near the trapped resonance
    mode = extract_mode(cfg)
    f_peak = grid_hz[np.argmax(s.values)]
    assert f_peak == pytest.approx(mode.omega_eff / TWO_PI, rel=0.2, abs=0)


# --------------------------------------------------------------------------
# displacement <-> voltage calibration
# --------------------------------------------------------------------------

def test_calibration_zero_maps_to_zero(experiment_config):
    grid = np.geomspace(1.0, 1e3, 50)
    s = Spectrum(grid=grid, values=np.zeros_like(grid), kind="displacement")
    out = displacement_to_voltage(s, experiment_config, TWO_PI * 662.0)
    assert np.all(out.values == 0.0)


def test_calibration_scales_with_mode_frequency_squared(experiment_config):
    f1 = calibration_factor(experiment_config, TWO_PI * 500.0)
    f2 = calibration_factor(experiment_config, TWO_PI * 1000.0)
    assert f2 == pytest.approx(4.0 * f1, rel=1e-12, abs=0)


def test_calibration_factor_direct_formula(experiment_config):
    """Direct-arithmetic oracle with the measured cavity numbers."""
    w_eff = TWO_PI * 662.0
    c_light = 299792458.0
    oracle = (TWO_PI * c_light * 5e-6 / (1980.0 * 1.56)) * (1.0 - 0.19) \
        * w_eff**2 * 1.0
    assert calibration_factor(experiment_config, w_eff) == pytest.approx(
        oracle, rel=1e-12, abs=0)


def test_calibration_round_trip(experiment_config):
    grid = np.geomspace(10.0, 2e3, 300)
    rng = np.random.default_rng(5)
    s = Spectrum(grid=grid, values=rng.uniform(0.5, 2.0, grid.size) * 1e-24,
                 kind="displacement")
    w_eff = TWO_PI * 662.0
    back = voltage_to_displacement(
        displacement_to_voltage(s, experiment_config, w_eff), experiment_config, w_eff)
    np.testing.assert_allclose(back.values, s.values, rtol=1e-12)


# --------------------------------------------------------------------------
# Welch estimation
# --------------------------------------------------------------------------

def test_welch_sine_peak_power():
    fs = 4096.0
    n = 1 << 16
    t = np.arange(n) / fs
    nperseg = 4096
    f_sine = 64.0  # an exact bin center of the segment FFT
    a = 3.7e-9
    x = a * np.sin(TWO_PI * f_sine * t)
    s = welch_psd(x, 1.0 / fs, segment_length=nperseg)
    sel = np.abs(s.grid - f_sine) <= 5.0 * fs / nperseg
    power = np.trapezoid(s.values[sel], s.grid[sel])
    assert power == pytest.approx(a**2 / 2.0, rel=0.02, abs=0)


def test_welch_white_noise_level_and_variance():
    rng = np.random.default_rng(11)
    fs = 1000.0
    sigma = 2.5e-12
    x = rng.normal(0.0, sigma, size=1 << 17)
    s = welch_psd(x, 1.0 / fs, segment_length=2048)
    # flat level = variance / f_Nyquist
    assert s.values.mean() == pytest.approx(sigma**2 / (fs / 2.0), rel=0.05, abs=0)
    assert s.variance() == pytest.approx(x.var(), rel=0.02, abs=0)


@pytest.mark.parametrize("segment_length", [8192, 4097])
def test_welch_matches_scipy_on_a_trajectory(experiment_config, segment_length):
    """The numpy Welch estimate against scipy.signal.welch (periodic Hann,
    half overlap, constant detrend, density scaling) on one stride-1
    relaxation phase of the experiment preset, ~95,000 samples; an odd
    segment has no Nyquist bin.  The grid to 1e-15, and each value to
    1e-13 of sqrt(P_k max P): the FFT rounds to the scale of the whole
    segment, so a bin 1e13 below the peak carries ~1e-11 of itself."""
    from scipy.signal import welch

    from optospring.dynamics import SimPlan, simulate_trajectory

    plan = SimPlan(duration=1.0, n_trajectories=1, master_seed=5,
                   record_stride=1)
    t, x, _, _ = simulate_trajectory(experiment_config,
                                     experiment_config.noise, plan, 0)
    dt = float(t[1] - t[0])
    s = welch_psd(x, dt, segment_length=segment_length)
    f, p = welch(x, fs=1.0 / dt, window="hann", nperseg=segment_length,
                 noverlap=segment_length // 2, detrend="constant")
    np.testing.assert_allclose(s.grid, f[1:], rtol=1e-15, atol=0.0)
    assert np.all(np.abs(s.values - p[1:]) <= 1e-13 * np.sqrt(p[1:] * p.max()))


def _one_batch_welch(x, dt, n):
    """welch_psd's estimate with every segment transformed in one batch
    and the periodograms averaged by mean(axis=0)."""
    step = n - n // 2
    segments = np.lib.stride_tricks.sliding_window_view(x, n)[::step]
    window = 0.5 - 0.5 * np.cos(TWO_PI * np.arange(n) / n)
    spectra = np.fft.rfft((segments - segments.mean(axis=1, keepdims=True))
                          * window, axis=1)
    p = (spectra.real**2 + spectra.imag**2).mean(axis=0) * (
        dt / np.dot(window, window))
    p[1:(n + 1) // 2] *= 2.0
    return p[1:]


@pytest.mark.parametrize("n", [1024, 1001])
@pytest.mark.parametrize("blocks", [0.5, 1, 2.5])
def test_welch_blocks_equal_one_batch(n, blocks):
    """welch_psd transforms WELCH_BLOCK segments at a time and adds their
    periodograms in segment order, the order of mean(axis=0), so its
    estimate equals the one-batch estimate bit for bit: below one block,
    exactly one, and past one but not a multiple; an odd segment length
    too."""
    count = max(2, int(blocks * spectra.WELCH_BLOCK))
    step = n - n // 2
    x = np.random.default_rng(count).standard_normal(n + (count - 1) * step)
    s = welch_psd(x, 1e-4, segment_length=n)
    assert np.array_equal(s.values, _one_batch_welch(x, 1e-4, n))


def test_welch_memory_does_not_grow_with_the_series():
    """welch_psd's traced peak above its input, at a fixed segment length
    of 4096, is one block's segments and FFTs, whatever the series length:
    ~1.1 MB at 2^18 and at 2^20 samples.  Transformed in one batch it was
    8.5 and 33.6 MB."""
    from conftest import traced_peak

    peaks = []
    for k in (18, 20):
        x = np.random.default_rng(k).standard_normal(1 << k)
        _, peak = traced_peak(lambda: welch_psd(x, 1e-3, segment_length=4096))
        peaks.append(peak)
    assert peaks[1] <= 1.2 * peaks[0]


def test_welch_needs_two_segments():
    with pytest.raises(InsufficientDataError):
        welch_psd(np.zeros(1000), 1e-3, segment_length=800)


def test_welch_matches_thermal_spectrum_for_simulated_pendulum(experiment_config):
    """FDT cross-check: a simulated bare-pendulum thermal series has the
    analytic thermal spectrum, within Monte Carlo error bars."""
    from optospring.dynamics import SimPlan, simulate_trajectory

    cfg = dataclasses.replace(
        experiment_config,
        cavity=dataclasses.replace(experiment_config.cavity, input_power=0.0,
                                   n_cav_peak=None, detuning=0.0),
        servo=dataclasses.replace(experiment_config.servo, g_el=0.0, off_gain=0.0),
        raw_items=())
    noise = dataclasses.replace(cfg.noise, freq_noise_amp=0.0)
    m1 = cfg.mirror1

    n_traj, t_len = 4, 400.0
    plan = SimPlan(duration=t_len, n_trajectories=n_traj, master_seed=99,
                   record_stride=1)
    psds = []
    for idx in range(n_traj):
        t, x, v, n = simulate_trajectory(cfg, noise, plan, idx)
        dt = t[1] - t[0]
        psds.append(welch_psd(x, dt, segment_length=1 << 15))
    mean_psd = np.mean([p.values for p in psds], axis=0)
    grid = psds[0].grid

    w = grid * TWO_PI
    chi = ComplexResponse(grid=w, values=mech_susceptibility(m1, w))
    analytic = thermal_spectrum(noise.temperature, m1, chi)

    # compare total power in a band around the resonance
    f0 = m1.omega0 / TWO_PI
    sel = (grid > 0.5 * f0) & (grid < 2.0 * f0)
    got = np.trapezoid(mean_psd[sel], grid[sel])
    want = np.trapezoid(analytic.values[sel], grid[sel])
    assert got == pytest.approx(want, rel=0.35, abs=0)


# --------------------------------------------------------------------------
# mode temperature
# --------------------------------------------------------------------------

def test_mode_temperature_synthetic_lorentzian(experiment_config):
    """Analytic-area oracle: a Lorentzian of half-width sigma and height S0
    has total area pi*S0*sigma."""
    m1 = experiment_config.mirror1
    f0, sigma, s0 = 500.0, 2.0, 1e-22
    grid = np.linspace(400.0, 600.0, 20001)
    values = s0 / (1.0 + ((grid - f0) / sigma) ** 2)
    s = Spectrum(grid=grid, values=values, kind="displacement")
    w_eff = TWO_PI * f0
    mt = mode_temperature(s, w_eff, sigma * 4.0 * math.pi, m1)
    area = math.pi * s0 * sigma
    assert mt.mean_square_x == pytest.approx(area, rel=0.05, abs=0)
    assert mt.t_eff == pytest.approx(m1.mass * w_eff**2 * area / K_B, rel=0.05, abs=0)
    lo, hi = mt.integration_band
    assert lo == pytest.approx(f0 - 3 * sigma, rel=1e-3, abs=0)
    assert hi == pytest.approx(f0 + 3 * sigma, rel=1e-3, abs=0)


def test_mode_temperature_recovers_bath_temperature(experiment_config):
    """FDT + equipartition self-consistency for the untrapped pendulum."""
    m1 = experiment_config.mirror1
    grid_hz = build_frequency_grid(peaks=((m1.omega0 / TWO_PI, m1.gamma0),))
    w = grid_hz * TWO_PI
    chi = ComplexResponse(grid=w, values=mech_susceptibility(m1, w))
    s = thermal_spectrum(300.0, m1, chi)
    mt = mode_temperature(s, m1.omega0, m1.gamma0, m1)
    assert mt.t_eff == pytest.approx(300.0, rel=0.10, abs=0)


def test_mode_temperature_grid_refinement(experiment_config):
    m1 = experiment_config.mirror1
    chis = []
    for n_base in (2048, 4096):
        grid_hz = build_frequency_grid(n_base=n_base,
                                       peaks=((m1.omega0 / TWO_PI, m1.gamma0),))
        w = grid_hz * TWO_PI
        chis.append(ComplexResponse(grid=w, values=mech_susceptibility(m1, w)))
    temps = [mode_temperature(thermal_spectrum(300.0, m1, chi),
                              m1.omega0, m1.gamma0, m1).t_eff for chi in chis]
    assert abs(temps[1] / temps[0] - 1.0) < 0.02


def test_mode_temperature_band_outside_grid(experiment_config):
    m1 = experiment_config.mirror1
    f0, sigma = 10.0, 5.0
    grid = np.linspace(5.0, 15.0, 2001)  # 3 sigma band would need [-5, 25]
    values = 1e-22 / (1.0 + ((grid - f0) / sigma) ** 2)
    s = Spectrum(grid=grid, values=values, kind="displacement")
    with pytest.raises(SpectrumBandError, match="outside the grid"):
        mode_temperature(s, TWO_PI * f0, sigma * 4.0 * math.pi, m1)


def test_lorentzian_band_fraction_constant():
    assert LORENTZIAN_3SIGMA_FRACTION == pytest.approx(
        2.0 / math.pi * math.atan(3.0), rel=1e-15, abs=0)


def test_cooled_mode_temperature_order_ten_millikelvin(experiment_config):
    """End-to-end scale check at the 662 Hz trap.

    Detuned so the trap sits at 662 Hz; at moderate cooling gain the
    spectral-peak temperature lands in the tens-of-millikelvin range, and at
    the full experimental gain the occupancy-based temperature reaches a few
    millikelvin.  (The servo electronics that set the measured floor are not
    modeled, so only the magnitude is meaningful.)
    """
    from optospring.cli import _spectrum_bundle

    delta_662 = TWO_PI * 1.4347e6  # far-branch detuning for a 662 Hz trap
    base = experiment_config.with_detuning(delta_662)

    cfg = dataclasses.replace(
        base, servo=dataclasses.replace(base.servo, g_el=56.0), raw_items=())
    mode, _, _, s_fr, total = _spectrum_bundle(cfg, 300.0)
    assert mode.omega_eff / TWO_PI == pytest.approx(662.0, abs=10.0)
    mt = mode_temperature(total, mode.omega_eff, mode.gamma_eff,
                          cfg.mirror1)
    assert 5e-3 < mt.t_eff < 1.5e-1

    full = dataclasses.replace(
        base, servo=dataclasses.replace(base.servo, g_el=560.0), raw_items=())
    mode_f, _, _, s_fr_f, _ = _spectrum_bundle(full, 300.0)
    n_th_p, n_fr, _ = occupations(full, full.noise, mode_f, s_fr_f)
    t_occ = (n_th_p + n_fr) * HBAR * mode_f.omega_eff / K_B
    assert 2e-3 < t_occ < 5e-2


def test_welch_integral_matches_sample_variance(experiment_config,
                                                thermal_only_noise):
    """Parseval for a simulated trapped-mode record, within 3%."""
    from optospring.dynamics import SimPlan, simulate_trajectory

    delta = TWO_PI * 2137.0  # ~100 Hz trap keeps the record short
    servo = dataclasses.replace(experiment_config.servo, g_el=5.0, off_gain=5.0)
    cfg = dataclasses.replace(experiment_config.with_detuning(delta), servo=servo,
                              raw_items=())
    plan = SimPlan(duration=4.0, n_trajectories=1, master_seed=21,
                   record_stride=1)
    t, x, v, n = simulate_trajectory(cfg, thermal_only_noise, plan, 0)
    spec = welch_psd(x, float(t[1] - t[0]), segment_length=1 << 13)
    assert spec.variance() == pytest.approx(float(np.var(x)), rel=0.03, abs=0)


# --------------------------------------------------------------------------
# occupations
# --------------------------------------------------------------------------

def _quiet_spectrum():
    grid = np.geomspace(1.0, 1e4, 100)
    return Spectrum(grid=grid, values=np.zeros_like(grid), kind="displacement")


def test_occupations_zero_noise(experiment_config):
    noise = dataclasses.replace(experiment_config.noise, temperature=0.0,
                                freq_noise_amp=0.0)
    mode = EffectiveMode(omega_eff=TWO_PI * 950.0, gamma_eff=0.6,
                         stable=True, pole=complex(-0.3, TWO_PI * 950.0))
    n_th_p, n_fr, n_bare = occupations(experiment_config, noise, mode,
                                       _quiet_spectrum())
    assert (n_th_p, n_fr, n_bare) == (0.0, 0.0, 0.0)


def test_occupation_bare_pendulum_magnitude(experiment_config):
    """kB*T/(hbar*w1) arithmetic oracle at 300 K."""
    noise = experiment_config.noise
    mode = EffectiveMode(omega_eff=TWO_PI * 950.0, gamma_eff=0.6,
                         stable=True, pole=complex(-0.3, TWO_PI * 950.0))
    _, _, n_bare = occupations(experiment_config, noise, mode, _quiet_spectrum())
    oracle = K_B * 300.0 / (HBAR * experiment_config.mirror1.omega0)
    assert n_bare == pytest.approx(oracle, rel=1e-12, abs=0)
    assert n_bare == pytest.approx(2.9e12, rel=0.02, abs=0)


def test_occupation_identity(experiment_config):
    mode = EffectiveMode(omega_eff=TWO_PI * 662.0, gamma_eff=1.7,
                         stable=True, pole=complex(-0.85, TWO_PI * 662.0))
    n_th_p, _, _ = occupations(experiment_config, experiment_config.noise, mode,
                               _quiet_spectrum())
    m1 = experiment_config.mirror1
    assert n_th_p * mode.gamma_eff == pytest.approx(
        K_B * 300.0 * m1.gamma0 / (HBAR * mode.omega_eff), rel=1e-12, abs=0)


def test_occupations_reject_undamped_mode(experiment_config):
    mode = EffectiveMode(omega_eff=TWO_PI * 662.0, gamma_eff=-0.2,
                         stable=False, pole=complex(0.1, TWO_PI * 662.0))
    with pytest.raises(InstabilityError, match="undamped"):
        occupations(experiment_config, experiment_config.noise, mode, _quiet_spectrum())


# --------------------------------------------------------------------------
# containers and CSV
# --------------------------------------------------------------------------

def test_spectrum_rejects_negative_values():
    with pytest.raises(ValidationError, match="values >= 0"):
        Spectrum(grid=np.array([1.0, 2.0]), values=np.array([1.0, -1.0]),
                 kind="displacement")


def test_spectrum_rejects_unsorted_grid():
    with pytest.raises(ValidationError, match="strictly increasing"):
        Spectrum(grid=np.array([2.0, 1.0]), values=np.array([1.0, 1.0]),
                 kind="displacement")


def test_spectrum_csv_round_trip(tmp_path):
    grid = np.geomspace(1.0, 100.0, 17)
    for kind, unit in (("voltage", "V^2/Hz"), ("frequency-noise", "Hz^2/Hz")):
        s = Spectrum(grid=grid, values=grid * 1e-20, kind=kind)
        assert s.unit == unit
        path = tmp_path / f"{kind}.csv"
        write_spectrum_csv(path, s, comment="round trip")
        again = read_spectrum_csv(path)
        assert again.kind == kind
        assert again.unit == unit
        np.testing.assert_array_equal(again.grid, s.grid)
        np.testing.assert_array_equal(again.values, s.values)
