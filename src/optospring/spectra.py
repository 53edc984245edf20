"""Noise spectrum synthesis and estimation.

All spectra are one-sided over ordinary frequency: integrating a spectrum
over its Hz grid gives the variance of the underlying process.  Square-root
expressions elsewhere in the package are amplitude spectral densities of
these one-sided spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (FitError, InstabilityError, InsufficientDataError,
                     SingularResponseError, SpectrumBandError, ValidationError)
from .fitting import separable_fit
from .model import (HBAR, K_B, C_LIGHT, TWO_PI, MirrorParams, NoiseEnv,
                    SystemConfig)
from .response import ComplexResponse, _loop
from .tables import write_table

# Fraction of a Lorentzian living within +-3 half-widths of its center;
# band-limited integrals are divided by this so a clean peak integrates to
# its full area.
LORENTZIAN_3SIGMA_FRACTION = 2.0 / math.pi * math.atan(3.0)

GRID_F_MIN, GRID_F_MAX = 0.1, 1e5  # Hz, span of the master frequency grid

# Segments transformed at once by welch_psd.  On a 2 s stride-1 trajectory
# (285,042 samples, 68 segments of 8192) one batch traced 9.0 MB above the
# input; 8 segments at a time trace 1.9 MB, and the estimate is no slower.
WELCH_BLOCK = 8

# Each spectrum kind and the unit of its values.
SPECTRUM_UNITS = {"displacement": "m^2/Hz", "voltage": "V^2/Hz",
                  "frequency-noise": "Hz^2/Hz"}


@dataclass(frozen=True)
class Spectrum:
    """One-sided power spectral density on an ordinary-frequency grid."""

    grid: np.ndarray    # Hz, strictly increasing
    values: np.ndarray  # units per `unit`
    kind: str           # displacement | voltage | frequency-noise

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if self.kind not in SPECTRUM_UNITS:
            raise ValidationError(f"kind in {tuple(SPECTRUM_UNITS)}", "kind", self.kind)
        if grid.size != values.size or grid.size < 2:
            raise ValidationError("grid and values have equal length >= 2",
                                  "grid", grid.size)
        if np.any(np.diff(grid) <= 0):
            raise ValidationError("grid strictly increasing", "grid", None)
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValidationError("values >= 0 and finite", "values", None)

    @property
    def unit(self) -> str:
        return SPECTRUM_UNITS[self.kind]

    def variance(self) -> float:
        """Integral over the grid; equals the process variance."""
        return float(np.trapezoid(self.values, self.grid))


@dataclass(frozen=True)
class ModeTemperature:
    """Spectral-peak temperature T_eff = m*omega_eff^2*<x^2>/k_B."""

    t_eff: float            # K
    mean_square_x: float    # m^2
    omega_eff: float        # rad/s
    integration_band: tuple[float, float]  # Hz


def build_frequency_grid(n_base: int = 4096,
                         peaks: tuple[tuple[float, float], ...] = ()) -> np.ndarray:
    """Log-spaced master grid with each (f_peak, gamma) resonance resolved.

    A narrow mechanical peak (half-width gamma/(4*pi) in Hz) gets a dense
    linear core out to 10 half-widths and log-spaced wings beyond, so
    trapezoid integrals over the grid capture the peak area to well below
    a percent.
    """
    pieces = [np.geomspace(GRID_F_MIN, GRID_F_MAX, n_base)]
    for f_peak, gamma in peaks:
        if f_peak <= 0:
            continue
        w = max(abs(gamma), 1e-6) / (4.0 * math.pi)  # |chi|^2 half-width in Hz
        core = np.linspace(f_peak - 10 * w, f_peak + 10 * w, 801)
        u_max = max(0.5 * f_peak, 2000 * w)
        wings = np.geomspace(10 * w, u_max, 240)
        pieces += [core, f_peak + wings, f_peak - wings]
    grid = np.concatenate(pieces)
    # sorted, repeats dropped: np.unique's result, without its import of
    # numpy.ma
    grid = np.sort(grid[(grid >= GRID_F_MIN) & (grid <= GRID_F_MAX)])
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


def thermal_spectrum(temperature: float, mirror: MirrorParams,
                     chi_eff: ComplexResponse) -> Spectrum:
    """Fluctuation-dissipation displacement noise, 4*kB*T*gamma*m*|chi_eff|^2."""
    if temperature < 0:
        raise ValidationError("T >= 0", "temperature", temperature)
    s = 4.0 * K_B * temperature * mirror.gamma0 * mirror.mass \
        * np.abs(chi_eff.values) ** 2
    return Spectrum(grid=chi_eff.grid / TWO_PI, values=s, kind="displacement")


def freqnoise_spectrum(noise: NoiseEnv, config: SystemConfig,
                       chi_eff: ComplexResponse) -> Spectrum:
    """Displacement noise driven by laser frequency fluctuations.

    sqrt(S_x) = sqrt(S_phidot) * |chi_eff / (chi1*(1 + zeta2*chi2*chi_fb)*g)|
    with S_phidot in Hz^2/Hz, g the frequency-pull coefficient, and chi1,
    chi2, chi_fb the config's loop terms on chi_eff's grid.
    """
    f_hz = chi_eff.grid / TWO_PI
    cav = config.cavity
    if cav.g_pull <= 0:
        raise SingularResponseError(
            "frequency-noise transduction needs a nonzero pull coefficient g")
    chi1, chi2, _, chi_fb = _loop(config, chi_eff.grid)
    bracket = chi1 * (1.0 + cav.zeta2 * chi2 * chi_fb)
    bad = np.abs(bracket) == 0.0
    if np.any(bad):
        raise SingularResponseError(
            f"chi1*(1 + zeta2*chi2*chi_fb) = 0 at f = {f_hz[bad][0]:.6g} Hz")
    transfer = np.abs(chi_eff.values / (bracket * cav.g_pull)) ** 2
    return Spectrum(grid=f_hz, values=noise.sphidot(f_hz) * transfer,
                    kind="displacement")


def calibration_factor(config: SystemConfig, omega_eff: float) -> float:
    """Displacement-to-voltage amplitude factor for the reflection readout.

    sqrt(S_V) = sqrt(S_x) * (2*pi*c*m1 / (finesse*zeta1))
                * (1 - kappa_in/kappa) * omega_eff^2 * eta
    with eta the config's detector_eta.
    """
    cav = config.cavity
    return (TWO_PI * C_LIGHT * config.mirror1.mass / (cav.finesse * cav.zeta1)
            * (1.0 - cav.kappa_in_ratio) * omega_eff**2 * config.detector_eta)


def displacement_to_voltage(s_x: Spectrum, config: SystemConfig,
                            omega_eff: float) -> Spectrum:
    factor = calibration_factor(config, omega_eff)
    return Spectrum(grid=s_x.grid, values=s_x.values * factor**2,
                    kind="voltage")


def voltage_to_displacement(s_v: Spectrum, config: SystemConfig,
                            omega_eff: float) -> Spectrum:
    factor = calibration_factor(config, omega_eff)
    return Spectrum(grid=s_v.grid, values=s_v.values / factor**2,
                    kind="displacement")


def welch_psd(series, dt: float, segment_length: int | None = None,
              kind: str = "displacement") -> Spectrum:
    """One-sided Welch estimate (Welch, IEEE Trans. Audio Electroacoust. 15,
    70 (1967)): the mean of the periodograms of half-overlapping segments,
    each with its mean removed and a periodic Hann window applied, scaled to
    a density (|X|^2 dt / sum w^2, doubled off the DC and Nyquist bins).
    Beside the input it holds WELCH_BLOCK segments and their transforms at
    a time, and adds their periodograms to one running sum in segment
    order, mean(axis=0)'s order, so the blocks change no bit."""
    x = np.asarray(series, dtype=float)
    if segment_length is None:
        segment_length = max(256, x.size // 8)
    n = segment_length
    if x.size < 2 * n:
        raise InsufficientDataError(
            f"need at least 2 segments of {n}, got {x.size} samples")
    step = n - n // 2
    segments = np.lib.stride_tricks.sliding_window_view(x, n)[::step]
    window = 0.5 - 0.5 * np.cos(TWO_PI * np.arange(n) / n)
    total = np.zeros(n // 2 + 1)
    for i in range(0, len(segments), WELCH_BLOCK):
        block = segments[i:i + WELCH_BLOCK]
        spectra = np.fft.rfft((block - block.mean(axis=1, keepdims=True))
                              * window, axis=1)
        for row in spectra.real**2 + spectra.imag**2:
            total += row
    p = total / len(segments) * (dt / np.dot(window, window))
    p[1:(n + 1) // 2] *= 2.0
    # drop the DC bin so the grid stays strictly positive / log-plottable
    return Spectrum(grid=np.fft.rfftfreq(n, dt)[1:], values=p[1:], kind=kind)


def _lorentzian_basis(f):
    """Phi = 1/(1 + ((f - f0)/width)^2) and its (f0, width) derivatives,
    for ``fitting.separable_fit``."""
    def basis(theta):
        f0, width = theta.tolist()
        x = (f - f0) / width
        g = 1.0 / (1.0 + x * x)
        dg = (2.0 / width) * x * g * g
        return g[None], np.array((dg, dg * x))[:, None]
    return basis


def fit_peak_width(spectrum: Spectrum, f_guess: float, width_guess: float
                   ) -> tuple[float, float, float]:
    """Least-squares Lorentzian fit around a peak; returns (s0, f0, half-width).

    The fit window is the grid within 8 guessed half-widths of f_guess,
    clipped to [f_guess/2, 2*f_guess] so other spectral structure (the
    heavy-mirror line the servo imprints at low frequency, the trap-noise
    shoulder) cannot capture the fit of a broad peak; it needs >= 5 points.
    The fit is ``fitting.separable_fit``, a Levenberg-Marquardt iteration on
    (f0, width) from (f_guess, width_guess) with s0 solved linearly at every
    step.  It stops once the next step, in units of (f_guess, width_guess),
    has norm at most 1e-8, or would lower the squared residual by at most
    1e-20 of itself.  FitError if it does not converge, if s0 or the width
    is not positive, if f0 leaves [f_guess/2, 2*f_guess], or if the
    half-width exceeds the span of the window (no peak resolved in it).
    """
    f, s = spectrum.grid, spectrum.values
    sel = (np.abs(f - f_guess) <= 8.0 * width_guess) \
        & (f >= 0.5 * f_guess) & (f <= 2.0 * f_guess)
    f, s = f[sel], s[sel]
    if f.size < 5:
        raise InsufficientDataError(
            f"only {f.size} grid points within 8 half-widths of "
            f"{f_guess:.6g} Hz; refine the grid")
    try:
        (f0, width), (s0,) = separable_fit(_lorentzian_basis(f), s,
                                           (f_guess, width_guess))
    except FitError as exc:
        raise FitError(f"Lorentzian peak fit failed near {f_guess:.6g} Hz: "
                       f"{exc}") from exc
    if s0 <= 0 or width <= 0:
        raise FitError("Lorentzian fit returned non-physical parameters "
                       f"{[s0, f0, width]}")
    if not 0.5 * f_guess <= f0 <= 2.0 * f_guess:
        raise FitError(f"Lorentzian fit wandered to {f0:.6g} Hz, away from "
                       f"the expected peak at {f_guess:.6g} Hz")
    if width > f[-1] - f[0]:
        raise FitError(f"Lorentzian fit half-width {width:.6g} Hz exceeds the "
                       f"fit window [{f[0]:.6g}, {f[-1]:.6g}] Hz: no resolved "
                       "peak")
    return float(s0), float(f0), float(width)


def mode_temperature(s_x: Spectrum, omega_eff: float, gamma_eff: float,
                     mirror: MirrorParams) -> ModeTemperature:
    """Integrate a spectral peak within 3 fitted half-widths.

    The band is [f0 - 3*sigma, f0 + 3*sigma] with sigma the half-width of a
    least-squares Lorentzian fit; the band integral is scaled by the known
    in-band fraction (2/pi)*atan(3) so a clean Lorentzian reports its full
    area.  T_eff = m*omega_eff^2*<x^2>/k_B.
    """
    f_eff = omega_eff / TWO_PI
    width_guess = max(abs(gamma_eff), 1e-9) / (4.0 * math.pi)
    _, f0, sigma = fit_peak_width(s_x, f_eff, width_guess)
    lo, hi = f0 - 3.0 * sigma, f0 + 3.0 * sigma
    if lo < s_x.grid[0] or hi > s_x.grid[-1]:
        raise SpectrumBandError(
            f"band [{lo:.6g}, {hi:.6g}] Hz falls outside the grid "
            f"[{s_x.grid[0]:.6g}, {s_x.grid[-1]:.6g}] Hz")
    sel = (s_x.grid >= lo) & (s_x.grid <= hi)
    band_grid = np.concatenate(([lo], s_x.grid[sel], [hi]))
    band_vals = np.interp(band_grid, s_x.grid, s_x.values)
    mean_square = float(np.trapezoid(band_vals, band_grid)) / LORENTZIAN_3SIGMA_FRACTION
    t_eff = mirror.mass * omega_eff**2 * mean_square / K_B
    return ModeTemperature(t_eff=t_eff, mean_square_x=mean_square,
                           omega_eff=omega_eff, integration_band=(lo, hi))


def occupations(config: SystemConfig, noise: NoiseEnv, mode,
                s_x_freq: Spectrum) -> tuple[float, float, float]:
    """Occupation numbers (n_th_prime, n_freq, n_th_bare) of the trapped mode.

    n_th_prime = kB*T*gamma1 / (hbar*omega_eff*gamma_eff) is the thermal
    occupancy the trap relaxes to; n_freq = m1*omega_eff*<x^2>_freq/hbar is
    the occupancy fed by trap noise; n_th_bare = kB*T/(hbar*omega1) is the
    high-temperature bath occupancy of the bare pendulum.
    """
    if mode.gamma_eff <= 0 or mode.omega_eff <= 0:
        raise InstabilityError(
            f"occupations undefined for an unstable (undamped) mode "
            f"(omega_eff = {mode.omega_eff:.6g}, gamma_eff = {mode.gamma_eff:.6g})")
    m1 = config.mirror1
    t = noise.temperature
    n_th_bare = K_B * t / (HBAR * m1.omega0)
    n_th_prime = K_B * t * m1.gamma0 / (HBAR * mode.omega_eff * mode.gamma_eff)
    n_freq = m1.mass * mode.omega_eff * s_x_freq.variance() / HBAR
    return float(n_th_prime), float(n_freq), float(n_th_bare)


def write_spectrum_csv(path, spectrum: Spectrum, comment: str = ""):
    """Columns: f_Hz, value, unit; header comments carry kind/normalization.
    The unit column follows from the kind, so reading ignores it."""
    write_table(path, ("f_Hz", "value", "unit"),
                (spectrum.grid, spectrum.values,
                 [spectrum.unit] * spectrum.grid.size),
                (f"kind: {spectrum.kind}",
                 "normalization: one-sided; integral over f_Hz equals variance",
                 comment))


def read_spectrum_csv(path) -> Spectrum:
    kind = "displacement"
    grid, values = [], []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# kind:"):
            kind = line.split(":", 1)[1].strip()
            continue
        if line.startswith("#") or line.startswith("f_Hz") or not line.strip():
            continue
        f, v, _ = line.split(",")
        grid.append(float(f))
        values.append(float(v))
    return Spectrum(grid=np.array(grid), values=np.array(values), kind=kind)
