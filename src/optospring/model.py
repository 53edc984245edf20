"""Physical parameters, unit conventions, and configuration ingestion.

Conventions used throughout the toolkit:

* every internal frequency-like quantity is angular (rad/s); config keys and
  CSV output use ordinary frequency (Hz),
* the laser frequency-noise spectrum ``S_phidot`` is stored and evaluated in
  ordinary-frequency units (Hz^2/Hz), i.e. the square of a Hz/sqrt(Hz)
  amplitude spectral density,
* the frequency-pull coefficient ``g_pull`` converts a round-trip length
  change (m) into a cavity frequency shift (rad/s).

Config files are flat ``key = value`` text with units spelled out in the key
names (``m1_mg``, ``kappa_over_2pi_Hz``, ...).  One table below,
``_NUMERIC_KEYS``, gives each numeric key its field, unit and default; the
loader, its key checks and the writer all read it.  Two presets ship with
the package: ``experiment`` (the suspended 5-mg-mirror experiment) and
``ideal`` (an idealized high-Q set used for stability-map studies).
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import (ConfigParseError, ConsistencyWarning, OptospringError,
                     ValidationError)

TWO_PI = 2.0 * math.pi

# Exact SI values (hbar = h/2pi to double precision), equal to
# scipy.constants c, hbar and k; written out so that importing the toolkit
# does not load scipy.constants.
C_LIGHT = 299792458.0            # m/s
HBAR = 1.0545718176461565e-34    # J*s
K_B = 1.380649e-23               # J/K

# Fractional finesse/kappa mismatch that triggers a ConsistencyWarning.
KAPPA_CONSISTENCY_TOL = 0.10

# Bath temperature when a config does not say otherwise.
DEFAULT_TEMPERATURE_K = 300.0

# 1/f frequency-noise model amplitude: sqrt(S_phidot(f)) = A / f  [Hz/sqrt(Hz)].
DEFAULT_FREQ_NOISE_AMP = 1.0e4

PRESET_ENV_VAR = "OPTOSPRING_PRESET_DIR"
_PACKAGE_PRESET_DIR = Path(__file__).parent / "presets"


def _require(cond: bool, invariant: str, field_name: str | None = None, value=None):
    if not cond:
        raise ValidationError(invariant, field=field_name, value=value)


@dataclass(frozen=True)
class MirrorParams:
    """One suspended mirror: mass, bare resonance, bare energy dissipation."""

    mass: float            # kg
    omega0: float          # rad/s
    gamma0: float          # rad/s
    label: str = ""

    def __post_init__(self):
        _require(self.mass > 0, "mass > 0", "mass", self.mass)
        _require(self.omega0 > 0, "omega0 > 0", "omega0", self.omega0)
        _require(self.gamma0 > 0, "gamma0 > 0", "gamma0", self.gamma0)
        _require(math.isfinite(self.quality_factor) and self.quality_factor > 0,
                 "Q = omega0/gamma0 finite and > 0", "gamma0", self.gamma0)

    @property
    def quality_factor(self) -> float:
        return self.omega0 / self.gamma0


@dataclass(frozen=True)
class CavityParams:
    """Optical geometry and field parameters of the folded cavity."""

    length: float            # round-trip length, m
    finesse: float
    kappa: float             # total amplitude decay rate, rad/s
    kappa_in_ratio: float    # input coupler share of kappa
    detuning: float          # rad/s, positive = blue
    omega_laser: float       # rad/s
    input_power: float = 0.0  # W
    n_cav_peak: float | None = None   # explicit peak photon number; overrides power
    cos_beta: float = 1.0    # incidence geometry on the light mirror
    zeta1: float | None = None  # d(round-trip length)/d(x1); default 2*cos_beta
    zeta2: float = 1.0          # same for the heavy mirror (normal incidence)
    g_pull: float | None = None  # rad/s per m; default omega_laser/length
    g_pull_mode: str = "laser_over_length"  # or "geometric"

    def __post_init__(self):
        _require(self.length > 0, "L > 0", "length", self.length)
        _require(self.finesse > 0, "finesse > 0", "finesse", self.finesse)
        _require(self.kappa > 0, "kappa > 0", "kappa", self.kappa)
        _require(0.0 <= self.kappa_in_ratio <= 1.0, "0 <= kappa_in_ratio <= 1",
                 "kappa_in_ratio", self.kappa_in_ratio)
        _require(self.omega_laser > 0, "omega_laser > 0", "omega_laser", self.omega_laser)
        _require(self.input_power >= 0, "input_power >= 0", "input_power", self.input_power)
        if self.n_cav_peak is not None:
            _require(self.n_cav_peak >= 0, "n_cav >= 0", "n_cav_peak", self.n_cav_peak)
        _require(0.0 < self.cos_beta <= 1.0, "0 < cos_beta <= 1", "cos_beta", self.cos_beta)
        if self.g_pull_mode not in ("laser_over_length", "geometric"):
            raise ValidationError("g_pull_mode in {laser_over_length, geometric}",
                                  "g_pull_mode", self.g_pull_mode)
        # derived defaults (object is frozen, hence object.__setattr__)
        if self.zeta1 is None:
            object.__setattr__(self, "zeta1", 2.0 * self.cos_beta)
        if self.g_pull is None:
            base = self.omega_laser / self.length
            if self.g_pull_mode == "geometric":
                base *= self.zeta1
            object.__setattr__(self, "g_pull", base)
        _require(self.zeta1 > 0, "zeta1 > 0", "zeta1", self.zeta1)
        _require(self.g_pull >= 0, "g_pull >= 0", "g_pull", self.g_pull)

    @property
    def kappa_expected(self) -> float:
        """Amplitude decay rate implied by the finesse, pi*c/(L*finesse) in rad/s."""
        return math.pi * C_LIGHT / (self.length * self.finesse)


@dataclass(frozen=True)
class FilterSection:
    """One first-order servo filter section."""

    kind: str       # "highpass", "lowpass" or "gain"
    corner: float   # rad/s for highpass/lowpass; dimensionless factor for gain

    def __post_init__(self):
        if self.kind not in ("highpass", "lowpass", "gain"):
            raise ValidationError("section kind in {highpass, lowpass, gain}",
                                  "kind", self.kind)
        if self.kind != "gain":
            _require(self.corner > 0, "section corner > 0", "corner", self.corner)

    def response(self, omega):
        s = 1j * omega
        if self.kind == "gain":
            return self.corner
        if self.kind == "highpass":
            return (s / self.corner) / (1.0 + s / self.corner)
        return 1.0 / (1.0 + s / self.corner)


@dataclass(frozen=True)
class ServoParams:
    """Electro-optical feedback: differentiator gain, filter chain, switching.

    The loop response is ``i*omega*g_el`` times the product of the filter
    sections; ``g_el`` is in N*s/m (force per velocity of cavity-length
    change).  ``off_gain=None`` means "resolve to the anti-damping
    cancellation gain of the operating mode" when the servo is switched off,
    matching the experimental protocol of parking the gain just at the
    instability threshold.
    """

    g_el: float = 0.0                    # N*s/m
    sections: tuple[FilterSection, ...] = ()
    switch_frequency: float = 1.0        # Hz
    off_gain: float | None = None        # N*s/m; None = auto (cancellation)
    actuation_coefficient: float | None = None  # recorded hardware constant; unused

    def __post_init__(self):
        _require(self.g_el >= 0, "g_el >= 0", "g_el", self.g_el)
        _require(self.switch_frequency > 0, "switch_frequency > 0",
                 "switch_frequency", self.switch_frequency)
        if self.off_gain is not None:
            _require(self.off_gain >= 0, "off_gain >= 0", "off_gain", self.off_gain)


@dataclass(frozen=True)
class NoiseEnv:
    """Thermal bath temperature and laser frequency-noise model.

    ``sqrt(S_phidot(f)) = freq_noise_amp / f`` in Hz/sqrt(Hz), optionally
    overridden by a tabulated (f, sqrt(S)) curve interpolated log-log.
    """

    temperature: float = DEFAULT_TEMPERATURE_K       # K
    freq_noise_amp: float = DEFAULT_FREQ_NOISE_AMP   # Hz^2/sqrt(Hz)
    freq_noise_table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        _require(self.temperature >= 0, "T >= 0", "temperature", self.temperature)
        _require(self.freq_noise_amp >= 0, "A >= 0", "freq_noise_amp", self.freq_noise_amp)
        if self.freq_noise_table is not None:
            freqs = [f for f, _ in self.freq_noise_table]
            vals = [v for _, v in self.freq_noise_table]
            _require(len(freqs) >= 2, "table holds >= 2 points",
                     "freq_noise_table", self.freq_noise_table)
            _require(all(b > a for a, b in zip(freqs, freqs[1:])),
                     "table frequencies strictly increasing", "freq_noise_table", freqs)
            _require(all(v >= 0 for v in vals), "table values >= 0",
                     "freq_noise_table", vals)

    def sqrt_sphidot(self, f_hz):
        """Amplitude spectral density of laser frequency noise, Hz/sqrt(Hz)."""
        import numpy as np

        f = np.asarray(f_hz, dtype=float)
        if np.any(f <= 0):
            raise ValidationError("frequency > 0 for noise evaluation", "f_hz", f_hz)
        if self.freq_noise_table is None:
            out = self.freq_noise_amp / f
        else:
            tf = np.array([p[0] for p in self.freq_noise_table])
            tv = np.array([p[1] for p in self.freq_noise_table])
            # log-log interpolation, clamped to the end values
            out = np.exp(np.interp(np.log(f), np.log(tf), np.log(np.maximum(tv, 1e-300))))
            out = np.where(out <= 1e-290, 0.0, out)
        return out if out.shape else float(out)

    def sphidot(self, f_hz):
        """One-sided frequency-noise PSD, Hz^2/Hz."""
        v = self.sqrt_sphidot(f_hz)
        return v * v


@dataclass(frozen=True)
class SystemConfig:
    """Everything one run needs: both mirrors, cavity, servo, noise."""

    mirror1: MirrorParams
    mirror2: MirrorParams
    cavity: CavityParams
    servo: ServoParams
    noise: NoiseEnv
    label: str = ""
    detector_eta: float = 1.0       # V/W
    pressure_pa: float | None = None  # chamber pressure, metadata only
    raw_items: tuple[tuple[str, str], ...] = field(
        default=(), repr=False, compare=False)

    def with_detuning(self, delta: float) -> "SystemConfig":
        return replace(self, cavity=replace(self.cavity, detuning=delta),
                       raw_items=())

    def with_gain(self, g_el: float) -> "SystemConfig":
        return replace(self, servo=replace(self.servo, g_el=g_el), raw_items=())


def intracavity_photons(cavity: CavityParams) -> float:
    """Mean intracavity photon number at the cavity's detuning.

    The buildup is Lorentzian in the detuning, ``n0 / (1 + (Delta/kappa)^2)``.
    The peak ``n0`` is the explicit ``n_cav_peak`` when configured; otherwise
    it follows from the input photon flux and the coupled-cavity steady state
    ``n0 = 2 kappa_in * (P / hbar omega_laser) / kappa^2`` (amplitude decay
    rates; drive on the input coupler).
    """
    if cavity.n_cav_peak is not None:
        n0 = cavity.n_cav_peak
    else:
        flux = cavity.input_power / (HBAR * cavity.omega_laser)
        kappa_in = cavity.kappa_in_ratio * cavity.kappa
        n0 = 2.0 * kappa_in * flux / cavity.kappa**2
    return n0 / (1.0 + (cavity.detuning / cavity.kappa) ** 2)


# --------------------------------------------------------------------------
# config file format
# --------------------------------------------------------------------------

_REQUIRED = object()  # the table default of a key every config file sets

# The numeric keys, one row each: (key, group, field, scales, default).
# ``group`` is the SystemConfig part that holds ``field`` ("" for the
# SystemConfig itself).  The loader multiplies a file value by the scales in
# turn to get SI units; the SI writer divides by them in reverse order.
# ``default`` (file units) stands in for an absent key.  The text keys below,
# ``off_gain_Ns_per_m = auto`` and the finesse/kappa derivation are handled
# in code.
_NUMERIC_KEYS = (
    ("m1_mg", "mirror1", "mass", (1e-6,), _REQUIRED),
    ("f1_Hz", "mirror1", "omega0", (TWO_PI,), _REQUIRED),
    ("gamma1_over_2pi_Hz", "mirror1", "gamma0", (TWO_PI,), _REQUIRED),
    ("m2_g", "mirror2", "mass", (1e-3,), _REQUIRED),
    ("f2_Hz", "mirror2", "omega0", (TWO_PI,), _REQUIRED),
    ("gamma2_over_2pi_Hz", "mirror2", "gamma0", (TWO_PI,), _REQUIRED),
    ("round_trip_length_cm", "cavity", "length", (1e-2,), _REQUIRED),
    ("finesse", "cavity", "finesse", (), None),
    ("kappa_over_2pi_Hz", "cavity", "kappa", (TWO_PI,), None),
    ("kappa_in_ratio", "cavity", "kappa_in_ratio", (), _REQUIRED),
    ("detuning_over_2pi_Hz", "cavity", "detuning", (TWO_PI,), 0.0),
    ("laser_freq_THz", "cavity", "omega_laser", (TWO_PI, 1e12), _REQUIRED),
    ("input_power_mW", "cavity", "input_power", (1e-3,), 0.0),
    ("n_cav_peak", "cavity", "n_cav_peak", (), None),
    ("cos_beta", "cavity", "cos_beta", (), _REQUIRED),
    ("zeta1", "cavity", "zeta1", (), None),
    ("zeta2", "cavity", "zeta2", (), 1.0),
    ("g_pull_rad_per_s_per_m", "cavity", "g_pull", (), None),
    ("gel_Ns_per_m", "servo", "g_el", (), 0.0),
    ("off_gain_Ns_per_m", "servo", "off_gain", (), None),
    ("switch_frequency_Hz", "servo", "switch_frequency", (), 1.0),
    ("actuation_coefficient_N_per_m_per_Hz", "servo", "actuation_coefficient",
     (), None),
    ("temperature_K", "noise", "temperature", (), DEFAULT_TEMPERATURE_K),
    ("freq_noise_amp_Hz2_per_rtHz", "noise", "freq_noise_amp", (),
     DEFAULT_FREQ_NOISE_AMP),
    ("eta_V_per_W", "", "detector_eta", (), 1.0),
    ("pressure_Pa", "", "pressure_pa", (), None),
)

_TEXT_KEYS = ("label", "g_pull_mode", "servo_sections", "freq_noise_table_csv")


def _parse_items(text: str, origin: str) -> list[tuple[str, str]]:
    items = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigParseError(
                f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            raise ConfigParseError(f"{origin}:{lineno}: empty key")
        items.append((key, value))
    return items


def _parse_float(mapping, key, origin):
    try:
        value = float(mapping[key])
    except ValueError as exc:
        raise ConfigParseError(f"{origin}: key {key!r}: not a number: "
                               f"{mapping[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigParseError(f"{origin}: key {key!r}: not a finite number: "
                               f"{mapping[key]!r}")
    return value


def _fields(mapping, group, origin) -> dict:
    """The SI values of the numeric fields of ``group``: parsed from
    ``mapping`` where it sets the key, else the table default."""
    fields = {}
    for key, row_group, name, scales, default in _NUMERIC_KEYS:
        if row_group != group:
            continue
        value = _parse_float(mapping, key, origin) if key in mapping else default
        if value is not None:
            for scale in scales:
                value *= scale
        fields[name] = value
    return fields


def _parse_sections(raw: str, origin: str) -> tuple[FilterSection, ...]:
    if not raw.strip():
        return ()
    sections = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            kind, corner = token.split(":")
            corner_val = float(corner)
        except ValueError as exc:
            raise ConfigParseError(
                f"{origin}: servo section {token!r}; expected kind:value") from exc
        if kind in ("highpass", "lowpass"):
            corner_val *= TWO_PI  # config corners are in Hz
        sections.append(FilterSection(kind=kind, corner=corner_val))
    return tuple(sections)


def _load_noise_table(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigParseError(f"{path}: cannot read noise table: {exc}") from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            row = tuple(float(cell) for cell in stripped.replace(",", " ").split())
        except ValueError:
            row = ()
        if len(row) != 2 or not all(math.isfinite(c) for c in row):
            raise ConfigParseError(
                f"{path}:{lineno}: expected two finite numbers, got {line!r}")
        rows.append(row)
    return tuple(rows)


def resolve_config_path(name_or_path: str | Path) -> Path:
    """Resolve a config argument: a real path, then $OPTOSPRING_PRESET_DIR,
    then the presets bundled with the package."""
    p = Path(name_or_path)
    if p.is_file():
        return p
    candidates = []
    env_dir = os.environ.get(PRESET_ENV_VAR)
    stem = str(name_or_path)
    for base in ([Path(env_dir)] if env_dir else []) + [_PACKAGE_PRESET_DIR]:
        candidates.extend([base / stem, base / f"{stem}.cfg"])
    for cand in candidates:
        if cand.is_file():
            return cand
    raise ConfigParseError(
        f"config {name_or_path!r} not found (searched cwd, "
        f"${PRESET_ENV_VAR}, and packaged presets)")


def load_config(path: str | Path) -> SystemConfig:
    """Load, validate, and complete a system configuration file."""
    path = resolve_config_path(path)
    return _build_config(_parse_items(path.read_text(), str(path)), path)


def _build_config(items, path: Path) -> SystemConfig:
    """The config of the file ``path`` holding ``items``."""
    origin = str(path)
    known = {row[0] for row in _NUMERIC_KEYS}.union(_TEXT_KEYS)
    mapping = {}
    for key, value in items:
        if key not in known:
            raise ConfigParseError(f"{origin}: unknown key {key!r}")
        if key in mapping:
            raise ConfigParseError(f"{origin}: duplicate key {key!r}")
        mapping[key] = value

    missing = [key for key, *_, default in _NUMERIC_KEYS
               if default is _REQUIRED and key not in mapping]
    if missing:
        raise ConfigParseError(f"{origin}: missing required keys: {missing}")
    if "finesse" not in mapping and "kappa_over_2pi_Hz" not in mapping:
        raise ConfigParseError(
            f"{origin}: need at least one of finesse, kappa_over_2pi_Hz")
    if mapping.get("off_gain_Ns_per_m", "").lower() == "auto":
        del mapping["off_gain_Ns_per_m"]  # auto is the default, None

    mirror1 = MirrorParams(**_fields(mapping, "mirror1", origin), label="m1")
    mirror2 = MirrorParams(**_fields(mapping, "mirror2", origin), label="m2")

    cav = _fields(mapping, "cavity", origin)
    if cav["kappa"] is None:
        cav["kappa"] = math.pi * C_LIGHT / (cav["length"] * cav["finesse"])
    if cav["finesse"] is None:
        cav["finesse"] = math.pi * C_LIGHT / (cav["length"] * cav["kappa"])
    cavity = CavityParams(
        **cav, g_pull_mode=mapping.get("g_pull_mode", "laser_over_length"))
    kappa = cavity.kappa
    if abs(cavity.kappa_expected - kappa) > KAPPA_CONSISTENCY_TOL * kappa:
        warnings.warn(
            f"{origin}: kappa = {kappa:.4g} rad/s differs from pi*c/(L*finesse) "
            f"= {cavity.kappa_expected:.4g} rad/s by more than "
            f"{KAPPA_CONSISTENCY_TOL:.0%}", ConsistencyWarning, stacklevel=3)

    servo = ServoParams(
        **_fields(mapping, "servo", origin),
        sections=_parse_sections(mapping.get("servo_sections", ""), origin))

    table = None
    if mapping.get("freq_noise_table_csv"):
        table_path = Path(mapping["freq_noise_table_csv"])
        if not table_path.is_absolute():
            table_path = path.parent / table_path
        table = _load_noise_table(table_path)
    noise = NoiseEnv(**_fields(mapping, "noise", origin), freq_noise_table=table)

    return SystemConfig(
        mirror1=mirror1, mirror2=mirror2, cavity=cavity, servo=servo, noise=noise,
        label=mapping.get("label", path.stem), raw_items=tuple(items),
        **_fields(mapping, "", origin))


def save_config(config: SystemConfig, path: str | Path) -> None:
    """Write a config back to disk.

    A config whose original key/value text loads back to it at ``path``
    keeps that text, so a load/save/load round trip preserves every field
    bit-exactly.  Configs built programmatically, changed since they were
    loaded, or whose text reads another file at ``path`` (a noise table
    given by a relative path) are serialized from their SI fields, with a
    noise table written beside ``path`` as ``<stem>_noise_table.csv``.
    Raises ValidationError for a config that no file loads back as.
    """
    path = Path(path)
    try:
        keep = bool(config.raw_items) and _build_config(config.raw_items,
                                                        path) == config
    except OptospringError:  # the text does not load at path
        keep = False
    if keep:
        path.write_text("".join(f"{k} = {v}\n" for k, v in config.raw_items))
        return

    label = config.label
    _require("#" not in label and label == label.strip()
             and len(label.splitlines()) <= 1,
             "label has no '#', line break or surrounding whitespace",
             "label", label)
    lines = [f"label = {label}"]
    for key, group, name, scales, _ in _NUMERIC_KEYS:
        value = getattr(getattr(config, group) if group else config, name)
        if value is None:  # an absent key loads back as None (off_gain: auto)
            continue
        value = float(value)
        for scale in reversed(scales):
            value /= scale
        _require(math.isfinite(value), f"{key} finite", name, value)
        lines.append(f"{key} = {value!r}")
    sections = ", ".join(
        f"{s.kind}:{float(s.corner if s.kind == 'gain' else s.corner / TWO_PI)!r}"
        for s in config.servo.sections)
    lines += [f"g_pull_mode = {config.cavity.g_pull_mode}",
              f"servo_sections = {sections}"]
    if config.noise.freq_noise_table is not None:
        table = path.with_name(f"{path.stem}_noise_table.csv")
        rows = "".join(f"{float(f)!r}, {float(v)!r}\n"
                       for f, v in config.noise.freq_noise_table)
        table.write_text("# f_Hz, sqrt(S_phidot) in Hz/sqrt(Hz)\n" + rows)
        lines.append(f"freq_noise_table_csv = {table.name}")
    path.write_text("\n".join(lines) + "\n")
