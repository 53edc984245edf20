"""Config ingestion, validation, presets, and photon buildup."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optospring.errors import (ConfigParseError, ConsistencyWarning,
                               ValidationError)
from optospring.model import (_NUMERIC_KEYS, _TEXT_KEYS, HBAR, TWO_PI,
                              CavityParams, MirrorParams, NoiseEnv,
                              ServoParams, intracavity_photons, load_config,
                              save_config)

PAPER_KEYS = """\
label = tweaked
m1_mg = {m1_mg}
f1_Hz = 2.14
gamma1_over_2pi_Hz = 1.2e-2
m2_g = 100.0
f2_Hz = 2.89
gamma2_over_2pi_Hz = 5.4e-2
round_trip_length_cm = 8.7
finesse = 1980.0
kappa_over_2pi_Hz = 8.4e5
kappa_in_ratio = 0.19
laser_freq_THz = 300.0
cos_beta = 0.78
"""


def test_paper_preset_values(experiment_config):
    cfg = experiment_config
    assert cfg.mirror1.mass == pytest.approx(5e-6)
    assert cfg.mirror1.omega0 == pytest.approx(TWO_PI * 2.14)
    assert cfg.mirror1.gamma0 == pytest.approx(TWO_PI * 1.2e-2)
    assert cfg.mirror1.quality_factor == pytest.approx(2.14 / 1.2e-2)
    assert cfg.mirror2.mass == pytest.approx(0.1)
    assert cfg.cavity.kappa == pytest.approx(TWO_PI * 0.84e6)
    assert cfg.cavity.kappa_in_ratio == pytest.approx(0.19)
    assert cfg.cavity.finesse == pytest.approx(1980.0)
    assert cfg.cavity.length == pytest.approx(0.087)
    assert cfg.cavity.cos_beta == pytest.approx(0.78)
    assert cfg.cavity.zeta1 == pytest.approx(2 * 0.78)
    assert cfg.cavity.g_pull == pytest.approx(cfg.cavity.omega_laser / 0.087)
    assert cfg.servo.g_el == pytest.approx(560.0)
    assert cfg.servo.off_gain is None  # auto: cancellation gain
    assert cfg.noise.temperature == pytest.approx(300.0)
    assert cfg.pressure_pa == pytest.approx(9.0)


def test_ideal_preset_values(ideal_config):
    cfg = ideal_config
    assert cfg.mirror1.omega0 == pytest.approx(TWO_PI * 1.0)
    assert cfg.mirror2.omega0 == pytest.approx(TWO_PI * 1.0)
    assert cfg.mirror1.gamma0 == pytest.approx(TWO_PI * 1e-6)
    assert cfg.mirror2.gamma0 == pytest.approx(TWO_PI * 1e-2)
    assert cfg.cavity.kappa == pytest.approx(TWO_PI * 2e6)
    assert cfg.cavity.kappa_in_ratio == pytest.approx(1.0)
    # L = 1 m: the pull coefficient is numerically the laser frequency
    assert cfg.cavity.g_pull == pytest.approx(cfg.cavity.omega_laser)
    assert cfg.servo.actuation_coefficient == pytest.approx(2e-8)


def test_intracavity_photons_ideal_preset(ideal_config):
    cav = ideal_config.cavity
    assert intracavity_photons(dataclasses.replace(cav, detuning=0.0)) \
        == pytest.approx(8.5e5)
    # half maximum at one linewidth of detuning
    assert intracavity_photons(dataclasses.replace(cav, detuning=cav.kappa)) \
        == pytest.approx(4.25e5)


def test_intracavity_photons_from_power(experiment_config):
    # independent photon-flux oracle: flux = P/(hbar*w_laser), peak buildup
    # 2*kappa_in*flux/kappa^2 for a drive on the input coupler
    cav = dataclasses.replace(experiment_config.cavity, input_power=0.82e-3,
                              n_cav_peak=None, detuning=0.0)
    flux = 0.82e-3 / (HBAR * cav.omega_laser)
    expected = 2.0 * (0.19 * cav.kappa) * flux / cav.kappa**2
    assert intracavity_photons(cav) == pytest.approx(expected, rel=1e-12, abs=0)
    assert expected == pytest.approx(2.970e8, rel=1e-3, abs=0)  # frozen magnitude


def test_intracavity_photons_even_and_peaked(experiment_config):
    cav = experiment_config.cavity
    deltas = np.linspace(0.1 * cav.kappa, 3 * cav.kappa, 7)
    def photons(d):
        return intracavity_photons(dataclasses.replace(cav, detuning=d))

    for d in deltas:
        assert photons(d) == photons(-d)
        assert photons(d) < photons(0.0)


def test_explicit_photon_number_overrides_power(ideal_config):
    cav = ideal_config.cavity
    assert cav.n_cav_peak == pytest.approx(8.5e5)
    boosted = dataclasses.replace(cav, input_power=1.0)
    assert intracavity_photons(dataclasses.replace(boosted, detuning=0.0)) \
        == pytest.approx(8.5e5)


def test_negative_mass_names_invariant(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(PAPER_KEYS.format(m1_mg=-1.0))
    with pytest.raises(ValidationError, match=r"mass > 0"):
        load_config(bad)


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(PAPER_KEYS.format(m1_mg=5.0) + "mystery_knob = 3\n")
    with pytest.raises(ConfigParseError, match="mystery_knob"):
        load_config(p)


def test_missing_required_key_listed(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("m1_mg = 5.0\n")
    with pytest.raises(ConfigParseError, match="f1_Hz"):
        load_config(p)


def test_malformed_line(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("just some words\n")
    with pytest.raises(ConfigParseError, match="key = value"):
        load_config(p)


def test_kappa_finesse_mismatch_warns(tmp_path):
    text = PAPER_KEYS.format(m1_mg=5.0).replace(
        "kappa_over_2pi_Hz = 8.4e5", "kappa_over_2pi_Hz = 2.4e6")
    p = tmp_path / "c.cfg"
    p.write_text(text)
    with pytest.warns(ConsistencyWarning, match="finesse"):
        load_config(p)


def test_paper_preset_is_consistent(recwarn):
    load_config("experiment")
    assert not [w for w in recwarn if issubclass(w.category, ConsistencyWarning)]


def test_kappa_derived_from_finesse(tmp_path):
    text = PAPER_KEYS.format(m1_mg=5.0).replace("kappa_over_2pi_Hz = 8.4e5\n", "")
    p = tmp_path / "c.cfg"
    p.write_text(text)
    cfg = load_config(p)
    expected = math.pi * 299792458.0 / (0.087 * 1980.0)
    assert cfg.cavity.kappa == pytest.approx(expected, rel=1e-12, abs=0)


def test_save_load_round_trip_is_exact(tmp_path):
    cfg = load_config("experiment")
    out = tmp_path / "copy.cfg"
    save_config(cfg, out)
    again = load_config(out)
    assert again.mirror1 == cfg.mirror1
    assert again.mirror2 == cfg.mirror2
    assert again.cavity == cfg.cavity
    assert again.servo == cfg.servo
    assert again.noise == cfg.noise
    assert again.detector_eta == cfg.detector_eta


@settings(max_examples=40, deadline=None)
@given(m1_mg=st.floats(min_value=1e-3, max_value=1e3,
                       allow_nan=False, allow_infinity=False))
def test_round_trip_property(tmp_path_factory, m1_mg):
    tmp = tmp_path_factory.mktemp("cfg")
    first = tmp / "a.cfg"
    first.write_text(PAPER_KEYS.format(m1_mg=repr(m1_mg)))
    cfg = load_config(first)
    second = tmp / "b.cfg"
    save_config(cfg, second)
    again = load_config(second)
    assert again.mirror1 == cfg.mirror1
    assert again.cavity == cfg.cavity


def test_save_changed_config_writes_its_fields(tmp_path, experiment_config):
    """A loaded config changed with dataclasses.replace keeps its source
    text, which no longer describes it: save writes the SI form instead."""
    cfg = dataclasses.replace(experiment_config, noise=dataclasses.replace(
        experiment_config.noise, temperature=4.0))
    assert cfg.raw_items
    out = tmp_path / "changed.cfg"
    save_config(cfg, out)
    again = load_config(out)
    assert again.noise.temperature == 4.0
    assert again.cavity == cfg.cavity


def _table_config(tmp_path):
    """A config loaded from tmp_path/c.cfg that names a noise table by a
    relative path."""
    (tmp_path / "stabilized.csv").write_text("10, 4e-1\n100, 4e-2\n1000, 4e-3\n")
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(PAPER_KEYS.format(m1_mg=5.0)
                        + "freq_noise_table_csv = stabilized.csv\n")
    return load_config(cfg_file)


def test_save_changed_table_config_keeps_its_table(tmp_path):
    """The SI form writes the table beside the config and names it, so a
    changed or moved table config loads back with its table."""
    cfg = _table_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    for name, changed in (
            ("cold", dataclasses.replace(cfg, noise=dataclasses.replace(
                cfg.noise, temperature=4.0))),
            ("detuned", cfg.with_detuning(12345.678))):
        save_config(changed, out / f"{name}.cfg")
        again = load_config(out / f"{name}.cfg")
        assert again.noise == changed.noise
        assert again.noise.freq_noise_table == cfg.noise.freq_noise_table


def test_save_table_config_into_another_directory(tmp_path):
    """The source text names its table relative to the source directory:
    it is kept where it loads back, and elsewhere the SI form is written."""
    cfg = _table_config(tmp_path)
    save_config(cfg, tmp_path / "same.cfg")
    assert "freq_noise_table_csv = stabilized.csv" in (
        tmp_path / "same.cfg").read_text()
    other = tmp_path / "other"
    other.mkdir()
    save_config(cfg, other / "moved.cfg")
    assert (other / "moved_noise_table.csv").is_file()
    for saved in (tmp_path / "same.cfg", other / "moved.cfg"):
        again = load_config(saved)
        assert again.noise == cfg.noise
        assert again.cavity == cfg.cavity


def test_programmatic_save_round_trip(tmp_path, experiment_config):
    cfg = experiment_config.with_detuning(12345.678)  # drops the raw text
    assert not cfg.raw_items
    out = tmp_path / "prog.cfg"
    save_config(cfg, out)
    again = load_config(out)
    assert again.cavity.detuning == pytest.approx(cfg.cavity.detuning, rel=1e-15, abs=0)
    assert again.mirror1 == cfg.mirror1


def _warmed(cfg):
    """``cfg`` one kelvin warmer: a change that makes save_config
    write the SI form."""
    return dataclasses.replace(cfg, noise=dataclasses.replace(
        cfg.noise, temperature=cfg.noise.temperature + 1.0))


@pytest.mark.parametrize("preset", ["experiment", "ideal"])
def test_preset_si_form_loads_back_equal(tmp_path, preset):
    cfg = _warmed(load_config(preset))
    save_config(cfg, tmp_path / "si.cfg")
    assert load_config(tmp_path / "si.cfg") == cfg


def test_si_form_keeps_geometric_pull_mode(tmp_path):
    (tmp_path / "geo.cfg").write_text(PAPER_KEYS.format(m1_mg=5.0)
                                      + "g_pull_mode = geometric\n")
    cfg = _warmed(load_config(tmp_path / "geo.cfg"))
    assert cfg.cavity.g_pull_mode == "geometric"
    save_config(cfg, tmp_path / "si.cfg")
    assert load_config(tmp_path / "si.cfg").cavity == cfg.cavity


def test_si_form_writes_numpy_scalars_as_numbers(tmp_path):
    cfg = load_config("experiment").with_detuning(np.float64(6e6))
    save_config(cfg, tmp_path / "np.cfg")
    assert load_config(tmp_path / "np.cfg") == cfg


@pytest.mark.parametrize("change, invariant", [
    (dict(label="run #3"), "label has no '#'"),
    (dict(label="run\n3"), "line break"),
    (dict(noise=NoiseEnv(temperature=math.inf)), "temperature_K finite"),
])
def test_save_rejects_config_that_loads_back_changed(tmp_path, change,
                                                     invariant):
    cfg = dataclasses.replace(load_config("experiment"), **change)
    with pytest.raises(ValidationError, match=invariant):
        save_config(cfg, tmp_path / "bad.cfg")
    assert not (tmp_path / "bad.cfg").exists()


_POSITIVE = st.floats(min_value=1e-3, max_value=1e6)
_NONNEGATIVE = st.floats(min_value=0.0, max_value=1e6)
_SIGNED = st.floats(min_value=-1e6, max_value=1e6)

# Every numeric key with at most one unit factor, in its file unit.
_SINGLE_FACTOR_KEYS = {
    "m1_mg": _POSITIVE, "f1_Hz": _POSITIVE, "gamma1_over_2pi_Hz": _POSITIVE,
    "m2_g": _POSITIVE, "f2_Hz": _POSITIVE, "gamma2_over_2pi_Hz": _POSITIVE,
    "round_trip_length_cm": _POSITIVE, "finesse": _POSITIVE,
    "kappa_over_2pi_Hz": _POSITIVE,
    "kappa_in_ratio": st.floats(min_value=0.0, max_value=1.0),
    "detuning_over_2pi_Hz": _SIGNED, "input_power_mW": _NONNEGATIVE,
    "n_cav_peak": _NONNEGATIVE,
    "cos_beta": st.floats(min_value=1e-3, max_value=1.0),
    "zeta1": _POSITIVE, "zeta2": _SIGNED,
    "g_pull_rad_per_s_per_m": st.floats(min_value=0.0, max_value=1e20),
    "gel_Ns_per_m": _NONNEGATIVE,
    "off_gain_Ns_per_m": st.one_of(st.just("auto"), _NONNEGATIVE),
    "switch_frequency_Hz": _POSITIVE,
    "actuation_coefficient_N_per_m_per_Hz": _SIGNED,
    "temperature_K": _NONNEGATIVE, "freq_noise_amp_Hz2_per_rtHz": _NONNEGATIVE,
    "eta_V_per_W": _SIGNED, "pressure_Pa": _SIGNED,
}


@pytest.mark.filterwarnings("ignore::optospring.errors.ConsistencyWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.fixed_dictionaries(_SINGLE_FACTOR_KEYS))
def test_si_form_round_trip_property(tmp_path_factory, values):
    """Every single-factor key survives the SI form bit-exactly.

    ``laser_freq_THz`` (fixed here) is left out: the loader applies its two
    factors in turn, 2*pi and then 1e12, and dividing back by 1e12 and then
    2*pi misses the file value for about 0.9% of values, which then load one
    ulp off (16% when dividing by 2*pi first).  One combined factor would
    change the loaded bits of existing config files.
    """
    tmp = tmp_path_factory.mktemp("cfg")
    text = "label = drawn\nlaser_freq_THz = 300.0\n" + "".join(
        f"{key} = {value if value == 'auto' else repr(value)}\n"
        for key, value in values.items())
    (tmp / "drawn.cfg").write_text(text)
    cfg = _warmed(load_config(tmp / "drawn.cfg"))
    save_config(cfg, tmp / "si.cfg")
    assert load_config(tmp / "si.cfg") == cfg


def test_readme_lists_the_loader_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Config files", 1)[1].split("\n## ", 1)[0]
    listed = {key for row in section.splitlines() if row.startswith("| `")
              for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
    assert listed == {row[0] for row in _NUMERIC_KEYS} | set(_TEXT_KEYS)


def test_preset_dir_env_lookup(tmp_path, monkeypatch):
    custom = tmp_path / "presets"
    custom.mkdir()
    (custom / "mine.cfg").write_text(PAPER_KEYS.format(m1_mg=7.5))
    monkeypatch.setenv("OPTOSPRING_PRESET_DIR", str(custom))
    cfg = load_config("mine")
    assert cfg.mirror1.mass == pytest.approx(7.5e-6)


def test_noise_model_one_over_f():
    env = NoiseEnv(temperature=300.0, freq_noise_amp=1.0e4)
    assert env.sqrt_sphidot(1.0e3) == pytest.approx(10.0)
    assert env.sphidot(1.0e3) == pytest.approx(100.0)
    with pytest.raises(ValidationError, match="frequency > 0"):
        env.sqrt_sphidot(0.0)


def test_noise_table_overrides_and_matches_model():
    env = NoiseEnv(temperature=300.0, freq_noise_amp=1.0e4)
    freqs = np.geomspace(1.0, 1e4, 9)
    table = tuple((float(f), float(env.sqrt_sphidot(f))) for f in freqs)
    tabulated = NoiseEnv(temperature=300.0, freq_noise_amp=1.0e4,
                         freq_noise_table=table)
    # model and generated table agree at every tabulated point
    for f, v in table:
        assert tabulated.sqrt_sphidot(f) == pytest.approx(v, rel=1e-12, abs=0)
    # and log-log interpolation stays on the 1/f law between points
    mids = np.sqrt(freqs[:-1] * freqs[1:])
    np.testing.assert_allclose(tabulated.sqrt_sphidot(mids),
                               env.sqrt_sphidot(mids), rtol=1e-10)


def test_noise_table_must_increase():
    with pytest.raises(ValidationError, match="strictly increasing"):
        NoiseEnv(freq_noise_table=((10.0, 1.0), (5.0, 2.0)))


def test_noise_table_loaded_from_csv(tmp_path):
    table = tmp_path / "stabilized.csv"
    table.write_text("# f_Hz, sqrt(S) in Hz/sqrt(Hz)\n"
                     "10, 4e-1\n100, 4e-2\n1000, 4e-3\n")
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(PAPER_KEYS.format(m1_mg=5.0)
                        + "freq_noise_table_csv = stabilized.csv\n")
    cfg = load_config(cfg_file)
    assert cfg.noise.freq_noise_table == ((10.0, 0.4), (100.0, 0.04),
                                          (1000.0, 0.004))
    assert cfg.noise.sqrt_sphidot(1000.0) == pytest.approx(4e-3, rel=1e-12, abs=0)


def test_mirror_invariants():
    with pytest.raises(ValidationError, match="omega0 > 0"):
        MirrorParams(mass=1.0, omega0=0.0, gamma0=1.0)
    with pytest.raises(ValidationError, match="gamma0 > 0"):
        MirrorParams(mass=1.0, omega0=1.0, gamma0=0.0)


def test_cavity_invariants():
    with pytest.raises(ValidationError, match="kappa_in_ratio"):
        CavityParams(length=1.0, finesse=100.0, kappa=1e6, kappa_in_ratio=1.5,
                     detuning=0.0, omega_laser=1e15)
    with pytest.raises(ValidationError, match="cos_beta"):
        CavityParams(length=1.0, finesse=100.0, kappa=1e6, kappa_in_ratio=0.5,
                     detuning=0.0, omega_laser=1e15, cos_beta=1.5)


def test_servo_invariants():
    with pytest.raises(ValidationError, match="switch_frequency > 0"):
        ServoParams(g_el=1.0, switch_frequency=0.0)
    with pytest.raises(ValidationError, match="off_gain >= 0"):
        ServoParams(g_el=1.0, off_gain=-2.0)
