"""Coherence condition and the oscillation-number budget."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from optospring.cli import main
from optospring.coherence import (DEFAULT_OMEGA_LASER, config_budget,
                                  feasibility_budget)
from optospring.dynamics import off_state_mode, predicted_rate
from optospring.errors import ValidationError
from optospring.model import HBAR, TWO_PI, load_config, resolve_config_path

REF = dict(m1=5e-6, omega_eff=TWO_PI * 1e3, noise_amp_at_omega_eff=4e-3,
           length=0.05, q1=5e7, omega1=TWO_PI * 1.0, temperature=300.0)


def _zero_point_coupling(g, m1, omega_eff):
    """g0 = g * sqrt(hbar / (2 m1 omega_eff)), written out."""
    return g * math.sqrt(HBAR / (2.0 * m1 * omega_eff))


# --------------------------------------------------------------------------
# single-photon coupling
# --------------------------------------------------------------------------

def test_coupling_scales_with_mass(experiment_config):
    w_eff = TWO_PI * 1e3
    g0 = config_budget(experiment_config, w_eff).g0
    heavy = dataclasses.replace(
        experiment_config,
        mirror1=dataclasses.replace(experiment_config.mirror1,
                                    mass=4.0 * experiment_config.mirror1.mass),
        raw_items=())
    assert config_budget(heavy, w_eff).g0 == pytest.approx(g0 / 2.0,
                                                            rel=1e-12, abs=0)


def test_coupling_is_pull_times_zero_point(experiment_config):
    """Dimensional oracle: g0 = g * sqrt(hbar / (2 m1 w_eff))."""
    w_eff = TWO_PI * 1e3
    oracle = _zero_point_coupling(experiment_config.cavity.g_pull,
                                  experiment_config.mirror1.mass, w_eff)
    assert config_budget(experiment_config, w_eff).g0 == pytest.approx(
        oracle, rel=1e-14, abs=0)


def test_coupling_vanishes_without_pull():
    """No pull, no coupling; with no noise either, the margin is the
    boundary value 1, which the strict condition does not pass."""
    budget = feasibility_budget(**{**REF, "g_pull": 0.0,
                                   "noise_amp_at_omega_eff": 0.0})
    assert budget.g0 == 0.0
    assert budget.condition_margin == 1.0 and not budget.satisfied


# --------------------------------------------------------------------------
# coherence condition
# --------------------------------------------------------------------------

def test_condition_trivially_met_without_noise():
    budget = feasibility_budget(**{**REF, "noise_amp_at_omega_eff": 0.0})
    assert budget.condition_margin == 0.0
    assert budget.satisfied


def test_condition_boundary_is_strict():
    """A margin of exactly 1 fails, and the amplitudes one ulp either side
    of S_phidot = g0^2/w_eff fall on either side of it."""
    assert not dataclasses.replace(feasibility_budget(**REF),
                                   condition_margin=1.0).satisfied
    g0 = feasibility_budget(**REF).g0
    amp = math.sqrt(g0**2 / REF["omega_eff"])
    below, above = (feasibility_budget(**{**REF, "noise_amp_at_omega_eff": a})
                    for a in (math.nextafter(amp, 0.0),
                              math.nextafter(amp, math.inf)))
    assert below.condition_margin == pytest.approx(1.0, rel=1e-15, abs=0)
    assert above.condition_margin == pytest.approx(1.0, rel=1e-15, abs=0)
    assert below.condition_margin < 1.0 < above.condition_margin
    assert below.satisfied and not above.satisfied


def test_condition_for_prospective_parameters():
    """Stabilized 4 mHz/sqrt(Hz) noise and a 1 kHz trap pass the condition;
    the margin is S_phidot * w_eff / g0^2, with g = DEFAULT_OMEGA_LASER/L."""
    budget = feasibility_budget(**REF)
    g0 = _zero_point_coupling(DEFAULT_OMEGA_LASER / REF["length"], REF["m1"],
                              REF["omega_eff"])
    assert budget.g0 == pytest.approx(g0, rel=1e-14, abs=0)
    margin = (4e-3) ** 2 * REF["omega_eff"] / g0**2
    assert budget.condition_margin == pytest.approx(margin, rel=1e-12, abs=0)
    assert budget.condition_margin < 1.0
    assert budget.satisfied


# --------------------------------------------------------------------------
# feasibility budget
# --------------------------------------------------------------------------

def test_budget_reference_point():
    budget = feasibility_budget(**REF)
    assert budget.inv_n_osc_thermal == pytest.approx(0.7855, abs=2e-4)
    assert budget.inv_n_osc_trap == pytest.approx(0.1324, abs=2e-4)
    assert budget.n_osc == pytest.approx(1.0894, abs=3e-4)
    # the condition margin is the trap share divided by pi
    assert budget.condition_margin == pytest.approx(
        budget.inv_n_osc_trap / math.pi, rel=1e-12, abs=0)


def test_budget_power_laws():
    base = feasibility_budget(**REF)
    doubled = feasibility_budget(**{**REF, "omega_eff": 2.0 * REF["omega_eff"]})
    assert doubled.inv_n_osc_thermal == pytest.approx(
        base.inv_n_osc_thermal / 4.0, rel=1e-12, abs=0)
    assert doubled.inv_n_osc_trap == pytest.approx(
        base.inv_n_osc_trap * 4.0, rel=1e-12, abs=0)
    heavier = feasibility_budget(**{**REF, "m1": 2.0 * REF["m1"]})
    assert heavier.inv_n_osc_trap == pytest.approx(
        base.inv_n_osc_trap * 2.0, rel=1e-12, abs=0)
    assert heavier.inv_n_osc_thermal == base.inv_n_osc_thermal
    longer = feasibility_budget(**{**REF, "length": 2.0 * REF["length"]})
    assert longer.inv_n_osc_trap == pytest.approx(
        base.inv_n_osc_trap * 4.0, rel=1e-12, abs=0)
    quieter = feasibility_budget(**{**REF, "noise_amp_at_omega_eff": 2e-3})
    assert quieter.inv_n_osc_trap == pytest.approx(
        base.inv_n_osc_trap / 4.0, rel=1e-12, abs=0)


def test_budget_single_term_reduction():
    budget = feasibility_budget(**{**REF, "noise_amp_at_omega_eff": 0.0})
    assert budget.inv_n_osc_trap == 0.0
    assert budget.n_osc == pytest.approx(1.0 / budget.inv_n_osc_thermal,
                                         rel=1e-12, abs=0)
    assert budget.n_osc == pytest.approx(1.25, abs=0.08)


@settings(max_examples=60, deadline=None)
@given(scale_s=st.floats(min_value=0.1, max_value=10.0),
       scale_w=st.floats(min_value=0.5, max_value=4.0))
def test_margin_monotonicity(scale_s, scale_w):
    base = feasibility_budget(**REF)
    noisier = feasibility_budget(**{
        **REF, "noise_amp_at_omega_eff": REF["noise_amp_at_omega_eff"] * scale_s})
    assert (noisier.condition_margin >= base.condition_margin) == (scale_s >= 1.0)
    faster = feasibility_budget(**{**REF, "omega_eff": REF["omega_eff"] * scale_w})
    assert (faster.condition_margin >= base.condition_margin) == (scale_w >= 1.0)


@pytest.mark.parametrize("field, value, invariant", [
    ("m1", 0.0, "m1 > 0"),
    ("q1", -1.0, "Q1 > 0"),
    ("m1", math.nan, "m1 > 0 and finite"),
    ("omega_eff", math.inf, "omega_eff > 0 and finite"),
    ("length", math.nan, "L > 0 and finite"),
    ("omega1", math.inf, "omega1 > 0 and finite"),
    ("temperature", math.nan, "T >= 0 and finite"),
    ("noise_amp_at_omega_eff", math.inf, "noise amp >= 0 and finite"),
    ("g_pull", math.nan, "g_pull finite"),
], ids=["m1-zero", "q1-negative", "m1-nan", "omega_eff-inf", "length-nan",
        "omega1-inf", "temperature-nan", "noise_amp-inf", "g_pull-nan"])
def test_budget_input_validation(field, value, invariant):
    with pytest.raises(ValidationError, match=invariant):
        feasibility_budget(**{**REF, field: value})


def test_budget_agrees_with_rate_law(experiment_config, tmp_path):
    """Cross-module consistency: for any operating point and frequency-pull
    setting, the budget that ``check --config`` reports equals
    2*pi*rate/omega_eff from the decoherence-rate law within 1%, term by
    term."""
    preset = resolve_config_path("experiment").read_text()
    cases = [(experiment_config.with_detuning(TWO_PI * delta_hz), None)
             for delta_hz in (3e5, 9.1e5, 1.4e6)]
    for name, line in (("geometric", "g_pull_mode = geometric"),
                       ("explicit", "g_pull_rad_per_s_per_m = 1.5e16")):
        path = tmp_path / f"{name}.cfg"
        path.write_text(preset + line + "\n")
        cases.append((load_config(path), path))
    for cfg, path in cases:
        mode = off_state_mode(cfg, cfg.noise)
        _, thermal, trap = predicted_rate(cfg, cfg.noise, mode)
        budget = config_budget(cfg, mode.omega_eff)
        if path is not None:
            json_out = tmp_path / "budget.json"
            assert main(["check", "--config", str(path),
                         "--json-out", str(json_out)]) == 0
            assert json.loads(json_out.read_text()) == json.loads(budget.to_json())
        scale = TWO_PI / mode.omega_eff
        assert budget.inv_n_osc_thermal == pytest.approx(scale * thermal, rel=1e-2, abs=0)
        assert budget.inv_n_osc_trap == pytest.approx(scale * trap, rel=1e-2, abs=0)
        g0 = _zero_point_coupling(cfg.cavity.g_pull, cfg.mirror1.mass,
                                  mode.omega_eff)
        margin = cfg.noise.sphidot(mode.omega_eff / TWO_PI) * mode.omega_eff / g0**2
        assert budget.g0 == pytest.approx(g0, rel=1e-14, abs=0)
        assert budget.condition_margin == pytest.approx(margin, rel=1e-12, abs=0)


def test_verdict_line_mentions_n_osc():
    line = feasibility_budget(**REF).verdict_line()
    assert "n_osc" in line and "achievable" in line
