"""Acceptance criteria for the toolkit, one test per criterion.

Each criterion runs at its stated tolerance and prints one pass/fail line
(collected into the pytest terminal summary, or shown live with -s).
"""

import contextlib
import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES

from optospring.coherence import feasibility_budget
from optospring.dynamics import (SimPlan, _ensemble_result, _protocol,
                                 _relaxation_phonons, off_state_mode,
                                 predicted_rate, reduced_model, run_ensemble,
                                 simulate_trajectory, write_ensemble_csv)
from optospring.model import HBAR, K_B, TWO_PI
from optospring.response import (adiabatic_spring, cancellation_gain,
                                 effective_susceptibility, extract_mode,
                                 stability_map, ComplexResponse)
from optospring.spectra import (Spectrum, build_frequency_grid,
                                displacement_to_voltage, mode_temperature,
                                thermal_spectrum, voltage_to_displacement,
                                welch_psd)


@contextlib.contextmanager
def criterion(number: int, title: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        line = f"ACCEPTANCE {number} ({title}): FAIL after {elapsed:.2f} s"
        print(line)
        ACCEPTANCE_LINES.append(line)
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, \
        f"criterion {number} took {elapsed:.2f} s, budget {budget_s} s"
    line = f"ACCEPTANCE {number} ({title}): PASS in {elapsed:.2f} s"
    print(line)
    ACCEPTANCE_LINES.append(line)


def test_acceptance_1_budget_coefficients():
    """Oscillation-number budget at the reference point: the bath share is
    0.80 +- 0.04 and the trap-noise share lies in [0.05, 0.15]."""
    with criterion(1, "budget coefficients 0.8 / 0.1", 1.0):
        budget = feasibility_budget(
            m1=5e-6, omega_eff=TWO_PI * 1e3, noise_amp_at_omega_eff=4e-3,
            length=0.05, q1=5e7, omega1=TWO_PI * 1.0, temperature=300.0)
        assert abs(budget.inv_n_osc_thermal - 0.80) <= 0.04, \
            f"thermal share {budget.inv_n_osc_thermal:.4f}"
        assert 0.05 <= budget.inv_n_osc_trap <= 0.15, \
            f"trap share {budget.inv_n_osc_trap:.4f}"


def test_acceptance_2_sixtyfold_reduction(experiment_config):
    """Detuning scan of the rate law: the best decoherence rate sits 30x to
    120x below the bare pendulum value and within 2x of 3.5e9 /s."""
    with criterion(2, "60-fold rate reduction", 10.0):
        cfg = experiment_config
        m1 = cfg.mirror1
        bare = K_B * 300.0 / (HBAR * m1.omega0) * m1.gamma0
        assert bare == pytest.approx(2.2e11, rel=0.10, abs=0), f"bare rate {bare:.3e}"
        kappa = cfg.cavity.kappa
        rates = []
        for delta in np.geomspace(kappa / 50.0, 3.0 * kappa, 121):
            mode = extract_mode(cfg.with_detuning(float(delta)), gel=0.0)
            total, _, _ = predicted_rate(cfg, cfg.noise, mode)
            rates.append(total)
        best = min(rates)
        assert 1.0 / 120.0 <= best / bare <= 1.0 / 30.0, \
            f"reduction 1/{bare / best:.1f}"
        assert 3.5e9 / 2.0 <= best <= 3.5e9 * 2.0, f"min rate {best:.3e}"


def test_acceptance_3_monte_carlo_rate(experiment_config):
    """100-trajectory rethermalization at the ~950 Hz operating point: the
    fitted initial slope agrees with the rate law within 15%.  By
    ``_exact_variance`` one segment's slope has SD 3.25e9 /s, and the exact
    rate sits 0.8% below the law's 2.876e9 /s; 100 x 10 s pools 1,000
    segments, so 15% is 4.0 sigma (100 x 1 s had it at 1.26 sigma)."""
    with criterion(3, "Monte Carlo vs rate law", 300.0):
        plan = SimPlan(duration=10.0, n_trajectories=100, master_seed=2718)
        result = run_ensemble(experiment_config, experiment_config.noise, plan)
        assert result.omega_ref / TWO_PI == pytest.approx(950.0, abs=5.0)
        mode = off_state_mode(experiment_config, experiment_config.noise)
        total, _, _ = predicted_rate(experiment_config, experiment_config.noise, mode)
        assert result.fitted_rate == pytest.approx(total, rel=0.15, abs=0), \
            f"slope {result.fitted_rate:.3e} vs predicted {total:.3e}"


def test_acceptance_4_equipartition(experiment_config):
    """Thermal spectrum of the (lossless) trapped mode integrates to
    kB*T/(m1*omega_eff^2) within 1% on the default grid."""
    with criterion(4, "equipartition integral", 1.0):
        m1, cav = experiment_config.mirror1, experiment_config.cavity
        k0, _ = adiabatic_spring(cav)
        w_eff = math.sqrt(m1.omega0**2 + cav.zeta1**2 * k0 / m1.mass)
        grid_hz = build_frequency_grid(peaks=((w_eff / TWO_PI, m1.gamma0),))
        w = grid_hz * TWO_PI
        chi = 1.0 / (m1.mass * (m1.omega0**2 - w**2 + 1j * m1.gamma0 * w)
                     + cav.zeta1**2 * k0)
        spectrum = thermal_spectrum(300.0, m1, ComplexResponse(grid=w, values=chi))
        got = spectrum.variance()
        want = K_B * 300.0 / (m1.mass * w_eff**2)
        assert got == pytest.approx(want, rel=0.01, abs=0), \
            f"variance off by {got / want - 1:+.2%}"


def test_acceptance_5_loop_algebra_oracle():
    """Closed-loop susceptibility equals the direct 3-signal linear solve
    over 100 random draws, relative error < 1e-10."""
    with criterion(5, "loop algebra vs linear solve", 1.0):
        rng = np.random.default_rng(11235)
        checked = 0
        for _ in range(100):
            chi1, chi2, k_opt, chi_fb = (
                complex(*rng.normal(size=2)) for _ in range(4))
            zeta1, zeta2 = rng.uniform(0.5, 2.5, size=2)
            denom = 1.0 + zeta1**2 * chi1 * k_opt + zeta2 * chi2 * chi_fb
            if abs(denom) < 1e-3:
                continue
            a = np.array([[1.0, 0.0, zeta1 * chi1 * k_opt],
                          [0.0, 1.0, chi2 * chi_fb],
                          [-zeta1, -zeta2, 1.0]], dtype=complex)
            b = np.array([chi1, 0.0, 0.0], dtype=complex)
            x1 = np.linalg.solve(a, b)[0]
            got = effective_susceptibility(chi1, chi2, k_opt, chi_fb,
                                           zeta1, zeta2)
            assert abs(got - x1) / abs(x1) < 1e-10
            checked += 1
        assert checked >= 95


def test_acceptance_6_map_boundaries(experiment_config, ideal_config):
    """Stability-map boundary behavior: intrinsic column at zero detuning,
    anti-damped row at zero gain, and the damping sign flip within one grid
    step of the nominal cancellation gain."""
    with criterion(6, "stability map boundaries", 10.0):
        # zero-detuning column reproduces the intrinsic mode to 0.1%
        m1 = ideal_config.mirror1
        smap = stability_map(ideal_config, [0.0], np.linspace(0.0, 4e-7, 5))
        np.testing.assert_allclose(smap.omega_eff[0], m1.omega0, rtol=1e-3)
        np.testing.assert_allclose(smap.gamma_eff[0], m1.gamma0, rtol=1e-3)
        assert smap.stable[0].all()

        # zero-gain row: every blue-detuned cell is anti-damped
        kappa = experiment_config.cavity.kappa
        deltas = np.linspace(0.1, 2.0, 8) * kappa
        row = stability_map(experiment_config, deltas, [0.0])
        assert row.converged.all()
        assert not row.stable.any()
        assert (row.gamma_eff < 0).all()

        # cancellation crossing at Delta = kappa within one gain step
        cfg = experiment_config.with_detuning(kappa)
        k0, _ = adiabatic_spring(cfg.cavity)
        w_trap = math.sqrt(experiment_config.mirror1.omega0**2
                           + cfg.cavity.zeta1**2 * k0 / experiment_config.mirror1.mass)
        g_c = cancellation_gain(cfg, w_trap)
        gels = np.linspace(0.0, 2.0 * g_c, 21)  # step = 0.1 g_c
        col = stability_map(cfg, [kappa], gels)
        signs = np.sign(col.gamma_eff[0])
        flips = np.nonzero(np.diff(signs) > 0)[0]
        assert flips.size == 1, "expected a single damping sign change"
        step = gels[1] - gels[0]
        g_low, g_high = gels[flips[0]], gels[flips[0] + 1]
        assert g_low - step <= g_c <= g_high + step, \
            f"crossing [{g_low:.3g}, {g_high:.3g}] vs nominal {g_c:.3g}"


def test_acceptance_7_calibration_identity(experiment_config):
    """Displacement -> voltage -> displacement is the identity to 1e-12."""
    with criterion(7, "calibration round trip", 1.0):
        grid = np.geomspace(1.0, 1e4, 400)
        rng = np.random.default_rng(3)
        s = Spectrum(grid=grid, values=rng.uniform(0.1, 10.0, grid.size) * 1e-26,
                     kind="displacement")
        w_eff = TWO_PI * 662.0
        back = voltage_to_displacement(
            displacement_to_voltage(s, experiment_config, w_eff),
            experiment_config, w_eff)
        worst = np.max(np.abs(back.values / s.values - 1.0))
        assert worst < 1e-12, f"round-trip error {worst:.2e}"


def test_acceptance_8_temperature_pipeline(experiment_config, thermal_only_noise):
    """Simulated cooled trajectory -> Welch -> band-integrated mode
    temperature agrees with the analytic cold value within 10%."""
    with criterion(8, "simulated mode temperature", 120.0):
        gel = 56.0
        servo = dataclasses.replace(experiment_config.servo, g_el=gel, off_gain=gel)
        cfg = dataclasses.replace(experiment_config, servo=servo, raw_items=())
        plan = SimPlan(duration=2.0, n_trajectories=1, master_seed=5,
                       record_stride=1)
        t, x, v, n = simulate_trajectory(cfg, thermal_only_noise, plan, 0)
        spec = welch_psd(x, float(t[1] - t[0]), segment_length=8192)
        mode = extract_mode(cfg, gel=gel)
        got = mode_temperature(spec, mode.omega_eff, mode.gamma_eff,
                               cfg.mirror1)
        model = reduced_model(cfg, thermal_only_noise)
        want = 300.0 * cfg.mirror1.gamma0 / model.gamma_on
        assert got.t_eff == pytest.approx(want, rel=0.10, abs=0), \
            f"T_eff {got.t_eff * 1e3:.1f} mK vs analytic {want * 1e3:.1f} mK"


def test_acceptance_9_determinism(experiment_config, tmp_path):
    """Fixed seed gives byte-identical ensemble CSV for one batch of all
    trajectories and for three interleaved sub-batches."""
    with criterion(9, "seeded determinism across batch splits", 60.0):
        noise = experiment_config.noise
        plan = SimPlan(duration=1.0, n_trajectories=12, master_seed=1234)
        indices = list(range(plan.n_trajectories))
        one = tmp_path / "one.csv"
        write_ensemble_csv(one, run_ensemble(experiment_config, noise, plan),
                           comment="determinism check")
        protocol = _protocol(experiment_config, noise, plan)
        n_off = None
        for i in range(3):
            part = indices[i::3]
            part_n = _relaxation_phonons(protocol, plan.master_seed, part)
            if n_off is None:
                n_off = np.empty((len(indices),) + part_n.shape[1:])
            n_off[part] = part_n
        split = tmp_path / "split.csv"
        write_ensemble_csv(split, _ensemble_result(protocol.time_grid, n_off,
                                                   protocol.model.omega_ref),
                           comment="determinism check")
        assert one.read_bytes() == split.read_bytes()
        # and a repeated run reproduces the same bytes
        again = tmp_path / "again.csv"
        write_ensemble_csv(again, run_ensemble(experiment_config, noise, plan),
                           comment="determinism check")
        assert again.read_bytes() == one.read_bytes()
