"""Closed-loop response: susceptibilities, spring, servo, poles, maps."""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from optospring import response
from optospring.errors import (AmbiguousBranchWarning, NoConvergenceError,
                               SingularResponseError, ValidationError)
from optospring.model import (HBAR, TWO_PI, FilterSection, MirrorParams,
                              ServoParams, intracavity_photons)
from optospring.cli import _auto_delta_range, _auto_gel_range
from optospring.response import (ComplexResponse, _characteristic_exact,
                                 _characteristic_roots, _loop, _spring_numerator,
                                 adiabatic_spring, cancellation_gain,
                                 closed_loop_response,
                                 effective_susceptibility, extract_mode,
                                 mech_susceptibility, open_loop_gain,
                                 optical_spring, servo_response, stability_map)


# --------------------------------------------------------------------------
# bare susceptibility
# --------------------------------------------------------------------------

def test_dc_compliance(experiment_config):
    m1 = experiment_config.mirror1
    chi = mech_susceptibility(m1, 0.0)
    assert chi.imag == 0.0
    assert chi.real == pytest.approx(1.0 / (m1.mass * m1.omega0**2), rel=1e-12, abs=0)
    assert chi.real == pytest.approx(1.106e3, rel=1e-3, abs=0)


def test_resonance_phase(experiment_config):
    m1 = experiment_config.mirror1
    chi = mech_susceptibility(m1, m1.omega0)
    assert chi.real == pytest.approx(0.0, abs=1e-18)
    q1 = m1.quality_factor
    assert abs(chi) == pytest.approx(q1 / (m1.mass * m1.omega0**2), rel=1e-12, abs=0)


def test_susceptibility_against_driven_ode():
    """Steady-state amplitude/phase of the time-domain equation of motion.

    Oracle: integrate m*xdd + m*g*xd + m*w0^2*x = F0*cos(w t) to steady
    state and demodulate; must match |chi| and arg(chi) to 0.1%.
    """
    mirror = MirrorParams(mass=2.7e-6, omega0=TWO_PI * 3.1, gamma0=TWO_PI * 0.35)
    f0 = 1e-9
    for w_drive in (0.6 * mirror.omega0, 1.0 * mirror.omega0, 1.7 * mirror.omega0):
        def rhs(t, y):
            x, v = y
            acc = (f0 * math.cos(w_drive * t) / mirror.mass
                   - mirror.gamma0 * v - mirror.omega0**2 * x)
            return [v, acc]

        t_settle = 30.0 / mirror.gamma0
        periods = 40
        t_end = t_settle + periods * TWO_PI / w_drive
        t_eval = np.linspace(t_settle, t_end, 8001)
        sol = solve_ivp(rhs, (0.0, t_end), [0.0, 0.0], t_eval=t_eval,
                        method="DOP853", rtol=1e-11, atol=1e-17)
        x = sol.y[0]
        # with the exp(+iwt) convention, x(t) = Re[chi*F0*exp(iwt)], so
        # demodulating over whole periods gives chi = 2<x exp(-iwt)>/F0
        span = sol.t[-1] - sol.t[0]
        chi_measured = 2.0 * np.trapezoid(
            x * np.exp(-1j * w_drive * sol.t), sol.t) / span / f0
        chi = mech_susceptibility(mirror, w_drive)
        assert abs(chi_measured) == pytest.approx(abs(chi), rel=1e-3, abs=0)
        dphase = cmath.phase(chi_measured / chi)
        assert abs(dphase) < 1e-3


# --------------------------------------------------------------------------
# optical spring
# --------------------------------------------------------------------------

def test_spring_vanishes_on_resonance(ideal_config):
    cav = dataclasses.replace(ideal_config.cavity, detuning=0.0)
    assert optical_spring(cav, TWO_PI * 100.0) == 0.0


def test_spring_dc_value_at_delta_kappa(ideal_config):
    cav = dataclasses.replace(ideal_config.cavity, detuning=ideal_config.cavity.kappa)
    # analytic substitution: k(0) = hbar g^2 n_cav(kappa) / kappa, real
    n_cav = intracavity_photons(cav)
    expected = HBAR * cav.g_pull**2 * n_cav / cav.kappa
    k = optical_spring(cav, 0.0)
    assert k.imag == 0.0
    assert k.real == pytest.approx(expected, rel=1e-12, abs=0)


def test_spring_against_direct_complex_arithmetic(ideal_config):
    """Independent cmath evaluation of the spring formula."""
    cav = dataclasses.replace(ideal_config.cavity,
                              detuning=ideal_config.cavity.kappa / 2.0)
    w = TWO_PI * 1.0e3
    n_cav = 8.5e5 / (1.0 + 0.25)
    oracle = (2.0 * HBAR * cav.g_pull**2 * n_cav * cav.detuning
              / ((cav.kappa + 1j * w) ** 2 + cav.detuning**2))
    assert optical_spring(cav, w) == pytest.approx(oracle, rel=1e-12, abs=0)


def test_spring_signs(experiment_config):
    cav = experiment_config.cavity
    for x in (0.2, 0.7, 1.5):
        blue = dataclasses.replace(cav, detuning=x * cav.kappa)
        red = dataclasses.replace(cav, detuning=-x * cav.kappa)
        k_blue = optical_spring(blue, TWO_PI * 500.0)
        assert optical_spring(blue, 0.0).real > 0
        assert optical_spring(red, 0.0).real < 0
        assert k_blue.imag < 0  # anti-damping on the blue side


def test_adiabatic_expansion_matches_full_spring(experiment_config):
    cav = experiment_config.cavity
    k0, c1 = adiabatic_spring(cav)
    w = TWO_PI * 950.0
    approx = k0 * (1.0 - 1j * c1 * w)
    assert optical_spring(cav, w) == pytest.approx(approx, rel=2e-6, abs=0)


# --------------------------------------------------------------------------
# servo response
# --------------------------------------------------------------------------

def test_differentiator():
    servo = ServoParams(g_el=2.0)
    assert servo_response(servo, 0.0) == 0.0
    assert servo_response(servo, 3.0) == pytest.approx(6j)


def test_highpass_section_sweep():
    w_c = TWO_PI * 40.0
    servo = ServoParams(g_el=2.0, sections=(FilterSection("highpass", w_c),))
    w = TWO_PI * np.geomspace(1.0, 1e4, 50)
    got = servo_response(servo, w)
    oracle = 1j * w * 2.0 * (1j * w / w_c) / (1.0 + 1j * w / w_c)
    np.testing.assert_allclose(got, oracle, rtol=1e-12)


# --------------------------------------------------------------------------
# closed-loop algebra (signal-flow oracle)
# --------------------------------------------------------------------------

def _signal_flow_solve(chi1, chi2, k_opt, chi_fb, zeta1, zeta2):
    """Direct solve of the three-signal loop: unknowns (x1, x2, dl) under a
    unit force on the light mirror."""
    a = np.array([
        [1.0, 0.0, zeta1 * chi1 * k_opt],
        [0.0, 1.0, chi2 * chi_fb],
        [-zeta1, -zeta2, 1.0],
    ], dtype=complex)
    b = np.array([chi1, 0.0, 0.0], dtype=complex)
    x1, _, _ = np.linalg.solve(a, b)
    return x1


def test_open_loop_reduces_to_chi1():
    assert effective_susceptibility(3 + 4j, 1 - 2j, 0.0, 0.0, 1.56, 1.0) \
        == pytest.approx(3 + 4j)


def test_spring_only_reduction():
    chi1, k = 3 + 4j, 0.2 - 0.1j
    z1 = 1.56
    expected = chi1 / (1.0 + z1**2 * chi1 * k)
    assert effective_susceptibility(chi1, 9 - 1j, k, 0.0, z1, 1.0) \
        == pytest.approx(expected, rel=1e-14, abs=0)


def test_matches_signal_flow_solve():
    """Acceptance-grade oracle: 100 random draws, relative error < 1e-10."""
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        chi1, chi2, k_opt, chi_fb = (complex(*rng.normal(size=2)) for _ in range(4))
        zeta1, zeta2 = rng.uniform(0.5, 2.5, size=2)
        denom = 1.0 + zeta1**2 * chi1 * k_opt + zeta2 * chi2 * chi_fb
        if abs(denom) < 1e-3:
            continue
        got = effective_susceptibility(chi1, chi2, k_opt, chi_fb, zeta1, zeta2)
        want = _signal_flow_solve(chi1, chi2, k_opt, chi_fb, zeta1, zeta2)
        worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-10


_component = st.floats(min_value=-10.0, max_value=10.0,
                       allow_nan=False, allow_infinity=False)


@settings(max_examples=120, deadline=None)
@given(re1=_component, im1=_component, re2=_component, im2=_component,
       rek=_component, imk=_component, ref=_component, imf=_component,
       zeta1=st.floats(min_value=0.2, max_value=3.0),
       zeta2=st.floats(min_value=0.2, max_value=3.0))
def test_signal_flow_property(re1, im1, re2, im2, rek, imk, ref, imf,
                              zeta1, zeta2):
    chi1 = complex(re1, im1)
    chi2 = complex(re2, im2)
    k_opt = complex(rek, imk)
    chi_fb = complex(ref, imf)
    denom = 1.0 + zeta1**2 * chi1 * k_opt + zeta2 * chi2 * chi_fb
    assume(abs(denom) > 1e-3)
    want = _signal_flow_solve(chi1, chi2, k_opt, chi_fb, zeta1, zeta2)
    assume(abs(want) > 1e-12)
    got = effective_susceptibility(chi1, chi2, k_opt, chi_fb, zeta1, zeta2)
    assert abs(got - want) <= 1e-9 * abs(want) + 1e-15


def test_singular_denominator_reports_omega():
    chi1 = 1.0 + 0.0j
    with pytest.raises(SingularResponseError, match="omega"):
        effective_susceptibility(chi1, 0.0, -1.0, 0.0, 1.0, 1.0, omega=np.array([2.5]))


def test_reality_of_impulse_response(experiment_config):
    w = TWO_PI * np.geomspace(0.5, 5e3, 31)
    pos = closed_loop_response(experiment_config, w).values
    neg = closed_loop_response(experiment_config, -w[::-1]).values[::-1]
    np.testing.assert_allclose(neg, np.conj(pos), rtol=1e-12)


# --------------------------------------------------------------------------
# open-loop gain
# --------------------------------------------------------------------------

def test_open_loop_zero_without_feedback(experiment_config):
    cfg = experiment_config.with_gain(0.0)
    assert open_loop_gain(cfg, TWO_PI * 100.0) == 0.0


def test_open_loop_carries_zeta2(experiment_config):
    """Substitution check: with the spring off, the loop gain is exactly
    zeta2 * chi2 * chi_fb, so it scales linearly with zeta2."""
    w = TWO_PI * 137.0
    cfg = experiment_config.with_detuning(0.0)
    expected = cfg.cavity.zeta2 * mech_susceptibility(cfg.mirror2, w) \
        * servo_response(cfg.servo, w)
    assert open_loop_gain(cfg, w) == pytest.approx(expected, rel=1e-14, abs=0)
    doubled = dataclasses.replace(
        cfg, cavity=dataclasses.replace(cfg.cavity, zeta2=2.0), raw_items=())
    assert open_loop_gain(doubled, w) == pytest.approx(2.0 * expected, rel=1e-14, abs=0)


def test_open_loop_gain_carries_the_spring_factor(experiment_config):
    """On the detuned preset the loop gain is
    zeta2*chi2*chi_fb / (1 + zeta1^2*chi1*k_opt), the spring factor written
    out from the bare pieces."""
    w = TWO_PI * np.geomspace(5.0, 5e3, 64)
    cav = experiment_config.cavity
    assert cav.detuning != 0.0
    spring = 1.0 + cav.zeta1**2 * mech_susceptibility(
        experiment_config.mirror1, w) * optical_spring(cav, w)
    expected = cav.zeta2 * mech_susceptibility(experiment_config.mirror2, w) \
        * servo_response(experiment_config.servo, w) / spring
    np.testing.assert_allclose(open_loop_gain(experiment_config, w), expected,
                               rtol=1e-12)


# --------------------------------------------------------------------------
# pole extraction
# --------------------------------------------------------------------------

def test_bare_pendulum_mode(experiment_config):
    cfg = experiment_config.with_detuning(0.0)
    mode = extract_mode(cfg, gel=0.0)
    m1 = experiment_config.mirror1
    assert mode.omega_eff == pytest.approx(m1.omega0, rel=1e-4, abs=0)
    assert mode.gamma_eff == pytest.approx(m1.gamma0, rel=1e-9, abs=0)
    assert mode.stable
    assert mode.pole.real == pytest.approx(-m1.gamma0 / 2.0, rel=1e-9, abs=0)


def test_stiff_spring_quadratic_oracle(experiment_config):
    """Without the servo the light mirror decouples into a quadratic whose
    frequency is sqrt(w1^2 + z1^2*k0/m1); the blue-detuned trap anti-damps."""
    cfg = experiment_config
    m1, cav = cfg.mirror1, cfg.cavity
    k0, c1 = adiabatic_spring(cav)
    expected_w = math.sqrt(m1.omega0**2 + cav.zeta1**2 * k0 / m1.mass)
    expected_g = m1.gamma0 - cav.zeta1**2 * k0 * c1 / m1.mass
    mode = extract_mode(cfg, gel=0.0)
    assert mode.omega_eff == pytest.approx(expected_w, rel=1e-3, abs=0)
    assert mode.gamma_eff == pytest.approx(expected_g, rel=1e-3, abs=0)
    assert mode.gamma_eff < 0 and not mode.stable


def test_trap_frequency_sweep_low_power(experiment_config):
    """At the calibration drive (0.82 mW) the trap frequency climbs into the
    hundreds-of-Hz range, peaks at intermediate detuning, then falls."""
    cav = dataclasses.replace(experiment_config.cavity, input_power=0.82e-3)
    cfg = dataclasses.replace(experiment_config, cavity=cav, raw_items=())
    detunings = np.linspace(0.05, 3.0, 25) * cav.kappa
    freqs = []
    for d in detunings:
        mode = extract_mode(cfg.with_detuning(float(d)), gel=0.0)
        freqs.append(mode.omega_eff / TWO_PI)
    freqs = np.array(freqs)
    peak = int(np.argmax(freqs))
    assert 0 < peak < freqs.size - 1          # interior maximum
    assert 100.0 < freqs[peak] < 400.0        # 10^2-Hz scale
    assert freqs[peak] > 50.0 * experiment_config.mirror1.omega0 / TWO_PI
    # rising branch then falling branch
    assert np.all(np.diff(freqs[:peak]) > 0)
    assert np.all(np.diff(freqs[peak:]) < 0)


def test_ambiguous_branch_warns_on_degenerate_pendulums(ideal_config):
    with pytest.warns(AmbiguousBranchWarning):
        mode = extract_mode(ideal_config.with_detuning(0.0), gel=0.0)
    # the high-Q mirror wins the tie-break
    assert mode.gamma_eff == pytest.approx(ideal_config.mirror1.gamma0, rel=1e-6, abs=0)


def test_sectioned_servo_shapes_the_pole(experiment_config):
    """A lowpass in the servo chain reduces the loop's damping by the real
    part of the section response at the trapped frequency; the polished
    pole must follow (the quartic seed knows only the differentiator)."""
    cfg = experiment_config
    m1, m2, cav = cfg.mirror1, cfg.mirror2, cfg.cavity
    section = FilterSection("lowpass", TWO_PI * 2e3)
    servo = dataclasses.replace(cfg.servo, g_el=10.0, sections=(section,))
    cfg = dataclasses.replace(cfg, servo=servo, raw_items=())
    k0, c1 = adiabatic_spring(cav)
    w_eff = math.sqrt(m1.omega0**2 + cav.zeta1**2 * k0 / m1.mass)
    gamma_opt = cav.zeta1**2 * k0 * c1 / m1.mass
    expected = (m1.gamma0 - gamma_opt
                + cav.zeta2 * 10.0 / m2.mass * section.response(w_eff).real)
    mode = extract_mode(cfg)
    assert mode.gamma_eff == pytest.approx(expected, rel=0.02, abs=0)
    plain = extract_mode(dataclasses.replace(
        cfg, servo=dataclasses.replace(servo, sections=()), raw_items=()))
    assert mode.gamma_eff < plain.gamma_eff  # the lowpass weakens the damping


def test_pole_solver_and_response_share_one_characteristic(experiment_config,
                                                           ideal_config):
    """The polish target is m1*m2*X1*X2 times the closed-loop denominator
    that the response builds from its loop terms, at real frequencies."""
    sections = (FilterSection("highpass", TWO_PI * 40.0),
                FilterSection("lowpass", TWO_PI * 2e3))
    ideal = ideal_config.with_detuning(ideal_config.cavity.kappa)
    configs = [experiment_config, ideal.with_gain(5e-7)]
    configs += [dataclasses.replace(cfg, servo=dataclasses.replace(
        cfg.servo, sections=sections), raw_items=()) for cfg in configs]
    w = TWO_PI * np.geomspace(0.3, 3e4, 23)
    for cfg in configs:
        m1, m2, cav = cfg.mirror1, cfg.mirror2, cfg.cavity
        chi1, chi2, k_opt, chi_fb = _loop(cfg, w)
        denom = 1.0 + cav.zeta1**2 * chi1 * k_opt + cav.zeta2 * chi2 * chi_fb
        x1 = 1.0 / (m1.mass * chi1)
        x2 = 1.0 / (m2.mass * chi2)
        want = m1.mass * m2.mass * x1 * x2 * denom
        got = _characteristic_exact(cfg, cav.detuning, _spring_numerator(cav),
                                    cfg.servo.g_el, w.astype(complex))
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_mode_continuity_in_detuning(experiment_config):
    kappa = experiment_config.cavity.kappa
    deltas = np.arange(0.4, 0.6, 0.01) * kappa  # steps of kappa/100
    freqs = [extract_mode(experiment_config.with_detuning(float(d)), gel=0.0).omega_eff
             for d in deltas]
    rel_steps = np.abs(np.diff(freqs)) / np.array(freqs[:-1])
    assert np.all(rel_steps < 0.05)


# --------------------------------------------------------------------------
# anti-damping cancellation
# --------------------------------------------------------------------------

def test_cancellation_gain_formula(ideal_config):
    assert cancellation_gain(ideal_config, 0.0) == 0.0
    g = cancellation_gain(ideal_config, TWO_PI * 1e3)
    # m2 * w^2 / kappa = 0.1 * (2 pi 1e3)^2 / (2 pi 2e6) = pi/10
    assert g == pytest.approx(0.1 * (TWO_PI * 1e3) ** 2
                              / ideal_config.cavity.kappa, rel=1e-15, abs=0)
    assert g == pytest.approx(math.pi / 10.0, rel=1e-12, abs=0)


def test_cancellation_marginality_and_sign_flip(experiment_config):
    """Pole-tracking oracle at Delta = kappa, where the nominal gain is the
    true crossing up to the intrinsic-loss offset."""
    cfg = experiment_config.with_detuning(experiment_config.cavity.kappa)
    mode0 = extract_mode(cfg, gel=0.0)
    assert mode0.gamma_eff < 0
    g_c = cancellation_gain(cfg, math.sqrt(
        cfg.mirror1.omega0**2 + cfg.cavity.zeta1**2
        * adiabatic_spring(cfg.cavity)[0] / cfg.mirror1.mass))
    gamma_at = extract_mode(cfg, gel=g_c).gamma_eff
    gamma1 = cfg.mirror1.gamma0
    assert abs(gamma_at) < 2.0 * gamma1          # marginal on the gamma1 scale
    assert abs(gamma_at) < 0.02 * abs(mode0.gamma_eff)
    assert extract_mode(cfg, gel=0.9 * g_c).gamma_eff < 0
    assert extract_mode(cfg, gel=1.1 * g_c).gamma_eff > 0
    # pole-tracked crossing sits within about 1% of the nominal gain
    g_flip = brentq(lambda g: extract_mode(cfg, gel=float(g)).gamma_eff,
                    0.5 * g_c, 1.5 * g_c, xtol=1e-6 * g_c)
    assert abs(g_flip - g_c) / g_c < 0.02


# --------------------------------------------------------------------------
# stability map
# --------------------------------------------------------------------------

def test_map_zero_detuning_column_is_intrinsic(ideal_config):
    gels = np.array([0.0, 1e-7, 4e-7])
    smap = stability_map(ideal_config, [0.0], gels)
    m1 = ideal_config.mirror1
    np.testing.assert_allclose(smap.omega_eff[0], m1.omega0, rtol=1e-3)
    np.testing.assert_allclose(smap.gamma_eff[0], m1.gamma0, rtol=1e-3)
    assert smap.stable[0].all()


def test_map_zero_gain_row_antidamped(experiment_config):
    kappa = experiment_config.cavity.kappa
    deltas = np.linspace(0.1, 2.0, 8) * kappa
    smap = stability_map(experiment_config, deltas, [0.0])
    m1, cav = experiment_config.mirror1, experiment_config.cavity
    assert smap.converged.all()
    assert not smap.stable.any()
    for i, d in enumerate(deltas):
        k0, c1 = adiabatic_spring(dataclasses.replace(cav, detuning=float(d)))
        gamma_opt = cav.zeta1**2 * k0 * c1 / m1.mass
        assert smap.gamma_eff[i, 0] <= m1.gamma0 - 0.99 * gamma_opt


def test_single_cell_map_matches_extract_mode(ideal_config):
    delta = 0.5 * ideal_config.cavity.kappa
    smap = stability_map(ideal_config, [delta], [2e-7])
    mode = extract_mode(ideal_config.with_detuning(delta), gel=2e-7)
    assert smap.omega_eff[0, 0] == mode.omega_eff
    assert smap.gamma_eff[0, 0] == mode.gamma_eff
    assert bool(smap.stable[0, 0]) == mode.stable


def _np_roots_per_cell(config, gel):
    """The quartic's roots from np.roots on per-cell polymul/polyadd
    coefficients, the construction the batched solver replaces."""
    m1, m2, cav = config.mirror1, config.mirror2, config.cavity
    k0, c1 = adiabatic_spring(cav)
    x1 = np.array([-1.0, 1j * m1.gamma0, m1.omega0**2])
    x2 = np.array([-1.0, 1j * m2.gamma0, m2.omega0**2])
    poly = m1.mass * m2.mass * np.polymul(x1, x2)
    spring = cav.zeta1**2 * k0 * m2.mass * np.polymul([-1j * c1, 1.0], x2)
    servo = gel * cav.zeta2 * m1.mass * np.polymul([1j, 0.0], x1)
    return np.roots(np.polyadd(poly, np.polyadd(spring, servo)))


def _assert_roots_bitwise(config, deltas, gels):
    roots = _characteristic_roots(
        config, [config.with_detuning(float(d)) for d in deltas], gels)
    assert roots.shape == (len(deltas), len(gels), 4)
    for i, d in enumerate(deltas):
        cfg = config.with_detuning(float(d))
        for j, g in enumerate(gels):
            np.testing.assert_array_equal(roots[i, j],
                                          _np_roots_per_cell(cfg, float(g)))


def test_batched_roots_equal_np_roots_bitwise(experiment_config, ideal_config):
    """One batched eigvals on the companion matrices gives each cell's
    np.roots result bit for bit (array_equal, no tolerance)."""
    for cfg in (experiment_config, ideal_config):
        kappa = cfg.cavity.kappa
        _assert_roots_bitwise(cfg, [cfg.cavity.detuning], [cfg.servo.g_el])
        _assert_roots_bitwise(cfg, [0.0, 0.5 * kappa], [0.0, cfg.servo.g_el])
    bench_deltas = TWO_PI * np.linspace(0.0, 1.7e6, 120)
    bench_gels = np.linspace(0.0, 1.5, 100)
    _assert_roots_bitwise(experiment_config, bench_deltas[40:47], bench_gels[60:65])
    rng = np.random.default_rng(20240607)
    for cfg in (experiment_config, ideal_config):
        g_max = 2.0 * _auto_gel_range(cfg)[1]  # twice the auto range's stop
        for _ in range(25):
            _assert_roots_bitwise(cfg, [rng.uniform(0.0, 3.0 * cfg.cavity.kappa)],
                                  [rng.uniform(0.0, g_max)])


def _warned_cells(config, deltas, gels):
    warned = np.zeros((len(deltas), len(gels)), dtype=bool)
    for i, d in enumerate(deltas):
        for j, g in enumerate(gels):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                extract_mode(config.with_detuning(float(d)), gel=float(g))
            warned[i, j] = any(issubclass(w.category, AmbiguousBranchWarning)
                               for w in caught)
    return warned


def test_map_ambiguous_cells_match_extract_mode_warnings(experiment_config,
                                                         ideal_config):
    """``ambiguous`` flags exactly the cells where extract_mode warns: ties
    of two candidates (the ideal preset's auto grid) and polish steps over
    1% (a gain section the quartic seed does not know)."""
    deltas = TWO_PI * np.linspace(*_auto_delta_range(ideal_config))
    gels = np.linspace(*_auto_gel_range(ideal_config))
    smap = stability_map(ideal_config, deltas, gels)
    np.testing.assert_array_equal(smap.ambiguous,
                                  _warned_cells(ideal_config, deltas, gels))
    assert smap.converged.all()
    assert int(smap.ambiguous.sum()) == 9
    cfg = dataclasses.replace(experiment_config, servo=dataclasses.replace(
        experiment_config.servo, sections=(FilterSection("gain", 10.0),)),
        raw_items=())
    deltas = np.linspace(0.1, 3.0, 6) * cfg.cavity.kappa
    gels = np.linspace(0.0, 1.5, 8)
    smap = stability_map(cfg, deltas, gels)
    warned = _warned_cells(cfg, deltas, gels)
    np.testing.assert_array_equal(smap.ambiguous, warned)
    assert 0 < warned.sum() < warned.size


def test_unconverged_row_is_flagged_and_isolated(monkeypatch, experiment_config):
    """A detuning where the polish fails leaves NaN, unconverged, unstable
    cells in its row and every other cell bit for bit as it was;
    extract_mode there raises NoConvergenceError naming the reason."""
    deltas = TWO_PI * np.linspace(0.0, 1.7e6, 6)
    gels = np.linspace(0.0, 1.5, 5)
    want = stability_map(experiment_config, deltas, gels)
    exact = response._characteristic_exact
    monkeypatch.setattr(  # NaN at one detuning
        response, "_characteristic_exact",
        lambda config, cell_deltas, *rest: np.where(
            np.asarray(cell_deltas) == deltas[3], np.nan,
            exact(config, cell_deltas, *rest)))
    got = stability_map(experiment_config, deltas, gels)
    others = np.arange(deltas.size) != 3
    assert not got.converged[3].any() and got.converged[others].all()
    assert not got.stable[3].any()
    assert np.isnan(got.omega_eff[3]).all() and np.isnan(got.gamma_eff[3]).all()
    for name in ("omega_eff", "gamma_eff", "stable", "converged", "ambiguous"):
        np.testing.assert_array_equal(getattr(got, name)[others],
                                      getattr(want, name)[others])
    with pytest.raises(NoConvergenceError, match="pole polishing diverged"):
        extract_mode(experiment_config.with_detuning(float(deltas[3])))


_MAP_FIELDS = ("omega_eff", "gamma_eff", "stable", "converged", "ambiguous")


@pytest.mark.parametrize("shape", [(1, 1), (3000, 1), (7, 3000), (120, 100)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_map_blocks_equal_whole_grid(experiment_config, shape):
    """stability_map solves MAP_BLOCK cells of whole detuning rows at a
    time (one row where a row is larger: 7 x 3000); every cell's roots,
    pick and polish are its own, so the map equals _trapped_poles on the
    whole grid in one batch, bit for bit."""
    deltas = TWO_PI * np.linspace(0.0, 1.7e6, shape[0])
    gels = np.linspace(0.0, 1.5, shape[1])
    stable, tie, _, _, root, failure, moved = response._trapped_poles(
        experiment_config, deltas, gels)
    ok = failure == ""
    want = (np.where(ok, np.abs(root.real), np.nan),
            np.where(ok, 2.0 * root.imag, np.nan), ok & stable, ok, tie | moved)
    got = stability_map(experiment_config, deltas, gels)
    for name, ref in zip(_MAP_FIELDS, want):
        value = getattr(got, name)
        assert value.shape == shape and value.dtype == ref.dtype
        np.testing.assert_array_equal(value, ref)


def test_map_memory_does_not_grow_with_the_grid(experiment_config):
    """stability_map's traced peak above its returned arrays is one block's
    solver arrays: ~0.95 MB at 20 x 100 and at 200 x 100 cells.  Solved
    in one batch it was 1.7 and 16.2 MB."""
    from conftest import traced_peak

    gels = np.linspace(0.0, 1.5, 100)
    above = []
    for rows in (20, 200):
        deltas = TWO_PI * np.linspace(0.0, 1.7e6, rows)
        smap, peak = traced_peak(
            lambda: stability_map(experiment_config, deltas, gels))
        above.append(peak - sum(getattr(smap, f).nbytes for f in _MAP_FIELDS))
    assert above[1] <= 1.2 * above[0]


def test_map_requires_nonempty_ranges(ideal_config):
    with pytest.raises(ValidationError, match="nonempty"):
        stability_map(ideal_config, [], [0.0])


# --------------------------------------------------------------------------
# containers
# --------------------------------------------------------------------------

def test_response_csv_columns(tmp_path, experiment_config):
    from optospring.response import write_response_csv

    w = TWO_PI * np.geomspace(10.0, 1e3, 5)
    resp = closed_loop_response(experiment_config, w)
    path = tmp_path / "sweep.csv"
    write_response_csv(path, resp, comment="sweep")
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "f_Hz,re,im,mag,phase_deg"
    cells = lines[1].split(",")
    assert float(cells[0]) == pytest.approx(10.0, rel=1e-12, abs=0)
    re_, im_, mag = float(cells[1]), float(cells[2]), float(cells[3])
    assert mag == pytest.approx(math.hypot(re_, im_), rel=1e-12, abs=0)
    assert float(cells[4]) == pytest.approx(
        math.degrees(math.atan2(im_, re_)), rel=1e-9, abs=0)


def test_complex_response_rejects_nan():
    with pytest.raises(ValidationError, match="NaN"):
        ComplexResponse(grid=np.array([1.0, 2.0]),
                        values=np.array([1.0, np.nan], dtype=complex))


def test_complex_response_rejects_short_grid():
    with pytest.raises(ValidationError, match="length >= 2"):
        ComplexResponse(grid=np.array([1.0]), values=np.array([1.0 + 0j]))
