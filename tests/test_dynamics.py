"""Stochastic engine: exactness, determinism, ensembles, rate fitting."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from optospring import dynamics
from optospring.errors import (InstabilityError, InsufficientDataError,
                               NoConvergenceError, ValidationError)
from optospring.model import HBAR, K_B, TWO_PI
from optospring.response import extract_mode
from optospring.dynamics import (PhaseMap, SimPlan,
                                 detuning_scan, fit_decoherence_rate,
                                 measure_rate, off_state_mode, predicted_rate,
                                 reduced_model, run_ensemble,
                                 simulate_trajectory)
from optospring.spectra import welch_psd


def _slow_trap_config(experiment_config, off_gain, gel=30.0):
    """Paper cavity detuned for a ~100 Hz trap (cheap steps), with explicit
    servo gains for the stationary-statistics tests."""
    delta = TWO_PI * 2137.0  # puts the trapped mode near 100 Hz
    cfg = experiment_config.with_detuning(delta)
    servo = dataclasses.replace(cfg.servo, g_el=gel, off_gain=off_gain)
    return dataclasses.replace(cfg, servo=servo, raw_items=())


# --------------------------------------------------------------------------
# integrator quality
# --------------------------------------------------------------------------

def _kernel_states(pm, z, steps, xi=None, chunk=dynamics.DRAW_BLOCK):
    """(x, v, F) after each of ``steps`` steps, as (B, steps) arrays, from
    PhaseMap.run called in chunks the way the engine calls it; ``xi=None``
    runs on zero normals."""
    parts = []
    for k in range(0, steps, chunk):
        n = min(chunk, steps - k)
        part = pm.run(z, n, np.zeros((z[0].size, n, 3)) if xi is None
                      else xi[:, k:k + n])
        z = tuple(a[:, -1] for a in part)
        parts.append(part)
    return tuple(np.concatenate(p, axis=1) for p in zip(*parts))


def _reference_states(pm, z, steps, xi=None):
    """Oracle: the 3x3 map z <- Phi z + N xi one step at a time, (3, B, steps)."""
    z = np.array(z, dtype=float)
    out = np.empty(z.shape + (steps,))
    for k in range(steps):
        z = pm.phi @ z
        if xi is not None:
            z = z + pm.noise @ xi[:, k].T
        out[..., k] = z
    return out


def _phase_map(model, dt, **overrides):
    args = dict(mass=model.mass, omega_sq=model.omega_trap_sq,
                gamma=model.gamma_off, s_f_thermal=model.s_f_thermal,
                ou_corner=model.ou_corner, ou_force_var=model.ou_force_var,
                dt=dt)
    args.update(overrides)
    return PhaseMap(**args)


REGIMES = ["on", "off", "critical", "overdamped", "undamped-quiet", "ou-only"]


def _regime_overrides(model, regime):
    omega = model.omega_ref
    return {
        "on": dict(gamma=model.gamma_on),
        "off": {},
        "critical": dict(gamma=2.0 * omega),
        "overdamped": dict(gamma=4.0 * omega),
        "undamped-quiet": dict(gamma=0.0, s_f_thermal=0.0, ou_force_var=0.0),
        "ou-only": dict(s_f_thermal=0.0),
    }[regime]


def _van_loan(e):
    """(Phi, Q = G Phi^T) from the exponential e = [[Phi, G], [0, *]] of a
    Van Loan block; e may hold mpmath numbers."""
    phi = e[:3, :3]
    return phi, e[:3, 3:] @ phi.T


@pytest.mark.parametrize("regime", REGIMES)
def test_van_loan_exponential_matches_mpmath(experiment_config, regime):
    """The regime's one-step Van Loan block [[A, L L^T], [0, -A^T]] dt, in
    the (x, v, F) units (1, omega, m omega^2) (PhaseMap uses the nearest
    powers of two): Phi and Q from ``dynamics._expm`` (numpy Pade 13,
    scaling and squaring) and from scipy's expm against a 50-digit mpmath
    expm, and PhaseMap's own one-step (Phi, Q), scaled back, against the
    same.  Phi to 1e-14 in the scaled units, each Q entry to 1e-14 of
    sqrt(Q_ii Q_jj) (``_expm`` of the unscaled block misses this by up to
    5e-11)."""
    mpmath = pytest.importorskip("mpmath")
    from scipy.linalg import expm

    model = reduced_model(experiment_config, experiment_config.noise)
    dt = 1.0 / (200.0 * model.omega_ref / TWO_PI)
    over = _regime_overrides(model, regime)
    p = {"gamma": model.gamma_off, "s_f_thermal": model.s_f_thermal,
         "ou_force_var": model.ou_force_var, **over}
    a, _, d = _drift_and_diffusion(model, p["gamma"])
    ll = np.diag([0.0, p["s_f_thermal"] / 2.0 / model.mass**2,
                  2.0 * model.ou_corner * p["ou_force_var"]])
    block = np.zeros((6, 6))
    block[:3, :3], block[:3, 3:], block[3:, 3:] = a, ll, -a.T
    t = np.concatenate((d, 1.0 / d))
    scaled = block * dt * t[None, :] / t[:, None]
    with mpmath.workdps(50):
        e = np.array(mpmath.expm(mpmath.matrix(scaled.tolist())).tolist(),
                     dtype=object)
        phi_mp, q_mp = (m.astype(float) for m in _van_loan(e))
    scale = np.sqrt(np.outer(np.diag(q_mp), np.diag(q_mp)))
    pm = _phase_map(model, dt, **over)
    unscale = d[:, None] / d[None, :]
    for phi, q in (_van_loan(dynamics._expm(scaled)), _van_loan(expm(scaled)),
                   (pm.phi / unscale, pm.cov / np.outer(d, d))):
        assert np.max(np.abs(phi - phi_mp)) <= 1e-14
        assert np.all(np.abs(q - q_mp) <= 1e-14 * scale)


@pytest.mark.parametrize("b", [1, 5])
@pytest.mark.parametrize("regime", REGIMES)
def test_kernel_matches_step_by_step_map(experiment_config, regime, b):
    """PhaseMap.run against the plain matrix recursion, over a phase that is
    not a whole number of chunks, from a nonzero start."""
    model = reduced_model(experiment_config, experiment_config.noise)
    omega = model.omega_ref
    dt = 1.0 / (200.0 * omega / TWO_PI)
    pm = _phase_map(model, dt, **_regime_overrides(model, regime))
    if regime == "on":
        assert omega / model.gamma_on == pytest.approx(1.1, abs=0.1)
    if regime == "off":
        assert omega / model.gamma_off > 5e3
    if regime == "overdamped":  # the kernel splits a chunk into blocks
        assert pm._block < dynamics.DRAW_BLOCK
    rng = np.random.Generator(np.random.Philox(11))
    x_rms = math.sqrt(K_B * 300.0 / (model.mass * model.omega_trap_sq))
    scales = (x_rms, omega * x_rms, math.sqrt(model.ou_force_var))
    z0 = tuple(s * rng.standard_normal(b) for s in scales)
    steps = 2 * dynamics.DRAW_BLOCK + 437
    xi = rng.standard_normal((b, steps, 3))
    got = _kernel_states(pm, z0, steps, xi)
    want = _reference_states(pm, z0, steps, xi)
    for g, w in zip(got, want):
        assert g.shape == (b, steps)
        assert np.max(np.abs(g - w)) <= 1e-9 * np.max(np.abs(w))


@pytest.mark.parametrize("substeps", [10, 4])
@pytest.mark.parametrize("b", [1, 5])
@pytest.mark.parametrize("regime", REGIMES)
def test_strided_map_matches_fine_steps(experiment_config, regime, b, substeps):
    """A map over ``substeps`` steps of dt is the law of those steps: Phi is
    Phi1^s bit for bit (by squaring, multiplied in the order ``_repeat``
    multiplies), and N N^T = sum_{k<s} Phi1^k Q1 Phi1^k^T.  The kernel
    runs the strided map as the plain matrix recursion does."""
    model = reduced_model(experiment_config, experiment_config.noise)
    omega = model.omega_ref
    dt = 1.0 / (200.0 * omega / TWO_PI)
    overrides = _regime_overrides(model, regime)
    fine = _phase_map(model, dt, **overrides)
    whole = _phase_map(model, dt, substeps=substeps, **overrides)
    phi, power, n = np.eye(3), fine.phi, substeps
    while n:
        if n & 1:
            phi = power @ phi
        n >>= 1
        if n:
            power = power @ power
    np.testing.assert_array_equal(whole.phi, phi)
    powers = [np.linalg.matrix_power(fine.phi, k) for k in range(substeps)]
    cov = sum(pk @ fine.cov @ pk.T for pk in powers)
    if regime == "undamped-quiet":
        np.testing.assert_array_equal(whole.noise, 0.0)
        np.testing.assert_array_equal(whole.cov, 0.0)
        return
    np.testing.assert_allclose(whole.noise @ whole.noise.T, cov,
                               rtol=1e-12, atol=0.0)

    rng = np.random.Generator(np.random.Philox(12))
    x_rms = math.sqrt(K_B * 300.0 / (model.mass * model.omega_trap_sq))
    scales = (x_rms, omega * x_rms, math.sqrt(model.ou_force_var))
    z0 = tuple(s * rng.standard_normal(b) for s in scales)
    strides = 2 * (dynamics.DRAW_BLOCK // substeps) + 43
    xi = rng.standard_normal((b, strides, 3))
    got = _kernel_states(whole, z0, strides, xi,
                         chunk=dynamics.DRAW_BLOCK // substeps)
    want = _reference_states(whole, z0, strides, xi)
    for g, w in zip(got, want):
        assert g.shape == (b, strides)
        assert np.max(np.abs(g - w)) <= 1e-9 * np.max(np.abs(w))


def _half_steps(config, dt):
    """Steps of dt per servo half-period, rounded as the protocol rounds."""
    return round(0.5 / config.servo.switch_frequency / dt)


def _switch_config(config, switch_hz):
    servo = dataclasses.replace(config.servo, switch_frequency=switch_hz)
    return dataclasses.replace(config, servo=servo, raw_items=())


def test_record_stride_samples_the_exact_curve(experiment_config):
    """The exact <n(t)> at strides 10 and 7 (whose phases end in a shorter
    remainder step) is the stride-1 curve sampled every 10th and 7th
    point, phase switches included."""
    cfg = _switch_config(experiment_config, 20.0)
    curves = {stride: dynamics.exact_mean_phonon(
        cfg, cfg.noise, SimPlan(duration=0.1, n_trajectories=1, master_seed=9,
                                record_stride=stride))
        for stride in (1, 7, 10)}
    t1, n1 = curves[1]
    for stride in (7, 10):
        t, n = curves[stride]
        assert t.size == -(-t1.size // stride)
        np.testing.assert_allclose(t, t1[::stride], rtol=1e-12)
        np.testing.assert_allclose(n, n1[::stride], rtol=1e-9)


@pytest.mark.parametrize("stride", [1, 7])
def test_engine_timeline_matches_step_by_step_map(experiment_config, stride):
    """simulate_trajectory (stationary start, chunking, RNG stream, phase
    switching, stride and remainder steps) against the oracle map run over
    the same normals: the first three normals draw the start from the
    cooled stationary covariance, then three per map step."""
    cfg = _switch_config(experiment_config, 50.0)
    plan = SimPlan(duration=0.04, n_trajectories=1, master_seed=8,
                   record_stride=stride)
    t, x, v, _ = simulate_trajectory(cfg, cfg.noise, plan, 3)

    model = reduced_model(cfg, cfg.noise)
    dt = 1.0 / (200.0 * model.omega_ref / TWO_PI)
    half = _half_steps(cfg, dt)
    rec = -(-half // stride)
    last = half - (rec - 1) * stride
    maps = {gamma: [_phase_map(model, dt, gamma=gamma, substeps=stride)]
            * (rec - 1) + [_phase_map(model, dt, gamma=gamma, substeps=last)]
            for gamma in (model.gamma_on, model.gamma_off)}
    xi = dynamics._trajectory_generators(8, [3])[0].standard_normal(
        (1 + 3 * rec, 3))
    root = dynamics._factor(maps[model.gamma_on][0].stationary())
    z, k, want = root @ xi[0], 1, []
    for gamma in (model.gamma_off, model.gamma_on, model.gamma_off):
        for pm in maps[gamma]:
            want.append(z)  # record the state before each step
            z = pm.phi @ z + pm.noise @ xi[k]
            k += 1
    want = np.array(want).T
    np.testing.assert_allclose(t, dt * np.concatenate(
        [p * half + np.arange(0, half, stride) for p in range(3)]), rtol=1e-12)
    for got, ref in ((x, want[0]), (v, want[1])):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


# --------------------------------------------------------------------------
# exact moment oracle
# --------------------------------------------------------------------------

def _drift_and_diffusion(model, gamma):
    """A and L L^T of the phase's SDE, and the (1, omega, m omega^2) scale
    that puts every entry of A at the trap frequency."""
    a = np.array([[0.0, 1.0, 0.0],
                  [-model.omega_trap_sq, -gamma, 1.0 / model.mass],
                  [0.0, 0.0, -model.ou_corner]])
    ll = np.diag([0.0, model.s_f_thermal / 2.0 / model.mass**2,
                  2.0 * model.ou_corner * model.ou_force_var])
    w = model.omega_ref
    return a, ll, np.array([1.0, w, model.mass * w * w])


def test_exact_mean_phonon_matches_naive_covariance_loop(experiment_config):
    """The oracle against a plain loop of Sigma <- Phi1 Sigma Phi1^T + Q1,
    one step of dt at a time, started from scipy's Bartels-Stewart solution
    of the cooled Lyapunov equation, on two switch periods at stride 10."""
    from scipy.linalg import solve_continuous_lyapunov

    cfg = _switch_config(experiment_config, 50.0)
    plan = SimPlan(duration=0.04, n_trajectories=1, master_seed=1)
    t, n = dynamics.exact_mean_phonon(cfg, cfg.noise, plan)

    model = reduced_model(cfg, cfg.noise)
    dt = 1.0 / (200.0 * model.omega_ref / TWO_PI)
    half = _half_steps(cfg, dt)
    a, ll, d = _drift_and_diffusion(model, model.gamma_on)
    sigma = solve_continuous_lyapunov(a * d[None, :] / d[:, None],
                                      -ll / np.outer(d, d)) * np.outer(d, d)
    steps = {g: _phase_map(model, dt, gamma=g)
             for g in (model.gamma_on, model.gamma_off)}
    rec = np.zeros(-(-half // 10))
    for p in range(3):
        pm = steps[model.gamma_on if p % 2 else model.gamma_off]
        for k in range(half):
            if p % 2 == 0 and k % 10 == 0:
                e = 0.5 * model.mass * (sigma[1, 1]
                                        + model.omega_trap_sq * sigma[0, 0])
                rec[k // 10] += e / (HBAR * model.omega_ref) - 0.5
            sigma = pm.phi @ sigma @ pm.phi.T + pm.cov
    np.testing.assert_allclose(t, 10 * dt * np.arange(rec.size), rtol=1e-12)
    np.testing.assert_allclose(n, rec / 2, rtol=1e-9)


def _jump_cases(config):
    """(config, plan) of the experiment preset, a fast-switching run, and a
    weakly damped re-cooling phase (gamma_on = 0.93 rad/s for 10 ms, so
    Sigma_inf - Phi_S Sigma_inf Phi_S^T cancels about two digits)."""
    weak = _switch_config(_slow_trap_config(config, off_gain=0.5, gel=0.1), 50.0)
    return {
        "experiment": (config, SimPlan(duration=2.0, n_trajectories=1,
                                       master_seed=1)),
        "fast": (_switch_config(config, 50.0),
                 SimPlan(duration=0.04, n_trajectories=1, master_seed=1,
                         record_stride=7)),
        "weak": (weak, SimPlan(duration=0.04, n_trajectories=1, master_seed=1,
                               record_stride=7)),
    }


def _assert_covariance_close(got, want, rel):
    """|got_ij - want_ij| <= rel * sqrt(want_ii want_jj): entries near zero
    make an elementwise rtol meaningless."""
    scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
    assert np.all(np.abs(got - want) <= rel * scale)


@pytest.mark.parametrize("case", ["experiment", "fast", "weak"])
def test_recooling_jump_is_the_composed_phase_map(experiment_config, case):
    """(Phi_S, Q_S), built by squaring and doubling, against the plain
    composition of R - 1 strides (matrix_power and a loop of
    Q <- Phi Q Phi^T + Q_stride) and the remainder step; and the moment
    after the jump, Phi_S M Phi_S^T + Q_S from the moment M entering
    re-cooling, against the one the exact oracle's stride-by-stride walk
    reaches at the end of re-cooling.  Each entry to 1e-12 of
    sqrt(Q_ii Q_jj) (the Sigma_inf form misses this by 1.6e-12 in the
    weak case).  The factor N_S N_S^T rebuilds Q_S to eigh's backward
    error, 10 n eps lambda_max per entry."""
    config, plan = _jump_cases(experiment_config)[case]
    protocol = dynamics._protocol(config, config.noise, plan)
    model, n_rec = protocol.model, protocol.n_rec
    assert model.gamma_on > 0 and protocol.last < protocol.stride
    phi_s, q_s, root = protocol.jump.phi, protocol.jump.cov, protocol.jump.noise
    step = protocol.maps[model.gamma_on, protocol.stride]
    end = protocol.maps[model.gamma_on, protocol.last]
    phi = end.phi @ np.linalg.matrix_power(step.phi, n_rec - 1)
    q = np.zeros((3, 3))
    for _ in range(n_rec - 1):
        q = step.phi @ q @ step.phi.T + step.cov
    q = end.phi @ q @ end.phi.T + end.cov
    _assert_covariance_close(q_s, q, 1e-12)
    # Phi in units where every entry of A sits at the trap frequency
    w = model.omega_ref
    d = np.array([1.0, w, model.mass * w * w])
    scaled = d[None, :] / d[:, None]
    assert np.max(np.abs((phi_s - phi) * scaled)) <= 1e-12 * np.max(
        np.abs(phi * scaled))
    np.testing.assert_array_equal(q_s, q_s.T)
    # eigh is backward stable: its V, L rebuild Q_S + E with |E_ij| <=
    # ||E||_2 <= p(n) eps lambda_max, p(n) a modest function of n, and
    # forming N = V sqrt(L) and N N^T adds ~3 eps lambda_max.  So the gate
    # is absolute, 10 n eps lambda_max (n = 3): over three times the
    # largest residual seen on the maps of the six kernel test regimes at
    # strides 1 to 1,000 (8.4 eps lambda_max).  Scaled by sqrt(Q_ii Q_jj)
    # instead it would sit at eps lambda_max / min Q_ii, 2.5e-10 in the
    # weak case, below which rounding alone decides.
    floor = 10 * 3 * np.finfo(float).eps * np.linalg.eigvalsh(q_s).max()
    assert np.max(np.abs(root @ root.T - q_s)) <= floor

    moments, _ = dynamics._moments(protocol)
    assert [label for _, label, _ in protocol.phases][:3] == [
        "relaxation", "re-cooling", "relaxation"]
    # the first relaxation's last record, then its servo-off remainder step
    off_end = protocol.maps[model.gamma_off, protocol.last]
    entering = off_end.phi @ moments[0, -1] @ off_end.phi.T + off_end.cov
    _assert_covariance_close(phi_s @ entering @ phi_s.T + q_s, moments[1, 0],
                             1e-12)


def test_exact_rate_matches_rate_law(experiment_config):
    """The oracle's initial-slope rate sits within 2% of the rate law (the
    reduction and the rate law agree to about 1%)."""
    plan = SimPlan(duration=1.0, n_trajectories=1, master_seed=1)
    cfg, noise = experiment_config, experiment_config.noise
    exact = fit_decoherence_rate(*dynamics.exact_mean_phonon(cfg, noise, plan))
    mode = off_state_mode(cfg, noise)
    total, _, _ = predicted_rate(cfg, noise, mode)
    assert exact.slope == pytest.approx(total, rel=0.02, abs=0)


@pytest.mark.parametrize("stride", [10, 47])
def test_exact_variance_matches_double_sum(experiment_config, stride):
    """The FFT correlation against the plain W x W double sum of Isserlis'
    theorem (``record_covariance``), to 1e-10 relative, on the script's
    2 s plan (two periods): for the initial slope's weights (476 and 102
    window records), for random weights on 600 records and, at the
    default stride 47, for the fitted gamma's weights on all 2,022
    records of the segment."""
    from conftest import record_covariance

    plan = SimPlan(duration=2.0, n_trajectories=1, master_seed=1,
                   record_stride=None if stride == 47 else stride)
    protocol = dynamics._protocol(experiment_config, experiment_config.noise,
                                  plan)
    assert protocol.stride == stride
    walk = dynamics._moments(protocol)
    t = protocol.time_grid
    rng = np.random.Generator(np.random.Philox(5))
    weights = [dynamics._slope_weights(t), rng.standard_normal(600)]
    if stride == 47:
        n0, n_inf, gamma = dynamics._fit_exponential(
            t, dynamics._exact_curve(protocol.model, walk[0]))
        weights.append(dynamics._gamma_weights(t, n0, n_inf, gamma))
        assert weights[-1].size == protocol.n_rec
    for c in weights:
        want = c @ record_covariance(protocol, c.size) @ c
        assert dynamics._exact_variance(protocol.model, walk, c) == \
            pytest.approx(want, rel=1e-10, abs=0)


def test_measure_rate_walks_the_oracle_once(experiment_config, monkeypatch):
    """The exact curve, rate_exact_err and gamma_exact_err of one
    measure_rate (two periods, so the walk crosses a re-cooling phase)
    all come from a single ``_moments`` walk."""
    walks = []
    walk = dynamics._moments

    def counted(protocol):
        walks.append(protocol)
        return walk(protocol)

    monkeypatch.setattr(dynamics, "_moments", counted)
    plan = SimPlan(duration=2.0, n_trajectories=2, master_seed=1)
    m = measure_rate(experiment_config, experiment_config.noise, plan)
    assert len(walks) == 1 and walks[0].periods == 2
    assert m.ok and m.rate_exact_err > 0 and m.gamma_exact_err > 0


def _scan_configs(config):
    """The experiment preset (2 s, as the retherm script runs it) and the
    8 detunings of scripts/run_detuning_scan.py (1 s)."""
    return [(config, 2.0)] + [(config.with_detuning(TWO_PI * delta), 1.0)
                              for delta in np.linspace(8.8e5, 2.6e6, 8)]


def _exact_errors(config, plan):
    """(stride, window records, exact slope, its per-segment SD, the
    fitted gamma's per-segment SD) of a plan, from the exact oracle."""
    protocol = dynamics._protocol(config, config.noise, plan)
    walk = dynamics._moments(protocol)
    t = protocol.time_grid
    n = dynamics._exact_curve(protocol.model, walk[0])
    slope = dynamics._slope_weights(t)
    n0, n_inf, gamma = dynamics._fit_exponential(t, n)
    gamma_c = dynamics._gamma_weights(t, n0, n_inf, gamma)
    return (protocol.stride, slope.size, fit_decoherence_rate(t, n).slope,
            math.sqrt(dynamics._exact_variance(protocol.model, walk, slope)),
            math.sqrt(dynamics._exact_variance(protocol.model, walk, gamma_c)))


def test_default_stride_keeps_the_exact_errors(experiment_config):
    """The resolved default stride, max(10, steps // 2000), against stride
    1 at the preset and at every detuning of the scan script: the exact
    initial slope within 0.1% (reads +0.015% to +0.052%), its exact SD
    within 1% (-0.42% to -0.52%) and the fitted gamma's exact SD within 1%
    (-0.05% to -0.07%); the fit window keeps >= 100 records.  A phase
    under 20,000 steps (5 Hz switching) keeps stride 10."""
    for config, duration in _scan_configs(experiment_config):
        plan = SimPlan(duration=duration, n_trajectories=1, master_seed=1)
        stride, window, slope, slope_sd, gamma_sd = _exact_errors(config, plan)
        steps = round(0.5 / config.servo.switch_frequency
                      / plan.resolve_dt(reduced_model(config, config.noise)
                                        .omega_ref))
        assert stride == max(10, steps // dynamics.RECORDS_PER_PHASE) > 10
        assert window >= 100
        _, _, slope_1, slope_sd_1, gamma_sd_1 = _exact_errors(
            config, dataclasses.replace(plan, record_stride=1))
        assert slope == pytest.approx(slope_1, rel=1e-3, abs=0)
        assert slope_sd == pytest.approx(slope_sd_1, rel=1e-2, abs=0)
        assert gamma_sd == pytest.approx(gamma_sd_1, rel=1e-2, abs=0)
    fast = _switch_config(experiment_config, 5.0)
    assert dynamics._protocol(fast, fast.noise, SimPlan(
        duration=0.2, n_trajectories=1, master_seed=1)).stride == 10


def test_exact_rate_error_matches_seed_to_seed_spread(experiment_config):
    """rate_exact_err is the spread of the fitted rate: over 20 disjoint
    32-trajectory ensembles of the preset at the default stride (47), the
    SD of (fitted - exact) / exact error is 1 for a calibrated error, which
    passes 0.5..1.5 with ~99.8% power (chi-square, 19 degrees of freedom;
    an error off by 2x in either direction fails), and the mean sits
    within 3 standard errors of 0.  Master seeds 1-20 read SD 0.69-1.35
    and mean z-scores within 2.3 standard errors, all pass.  The OLS
    error, which treats the 96 window records as independent, is the
    naive one: its median over the 20 ensembles is under 0.3 exact errors
    (seed 3 reads median 0.12, max 0.20; seeds 1-20 read medians
    0.12-0.15, max 0.25)."""
    plan = SimPlan(duration=1.0, n_trajectories=640, master_seed=3)
    config, size = experiment_config, 32
    protocol = dynamics._protocol(config, config.noise, plan)
    walk = dynamics._moments(protocol)
    t = protocol.time_grid
    exact = fit_decoherence_rate(t, dynamics._exact_curve(protocol.model,
                                                          walk[0]))
    err = math.sqrt(dynamics._exact_variance(
        protocol.model, walk, dynamics._slope_weights(t)) / size)
    fits = [fit_decoherence_rate(t, dynamics._relaxation_phonons(
        protocol, plan.master_seed, range(k, k + size)).mean(axis=(0, 1)))
        for k in range(0, 640, size)]
    z = np.array([(fit.slope - exact.slope) / err for fit in fits])
    ols = np.array([fit.slope_err / err for fit in fits])
    assert 0.5 < z.std(ddof=1) < 1.5
    assert abs(z.mean()) < 3.0 * z.std(ddof=1) / math.sqrt(z.size)
    assert np.median(ols) < 0.3


def test_stationary_start_matches_lyapunov_solution(experiment_config,
                                                    monkeypatch):
    """Sigma_inf solves A S + S A^T + L L^T = 0 and is invariant under the
    cooled stride map; the engine's 20k starting states, the start map's
    output, have it as their sample covariance (each entry within 4
    standard errors)."""
    cfg = _switch_config(experiment_config, 2000.0)
    model = reduced_model(cfg, cfg.noise)
    dt = 1.0 / (200.0 * model.omega_ref / TWO_PI)
    cooled = _phase_map(model, dt, gamma=model.gamma_on, substeps=10)
    sigma = cooled.stationary()
    a, ll, d = _drift_and_diffusion(model, model.gamma_on)
    resid = (a @ sigma + sigma @ a.T + ll) / np.outer(d, d)
    assert np.max(np.abs(resid)) <= 1e-10 * np.max(np.abs(ll / np.outer(d, d)))
    # <x v> = 0 in a stationary state, so compare on the scale of the
    # diagonal: sqrt(S_ii S_jj)
    scale = np.sqrt(np.outer(np.diag(sigma), np.diag(sigma)))
    mapped = cooled.phi @ sigma @ cooled.phi.T + cooled.cov
    assert np.all(np.abs(mapped - sigma) <= 1e-9 * scale)

    starts = []
    run = PhaseMap.run
    n = 20_000
    plan = SimPlan(duration=5e-4, n_trajectories=n, master_seed=41,
                   record_stride=100)
    protocol = dynamics._protocol(cfg, cfg.noise, plan)

    def spy(self, z, steps, xi):
        out = run(self, z, steps, xi)
        if self is protocol.start:
            starts.append(np.array(out)[..., -1])
        return out

    monkeypatch.setattr(PhaseMap, "run", spy)
    dynamics._relaxation_phonons(protocol, plan.master_seed, range(n))
    assert len(starts) == 1
    sample = np.cov(starts[0])
    assert np.all(np.abs(sample - sigma) <= 4.0 * math.sqrt(2.0 / n) * scale)


def test_noise_factor_is_stable_under_rounding(experiment_config):
    """Eigenvectors are defined up to sign; the factor fixes it, so the
    cooled covariance from another Lyapunov solver (equal to rounding)
    keeps its factor, and with it every seeded realisation."""
    from scipy.linalg import solve_continuous_lyapunov

    model = reduced_model(experiment_config, experiment_config.noise)
    dt = 1.0 / (200.0 * model.omega_ref / TWO_PI)
    sigma = _phase_map(model, dt, gamma=model.gamma_on).stationary()
    a, ll, d = _drift_and_diffusion(model, model.gamma_on)
    other = solve_continuous_lyapunov(a * d[None, :] / d[:, None],
                                      -ll / np.outer(d, d)) * np.outer(d, d)
    other = 0.5 * (other + other.T)
    scale = np.sqrt(np.diag(sigma))[:, None]
    assert np.all(np.abs(other - sigma) <= 1e-13 * scale * scale.T)
    np.testing.assert_allclose(dynamics._factor(other) / scale,
                               dynamics._factor(sigma) / scale, atol=1e-9)


def _mc_against_exact(config, plan, first_period=0):
    """(slope, record-mean, first-record) z-scores of a seeded ensemble's
    segments from switch period ``first_period`` on against the exact
    curve: the slope in units of its exact standard error over those
    periods, the record mean and first record in units of their spread
    over the segments."""
    protocol = dynamics._protocol(config, config.noise, plan)
    t = protocol.time_grid
    n_off = dynamics._relaxation_phonons(protocol, plan.master_seed,
                                         range(plan.n_trajectories))
    n_off = n_off[:, first_period:]
    result = dynamics._ensemble_result(t, n_off, protocol.model.omega_ref)
    moments, powers = dynamics._moments(protocol)
    n_exact = dynamics._exact_curve(protocol.model, moments)
    slope_err = math.sqrt(dynamics._exact_variance(
        protocol.model, (moments[first_period:], powers),
        dynamics._slope_weights(t)) / result.n_segments)
    slope_z = ((result.fitted_rate - fit_decoherence_rate(t, n_exact).slope)
               / slope_err)
    segments = n_off.reshape(-1, t.size)
    z = [slope_z]
    for got, want in ((segments.mean(axis=1), n_exact.mean()),
                      (segments[:, 0], n_exact[0])):
        z.append((got.mean() - want) / (got.std(ddof=1) / math.sqrt(got.size)))
    return tuple(z)


def test_fitted_rate_is_the_mean_of_segment_slopes():
    """The slope of the pooled mean curve against each segment fitted on
    its own: OLS is linear in the records, so it is their mean."""
    rng = np.random.Generator(np.random.Philox(3))
    t = np.linspace(0.0, 1.0, 400)
    segments = 5.0 + 40.0 * t + rng.standard_normal((2, 3, t.size)).cumsum(-1)
    result = dynamics._ensemble_result(t, segments, 1.0)
    slopes = [fit_decoherence_rate(t, seg).slope
              for seg in segments.reshape(6, -1)]
    assert result.fitted_rate == pytest.approx(np.mean(slopes), rel=1e-12, abs=0)


def test_monte_carlo_mean_matches_exact_curve(experiment_config):
    """A seeded 100 x 1 s ensemble against the exact oracle: the initial
    slope within 3 exact standard errors and the record-mean phonon number
    within 3 segment-level standard errors (about 99.7% power per gate for
    an unbiased sampler).  Seed 1000 reads slope z = -0.40; master seeds
    1-20 read slope z SD 0.77 and |z| <= 1.63, all pass."""
    plan = SimPlan(duration=1.0, n_trajectories=100, master_seed=1000)
    slope_z, level_z, _ = _mc_against_exact(experiment_config, plan)
    assert abs(slope_z) <= 3.0
    assert abs(level_z) <= 3.0


def test_monte_carlo_mean_matches_exact_curve_after_jumps(experiment_config):
    """run_ensemble re-cools in one jump, and the oracle walks re-cooling
    stride by stride: a seeded 400-trajectory run of ten 50 Hz switch
    periods, whose 3600 segments after a jump (the F_trap memory carries
    through it: Phi_S[2, 2] = 0.31) must match the exact curve: the
    initial slope within 3 exact standard errors of periods 2-10, and the
    record mean and first record each within 3 segment-level standard
    errors.  Seed 1000 reads slope z = +0.43.  Over master seeds 1-20 the
    three z-scores read SD 0.96-1.15 and |z| <= 2.42, all pass; with the
    jump's noise factor scaled by 0.9 the first record reads z = -6.7 to
    -11.4, and with Phi_S set to 0 it reads -3.2 to -6.5 (seeds 1-10, all
    fail)."""
    cfg = _switch_config(experiment_config, 50.0)
    plan = SimPlan(duration=0.2, n_trajectories=400, master_seed=1000)
    for z in _mc_against_exact(cfg, plan, first_period=1):
        assert abs(z) <= 3.0


def test_energy_conservation_gate():
    """Zero damping, zero noise: relative energy drift < 1e-6 over 1e6 steps."""
    omega = TWO_PI * 950.0
    dt = 1.0 / (200.0 * 950.0)
    pm = PhaseMap(mass=5e-6, omega_sq=omega**2, gamma=0.0, s_f_thermal=0.0,
                  ou_corner=omega / 50.0, ou_force_var=0.0, dt=dt)
    z = (np.array([1e-9]), np.array([0.0]), np.array([0.0]))
    e0 = 0.5 * 5e-6 * (z[1][0] ** 2 + omega**2 * z[0][0] ** 2)
    x, v, _ = _kernel_states(pm, z, 1_000_000)
    e1 = 0.5 * 5e-6 * (v[0, -1] ** 2 + omega**2 * x[0, -1] ** 2)
    assert abs(e1 / e0 - 1.0) < 1e-6


def _off_phase_ringdown(config, noise, x0, stride=10):
    """Noise-free ringdown from (x0, 0) over the first off phase, recorded
    every ``stride`` steps as the engine records it (``None``: the plan's
    resolved default, 47 here): (steps, dt, x, v, model), with ``steps``
    the recorded step numbers."""
    plan = SimPlan(duration=1.0, n_trajectories=1, master_seed=1,
                   record_stride=stride)
    stride = dynamics._protocol(config, noise, plan).stride
    model = reduced_model(config, noise)
    dt = plan.resolve_dt(model.omega_ref)
    half = _half_steps(config, dt)
    steps = np.arange(0, half, stride)
    pm = _phase_map(model, dt, substeps=stride)
    np.testing.assert_array_equal(pm.noise, 0.0)
    z = (np.array([x0]), np.array([0.0]), np.array([0.0]))
    x, v, _ = _kernel_states(pm, z, steps.size - 1,
                             chunk=dynamics.DRAW_BLOCK // stride)
    return (steps, dt, np.concatenate(([x0], x[0])),
            np.concatenate(([0.0], v[0])), model)


def test_ringdown_matches_pole_damping(experiment_config, cold_noise):
    """Deterministic ringdown: n(t) = n(0) exp(-gamma_eff t) within 1%."""
    steps, dt, x, v, model = _off_phase_ringdown(experiment_config,
                                                 cold_noise, 1e-9)
    n = dynamics._phonon(model, x, v)
    mode = off_state_mode(experiment_config, cold_noise)
    predicted = (n[0] + 0.5) * np.exp(-mode.gamma_eff * steps * dt) - 0.5
    rel = np.abs(n - predicted) / (predicted + 0.5)
    assert np.max(rel) < 1e-2


def test_cold_ringdown_matches_exact_solution(experiment_config, cold_noise):
    """Noise-free ringdown at record_stride=10 and at the resolved default
    (47) through the first off phase, in the engine's kernel chunks,
    against the damped cosine x0*exp(-g t/2)*(cos(wd t) + g/(2 wd)*sin(wd
    t)), evaluated in 40-digit arithmetic at the recorded steps, to 1e-12 of
    x0.  Only rounding separates them, so this gates the phase drift of the
    kernel's section when its trace is near 2."""
    mpmath = pytest.importorskip("mpmath")
    x0 = 1e-9
    for stride in (10, None):
        steps, dt, x, _, model = _off_phase_ringdown(experiment_config,
                                                     cold_noise, x0, stride)
        with mpmath.workdps(40):
            g = mpmath.mpf(model.gamma_off)
            wd = mpmath.sqrt(mpmath.mpf(model.omega_trap_sq) - g**2 / 4)
            exact = np.empty(steps.size)
            for i, k in enumerate(steps):
                tk = int(k) * mpmath.mpf(dt)
                exact[i] = float(x0 * mpmath.exp(-g * tk / 2)
                                 * (mpmath.cos(wd * tk)
                                    + g / (2 * wd) * mpmath.sin(wd * tk)))
        assert np.max(np.abs(x - exact)) <= 1e-12 * x0, stride


def test_stationary_occupancy_matches_fluctuation_dissipation(experiment_config,
                                                              thermal_only_noise):
    """Fokker-Planck oracle: a thermally driven trap with total damping
    gamma holds <n> = kB*T*gamma1/(hbar*omega_ref*gamma).  The servo never
    switches, so the mean curve does not relax: its exponential fit finds
    gamma <= 0, and fitted_gamma_eff is NaN with the reason."""
    cfg = _slow_trap_config(experiment_config, off_gain=5.0, gel=5.0)
    model = reduced_model(cfg, thermal_only_noise)
    assert model.gamma_off == pytest.approx(50.0, rel=0.01, abs=0)  # 5 / m2 + losses
    plan = SimPlan(duration=20.0, n_trajectories=8, master_seed=17,
                   record_stride=4)
    result = run_ensemble(cfg, thermal_only_noise, plan)
    n_mean = float(np.mean(result.mean_phonon))
    expected = (K_B * 300.0 * cfg.mirror1.gamma0
                / (HBAR * model.omega_ref * model.gamma_off))
    assert n_mean == pytest.approx(expected, rel=0.05, abs=0)
    assert math.isnan(result.fitted_gamma_eff)
    assert "does not relax" in result.gamma_fit_error


def test_trap_noise_force_psd_matches_target(experiment_config):
    """Welch the synthesized trap-noise force itself against the OU law and
    the 1/f^2 target it is matched to."""
    noise = experiment_config.noise
    model = reduced_model(experiment_config, noise)
    dt = 5e-5
    pm = PhaseMap(mass=model.mass, omega_sq=model.omega_trap_sq,
                  gamma=model.gamma_off, s_f_thermal=0.0,
                  ou_corner=model.ou_corner, ou_force_var=model.ou_force_var,
                  dt=dt)
    rng = np.random.Generator(np.random.Philox(7))
    steps = 600_000
    z = (np.zeros(1), np.zeros(1), np.zeros(1))
    xi = rng.standard_normal((steps, 3))
    force = _kernel_states(pm, z, steps, xi[None])[2][0]
    spec = welch_psd(force, dt, segment_length=1 << 14, kind="frequency-noise")

    def ou_law(f_hz):
        w = f_hz * TWO_PI
        return (4.0 * model.ou_force_var * model.ou_corner
                / (model.ou_corner**2 + w**2))

    # the sampled process folds the 1/f^2 tail back across Nyquist, so
    # compare against the aliased analytic spectrum
    f_nyq = 0.5 / dt
    expected = ou_law(spec.grid)
    for k in range(1, 6):
        expected = expected + ou_law(2 * k * f_nyq - spec.grid) \
            + ou_law(2 * k * f_nyq + spec.grid)
    f_ref = model.omega_ref / TWO_PI
    band = (spec.grid > f_ref / 10.0) & (spec.grid < 8000.0)
    ratio = np.mean(spec.values[band] / expected[band])
    assert ratio == pytest.approx(1.0, abs=0.05)

    # and the OU law tracks the 1/f^2 force target within 5% over the band
    target = (4.0 * model.mass**2 * model.omega_ref**4
              * noise.sphidot(spec.grid[band]) / experiment_config.cavity.g_pull**2)
    np.testing.assert_allclose(ou_law(spec.grid[band]), target, rtol=0.05)


def test_trap_force_constant_against_frequency_domain_integral(experiment_config):
    """The force normalization must reproduce the trap heating rate when fed
    through the closed-loop response: integrate S_F*|chi|^2 over frequency,
    convert to phonons, multiply by the relaxation rate."""
    noise = experiment_config.noise
    model = reduced_model(experiment_config, noise)
    m1 = experiment_config.mirror1
    w_r, g_off = model.omega_ref, model.gamma_off

    # resonant band (+-50 half-widths holds 99.4% of the Lorentzian); the
    # quasi-static 1/f^2 shoulder below it moves the mirror without
    # exciting the mode and is excluded on purpose
    f_r = w_r / TWO_PI
    half_width = g_off / (4.0 * math.pi)
    f = np.linspace(f_r - 50 * half_width, f_r + 50 * half_width, 200_001)
    w = f * TWO_PI
    s_force = (4.0 * model.mass**2 * w_r**4 * noise.sphidot(f)
               / experiment_config.cavity.g_pull**2)
    chi2 = 1.0 / (model.mass**2 * ((w_r**2 - w**2) ** 2 + g_off**2 * w**2))
    x2 = np.trapezoid(s_force * chi2, f)
    heating = (m1.mass * w_r * x2 / HBAR) * g_off

    mode = off_state_mode(experiment_config, noise)
    _, _, trap_term = predicted_rate(experiment_config, noise, mode)
    assert heating == pytest.approx(trap_term, rel=0.02, abs=0)


# --------------------------------------------------------------------------
# determinism
# --------------------------------------------------------------------------

def test_same_seed_bit_identical(experiment_config):
    plan = SimPlan(duration=1.0, n_trajectories=1, master_seed=33)
    a = simulate_trajectory(experiment_config, experiment_config.noise, plan, 0)
    b = simulate_trajectory(experiment_config, experiment_config.noise, plan, 0)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("stride", [1, None])
def test_trajectory_phonons_equal_whole_timeline_phonons(experiment_config,
                                                         stride):
    """simulate_trajectory fills n chunk by chunk as the walk yields; each
    entry equals ``_phonon`` of the returned x and v bit for bit.  Stride 1
    runs 12 kernel chunks a phase, the default stride one."""
    plan = SimPlan(duration=1.0, n_trajectories=1, master_seed=21,
                   record_stride=stride)
    noise = experiment_config.noise
    t, x, v, n = simulate_trajectory(experiment_config, noise, plan, 0)
    model = reduced_model(experiment_config, noise)
    assert n.shape == x.shape == t.shape
    np.testing.assert_array_equal(n, dynamics._phonon(model, x, v))


def test_trajectory_independent_of_batch(experiment_config):
    """Two switch periods, so the re-cooling jump is inside the check."""
    noise = experiment_config.noise
    solo_plan = SimPlan(duration=2.0, n_trajectories=1, master_seed=12)
    batch_plan = SimPlan(duration=2.0, n_trajectories=6, master_seed=12)
    n_solo = dynamics._relaxation_phonons(
        dynamics._protocol(experiment_config, noise, solo_plan), 12, [4])
    n_batch = dynamics._relaxation_phonons(
        dynamics._protocol(experiment_config, noise, batch_plan), 12,
        list(range(6)))
    np.testing.assert_array_equal(n_solo[0], n_batch[4])


# --------------------------------------------------------------------------
# ensemble statistics and fits
# --------------------------------------------------------------------------

def test_one_trajectory_ensemble_equals_single_trajectory(experiment_config):
    """One trajectory over three switch periods is three segments, and the
    mean curve is their average.  Segment 0 is the timeline's first
    relaxation phase, bit for bit.  Segments 1 and 2 follow a re-cooling
    jump, and equal, bit for bit, a reference that draws the start with the
    start map, steps each relaxation phase through the kernel in the
    engine's chunks and each re-cooling phase through one step of the jump
    map, each on the next normals of the stream."""
    noise = experiment_config.noise
    plan = SimPlan(duration=3.0, n_trajectories=1, master_seed=2)
    protocol = dynamics._protocol(experiment_config, noise, plan)
    result = run_ensemble(experiment_config, noise, plan)
    n_off = dynamics._relaxation_phonons(protocol, plan.master_seed, [0])
    t, x, v, n = simulate_trajectory(experiment_config, noise, plan, 0)
    n_rec, stride = protocol.n_rec, protocol.stride
    assert result.n_segments == 3 and n_off.shape == (1, 3, n_rec)
    np.testing.assert_array_equal(n[:n_rec], n_off[0, 0])
    np.testing.assert_array_equal(result.mean_phonon, n_off[0].mean(axis=0))

    gen = dynamics._trajectory_generators(plan.master_seed, [0])[0]
    per_chunk = dynamics.DRAW_BLOCK // stride
    steps = [(stride, min(per_chunk, n_rec - 1 - j))
             for j in range(0, n_rec - 1, per_chunk)] + [(protocol.last, 1)]
    zero = (np.zeros(1),) * 3
    z = tuple(a[:, -1] for a in protocol.start.run(
        zero, 1, gen.standard_normal((1, 1, 3))))
    for k in range(3):
        if k:
            z = tuple(a[:, -1] for a in protocol.jump.run(
                z, 1, gen.standard_normal((1, 1, 3))))
        xs, vs = [z[0]], [z[1]]
        for substeps, count in steps:
            pm = protocol.maps[protocol.model.gamma_off, substeps]
            xk, vk, fk = pm.run(z, count, gen.standard_normal((1, count, 3)))
            xs.append(xk[0])
            vs.append(vk[0])
            z = (xk[:, -1], vk[:, -1], fk[:, -1])
        want = dynamics._phonon(protocol.model, np.concatenate(xs)[:n_rec],
                                np.concatenate(vs)[:n_rec])
        np.testing.assert_array_equal(n_off[0, k], want)


def test_fitted_gamma_matches_pole_damping(experiment_config, thermal_only_noise):
    """Thermal-only segments: the exponential-fit gamma agrees with the
    closed-loop pole of the parked servo within 15%."""
    cfg = _slow_trap_config(experiment_config, off_gain=0.5, gel=30.0)
    mode = extract_mode(cfg, gel=0.5)
    plan = SimPlan(duration=1.0, n_trajectories=100, master_seed=23,
                   record_stride=4)
    result = run_ensemble(cfg, thermal_only_noise, plan)
    assert result.fitted_gamma_eff == pytest.approx(mode.gamma_eff, rel=0.15, abs=0)


def test_fitted_gamma_is_nan_with_a_reason_when_the_fit_fails(
        experiment_config):
    """A fit that finds gamma <= 0 (25 x 1 s at seed 1 reads -0.909 rad/s, a
    growing exponential fitted to noise) or raises FitError (an all-zero
    curve) gives a NaN gamma and the reason; the rate fit still stands.
    The retherm script's 100 x 2 s at seed 2718 keeps its 0.89983 rad/s."""
    noise = experiment_config.noise
    grown = run_ensemble(experiment_config, noise, SimPlan(
        duration=1.0, n_trajectories=25, master_seed=1))
    assert math.isnan(grown.fitted_gamma_eff)
    assert grown.gamma_fit_error.startswith("fitted gamma = -0.9094 rad/s <= 0")
    assert grown.fitted_rate > 0
    t = np.linspace(0.0, 1.0, 200)
    flat = dynamics._ensemble_result(t, np.zeros((1, 1, t.size)), 1.0)
    assert math.isnan(flat.fitted_gamma_eff)
    assert flat.gamma_fit_error.startswith("FitError: exponential")
    script = run_ensemble(experiment_config, noise, SimPlan(
        duration=2.0, n_trajectories=100, master_seed=2718))
    assert script.fitted_gamma_eff == pytest.approx(0.899833351, rel=1e-9,
                                                    abs=0)
    assert script.gamma_fit_error == ""


def test_slope_fit_exact_line():
    t = np.linspace(0.0, 1.0, 200)
    n = 3.0 + 42.0 * t
    fit = fit_decoherence_rate(t, n)
    assert fit.slope == pytest.approx(42.0, rel=1e-12, abs=0)
    assert fit.intercept == pytest.approx(3.0, rel=1e-12, abs=0)


def test_slope_fit_exponential_oracle():
    """Analytic derivative: d/dt [n_inf + (n0-n_inf)e^(-g t)] at 0 is
    (n_inf - n0)*g; a short-window linear fit reproduces it within 2%."""
    n0, n_inf, gamma = 1e3, 5e9, 1.0
    t = np.linspace(0.0, 0.5, 5001)
    n = n_inf + (n0 - n_inf) * np.exp(-gamma * t)
    fit = fit_decoherence_rate(t, n)
    assert fit.slope == pytest.approx((n_inf - n0) * gamma, rel=0.02, abs=0)


def test_slope_fit_needs_points():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(InsufficientDataError):
        fit_decoherence_rate(t, np.ones(5))


def test_phonon_floor(experiment_config, cold_noise):
    """n >= -1/2 everywhere; exactly -1/2 for a trajectory at rest (with no
    noise the cooled stationary start is the origin)."""
    plan = SimPlan(duration=1.0, n_trajectories=1, master_seed=3)
    t, x, v, n = simulate_trajectory(experiment_config, cold_noise, plan, 0)
    np.testing.assert_array_equal(n, -0.5)
    noisy = run_ensemble(experiment_config, experiment_config.noise,
                         SimPlan(duration=1.0, n_trajectories=4, master_seed=4))
    assert np.all(noisy.mean_phonon >= -0.5)


def test_stderr_scales_with_ensemble_size(experiment_config):
    """Statistical-scaling oracle: the slope standard error drops as
    1/sqrt(N) over 25, 100, 400 trajectories."""
    servo = dataclasses.replace(experiment_config.servo, switch_frequency=2.0)
    cfg = dataclasses.replace(experiment_config, servo=servo, raw_items=())
    errs = {}
    for n_traj in (25, 100, 400):
        plan = SimPlan(duration=0.5, n_trajectories=n_traj, master_seed=77)
        errs[n_traj] = run_ensemble(cfg, cfg.noise, plan).fitted_rate_err
    assert errs[25] > errs[100] > errs[400]
    ratio = errs[25] / errs[400]
    assert 2.0 < ratio < 8.0  # ideal sqrt(16) = 4


def test_relaxation_rises_then_saturates(experiment_config):
    """Shape of the averaged rethermalization: linear rise bending toward
    the saturation the relaxation model predicts.  By ``_exact_variance``
    one segment's fitted gamma has SD 9.12 rad/s about the exact curve's
    0.6148, and its late-to-initial slope ratio SD 3.15 about 0.7641 (the
    expected 0.7584 sits 0.006 below it).  100 x 48 s pools 4,800 segments,
    so the gamma gate's low edge (0.2 gamma_eff) sits 3.7 sigma below and
    the ratio gate's 0.25 at 5.4 sigma (100 x 1 s had them at 0.54 and
    0.78 sigma)."""
    plan = SimPlan(duration=48.0, n_trajectories=100, master_seed=14)
    result = run_ensemble(experiment_config, experiment_config.noise, plan)
    n, t = result.mean_phonon, result.time_grid
    assert n[-1] > 10.0 * n[0]  # strong net heating over the record
    mode = off_state_mode(experiment_config, experiment_config.noise)
    # the exponential-model fit finds a relaxation rate on the pole scale
    assert 0.2 * mode.gamma_eff < result.fitted_gamma_eff < 5.0 * mode.gamma_eff
    # bending: the late-time local slope sits below the initial slope by
    # roughly exp(-gamma*t)
    late = (t > 0.8 * t[-1])
    late_slope = np.polyfit(t[late], n[late], 1)[0]
    expect = math.exp(-mode.gamma_eff * 0.9 * t[-1])
    assert late_slope / result.fitted_rate == pytest.approx(expect, abs=0.25)


def test_oscillation_number_improvement(experiment_config):
    """Best trapped n_osc against the bare pendulum: a ~1e4-fold gain."""
    cfg = experiment_config
    kappa = cfg.cavity.kappa
    best = -math.inf
    for delta in np.geomspace(kappa / 50.0, 3.0 * kappa, 81):
        mode = extract_mode(cfg.with_detuning(float(delta)), gel=0.0)
        total, _, _ = predicted_rate(cfg, cfg.noise, mode)
        best = max(best, mode.omega_eff / (TWO_PI * total))
    m1 = cfg.mirror1
    bare_rate = K_B * 300.0 * m1.gamma0 / (HBAR * m1.omega0)
    bare_n_osc = m1.omega0 / (TWO_PI * bare_rate)
    improvement = best / bare_n_osc
    assert 3e3 < improvement < 1e5  # the 1e4-fold scale


def test_monte_carlo_slope_against_rate_law(experiment_config):
    """Ensemble initial slope vs the analytic heating rate within 15%.  By
    ``_exact_variance`` one segment's slope has SD 3.25e9 /s, 3.6% of the
    rate at 1,000 trajectories (768 had 4.1%, so 15% was 3.5 sigma), and
    the reduction sits 0.8% below the rate law, so 15% is 4.0 sigma."""
    plan = SimPlan(duration=1.0, n_trajectories=1000, master_seed=6)
    m = measure_rate(experiment_config, experiment_config.noise, plan)
    mode = off_state_mode(experiment_config, experiment_config.noise)
    total, _, _ = predicted_rate(experiment_config, experiment_config.noise, mode)
    assert m.rate_predicted == total
    assert m.rate_measured == pytest.approx(total, rel=0.15, abs=0)
    assert m.n_osc == pytest.approx(
        mode.omega_eff / (TWO_PI * m.rate_measured), rel=1e-12, abs=0)


# --------------------------------------------------------------------------
# rate law
# --------------------------------------------------------------------------

def test_predicted_rate_thermal_only(experiment_config, thermal_only_noise):
    mode = off_state_mode(experiment_config, thermal_only_noise)
    total, thermal, trap = predicted_rate(experiment_config, thermal_only_noise, mode)
    m1 = experiment_config.mirror1
    assert trap == 0.0
    assert total == thermal == pytest.approx(
        K_B * 300.0 * m1.gamma0 / (HBAR * mode.omega_eff), rel=1e-12, abs=0)


def test_predicted_rate_term_scalings(experiment_config):
    """Thermal term falls as 1/w_eff; under the 1/f noise model the trap
    term grows linearly in w_eff with slope m1*(2*pi*amp)^2/(hbar*g^2)."""
    noise = experiment_config.noise
    m1, cav = experiment_config.mirror1, experiment_config.cavity
    coef = m1.mass * (TWO_PI * noise.freq_noise_amp) ** 2 / (HBAR * cav.g_pull**2)
    for f_eff in (200.0, 500.0, 1000.0):
        mode = extract_mode(experiment_config)  # only omega_eff matters below
        mode = dataclasses.replace(mode, omega_eff=TWO_PI * f_eff)
        total, thermal, trap = predicted_rate(experiment_config, noise, mode)
        assert thermal * mode.omega_eff == pytest.approx(
            K_B * 300.0 * m1.gamma0 / HBAR, rel=1e-12, abs=0)
        assert trap == pytest.approx(coef * mode.omega_eff, rel=1e-12, abs=0)


# --------------------------------------------------------------------------
# detuning scan
# --------------------------------------------------------------------------

def test_scan_single_point_matches_pipeline(experiment_config):
    plan = SimPlan(duration=1.0, n_trajectories=6, master_seed=9)
    delta = experiment_config.cavity.detuning
    rows = detuning_scan(experiment_config, experiment_config.noise, plan, [delta])
    direct = run_ensemble(experiment_config.with_detuning(delta),
                          experiment_config.noise, plan)
    assert len(rows) == 1 and rows[0].ok
    assert rows[0].rate_measured == direct.fitted_rate
    mode = off_state_mode(experiment_config, experiment_config.noise)
    assert rows[0].omega_eff == mode.omega_eff
    assert rows[0].n_osc == pytest.approx(
        mode.omega_eff / (TWO_PI * direct.fitted_rate), rel=1e-12, abs=0)


def test_measure_rate_builds_the_reduced_model_once(experiment_config,
                                                    monkeypatch):
    """One measure_rate builds one reduced model, which serves the
    servo-off pole, gamma_off and the protocol."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return reduced_model(*args, **kwargs)

    monkeypatch.setattr(dynamics, "reduced_model", spy)
    plan = SimPlan(duration=1.0, n_trajectories=2, master_seed=9)
    m = measure_rate(experiment_config, experiment_config.noise, plan)
    assert len(calls) == 1
    assert m.gamma_off == reduced_model(experiment_config,
                                        experiment_config.noise).gamma_off
    assert m.omega_eff == off_state_mode(experiment_config,
                                         experiment_config.noise).omega_eff


def test_scan_row_records_the_pole_error_first(experiment_config,
                                               monkeypatch):
    """A scan row whose servo-off pole fails records the pole's error: the
    pole is solved before the protocol is built, so a plan step the
    protocol would refuse (dt * omega_eff >= 0.1) does not mask it."""
    def no_pole(*args, **kwargs):
        raise NoConvergenceError("servo-off pole did not converge")

    monkeypatch.setattr(dynamics, "extract_mode", no_pole)
    plan = SimPlan(duration=1.0, n_trajectories=1, master_seed=9, dt=1e-3)
    [row] = detuning_scan(experiment_config, experiment_config.noise, plan,
                          [experiment_config.cavity.detuning])
    assert not row.ok
    assert row.error.startswith(
        "NoConvergenceError: servo-off pole did not converge")
    monkeypatch.undo()
    [row] = detuning_scan(experiment_config, experiment_config.noise, plan,
                          [experiment_config.cavity.detuning])
    assert row.error.startswith("ValidationError") and "dt * omega_eff" in row.error


def test_scan_rows_draw_independent_streams(experiment_config):
    """Row 0 of a scan draws run_ensemble's streams, keyed (index,); row k
    draws its own, keyed (k, index), so two rows at one detuning are two
    independent measurements of the same law."""
    plan = SimPlan(duration=1.0, n_trajectories=4, master_seed=9)
    delta = experiment_config.cavity.detuning
    first, second = detuning_scan(experiment_config, experiment_config.noise,
                                  plan, [delta, delta])
    direct = run_ensemble(experiment_config.with_detuning(delta),
                          experiment_config.noise, plan)
    assert first.rate_measured == direct.fitted_rate
    assert second.rate_measured != first.rate_measured
    assert second.rate_exact == first.rate_exact
    gen = dynamics._trajectory_generators(9, [3], row=1)[0]
    want = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        entropy=9, spawn_key=(1, 3)))).standard_normal(6)
    np.testing.assert_array_equal(gen.standard_normal(6), want)


def test_scan_finds_interior_rate_minimum(experiment_config):
    """Walking the trap down the far branch, the predicted rate bottoms out
    where bath and trap-noise heating balance, and the measured rates track
    it within Monte Carlo scatter.  Each row draws its own streams.  By
    ``_exact_variance`` each row's slope has SD 10.0-10.3% of the rate at
    128 trajectories, and the exact rate sits 0.5-2.2% below the rate law,
    so rel 0.4 is 3.73-4.19 sigma per edge: all five rows pass with
    probability 0.9995 for normal errors (master seeds 1-20 all pass)."""
    deltas = np.linspace(0.88e6, 2.6e6, 5) * TWO_PI
    plan = SimPlan(duration=1.0, n_trajectories=128, master_seed=44)
    rows = detuning_scan(experiment_config, experiment_config.noise, plan,
                         deltas)
    assert all(r.ok for r in rows)
    predicted = np.array([r.rate_predicted for r in rows])
    best = int(np.argmin(predicted))
    assert 0 < best < len(rows) - 1  # interior minimum
    for r in rows:
        assert r.rate_measured == pytest.approx(r.rate_predicted, rel=0.4, abs=0)
    # the best point sits far below the bare pendulum decoherence rate
    m1 = experiment_config.mirror1
    bare = K_B * 300.0 * m1.gamma0 / (HBAR * m1.omega0)
    assert predicted[best] / bare < 1.0 / 30.0


def test_scan_records_failures_and_continues(experiment_config):
    # a servo with no cooling cannot prepare the initial state: the cooled
    # phase of the strongly anti-damped trap is unstable
    servo = dataclasses.replace(experiment_config.servo, g_el=0.0, off_gain=0.0)
    cfg = dataclasses.replace(experiment_config, servo=servo, raw_items=())
    plan = SimPlan(duration=1.0, n_trajectories=2, master_seed=10)
    delta = experiment_config.cavity.detuning
    rows = detuning_scan(cfg, cfg.noise, plan, [delta, delta])
    assert len(rows) == 2
    assert not rows[0].ok and not rows[1].ok
    assert "InstabilityError" in rows[0].error


@pytest.mark.parametrize("exc", [OverflowError, ZeroDivisionError])
def test_scan_records_arithmetic_errors(experiment_config, monkeypatch, exc):
    def overflowing_ensemble(*args, **kwargs):
        raise exc("extreme parameter")

    monkeypatch.setattr(dynamics, "_ensemble", overflowing_ensemble)
    plan = SimPlan(duration=1.0, n_trajectories=2, master_seed=10)
    rows = detuning_scan(experiment_config, experiment_config.noise, plan,
                         [experiment_config.cavity.detuning])
    assert not rows[0].ok and rows[0].error.startswith(exc.__name__)


def test_scan_propagates_programming_errors(experiment_config, monkeypatch):
    """Only toolkit and numerical errors become failed rows; anything else
    is a bug and surfaces."""
    def broken_ensemble(*args, **kwargs):
        raise TypeError("broken ensemble")

    monkeypatch.setattr(dynamics, "_ensemble", broken_ensemble)
    plan = SimPlan(duration=1.0, n_trajectories=2, master_seed=10)
    with pytest.raises(TypeError, match="broken ensemble"):
        detuning_scan(experiment_config, experiment_config.noise, plan,
                      [experiment_config.cavity.detuning])


# --------------------------------------------------------------------------
# guards
# --------------------------------------------------------------------------

def test_blowup_detection(experiment_config):
    """1 W with the servo parked at zero gain: the cooled phase is still
    damped (gamma_on about 428 rad/s), the relaxation is anti-damped
    (gamma_off about -132 rad/s), and the trap-noise-driven start runs away
    within it.  By ``_moments``, the state at the end of the relaxation
    phase stays inside the guard's bound with probability 1.3e-8, so the
    guard misses on at most that share of seeds (at 0.47 W and -62 rad/s
    it was 0.52, and seeds 1-20 raised on 16)."""
    cav = dataclasses.replace(experiment_config.cavity, input_power=1.0)
    servo = dataclasses.replace(experiment_config.servo, g_el=56.0, off_gain=0.0)
    cfg = dataclasses.replace(experiment_config, cavity=cav, servo=servo,
                              raw_items=())
    noise = experiment_config.noise
    model = reduced_model(cfg, noise)
    assert model.gamma_on > 0
    assert model.gamma_off == pytest.approx(-132.0, rel=0.01, abs=0)
    plan = SimPlan(duration=1.0, n_trajectories=1, master_seed=1)
    with pytest.raises(InstabilityError, match="thermal RMS.*relaxation"):
        simulate_trajectory(cfg, noise, plan, 0)


def test_runaway_guard_catches_nonfinite_state(experiment_config, cold_noise,
                                               monkeypatch):
    """A NaN state fails |x| <= bound, so it stops the run as a runaway."""
    run = PhaseMap.run

    def run_to_nan(self, z, steps, xi):
        x, v, f = run(self, z, steps, xi)
        x[:, -1] = math.nan  # a state gone non-finite mid-run
        return x, v, f

    monkeypatch.setattr(PhaseMap, "run", run_to_nan)
    plan = SimPlan(duration=1.0, n_trajectories=1, master_seed=1)
    with pytest.raises(InstabilityError, match="non-finite"):
        simulate_trajectory(experiment_config, cold_noise, plan, 0)


def test_runaway_guard_checks_the_recooling_jump(experiment_config,
                                                 monkeypatch):
    """run_ensemble jumps each re-cooling phase in one step, and the guard
    checks the state after the jump: a trap force gone non-finite at the
    end of a relaxation phase (the guard reads x, so it passes there) stops
    the run at the jump map's run call, in re-cooling."""
    noise = experiment_config.noise
    plan = SimPlan(duration=2.0, n_trajectories=2, master_seed=1)
    protocol = dynamics._protocol(experiment_config, noise, plan)
    remainder = protocol.maps[protocol.model.gamma_off, protocol.last]
    run = PhaseMap.run
    calls = []

    def nan_force_at_phase_end(self, z, steps, xi):
        calls.append(self)
        x, v, f = run(self, z, steps, xi)
        if self is remainder:  # the relaxation phase's last step
            f[:, -1] = math.nan
        return x, v, f

    monkeypatch.setattr(PhaseMap, "run", nan_force_at_phase_end)
    with pytest.raises(InstabilityError,
                       match="non-finite during re-cooling"):
        dynamics._relaxation_phonons(protocol, plan.master_seed, range(2))
    assert calls.count(remainder) == 1 and calls[-2] is remainder
    assert calls[-1] is protocol.jump


def test_plan_validation(experiment_config):
    with pytest.raises(ValidationError, match="n_trajectories"):
        SimPlan(duration=1.0, n_trajectories=0, master_seed=1)
    with pytest.raises(ValidationError, match="master_seed >= 0"):
        SimPlan(duration=1.0, n_trajectories=1, master_seed=-1)
    with pytest.raises(ValidationError, match="dt"):
        run_ensemble(experiment_config, experiment_config.noise,
                     SimPlan(duration=1.0, n_trajectories=1, master_seed=1,
                             dt=1.0))
    with pytest.raises(ValidationError, match="switch period"):
        run_ensemble(experiment_config, experiment_config.noise,
                     SimPlan(duration=0.3, n_trajectories=1, master_seed=1))


def test_plan_whose_period_count_overflows_is_refused(experiment_config,
                                                      monkeypatch):
    """duration / period overflows a float at 1e307 s and a 100 Hz switch:
    the plan is refused as over MAX_PLAN_FLOATS before any map is built,
    not ended by an OverflowError."""
    def never(*args, **kwargs):
        raise AssertionError("a phase map was built")

    monkeypatch.setattr(dynamics, "PhaseMap", never)
    cfg = _switch_config(experiment_config, 100.0)
    with pytest.raises(ValidationError, match="MAX_PLAN_FLOATS") as err:
        run_ensemble(cfg, cfg.noise, SimPlan(duration=1e307, n_trajectories=1,
                                             master_seed=1))
    assert "9 x inf x " in str(err.value)


def test_scan_refuses_an_oversized_plan_before_any_row(experiment_config,
                                                       monkeypatch):
    """The period count does not depend on the detuning, so a plan over
    MAX_PLAN_FLOATS at every detuning is refused once, not per row."""
    def never(*args, **kwargs):
        raise AssertionError("a row was measured")

    monkeypatch.setattr(dynamics, "measure_rate", never)
    with pytest.raises(ValidationError, match="MAX_PLAN_FLOATS"):
        detuning_scan(experiment_config, experiment_config.noise,
                      SimPlan(duration=1e308, n_trajectories=2, master_seed=1),
                      TWO_PI * np.array([9e5, 1e6]))
    with pytest.raises(ValidationError, match="switch period"):
        detuning_scan(experiment_config, experiment_config.noise,
                      SimPlan(duration=0.3, n_trajectories=2, master_seed=1),
                      TWO_PI * np.array([9e5, 1e6]))


def test_plan_budget_counts_the_rounded_periods(experiment_config,
                                                monkeypatch):
    """1.5 s is 1.5 switch periods of the preset, and the (B, periods, R)
    block holds the rounded count, 2: at R = 2,022 records, 16,485
    trajectories need 16485 x 2 x 2022 = 6.7e7 floats, over MAX_PLAN_FLOATS
    (16485 x 1.5 x 2022 is not), and are refused before any map is built.
    The budget's edge is 12,363 trajectories; at 1.4 s (one period) 16,485
    fit."""
    def never(*args, **kwargs):
        raise AssertionError("the plan was built")

    monkeypatch.setattr(dynamics, "PhaseMap", never)
    monkeypatch.setattr(dynamics, "_walk", never)
    cfg = experiment_config

    def periods(duration, n_trajectories):
        return dynamics._plan_periods(SimPlan(
            duration=duration, n_trajectories=n_trajectories, master_seed=1),
            cfg, 2022)

    over = r"MAX_PLAN_FLOATS.*1\.648e\+04 x 2 x 2022"
    with pytest.raises(ValidationError, match=over):
        periods(1.5, 16485)
    with pytest.raises(ValidationError, match=over):
        dynamics._protocol(cfg, cfg.noise, SimPlan(
            duration=1.5, n_trajectories=16485, master_seed=1))
    with pytest.raises(ValidationError, match="MAX_PLAN_FLOATS"):
        periods(1.5, 12364)
    assert periods(1.5, 12363) == 2
    assert periods(1.4, 16485) == 1


_sizes = st.integers(min_value=-3, max_value=10**12)
_seconds = st.one_of(st.floats(), st.floats(min_value=0.5, max_value=4.0),
                     st.sampled_from([0.0, -1.0, 1e308, 5e-324]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(duration=_seconds, n_trajectories=_sizes,
       dt=st.none() | _seconds, record_stride=st.none() | _sizes,
       n_rec=st.integers(min_value=1, max_value=10**12))
@example(duration=1.5, n_trajectories=16485, dt=None, record_stride=None,
         n_rec=2022)
def test_an_accepted_plan_fits_the_budget(experiment_config, duration,
                                          n_trajectories, dt, record_stride,
                                          n_rec):
    """Any plan fields and records per phase, 0, negative, NaN, inf and
    huge values included: SimPlan or _plan_periods refuses the plan with a
    ValidationError, or the block it allocates, max(B, 9) x periods x
    n_rec floats at the returned period count, fits MAX_PLAN_FLOATS.
    Nothing is walked."""
    try:
        plan = SimPlan(duration=duration, n_trajectories=n_trajectories,
                       master_seed=1, dt=dt, record_stride=record_stride)
        periods = dynamics._plan_periods(plan, experiment_config, n_rec)
    except ValidationError:
        return
    assert isinstance(periods, int) and periods >= 1
    assert max(n_trajectories, 9) * periods * n_rec <= dynamics.MAX_PLAN_FLOATS
    switch_hz = experiment_config.servo.switch_frequency
    assert abs(periods - duration * switch_hz) <= 0.5 + 1e-9


@pytest.mark.parametrize("field", ["duration", "dt"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_plan_rejects_nonfinite_values(field, value):
    """NaN slips past a `<= 0` check; each non-finite value is named."""
    kwargs = dict(duration=1.0, n_trajectories=1, master_seed=1)
    kwargs[field] = value
    with pytest.raises(ValidationError, match=f"{field} finite"):
        SimPlan(**kwargs)


def test_unstable_cooled_phase_rejected(experiment_config):
    servo = dataclasses.replace(experiment_config.servo, g_el=0.0, off_gain=0.0)
    cfg = dataclasses.replace(experiment_config, servo=servo, raw_items=())
    with pytest.raises(InstabilityError, match="cooled phase"):
        run_ensemble(cfg, cfg.noise,
                     SimPlan(duration=1.0, n_trajectories=1, master_seed=1))
