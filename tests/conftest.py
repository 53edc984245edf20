import dataclasses

import pytest

from optospring.model import load_config

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def experiment_config():
    return load_config("experiment")


@pytest.fixture(scope="session")
def ideal_config():
    return load_config("ideal")


@pytest.fixture()
def cold_noise(experiment_config):
    """Bath and laser both quiet."""
    return dataclasses.replace(experiment_config.noise, temperature=0.0,
                               freq_noise_amp=0.0)


@pytest.fixture()
def thermal_only_noise(experiment_config):
    """300 K bath, no laser frequency noise."""
    return dataclasses.replace(experiment_config.noise, freq_noise_amp=0.0)


def record_covariance(protocol, w):
    """Oracle for ``dynamics._exact_variance``: the W x W covariance of the
    first W phonon records of one relaxation segment, averaged over the
    switch periods, as the plain double sum of Isserlis' theorem,
    Cov(n_k, n_l) = 2 tr(A M_k Phi^d^T A Phi^d M_k) for d = l - k >= 0,
    with Phi^d from repeated products."""
    import numpy as np

    from optospring.dynamics import _moments
    from optospring.model import HBAR

    model = protocol.model
    a = np.diag([model.mass * model.omega_trap_sq, model.mass, 0.0]) / (
        2.0 * HBAR * model.omega_ref)
    phi = protocol.maps[model.gamma_off, protocol.stride].phi
    cov = np.zeros((w, w))
    for m in _moments(protocol)[0]:
        m, power = m[:w], np.eye(3)
        for d in range(w):
            k = np.arange(w - d)
            c = 2.0 * np.einsum("kij,kji->k", a @ m[k],
                                power.T @ a @ power @ m[k])
            cov[k, k + d] += c
            if d:
                cov[k + d, k] += c
            power = phi @ power
    return cov / protocol.periods


def ols_error_bound(protocol, n_segments):
    """(exact SD of the initial slope, mean + 4 SD of its OLS error) for
    an ensemble of ``n_segments`` segments.

    The OLS error is sqrt(r.r/(W - 2) * c.c), r the residual of the line
    fit on the W window records of the mean curve and c the slope weights.
    With C the mean curve's window covariance (``record_covariance`` / S),
    mu the exact curve and P the projector off the line, r.r has mean
    tr(P C) + |P mu|^2 and, for a Gaussian mean curve, variance
    2 tr((P C)^2) + 4 mu^T P C P mu."""
    import math

    import numpy as np

    from optospring.dynamics import _exact_curve, _moments, _slope_weights

    t = protocol.time_grid
    n = _exact_curve(protocol.model, _moments(protocol)[0])
    c = _slope_weights(t)
    w = c.size
    cov = record_covariance(protocol, w) / n_segments
    basis, _ = np.linalg.qr(np.stack((np.ones(w), t[:w] - t[:w].mean()), 1))
    proj = np.eye(w) - basis @ basis.T
    mu, pc = proj @ n[:w], proj @ cov
    mean = np.trace(pc) + mu @ mu
    sd = math.sqrt(2.0 * np.trace(pc @ pc) + 4.0 * mu @ cov @ mu)
    return (math.sqrt(c @ cov @ c),
            math.sqrt((mean + 4.0 * sd) * (c @ c) / (w - 2)))


def traced_peak(f):
    """(f(), the peak bytes traced while it ran).  numpy reports its data
    buffers to tracemalloc, so the peak counts every array f allocates,
    and none that existed before the call."""
    import tracemalloc

    tracemalloc.start()
    try:
        out = f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak
