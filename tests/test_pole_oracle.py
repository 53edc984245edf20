"""mpmath oracle for the closed-loop poles.

The oracle writes the exact characteristic function from the config's
fields and physical constants alone (no ``response`` helper, no
``intracavity_photons``) and solves it with ``mpmath.findroot`` at 30
digits, starting from the solver's pole.  Every sampled cell's pole
``w = omega_eff + i*gamma_eff/2`` (exp(+i w t)) must sit within 1e-14 of
the oracle's root, relative to its magnitude.
"""

import dataclasses

import mpmath as mp
import numpy as np
import pytest
from scipy.constants import hbar

from optospring.cli import _auto_delta_range, _auto_gel_range
from optospring.model import TWO_PI, FilterSection
from optospring.response import stability_map

REL_TOL = 1e-14


def _oracle_root(config, delta, gel, start):
    """Root near ``start`` of m1*m2*X1*X2 + zeta1^2*k_opt*m2*X2
    + i*w*gel*(sections)*zeta2*m1*X1, an mpc at 30 digits."""
    m1, m2, cav = config.mirror1, config.mirror2, config.cavity
    with mp.workdps(30):
        f = mp.mpf
        kappa, delta, gel = f(cav.kappa), f(delta), f(gel)
        if cav.n_cav_peak is not None:
            n_peak = f(cav.n_cav_peak)
        else:
            flux = f(cav.input_power) / (f(hbar) * f(cav.omega_laser))
            n_peak = 2 * f(cav.kappa_in_ratio) * kappa * flux / kappa**2
        n_cav = n_peak / (1 + (delta / kappa) ** 2)
        spring = 2 * f(hbar) * f(cav.g_pull) ** 2 * n_cav * delta
        masses = f(m1.mass) * f(m2.mass)
        norm = masses * abs(mp.mpc(start)) ** 4

        def char(w):
            x1 = f(m1.omega0) ** 2 - w**2 + 1j * f(m1.gamma0) * w
            x2 = f(m2.omega0) ** 2 - w**2 + 1j * f(m2.gamma0) * w
            k_opt = spring / ((kappa + 1j * w) ** 2 + delta**2)
            servo = 1j * w * gel
            for section in config.servo.sections:
                corner = f(section.corner)
                if section.kind == "gain":
                    servo *= corner
                elif section.kind == "highpass":
                    servo *= (1j * w / corner) / (1 + 1j * w / corner)
                else:
                    servo *= 1 / (1 + 1j * w / corner)
            return (masses * x1 * x2 + f(cav.zeta1) ** 2 * k_opt * f(m2.mass) * x2
                    + servo * f(cav.zeta2) * f(m1.mass) * x1) / norm

        return mp.findroot(char, mp.mpc(start))


def _map_errors(config, deltas, gels, cells):
    """|w - w_mp|/|w_mp| at ``cells`` (index pairs) of the map."""
    smap = stability_map(config, deltas, gels)
    assert smap.converged.all()
    errors = []
    for i, j in cells:
        w = complex(smap.omega_eff[i, j], smap.gamma_eff[i, j] / 2.0)
        w_mp = _oracle_root(config, deltas[i], gels[j], w)
        with mp.workdps(30):
            errors.append(float(abs(mp.mpc(w) - w_mp) / abs(w_mp)))
    return smap, np.array(errors)


def test_benchmark_grid_poles_against_mpmath(experiment_config):
    """The experiment preset's 120 x 100 map: every cell beside a flip of
    ``stable`` along the gain axis in every third row, and 60 more drawn
    at random."""
    deltas = TWO_PI * np.linspace(0.0, 1.7e6, 120)
    gels = np.linspace(0.0, 1.5, 100)
    smap = stability_map(experiment_config, deltas, gels)
    flips = np.argwhere(np.diff(smap.stable.astype(int), axis=1) != 0)
    flips = flips[flips[:, 0] % 3 == 0]
    assert flips.size
    rng = np.random.default_rng(17)
    cells = {(i, j) for i, j in flips} | {(i, j + 1) for i, j in flips}
    cells |= set(zip(rng.integers(0, 120, 60), rng.integers(0, 100, 60)))
    _, errors = _map_errors(experiment_config, deltas, gels, sorted(cells))
    assert len(errors) >= 100
    assert errors.max() <= REL_TOL


def test_ideal_auto_grid_poles_against_mpmath(ideal_config):
    """All of the ideal preset's auto grid, its 9 ambiguous cells included."""
    deltas = TWO_PI * np.linspace(*_auto_delta_range(ideal_config))
    gels = np.linspace(*_auto_gel_range(ideal_config))
    cells = [(i, j) for i in range(deltas.size) for j in range(gels.size)]
    smap, errors = _map_errors(ideal_config, deltas, gels, cells)
    assert int(smap.ambiguous.sum()) == 9
    assert errors.max() <= REL_TOL


@pytest.mark.parametrize("sections", [
    (FilterSection("highpass", TWO_PI * 40.0), FilterSection("lowpass", TWO_PI * 2e3)),
    (FilterSection("gain", 10.0),),
], ids=["highpass-lowpass", "gain"])
def test_sectioned_servo_poles_against_mpmath(experiment_config, sections):
    """The experiment preset with filter sections the quartic seed does not
    know, so the polish does all of the work."""
    config = dataclasses.replace(experiment_config, servo=dataclasses.replace(
        experiment_config.servo, sections=sections), raw_items=())
    deltas = np.linspace(0.1, 3.0, 6) * config.cavity.kappa
    gels = np.linspace(0.0, 1.5, 8)
    cells = [(i, j) for i in range(deltas.size) for j in range(gels.size)]
    _, errors = _map_errors(config, deltas, gels, cells)
    assert errors.max() <= REL_TOL
