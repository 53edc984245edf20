"""Quantum-coherence condition and the feasibility budget for optical dilution.

The budget answers: for a prospective trap (mass, trapped frequency, laser
frequency-noise level, cavity length, suspension quality factor, bath
temperature), how many coherent oscillations fit before one phonon of
excitation?  Both contributions are recomputed from the heating-rate law; no
fitted coefficients are baked in.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .errors import ValidationError
from .model import HBAR, K_B, TWO_PI, SystemConfig

# Laser frequency used for the frequency-pull coefficient when the budget is
# given only a cavity length (1064-nm-class source, ~300 THz).
DEFAULT_OMEGA_LASER = TWO_PI * 300e12


@dataclass(frozen=True)
class CoherenceBudget:
    """Decoherence budget 1/n_osc split into bath and trap-noise shares."""

    inv_n_osc_thermal: float
    inv_n_osc_trap: float
    n_osc: float
    condition_margin: float   # S_phidot(w_eff) * w_eff / g0^2; < 1 is coherent
    g0: float                 # single-photon coupling, rad/s

    def __post_init__(self):
        total = self.inv_n_osc_thermal + self.inv_n_osc_trap
        if total > 0 and not math.isclose(self.n_osc, 1.0 / total,
                                          rel_tol=1e-12):
            raise ValidationError("n_osc = 1/(inv_thermal + inv_trap)",
                                  "n_osc", self.n_osc)

    @property
    def satisfied(self) -> bool:
        """Strict: a margin of exactly 1 does not qualify."""
        return self.condition_margin < 1.0

    def to_json(self) -> str:
        payload = asdict(self)
        payload["satisfied"] = self.satisfied
        return json.dumps(payload, indent=2, sort_keys=True)

    def verdict_line(self) -> str:
        verdict = "achievable" if (self.satisfied and self.n_osc > 1.0) else \
            ("coherent but n_osc <= 1" if self.satisfied else "not achievable")
        return (f"n_osc = {self.n_osc:.3g} "
                f"(thermal 1/n_osc = {self.inv_n_osc_thermal:.3g}, "
                f"trap 1/n_osc = {self.inv_n_osc_trap:.3g}, "
                f"margin = {self.condition_margin:.3g}): {verdict}")


def heating_rates(m1: float, gamma1: float, omega_eff: float,
                  temperature: float, sphi: float, g: float
                  ) -> tuple[float, float]:
    """The heating-rate law: initial d<n>/dt of the trapped mode, phonons/s.

    Returns (thermal, trap): the bath term kB*T*gamma1/(hbar*omega_eff) and
    the trap-noise term m1*omega_eff^3*S_phidot/(hbar*g^2), for mass m1
    (kg), bare damping gamma1 and trapped frequency omega_eff (rad/s), bath
    temperature T (K), S_phidot at omega_eff (Hz^2/Hz) and frequency pull g
    (rad/s per m).
    """
    if omega_eff <= 0:
        raise ValidationError("omega_eff > 0", "omega_eff", omega_eff)
    thermal = K_B * temperature * gamma1 / (HBAR * omega_eff)
    if sphi == 0.0:
        trap = 0.0
    elif g <= 0:
        raise ValidationError("g_pull > 0 when frequency noise is present",
                              "g_pull", g)
    else:
        trap = m1 * omega_eff**3 * sphi / (HBAR * g**2)
    return thermal, trap


def feasibility_budget(m1: float, omega_eff: float,
                       noise_amp_at_omega_eff: float, length: float,
                       q1: float, omega1: float, temperature: float,
                       g_pull: float | None = None) -> CoherenceBudget:
    """Build the 1/n_osc budget from first principles.

    Arguments: mirror mass (kg), trapped angular frequency (rad/s), laser
    frequency-noise amplitude at the trapped frequency (Hz/sqrt(Hz)), cavity
    round-trip length (m), suspension quality factor, bare angular frequency
    (rad/s), bath temperature (K), and the frequency pull g (rad/s per m;
    default DEFAULT_OMEGA_LASER/L).

    Each term is rate/f_eff with the heating-rate law evaluated directly.
    """
    for name, val in (("m1", m1), ("omega_eff", omega_eff), ("L", length),
                      ("Q1", q1), ("omega1", omega1)):
        if not 0 < val < math.inf:
            raise ValidationError(f"{name} > 0 and finite", name, val)
    if not 0 <= temperature < math.inf:
        raise ValidationError("T >= 0 and finite", "temperature", temperature)
    if not 0 <= noise_amp_at_omega_eff < math.inf:
        raise ValidationError("noise amp >= 0 and finite",
                              "noise_amp_at_omega_eff", noise_amp_at_omega_eff)
    if g_pull is not None and not math.isfinite(g_pull):
        raise ValidationError("g_pull finite", "g_pull", g_pull)

    g = DEFAULT_OMEGA_LASER / length if g_pull is None else g_pull
    f_eff = omega_eff / TWO_PI
    sphi = noise_amp_at_omega_eff**2
    rate_thermal, rate_trap = heating_rates(m1, omega1 / q1, omega_eff,
                                            temperature, sphi, g)
    inv_thermal = rate_thermal / f_eff
    inv_trap = rate_trap / f_eff
    # single-photon coupling: g times the zero-point amplitude at the
    # trapped frequency, whose coherence the condition governs
    g0 = g * math.sqrt(HBAR / (2.0 * m1 * omega_eff))
    # g0 = 0 only at g = 0, where heating_rates refuses any noise: 0 < 0
    # is false, so that zero-coupling boundary case counts as failed
    margin = sphi * omega_eff / g0**2 if g0 else 1.0
    total = inv_thermal + inv_trap
    n_osc = 1.0 / total if total > 0 else math.inf
    return CoherenceBudget(inv_n_osc_thermal=float(inv_thermal),
                           inv_n_osc_trap=float(inv_trap), n_osc=float(n_osc),
                           condition_margin=float(margin), g0=float(g0))


def config_budget(config: SystemConfig, omega_eff: float) -> CoherenceBudget:
    """The budget of a configured system at its trapped frequency, with the
    configured frequency pull ``cavity.g_pull``."""
    m1, cav, noise = config.mirror1, config.cavity, config.noise
    return feasibility_budget(
        m1=m1.mass, omega_eff=omega_eff,
        noise_amp_at_omega_eff=float(noise.sqrt_sphidot(omega_eff / TWO_PI)),
        length=cav.length, q1=m1.quality_factor, omega1=m1.omega0,
        temperature=noise.temperature, g_pull=cav.g_pull)
