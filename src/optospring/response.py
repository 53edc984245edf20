"""Frequency-domain linear model of the trap-plus-feedback loop.

The loop couples three signals: the light mirror displacement x1, the heavy
(actuated) mirror displacement x2, and the cavity length change
``dl = zeta1*x1 + zeta2*x2``.  The optical spring pushes back on the light
mirror through dl, and the servo pushes on the heavy mirror through dl.
Solving that signal flow for x1/F gives the effective susceptibility

    chi_eff = chi1 * (1 + zeta2*chi2*chi_fb)
              / (1 + zeta1^2*chi1*k_opt + zeta2*chi2*chi_fb)

whose denominator zeros are the closed-loop poles.  Fourier convention is
exp(+i*omega*t); a pole s = -gamma/2 + i*omega_eff is damped when
Re(s) < 0.  Each loop term is written once, for real grids and complex omega
alike.  The servo runs at g_el; switched off is ``with_gain(off_gain)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (AmbiguousBranchWarning, NoConvergenceError,
                     SingularResponseError, ValidationError)
from .model import (HBAR, TWO_PI, CavityParams, MirrorParams, ServoParams,
                    SystemConfig, intracavity_photons)
from .tables import write_table

# Relative magnitude below which a response denominator counts as singular.
DENOM_EPS = 1e-12

# Pole candidates closer than this (relative) are reported as ambiguous.
BRANCH_TOL = 0.01


@dataclass(frozen=True)
class ComplexResponse:
    """A complex transfer quantity sampled on an angular-frequency grid."""

    grid: np.ndarray     # rad/s, strictly increasing
    values: np.ndarray   # complex

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.size < 2 or grid.size != values.size:
            raise ValidationError("grid and values have equal length >= 2",
                                  "grid", grid.size)
        if np.any(np.diff(grid) <= 0):
            raise ValidationError("grid strictly increasing", "grid", None)
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise ValidationError("no NaN/Inf entries", "values", None)


@dataclass(frozen=True)
class EffectiveMode:
    """Trapped-mode frequency/damping extracted from the closed-loop poles."""

    omega_eff: float   # rad/s
    gamma_eff: float   # rad/s, positive = damped
    stable: bool       # every closed-loop pole has Re < 0
    pole: complex      # s = -gamma_eff/2 + i*omega_eff

    def __post_init__(self):
        if self.omega_eff < 0:
            raise ValidationError("omega_eff >= 0", "omega_eff", self.omega_eff)


# Loop terms: keep them free of float casts, the pole polish passes complex w.
def _bare_term(mirror: MirrorParams, w):
    return mirror.omega0**2 - w**2 + 1j * mirror.gamma0 * w


def _spring_denominator(kappa, detuning, w):
    return (kappa + 1j * w) ** 2 + detuning**2


def _spring_numerator(cavity: CavityParams) -> float:
    """2*hbar*g^2*n_cav(Delta)*Delta; the spring is this over its denominator."""
    n_cav = intracavity_photons(cavity)
    return 2.0 * HBAR * cavity.g_pull**2 * n_cav * cavity.detuning


def _servo_chain(servo: ServoParams, gain, w):
    out = 1j * w * gain
    for section in servo.sections:
        out = out * section.response(w)
    return out


def _spring_factor(zeta1, chi1, k_opt):
    return 1.0 + zeta1**2 * np.asarray(chi1) * np.asarray(k_opt)


def mech_susceptibility(mirror: MirrorParams, omega):
    """Bare mechanical susceptibility x/F with velocity damping, m/N."""
    chi = 1.0 / (mirror.mass * _bare_term(mirror, np.asarray(omega, dtype=float)))
    return chi if chi.shape else complex(chi)


def optical_spring(cavity: CavityParams, omega):
    """Detuned-cavity radiation-pressure spring constant, complex N/m.

    k_opt = 2*hbar*g^2*n_cav(Delta) * Delta / ((kappa + i*omega)^2 + Delta^2).
    Real part stiffens; for Delta > 0 the imaginary part is negative at
    positive frequency (anti-damping).
    """
    w = np.asarray(omega, dtype=float)
    denom = _spring_denominator(cavity.kappa, cavity.detuning, w)
    scale = cavity.kappa**2 + cavity.detuning**2
    if np.any(np.abs(denom) < DENOM_EPS * scale):
        raise SingularResponseError(
            f"optical spring denominator below {DENOM_EPS} * (kappa^2 + Delta^2)")
    k = _spring_numerator(cavity) / denom
    return k if k.shape else complex(k)


def adiabatic_spring(cavity: CavityParams) -> tuple[float, float]:
    """Low-frequency expansion of the spring: k_opt(w) ~ k0 * (1 - i*c1*w).

    Returns (k0, c1) with k0 in N/m and c1 = 2*kappa/(kappa^2 + Delta^2) in
    seconds.  Valid for omega << sqrt(kappa^2 + Delta^2), i.e. everywhere in
    the trapped-mode band of a MHz-linewidth cavity.
    """
    s2 = cavity.kappa**2 + cavity.detuning**2
    return _spring_numerator(cavity) / s2, 2.0 * cavity.kappa / s2


def rigid_trap_omega_sq(config: SystemConfig) -> float:
    """omega1^2 + zeta1^2*k0/m1: trapped frequency^2 of a rigid, static trap."""
    k0, _ = adiabatic_spring(config.cavity)
    return config.mirror1.omega0**2 + config.cavity.zeta1**2 * k0 / config.mirror1.mass


def servo_response(servo: ServoParams, omega):
    """Loop response of the feedback chain, i*omega*g_el times the sections."""
    out = _servo_chain(servo, servo.g_el, np.asarray(omega, dtype=float))
    return out if np.asarray(out).shape else complex(out)


def _loop(config: SystemConfig, w):
    """(chi1, chi2, k_opt, chi_fb) of the loop on a real grid."""
    return (mech_susceptibility(config.mirror1, w),
            mech_susceptibility(config.mirror2, w),
            optical_spring(config.cavity, w), servo_response(config.servo, w))


def effective_susceptibility(chi1, chi2, k_opt, chi_fb, zeta1, zeta2, omega=None):
    """Closed-loop susceptibility of the light mirror, m/N.

    Reduces to chi1 when both the spring and the servo are off.
    """
    servo_term = zeta2 * np.asarray(chi2) * np.asarray(chi_fb)
    denom = _spring_factor(zeta1, chi1, k_opt) + servo_term
    bad = np.abs(denom) < DENOM_EPS
    if np.any(bad):
        where = "" if omega is None else f" at omega = {np.asarray(omega)[bad]} rad/s"
        raise SingularResponseError(
            f"closed-loop denominator ~ 0{where}: |D| = {np.abs(denom).min():.3e}")
    out = np.asarray(chi1) * (1.0 + servo_term) / denom
    return out if out.shape else complex(out)


def open_loop_gain(config: SystemConfig, omega):
    """Servo open-loop gain zeta2*chi2*chi_fb / (1 + zeta1^2*chi1*k_opt)."""
    cav = config.cavity
    chi1, chi2, k_opt, chi_fb = _loop(config, omega)
    denom = _spring_factor(cav.zeta1, chi1, k_opt)
    if np.any(np.abs(denom) < DENOM_EPS):
        raise SingularResponseError("1 + zeta1^2*chi1*k_opt ~ 0")
    out = cav.zeta2 * np.asarray(chi2) * np.asarray(chi_fb) / denom
    return out if out.shape else complex(out)


def closed_loop_response(config: SystemConfig, omega_grid) -> ComplexResponse:
    """chi_eff evaluated on an angular-frequency grid."""
    w = np.asarray(omega_grid, dtype=float)
    chi_eff = effective_susceptibility(*_loop(config, w), config.cavity.zeta1,
                                       config.cavity.zeta2, omega=w)
    return ComplexResponse(grid=w, values=chi_eff)


# --------------------------------------------------------------------------
# closed-loop poles
# --------------------------------------------------------------------------

# Cells whose poles stability_map solves at once.  The solver holds ~0.8
# kB a cell (the 4 x 4 complex companion, its eigvals, the Newton arrays):
# the 12,000-cell map traced 10.2 MB in one batch, and 1.2 MB in blocks of
# 1024 cells, which ran no slower (101 against 119 ms).
MAP_BLOCK = 1024

# Floats a map cell still takes for the whole grid: stability_map's
# omega_eff and gamma_eff (2) and its three bool arrays (3 bytes, under 1),
# and write_map_csv's five columns (5): 8.
MAP_CELL_FLOATS = 8


def _characteristic_roots(config: SystemConfig, configs, gels) -> np.ndarray:
    """Roots (in complex omega, exp(+i w t)) of the closed-loop quartic at
    every (detuning, gain) cell, shape (n_delta, n_gel, 4), with ``configs``
    the config at each detuning.

    The denominator of chi_eff is cleared of both bare susceptibilities and
    the spring is used in its adiabatic first-order form, which turns the
    characteristic function into a polynomial:

      m1*m2*X1*X2 + zeta1^2*k0*(1 - i*c1*w)*m2*X2 + i*w*gel*zeta2*m1*X1 = 0,

    with Xj = omega_j^2 - w^2 + i*gamma_j*w.  The products are np.polymul's
    convolutions (every leading coefficient is nonzero, so it trims none),
    and one batched eigvals runs on the companion matrices np.roots builds,
    so each cell's roots equal np.roots' bit for bit.  The one difference:
    np.roots strips a zero constant coefficient (only at omega_trap^2 = 0),
    where the companion keeps a zero eigenvalue, so the roots are the same
    set in another order.
    """
    m1, m2 = config.mirror1, config.mirror2
    x1 = np.array([-1.0, 1j * m1.gamma0, m1.omega0**2])  # X1 coefficients, w^2..w^0
    x2 = np.array([-1.0, 1j * m2.gamma0, m2.omega0**2])
    bare = m1.mass * m2.mass * np.convolve(x1, x2)
    servo_gain = np.asarray(gels, dtype=float) * config.cavity.zeta2 * m1.mass
    servo = servo_gain[:, None] * np.convolve([1j, 0.0], x1)
    coeffs = np.zeros((len(configs), servo.shape[0], 5), dtype=complex)
    for i, cav in enumerate(cfg.cavity for cfg in configs):
        k0, c1 = adiabatic_spring(cav)
        spring = cav.zeta1**2 * k0 * m2.mass * np.convolve([-1j * c1, 1.0], x2)
        coeffs[i, :, 1:] = spring + servo
    coeffs = (bare + coeffs).reshape(-1, 5)  # np.polyadd's zero-padded sum
    companion = np.zeros((coeffs.shape[0], 4, 4), dtype=complex)
    companion[:, 1:, :-1] = np.eye(3)
    companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    return np.linalg.eigvals(companion).reshape(len(configs), -1, 4)


def _characteristic_exact(config: SystemConfig, deltas, springs, gels, w):
    """Characteristic function with the full rational spring and the full
    servo chain (filter sections included, by analytic continuation):
    m1*m2*X1*X2 times the closed-loop denominator of chi_eff.  Per-cell
    detunings, their ``_spring_numerator`` and gains broadcast against w."""
    m1, m2, cav = config.mirror1, config.mirror2, config.cavity
    x1, x2 = _bare_term(m1, w), _bare_term(m2, w)
    k_opt = springs / _spring_denominator(cav.kappa, deltas, w)
    chi_fb = _servo_chain(config.servo, gels, w)
    return (m1.mass * m2.mass * x1 * x2
            + cav.zeta1**2 * k_opt * m2.mass * x2
            + chi_fb * cav.zeta2 * m1.mass * x1)


def _trapped_poles(config: SystemConfig, deltas, gels):
    """Pick and polish the trapped pole of every (detuning, gain) cell.

    Pick: of the quartic's Re >= 0 roots (each mode also appears as
    -conj(w)), the one whose frequency is nearest the rigid-trap estimate;
    in a tie (the two nearest both kept and within BRANCH_TOL) the larger.
    Polish: Newton on the exact characteristic, all cells at once as masked
    arrays, with a central-difference derivative (O(h^2) for the analytic
    characteristic, whatever the servo chain), h = 1e-7*max(|w|, scale) and
    scale = max(|w0|, omega1).  A cell converges at its first step with
    |step| <= 1e-12*max(|w|, scale); it fails on a zero derivative, a
    non-finite or runaway (|w| > 1e4*scale) iterate, or after 60 steps.

    Returns, per cell: stable (every quartic root decays), tie, candidates
    (|Re| of the two nearest, trailing axis), seed (the pick), root (the
    polished pole; the last iterate on failure), failure ("" or why) and
    moved (converged more than BRANCH_TOL from the seed).
    """
    configs = [config.with_detuning(float(d)) for d in deltas]
    roots = _characteristic_roots(config, configs, gels)
    guess = np.array([math.sqrt(max(rigid_trap_omega_sq(cfg), 0.0))
                      for cfg in configs])[:, None, None]
    keep = roots.real >= -1e-9 * np.maximum(guess, 1.0)
    keep |= ~keep.any(axis=-1, keepdims=True)
    dist = np.where(keep, np.abs(np.abs(roots.real) - guess), np.inf)
    order = np.argsort(dist, axis=-1, kind="stable")
    nearest = np.take_along_axis(roots, order[..., :2], axis=-1)
    candidates = np.abs(nearest.real)
    a, b = candidates[..., 0], candidates[..., 1]
    tie = (keep.sum(axis=-1) > 1) & (
        np.abs(a - b) <= BRANCH_TOL * np.maximum(np.maximum(a, b), 1e-300))
    seed = np.where(tie & (b > a), nearest[..., 1], nearest[..., 0])

    delta = np.repeat(np.asarray(deltas, dtype=float), len(gels))
    spring = np.repeat([_spring_numerator(cfg.cavity) for cfg in configs], len(gels))
    gel = np.tile(np.asarray(gels, dtype=float), len(configs))
    w = seed.flatten()
    scale = np.maximum(np.abs(w), config.mirror1.omega0)
    failure = np.full(w.size, "pole polishing did not converge in 60 steps",
                      dtype=object)
    live = np.arange(w.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(60):
            wl, sl = w[live], scale[live]
            h = 1e-7 * np.maximum(np.abs(wl), sl)
            f, up, down = _characteristic_exact(
                config, delta[live], spring[live], gel[live],
                np.stack([wl, wl + h, wl - h]))
            df = (up - down) / (2.0 * h)
            flat = df == 0
            step = f / df
            w[live] = wl = np.where(flat, wl, wl - step)
            wild = ~flat & (~np.isfinite(wl) | (np.abs(wl) > 1e4 * sl))
            done = ~flat & ~wild & (
                np.abs(step) <= 1e-12 * np.maximum(np.abs(wl), sl))
            failure[live[flat]] = "zero derivative while polishing pole"
            failure[live[wild]] = "pole polishing diverged"
            failure[live[done]] = ""
            live = live[~(flat | wild | done)]
            if not live.size:
                break
    root, failure = w.reshape(seed.shape), failure.reshape(seed.shape)
    moved = (failure == "") & (
        np.abs(root - seed) > BRANCH_TOL * np.maximum(np.abs(seed), 1e-300))
    stable = np.all(roots.imag > 0, axis=-1)  # exp(+iwt): Im > 0 means decay
    return stable, tie, candidates, seed, root, failure, moved


def extract_mode(config: SystemConfig, gel: float | None = None) -> EffectiveMode:
    """Locate the trapped-mode pole and classify overall stability.

    The one-cell case of ``stability_map``.  The trapped branch is the root
    nearest the rigid-trap estimate sqrt(omega1^2 + zeta1^2*k0/m1); a tie
    within 1% picks the larger frequency and emits an AmbiguousBranchWarning,
    as does a polish on the exact characteristic that moves the root by more
    than 1%.  A polish that fails raises NoConvergenceError.
    """
    gel = config.servo.g_el if gel is None else gel
    poles = _trapped_poles(config, [config.cavity.detuning], [gel])
    stable, tie, candidates, seed, root, failure, moved = (p[0, 0] for p in poles)
    if tie:
        warnings.warn(
            f"two pole candidates within {BRANCH_TOL:.0%} "
            f"(|w| = {candidates[0]:.6g} and {candidates[1]:.6g} rad/s); "
            "picking the larger", AmbiguousBranchWarning, stacklevel=2)
    seed, polished = complex(seed), complex(root)
    if failure:
        raise NoConvergenceError(failure, [seed, polished])
    if moved:
        warnings.warn(
            f"polished pole moved by more than {BRANCH_TOL:.0%} "
            f"({seed:.6g} -> {polished:.6g})", AmbiguousBranchWarning, stacklevel=2)
    if polished.real < 0:
        polished = -polished.conjugate()
    pole = complex(1j * polished)  # s-plane: Re(s) = -gamma/2, Im(s) = omega
    return EffectiveMode(omega_eff=float(abs(polished.real)),
                         gamma_eff=float(2.0 * polished.imag),
                         stable=bool(stable), pole=pole)


def cancellation_gain(config: SystemConfig, omega_eff: float) -> float:
    """Differentiator gain m2*omega_eff^2/kappa that nominally offsets the
    spring's anti-damping (exact at Delta = kappa for a rigid trap)."""
    return config.mirror2.mass * omega_eff**2 / config.cavity.kappa


@dataclass(frozen=True)
class StabilityMap:
    """extract_mode evaluated on a (detuning, gain) grid."""

    deltas: np.ndarray        # rad/s
    gels: np.ndarray          # N*s/m
    omega_eff: np.ndarray     # rad/s, shape (n_delta, n_gel)
    gamma_eff: np.ndarray     # rad/s
    stable: np.ndarray        # bool; False where not converged
    converged: np.ndarray     # bool; False marks per-cell pole failures (NaN)
    ambiguous: np.ndarray     # bool; cells where extract_mode would warn


def stability_map(config: SystemConfig, delta_values, gel_values) -> StabilityMap:
    """Evaluate the trapped mode over a detuning x gain grid.

    Failed cells are flagged in ``converged`` and the map is still returned;
    cells with an AmbiguousBranchWarning's tie or large polish step are
    flagged in ``ambiguous``.  The poles are solved a block of whole
    detuning rows (MAP_BLOCK cells, or one row where a row is larger) at a
    time, each cell on its own, so beside the returned arrays the map holds
    one block's solver arrays at most.
    """
    deltas = np.atleast_1d(np.asarray(delta_values, dtype=float))
    gels = np.atleast_1d(np.asarray(gel_values, dtype=float))
    if deltas.size == 0 or gels.size == 0:
        raise ValidationError("ranges nonempty", "delta_values/gel_values", None)
    shape = (deltas.size, gels.size)
    omega_eff, gamma_eff = np.empty(shape), np.empty(shape)
    stable, converged, ambiguous = (np.empty(shape, dtype=bool) for _ in range(3))
    rows = max(1, MAP_BLOCK // gels.size)
    for i in range(0, deltas.size, rows):
        block = slice(i, i + rows)
        steady, tie, _, _, root, failure, moved = _trapped_poles(
            config, deltas[block], gels)
        ok = converged[block] = failure == ""
        omega_eff[block] = np.where(ok, np.abs(root.real), np.nan)
        gamma_eff[block] = np.where(ok, 2.0 * root.imag, np.nan)
        stable[block], ambiguous[block] = ok & steady, tie | moved
    return StabilityMap(deltas=deltas, gels=gels, omega_eff=omega_eff,
                        gamma_eff=gamma_eff, stable=stable,
                        converged=converged, ambiguous=ambiguous)


# --------------------------------------------------------------------------
# CSV emitters
# --------------------------------------------------------------------------

def write_response_csv(path, response: ComplexResponse, comment: str = ""):
    """Columns: f_Hz, re, im, mag, phase_deg."""
    v = response.values
    # Python's abs and atan2: numpy's vector forms differ in the last ulp
    z = v.tolist()
    write_table(path, ("f_Hz", "re", "im", "mag", "phase_deg"),
                (response.grid / TWO_PI, v.real, v.imag, [abs(c) for c in z],
                 [math.degrees(math.atan2(c.imag, c.real)) for c in z]),
                (comment,))


def write_map_csv(path, smap: StabilityMap, comment: str = ""):
    """Columns: delta_Hz, gel, f_eff_Hz, gamma_eff_Hz, stable."""
    columns = (np.repeat(smap.deltas / TWO_PI, smap.gels.size),
               np.tile(smap.gels, smap.deltas.size), smap.omega_eff / TWO_PI,
               smap.gamma_eff / TWO_PI, smap.stable.astype(int))
    write_table(path, ("delta_Hz", "gel", "f_eff_Hz", "gamma_eff_Hz", "stable"),
                (c.ravel() for c in columns), (comment,))
