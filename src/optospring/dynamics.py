"""Time-domain stochastic simulation of the trapped mirror.

The heavy mirror and the cavity field are adiabatically eliminated (they are
fast and stiff compared with the trapped mode), which reduces the loop to a
single degree of freedom with piecewise-constant coefficients:

    m1*xdd = -m1*(omega1^2 + zeta1^2*k0/m1)*x
             - m1*(gamma1 - gamma_opt + zeta2*g_el(t)/m2)*xd
             + F_th(t) + F_trap(t)

where k0 is the static optical spring, gamma_opt = zeta1^2*k0*c1/m1 is the
spring's anti-damping rate, g_el(t) follows the square-wave servo schedule,
F_th is white thermal force noise (one-sided PSD 4*kB*T*gamma1*m1), and
F_trap is the laser-frequency-noise force shaped by a first-order filter so
its one-sided PSD matches 4*m1^2*omega_ref^4*S_phidot(f)/g^2 around the
trapped resonance.

Within each servo phase the system (x, v, F_trap) is a linear SDE with
constant coefficients, so the exact Gaussian map over any interval
(transition matrix and process-noise covariance from the Van Loan block
exponential) advances it.  That makes the integrator unconditionally
stable, exactly energy-conserving in the noise-free limit, and exact for
the statistics at any step size; dt only sets the sampling resolution.

Every map is a ``PhaseMap`` (Phi, Q = N N^T): ``_repeat`` builds each
n-step map by squaring, and ``PhaseMap.run`` applies every one, on three
normals per map step.  A kernel step spans one recorded interval,
``record_stride`` = s steps of dt; by default s = max(10, steps //
RECORDS_PER_PHASE), about 2,000 records per phase.  A phase is R - 1 such
strides, R = ceil(steps/s), then one remainder step to the phase end.
There is no burn-in: each trajectory starts with one step of the start
map (Phi = 0, Q = the cooled stationary covariance) on the first three
normals of its stream.  Within a phase the map is a linear filter, so
``PhaseMap.run`` advances all trajectories by up to DRAW_BLOCK // s
strides per call, as first-order sections on the SDE's exact poles,
each a scaled cumulative sum (``PhaseMap._advance``).  Every trajectory
draws from its own counter-based RNG stream derived from (master_seed,
trajectory index), or (master_seed, scan row, trajectory index) past a
scan's first row, and chunk edges depend only on the plan, so results are
bit-identical no matter how trajectories are batched.  Runs at different
strides sample the same law, not the same realisation.

``_protocol`` derives the switch protocol, its maps and the runaway bound
from a plan once, and ``_walk`` runs it, yielding each kernel call's
records to ``run_ensemble`` (the relaxation phonon numbers) or
``simulate_trajectory`` (one timeline).  ``run_ensemble`` reads no
re-cooling record, so it crosses each re-cooling phase in one step of the
whole phase's map.  ``simulate_trajectory`` walks every stride of every
phase.  The sampling-free oracle, ``_moments``, walks the same phases
once, stride by stride, with the state's second moment, M <- Phi M Phi^T
+ Q.  Its relaxation moments give ``exact_mean_phonon``'s curve and, by
``_exact_variance`` (Isserlis' theorem, one FFT correlation), the exact
variance of any linear functional of a segment's records, which gives
the initial slope and the fitted gamma their exact errors.
``measure_rate`` fits both curves, gives both fits their exact errors (the
OLS error stays beside them as the naive one) and sets them beside the
rate law at the servo-off pole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import heating_rates
from .errors import (FitError, InstabilityError, InsufficientDataError,
                     OptospringError, ValidationError)
from .fitting import separable_fit
from .model import HBAR, K_B, TWO_PI, NoiseEnv, SystemConfig
from .response import (EffectiveMode, adiabatic_spring, cancellation_gain,
                       extract_mode, rigid_trap_omega_sq)
from .tables import write_table

# Steps of dt per kernel call at most (DRAW_BLOCK // record_stride whole
# strides, three normals each); chunks are counted from each phase start,
# never from the batch.  A call draws each row's normals in one Philox call,
# so longer chunks pay that call's overhead less often.
DRAW_BLOCK = 8192

# Records per phase that the default stride aims at: record_stride=None
# resolves to max(10, steps // RECORDS_PER_PHASE) steps of dt, so the 5% fit
# window keeps >= 100 records, where the initial slope's exact error is
# within 1% of its stride-1 value, and no plan records finer than stride 10.
RECORDS_PER_PHASE = 2000

# Floats in a plan's largest array at most, 400 MB of float64: the (B,
# periods, R) phonon block or the (periods, R, 3, 3) exact moments, which
# outgrow simulate_trajectory's four (2 periods - 1) R timeline arrays (t,
# x, v, n).
MAX_PLAN_FLOATS = 50_000_000

# A kernel block runs at most as many map steps as keep every pole power
# |lam|^+-k within this factor of 1, so a strongly damped map (the
# overdamped regime) runs shorter blocks; products stay far from overflow.
POLE_GROWTH = 1e100

# Trap-noise shaping-filter corner sits this far below the trapped resonance
# (keeps the synthesized force PSD within 5% of the 1/f^2 target from
# omega_ref/10 up through the resonance).
OU_CORNER_DIVISOR = 50.0

# Runaway guard: |x| beyond this many thermal RMS aborts the run.
BLOWUP_FACTOR = 1e6


@dataclass(frozen=True)
class SimPlan:
    """Monte Carlo protocol: step size, duration, ensemble size, seeding.

    ``duration`` counts from the first cooling switch-off and must cover at
    least one full switch period.  ``dt=None`` resolves to 1/(200*f_ref)
    (``resolve_dt``), f_ref the servo-off trapped frequency.  Every
    ``record_stride``-th state is recorded, and the Monte Carlo steps
    straight from one record to the next.  ``record_stride=None`` resolves
    to max(10, steps // RECORDS_PER_PHASE), with steps the servo
    half-period in steps of dt: 47 (2,022 records per phase) on the
    experiment preset, and 10 for any phase under 20,000 steps.
    """

    duration: float
    n_trajectories: int
    master_seed: int
    dt: float | None = None
    record_stride: int | None = None

    def __post_init__(self):
        if self.master_seed < 0:
            raise ValidationError("master_seed >= 0", "master_seed",
                                  self.master_seed)
        if self.n_trajectories < 1:
            raise ValidationError("n_trajectories >= 1",
                                  "n_trajectories", self.n_trajectories)
        if not 0 < self.duration < math.inf:
            raise ValidationError("duration finite and > 0", "duration", self.duration)
        if self.record_stride is not None and self.record_stride < 1:
            raise ValidationError("record_stride >= 1",
                                  "record_stride", self.record_stride)
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValidationError("dt finite and > 0", "dt", self.dt)

    def resolve_dt(self, omega_ref: float) -> float:
        """The step size: ``dt``, or 1/(200*f_ref) when it is None."""
        return self.dt if self.dt is not None else 1.0 / (200.0 * omega_ref / TWO_PI)


@dataclass(frozen=True)
class EnsembleResult:
    """Aligned rethermalization segments and the fitted decoherence rate."""

    time_grid: np.ndarray          # s, t = 0 at switch-off
    mean_phonon: np.ndarray        # <n(t)> over all segments
    fitted_rate: float             # phonons/s, initial-slope fit
    fitted_rate_err: float         # OLS standard error of the mean curve's fit
    fitted_gamma_eff: float        # rad/s, from the exponential fit
    omega_ref: float               # rad/s, servo-off trapped frequency
    n_segments: int
    gamma_fit_error: str = ""      # why fitted_gamma_eff is NaN, if it is


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    slope_err: float
    intercept: float
    window: float   # s


@dataclass(frozen=True)
class RateMeasurement:
    """One rethermalization measurement beside its predictions, at the
    config's detuning.  Rates are phonons/s; every number is NaN, and
    ``error`` says why, where the run failed."""

    delta: float                      # rad/s, cavity detuning
    omega_eff: float = math.nan       # rad/s, servo-off pole
    rate_measured: float = math.nan   # ensemble initial slope
    rate_ols_err: float = math.nan    # its OLS standard error
    rate_exact: float = math.nan      # initial slope of exact_mean_phonon
    rate_exact_err: float = math.nan  # exact SD of rate_measured
    gamma_exact: float = math.nan     # rad/s, exponential fit of exact_mean_phonon
    gamma_exact_err: float = math.nan  # exact SD of the fitted gamma (delta method)
    rate_predicted: float = math.nan  # rate law at omega_eff: thermal + trap
    rate_thermal: float = math.nan
    rate_trap: float = math.nan
    n_osc: float = math.nan           # f_eff / rate_measured
    gamma_off: float = math.nan       # rad/s, servo-off damping; <= 0 grows
    dt: float = math.nan              # s, the resolved step
    record_stride: int | None = None  # the resolved stride
    ensemble: EnsembleResult | None = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


# --------------------------------------------------------------------------
# reduced model coefficients and the exact phase map
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedModel:
    """Single-degree-of-freedom coefficients for both servo phases."""

    mass: float
    omega_trap_sq: float    # rad^2/s^2, spring included
    omega_ref: float        # rad/s, phonon reference (servo-off trap)
    gamma_on: float         # rad/s
    gamma_off: float
    off_gain: float         # resolved N*s/m
    s_f_thermal: float      # one-sided thermal force PSD, N^2/Hz
    ou_corner: float        # rad/s
    ou_force_var: float     # stationary trap-noise force variance, N^2


def reduced_model(config: SystemConfig, noise: NoiseEnv) -> ReducedModel:
    """Adiabatic single-mode reduction of the closed loop."""
    m1, m2, cav, servo = (config.mirror1, config.mirror2,
                          config.cavity, config.servo)
    k0, c1 = adiabatic_spring(cav)
    omega_trap_sq = rigid_trap_omega_sq(config)
    if omega_trap_sq <= 0:
        raise InstabilityError(
            f"optical spring inverts the trap (omega_trap^2 = {omega_trap_sq:.4g})")
    omega_ref = math.sqrt(omega_trap_sq)
    gamma_opt = cav.zeta1**2 * k0 * c1 / m1.mass
    off_gain = servo.off_gain
    if off_gain is None:
        off_gain = cancellation_gain(config, omega_ref)
    gamma_on = m1.gamma0 - gamma_opt + cav.zeta2 * servo.g_el / m2.mass
    gamma_off = m1.gamma0 - gamma_opt + cav.zeta2 * off_gain / m2.mass

    s_f_thermal = 4.0 * K_B * noise.temperature * m1.gamma0 * m1.mass
    ou_corner = omega_ref / OU_CORNER_DIVISOR
    f_ref = omega_ref / TWO_PI
    sphi_at_ref = noise.sphidot(f_ref)  # Hz^2/Hz
    if sphi_at_ref > 0 and cav.g_pull <= 0:
        raise ValidationError("g_pull > 0 when frequency noise is present",
                              "g_pull", cav.g_pull)
    if sphi_at_ref == 0.0:
        ou_force_var = 0.0
    else:
        # match the 1/f^2 force target 4*m1^2*w_ref^4*S_phidot(f)/g^2 at
        # high f: an OU force with S(f) = 4*<F^2>*w_c/(w_c^2+w^2) needs
        # <F^2> = m1^2*w_ref^4*(2*pi)^2*S_phidot(f_ref)*f_ref^2/(g^2*w_c).
        ou_force_var = (m1.mass**2 * omega_ref**4 * (TWO_PI**2)
                        * sphi_at_ref * f_ref**2 / (cav.g_pull**2 * ou_corner))
    return ReducedModel(mass=m1.mass, omega_trap_sq=omega_trap_sq,
                        omega_ref=omega_ref, gamma_on=gamma_on,
                        gamma_off=gamma_off, off_gain=off_gain,
                        s_f_thermal=s_f_thermal, ou_corner=ou_corner,
                        ou_force_var=ou_force_var)


# [13/13] Pade numerator coefficients b_0 .. b_13, and the 1-norm up to
# which that approximant of exp is exact to double rounding (Higham, SIAM
# J. Matrix Anal. Appl. 26, 1179 (2005), Table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring: the [13/13] Pade approximant of
    exp(a / 2^s), s the least with ||a / 2^s||_1 <= theta_13, squared s
    times (Higham 2005).  It is carried as exp - I, (V - U)^-1 2U, and
    squared as (I + E)^2 - I = 2E + E^2, so an entry of exp(a) near 1
    is rounded once, at the end."""
    norm = float(np.abs(a).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a = a / 2.0**s
    b = _PADE13
    eye = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    e = np.linalg.solve(v - u, 2.0 * u)
    for _ in range(s):
        e = 2.0 * e + e @ e
    return eye + e


def _factor(cov: np.ndarray) -> np.ndarray:
    """A 3x3 N with N N^T = cov for a positive semidefinite cov.

    Each eigenvector's sign is fixed (its largest entry is positive), so a
    change of cov at rounding level cannot flip the sampled realisation."""
    evals, evecs = np.linalg.eigh(cov)
    evecs = evecs * np.sign(evecs[np.abs(evecs).argmax(axis=0), np.arange(3)])
    return evecs * np.sqrt(np.clip(evals, 0.0, None))


def _compose(first: tuple, then: tuple) -> tuple:
    """The Gaussian map (Phi, Q) of map ``first`` followed by map ``then``."""
    (pf, qf), (pt, qt) = first, then
    return pt @ pf, pt @ qf @ pt.T + qt


def _repeat(step: tuple, n: int) -> tuple:
    """(Phi^n, Q_n = sum_{k<n} Phi^k Q Phi^k^T) of n steps of the map
    (Phi, Q), by squaring and doubling (Q_2k = Q_k + Phi^k Q_k Phi^k^T):
    O(log n) 3x3 products."""
    result, power = (np.eye(3), np.zeros((3, 3))), step
    while n:
        if n & 1:
            result = _compose(result, power)
        n >>= 1
        if n:
            power = _compose(power, power)
    return result


class PhaseMap:
    """Exact Gaussian map z -> Phi z + N xi over ``substeps`` steps of dt of
    one servo phase, driven by three standard normals xi per map step.

    State z = (x, v, F_trap).  One step of dt has Phi1 = expm(A dt) and a
    noise covariance Q1 from the Van Loan block exponential (``_expm``),
    taken in (x, v, F) units of about (1, omega, m omega^2), which put
    every entry of A at the trap frequency's scale.  ``_repeat`` takes them
    to Phi = Phi1^s and ``cov`` = Q = sum_{k<s} Phi1^k Q1 Phi1^k^T,
    factored once as N.  One map step therefore samples the exact law of
    the state s steps of dt later.  ``PhaseMap.given`` makes any other map.
    """

    def __init__(self, mass: float, omega_sq: float, gamma: float,
                 s_f_thermal: float, ou_corner: float, ou_force_var: float,
                 dt: float, substeps: int = 1):
        a = np.array([[0.0, 1.0, 0.0],
                      [-omega_sq, -gamma, 1.0 / mass],
                      [0.0, 0.0, -ou_corner]])
        s_th = math.sqrt(s_f_thermal / 2.0) / mass       # <F F'> = (S/2) delta
        s_ou = math.sqrt(2.0 * ou_corner * ou_force_var)
        # the powers of two nearest (1, omega, m omega^2), so that scaling
        # and scaling back round nothing
        d = np.exp2(np.round(np.log2([1.0, omega_sq**0.5, mass * omega_sq])))
        a = a * d[None, :] / d[:, None]
        lmat = np.diag([0.0, s_th, s_ou]) / d[:, None]
        block = np.zeros((6, 6))
        block[:3, :3] = a
        block[:3, 3:] = lmat @ lmat.T
        block[3:, 3:] = -a.T
        eb = _expm(block * dt)
        phi1 = eb[:3, :3] * d[:, None] / d[None, :]
        q1 = eb[:3, 3:] @ eb[:3, :3].T * np.outer(d, d)
        pm = PhaseMap.given(*_repeat((phi1, 0.5 * (q1 + q1.T)), substeps))
        self.phi, self.cov, self.noise = pm.phi, pm.cov, pm.noise
        self._sde = (a, lmat, d)
        # log poles of one map step, exact from the SDE: (x, v) at
        # (-gamma/2 +- i omega_d) s dt, F at -ou_corner s dt
        h = substeps * dt
        root = np.sqrt(complex(0.25 * gamma * gamma - omega_sq))
        self._poles = ((-0.5 * gamma + root) * h, (-0.5 * gamma - root) * h,
                       -ou_corner * h)
        self._lams = tuple(np.exp(c) for c in self._poles)
        self._block = max(1, int(math.log(POLE_GROWTH) / max(
            1e-300, *(abs(c.real) for c in self._poles))))
        self._powers = None

    @classmethod
    def given(cls, phi: np.ndarray, cov: np.ndarray) -> PhaseMap:
        """The map (``phi``, ``cov``); it has no SDE, so no ``stationary``,
        and ``run`` steps it by the plain matrix recursion."""
        pm = cls.__new__(cls)
        pm.phi, pm.cov = phi, 0.5 * (cov + cov.T)
        pm.noise = _factor(pm.cov)
        pm._poles = None
        return pm

    def stationary(self) -> np.ndarray:
        """Stationary covariance of the phase's SDE: the Sigma with
        A Sigma + Sigma A^T + L L^T = 0, solved in its 9x9 vec form in the
        scaled units.  Only a damped phase has one."""
        a, lmat, d = self._sde
        eye = np.eye(3)
        sigma = np.linalg.solve(np.kron(eye, a) + np.kron(a, eye),
                                -(lmat @ lmat.T).ravel()).reshape(3, 3)
        return 0.5 * (sigma + sigma.T) * np.outer(d, d)

    def run(self, z: tuple, steps: int, xi: np.ndarray) -> tuple:
        """Advance a state (x, v, F) of (B,) arrays by ``steps`` steps of
        the map (each one of ``substeps`` steps of dt).

        ``xi`` holds the (B, steps, 3) standard normals of the steps.
        Returns (B, steps) arrays of x, v and F after each step.  Every
        operation is elementwise, in a fixed order, or a cumulative sum
        along the steps, so a trajectory's numbers do not depend on the
        batch.  A map of an SDE runs its steps in blocks (``_advance``) of
        at most ``_block`` steps; a given map steps one at a time.
        """
        w = [n0 * xi[..., 0] + n1 * xi[..., 1] + n2 * xi[..., 2]
             for n0, n1, n2 in self.noise]
        out = np.empty((3,) + w[0].shape)
        z = list(z)
        block = steps if self._poles is None else self._block
        for k in range(0, steps, block):
            m = min(block, steps - k)
            wk = [wi[:, k:k + m] for wi in w]
            if self._poles is None:
                for j in range(m):
                    z = out[:, :, k + j] = [
                        pi[0] * z[0] + pi[1] * z[1] + pi[2] * z[2] + wi[:, j]
                        for pi, wi in zip(self.phi, wk)]
            else:
                self._advance(z, wk, out[:, :, k:k + m])
                z = out[:, :, k + m - 1]
        return out[0], out[1], out[2]

    def _advance(self, z, w: list, out: np.ndarray):
        """``out[:, :, k]`` = the state after step k of a block of m steps,
        from the state z, driven by the (B, m) noise terms w.

        A first-order section y_k = lam y_{k-1} + g_k is
        y_k = lam^k (lam y_{-1} + sum_{j<=k} lam^-j g_j): a scaled cumsum.
        F is one such section with its real pole.  With u_k = Phi[:2, 2]
        F_{k-1} + w_k, (x, v) follows s_{k+1} = P s_k + u_k, P = Phi[:2, :2]
        with poles lam1, lam2.  By Cayley-Hamilton, r_k = s_{k+1} - lam1 s_k
        is the section r_k = lam2 r_{k-1} + u_k + (P - (lam1 + lam2)) u_{k-1}
        from r_0 = (P - lam1) s_0 + u_0, and s the section
        s_{k+1} = lam1 s_k + r_k: a cascade of two first-order sections,
        with no eigenvectors, so critical damping is no special case."""
        m = w[0].shape[-1]
        (p00, p01, pf0), (p10, p11, pf1) = self.phi[:2].tolist()
        lam1, lam2, lam_f = self._lams
        pos_f, neg_f, neg2, ratio, pos1 = self._pole_powers(m)
        f = out[2]
        np.multiply(w[2], neg_f, out=f)
        f[:, 0] += lam_f * z[2]
        np.cumsum(f, axis=-1, out=f)
        f *= pos_f
        f_before = np.empty_like(f)
        f_before[:, 0], f_before[:, 1:] = z[2], f[:, :-1]
        u0 = pf0 * f_before + w[0]
        u1 = pf1 * f_before + w[1]
        tr = (lam1 + lam2).real
        g = np.empty((2,) + f.shape)
        g[:, :, 0] = u0[:, 0], u1[:, 0]
        g[0, :, 1:] = u0[:, 1:] + (p00 - tr) * u0[:, :-1] + p01 * u1[:, :-1]
        g[1, :, 1:] = u1[:, 1:] + p10 * u0[:, :-1] + (p11 - tr) * u1[:, :-1]
        r = g * neg2
        r[0, :, 0] += (p00 - lam1) * z[0] + p01 * z[1]
        r[1, :, 0] += p10 * z[0] + (p11 - lam1) * z[1]
        np.cumsum(r, axis=-1, out=r)
        r *= ratio
        r[:, :, 0] += z[:2]
        np.cumsum(r, axis=-1, out=r)
        r *= pos1
        out[:2] = r.real

    def _pole_powers(self, m: int) -> tuple:
        """Powers of the poles over a block of m steps, cached per map:
        lamF^k, lamF^-k, lam2^-k, lam2^k lam1^-(k+1) and lam1^(k+1), k < m,
        each within a few roundings of exact (``_exp_multiples``)."""
        if self._powers is None or self._powers[0].size < m:
            c1, c2, cf = self._poles
            k = np.arange(m)
            lam1 = _exp_multiples(c1, np.arange(-m, m + 1))
            self._powers = (_exp_multiples(cf, k).real,
                            _exp_multiples(-cf, k).real,
                            _exp_multiples(-c2, k),
                            _exp_multiples(c2, k) * lam1[m - 1::-1],
                            lam1[m + 1:])
        return tuple(a[:m] for a in self._powers)


def _exp_multiples(c, k: np.ndarray) -> np.ndarray:
    """exp(k c) for the integers k, with no rounding of k c: c splits into a
    float32 head, whose multiples k (|k| < 2^29) are exact in float64, and
    an exact tail, whose multiples are too small for their rounding to
    show.  A kernel block spans hundreds of radians, where rounding k c
    would shift each power's phase by ~1e-13."""
    head = complex(np.complex64(c))
    return np.exp(k * head) * np.exp(k * (c - head))


def _trajectory_generators(master_seed: int, indices,
                           row: int = 0) -> list[np.random.Generator]:
    """One stream per trajectory, keyed (index,) in row 0 and (row, index)
    in any other scan row, so scan rows draw independent realisations."""
    prefix = (row,) if row else ()
    return [np.random.Generator(np.random.Philox(np.random.SeedSequence(
        entropy=master_seed, spawn_key=prefix + (int(i),)))) for i in indices]


@dataclass(frozen=True)
class _Protocol:
    """The switch protocol of one plan, derived once for every consumer."""

    model: ReducedModel
    dt: float              # s, checked
    steps: int             # steps of dt per servo phase
    stride: int            # steps of dt per record
    n_rec: int             # records per phase, R = ceil(steps / stride)
    last: int              # the remainder step, steps - (R - 1) * stride
    periods: int           # switch periods, one relaxation phase each
    phases: tuple          # (gamma, label, t0) per phase, in run order
    start: PhaseMap        # Phi = 0, Q = the cooled stationary covariance
    maps: dict             # (gamma, substeps) -> PhaseMap
    jump: PhaseMap         # a whole re-cooling phase: R - 1 strides, remainder
    x_bound: float         # m, runaway guard: |x| beyond it aborts a run
    time_grid: np.ndarray  # s, record times from a phase start


def _protocol(config: SystemConfig, noise: NoiseEnv, plan: SimPlan,
              model: ReducedModel | None = None) -> _Protocol:
    """The plan's checked protocol: from the first switch-off, a relaxation
    phase per switch period with a re-cooling phase between each two, each
    phase ``steps`` steps of dt: R - 1 whole strides, then the remainder
    step to the phase end, on ``model`` (built from config if None).  A plan
    over MAX_PLAN_FLOATS is refused before any map is built."""
    model = model or reduced_model(config, noise)
    dt = plan.resolve_dt(model.omega_ref)
    if dt * model.omega_ref >= 0.1:
        raise ValidationError("dt * omega_eff < 0.1", "dt", dt)
    steps = max(1, int(round(0.5 / config.servo.switch_frequency / dt)))
    stride = plan.record_stride
    if stride is None:
        stride = max(10, steps // RECORDS_PER_PHASE)
    n_rec = (steps + stride - 1) // stride
    periods = _plan_periods(plan, config, n_rec)
    if model.gamma_on <= 0:
        raise InstabilityError(
            f"cooled phase is not damped (gamma_on = {model.gamma_on:.4g} rad/s); "
            "cannot prepare the initial state")
    last = steps - (n_rec - 1) * stride
    phases, t0 = [], 0.0
    for p in range(2 * periods - 1):
        phases.append((model.gamma_on, "re-cooling", t0) if p % 2
                      else (model.gamma_off, "relaxation", t0))
        t0 += steps * dt
    maps = {(gamma, substeps): PhaseMap(
        mass=model.mass, omega_sq=model.omega_trap_sq, gamma=gamma,
        s_f_thermal=model.s_f_thermal, ou_corner=model.ou_corner,
        ou_force_var=model.ou_force_var, dt=dt, substeps=substeps)
        for gamma in {model.gamma_on, model.gamma_off} for substeps in {stride, last}}
    on, end = maps[model.gamma_on, stride], maps[model.gamma_on, last]
    jump = PhaseMap.given(*_compose(_repeat((on.phi, on.cov), n_rec - 1),
                                    (end.phi, end.cov)))
    # runaway guard scale: thermal RMS of the trapped mode at the bath
    # temperature, with the zero-point amplitude as a floor for cold runs
    x_bound = BLOWUP_FACTOR * max(
        math.sqrt(K_B * noise.temperature / (model.mass * model.omega_trap_sq)),
        math.sqrt(HBAR / (2.0 * model.mass * model.omega_ref)))
    return _Protocol(model=model, dt=dt, steps=steps, stride=stride,
                     n_rec=n_rec, last=last, periods=periods,
                     phases=tuple(phases),
                     start=PhaseMap.given(np.zeros((3, 3)), on.stationary()),
                     maps=maps, jump=jump, x_bound=x_bound,
                     time_grid=dt * stride * np.arange(n_rec))


def _plan_periods(plan: SimPlan, config: SystemConfig, n_rec: int = 1) -> int:
    """The plan's switch periods, rounded, after refusing a plan that
    covers less than one, or whose largest array, max(n_trajectories, 9) x
    periods x n_rec floats, would exceed MAX_PLAN_FLOATS.  Neither depends
    on the detuning, and every phase keeps n_rec >= 1 records, so n_rec = 1
    checks a plan for every detuning of a scan."""
    period = 1.0 / config.servo.switch_frequency
    if plan.duration < period * (1.0 - 1e-9):
        raise ValidationError("duration covers >= 1 full switch period",
                              "duration", plan.duration)
    periods = plan.duration / period
    if periods < math.inf:  # an overflowed count is refused below
        periods = max(1, round(periods))
    shape = (max(plan.n_trajectories, 9), periods, n_rec)
    if not math.prod(shape) <= MAX_PLAN_FLOATS:
        raise ValidationError(
            f"largest plan array <= MAX_PLAN_FLOATS = {MAX_PLAN_FLOATS:.1e} floats",
            "max(n_trajectories, 9) x periods x records per phase",
            " x ".join(f"{n:.4g}" for n in shape))
    return periods


def _phonon(model: ReducedModel, x, v):
    """Phonon number of amplitudes x and v (RMS amplitudes give <n>)."""
    e = 0.5 * model.mass * (v ** 2 + model.omega_trap_sq * x ** 2)
    return e / (HBAR * model.omega_ref) - 0.5


def _walk(protocol: _Protocol, master_seed: int, indices, jump: bool = False,
          row: int = 0):
    """Run the protocol for the given trajectory indices, all in one batch.

    Every state comes out of ``PhaseMap.run``, on three normals per map
    step from the trajectory's own stream, and the runaway guard checks
    each one.  The start map's step from the origin draws the cooled
    start.  A phase runs its R - 1 strides in kernel calls of at most
    DRAW_BLOCK // stride strides, then its remainder step; chunk edges
    depend on the plan only, never on the batch.  Yields (p, r, x, v) at
    each phase start and after each kernel call: the (B, m) states of
    records r .. r + m - 1 of phase p, record r being the state before
    stride r.  With ``jump``, for a caller that reads no re-cooling
    records, each re-cooling phase is one step of the jump map instead,
    and yields nothing.  ``row`` picks a scan row's streams.
    """
    stride, n_rec, b = protocol.stride, protocol.n_rec, len(indices)
    gens = _trajectory_generators(master_seed, indices, row)
    per_chunk = max(1, DRAW_BLOCK // stride)  # whole strides per kernel call
    xi_buf = np.empty((b, 3 * per_chunk))

    def draw(n):
        """Normals of n map steps, (B, n, 3), each row from its own stream."""
        draws = xi_buf[:, :3 * n]
        for g, out in zip(gens, draws):
            g.standard_normal(out=out)
        return draws.reshape(b, n, 3)

    def advance(pm, n, label):
        """n steps of ``pm`` from z; returns the (B, n) states x and v."""
        nonlocal z
        x, v, f = pm.run(z, n, draw(n))
        # NaN fails the comparison, so a non-finite state is a runaway too
        bad = ~(np.abs(x) <= protocol.x_bound)
        if bad.any():
            first, _ = np.unravel_index(np.argmax(bad), bad.shape)
            raise InstabilityError(
                f"|x| exceeded {BLOWUP_FACTOR:.0e} x thermal RMS or went "
                f"non-finite during {label} (trajectory {indices[first]}, "
                f"x = {x[bad][0]:.3e} m)")
        z = (x[:, -1], v[:, -1], f[:, -1])
        return x, v

    chunks = [(stride, min(per_chunk, n_rec - 1 - j))
              for j in range(0, n_rec - 1, per_chunk)]
    chunks.append((protocol.last, 1))

    z = (np.zeros(b),) * 3
    advance(protocol.start, 1, "cooling")
    for p, (gamma, label, _) in enumerate(protocol.phases):
        if jump and label == "re-cooling":
            advance(protocol.jump, 1, label)
            continue
        yield p, 0, z[0][:, None], z[1][:, None]
        r = 0  # map steps run so far
        for substeps, n in chunks:
            x, v = advance(protocol.maps[gamma, substeps], n, label)
            m = min(n, n_rec - 1 - r)  # states after these steps that are records
            if m > 0:
                yield p, r + 1, x[:, :m], v[:, :m]
            r += n


def _relaxation_phonons(protocol: _Protocol, master_seed: int,
                        indices, row: int = 0) -> np.ndarray:
    """Phonon numbers of the relaxation records of the given trajectories,
    (B, periods, R)."""
    n_off = None
    for p, r, x, v in _walk(protocol, master_seed, indices, jump=True,
                            row=row):
        if n_off is None:
            # after the walk's buffers: before them, glibc split the last
            # run's freed block and repeated 100 x 2 s runs held ~10 MB more
            n_off = np.empty((len(indices), protocol.periods, protocol.n_rec))
        # the walk yields relaxation records only, phase 2k of period k
        n_off[:, p // 2, r:r + x.shape[1]] = _phonon(protocol.model, x, v)
    return n_off


def _powers(phi: np.ndarray, n: int) -> np.ndarray:
    """Phi^0 .. Phi^(n-1) as an (n, 3, 3) array, by doubling."""
    p = np.empty((n, 3, 3))
    p[0] = np.eye(3)
    k = 1
    while k < n:
        m = min(k, n - k)
        p[k:k + m] = (p[k - 1] @ phi) @ p[:m]
        k += m
    return p


def _moments(protocol: _Protocol) -> tuple[np.ndarray, np.ndarray]:
    """The exact oracle's one walk: (M, P), M the (periods, R, 3, 3) exact
    second moments <z z^T> of every relaxation record and P the (R, 3, 3)
    powers Phi^0 .. Phi^(R-1) of the relaxation stride map.

    From the cooled stationary covariance, M <- Phi M Phi^T + Q over every
    stride and remainder step of every phase, re-cooling included, with
    the Monte Carlo's own Phi and Q: after r strides of a phase
    M_r = Phi^r M_0 Phi^r^T + sum_{j<r} Phi^j Q Phi^j^T, with each servo
    phase's powers and noise sums built once."""
    model, n_rec = protocol.model, protocol.n_rec
    series = {}
    for gamma in (model.gamma_off, model.gamma_on):
        step = protocol.maps[gamma, protocol.stride]
        pw = _powers(step.phi, n_rec)
        added = np.zeros((n_rec, 3, 3))
        np.cumsum((pw @ step.cov @ pw.transpose(0, 2, 1))[:-1], axis=0, out=added[1:])
        series[gamma] = pw, added
    out = np.empty((protocol.periods, n_rec, 3, 3))
    moment = protocol.start.cov
    for p, (gamma, label, _) in enumerate(protocol.phases):
        pw, added = series[gamma]
        records = pw @ moment @ pw.transpose(0, 2, 1) + added
        if label == "relaxation":  # phase 2k of period k
            out[p // 2] = records
        end = protocol.maps[gamma, protocol.last]
        moment = end.phi @ records[-1] @ end.phi.T + end.cov
    return out, series[model.gamma_off][0]


def exact_mean_phonon(config: SystemConfig, noise: NoiseEnv,
                      plan: SimPlan) -> tuple[np.ndarray, np.ndarray]:
    """Exact <n(t)> of ``run_ensemble``'s protocol, free of sampling noise:
    the relaxation records of ``_moments`` on the Monte Carlo's time grid,
    averaged over the switch periods as the ensemble averages its segments.
    Returns (time_grid, mean_n).
    """
    protocol = _protocol(config, noise, plan)
    return protocol.time_grid, _exact_curve(protocol.model, _moments(protocol)[0])


def _exact_curve(model: ReducedModel, moments: np.ndarray) -> np.ndarray:
    """mean_n of ``exact_mean_phonon`` from ``_moments``' moments."""
    return sum(_phonon(model, np.sqrt(moments[..., 0, 0]),
                       np.sqrt(moments[..., 1, 1]))) / moments.shape[0]


def _exact_variance(model: ReducedModel, walk: tuple, c: np.ndarray) -> float:
    """Exact variance of sum_k c_k n_k over the first c.size records of one
    relaxation segment, averaged over the switch periods, from the walk
    (M, P) of ``_moments``; an ensemble mean of S segments has 1/S of it.

    n = z^T A z - 1/2 for the state z = (x, v, F), and z is zero-mean
    Gaussian, so Isserlis' theorem gives Cov(n_k, n_l) =
    2 tr(A M_k G_d M_k) for d = l - k >= 0, G_d = Phi^d^T A Phi^d.  With
    B_k = sum_d c_{k+d} G_d, a correlation of c with G taken by one real
    FFT (zero-padded to 2 c.size, so nothing wraps), the double sum folds
    to Var = sum_k c_k 2 tr(A M_k (2 B_k - c_k A) M_k).  B holds no moment,
    so one correlation serves every period."""
    n = c.size
    m, pw = walk[0][:, :n], walk[1][:n]
    a = np.diag([model.mass * model.omega_trap_sq, model.mass, 0.0]) / (
        2.0 * HBAR * model.omega_ref)
    g = (pw.transpose(0, 2, 1) @ a @ pw).reshape(n, 9)
    spectrum = np.fft.rfft(c, 2 * n)[:, None] * np.fft.rfft(g, 2 * n, axis=0).conj()
    b = np.fft.irfft(spectrum, 2 * n, axis=0)[:n].reshape(n, 3, 3)
    total = c @ np.einsum("pkij,pkji->k", a @ m, (2.0 * b - c[:, None, None] * a) @ m)
    return 2.0 * float(total) / m.shape[0]


def _gamma_weights(t: np.ndarray, n0: float, n_inf: float,
                   gamma: float) -> np.ndarray:
    """Row gamma of pinv(J), J the Jacobian of n_inf + (n0 - n_inf)
    exp(-gamma t) at the fit: to first order, a curve n + dn fits
    gamma + c @ dn (the delta method)."""
    decay = np.exp(-gamma * t)
    jac = np.stack((decay, 1.0 - decay, -(n0 - n_inf) * t * decay), axis=1)
    norm = np.sqrt(np.sum(jac * jac, axis=0))
    return np.linalg.pinv(jac / norm)[2] / norm[2]


def simulate_trajectory(config: SystemConfig, noise: NoiseEnv, plan: SimPlan,
                        index: int):
    """One trajectory of the switch protocol; returns (t, x, v, n) at every
    record of every relaxation and re-cooling phase.

    t = 0 is the first switch-off.  Through the first relaxation phase the
    same index inside run_ensemble produces bit-identical numbers; after
    it, run_ensemble jumps re-cooling in one step and draws another
    realisation of the same law.  Beside the four returned arrays it holds
    one kernel call's states (DRAW_BLOCK steps at most) at a time: t and n
    are filled chunk by chunk as the walk yields, never from the whole x
    and v.
    """
    protocol = _protocol(config, noise, plan)
    n_rec, stride, dt = protocol.n_rec, protocol.stride, protocol.dt
    t, x, v, n = (np.empty(len(protocol.phases) * n_rec) for _ in range(4))
    for p, r, xs, vs in _walk(protocol, plan.master_seed, [index]):
        at, m = p * n_rec + r, xs.shape[1]
        t[at:at + m] = protocol.phases[p][2] + stride * np.arange(r, r + m) * dt
        x[at:at + m], v[at:at + m] = xs[0], vs[0]
        n[at:at + m] = _phonon(protocol.model, xs[0], vs[0])
    return t, x, v, n


def _fit_window(t: np.ndarray) -> tuple[float, np.ndarray]:
    """(window, mask) of the initial-slope fit on the record times t: the
    first 5% of the relaxation record or the first 50 points, whichever is
    longer."""
    window = max(0.05 * t[-1], t[min(49, t.size - 1)])
    return window, t <= window * (1.0 + 1e-12)


def fit_decoherence_rate(t: np.ndarray, n: np.ndarray) -> SlopeFit:
    """Ordinary least squares on the initial-slope window of <n(t)>
    (``_fit_window``)."""
    window, sel = _fit_window(t)
    if sel.sum() < 10:
        raise InsufficientDataError(
            f"only {int(sel.sum())} mean-phonon points in the initial-slope "
            f"window ({window:.4g} s); need >= 10")
    tt, nn = t[sel], n[sel]
    span = tt - tt.mean()
    denom = float(np.dot(span, span))
    slope = float(np.dot(span, nn) / denom)
    intercept = float(nn.mean() - slope * tt.mean())
    resid = nn - (intercept + slope * tt)
    dof = max(tt.size - 2, 1)
    stderr = math.sqrt(float(np.dot(resid, resid)) / dof / denom)
    return SlopeFit(slope=slope, slope_err=stderr, intercept=intercept,
                    window=float(window))


def _fit_exponential(t: np.ndarray, n: np.ndarray) -> tuple[float, float, float]:
    """Fit n(t) = n_inf + (n0 - n_inf) exp(-gamma t); returns (n0, n_inf, gamma).

    ``fitting.separable_fit`` from gamma = 1/t[-1] solves n_inf and n0 - n_inf
    linearly at every gamma."""
    def basis(theta):
        decay = np.exp(-theta[0] * t)
        return (np.array((np.ones_like(t), decay)),
                np.array(((np.zeros_like(t), -t * decay),)))

    def model(n0, n_inf, gamma):
        return n_inf + (n0 - n_inf) * np.exp(-gamma * t)

    slope0 = (n[-1] - n[0]) / max(t[-1], 1e-12)
    p0 = (float(n[0]), float(n[0] + 2.0 * slope0 * t[-1]), 1.0 / max(t[-1], 1e-12))
    try:
        (gamma,), (n_inf, amp) = separable_fit(basis, n, p0[2:])
    except FitError as exc:
        resid = np.abs(n - model(*p0))
        raise FitError(
            f"exponential relaxation fit failed: {exc}; p0 = {p0}, "
            f"max residual at p0 = {resid.max():.4g}") from exc
    return float(n_inf + amp), float(n_inf), float(gamma)


def _slope_weights(t: np.ndarray) -> np.ndarray:
    """c with c @ n[:c.size] the OLS slope of n on the records of the
    initial-slope window (``_fit_window``) of the record times t."""
    span = t[_fit_window(t)[1]]
    span = span - span.mean()
    return span / np.dot(span, span)


def _ensemble_result(time_off: np.ndarray, n_off: np.ndarray,
                     omega_ref: float) -> EnsembleResult:
    """Pool the (B, periods, R) relaxation segments, in trajectory-index
    order, and fit the rate.  An exponential fit that fails, or finds a
    curve that does not relax (gamma <= 0), gives a NaN gamma and says
    why."""
    segments = n_off.reshape(-1, n_off.shape[-1])
    mean_phonon = segments.mean(axis=0)
    slope = fit_decoherence_rate(time_off, mean_phonon)
    try:
        _, _, gamma_fit = _fit_exponential(time_off, mean_phonon)
    except FitError as exc:
        gamma_fit, gamma_error = math.nan, f"FitError: {exc}"
    else:
        gamma_error = "" if gamma_fit > 0 else (
            f"fitted gamma = {gamma_fit:.4g} rad/s <= 0: the mean curve "
            "does not relax")
    return EnsembleResult(
        time_grid=time_off, mean_phonon=mean_phonon,
        fitted_rate=slope.slope, fitted_rate_err=slope.slope_err,
        fitted_gamma_eff=math.nan if gamma_error else gamma_fit,
        omega_ref=omega_ref, n_segments=segments.shape[0],
        gamma_fit_error=gamma_error)


def run_ensemble(config: SystemConfig, noise: NoiseEnv,
                 plan: SimPlan) -> EnsembleResult:
    """Simulate the ensemble, align switch-off epochs, fit the heating rate.

    Segments come from ``n_trajectories`` independent runs times however
    many switch periods fit into ``duration``, so one long switched run
    (n_trajectories=1, duration of many periods) and a fresh-start ensemble
    are both available.  Each trajectory's numbers are independent of the
    batch it runs in, so any split of the indices reassembles to the same
    result.  ``fitted_rate_err`` is the naive OLS error of the mean curve,
    blind to the records' correlation; ``measure_rate`` adds the exact
    error.  A plan that leaves fewer than 10 records in the initial-slope
    window is refused before the Monte Carlo runs.
    """
    return _ensemble(_protocol(config, noise, plan), plan)


def _ensemble(protocol: _Protocol, plan: SimPlan, row: int = 0) -> EnsembleResult:
    """``run_ensemble`` on a built protocol, drawing scan row ``row``'s
    streams."""
    if _fit_window(protocol.time_grid)[1].sum() < 10:
        raise ValidationError(">= 10 records in the initial-slope fit window",
                              "record_stride", protocol.stride)
    n_off = _relaxation_phonons(protocol, plan.master_seed,
                                range(plan.n_trajectories), row)
    return _ensemble_result(protocol.time_grid, n_off, protocol.model.omega_ref)


def predicted_rate(config: SystemConfig, noise: NoiseEnv,
                   mode: EffectiveMode) -> tuple[float, float, float]:
    """Initial heating rate d<n>/dt of the trapped mode, phonons/s.

    Returns (total, thermal_term, trap_term): the bath contribution
    kB*T*gamma1/(hbar*omega_eff) plus the trap-noise contribution
    m1*omega_eff^3*S_phidot(omega_eff)/(hbar*g^2).
    """
    m1 = config.mirror1
    thermal, trap = heating_rates(
        m1.mass, m1.gamma0, mode.omega_eff, noise.temperature,
        noise.sphidot(mode.omega_eff / TWO_PI), config.cavity.g_pull)
    return thermal + trap, thermal, trap


def off_state_mode(config: SystemConfig, noise: NoiseEnv) -> EffectiveMode:
    """Closed-loop mode with the servo parked at its resolved off gain."""
    model = reduced_model(config, noise)
    return extract_mode(config, gel=model.off_gain)


def measure_rate(config: SystemConfig, noise: NoiseEnv, plan: SimPlan, *,
                 row: int = 0) -> RateMeasurement:
    """Measure the rethermalization rate and predict it: the ensemble's
    initial slope with its OLS and exact errors, the exact oracle's slope
    and exponential fit with the exact error of the ensemble's fitted
    gamma, and the rate law at the servo-off pole f_eff, which also sets
    n_osc = f_eff / rate_measured.  One reduced model serves the servo-off
    pole, gamma_off and the protocol; one protocol serves the ensemble and
    the oracle, whose one walk serves the exact curve and both exact
    errors.  ``row`` draws a scan row's streams (row 0 draws
    ``run_ensemble``'s)."""
    model = reduced_model(config, noise)
    mode = extract_mode(config, gel=model.off_gain)
    total, thermal, trap = predicted_rate(config, noise, mode)
    protocol = _protocol(config, noise, plan, model)
    result = _ensemble(protocol, plan, row)
    walk = _moments(protocol)
    t, n_exact = protocol.time_grid, _exact_curve(protocol.model, walk[0])
    exact = fit_decoherence_rate(t, n_exact)
    rate_var = _exact_variance(protocol.model, walk, _slope_weights(t))
    try:
        n0, n_inf, gamma_exact = _fit_exponential(t, n_exact)
    except FitError:
        gamma_exact = gamma_var = math.nan
    else:
        gamma_var = _exact_variance(
            protocol.model, walk, _gamma_weights(t, n0, n_inf, gamma_exact))
    # rounding can leave a zero variance (a noise-free plan) below 0; NaN
    # passes through max
    rate_err, gamma_err = (math.sqrt(max(var, 0.0) / result.n_segments)
                           for var in (rate_var, gamma_var))
    rate = result.fitted_rate
    return RateMeasurement(
        delta=config.cavity.detuning, omega_eff=mode.omega_eff,
        rate_measured=rate, rate_ols_err=result.fitted_rate_err,
        rate_exact=exact.slope, rate_exact_err=rate_err,
        gamma_exact=gamma_exact, gamma_exact_err=gamma_err,
        rate_predicted=total, rate_thermal=thermal, rate_trap=trap,
        n_osc=mode.omega_eff / (TWO_PI * rate) if rate > 0 else math.inf,
        gamma_off=model.gamma_off, dt=protocol.dt,
        record_stride=protocol.stride, ensemble=result)


def detuning_scan(config: SystemConfig, noise: NoiseEnv, plan: SimPlan,
                  delta_values) -> list[RateMeasurement]:
    """``measure_rate`` per detuning, row k on its own streams (row 0 on
    ``run_ensemble``'s); toolkit and numerical failures are recorded per row
    and the scan continues.  A plan over MAX_PLAN_FLOATS is refused before
    the first row."""
    _plan_periods(plan, config)
    rows = []
    for row, delta in enumerate(np.atleast_1d(np.asarray(delta_values,
                                                         dtype=float))):
        try:
            rows.append(measure_rate(config.with_detuning(float(delta)),
                                     noise, plan, row=row))
        except (OptospringError, np.linalg.LinAlgError,
                ArithmeticError) as exc:  # per-cell failure, keep scanning
            rows.append(RateMeasurement(
                delta=float(delta), error=f"{type(exc).__name__}: {exc}"))
    return rows


# --------------------------------------------------------------------------
# CSV emitters
# --------------------------------------------------------------------------

def write_ensemble_csv(path, result: EnsembleResult, comment: str = ""):
    """Columns: t_s, mean_n."""
    write_table(path, ("t_s", "mean_n"),
                (result.time_grid, result.mean_phonon),
                (comment, f"segments: {result.n_segments}, "
                          f"f_ref_Hz: {float(result.omega_ref / TWO_PI)!r}"))


def measurement_row(m: RateMeasurement) -> dict:
    """``m`` as its one output row, the ``retherm_fit.json`` keys and the
    ``scan.csv`` columns: frequencies in Hz, rates in phonons/s, gammas in
    rad/s.  A failed measurement keeps its delta_Hz, and every other cell
    is NaN."""
    e = m.ensemble
    return {"delta_Hz": m.delta / TWO_PI, "f_eff_Hz": m.omega_eff / TWO_PI,
            "rate_measured": m.rate_measured, "rate_predicted": m.rate_predicted,
            "n_osc": m.n_osc, "rate_exact": m.rate_exact,
            "rate_exact_err": m.rate_exact_err,
            "gamma_measured": e.fitted_gamma_eff if e else math.nan,
            "gamma_exact": m.gamma_exact, "gamma_exact_err": m.gamma_exact_err,
            "f_ref_Hz": e.omega_ref / TWO_PI if e else math.nan,
            "n_segments": e.n_segments if e else math.nan,
            "rate_ols_err": m.rate_ols_err, "rate_thermal": m.rate_thermal,
            "rate_trap": m.rate_trap, "gamma_off": m.gamma_off}


# the measurement's output schema, in scan.csv's column order
MEASUREMENT_COLUMNS = tuple(measurement_row(RateMeasurement(delta=math.nan)))


def write_scan_csv(path, rows: list[RateMeasurement], comment: str = ""):
    """One ``measurement_row`` per detuning, under MEASUREMENT_COLUMNS."""
    write_table(path, MEASUREMENT_COLUMNS,
                zip(*(measurement_row(r).values() for r in rows)),
                (comment,))
