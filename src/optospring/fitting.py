"""Nonlinear least squares: the one solver behind the Lorentzian peak fit
and the exponential relaxation fit.

Both models are separable: y ~ c Phi(theta), with the coefficients c
entering linearly.  For each theta the best c is a linear least-squares
solve, so the Levenberg-Marquardt iteration runs on theta alone (variable
projection, Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)), with
Kaufman's Jacobian P_perp (dPhi/dtheta c) (BIT 15, 49 (1975)), which gives
the exact gradient of the projected cost.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FitError

# Converged when the next step, in units of theta0, has norm at most
# STEP_TOL, or is predicted to lower the squared residual by at most
# COST_TOL of it (the rounding floor, below which steps stop shrinking).
# Marquardt's diagonal damping makes the steps themselves the same in any
# units of theta, so theta0 only sets the scale of the step test.
COST_TOL = 1e-20
STEP_TOL = 1e-8
MAX_ITER = 200  # accepted and rejected steps together


def _inverse(a: np.ndarray, damp: float = 1.0) -> np.ndarray:
    """Inverse of a 1x1 or 2x2 matrix with its diagonal scaled by ``damp``,
    in closed form (stable at this size, and cheaper than a LAPACK call)."""
    if a.shape[0] == 1:
        det = float(a[0, 0]) * damp
        if det == 0.0:
            raise FitError(f"singular least-squares solve: {a.tolist()}")
        return np.array(((1.0 / det,),))
    (p, q), (r, s) = a.tolist()
    p, s = p * damp, s * damp
    det = p * s - q * r
    if det == 0.0:
        raise FitError(f"singular least-squares solve: {a.tolist()}")
    return np.array(((s / det, -q / det), (-r / det, p / det)))


def _project(basis, y, theta):
    """(c, residual, squared residual, Jacobian rows) at theta."""
    phi, dphi = basis(theta)
    pinv = _inverse(phi @ phi.T) @ phi
    c = pinv @ y
    resid = y - c @ phi
    cost = float(resid @ resid)
    if not math.isfinite(cost):
        raise FitError(f"non-finite residual at parameters {theta}")
    jac = c @ dphi
    jac -= (jac @ phi.T) @ pinv
    return c, resid, cost, jac


def separable_fit(basis, y, theta0) -> tuple[np.ndarray, np.ndarray]:
    """Minimise |y - c Phi(theta)|^2 over theta and c; returns (theta, c).

    ``basis(theta)`` returns Phi, shape (k, n), one row per coefficient,
    and dPhi, shape (p, k, n), one block per entry of theta, with k and p
    at most 2.  Every entry of theta0 must be nonzero.  Raises FitError on
    a singular solve, a non-finite residual, or no convergence within
    MAX_ITER steps.
    """
    theta = np.asarray(theta0, dtype=float)
    unit = 1.0 / theta
    top = float(np.max(np.abs(y)))  # fit y/top: no under- or overflow
    y = y / top if top > 0.0 else y
    lam, grow = 1e-3, 2.0
    c, resid, cost, jac = _project(basis, y, theta)
    for _ in range(MAX_ITER):
        grad = jac @ resid
        step = _inverse(jac @ jac.T, 1.0 + lam) @ grad
        drop = float(step @ grad)  # Gauss-Newton's drop of |resid|^2 at lam 0
        rel = step * unit
        if drop <= COST_TOL * cost or rel @ rel <= STEP_TOL**2:
            return theta, c * top
        trial = theta + step
        c_t, resid_t, cost_t, jac_t = _project(basis, y, trial)
        gain = (cost - cost_t) / drop
        if gain > 0.0:  # Nielsen's damping update (Madsen et al. 2004, 3.2)
            theta, c, resid, cost, jac = trial, c_t, resid_t, cost_t, jac_t
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            grow = 2.0
        else:
            lam *= grow
            grow *= 2.0
    raise FitError(f"no convergence in {MAX_ITER} steps; last parameters "
                   f"{theta}")
