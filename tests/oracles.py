"""Independent reference implementations used to pin expected test values.

Everything here is deliberately slow and simple: exact rational arithmetic
for binomial tails, brute-force projected gradient for the dual programs,
central finite differences for gradients, and for the logistic loss a
Newton step on the full Hessian and scipy's L-BFGS minimum.  Nothing in this module
imports the package's own numerics beyond array plumbing.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np


def exact_binomial_cdf(k: int, n: int, eps: float) -> Fraction:
    """Sum of the first k+1 binomial probabilities as an exact rational.

    Uses the exact binary value of the float eps so the comparison target
    carries no decimal-conversion error of its own.
    """
    if k < 0:
        return Fraction(0)
    if k >= n:
        return Fraction(1)
    p = Fraction(eps)
    total = Fraction(0)
    for i in range(k + 1):
        total += comb(n, i) * p**i * (1 - p) ** (n - i)
    return total


def project_box_simplex(w, lo, hi, mass):
    """Euclidean projection of w onto {lo <= u <= hi, sum(u) = mass}.

    total(lam) = sum(clip(w - lam, lo, hi)) is continuous, piecewise linear,
    and nonincreasing, with kinks only at the 2n breakpoints w - hi and
    w - lo; evaluating it at every breakpoint and interpolating inside the
    bracketing segment gives the exact multiplier.
    """
    w = np.asarray(w, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), w.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), w.shape)
    points = np.sort(np.concatenate([w - hi, w - lo]))
    totals = np.clip(w[None, :] - points[:, None], lo, hi).sum(axis=1)
    if mass >= totals[0]:
        return np.clip(w - points[0], lo, hi)
    if mass <= totals[-1]:
        return np.clip(w - points[-1], lo, hi)
    # last k with totals[k] >= mass; totals is nonincreasing along points
    k = int(np.searchsorted(-totals, -mass, side="right")) - 1
    t0, t1 = totals[k], totals[k + 1]
    lam = points[k] if t0 == t1 else \
        points[k] + (t0 - mass) * (points[k + 1] - points[k]) / (t0 - t1)
    return np.clip(w - lam, lo, hi)


def qp_oracle(K, s, C, q, scale, mass, iters: int = 200_000):
    """Projected-gradient solution of the shared dual program.

    Maximizes q^T alpha - (scale/2) u^T K u with u = alpha * s, subject to
    0 <= alpha <= C and sum(u) = mass.  Works in u coordinates where the
    box is [min(0, C*s), max(0, C*s)] and the equality is a plain sum.
    Intended for tiny instances; the step is 1/L with L the exact largest
    eigenvalue of scale*K.
    """
    K = np.asarray(K, dtype=float)
    s = np.asarray(s, dtype=float)
    C = np.asarray(C, dtype=float)
    q = np.asarray(q, dtype=float)
    lo = np.minimum(0.0, C * s)
    hi = np.maximum(0.0, C * s)
    L = scale * float(np.linalg.eigvalsh(K).max())
    step = 1.0 / max(L, 1e-12)
    def objective_of(v, Kv):
        return float(q @ (v * s) - 0.5 * scale * (v @ Kv))

    u = project_box_simplex(np.zeros_like(C), lo, hi, mass)
    window, window_obj = 500, -np.inf
    for iteration in range(iters):
        Ku = K @ u
        grad_u = q * s - scale * Ku
        u_next = project_box_simplex(u + step * grad_u, lo, hi, mass)
        if float(np.abs(u_next - u).max()) < 1e-13:
            u = u_next
            break
        u = u_next
        # the fixed 1/L step ascends monotonically, so a window gain below
        # 1e-12 bounds the remaining gap far inside the 1e-6 comparison
        # tolerance; near-singular Gram matrices otherwise creep along flat
        # directions for the full iteration cap
        if iteration % window == window - 1:
            obj = objective_of(u, K @ u)
            if obj - window_obj < 1e-12:
                break
            window_obj = obj
    alpha = u * s
    objective = float(q @ alpha - 0.5 * scale * (u @ (K @ u)))
    return alpha, objective


def central_difference_gradient(fn, x0, h: float = 1e-6):
    """Central finite-difference gradient of a scalar function."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        bump = np.zeros_like(x0)
        bump[i] = h
        grad[i] = (fn(x0 + bump) - fn(x0 - bump)) / (2.0 * h)
    return grad


def platoon_label_oracle(row, reception, physics) -> int:
    """Label of one platoon scenario by a plain-Python Euler replay.

    ``row`` is the scenario's feature row: follower count n at 0, gaps at
    1..n, speeds (km/h) at 9..9+n, the leader's force F0 at 27, masses at
    28..28+n and the control gain at 39.  ``physics`` holds the time step,
    horizon, resistances and collision distance.  Follows the recurrence of
    the simulator's module docstring one vehicle at a time, with the
    simulator's operation order, so every float agrees bit for bit: the
    resistance is ``a + (b * v) * v``; the speed update is
    ``max(v + (dt * (F - resistance)) / m, 0)``; spacings advance with the
    pre-update speeds.  ``reception[i]`` is the step at which follower i + 1
    starts braking with ``gain * F0``.  Returns -1 on a collision, else +1.
    """
    row = [float(value) for value in row]
    n = int(row[0])
    v = [s / 3.6 for s in row[9:10 + n]]
    d = row[1:1 + n]
    masses = row[28:29 + n]
    dt = physics.time_step
    a_roll, b_drag = physics.rolling_resistance, physics.drag_coefficient
    brake_force = row[27]
    brake = row[39] * brake_force
    if min(d) <= physics.collision_distance:
        return -1
    for k in range(int(round(physics.horizon / dt))):
        if not any(s > 0.0 for s in v):
            return 1
        new_v = []
        for i in range(n + 1):
            resistance = a_roll + b_drag * v[i] * v[i]
            if i == 0:
                force = brake_force
            else:
                force = brake if k >= reception[i - 1] else resistance
            new_v.append(max(v[i] + dt * (force - resistance) / masses[i], 0.0))
        d = [d[j] + dt * (v[j] - v[j + 1]) for j in range(n)]
        v = new_v
        if min(d) <= physics.collision_distance:
            return -1
    return 1


def _lr_terms(K, y, c, eta, beta, b):
    """Logistic loss pieces written out from the definition
    L = beta' K beta / (2 eta) + (1/2) sum c log(1 + exp(y (K beta - b)))."""
    K = np.asarray(K, dtype=float)
    z = K @ beta - b
    t = y * z
    s = 1.0 / (1.0 + np.exp(-t))
    loss = beta @ K @ beta / (2.0 * eta) + 0.5 * np.sum(c * np.logaddexp(0.0, t))
    # dL/dz = (1/2) c y s and d2L/dz2 = (1/2) c s (1 - s), as y^2 = 1
    dz = 0.5 * c * y * s
    grad = np.concatenate([K @ beta / eta + K @ dz, [-np.sum(dz)]])
    return float(loss), grad, 0.5 * c * s * (1.0 - s)


def lr_newton_step_oracle(K, y, c, eta, beta, b):
    """Newton step on (beta, b) from the full (n+1) x (n+1) Hessian of the
    logistic loss, built entry by entry and solved with ``np.linalg.solve``.

    With z = K beta - b and curvature d, the Hessian blocks are
    K/eta + K diag(d) K, -K d and sum(d).
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    _, grad, d = _lr_terms(K, y, c, eta, beta, b)
    H = np.zeros((n + 1, n + 1))
    for i in range(n):
        for j in range(n):
            H[i, j] = K[i, j] / eta + sum(K[i, k] * d[k] * K[k, j] for k in range(n))
        H[i, n] = H[n, i] = -sum(K[i, k] * d[k] for k in range(n))
    H[n, n] = d.sum()
    step = np.linalg.solve(H, -grad)
    return step[:n], float(step[n])


def lr_lbfgs_oracle(K, y, c, eta):
    """Minimizer (beta, b) of the logistic loss by scipy's L-BFGS-B on the
    loss and gradient written out in ``_lr_terms``."""
    from scipy.optimize import minimize

    n = np.asarray(K).shape[0]

    def fun(theta):
        loss, grad, _ = _lr_terms(K, y, c, eta, theta[:n], theta[n])
        return loss, grad

    result = minimize(fun, np.zeros(n + 1), jac=True, method="L-BFGS-B",
                      options={"maxiter": 100_000, "maxfun": 200_000, "maxcor": 100,
                               "gtol": 1e-14, "ftol": 0.0})
    return result.x[:n], float(result.x[n])
