"""Shared dual solver for the kernel trainers.

Both margin trainers maximize a concave box-constrained quadratic with a
single linear equality.  In the variables ``u = alpha * s`` the problem is

    maximize  (q * s)^T u - (scale / 2) u^T K u
    subject to  sum(u) = mass,  alpha in [0, C] coordinatewise,

where ``s`` is the per-coordinate sign carrying the equality constraint.
Two-coordinate ascent (``pairwise_ascent``, with the second-order pair
choice of Fan, Chen & Lin 2005) is a complete solver on its own and is what
certifies the first-order conditions on the exact K at the end of every
solve.  A primal-dual interior-point method can bring it close to the
optimum first.

``solve_box_qp`` picks a route from a greedy pivoted incomplete Cholesky of
K (Fine & Scheinberg 2001, "Efficient SVM training using low-rank kernel
representations"), run for at most n/4 pivots:

- full-rank route: at least ``1e-2 * trace(K)`` is left after n/4 pivots (a
  standardized high-dimensional Gram).  Pairwise ascent from ``alpha0``
  alone converges in a few updates per coordinate; if it has not within
  ``10 n`` updates, the solve falls back to the interior-point route.
- interior-point route: every other Gram.  The pivoting is taken on until
  the residual trace falls to ``1e-12 * trace(K)``, giving
  K~ = G G^T + diag(res) with k <= n columns.  The interior point solves
  its Newton systems by the Sherman-Morrison-Woodbury identity through a
  k x k capacitance matrix, at O(n k^2) per iteration.  Its iterate is
  snapped onto nearby bounds and its equality mass restored exactly before
  pairwise finishing.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

REFRESH_EVERY = 5000
CURV_FLOOR = 1e-12
DEFAULT_MAX_UPDATES = 100_000

_IP_MAX_ITERS = 100
_IP_BOUNDARY = 0.995
# Pivoted Cholesky stops once the residual trace is this share of trace(K).
# Looser tolerances leave a warm start far enough off that pairwise
# finishing needs orders of magnitude more updates.
_RANK_RTOL = 1e-12
_SNAP_REL = 1e-9
# A Gram whose residual trace after n/4 pivots is still this share of
# trace(K) is full rank: pairwise ascent alone converges on it in a few
# updates per coordinate (at most 2.95 n updates on the standardized 40-D
# platoon Grams for n = 150 to 1500, residual share 0.14 to 0.39), where the
# interior point would need a factor of nearly n columns.  Below it sit
# ill-conditioned Grams (2-D Gaussian ones, residual share 2e-9 to 3e-3) on
# which pairwise ascent from a cold start stalls.
_FULL_RANK_RESIDUAL = 1e-2
# Pair updates per coordinate pairwise ascent may spend on a full-rank Gram
# before the solve falls back to the interior-point route.
_PAIRWISE_FIRST_UPDATES = 10


def ascent_gradient(K, s, alpha, q, scale):
    """Gradient of the dual objective with respect to alpha."""
    u = alpha * s
    return q - scale * s * (K @ u)


def ascent_objective(K, s, alpha, q, scale):
    """Value of the dual objective at alpha."""
    u = alpha * s
    return float(q @ alpha - 0.5 * scale * (u @ (K @ u)))


def pairwise_ascent(K, s, C, alpha0, q, scale, tol, max_iter):
    """Maximize the dual by repeated two-coordinate updates.

    Returns (alpha, gradient, iterations, residual, converged, (m, M)).
    The residual is the violation gap m - M; convergence means the gap is
    within tol under a freshly recomputed gradient.  The pair is chosen by
    the second-order working-set rule of Fan, Chen & Lin (2005, JMLR).
    ``s * gradient`` and the masks of coordinates free to move up or down
    are maintained incrementally (``s`` holds signs, so ``s * s == 1`` and
    the kept product is exact); the gradient is refreshed periodically to
    bound float drift.
    """
    alpha = alpha0.astype(float).copy()
    sg = s * ascent_gradient(K, s, alpha, q, scale)
    diag = np.diagonal(K)
    pos = s > 0
    can_up = np.where(pos, alpha < C, alpha > 0.0)
    can_down = np.where(pos, alpha > 0.0, alpha < C)
    stall = 0
    it = 0
    while it < max_iter:
        if it and it % REFRESH_EVERY == 0:
            sg = s * ascent_gradient(K, s, alpha, q, scale)
        i, m, M = _violating_pair(sg, can_up, can_down)
        if m - M <= tol:
            # Confirm against a fresh gradient before declaring victory.
            g = ascent_gradient(K, s, alpha, q, scale)
            sg = s * g
            i, m, M = _violating_pair(sg, can_up, can_down)
            if m - M <= tol:
                return alpha, g, it, max(m - M, 0.0), True, (m, M)
            stall += 1
            if stall > 3:
                return alpha, g, it, m - M, False, (m, M)
            continue
        # Second-order pair choice: fix i, pick j with the best gain.
        Ki = K[i]
        curv = diag[i] + diag - 2.0 * s[i] * s * Ki
        curv = np.maximum(curv, CURV_FLOOR)
        diff = m - sg
        cand = can_down & (sg < m)
        cand[i] = False
        gains = np.where(cand, diff * diff / curv, -np.inf)
        j = int(np.argmax(gains))
        t = 0.0
        if np.isfinite(gains[j]):
            # Unconstrained step along (+1 on i, -1 on j) in u-space,
            # clipped to the box slack of both coordinates.
            room_i = (C[i] - alpha[i]) if pos[i] else alpha[i]
            room_j = alpha[j] if pos[j] else (C[j] - alpha[j])
            t = min((sg[i] - sg[j]) / (scale * curv[j]), room_i, room_j)
        if t <= 0.0:
            # No pair makes progress: refresh the gradient and retry.
            g = ascent_gradient(K, s, alpha, q, scale)
            sg = s * g
            stall += 1
            if stall > 3:
                return alpha, g, it, m - M, False, (m, M)
            it += 1
            continue
        alpha[i] += t if pos[i] else -t
        alpha[j] -= t if pos[j] else -t
        alpha[i] = min(max(alpha[i], 0.0), C[i])
        alpha[j] = min(max(alpha[j], 0.0), C[j])
        sg -= (scale * t) * (Ki - K[j])
        for k in (i, j):
            lower, upper = alpha[k] > 0.0, alpha[k] < C[k]
            can_up[k], can_down[k] = (upper, lower) if pos[k] else (lower, upper)
        stall = 0
        it += 1
    g = ascent_gradient(K, s, alpha, q, scale)
    _, m, M = _violating_pair(s * g, can_up, can_down)
    return alpha, g, it, m - M, m - M <= tol, (m, M)


def _violating_pair(sg, can_up, can_down):
    """First-order violation of ``sg = s * gradient``: ``(i, m, M)`` where
    ``m = sg[i]`` is the largest entry over coordinates free to move up and
    ``M`` the smallest over those free to move down."""
    up_vals = np.where(can_up, sg, -np.inf)
    i = int(np.argmax(up_vals))
    M = float(np.where(can_down, sg, np.inf).min())
    return i, float(up_vals[i]), M


def _step_fraction(current, delta):
    """Largest multiple of delta keeping current strictly positive."""
    shrink = delta < 0.0
    if not shrink.any():
        return 1.0
    return min(1.0, _IP_BOUNDARY * float((-current[shrink] / delta[shrink]).min()))


def _pivoted_cholesky(K, max_rank):
    """Greedy pivoted incomplete Cholesky factor of a PSD matrix.

    Pivots on the largest remaining diagonal entry until the residual trace
    is at most ``_RANK_RTOL * trace(K)``.  Returns ``(G, res, pivots)`` with
    ``K ~ G @ G.T`` and ``res = diag(K - G @ G.T)`` clipped at zero (zero on
    the pivots).  When that takes more than ``max_rank`` columns, K is
    refused: ``G`` is None and ``res`` is the residual left after
    ``max_rank`` pivots.
    """
    res = np.diagonal(K).astype(float)
    stop = _RANK_RTOL * float(res.sum())
    Gt = np.empty((max_rank, res.size))
    pivots = []
    for k in range(max_rank + 1):
        if float(res.sum()) <= stop:
            return Gt[:k].T, res, pivots
        if k == max_rank:
            return None, res, pivots
        p = int(np.argmax(res))
        pivots.append(p)
        # K is symmetric, so row p is column p
        col = (K[p] - Gt[:k, p] @ Gt[:k]) / np.sqrt(res[p])
        Gt[k] = col
        res -= col * col
        res[p] = 0.0
        np.maximum(res, 0.0, out=res)


def _interior_point(K, s, C, q, scale, mass, G, res):
    """Primal-dual path following for the dual quadratic.

    Minimizes (scale/2) a^T Q a - q^T a over the box with s^T a = mass,
    where Q = (s s^T) * K~ is taken on the pivoted Cholesky approximation
    K~ = G G^T + diag(res) of K, using a predictor-corrector scheme.  Each
    Newton system is solved by the Sherman-Morrison-Woodbury identity
    through the k x k capacitance matrix I + V^T E^-1 V (V = sqrt(scale)
    diag(s) G), at O(n k^2) per factor.  Returns the primal iterate when
    the barrier parameter and KKT residuals are driven to near float
    precision, or the best iterate at the iteration cap; the caller
    certifies optimality separately.
    """
    n = C.size
    V = np.sqrt(scale) * (s[:, None] * G)
    # s holds signs, so diag(s) diag(res) diag(s) = diag(res)
    d = scale * res
    alpha = 0.5 * C
    z_scale = max(1.0, float(np.abs(q).max()))
    z_lo = np.full(n, z_scale)
    z_hi = np.full(n, z_scale)
    nu = 0.0
    dyn = 1.0 + float(np.abs(q).max())
    ridge_base = 1e-13 * (1.0 + scale * float(np.trace(K)) / n)
    for _ in range(_IP_MAX_ITERS):
        slack_hi = C - alpha
        grad = V @ (V.T @ alpha) + d * alpha - q
        r_d = grad + nu * s - z_lo + z_hi
        r_p = float(s @ alpha - mass)
        comp_lo = alpha * z_lo
        comp_hi = slack_hi * z_hi
        mu = (comp_lo.sum() + comp_hi.sum()) / (2 * n)
        if (mu <= 1e-13 * dyn and np.abs(r_d).max() <= 1e-8 * dyn
                and abs(r_p) <= 1e-10 * (1.0 + abs(mass))):
            break

        D = z_lo / alpha + z_hi / slack_hi
        factor = None
        ridge = ridge_base
        for _try in range(6):
            E = D + ridge + d
            W = V / E[:, None]
            cap = V.T @ W
            cap.flat[::cap.shape[0] + 1] += 1.0
            try:
                factor = cho_factor(cap, lower=True, overwrite_a=True, check_finite=False)
                break
            except np.linalg.LinAlgError:
                ridge *= 100.0
        if factor is None:
            break

        def solve(b):
            y = b / E
            return y - W @ cho_solve(factor, V.T @ y, check_finite=False)

        h_a = solve(s)
        denom = float(s @ h_a)
        if not np.isfinite(denom) or abs(denom) < 1e-300:
            break

        # Affine predictor (sigma = 0).
        rhs_aff = -r_d - z_lo + z_hi
        h1 = solve(rhs_aff)
        dnu_aff = (float(s @ h1) + r_p) / denom
        da_aff = h1 - dnu_aff * h_a
        dz_lo_aff = -z_lo * (1.0 + da_aff / alpha)
        dz_hi_aff = z_hi * (da_aff / slack_hi - 1.0)
        step_p = min(_step_fraction(alpha, da_aff), _step_fraction(slack_hi, -da_aff))
        step_d = min(_step_fraction(z_lo, dz_lo_aff), _step_fraction(z_hi, dz_hi_aff))
        mu_aff = (((alpha + step_p * da_aff) @ (z_lo + step_d * dz_lo_aff))
                  + ((slack_hi - step_p * da_aff) @ (z_hi + step_d * dz_hi_aff))) / (2 * n)
        sigma = min(1.0, max(0.0, (mu_aff / mu)) ** 3) if mu > 0.0 else 0.0

        # Corrector with the same factorization.
        r_c_lo = sigma * mu - comp_lo - da_aff * dz_lo_aff
        r_c_hi = sigma * mu - comp_hi + da_aff * dz_hi_aff
        rhs = -r_d + r_c_lo / alpha - r_c_hi / slack_hi
        h1 = solve(rhs)
        dnu = (float(s @ h1) + r_p) / denom
        da = h1 - dnu * h_a
        dz_lo = (r_c_lo - z_lo * da) / alpha
        dz_hi = (r_c_hi + z_hi * da) / slack_hi
        step_p = min(_step_fraction(alpha, da), _step_fraction(slack_hi, -da))
        step_d = min(_step_fraction(z_lo, dz_lo), _step_fraction(z_hi, dz_hi))
        alpha = alpha + step_p * da
        nu += step_d * dnu
        z_lo = z_lo + step_d * dz_lo
        z_hi = z_hi + step_d * dz_hi
        if not np.isfinite(alpha).all():
            return 0.5 * C
    return np.clip(alpha, 0.0, C)


def _restore_mass(alpha, s, C, mass):
    """Move alpha inside the box until ``s @ alpha == mass``.

    The drift is spread over coordinates in descending order of their room
    toward the required side, so a drift larger than any single room is
    still absorbed; coordinates that use up their room land exactly on
    their bound.  ``s`` holds signs, and ``mass`` must be reachable.
    """
    alpha = alpha.copy()
    drift = mass - float(s @ alpha)
    if drift == 0.0:
        return alpha
    # raising alpha_i moves s @ alpha toward mass exactly where s_i*drift > 0
    up = s * drift > 0.0
    room = np.where(up, C - alpha, alpha)
    need = abs(drift)
    for j in np.argsort(-room, kind="stable"):
        if need <= 0.0 or room[j] <= 0.0:
            break
        if room[j] <= need:
            alpha[j] = C[j] if up[j] else 0.0
            need -= room[j]
        else:
            alpha[j] += need if up[j] else -need
            need = 0.0
    return alpha


def solve_box_qp(K, s, C, alpha0, q, scale, tol, max_iter):
    """Solve the dual to tolerance on the route the numerical rank of K picks.

    A full-rank Gram is solved by pairwise ascent from ``alpha0`` alone,
    within ``_PAIRWISE_FIRST_UPDATES * n`` updates; any other Gram, or one
    on which that budget runs out, by the interior point plus pairwise
    finishing.  Same return contract as ``pairwise_ascent``; the reported
    iteration count is the number of pair updates of the route that
    returned.  ``alpha0`` is feasible and fixes the equality mass
    ``s @ alpha0`` the solution must carry.
    """
    n = C.size
    G, res, _ = _pivoted_cholesky(K, n // 4)
    if G is None:
        if float(res.sum()) >= _FULL_RANK_RESIDUAL * float(np.trace(K)):
            budget = min(max_iter, _PAIRWISE_FIRST_UPDATES * n)
            result = pairwise_ascent(K, s, C, alpha0, q, scale, tol, budget)
            if result[4]:
                return result
        # Restarting repeats the n/4 pivots rather than resuming them; on
        # 400-point 2-D Gaussian Grams that is 0.9 ms against about 9 ms
        # for the interior point that follows (one BLAS thread).
        G, res, _ = _pivoted_cholesky(K, n)
    mass = float(s @ alpha0)
    warm = _interior_point(K, s, C, q, scale, mass, G, res)
    # Interior iterates never reach the bounds; place the ones within
    # _SNAP_REL * C of a bound on it, so pairwise finishing does not spend
    # an update per coordinate doing so.  The interior iterate satisfies the
    # equality only to solver precision and pairwise updates preserve mass
    # exactly, so restore the mass after snapping.
    near = _SNAP_REL * C
    warm = np.where(warm <= near, 0.0, np.where(warm >= C - near, C, warm))
    warm = _restore_mass(warm, s, C, mass)
    return pairwise_ascent(K, s, C, warm, q, scale, tol, max_iter)
