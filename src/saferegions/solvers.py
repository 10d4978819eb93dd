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
representations"), checked after n/4 pivots:

- full-rank route: at least ``1e-2 * trace(K)`` is left after n/4 pivots (a
  standardized high-dimensional Gram).  Pairwise ascent from ``alpha0``
  alone converges in a few updates per coordinate; if it has not within
  ``10 n`` updates, the solve pivots again for the interior-point route.
- interior-point route: every other Gram.  The same pivoting goes on until
  the residual trace falls to ``1e-10 * trace(K)``, giving
  K~ = G G^T + diag(res) with k <= n columns.  The interior point solves
  its Newton systems by the Sherman-Morrison-Woodbury identity through a
  k x k capacitance matrix, formed by one SYRK at O(n k^2 / 2) per
  iteration; its solves go through the factor and the diagonal alone.  Far
  from the optimum it iterates on a prefix of the factor, the pivoting
  stopped at ``1e-8 * trace(K)`` (an inexact Newton direction, as in
  Gondzio 2013, "Convergence analysis of an inexact feasible interior point
  method for convex quadratic programming"), and it takes its last
  iterations on the whole factor.  Its iterate is snapped onto bounds
  within 1e-6 * C of it and its equality mass restored exactly before
  pairwise finishing, which then needs tens of updates on a 2-D Gaussian
  family where a 1e-9 * C snap left thousands.

A solve pivots K itself unless its caller passes that first pivoting
(``first_pivoting``): a family whose members share one Gram pivots it once
and hands the factor, or the full-rank refusal, to every member's solve.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dsyrk

REFRESH_EVERY = 5000
CURV_FLOOR = 1e-12
DEFAULT_MAX_UPDATES = 100_000

_IP_MAX_ITERS = 100
_IP_BOUNDARY = 0.995
# Pivoted Cholesky stops once the residual trace is this share of trace(K).
# The interior point's last iterations run on this factor, so it bounds how
# far off the warm start is.  Loosened alone it is a cliff: at 1e-8 the
# criterion-08 family needed 165,536 pair updates (one member 51,057)
# against 1042 at 1e-10 (623 at 1e-12), and at 1e-7 13 members of 12 bench
# svdd_family draws (seeds 1-4) failed.  The coarse prefix below neglects
# more than this, because the whole factor takes over before the stop.
_RANK_RTOL = 1e-10
# The interior point first iterates on the fewest leading columns of the
# factor that neglect at most this share of trace(K).  Swept serially on
# three bench svdd_family draws (seed 5) and the criterion-08 family at
# 1e-9/1e-8/1e-7/1e-6: capacitance work (k^2 summed over factorizations)
# fell by 13/26/34/29% on the draws and 12/24/29/20% on criterion 08,
# against the whole factor throughout; criterion-08 pair updates read
# 1205/725/926/1096 (1042 throughout) and its training CPU 3.9/3.5/3.6/3.9 s
# (4.3 s).
_COARSE_RTOL = 1e-8
# The interior point moves to the whole factor once mu is at most this share
# of dyn.  Same sweep, prefix at 1e-8, switch at 1e-6/1e-7/1e-8/1e-9/1e-10:
# capacitance work fell by 14/21/26/28/26% on the draws and 12/17/24/24/7%
# on criterion 08, whose pair updates read 845/1277/725/775/482 and
# factorizations 596/596/599/632/749 (595 with the whole factor throughout).
_COARSE_MU = 1e-8
# Interior-point coordinates within this share of C of a bound start pairwise
# finishing on it.  At 1e-9 the coordinates between 1e-9 and 1e-6 of C each
# cost an update: 3350 to 3997 a bench svdd_family draw, 53,680 on the
# criterion-08 family, against 25 to 86 and 623 at 1e-6.
_SNAP_REL = 1e-6
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


def _pivoted_cholesky(K, check_at):
    """Greedy pivoted incomplete Cholesky factor of a PSD matrix.

    Pivots on the largest remaining diagonal entry until the residual trace
    is at most ``_RANK_RTOL * trace(K)``.  Returns ``(G, res, pivots)`` with
    ``K ~ G @ G.T`` and ``res = diag(K - G @ G.T)`` clipped at zero (zero on
    the pivots).  When at least ``_FULL_RANK_RESIDUAL * trace(K)`` is left
    after ``check_at`` pivots, K is refused as full rank: ``G`` is None and
    ``res`` is the residual left then.
    """
    res = np.diagonal(K).astype(float)
    stop = _RANK_RTOL * float(res.sum())
    Gt = np.empty((res.size, res.size))   # only pivoted rows are touched
    pivots = []
    for k in range(res.size + 1):
        left = float(res.sum())
        if left <= stop:
            # the k rows alone, so the factor does not keep the n x n buffer
            return Gt[:k].copy().T, res, pivots
        if k == check_at and left >= _FULL_RANK_RESIDUAL * float(np.trace(K)):
            return None, res, pivots
        p = int(np.argmax(res))
        pivots.append(p)
        # K is symmetric, so row p is column p
        col = (K[p] - Gt[:k, p] @ Gt[:k]) / np.sqrt(res[p])
        Gt[k] = col
        res -= col * col
        res[p] = 0.0
        np.maximum(res, 0.0, out=res)


def first_pivoting(K):
    """``(G, res)`` of the pivoted Cholesky that ``solve_box_qp`` starts
    from, checked for full rank at n/4 pivots (``G`` None when refused).  It
    depends on K alone, so one serves every solve on K; both arrays are made
    read-only, since every solve shares them."""
    G, res, _ = _pivoted_cholesky(K, K.shape[0] // 4)
    for array in (G, res):
        if array is not None:
            array.flags.writeable = False
    return G, res


def _coarse_prefix(G, res, trace):
    """``(k1, res1)`` for the coarse phase of the interior point: k1 is the
    fewest leading columns of the factor whose neglected trace, ``res.sum()``
    plus the squared norms of the columns dropped, is at most
    ``_COARSE_RTOL * trace``, and ``res1`` is ``res`` plus the dropped
    columns' squared row norms.  ``G[:, :k1]`` with ``res1`` is the pivoted
    Cholesky stopped after k1 pivots, up to rounding."""
    k = G.shape[1]
    # the neglected trace of each prefix; it does not grow along the prefix
    dropped = np.append(np.cumsum(np.einsum("ij,ij->j", G, G)[::-1])[::-1], 0.0)
    k1 = min(k, int(np.count_nonzero(float(res.sum()) + dropped > _COARSE_RTOL * trace)))
    return k1, res + np.einsum("ij,ij->i", G[:, k1:], G[:, k1:])


def _interior_point(K, s, C, q, scale, mass, G, res):
    """Primal-dual path following for the dual quadratic.

    Minimizes (scale/2) a^T Q a - q^T a over the box with s^T a = mass,
    where Q = (s s^T) * K~ is taken on the pivoted Cholesky approximation
    K~ = G G^T + diag(res) of K, using a predictor-corrector scheme.  The
    first iterations take K~ on the ``_coarse_prefix`` of G instead, with
    the dropped columns on the diagonal; once the barrier parameter mu is at
    most ``_COARSE_MU`` times the dynamic range of q, the gradient and dual
    residual are taken again at that iterate on the whole of G, which every
    later iteration and the stopping test use.  Each Newton system
    (V V^T + diag(E)) x = b, with V = sqrt(scale) diag(s) G kept in Fortran
    order, is solved by the Sherman-Morrison-Woodbury identity through the
    k x k capacitance matrix I + V^T E^-1 V: one dsyrk on V / sqrt(E) forms
    its lower triangle at O(n k^2 / 2) per factor, and each solve is
    y - V cap^-1 V^T y / E with y = b / E, so no V / E is formed.  A
    factor, or a prefix, of no columns has an empty capacitance and the
    solves are b / E, with no BLAS call on an empty matrix.  Returns the
    primal iterate when the barrier parameter and KKT residuals are driven
    to near float precision, or the best iterate at the iteration cap; the
    caller certifies optimality separately.
    """
    n, k = G.shape
    trace = float(np.trace(K))
    # Fortran order, so dsyrk reads each scaled copy of V (and of any prefix
    # of its columns) without a transpose
    V_full = np.asfortranarray(np.sqrt(scale) * (s[:, None] * G))
    # s holds signs, so diag(s) diag(res) diag(s) = diag(res)
    d_full = scale * res
    k1, res1 = _coarse_prefix(G, res, trace)
    V = V_full[:, :k1]
    d = scale * res1
    alpha = 0.5 * C
    z_scale = max(1.0, float(np.abs(q).max()))
    z_lo = np.full(n, z_scale)
    z_hi = np.full(n, z_scale)
    nu = 0.0
    dyn = 1.0 + float(np.abs(q).max())
    ridge_base = 1e-13 * (1.0 + scale * trace / n)
    for _ in range(_IP_MAX_ITERS):
        slack_hi = C - alpha
        comp_lo = alpha * z_lo
        comp_hi = slack_hi * z_hi
        mu = (comp_lo.sum() + comp_hi.sum()) / (2 * n)
        if V.shape[1] < k and mu <= _COARSE_MU * dyn:
            # near the optimum: the whole factor from here on, with the
            # residuals taken again at this iterate
            V, d = V_full, d_full
        width = V.shape[1]
        grad = V @ (V.T @ alpha) + d * alpha - q
        r_d = grad + nu * s - z_lo + z_hi
        r_p = float(s @ alpha - mass)
        if (mu <= 1e-13 * dyn and np.abs(r_d).max() <= 1e-8 * dyn
                and abs(r_p) <= 1e-10 * (1.0 + abs(mass))):
            break

        D = z_lo / alpha + z_hi / slack_hi
        factor = None
        ridge = ridge_base
        for _try in range(6):
            E = D + ridge + d
            if width == 0:
                break
            # the lower triangle only, all that cho_factor(lower=True) reads
            cap = dsyrk(1.0, V / np.sqrt(E)[:, None], trans=1, lower=1)
            cap.flat[::width + 1] += 1.0
            try:
                factor = cho_factor(cap, lower=True, overwrite_a=True, check_finite=False)
                break
            except np.linalg.LinAlgError:
                ridge *= 100.0
        if factor is None and width > 0:
            break

        def solve(b):
            y = b / E
            if width == 0:
                return y
            return y - (V @ cho_solve(factor, V.T @ y, check_finite=False)) / E

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


def solve_box_qp(K, s, C, alpha0, q, scale, tol, max_iter, pivoting=None):
    """Solve the dual to tolerance on the route the numerical rank of K picks.

    A full-rank Gram is solved by pairwise ascent from ``alpha0`` alone,
    within ``_PAIRWISE_FIRST_UPDATES * n`` updates; any other Gram, or one
    on which that budget runs out, by the interior point plus pairwise
    finishing.  Same return contract as ``pairwise_ascent``; the reported
    iteration count is the number of pair updates of the route that
    returned.  ``alpha0`` is feasible and fixes the equality mass
    ``s @ alpha0`` the solution must carry.  ``pivoting`` is
    ``first_pivoting(K)`` when the caller shares K between solves; without
    it the solve pivots K itself.
    """
    n = C.size
    G, res = first_pivoting(K) if pivoting is None else pivoting
    if G is None:
        budget = min(max_iter, _PAIRWISE_FIRST_UPDATES * n)
        result = pairwise_ascent(K, s, C, alpha0, q, scale, tol, budget)
        if result[4]:
            return result
        # a refused pivoting keeps no factor: pivot again, to tolerance
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
