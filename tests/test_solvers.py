"""Dual solver against the projected-gradient oracle."""

from __future__ import annotations

import numpy as np

from saferegions import Hyperparameters, KernelSpec
from saferegions.classifiers import box_bounds
from saferegions.kernels import gram
from saferegions.solvers import (
    _interior_point,
    _pivoted_cholesky,
    _restore_mass,
    ascent_gradient,
    ascent_objective,
    pairwise_ascent,
    solve_box_qp,
)

from .oracles import qp_oracle


def _random_problem(rng, svdd: bool):
    n = int(rng.integers(4, 13))
    x = rng.normal(size=(n, 2))
    y = np.where(rng.random(n) < 0.5, 1, -1)
    y[0], y[1] = 1, -1   # both classes present
    hp = Hyperparameters(eta=float(rng.uniform(0.2, 2.0)),
                         tau=float(rng.uniform(0.1, 0.9)),
                         kernel=KernelSpec(kind="gaussian", gamma=0.7))
    K = gram(hp.kernel, x)
    C = box_bounds(hp, y)
    yf = y.astype(float)
    if svdd:
        s, q, scale = yf, yf * np.diagonal(K), 4.0
        alpha0 = np.zeros(n)
        remaining = 0.5
        for i in np.flatnonzero(y > 0):
            take = min(C[i], remaining)
            alpha0[i] = take
            remaining -= take
        if remaining > 1e-12:
            return None
    else:
        s, q, scale = -yf, np.ones(n), 1.0
        alpha0 = np.zeros(n)
    return K, s, C, alpha0, q, scale


def _kkt_gap(K, s, C, alpha, q, scale):
    g = ascent_gradient(K, s, alpha, q, scale)
    sg = s * g
    pos = s > 0
    up = np.where(pos, alpha < C - 1e-12, alpha > 1e-12)
    down = np.where(pos, alpha > 1e-12, alpha < C - 1e-12)
    m = float(np.where(up, sg, -np.inf).max())
    M = float(np.where(down, sg, np.inf).min())
    return m - M


def test_pairwise_ascent_matches_oracle():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 12:
        problem = _random_problem(rng, svdd=bool(checked % 2))
        if problem is None:
            continue
        K, s, C, alpha0, q, scale = problem
        alpha, g, iters, residual, converged, gap = pairwise_ascent(
            K, s, C, alpha0, q, scale, 1e-9, 200_000)
        assert converged
        mass = float(s @ alpha0)
        oracle_alpha, oracle_obj = qp_oracle(K, s, C, q, scale, mass)
        assert abs(ascent_objective(K, s, alpha, q, scale) - oracle_obj) <= 1e-6
        assert abs(float(s @ alpha) - mass) <= 1e-9
        assert (alpha >= -1e-12).all() and (alpha <= C + 1e-12).all()
        checked += 1


def test_solve_box_qp_matches_pairwise_and_oracle():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 8:
        problem = _random_problem(rng, svdd=bool(checked % 2))
        if problem is None:
            continue
        K, s, C, alpha0, q, scale = problem
        alpha, g, iters, residual, converged, gap = solve_box_qp(
            K, s, C, alpha0, q, scale, 1e-8, 100_000)
        assert converged
        assert residual <= 1e-8
        mass = float(s @ alpha0)
        _, oracle_obj = qp_oracle(K, s, C, q, scale, mass)
        assert abs(ascent_objective(K, s, alpha, q, scale) - oracle_obj) <= 1e-6
        assert _kkt_gap(K, s, C, alpha, q, scale) <= 1e-6
        checked += 1


def test_solver_handles_duplicate_points():
    # A singular Gram matrix must not break the factorization path.
    x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
    y = np.array([1, 1, -1, -1, 1])
    K = gram(KernelSpec(kind="linear"), x)
    C = np.full(5, 0.7)
    s = -y.astype(float)
    alpha, g, iters, residual, converged, gap = solve_box_qp(
        K, s, C, np.zeros(5), np.ones(5), 1.0, 1e-8, 50_000)
    assert converged
    _, oracle_obj = qp_oracle(K, s, C, np.ones(5), 1.0, 0.0)
    assert abs(ascent_objective(K, s, alpha, np.ones(5), 1.0) - oracle_obj) <= 1e-6


def test_equality_mass_preserved_exactly():
    rng = np.random.default_rng(31)
    problem = None
    while problem is None:
        problem = _random_problem(rng, svdd=True)
    K, s, C, alpha0, q, scale = problem
    alpha, *_ = solve_box_qp(K, s, C, alpha0, q, scale, 1e-8, 50_000)
    assert abs(float(s @ alpha) - 0.5) <= 1e-9


def test_pivoted_cholesky_against_numpy():
    rng = np.random.default_rng(41)
    x = rng.normal(size=(30, 2))
    for spec, rank in ((KernelSpec(kind="linear"), 2),
                       (KernelSpec(kind="polynomial", degree=3), 4),
                       (KernelSpec(kind="gaussian", gamma=0.7), 30)):
        K = gram(spec, x)
        G, res, pivots = _pivoted_cholesky(K, 30)
        assert G.shape[1] == len(pivots) <= rank
        assert len(set(pivots)) == len(pivots)
        R = K - G @ G.T
        trace = float(np.trace(K))
        assert np.abs(np.diagonal(R) - res).max() <= 1e-12 * trace
        assert res.sum() <= 1e-12 * trace
        assert (res >= 0.0).all()
        assert np.linalg.eigvalsh(R).min() >= -1e-12 * trace
    # a full-rank Gram is refused once the rank passes the cap
    assert _pivoted_cholesky(gram(KernelSpec(kind="gaussian", gamma=0.7), x), 30 // 4) is None


def _low_rank_problems(rng):
    n = 60
    x = rng.normal(size=(n, 2))
    y = np.where(x[:, 0] + x[:, 1] + 0.7 * rng.normal(size=n) < 0.0, 1, -1)
    for spec in (KernelSpec(kind="linear"), KernelSpec(kind="gaussian", gamma=0.001)):
        K = gram(spec, x)
        assert _pivoted_cholesky(K, n // 4) is not None   # low-rank route
        C = box_bounds(Hyperparameters(eta=0.05, tau=0.5, kernel=spec), y)
        yf = y.astype(float)
        yield K, -yf, C, np.zeros(n), np.ones(n), 1.0            # svm form
        alpha0 = np.zeros(n)
        remaining = 0.5
        for i in np.flatnonzero(y > 0):
            alpha0[i] = min(C[i], remaining)
            remaining -= alpha0[i]
        yield K, yf, C, alpha0, yf * np.diagonal(K), 4.0          # svdd form


def test_low_rank_route_matches_oracle():
    rng = np.random.default_rng(43)
    for K, s, C, alpha0, q, scale in _low_rank_problems(rng):
        alpha, g, iters, residual, converged, gap = solve_box_qp(
            K, s, C, alpha0, q, scale, 1e-8, 100_000)
        assert converged
        mass = float(s @ alpha0)
        _, oracle_obj = qp_oracle(K, s, C, q, scale, mass)
        assert abs(ascent_objective(K, s, alpha, q, scale) - oracle_obj) <= 1e-6
        assert abs(float(s @ alpha) - mass) <= 1e-12
        assert (alpha >= 0.0).all() and (alpha <= C).all()
        # the low-rank warm start alone already sits at the optimum
        warm = _interior_point(K, s, C, q, scale, mass)
        assert abs(ascent_objective(K, s, warm, q, scale) - oracle_obj) <= 1e-6


def test_restore_mass_spreads_drift_beyond_any_single_room():
    s = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
    C = np.array([1.0, 2.0, 0.5, 1.5, 1.0, 0.25])
    alpha = np.array([0.2, 1.5, 0.1, 0.9, 0.0, 0.25])
    base = float(s @ alpha)
    for drift in (2.5, -2.0, 1e-13, 0.0):
        # no single room reaches 2.5 (largest 1.5) or 2.0 (largest 1.0)
        fixed = _restore_mass(alpha, s, C, base + drift)
        assert abs(float(s @ fixed) - (base + drift)) <= 1e-12
        assert (fixed >= 0.0).all() and (fixed <= C).all()
    assert np.array_equal(_restore_mass(alpha, s, C, base), alpha)
