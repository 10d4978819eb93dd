"""Dual solver against the projected-gradient oracle."""

from __future__ import annotations

import numpy as np

from saferegions import Hyperparameters, KernelSpec, solvers
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
    # a full-rank Gram is refused once the rank passes the cap, with the
    # residual those pivots leave
    K = gram(KernelSpec(kind="gaussian", gamma=0.7), x)
    G, res, pivots = _pivoted_cholesky(K, 30 // 4)
    assert G is None and len(pivots) == 30 // 4
    assert res.sum() > 1e-12 * float(np.trace(K))
    full, _, _ = _pivoted_cholesky(K, 30)
    assert np.allclose(res, np.diagonal(K - full[:, :30 // 4] @ full[:, :30 // 4].T),
                       rtol=0.0, atol=1e-12 * float(np.trace(K)))


def _svm_and_svdd_forms(K, y, C):
    """The SVM dual and the SVDD dual (ball mass 0.5 on the safe class) of
    one Gram, as ``(K, s, C, alpha0, q, scale)``."""
    yf = y.astype(float)
    yield K, -yf, C, np.zeros(y.size), np.ones(y.size), 1.0
    alpha0 = np.zeros(y.size)
    remaining = 0.5
    for i in np.flatnonzero(y > 0):
        alpha0[i] = min(C[i], remaining)
        remaining -= alpha0[i]
    assert remaining <= 0.0
    yield K, yf, C, alpha0, yf * np.diagonal(K), 4.0


def _low_rank_problems(rng):
    n = 60
    x = rng.normal(size=(n, 2))
    y = np.where(x[:, 0] + x[:, 1] + 0.7 * rng.normal(size=n) < 0.0, 1, -1)
    for spec in (KernelSpec(kind="linear"), KernelSpec(kind="gaussian", gamma=0.001)):
        K = gram(spec, x)
        assert _pivoted_cholesky(K, n // 4)[0] is not None   # low-rank route
        C = box_bounds(Hyperparameters(eta=0.05, tau=0.5, kernel=spec), y)
        yield from _svm_and_svdd_forms(K, y, C)


def _full_rank_problems(rng):
    # standardized 10-D points under a gaussian kernel of width 1/d, as on
    # the platoon features: a Gram far from any low-rank approximation
    n = 40
    x = rng.normal(size=(n, 10))
    y = np.where(x[:, 0] + x[:, 1] + 0.7 * rng.normal(size=n) < 0.0, 1, -1)
    spec = KernelSpec(kind="gaussian", gamma=0.1)
    K = gram(spec, x)
    G, res, _ = _pivoted_cholesky(K, n // 4)
    assert G is None and res.sum() >= solvers._FULL_RANK_RESIDUAL * np.trace(K)
    C = box_bounds(Hyperparameters(eta=0.05, tau=0.5, kernel=spec), y)
    yield from _svm_and_svdd_forms(K, y, C)


def _assert_matches_oracle(problem, solution):
    K, s, C, alpha0, q, scale = problem
    alpha, g, iters, residual, converged, gap = solution
    assert converged and residual <= 1e-8
    mass = float(s @ alpha0)
    _, oracle_obj = qp_oracle(K, s, C, q, scale, mass)
    assert abs(ascent_objective(K, s, alpha, q, scale) - oracle_obj) <= 1e-6
    assert abs(float(s @ alpha) - mass) <= 1e-12
    assert (alpha >= 0.0).all() and (alpha <= C).all()


def test_full_rank_route_is_pairwise_ascent_alone(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("interior point run on a full-rank Gram")

    monkeypatch.setattr(solvers, "_interior_point", refuse)
    for problem in _full_rank_problems(np.random.default_rng(47)):
        solution = solve_box_qp(*problem, 1e-8, 100_000)
        _assert_matches_oracle(problem, solution)
        assert solution[2] <= solvers._PAIRWISE_FIRST_UPDATES * problem[2].size


def test_full_rank_route_falls_back_when_its_budget_runs_out(monkeypatch):
    calls = {"_interior_point": 0, "_pivoted_cholesky": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(solvers, name), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(solvers, name, counted)
    monkeypatch.setattr(solvers, "_PAIRWISE_FIRST_UPDATES", 0)
    problems = list(_full_rank_problems(np.random.default_rng(47)))
    for problem in problems:
        _assert_matches_oracle(problem, solve_box_qp(*problem, 1e-8, 100_000))
    # every solve fell back; the pivoting refused at n/4 is not resumed but
    # run again to tolerance, so each solve pivots twice
    assert calls == {"_interior_point": len(problems), "_pivoted_cholesky": 2 * len(problems)}


def test_ill_conditioned_gram_takes_a_factor_past_n_over_4(monkeypatch):
    # a 2-D Gaussian Gram neither low rank at n/4 pivots nor full rank: the
    # interior point runs on a pivoting taken on to tolerance
    n = 60
    rng = np.random.default_rng(53)
    x = rng.normal(size=(n, 2))
    y = np.where(x[:, 0] + x[:, 1] + 0.7 * rng.normal(size=n) < 0.0, 1, -1)
    spec = KernelSpec(kind="gaussian", gamma=0.02)
    K = gram(spec, x)
    G, res, _ = _pivoted_cholesky(K, n // 4)
    assert G is None and res.sum() < solvers._FULL_RANK_RESIDUAL * np.trace(K)
    columns = []

    def spy(*args, _inner=solvers._interior_point):
        columns.append(args[6].shape[1])
        return _inner(*args)

    monkeypatch.setattr(solvers, "_interior_point", spy)
    C = box_bounds(Hyperparameters(eta=0.05, tau=0.5, kernel=spec), y)
    for problem in _svm_and_svdd_forms(K, y, C):
        _assert_matches_oracle(problem, solve_box_qp(*problem, 1e-8, 100_000))
    assert len(columns) == 2 and min(columns) > n // 4


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
        G, res, _ = _pivoted_cholesky(K, C.size)
        warm = _interior_point(K, s, C, q, scale, mass, G, res)
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
