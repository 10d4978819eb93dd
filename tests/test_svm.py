"""Margin classifier: training, decision values, serialization."""

from __future__ import annotations

import numpy as np
import pytest

from saferegions import (
    GaussianSpec,
    Hyperparameters,
    KernelSpec,
    ScSvmModel,
    TrainingError,
    sample_gaussian,
    train_sc_svm,
)
from saferegions.classifiers import TrainSettings, load_model, save_model
from saferegions.datagen import Dataset

_SPEC = GaussianSpec(mu_safe=(-1.0, -1.0), mu_unsafe=(1.0, 1.0),
                     cov_safe=((1.0, 0.0), (0.0, 1.0)),
                     cov_unsafe=((1.0, 0.0), (0.0, 1.0)))


def _train_set(n=120, seed=2):
    return sample_gaussian(_SPEC, n, seed=seed)


def test_linear_accuracy_on_separated_gaussians():
    data = _train_set(400, seed=9)
    hp = Hyperparameters(eta=1.0, tau=0.5, kernel=KernelSpec(kind="linear"))
    model = train_sc_svm(data, hp)
    test = sample_gaussian(_SPEC, 4000, seed=10)
    acc = float((model.predict(test.x, 0.0) == test.y).mean())
    # Bayes accuracy for these Gaussians is about 0.921.
    assert acc >= 0.90


def test_decision_matches_dual_expansion():
    data = _train_set()
    hp = Hyperparameters(eta=0.8, tau=0.4, kernel=KernelSpec(kind="gaussian", gamma=0.6))
    model = train_sc_svm(data, hp)
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(30, 2))
    # Recompute s(x) = sum_i alpha_i yhat_i k(x_i, x) - b with the flipped
    # training labels yhat = -y.
    from saferegions.kernels import kernel_matrix
    K = kernel_matrix(hp.kernel.resolved(data.x), pts, model.support_x)
    expected = K @ (model.support_alpha * (-model.support_y)) - model.offset
    assert np.allclose(model.margin(pts), expected, atol=1e-10)


def test_predict_sign_convention_and_tie():
    data = _train_set()
    hp = Hyperparameters(eta=0.5, tau=0.5, kernel=KernelSpec(kind="linear"))
    model = train_sc_svm(data, hp)
    x = data.x[:5]
    rho_bar = model.boundary_radius(x)
    # Evaluated in the same batch layout, the decision value at the boundary
    # level is exactly zero and the tie resolves to unsafe.
    for i in range(5):
        vals = model.decision_value(x, float(rho_bar[i]))
        assert vals[i] == 0.0
        assert model.predict(x, float(rho_bar[i]))[i] == -1
    # Single-point evaluation may differ by float association only.
    singles = np.array([model.decision_value(x[i:i + 1], float(rho_bar[i]))[0]
                        for i in range(5)])
    assert float(np.abs(singles).max()) <= 1e-9


def test_single_class_rejected():
    x = np.random.default_rng(0).normal(size=(20, 2))
    data = Dataset(x=x, y=np.ones(20, dtype=int), provenance={})
    hp = Hyperparameters(eta=1.0, tau=0.5, kernel=KernelSpec(kind="linear"))
    with pytest.raises(TrainingError):
        train_sc_svm(data, hp)


def test_asymmetric_weights_shift_the_boundary():
    data = _train_set(400, seed=21)
    kernel = KernelSpec(kind="linear")
    protective = train_sc_svm(data, Hyperparameters(eta=1.0, tau=0.1, kernel=kernel))
    permissive = train_sc_svm(data, Hyperparameters(eta=1.0, tau=0.9, kernel=kernel))
    test = sample_gaussian(_SPEC, 4000, seed=22)
    safe = test.x[test.y == 1]
    # Small tau penalizes missed safe points harder, so more of the safe
    # class must be predicted safe.
    miss_protective = float((protective.predict(safe, 0.0) == -1).mean())
    miss_permissive = float((permissive.predict(safe, 0.0) == -1).mean())
    assert miss_protective < miss_permissive


def test_diagnostics_and_convergence_error():
    data = _train_set()
    hp = Hyperparameters(eta=1.0, tau=0.5, kernel=KernelSpec(kind="gaussian"))
    model = train_sc_svm(data, hp)
    assert model.diagnostics.converged
    assert model.diagnostics.residual <= 1e-6
    with pytest.raises(TrainingError):
        train_sc_svm(data, hp, settings=TrainSettings(tol=1e-14, max_iter=3))


def test_model_round_trip(tmp_path):
    data = _train_set()
    hp = Hyperparameters(eta=0.7, tau=0.3, kernel=KernelSpec(kind="polynomial", degree=2))
    model = train_sc_svm(data, hp)
    path = tmp_path / "svm.json"
    save_model(model, path)
    loaded, cert = load_model(path)
    assert cert is None
    assert isinstance(loaded, ScSvmModel)
    pts = np.random.default_rng(4).normal(size=(20, 2))
    assert np.array_equal(loaded.margin(pts), model.margin(pts))


def test_interval_offset_ignores_a_rounding_residue_below_c(monkeypatch):
    # with no coordinate strictly inside its box the offset is the midpoint
    # of the optimality interval (m, M); a coordinate 1e-15 * C below C, as
    # pairwise updates can leave one, is at its top by _BOUND_REL and must
    # not narrow that interval, as exact comparisons with C would
    from saferegions import classifiers
    from saferegions.solvers import pairwise_ascent, solve_box_qp

    data = sample_gaussian(GaussianSpec(), 20, 2)
    hp = Hyperparameters(eta=0.01, tau=0.5, kernel=KernelSpec(kind="linear"))
    residue = {"share": 0.0}

    def solve(K, s, C, alpha0, q, scale, tol, max_iter, pivoting=None):
        alpha = solve_box_qp(K, s, C, alpha0, q, scale, tol, max_iter, pivoting)[0]
        exact = pairwise_ascent(K, s, C, alpha, q, scale, np.inf, 0)[5]
        # the first coordinate at C whose residue moves the exact interval
        for j in np.flatnonzero(alpha == C):
            lowered = alpha.copy()
            lowered[j] = C[j] * (1.0 - 1e-15)
            if pairwise_ascent(K, s, C, lowered, q, scale, np.inf, 0)[5] != exact:
                break
        else:
            raise AssertionError("no coordinate at C moves the exact interval")
        alpha[j] = C[j] * (1.0 - residue["share"])
        return pairwise_ascent(K, s, C, alpha, q, scale, np.inf, 0)

    monkeypatch.setattr(classifiers, "solve_box_qp", solve)
    offsets = []
    for share in (0.0, 1e-15):
        residue["share"] = share
        model = train_sc_svm(data, hp)
        assert model.diagnostics.flags["offset_from_interval"]
        offsets.append(model.offset)
    assert offsets[0] == offsets[1]
