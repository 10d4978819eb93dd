"""Kernel logistic classifier: loss, gradient, training behavior."""

from __future__ import annotations

import json

import numpy as np
import pytest

from saferegions import (
    GaussianSpec,
    Hyperparameters,
    KernelSpec,
    ScLrModel,
    logistic,
    sample_gaussian,
    train_sc_lr,
)
from saferegions.classifiers import TrainSettings, load_model, save_model
from saferegions.datagen import Dataset
from saferegions.errors import TrainingError
from saferegions.kernels import gram, kernel_matrix
from saferegions.logistic import _newton_step, lr_gradient, lr_loss

from .oracles import central_difference_gradient, lr_lbfgs_oracle, lr_newton_step_oracle

_SPEC = GaussianSpec(mu_safe=(-1.0, -1.0), mu_unsafe=(1.0, 1.0),
                     cov_safe=((1.0, 0.0), (0.0, 1.0)),
                     cov_unsafe=((1.0, 0.0), (0.0, 1.0)))


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(13)
    for trial in range(10):
        n = int(rng.integers(5, 15))
        x = rng.normal(size=(n, 2))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        K = gram(KernelSpec(kind="gaussian", gamma=0.8), x)
        eta = float(rng.uniform(0.2, 2.0))
        tau = float(rng.uniform(0.1, 0.9))
        beta = rng.normal(size=n) * 0.5
        b = float(rng.normal())
        c = (1.0 - 2.0 * tau) * y + 1.0
        grad_beta, grad_b = lr_gradient(K, y, c, eta, beta, b)

        def packed(theta):
            return lr_loss(K, y, c, eta, theta[:-1], float(theta[-1]))

        fd = central_difference_gradient(packed, np.concatenate([beta, [b]]), h=1e-6)
        analytic = np.concatenate([grad_beta, [grad_b]])
        denom = max(float(np.abs(fd).max()), 1e-8)
        assert float(np.abs(analytic - fd).max()) / denom <= 1e-5


def test_training_decreases_loss_monotonically():
    data = sample_gaussian(_SPEC, 150, seed=4)
    hp = Hyperparameters(eta=1.0, tau=0.5, kernel=KernelSpec(kind="gaussian"))
    model = train_sc_lr(data, hp)
    assert model.diagnostics.converged
    # each accepted step passes the Armijo test, so the loss ends below its
    # value at the starting point beta = 0, b = 0
    x, y = data.x, data.y.astype(float)
    c = (1.0 - 2.0 * hp.tau) * y + 1.0
    start = lr_loss(gram(model.kernel, x), y, c, hp.eta, np.zeros(y.size), 0.0)
    assert model.diagnostics.objective < start
    assert model.diagnostics.residual <= 1e-6


def test_v1_record_with_a_monotone_loss_flag_still_loads(tmp_path):
    # earlier LR model files carry flags {"monotone_loss": true}; flags are a
    # free-form mapping, so the record still loads at format version 1
    data = sample_gaussian(_SPEC, 90, seed=18)
    hp = Hyperparameters(eta=0.9, tau=0.6, kernel=KernelSpec(kind="gaussian", gamma=0.3))
    model = train_sc_lr(data, hp)
    assert model.diagnostics.flags == {}
    path = tmp_path / "lr.json"
    save_model(model, path)
    record = json.loads(path.read_text())
    assert record["format_version"] == 1
    record["diagnostics"]["flags"] = {"monotone_loss": True}
    path.write_text(json.dumps(record))
    loaded, _ = load_model(path)
    assert isinstance(loaded, ScLrModel)
    assert loaded.diagnostics.flags == {"monotone_loss": True}
    pts = np.random.default_rng(19).normal(size=(15, 2))
    assert np.array_equal(loaded.margin(pts), model.margin(pts))


def test_decision_is_shifted_sigmoid():
    data = sample_gaussian(_SPEC, 100, seed=14)
    hp = Hyperparameters(eta=0.7, tau=0.4, kernel=KernelSpec(kind="linear"))
    model = train_sc_lr(data, hp)
    pts = np.random.default_rng(2).normal(size=(20, 2))
    s = model.margin(pts)
    vals = model.decision_value(pts, 0.5)
    from scipy.special import expit
    assert np.allclose(vals, expit(s + 0.5) - 0.5, atol=1e-12)
    # The link is bounded in (-1/2, 1/2).
    assert (np.abs(model.decision_value(pts, 100.0)) <= 0.5).all()


def test_accuracy_reasonable():
    data = sample_gaussian(_SPEC, 400, seed=15)
    hp = Hyperparameters(eta=1.0, tau=0.5, kernel=KernelSpec(kind="linear"))
    model = train_sc_lr(data, hp)
    test = sample_gaussian(_SPEC, 4000, seed=16)
    acc = float((model.predict(test.x, 0.0) == test.y).mean())
    assert acc >= 0.90


def test_iteration_cap_respected():
    data = sample_gaussian(_SPEC, 80, seed=17)
    hp = Hyperparameters(eta=1.0, tau=0.5, kernel=KernelSpec(kind="gaussian"))
    from saferegions.errors import TrainingError
    with pytest.raises(TrainingError):
        train_sc_lr(data, hp, settings=TrainSettings(tol=1e-12, max_iter=1))


def test_model_round_trip(tmp_path):
    data = sample_gaussian(_SPEC, 90, seed=18)
    hp = Hyperparameters(eta=0.9, tau=0.6, kernel=KernelSpec(kind="gaussian", gamma=0.3))
    model = train_sc_lr(data, hp)
    path = tmp_path / "lr.json"
    save_model(model, path)
    loaded, _ = load_model(path)
    assert isinstance(loaded, ScLrModel)
    pts = np.random.default_rng(19).normal(size=(15, 2))
    assert np.array_equal(loaded.margin(pts), model.margin(pts))


def _step_inputs(K, y, c, eta, beta, b):
    """Arguments of ``_newton_step`` at (beta, b), from the definitions."""
    s = 1.0 / (1.0 + np.exp(-y * (K @ beta - b)))
    g = beta / eta + 0.5 * c * y * s
    return K, eta, g, K @ g, -0.5 * float(np.sum(c * y * s)), 0.5 * c * s * (1.0 - s)


def _random_problem(rng, n, kernel, dim):
    x = rng.normal(size=(n, dim))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    tau = float(rng.uniform(0.05, 0.95))
    return (gram(kernel, x), y, (1.0 - 2.0 * tau) * y + 1.0, float(rng.uniform(0.1, 10.0)),
            rng.normal(size=n), float(rng.normal()))


def test_newton_step_matches_full_hessian_oracle():
    rng = np.random.default_rng(41)
    for _ in range(5):
        K, y, c, eta, beta, b = _random_problem(
            rng, 20, KernelSpec(kind="gaussian", gamma=4.0), 3)
        assert np.linalg.matrix_rank(K) == K.shape[0]
        step_beta, step_b = _newton_step(*_step_inputs(K, y, c, eta, beta, b))
        want_beta, want_b = lr_newton_step_oracle(K, y, c, eta, beta, b)
        scale = max(float(np.abs(want_beta).max()), abs(want_b))
        assert float(np.abs(step_beta - want_beta).max()) <= 1e-10 * scale
        assert abs(step_b - want_b) <= 1e-10 * scale


def test_newton_step_on_singular_gram_matches_oracle_in_z():
    # n > dim: the linear Gram has rank 2, so steps agree up to null(K),
    # which moves neither z = K beta - b nor the margin function
    rng = np.random.default_rng(42)
    for _ in range(5):
        K, y, c, eta, beta, b = _random_problem(rng, 15, KernelSpec(kind="linear"), 2)
        step_beta, step_b = _newton_step(*_step_inputs(K, y, c, eta, beta, b))
        want_beta, want_b = lr_newton_step_oracle(K, y, c, eta, beta, b)
        got, want = K @ step_beta - step_b, K @ want_beta - want_b
        assert float(np.abs(got - want).max()) <= 1e-8 * float(np.abs(want).max())


def test_newton_step_without_curvature_falls_back():
    K = gram(KernelSpec(kind="gaussian", gamma=1.0), np.arange(6.0)[:, None])
    g = np.ones(6)
    assert _newton_step(K, 1.0, g, K @ g, 0.5, np.zeros(6)) is None


def test_trained_margins_match_lbfgs_oracle():
    rng = np.random.default_rng(43)
    x = np.concatenate([rng.normal(-0.5, 1.0, size=(15, 2)),
                        rng.normal(0.5, 1.0, size=(15, 2))])
    y = np.repeat([1, -1], 15)
    kernel = KernelSpec(kind="gaussian", gamma=0.7)
    for eta, tau in [(0.5, 0.3), (5.0, 0.8)]:
        model = train_sc_lr(Dataset(x, y, {}), Hyperparameters(eta=eta, tau=tau, kernel=kernel),
                            settings=TrainSettings(tol=1e-10))
        c = (1.0 - 2.0 * tau) * y + 1.0
        beta, b = lr_lbfgs_oracle(gram(kernel, x), y.astype(float), c, eta)
        pts = rng.normal(size=(40, 2))
        want = kernel_matrix(kernel, pts, x) @ beta - b
        got = model.margin(pts)
        assert float(np.abs(got - want).max()) <= 1e-6 * float(np.abs(want).max())


def test_saturated_curvature_never_gives_nan(monkeypatch):
    # far-apart separable points and a weak regularizer: Newton overshoots
    # until every curvature d underflows to 0 and the step falls back
    saturated = []

    def spy(K, eta, g, grad_beta, grad_b, d):
        saturated.append(not d.any())
        return _newton_step(K, eta, g, grad_beta, grad_b, d)

    monkeypatch.setattr(logistic, "_newton_step", spy)
    x = np.array([[-1.0], [-2.0], [-1.5], [1.0], [2.0], [1.5]]) * 1e4
    y = np.array([1, 1, 1, -1, -1, -1])
    hp = Hyperparameters(eta=1e9, tau=0.5, kernel=KernelSpec(kind="linear"))
    try:
        model = train_sc_lr(Dataset(x, y, {}), hp)
    except TrainingError:
        model = None
    assert any(saturated)
    if model is not None:
        assert np.isfinite(model.beta).all() and np.isfinite(model.offset)
        assert np.isfinite(model.margin(x)).all()
