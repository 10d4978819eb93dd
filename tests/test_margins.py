"""Batched margin evaluation: one kernel block per shared kernel, one column
per model, pinned against each variant's closed-form margin."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import saferegions.classifiers as classifiers
import saferegions.pipeline as pipeline
from saferegions import (
    ExperimentConfig,
    GaussianSpec,
    Hyperparameters,
    InvalidArgument,
    KernelSpec,
    expansion_margins,
    run_experiment,
    sample_gaussian,
    train_sc_lr,
    train_sc_svdd,
    train_sc_svm,
)
from saferegions.classifiers import TrainingDiagnostics
from saferegions.datagen import Dataset
from saferegions.kernels import kernel_diag, kernel_matrix
from saferegions.logistic import ScLrModel

_SPEC = GaussianSpec(mu_safe=(-1.0, -1.0), mu_unsafe=(1.0, 1.0),
                     cov_safe=((1.0, 0.0), (0.0, 1.0)),
                     cov_unsafe=((1.0, 0.0), (0.0, 1.0)))
_TRAINERS = {"svm": train_sc_svm, "svdd": train_sc_svdd, "lr": train_sc_lr}
_TOL = {"rtol": 1e-12, "atol": 1e-12}


def _closed_form(model, x):
    """Each variant's margin written out from its fitted fields."""
    k = model.kernel
    if model.variant == "svm":
        return kernel_matrix(k, x, model.support_x) @ (-model.support_alpha
                                                       * model.support_y) - model.offset
    if model.variant == "svdd":
        cross = kernel_matrix(k, x, model.support_x) @ (model.support_alpha * model.support_y)
        return kernel_diag(k, x) - 4.0 * cross + model.center_sq_norm - model.r_squared
    return kernel_matrix(k, x, model.train_x) @ model.beta - model.offset


def _fit(data, kernel, etas=(0.5, 2.0)):
    return [_TRAINERS[v](data, Hyperparameters(eta=eta, tau=0.4, kernel=kernel))
            for v in sorted(_TRAINERS) for eta in etas]


@pytest.fixture(scope="module")
def data():
    return sample_gaussian(_SPEC, 90, seed=3)


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(5).normal(scale=1.5, size=(50, 2))


@pytest.mark.parametrize("variant", sorted(_TRAINERS))
def test_columns_match_each_margin(data, points, variant):
    models = [_TRAINERS[variant](data, Hyperparameters(eta=eta, tau=tau))
              for eta, tau in ((0.5, 0.3), (1.0, 0.5), (4.0, 0.7))]
    block = expansion_margins(models, points)
    assert block.shape == (points.shape[0], len(models))
    for k, model in enumerate(models):
        np.testing.assert_allclose(block[:, k], model.margin(points), **_TOL)
        np.testing.assert_allclose(block[:, k], _closed_form(model, points), **_TOL)


def test_two_kernel_groups_in_one_call(data, points, kernel_blocks):
    gaussian = _fit(data, KernelSpec(kind="gaussian", gamma=0.7))
    linear = _fit(data, KernelSpec(kind="linear"))
    models = [m for pair in zip(gaussian, linear) for m in pair]   # interleaved
    block = expansion_margins(models, points)
    # one kernel block per kernel, whatever the number of models
    assert sorted(b.kind for b in kernel_blocks) == ["gaussian", "linear"]
    for k, model in enumerate(models):
        np.testing.assert_allclose(block[:, k], _closed_form(model, points), **_TOL)


def test_duplicated_training_rows_merge_into_one_center(data, points, kernel_blocks):
    doubled = Dataset(x=np.vstack([data.x, data.x[:30]]),
                      y=np.concatenate([data.y, data.y[:30]]))
    models = _fit(doubled, KernelSpec(kind="gaussian", gamma=0.7))
    block = expansion_margins(models, points)
    assert [b.cols for b in kernel_blocks] == [np.unique(data.x, axis=0).shape[0]]
    for k, model in enumerate(models):
        np.testing.assert_allclose(block[:, k], _closed_form(model, points), **_TOL)


def test_points_spanning_several_row_blocks(data, monkeypatch, kernel_blocks):
    models = _fit(data, KernelSpec(kind="gaussian", gamma=0.7))
    x = np.random.default_rng(9).normal(size=(1001, 2))
    whole = expansion_margins(models, x)
    monkeypatch.setattr(classifiers, "_BLOCK_ENTRIES", 7 * data.n_samples)
    kernel_blocks.clear()
    blocked = expansion_margins(models, x)
    rows = [b.rows for b in kernel_blocks]
    assert len(rows) > 100 and sum(rows) == x.shape[0]
    np.testing.assert_allclose(blocked, whole, **_TOL)
    for k, model in enumerate(models):
        np.testing.assert_allclose(blocked[:, k], _closed_form(model, x), **_TOL)


def test_per_model_groups_by_kernel_and_equal_centers(data, monkeypatch, kernel_blocks):
    gaussian = KernelSpec(kind="gaussian", gamma=0.7)
    linear = KernelSpec(kind="linear")
    lr = [train_sc_lr(data, Hyperparameters(eta=eta, tau=0.4, kernel=gaussian))
          for eta in (0.25, 1.0, 4.0)]
    svdd = train_sc_svdd(data, Hyperparameters(eta=1.0, tau=0.4, kernel=gaussian))
    svm = train_sc_svm(data, Hyperparameters(eta=1.0, tau=0.4, kernel=linear))
    # the training set again, under the other kernel: equal centers, no share
    lr_linear = train_sc_lr(data, Hyperparameters(eta=1.0, tau=0.4, kernel=linear))
    models = [lr[0], svdd, lr[1], svm, lr_linear, lr[2]]
    lone = [svdd, svm, lr_linear]
    assert svdd._expansion()[2] == 1.0 and svdd.support_x.shape[0] < data.n_samples
    x = np.random.default_rng(11).normal(scale=1.5, size=(200, 2))
    entries = 7 * data.n_samples   # the logistic group's blocks hold 7 points
    monkeypatch.setattr(classifiers, "_BLOCK_ENTRIES", entries)
    own = [model.margin(x) for model in models]
    kernel_blocks.clear()
    through_margin = []
    for cls in {type(model) for model in models}:
        def spying(self, points, real_margin=cls.margin):
            through_margin.append(self)
            return real_margin(self, points)
        monkeypatch.setattr(cls, "margin", spying)
    margins = classifiers._margins(models, x, per_model=True)
    for column, model in enumerate(models):
        assert np.array_equal(margins[:, column], own[column])
    assert [id(m) for m in through_margin] == [id(m) for m in lone]
    # one block per row block for the three shared logistic members, then
    # each lone model's own blocks through its own margin
    distinct = [np.unique(model._expansion()[0], axis=0).shape[0] for model in lone]
    expected = [data.n_samples] * math.ceil(200 / 7)
    for width in distinct:
        expected += [width] * math.ceil(200 / (entries // width))
    assert sorted(b.cols for b in kernel_blocks) == sorted(expected)


def test_per_model_margins_hold_under_three_kernel_blocks():
    rng = np.random.default_rng(29)
    centers = rng.normal(size=(400, 2))
    hp = Hyperparameters(kernel=KernelSpec(kind="gaussian", gamma=0.5))
    diagnostics = TrainingDiagnostics(iterations=1, residual=0.0, converged=True, objective=0.0)
    models = [ScLrModel(hyperparameters=hp, diagnostics=diagnostics, train_x=centers.copy(),
                        beta=rng.normal(size=400), offset=0.1 * k) for k in range(3)]
    x = rng.normal(size=(20_000, 2))
    tracemalloc.start()
    try:
        out = classifiers._margins(models, x, per_model=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (20_000, 3)
    # a block buffer is at most 512 KiB, so it stays in a 2 MiB per-core L2
    assert peak - out.nbytes < 3 * classifiers._BLOCK_ENTRIES * 8 <= 3 * 2 ** 19


def test_single_point(data, points):
    models = _fit(data, KernelSpec(kind="gaussian", gamma=0.7))
    block = expansion_margins(models, points[0])
    assert block.shape == (1, len(models))
    for k, model in enumerate(models):
        value = model.margin(points[0])
        assert isinstance(value, float)
        np.testing.assert_allclose(block[0, k], value, **_TOL)
        np.testing.assert_allclose(value, _closed_form(model, points[:1])[0], **_TOL)


def test_wrong_feature_count_raises(data):
    models = _fit(data, KernelSpec(kind="linear"))
    with pytest.raises(InvalidArgument, match="2 features"):
        expansion_margins(models, np.zeros((4, 3)))
    with pytest.raises(InvalidArgument, match="2 features"):
        expansion_margins(models, np.zeros(3))
    with pytest.raises(InvalidArgument):
        expansion_margins([], np.zeros((4, 2)))


def test_pipeline_evaluates_test_margins_once_per_variant(tmp_path, monkeypatch):
    n_test = 400
    config = ExperimentConfig.from_mapping({
        "seed": 13,
        "output_dir": str(tmp_path / "out"),
        "data": {"generator": "gaussian", "n_train": 120, "n_test": n_test},
        "classifier": {"variants": ["svm", "lr"], "etas": [0.5, 1.0, 2.0],
                       "taus": [0.5], "kernels": [{"kind": "gaussian"}]},
        "risk": {"eps": [0.1, 0.5], "delta": 0.5, "beta": 0.5},
    })
    calls = []   # (inside _write_outputs, points, models) per batched call
    writing = [False]
    real_margins = classifiers.expansion_margins
    real_write = pipeline._write_outputs

    def counting_margins(models, x):
        models = list(models)
        calls.append((writing[0], np.atleast_2d(x).shape[0], len(models)))
        return real_margins(models, x)

    def flagged_write(*args, **kwargs):
        writing[0] = True
        try:
            return real_write(*args, **kwargs)
        finally:
            writing[0] = False

    # the pipeline's own binding and the one every model's margin uses
    monkeypatch.setattr(classifiers, "expansion_margins", counting_margins)
    monkeypatch.setattr(pipeline, "expansion_margins", counting_margins)
    monkeypatch.setattr(pipeline, "_write_outputs", flagged_write)
    result = run_experiment(config)

    assert not any(inside for inside, _, _ in calls)
    test_calls = [models for _, points, models in calls if points == n_test]
    # one call per variant over all three members; no per-model test pass
    assert test_calls == [3, 3]
    assert len(result.files["membership"]) == 4
