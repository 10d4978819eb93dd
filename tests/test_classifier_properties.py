"""Shared contract of all scalable classifiers.

Every variant must be strictly increasing in the scaling level, have an
exactly computable boundary root, predict safe exactly below that root, and
produce nested regions as the level decreases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saferegions import (
    Dataset,
    FamilyMember,
    GaussianSpec,
    Hyperparameters,
    KernelSpec,
    ScalingPlan,
    ScLrModel,
    ScSvddModel,
    ScSvmModel,
    calibrate,
    calibrate_trained_family,
    safe_coverage,
    sample_gaussian,
    train_sc_lr,
    train_sc_svdd,
    train_sc_svm,
)
from saferegions.classifiers import TrainingDiagnostics, in_region
from saferegions.scaling import WHOLE_SPACE

_SPEC = GaussianSpec(mu_safe=(-1.0, -1.0), mu_unsafe=(1.0, 1.0),
                     cov_safe=((1.0, 0.0), (0.0, 1.0)),
                     cov_unsafe=((1.0, 0.0), (0.0, 1.0)))
_TRAINERS = {"svm": train_sc_svm, "svdd": train_sc_svdd, "lr": train_sc_lr}
_KERNELS = ("linear", "gaussian", "polynomial")


@pytest.fixture(scope="module")
def models():
    data = sample_gaussian(_SPEC, 120, seed=29)
    out = {}
    for variant, trainer in _TRAINERS.items():
        for kind in _KERNELS:
            hp = Hyperparameters(eta=0.8, tau=0.35, kernel=KernelSpec(kind=kind))
            out[variant, kind] = trainer(data, hp)
    return out


def _sample_points(rng, n=60):
    return rng.normal(scale=2.0, size=(n, 2))


@pytest.mark.parametrize("variant", sorted(_TRAINERS))
@pytest.mark.parametrize("kind", _KERNELS)
def test_strictly_increasing_in_level(models, variant, kind):
    model = models[variant, kind]
    rng = np.random.default_rng(33)
    x = _sample_points(rng)
    for _ in range(10):
        r1, r2 = sorted(rng.normal(scale=2.0, size=2))
        if r1 == r2:
            continue
        v1 = model.decision_value(x, r1)
        v2 = model.decision_value(x, r2)
        assert (v2 >= v1).all()
        if variant == "lr":
            # The logistic link flattens into float plateaus near +-0.5;
            # strictness is only expressible while one side sits in the band
            # where the slope still exceeds the local float spacing.
            interior = (np.abs(v1) < 0.5 - 1e-12) | (np.abs(v2) < 0.5 - 1e-12)
        else:
            interior = np.ones(x.shape[0], dtype=bool)
        assert interior.any()
        assert (v2[interior] > v1[interior]).all()


@pytest.mark.parametrize("variant", sorted(_TRAINERS))
@pytest.mark.parametrize("kind", _KERNELS)
def test_boundary_root_and_membership_equivalence(models, variant, kind):
    model = models[variant, kind]
    rng = np.random.default_rng(35)
    x = _sample_points(rng)
    root = model.boundary_radius(x)
    at_root = model.decision_value(x, 0.0) * 0.0
    for i in range(x.shape[0]):
        at_root[i] = model.decision_value(x[i:i + 1], float(root[i]))[0]
    assert float(np.abs(at_root).max()) <= 1e-9
    # predict == -1 exactly when the level is at or above the root.
    for rho in (-2.0, -0.1, 0.0, 0.3, 1.7):
        pred = model.predict(x, rho)
        assert np.array_equal(pred == -1, rho >= root)


@pytest.mark.parametrize("variant", sorted(_TRAINERS))
@pytest.mark.parametrize("kind", _KERNELS)
def test_regions_nest(models, variant, kind):
    model = models[variant, kind]
    rng = np.random.default_rng(37)
    x = _sample_points(rng, n=200)
    levels = sorted(rng.normal(scale=1.5, size=5))
    for small, large in zip(levels, levels[1:]):
        inside_large_level = model.decision_value(x, large) < 0.0
        inside_small_level = model.decision_value(x, small) < 0.0
        # Lower level, larger region: membership at the larger level implies
        # membership at the smaller one.
        assert not (inside_large_level & ~inside_small_level).any()


@pytest.mark.parametrize("variant", sorted(_TRAINERS))
def test_whole_space_level_admits_everything(models, variant):
    model = models[variant, "gaussian"]
    rng = np.random.default_rng(39)
    x = _sample_points(rng)
    vals = model.decision_value(x, float("-inf"))
    assert (vals < 0.0).all()
    assert (model.predict(x, float("-inf")) == 1).all()


@pytest.mark.parametrize("variant", sorted(_TRAINERS))
def test_scalar_and_batch_agree(models, variant):
    model = models[variant, "linear"]
    rng = np.random.default_rng(41)
    x = _sample_points(rng, n=10)
    batch = model.margin(x)
    singles = np.array([model.margin(x[i]) for i in range(10)])
    # Single-row BLAS paths may associate differently; agreement is to float
    # precision, not bit identity.
    assert np.allclose(batch, singles, rtol=1e-10, atol=1e-12)


_LINEAR = Hyperparameters(kernel=KernelSpec(kind="linear"))
_DIAGNOSTICS = TrainingDiagnostics(iterations=0, residual=0.0, converged=True, objective=0.0)


def _hand_built(variant):
    """A linear member of each variant over the centers (1, 0) and (0, 2)."""
    centers = np.array([[1.0, 0.0], [0.0, 2.0]])
    shared = dict(hyperparameters=_LINEAR, diagnostics=_DIAGNOSTICS)
    if variant == "svm":
        return ScSvmModel(support_x=centers, support_alpha=np.array([0.5, 0.25]),
                          support_y=np.array([1, -1]), offset=0.1, **shared)
    if variant == "svdd":
        return ScSvddModel(support_x=centers, support_alpha=np.array([0.75, 0.25]),
                           support_y=np.array([1, -1]), r_squared=2.0,
                           center_sq_norm=3.25, **shared)
    return ScLrModel(train_x=centers, beta=np.array([0.5, -0.25]), offset=0.2, **shared)


def test_a_safe_point_just_below_its_boundary_radius_counts_inside():
    # margin(x) = x exactly: linear kernel, one center at 1, beta 1, offset 0
    model = ScLrModel(train_x=np.array([[1.0]]), beta=np.array([1.0]), offset=0.0,
                      hyperparameters=_LINEAR, diagnostics=_DIAGNOSTICS)
    unsafe = np.nextafter(0.3, 1.0)
    calib = Dataset(x=[[unsafe], [0.3]], y=[-1, 1])
    plan = ScalingPlan(eps=0.9, delta=0.5, r=1, n_c=2)
    safe_x = np.array([[0.3]])
    cert = calibrate(model, calib, plan)
    assert cert.rho_eps == -unsafe < -0.3
    # 0.3 + rho_eps is one ulp below 0, which the sigmoid link rounds to 0
    assert model.decision_value(safe_x, cert.rho_eps)[0] == 0.0
    assert model.predict(safe_x, cert.rho_eps)[0] == 1
    assert safe_coverage(model, cert, calib) == 1.0
    family = calibrate_trained_family(
        [FamilyMember(index=0, hyperparameters=_LINEAR, model=model)], calib, plan, "lr")
    assert family.members[0].score == 1.0


def test_in_region_ties_whole_space_and_nan():
    # margin(x) = x exactly: linear kernel, one center at 1, beta 1, offset 0
    model = ScLrModel(train_x=np.array([[1.0]]), beta=np.array([1.0]), offset=0.0,
                      hyperparameters=_LINEAR, diagnostics=_DIAGNOSTICS)
    margins = np.array([-0.5, 0.0, -0.0, 0.5, 1e300, -1e300, np.nan])
    x = margins[:, None]
    assert np.array_equal(model.margin(x), margins, equal_nan=True)
    cases = {
        # s + rho == 0 is a tie, and ties are outside
        0.0: [True, False, False, False, False, True, False],
        0.5: [False, False, False, False, False, True, False],
        -0.5: [True, True, True, False, False, True, False],
        # the whole-space level admits every finite margin, never a NaN one
        WHOLE_SPACE: [True] * 6 + [False],
        float("inf"): [False] * 7,
    }
    for rho, want in cases.items():
        assert in_region(margins, rho).tolist() == want, rho
        assert (model.predict(x, rho) == 1).tolist() == want, rho
        for k, s in enumerate(margins):
            assert bool(in_region(s, rho)) == want[k]
            assert (model.predict(x[k], rho) == 1) == want[k]
    # the level-0 rule is the sign of the margin, -0.0 included
    assert np.array_equal(in_region(margins, 0.0), margins < 0.0)


_COORDINATE = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(variant=st.sampled_from(["svm", "svdd", "lr"]),
       points=st.lists(st.tuples(_COORDINATE, _COORDINATE), min_size=1, max_size=8),
       extra=st.lists(st.floats(min_value=-50.0, max_value=50.0), max_size=4))
def test_membership_is_a_level_below_the_boundary_radius(variant, points, extra):
    model = _hand_built(variant)
    x = np.array(points)
    radii = model.boundary_radius(x)
    # each point's exact root and its float neighbours, plus a few levels
    levels = sorted({float(v) for r in radii
                     for v in (np.nextafter(r, -np.inf), r, np.nextafter(r, np.inf))}
                    | set(extra))
    inside = [model.predict(x, rho) == 1 for rho in levels]
    for rho, members in zip(levels, inside):
        assert np.array_equal(members, rho < radii)
    # a larger level never admits a point a smaller one leaves out
    for smaller, larger in zip(inside, inside[1:]):
        assert not (larger & ~smaller).any()
