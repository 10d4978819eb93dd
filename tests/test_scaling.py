"""Order-statistic scaling: sizes, tails, certificates."""

from __future__ import annotations

import math

import numpy as np
import pytest

from saferegions import (
    WHOLE_SPACE,
    CalibrationCertificate,
    InvalidArgument,
    PlanCheck,
    ScalingPlan,
    UncertifiedPlanError,
    binomial_cdf,
    calibrate,
    check_plan,
    discarding_parameter,
    generalized_max,
    kappa,
    min_calibration_size,
)
from saferegions.datagen import Dataset

from .oracles import exact_binomial_cdf


def test_kappa_minimum_value():
    assert abs(kappa(0.5) - (4.0 + 2.0 * math.sqrt(3.0))) < 1e-12


def test_kappa_monotone_increasing():
    grid = [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95]
    values = [kappa(b) for b in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[0] > 1.0


def test_small_beta_plans_still_certify():
    # Less conventional beta values must still produce certified plans.
    for beta in (0.1, 0.3, 0.7):
        plan = ScalingPlan.from_risk(0.05, 1e-6, beta=beta)
        assert check_plan(plan).certified


def test_kappa_rejects_endpoints():
    for bad in (0.0, 1.0, -0.2, 1.5, float("nan")):
        with pytest.raises(InvalidArgument):
            kappa(bad)


@pytest.mark.parametrize("call", [
    lambda bad: kappa(bad),
    lambda bad: min_calibration_size(bad, 0.01),
    lambda bad: min_calibration_size(0.1, bad),
    lambda bad: discarding_parameter(bad, 0.1, 20),
    lambda bad: binomial_cdf(1, 10, bad),
], ids=["kappa", "min_calibration_size_eps", "min_calibration_size_delta",
        "discarding_parameter", "binomial_cdf"])
@pytest.mark.parametrize("bad", ["0.5", True], ids=["text", "boolean"])
def test_unit_interval_arguments_reject_strings_and_booleans(call, bad):
    # float() once parsed them: kappa('0.5') gave 7.4641
    with pytest.raises(InvalidArgument, match="must be a real number"):
        call(bad)


@pytest.mark.parametrize("call", [
    lambda bad: binomial_cdf(bad, 10, 0.3),
    lambda bad: binomial_cdf(3, bad, 0.3),
    lambda bad: discarding_parameter(0.5, 0.1, bad),
], ids=["binomial_cdf_k", "binomial_cdf_n", "discarding_parameter_n"])
@pytest.mark.parametrize("bad", ["3", 2.7, True], ids=["text", "fraction", "boolean"])
def test_integer_arguments_reject_strings_fractions_and_booleans(call, bad):
    # int() once parsed them: binomial_cdf(2.7, 10, 0.3) used k=2
    with pytest.raises(InvalidArgument, match="must be an integer"):
        call(bad)


def test_integer_arguments_take_integral_floats():
    assert binomial_cdf(3.0, 10.0, 0.3) == binomial_cdf(3, 10, 0.3)
    assert discarding_parameter(0.5, 0.2, 50.0) == 5


def test_min_calibration_size_frozen_values():
    # Frozen from an exact recomputation of ceil((kappa/eps)*ln(1/delta)).
    assert min_calibration_size(0.05, 1e-6) == 2063
    assert min_calibration_size(0.1, 1e-6) == 1032
    assert min_calibration_size(0.01, 1e-6) == 10313
    assert min_calibration_size(0.5, 0.5) == 11


def test_discarding_parameter_values():
    assert discarding_parameter(0.5, 0.05, 2063) == 52
    assert discarding_parameter(0.5, 0.05, 2064) == 52
    assert discarding_parameter(0.5, 0.1, 20) == 1
    # Exact integer product: no spurious bump from float representation.
    assert discarding_parameter(0.5, 0.2, 50) == 5


def test_generalized_max_against_sort_oracle():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        values = rng.normal(size=n)
        if rng.random() < 0.3:
            values = np.round(values, 1)   # force duplicates
        r = int(rng.integers(1, n + 1))
        expected = np.sort(values)[::-1][r - 1]
        assert generalized_max(values, r) == expected


def test_generalized_max_validation():
    with pytest.raises(InvalidArgument):
        generalized_max([], 1)
    with pytest.raises(InvalidArgument):
        generalized_max([1.0, 2.0], 3)
    with pytest.raises(InvalidArgument):
        generalized_max([[1.0, 2.0]], 1)


@pytest.mark.parametrize("r", [2.7, "2", True], ids=["fraction", "text", "boolean"])
def test_generalized_max_rank_must_be_an_integer(r):
    # once read by int(r): 2.7 gave the second largest, True the maximum
    with pytest.raises(InvalidArgument, match="rank r must be an integer"):
        generalized_max([3.0, 1.0, 2.0], r)
    assert generalized_max([3.0, 1.0, 2.0], 2.0) == 2.0


def test_generalized_max_rejects_non_finite_values():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidArgument, match="non-finite"):
            generalized_max([1.0, bad, 2.0, 0.5], 1)
    with pytest.raises(InvalidArgument, match="non-finite"):
        generalized_max([1.0, float("nan"), 2.0, 0.5], 4)


def test_calibrate_rejects_nan_radius():
    class _NanRadius:
        def boundary_radius(self, x):
            radii = -np.atleast_2d(x)[:, 0]
            radii[1] = np.nan
            return radii

    plan = ScalingPlan.from_risk(0.5, 0.5)
    x = np.arange(plan.n_c, dtype=float).reshape(-1, 1)
    calib = Dataset(x=x, y=np.where(np.arange(plan.n_c) % 2 == 0, -1, 1))
    assert (calib.y == -1).sum() >= plan.r
    with pytest.raises(InvalidArgument, match="non-finite"):
        calibrate(_NanRadius(), calib, plan)


def test_binomial_cdf_edges():
    assert binomial_cdf(-1, 10, 0.3) == 0.0
    assert binomial_cdf(10, 10, 0.3) == 1.0
    assert binomial_cdf(25, 10, 0.3) == 1.0


def test_binomial_cdf_monotone_in_k_and_eps():
    for n in (5, 17, 40):
        values = [binomial_cdf(k, n, 0.3) for k in range(-1, n + 1)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        for k in range(n):
            v_small = binomial_cdf(k, n, 0.2)
            v_large = binomial_cdf(k, n, 0.6)
            assert v_small >= v_large


def test_binomial_cdf_spot_rational_checks():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 31))
        k = int(rng.integers(0, n))
        eps = float(rng.choice([0.1, 0.3, 0.5, 0.9]))
        exact = float(exact_binomial_cdf(k, n, eps))
        got = binomial_cdf(k, n, eps)
        assert abs(got - exact) <= 1e-12 * max(exact, 1e-300)


def test_binomial_cdf_large_n_stays_finite_and_tiny():
    v = binomial_cdf(51, 10313, 0.01)
    assert 0.0 < v < 1e-6


def test_plan_construction_and_validation():
    plan = ScalingPlan.from_risk(0.05, 1e-6)
    assert (plan.n_c, plan.r) == (2063, 52)
    explicit = ScalingPlan.from_risk(0.05, 1e-6, n_c=2064)
    assert (explicit.n_c, explicit.r) == (2064, 52)
    with pytest.raises(InvalidArgument):
        ScalingPlan(eps=0.05, delta=1e-6, r=0, n_c=10)
    with pytest.raises(InvalidArgument):
        ScalingPlan(eps=0.05, delta=1e-6, r=11, n_c=10)
    with pytest.raises(InvalidArgument):
        ScalingPlan(eps=1.2, delta=1e-6, r=1, n_c=10)


def test_check_plan_certified_matrix():
    for eps in (0.01, 0.05, 0.1, 0.5):
        for delta in (1e-2, 1e-6):
            plan = ScalingPlan.from_risk(eps, delta)
            verdict = check_plan(plan)
            assert isinstance(verdict, PlanCheck)
            assert verdict.certified
            assert verdict.tail <= delta


def test_check_plan_uncertified_when_too_small():
    plan = ScalingPlan(eps=0.05, delta=1e-6, r=3, n_c=40)
    verdict = check_plan(plan)
    assert not verdict.certified
    assert verdict.tail > 1e-6


class _RadiusStub:
    """Boundary radius equal to the first feature, for exact expectations."""

    def boundary_radius(self, x):
        return np.asarray(x, dtype=float)[:, 0]


def _calib_set(radii, labels):
    x = np.column_stack([radii, np.zeros(len(radii))])
    return Dataset(x=np.asarray(x, dtype=float), y=np.asarray(labels, dtype=int),
                   provenance={"generator": "test"})


def test_calibrate_picks_rth_largest_unsafe_radius():
    plan = ScalingPlan(eps=0.5, delta=0.5, r=3, n_c=11)
    assert check_plan(plan).certified
    radii = [10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0]
    labels = [-1] * 6 + [1] * 5
    cert = calibrate(_RadiusStub(), _calib_set(radii, labels), plan)
    # Unsafe radii are 10, 9, 8, 7, 6, 5; third largest is 8.
    assert cert.rho_eps == 8.0
    assert cert.n_U == 6
    assert cert.kind == "scaled"
    assert cert.certified
    assert abs(cert.confidence - (1.0 - check_plan(plan).tail)) < 1e-15


def test_calibrate_whole_space_fallback():
    plan = ScalingPlan(eps=0.5, delta=0.5, r=3, n_c=11)
    radii = list(range(11))
    labels = [-1, -1] + [1] * 9   # fewer unsafe points than the rank
    cert = calibrate(_RadiusStub(), _calib_set(radii, labels), plan)
    assert cert.rho_eps == WHOLE_SPACE
    assert cert.kind == "whole_space"
    assert cert.n_U == 2


def test_calibrate_size_mismatch_and_uncertified_plan():
    plan = ScalingPlan(eps=0.5, delta=0.5, r=3, n_c=11)
    with pytest.raises(InvalidArgument):
        calibrate(_RadiusStub(), _calib_set(range(5), [1] * 5), plan)
    bad = ScalingPlan(eps=0.05, delta=1e-6, r=3, n_c=40)
    data = _calib_set(range(40), [-1] * 20 + [1] * 20)
    with pytest.raises(UncertifiedPlanError):
        calibrate(_RadiusStub(), data, bad)
    forced = calibrate(_RadiusStub(), data, bad, force_uncertified=True)
    assert not forced.certified
    assert forced.kind == "scaled"


def test_certificate_record_round_trip():
    plan = ScalingPlan(eps=0.5, delta=0.5, r=3, n_c=11)
    cert = CalibrationCertificate(rho_eps=1.25, plan=plan, n_U=6,
                                  confidence=0.97, certified=True)
    back = CalibrationCertificate.from_record(cert.to_record())
    assert back == cert
    sentinel = CalibrationCertificate(rho_eps=WHOLE_SPACE, plan=plan, n_U=1,
                                      confidence=0.97, certified=True)
    rec = sentinel.to_record()
    assert rec["rho_eps"] == "whole_space"
    assert CalibrationCertificate.from_record(rec) == sentinel
