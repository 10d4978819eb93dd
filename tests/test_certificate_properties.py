"""Property tests of the certificate arithmetic (the family union bound and
the certificate record round trip), and a Monte-Carlo check that the stated
confidence holds over independent calibration draws."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from saferegions import (
    CalibrationCertificate,
    Dataset,
    FamilyMember,
    GaussianSpec,
    Hyperparameters,
    InvalidArgument,
    KernelSpec,
    ScalingPlan,
    UncertifiedPlanError,
    calibrate,
    calibrate_trained_family,
    discarding_parameter,
    sample_gaussian,
)
from saferegions.classifiers import TrainingDiagnostics
from saferegions.logistic import ScLrModel
from saferegions.scaling import WHOLE_SPACE, _certificate

_UNIT_OPEN = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


def _members(m: int) -> list:
    """m members sharing one hand-built linear logistic model: s(x) = x1 - 0.1."""
    hp = Hyperparameters(kernel=KernelSpec(kind="linear"))
    model = ScLrModel(hyperparameters=hp,
                      diagnostics=TrainingDiagnostics(iterations=0, residual=0.0,
                                                      converged=True, objective=0.0),
                      train_x=np.array([[1.0, 0.0]]), beta=np.array([1.0]), offset=0.1)
    return [FamilyMember(index=i, hyperparameters=hp, model=model) for i in range(m)]


@settings(max_examples=60, deadline=None)
@given(eps=st.floats(min_value=0.01, max_value=0.9), beta=_UNIT_OPEN,
       n_c=st.integers(min_value=1, max_value=400), seed=st.integers(0, 2 ** 32 - 1))
def test_family_confidence_does_not_increase_with_family_size(eps, beta, n_c, seed):
    plan = ScalingPlan(eps=eps, delta=0.5, beta=beta, n_c=n_c,
                       r=discarding_parameter(beta, eps, n_c))
    rng = np.random.default_rng(seed)
    calib = Dataset(x=rng.normal(size=(n_c, 2)), y=rng.choice([-1, 1], size=n_c))
    confidences = [calibrate_trained_family(_members(m), calib, plan, "lr",
                                            force_uncertified=True).family_confidence
                   for m in range(1, 7)]
    assert all(0.0 <= c <= 1.0 for c in confidences)
    assert all(later <= earlier for earlier, later in zip(confidences, confidences[1:]))


@st.composite
def _certificates(draw):
    n_c = draw(st.integers(min_value=1, max_value=10 ** 6))
    plan = ScalingPlan(eps=draw(_UNIT_OPEN), delta=draw(_UNIT_OPEN), beta=draw(_UNIT_OPEN),
                       r=draw(st.integers(min_value=1, max_value=n_c)), n_c=n_c)
    rho = draw(st.one_of(st.just(WHOLE_SPACE), st.floats(allow_nan=False, allow_infinity=False)))
    return CalibrationCertificate(
        rho_eps=rho, plan=plan, n_U=draw(st.integers(min_value=0, max_value=n_c)),
        confidence=draw(st.floats(min_value=0.0, max_value=1.0)), certified=draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(certificate=_certificates())
def test_certificate_record_round_trips_through_json(certificate):
    record = certificate.to_record()
    assert record["region_kind"] == certificate.kind
    if certificate.certified and not certificate.plan.certified:
        # a record claiming more than its plan backs does not load
        with pytest.raises(InvalidArgument, match="certified"):
            CalibrationCertificate.from_record(json.loads(json.dumps(record)))
        return
    if certificate.certified and certificate.confidence < 1.0 - certificate.plan.delta:
        # a certified record must state a confidence its delta backs
        with pytest.raises(InvalidArgument, match="below 1 - delta"):
            CalibrationCertificate.from_record(json.loads(json.dumps(record)))
        return
    if (certificate.kind == "whole_space") != (certificate.n_U < certificate.plan.r):
        # a region kind calibration does not give for n_U unsafe points does not load
        with pytest.raises(InvalidArgument, match="n_U"):
            CalibrationCertificate.from_record(json.loads(json.dumps(record)))
        return
    back = CalibrationCertificate.from_record(json.loads(json.dumps(record)))
    assert back == certificate
    assert back.kind == certificate.kind


@settings(max_examples=60, deadline=None)
@given(eps=st.floats(min_value=0.01, max_value=0.5), beta=_UNIT_OPEN,
       n_c=st.integers(min_value=1, max_value=3000), at=st.integers(min_value=1, max_value=27),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_family_certificate_round_trips(eps, beta, n_c, at, seed):
    # delta is set to at x tail, so the family of ``at`` members sits exactly
    # on its union bound: certified, at a confidence of exactly 1 - delta
    r = discarding_parameter(beta, eps, n_c)
    tail = ScalingPlan(eps=eps, delta=0.5, beta=beta, r=r, n_c=n_c).tail
    assume(0.0 < at * tail < 1.0)
    plan = ScalingPlan(eps=eps, delta=at * tail, beta=beta, r=r, n_c=n_c)
    rng = np.random.default_rng(seed)
    radii = rng.normal(size=int(rng.integers(n_c + 1)))
    for m in range(1, 28):
        certificate = _certificate(plan, radii, m)
        assert certificate.certified == (m <= at)
        if m == at:
            assert certificate.confidence == 1.0 - plan.delta
        back = CalibrationCertificate.from_record(json.loads(json.dumps(certificate.to_record())))
        assert back == certificate


def test_a_family_record_past_its_union_bound_does_not_load_as_certified():
    # 27 members at n_c = 1394: tail <= delta = 1e-6 < 27 x tail, so the
    # family's certificate reads uncertified at a confidence below 1 - delta
    plan = ScalingPlan.from_risk(0.05, 1e-6, n_c=1394)
    record = _certificate(plan, np.linspace(-1.0, 1.0, 200), 27).to_record()
    assert plan.certified and not record["certified"]
    assert record["confidence"] < 1.0 - plan.delta
    assert CalibrationCertificate.from_record(record).confidence == record["confidence"]
    with pytest.raises(InvalidArgument, match="says certified, but its confidence"):
        CalibrationCertificate.from_record({**record, "certified": True})


_MIXTURE = GaussianSpec(mu_safe=(-1.0, -1.0), mu_unsafe=(1.0, 1.0),
                        cov_safe=((1.0, 0.0), (0.0, 1.0)),
                        cov_unsafe=((1.0, 0.0), (0.0, 1.0)))
_DRAWS = 400


def _linear_member(w, b) -> ScLrModel:
    """A logistic member with margin s(x) = w.x + b."""
    return ScLrModel(hyperparameters=Hyperparameters(kernel=KernelSpec(kind="linear")),
                     diagnostics=TrainingDiagnostics(iterations=0, residual=0.0,
                                                     converged=True, objective=0.0),
                     train_x=np.array([w], dtype=float), beta=np.array([1.0]), offset=-b)


def _risk(w, b, rho) -> float:
    """P(unsafe and s(x) + rho < 0) on the mixture, in closed form: for an
    unsafe x ~ N(mu_unsafe, I), w.x + b is normal with mean w.mu_unsafe + b
    and standard deviation |w|."""
    mean = w[0] * _MIXTURE.mu_unsafe[0] + w[1] * _MIXTURE.mu_unsafe[1] + b
    z = -(mean + rho) / math.hypot(*w)
    return (1.0 - _MIXTURE.safe_prob) * 0.5 * math.erfc(-z / math.sqrt(2.0))


def _violation_share(members, eps, calibrate_draw) -> tuple:
    """(share of draws in which some member's risk exceeds eps, tail)."""
    plan = ScalingPlan.from_risk(eps, 0.2)
    assert (plan.n_c, plan.r) == (121, 7)
    violations = 0
    for draw in range(_DRAWS):
        calib = sample_gaussian(_MIXTURE, plan.n_c, seed=draw)
        levels = calibrate_draw(calib, plan)
        violations += any(_risk(w, b, rho) > eps for (w, b), rho in zip(members, levels))
    return violations / _DRAWS, plan.tail


def _bound(p: float) -> float:
    return p + 3.0 * math.sqrt(p * (1.0 - p) / _DRAWS)


def test_standalone_confidence_holds_over_calibration_draws():
    member = ((1.0, 1.0), 0.0)
    model = _linear_member(*member)
    share, tail = _violation_share(
        [member], 0.1, lambda calib, plan: [calibrate(model, calib, plan).rho_eps])
    assert share <= _bound(tail), (share, tail)


def test_family_confidence_holds_under_the_union_bound():
    members = [((1.0, 1.0), 0.0), ((1.0, 0.5), 0.3), ((0.5, 1.0), -0.2)]
    family = [FamilyMember(index=i, hyperparameters=Hyperparameters(), model=_linear_member(*m))
              for i, m in enumerate(members)]

    def levels(calib, plan):
        result = calibrate_trained_family(family, calib, plan, "lr")
        return [m.certificate.rho_eps for m in result.members]

    share, tail = _violation_share(members, 0.1, levels)
    assert share <= _bound(len(members) * tail), (share, tail)


def test_a_family_past_its_union_bound_reads_uncertified():
    # at the plan (121, 7) tail is 0.036, so six members give 6 x tail =
    # 0.216 > delta = 0.2 >= tail: the family calibrates only when forced,
    # every certificate reads uncertified, and the stated union-bound
    # confidence still holds over the draws
    members = [((1.0, 1.0), 0.0), ((1.0, 0.5), 0.3), ((0.5, 1.0), -0.2),
               ((1.0, 0.0), 0.1), ((0.0, 1.0), 0.0), ((1.0, 2.0), -0.1)]
    family = [FamilyMember(index=i, hyperparameters=Hyperparameters(), model=_linear_member(*m))
              for i, m in enumerate(members)]
    verdicts = set()

    def levels(calib, plan):
        with pytest.raises(UncertifiedPlanError, match="family of 6 members"):
            calibrate_trained_family(family, calib, plan, "lr")
        result = calibrate_trained_family(family, calib, plan, "lr", force_uncertified=True)
        verdicts.update(m.certificate.certified for m in result.members)
        return [m.certificate.rho_eps for m in result.members]

    share, tail = _violation_share(members, 0.1, levels)
    assert len(members) * tail > 0.2 >= tail
    assert verdicts == {False}
    assert share <= _bound(len(members) * tail), (share, tail)
