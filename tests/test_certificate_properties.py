"""Property tests of the certificate arithmetic: the family union bound and
the certificate record round trip."""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from saferegions import (
    CalibrationCertificate,
    Dataset,
    FamilyMember,
    Hyperparameters,
    KernelSpec,
    ScalingPlan,
    calibrate_trained_family,
    discarding_parameter,
)
from saferegions.classifiers import TrainingDiagnostics
from saferegions.logistic import ScLrModel
from saferegions.scaling import WHOLE_SPACE

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
    back = CalibrationCertificate.from_record(json.loads(json.dumps(record)))
    assert back == certificate
    assert back.kind == certificate.kind
