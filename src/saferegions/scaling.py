"""Order-statistic scaling with binomial confidence certificates.

The calibration problem solved here: given a classifier whose predicted-safe
region shrinks monotonically with a scalar level ``rho``, pick the level so
that the probability of a point being truly unsafe *and* inside the region is
at most ``eps``, with confidence at least ``1 - delta`` over the draw of the
calibration set.  The level is the r-th largest boundary radius among the
unsafe calibration points; certifiability reduces to a binomial tail bound

    B(r - 1; n_c, eps) <= delta,

where ``n_c`` is the calibration size.  Sample sizes via the closed-form rule
``n_c >= (kappa(beta) / eps) * ln(1/delta)`` with ``r = ceil(beta*eps*n_c)``
make that inequality hold for any ``beta`` strictly between 0 and 1.

Everything in this module is pure: no hidden state, safe to call from
multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgument, UncertifiedPlanError
from .validation import checked_int, is_finite_real, is_real

__all__ = [
    "WHOLE_SPACE",
    "generalized_max",
    "binomial_cdf",
    "kappa",
    "min_calibration_size",
    "discarding_parameter",
    "ScalingPlan",
    "PlanCheck",
    "check_plan",
    "CalibrationCertificate",
    "calibrate",
]

# Scaling level meaning "every point is a member".  All supported classifiers
# have decision values that stay strictly negative in the limit rho -> -inf,
# so membership tests keep working on this sentinel without special cases.
WHOLE_SPACE = float("-inf")

# Snap tolerance for ceilings of products that are integers up to float error,
# e.g. beta*eps*n with beta = 0.5, eps = 0.1, n = 20.
_CEIL_SNAP = 1e-9


def _snapped_ceil(value: float) -> int:
    nearest = round(value)
    if abs(value - nearest) <= _CEIL_SNAP:
        return int(nearest)
    return int(math.ceil(value))


def _check_unit_open(name: str, value: float) -> float:
    """``value`` as a float strictly inside (0, 1); booleans and strings are
    not numbers here, as in ``checked_real``."""
    if not is_real(value):
        raise InvalidArgument(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value) or not 0.0 < value < 1.0:
        raise InvalidArgument(f"{name} must lie strictly between 0 and 1, got {value!r}")
    return value


def generalized_max(values, r: int) -> float:
    """Return the r-th largest element of a one-dimensional collection.

    With the values sorted in descending order ``g[0] >= g[1] >= ...``, the
    result is ``g[r-1]``; duplicates count with multiplicity, so at most
    ``r - 1`` elements are strictly larger than the result.  ``r = 1`` is the
    ordinary maximum and ``r = len(values)`` the minimum.  Any NaN or infinite
    value raises ``InvalidArgument``: a NaN level would certify an empty region.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidArgument(f"expected a 1-D collection, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidArgument(f"generalized_max needs finite values, got "
                              f"{int((~np.isfinite(arr)).sum())} non-finite of {arr.size}")
    n = arr.size
    if n == 0:
        raise InvalidArgument("generalized_max of an empty collection")
    r = checked_int(r, "rank r")
    if not 1 <= r <= n:
        raise InvalidArgument(f"rank r={r} outside [1, {n}]")
    # k-th smallest with k = n - r is the r-th largest.
    return float(np.partition(arr, n - r)[n - r])


def binomial_cdf(k: int, n: int, eps: float) -> float:
    """Lower binomial tail ``sum_{i=0}^{k} C(n,i) eps^i (1-eps)^(n-i)``.

    Evaluated with a log-space term recurrence and compensated summation, so
    the result is accurate, stays within [0, 1], and is monotone in ``k``
    for ``n`` well beyond 1e6.  ``k = -1`` is allowed and yields 0.
    """
    n = checked_int(n, "n")
    k = checked_int(k, "k")
    if n < 1:
        raise InvalidArgument(f"n must be a positive integer, got {n}")
    if k < -1:
        raise InvalidArgument(f"k must be >= -1, got {k}")
    eps = _check_unit_open("eps", eps)
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    # log of successive term ratios: term[i+1]/term[i] = (n-i)/(i+1) * eps/(1-eps)
    i = np.arange(k, dtype=float)
    log_odds = math.log(eps) - math.log1p(-eps)
    increments = np.log((n - i) / (i + 1.0)) + log_odds
    log_terms = n * math.log1p(-eps) + np.concatenate(([0.0], np.cumsum(increments)))
    total = math.fsum(np.exp(log_terms))
    return min(total, 1.0)


def kappa(beta: float) -> float:
    """Constant of the closed-form sample-size rule.

    ``kappa(beta) = ((sqrt(beta) + sqrt(2 - beta)) / (sqrt(2) * (1 - beta)))**2``
    for ``beta`` strictly between 0 and 1.  Increasing, from 1 near beta = 0
    to infinity near beta = 1; the conventional default beta = 0.5 gives
    4 + 2*sqrt(3), about 7.4641.  Small beta needs fewer calibration points
    but discards fewer radii, giving more conservative regions.
    """
    beta = _check_unit_open("beta", beta)
    root = (math.sqrt(beta) + math.sqrt(2.0 - beta)) / (math.sqrt(2.0) * (1.0 - beta))
    return root * root


def min_calibration_size(eps: float, delta: float, beta: float = 0.5) -> int:
    """Smallest calibration size of the closed-form rule.

    Returns ``ceil((kappa(beta) / eps) * ln(1/delta))``, with ceilings snapped
    to the nearest integer when within 1e-9 of one.  Together with the
    discarding rank ``ceil(beta*eps*n)`` this size guarantees
    ``B(r-1; n, eps) <= delta``.
    """
    eps = _check_unit_open("eps", eps)
    delta = _check_unit_open("delta", delta)
    raw = (kappa(beta) / eps) * math.log(1.0 / delta)
    return max(1, _snapped_ceil(raw))


def discarding_parameter(beta: float, eps: float, n: int) -> int:
    """Discarding rank ``r = ceil(beta * eps * n)`` (snapped ceiling, >= 1)."""
    beta = _check_unit_open("beta", beta)
    eps = _check_unit_open("eps", eps)
    n = checked_int(n, "n")
    if n < 1:
        raise InvalidArgument(f"n must be a positive integer, got {n}")
    return max(1, _snapped_ceil(beta * eps * n))


@dataclass(frozen=True)
class ScalingPlan:
    """Calibration plan: risk level, confidence target, rank, and sample size."""

    eps: float
    delta: float
    r: int
    n_c: int
    beta: float = 0.5

    def __post_init__(self):
        for name in ("eps", "delta", "beta"):
            object.__setattr__(self, name, _check_unit_open(name, getattr(self, name)))
        for name in ("r", "n_c"):
            object.__setattr__(self, name, checked_int(getattr(self, name), name))
        if self.n_c < 1:
            raise InvalidArgument(f"n_c must be positive, got {self.n_c}")
        if not 1 <= self.r <= self.n_c:
            raise InvalidArgument(f"r={self.r} outside [1, n_c={self.n_c}]")

    @classmethod
    def from_risk(cls, eps: float, delta: float, beta: float = 0.5,
                  n_c: int | None = None) -> "ScalingPlan":
        """Build a plan from (eps, delta), sizing n_c by the closed-form rule
        unless an explicit calibration size is supplied."""
        if n_c is None:
            n_c = min_calibration_size(eps, delta, beta)
        n_c = checked_int(n_c, "n_c")
        r = discarding_parameter(beta, eps, n_c)
        return cls(eps=float(eps), delta=float(delta), r=r, n_c=n_c, beta=float(beta))


class PlanCheck(NamedTuple):
    certified: bool
    tail: float


def check_plan(plan: ScalingPlan) -> PlanCheck:
    """Exact certifiability check: is ``B(r-1; n_c, eps) <= delta``?

    Returns the verdict together with the achieved binomial tail.
    """
    tail = binomial_cdf(plan.r - 1, plan.n_c, plan.eps)
    return PlanCheck(certified=tail <= plan.delta, tail=tail)


@dataclass(frozen=True)
class CalibrationCertificate:
    """Outcome of calibrating one model against one plan.

    ``rho_eps`` is the calibrated scaling level; the sentinel ``-inf``
    (``kind == "whole_space"``) means fewer than ``r`` unsafe calibration
    points were available and the certified region is the whole input space.
    ``confidence`` is ``1 - B(r-1; n_c, eps)`` for a standalone model; family
    calibration replaces it with the union-bound value.  ``certified`` is
    False only when an uncertifiable plan was forced through.
    """

    rho_eps: float
    plan: ScalingPlan
    n_U: int
    confidence: float
    certified: bool

    @property
    def kind(self) -> str:
        return "whole_space" if self.rho_eps == WHOLE_SPACE else "scaled"

    def to_record(self) -> dict:
        """Flat record with primitive values only, ready for JSON or YAML."""
        rho = "whole_space" if self.kind == "whole_space" else self.rho_eps
        return {
            "eps": self.plan.eps,
            "delta": self.plan.delta,
            "beta": self.plan.beta,
            "r": self.plan.r,
            "n_c": self.plan.n_c,
            "n_U": self.n_U,
            "rho_eps": rho,
            "region_kind": self.kind,
            "confidence": self.confidence,
            "certified": self.certified,
        }

    @classmethod
    def from_record(cls, record: dict) -> "CalibrationCertificate":
        """Inverse of ``to_record``.  Raises ``InvalidArgument`` unless the
        plan fields make a valid ``ScalingPlan`` (``r`` and ``n_c`` integers,
        ``eps``, ``delta`` and ``beta`` real numbers in (0, 1)),
        ``rho_eps`` is ``"whole_space"`` or a finite number, ``confidence`` a
        finite number in [0, 1], ``n_U`` an integer in [0, n_c] and
        ``certified`` a boolean: a NaN level would load as a certified,
        silently empty region."""
        plan = ScalingPlan(eps=record["eps"], delta=record["delta"], r=record["r"],
                           n_c=record["n_c"], beta=record.get("beta", 0.5))
        rho, confidence, n_U, certified = (record[key] for key in
                                           ("rho_eps", "confidence", "n_U", "certified"))
        if rho == "whole_space":
            rho = WHOLE_SPACE
        elif not is_finite_real(rho):
            raise InvalidArgument(
                f"certificate rho_eps must be 'whole_space' or a finite number, got {rho!r}")
        if not (is_finite_real(confidence) and 0.0 <= confidence <= 1.0):
            raise InvalidArgument(
                f"certificate confidence must lie in [0, 1], got {confidence!r}")
        if not (isinstance(n_U, int) and not isinstance(n_U, bool) and 0 <= n_U <= plan.n_c):
            raise InvalidArgument(
                f"certificate n_U must be an integer in [0, {plan.n_c}], got {n_U!r}")
        if not isinstance(certified, bool):
            raise InvalidArgument(f"certificate certified must be true or false, "
                                  f"got {certified!r}")
        return cls(rho_eps=float(rho), plan=plan, n_U=n_U,
                   confidence=float(confidence), certified=certified)


def calibrate(model, calib, plan: ScalingPlan, *,
              force_uncertified: bool = False) -> CalibrationCertificate:
    """Calibrate a scalable model so the region carries an (eps, delta) bound.

    ``model`` is anything with a ``boundary_radius(x)`` method returning the
    level at which each point crosses the region boundary.  ``calib`` is a
    Dataset of exactly ``plan.n_c`` samples drawn independently of training.
    The scaling level is the ``plan.r``-th largest radius among the unsafe
    samples; with fewer than ``r`` unsafe samples the region degrades to the
    whole space, which is still a valid (if useless) certificate.

    A plan failing its binomial check raises ``UncertifiedPlanError`` unless
    ``force_uncertified`` is set, in which case the certificate is returned
    with ``certified=False``.
    """
    check = _checked_plan(calib, plan, force_uncertified)
    unsafe_x = calib.x[calib.y == -1]
    return _certificate(plan, check, model.boundary_radius(unsafe_x))


def _checked_plan(calib, plan: ScalingPlan, force_uncertified: bool) -> PlanCheck:
    """The checks calibration makes before any margin: the calibration size,
    then the binomial tail, which must certify unless forced."""
    if calib.n_samples != plan.n_c:
        raise InvalidArgument(
            f"calibration set has {calib.n_samples} samples, plan requires {plan.n_c}")
    check = check_plan(plan)
    if not check.certified and not force_uncertified:
        raise UncertifiedPlanError(
            f"plan (eps={plan.eps}, delta={plan.delta}, r={plan.r}, n_c={plan.n_c}) "
            f"achieves tail {check.tail:.3e} > delta; enlarge n_c or pass force_uncertified")
    return check


def _certificate(plan: ScalingPlan, check: PlanCheck, radii) -> CalibrationCertificate:
    """Certificate of one model from the boundary radii of the unsafe
    calibration points: the level is the ``plan.r``-th largest radius, or the
    whole space when there are fewer than ``r`` of them."""
    radii = np.asarray(radii, dtype=float)
    n_unsafe = radii.size
    rho_eps = generalized_max(radii, plan.r) if n_unsafe >= plan.r else WHOLE_SPACE
    confidence = min(1.0, max(0.0, 1.0 - check.tail))
    return CalibrationCertificate(rho_eps=rho_eps, plan=plan, n_U=n_unsafe,
                                  confidence=confidence, certified=check.certified)
