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
from functools import cached_property

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
    "CalibrationCertificate",
    "calibrate",
    "check_plans",
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
    """Calibration plan: risk level, confidence target, rank, and sample size,
    with the certificate arithmetic: tail, verdict, union-bound confidence."""

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

    @cached_property
    def tail(self) -> float:
        """The achieved binomial tail ``B(r-1; n_c, eps)``, computed once."""
        return binomial_cdf(self.r - 1, self.n_c, self.eps)

    @property
    def certified(self) -> bool:
        """Exact certifiability check: is ``B(r-1; n_c, eps) <= delta``?"""
        return self.tail <= self.delta

    def family_certified(self, m: int) -> bool:
        """Does the union bound certify ``m`` models calibrated on this plan,
        ``m * B(r-1; n_c, eps) <= delta``?  ``m = 1`` is ``certified``."""
        return m * self.tail <= self.delta

    def confidence(self, m: int = 1) -> float:
        """Union-bound confidence ``1 - m * tail`` of ``m`` models calibrated
        on this plan, clipped to [0, 1]; ``m = 1`` is a standalone model."""
        return min(1.0, max(0.0, 1.0 - m * self.tail))

    def minimal_n_c(self, m: int = 1) -> int:
        """The closed-form n_c that certifies ``m`` models at this plan's levels."""
        return min_calibration_size(self.eps, self.delta / m, self.beta)


@dataclass(frozen=True)
class CalibrationCertificate:
    """Outcome of calibrating one model against one plan.

    ``rho_eps`` is the calibrated scaling level; the sentinel ``-inf``
    (``kind == "whole_space"``) means fewer than ``r`` unsafe calibration
    points were available and the certified region is the whole input space.
    ``confidence`` is ``plan.confidence(m)`` for a member of a family of m,
    m = 1 for a standalone model, and ``certified`` is
    ``plan.family_certified(m)``: False only when an uncertifiable plan, or a
    family too large for its union bound, was forced through.
    """

    rho_eps: float
    plan: ScalingPlan
    n_U: int
    confidence: float
    certified: bool

    @property
    def kind(self) -> str:
        return "whole_space" if self.rho_eps == WHOLE_SPACE else "scaled"

    @property
    def reported_rho(self):
        """``rho_eps`` as records, csv cells and messages write it: the
        string ``"whole_space"`` for the whole-space sentinel, else the float."""
        return "whole_space" if self.kind == "whole_space" else float(self.rho_eps)

    def to_record(self) -> dict:
        """Flat record with primitive values only, ready for JSON or YAML."""
        return {
            "eps": self.plan.eps,
            "delta": self.plan.delta,
            "beta": self.plan.beta,
            "r": self.plan.r,
            "n_c": self.plan.n_c,
            "n_U": self.n_U,
            "rho_eps": self.reported_rho,
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
        finite number in [0, 1], ``n_U`` an integer in [0, n_c],
        ``certified`` a boolean that is true only on a certified plan and at
        a ``confidence`` of at least ``1 - delta`` (a family's union bound),
        ``region_kind`` the kind of ``rho_eps``, and that kind the one
        calibration gives for ``n_U`` (the whole space exactly when ``n_U <
        r``): a NaN level would load as a certified, silently empty region.
        ``confidence`` is not recomputed from the plan, since its tail goes
        through ``np.exp``, whose last bits may differ from one machine to
        another; but every certificate written with ``m * tail <= delta``
        holds ``1 - m * tail >= 1 - delta`` in floating point too, since
        ``1 - a`` rounds monotonically in ``a``, so the comparison needs no
        slack."""
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
        if certified and not plan.certified:
            raise InvalidArgument(f"certificate says certified, but its plan has "
                                  f"B(r-1; n_c, eps) = {plan.tail!r} > delta = {plan.delta!r}")
        if certified and confidence < 1.0 - plan.delta:
            raise InvalidArgument(f"certificate says certified, but its confidence "
                                  f"{confidence!r} is below 1 - delta = {1.0 - plan.delta!r}")
        certificate = cls(rho_eps=float(rho), plan=plan, n_U=n_U,
                          confidence=float(confidence), certified=certified)
        if record["region_kind"] != certificate.kind:
            raise InvalidArgument(f"certificate region_kind {record['region_kind']!r} "
                                  f"disagrees with rho_eps {record['rho_eps']!r}")
        if (certificate.kind == "whole_space") != (n_U < plan.r):
            level = "the whole space" if n_U < plan.r else "a finite level"
            raise InvalidArgument(f"certificate has n_U = {n_U} unsafe calibration points "
                                  f"at r = {plan.r}, which give {level}, not rho_eps "
                                  f"{record['rho_eps']!r}")
        return certificate


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
    _checked_plan(calib, plan, force_uncertified)
    unsafe_x = calib.x[calib.y == -1]
    return _certificate(plan, model.boundary_radius(unsafe_x))


def check_plans(plans: dict, force_uncertified: bool, members: int = 1) -> bool:
    """True when every plan of ``{eps: plan}`` certifies a family of
    ``members`` models under the union bound (``plan.family_certified``);
    otherwise raise ``UncertifiedPlanError`` naming the minimal sizes, or
    return False under ``force_uncertified``."""
    failing = {eps: plan for eps, plan in plans.items() if not plan.family_certified(members)}
    if failing and not force_uncertified:
        for_family = "" if members == 1 else f" for a family of {members} members"
        parts = [f"eps={eps}: n_c={plan.n_c} is not certifiable at delta={plan.delta}{for_family}, "
                 f"minimal n_c is {plan.minimal_n_c(members)}"
                 for eps, plan in failing.items()]
        hint = " (pass --force-uncertified, or force_uncertified=True, to run anyway)"
        raise UncertifiedPlanError("; ".join(parts) + hint)
    return not failing


def _checked_plan(calib, plan: ScalingPlan, force_uncertified: bool, m: int = 1) -> None:
    """The checks calibration makes before any margin: the calibration size,
    then ``check_plans`` for a family of ``m``."""
    if calib.n_samples != plan.n_c:
        raise InvalidArgument(
            f"calibration set has {calib.n_samples} samples, plan requires {plan.n_c}")
    check_plans({plan.eps: plan}, force_uncertified, m)


def _certificate(plan: ScalingPlan, radii, m: int = 1) -> CalibrationCertificate:
    """Certificate of one model of a family of ``m``: the level is the
    ``plan.r``-th largest boundary radius of the unsafe calibration points,
    or the whole space when there are fewer than ``r`` of them."""
    radii = np.asarray(radii, dtype=float)
    n_unsafe = radii.size
    rho_eps = generalized_max(radii, plan.r) if n_unsafe >= plan.r else WHOLE_SPACE
    return CalibrationCertificate(rho_eps=rho_eps, plan=plan, n_U=n_unsafe,
                                  confidence=plan.confidence(m),
                                  certified=plan.family_certified(m))
