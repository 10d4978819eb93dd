"""Joint calibration of finite hyperparameter families.

All members share one calibration set and one plan, so a union bound gives
the whole family confidence ``1 - m * B(r-1; n_c, eps)`` where ``m`` is the
family size.  Per-member scaling levels and scores are exactly what
standalone ``calibrate`` and ``safe_coverage`` produce; only the reported
confidence changes.  Members with the same resolved kernel and identical
centers (every logistic member expands over the whole training set) share
one kernel block per row block of each calibration subset, then each takes
its own product, the one its ``margin`` makes alone.  The selection
rule is fixed: keep the member whose calibrated region covers the most safe
calibration points, with ties going to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .classifiers import Hyperparameters, TrainSettings, _shared_center_margins
from .errors import InvalidArgument, TrainingError
from .kernels import gram
from .logistic import train_sc_lr
from .scaling import (
    CalibrationCertificate,
    ScalingPlan,
    _certificate,
    _checked_plan,
    binomial_cdf,
)
from .svdd import train_sc_svdd
from .svm import train_sc_svm

__all__ = [
    "TRAINERS",
    "FamilyMember",
    "FamilyResult",
    "train_family",
    "calibrate_trained_family",
    "select_best",
    "safe_coverage",
]

TRAINERS = {"svm": train_sc_svm, "svdd": train_sc_svdd, "lr": train_sc_lr}


def safe_coverage(model, certificate, calib) -> float:
    """Number of safe calibration points inside the calibrated region."""
    safe_x = calib.x[calib.y == 1]
    return float((model.predict(safe_x, certificate.rho_eps) == 1).sum())


@dataclass
class FamilyMember:
    index: int
    hyperparameters: Hyperparameters
    model: object | None = None
    certificate: CalibrationCertificate | None = None
    score: float | None = None
    failed: bool = False
    error: str | None = None


@dataclass
class FamilyResult:
    variant: str
    plan: ScalingPlan
    members: list[FamilyMember] = field(default_factory=list)
    family_confidence: float = 0.0
    selected_index: int = -1

    @property
    def selected(self) -> FamilyMember:
        return self.members[self.selected_index]


def train_family(train, family: list[Hyperparameters], variant: str,
                 settings: TrainSettings | None = None) -> list[FamilyMember]:
    """Train every member, sharing Gram matrices between members with the
    same resolved kernel.  Each member's hyperparameters carry its kernel
    resolved on the training points, so reports label the kernel each member
    was trained with.  A member whose training fails is marked failed and
    carries the error message; it stays eligible for reporting but not for
    selection."""
    if variant not in TRAINERS:
        raise InvalidArgument(f"unknown variant {variant!r}, expected one of {sorted(TRAINERS)}")
    if len(family) == 0:
        raise InvalidArgument("family must contain at least one member")
    trainer = TRAINERS[variant]
    grams: dict = {}
    members = []
    for index, hp in enumerate(family):
        resolved = hp.kernel.resolved(np.asarray(train.x, dtype=float))
        if resolved not in grams:
            grams[resolved] = gram(resolved, np.asarray(train.x, dtype=float))
        member = FamilyMember(index=index, hyperparameters=replace(hp, kernel=resolved))
        try:
            member.model = trainer(train, hp, settings=settings, gram_matrix=grams[resolved])
        except TrainingError as exc:
            member.failed = True
            member.error = str(exc)
        members.append(member)
    return members


def calibrate_trained_family(members: list[FamilyMember], calib, plan: ScalingPlan,
                             variant: str, *, force_uncertified: bool = False) -> FamilyResult:
    """Calibrate trained members against one shared plan and select the best.

    Each member certificate equals its standalone calibration except that the
    confidence is replaced by the union-bound family value
    ``max(0, 1 - m * B(r-1; n_c, eps))``.  The result holds new member
    records; ``members`` is left as it was, so one trained family serves
    several plans.
    """
    m = len(members)
    if m == 0:
        raise InvalidArgument("family must contain at least one member")
    tail = binomial_cdf(plan.r - 1, plan.n_c, plan.eps)
    family_confidence = min(1.0, max(0.0, 1.0 - m * tail))
    result = FamilyResult(variant=variant, plan=plan, family_confidence=family_confidence)
    result.members = list(members)
    groups = _center_groups(members)
    if groups:
        check = _checked_plan(calib, plan, force_uncertified)
        unsafe_x = calib.x[calib.y == -1]
        safe_x = calib.x[calib.y == 1]
        for group in groups:
            models = [members[k].model for k in group]
            radii = -_group_margins(models, unsafe_x)
            safe = _group_margins(models, safe_x)
            for column, k in enumerate(group):
                certificate = replace(_certificate(plan, check, radii[:, column]),
                                      confidence=family_confidence)
                # safe_coverage's count, from the shared margins
                score = float((safe[:, column] + certificate.rho_eps < 0.0).sum())
                result.members[k] = replace(members[k], certificate=certificate, score=score)
    result.selected_index = select_best(result)
    return result


def _group_margins(models, x) -> np.ndarray:
    """(n, len(models)) margins of one center group.  A lone model goes
    through its own ``margin``, which is the same evaluator, so anything
    wrapping a model's ``margin`` still sees every member that is not shared."""
    if len(models) == 1:
        return models[0].margin(x)[:, None]
    return _shared_center_margins(models, x)


def _center_groups(members) -> list:
    """Positions of the trained members, grouped by resolved kernel and by
    centers equal element for element; each group in member order.  Every
    trained model holds its own copy of its centers, so equality is by value."""
    groups: list = []   # (kernel, centers, positions)
    for k, member in enumerate(members):
        if member.failed or member.model is None:
            continue
        kernel, centers = member.model.kernel, member.model._expansion()[0]
        for lead_kernel, lead_centers, group in groups:
            if kernel == lead_kernel and np.array_equal(centers, lead_centers):
                group.append(k)
                break
        else:
            groups.append((kernel, centers, [k]))
    return [group for _, _, group in groups]


def select_best(result: FamilyResult) -> int:
    """Index of the highest-scoring non-failed member, lowest index winning
    ties.  Raises ``TrainingError`` when every member failed."""
    scored = [m for m in result.members if not m.failed and m.score is not None]
    if not scored:
        raise TrainingError("every family member failed to train")
    # max keeps the first of equal scores, and members are in index order
    return max(scored, key=lambda m: m.score).index
