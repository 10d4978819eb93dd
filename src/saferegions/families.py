"""Joint calibration of finite hyperparameter families.

All members share one calibration set and one plan, so a union bound gives
the whole family of ``m`` members the confidence ``plan.confidence(m)``,
``1 - m * B(r-1; n_c, eps)``.  Per-member scaling levels and scores are
exactly what standalone ``calibrate`` and ``safe_coverage`` produce; only
the reported confidence changes.  The trained members' margins on each
calibration subset come from one per-model call of the evaluator in
``classifiers``, which groups members by kernel and equal centers (every
logistic member expands over the whole training set) and gives each member
the bits of its own ``margin``.  The selection rule is fixed: keep the
member whose calibrated region covers the most safe calibration points,
with ties going to the lowest index.

A run trains all its variants at once (``train_families``): every member of
every variant reads one Gram per resolved kernel, built once and pivoted
once when svm or svdd is among the variants, and the (variant, member)
pairs go to one ``forkpool.fork_map`` call.  It trains them in a fork pool
when that pays and is safe: the training set holds at least
``_POOL_MIN_TRAIN`` points, the process may run on two or more CPUs, runs
no other Python thread, and every BLAS it has loaded is an OpenBLAS that
reports one thread (``forkpool``'s BLAS gate; importing the package pins
the count).  The workers inherit the training set, the shared Grams, their
factors and the settings through fork and send back only each member's
model or error text, in variant and member order.  A worker runs the same
operations on the same inputs as this process would, on the same single
BLAS thread, so every member is bit for bit what in-process training
gives.  Anywhere else ``fork_map`` trains them in this process.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .classifiers import Hyperparameters, TrainSettings, _margins, in_region
from .errors import InvalidArgument, TrainingError
from .forkpool import _blas_single_threaded, fork_cpus, fork_map
from .kernels import gram
from .logistic import train_sc_lr
from .scaling import CalibrationCertificate, ScalingPlan, _certificate, _checked_plan
from .solvers import first_pivoting
from .svdd import train_sc_svdd
from .svm import train_sc_svm
from .validation import training_arrays

__all__ = [
    "TRAINERS",
    "FamilyMember",
    "FamilyResult",
    "train_families",
    "calibrate_trained_family",
    "select_best",
    "safe_coverage",
]

TRAINERS = {"svm": train_sc_svm, "svdd": train_sc_svdd, "lr": train_sc_lr}
# the variants whose trainers solve a box dual on the Gram's first pivoting
_PIVOTED = ("svm", "svdd")


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
    selected_index: int = -1

    @property
    def selected(self) -> FamilyMember:
        return self.members[self.selected_index]

    @property
    def family_confidence(self) -> float:
        """Union-bound confidence of the whole family, failed members counted."""
        return self.plan.confidence(len(self.members))


def train_families(train, family: list[Hyperparameters], variants,
                   settings: TrainSettings | None = None) -> dict:
    """Train every member of ``family`` for each of ``variants``, sharing one
    Gram matrix among all members, of every variant, with the same resolved
    kernel; returns ``{variant: [FamilyMember, ...]}`` in variant order.
    Each member's hyperparameters carry its kernel resolved on the training
    points, so reports label the kernel each member was trained with.  A
    member whose training fails is marked failed and carries the error
    message; it stays eligible for reporting but not for selection.

    The set is checked first, raising a standalone fit's ``InvalidArgument``
    (one class is left to each trainer).  The Grams are built here, and when
    a box-dual variant (svm, svdd) is among ``variants`` each is pivoted here
    once (``solvers.first_pivoting``), so every box-dual member on it starts
    from one factor or one full-rank refusal.  The (variant, member) pairs
    go to one ``fork_map`` call of ``_pool_workers`` processes (see the
    module docstring): a pool of one worker per available CPU, or this
    process alone.  Either way the members come back in order and equal bit
    for bit, and any error other than ``TrainingError`` propagates."""
    for variant in variants:
        if variant not in TRAINERS:
            raise InvalidArgument(
                f"unknown variant {variant!r}, expected one of {sorted(TRAINERS)}")
    if len(family) == 0:
        raise InvalidArgument("family must contain at least one member")
    x, _ = training_arrays(train, require_both_classes=False)
    pivoted = any(variant in _PIVOTED for variant in variants)
    shared: dict = {}   # resolved kernel -> (its Gram, that Gram's first pivoting)
    kernels = []
    for hp in family:
        resolved = hp.kernel.resolved(x)
        if resolved not in shared:
            K = gram(resolved, x)
            shared[resolved] = K, first_pivoting(K) if pivoted else None
        kernels.append(resolved)
    trainers = {variant: TRAINERS[variant] for variant in variants}
    job = (train, family, trainers, [shared[k] for k in kernels], settings)
    tasks = [(variant, index) for variant in variants for index in range(len(family))]
    fits = fork_map(_fit, job, tasks, _pool_workers(len(x), len(tasks)))
    m = len(family)
    return {variant: [FamilyMember(index=index, hyperparameters=replace(hp, kernel=kernel),
                                   model=model, failed=error is not None, error=error)
                      for index, (hp, kernel, (model, error))
                      in enumerate(zip(family, kernels, fits[k * m:(k + 1) * m]))]
            for k, variant in enumerate(variants)}


def _fit(job, task: tuple) -> tuple:
    """(model, None) for the (variant, member index) ``task`` of ``job``, or
    (None, the error text) when its training fails."""
    train, family, trainers, shared, settings = job
    variant, index = task
    K, pivoting = shared[index]
    pivot = {"pivoting": pivoting} if variant in _PIVOTED else {}
    try:
        return trainers[variant](train, family[index], settings=settings, gram_matrix=K,
                                 **pivot), None
    except TrainingError as exc:
        return None, str(exc)


# The pool pays from this many training points on.  Measured on 2 vCPUs with
# one BLAS thread, nine members a variant on the bench workloads' data, five
# alternating pairs: a pool costs 20-40 ms a call (start-up, forking a ~100 MB
# process, copy-on-write faults, worker exit; importing it cold ~10 ms more).
# Up to n = 400 the logistic members, the cheapest to train, gained nothing
# or lost (n = 200: 30 -> 48 ms); at n = 500 every variant gained in at least
# 4 of 5 pairs (svdd 443 -> 271 ms, svm 283 -> 239 ms, lr 284 -> 221 ms).
_POOL_MIN_TRAIN = 500


def _pool_workers(n_train: int, n_members: int) -> int:
    """How many processes should train ``n_members`` (variant, member)
    pairs; 1 means in-process."""
    if n_train < _POOL_MIN_TRAIN or n_members < 2:
        return 1
    cpus = fork_cpus()
    if cpus < 2 or not _blas_single_threaded():
        return 1
    return min(cpus, n_members)


def calibrate_trained_family(members: list[FamilyMember], calib, plan: ScalingPlan,
                             variant: str, *, force_uncertified: bool = False) -> FamilyResult:
    """Calibrate trained members against one shared plan and select the best.

    Each member certificate equals its standalone calibration except that its
    confidence is the union-bound family value ``plan.confidence(m)``, with
    ``m`` counting every member, failed ones included, and that it is
    certified only when that bound is, ``m * tail <= delta``
    (``plan.family_certified(m)``).  A plan whose union bound fails raises
    ``UncertifiedPlanError`` unless ``force_uncertified`` is set.  The result
    holds new member records; ``members`` is left as it was, so one trained
    family serves several plans.
    """
    m = len(members)
    if m == 0:
        raise InvalidArgument("family must contain at least one member")
    result = FamilyResult(variant=variant, plan=plan, members=list(members))
    trained = [k for k, member in enumerate(members)
               if not member.failed and member.model is not None]
    if trained:
        _checked_plan(calib, plan, force_uncertified, m)
        models = [members[k].model for k in trained]
        radii = -_margins(models, calib.x[calib.y == -1], per_model=True)
        safe = _margins(models, calib.x[calib.y == 1], per_model=True)
        for column, k in enumerate(trained):
            certificate = _certificate(plan, radii[:, column], m)
            # safe_coverage's count, from the shared margins
            score = float(in_region(safe[:, column], certificate.rho_eps).sum())
            result.members[k] = replace(members[k], certificate=certificate, score=score)
    result.selected_index = select_best(result)
    return result


def select_best(result: FamilyResult) -> int:
    """Index of the highest-scoring non-failed member, lowest index winning
    ties.  Raises ``TrainingError`` when every member failed."""
    scored = [m for m in result.members if not m.failed and m.score is not None]
    if not scored:
        raise TrainingError("every family member failed to train")
    # max keeps the first of equal scores, and members are in index order
    return max(scored, key=lambda m: m.score).index
