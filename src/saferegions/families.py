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

Members train independently, so ``train_family`` trains them in a fork pool
when that pays and is safe: the training set holds at least
``_POOL_MIN_TRAIN`` points, the process may run on two or more CPUs, runs
no other Python thread, and every BLAS it has loaded is an OpenBLAS that
reports one thread.  The workers inherit the training set, the shared
Grams and the settings through fork and send back only each member's model
or error text, in member order.  A worker runs the same operations on the
same inputs as the serial loop, on the same single BLAS thread, so every
member is bit for bit what serial training gives.  Anywhere else training
stays in-process.
"""

from __future__ import annotations

import os
import re
import threading
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
    selection.

    The Grams are built here; the members train in a fork pool of one worker
    per available CPU when ``_pool_workers`` allows (see the module
    docstring), else one after another in this process.  Either way the
    members come back in order and equal bit for bit, and any error other
    than ``TrainingError`` propagates."""
    if variant not in TRAINERS:
        raise InvalidArgument(f"unknown variant {variant!r}, expected one of {sorted(TRAINERS)}")
    if len(family) == 0:
        raise InvalidArgument("family must contain at least one member")
    x = np.asarray(train.x, dtype=float)
    grams: dict = {}
    kernels = []
    for hp in family:
        resolved = hp.kernel.resolved(x)
        if resolved not in grams:
            grams[resolved] = gram(resolved, x)
        kernels.append(resolved)
    job = (train, family, TRAINERS[variant], [grams[k] for k in kernels], settings)
    workers = _pool_workers(len(x), len(family))
    if workers > 1:
        fits = _fit_in_pool(job, workers)
    else:
        fits = [_fit(job, index) for index in range(len(family))]
    return [FamilyMember(index=index, hyperparameters=replace(hp, kernel=kernel), model=model,
                         failed=error is not None, error=error)
            for index, (hp, kernel, (model, error)) in enumerate(zip(family, kernels, fits))]


def _fit(job, index: int) -> tuple:
    """(model, None) for member ``index`` of ``job``, or (None, the error
    text) when its training fails."""
    train, family, trainer, grams, settings = job
    try:
        return trainer(train, family[index], settings=settings, gram_matrix=grams[index]), None
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

# The thread-count getters of OpenBLAS builds; numpy's and scipy's wheels
# bundle builds with the ``scipy_`` prefix.
_BLAS_THREAD_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")

_JOB = None   # a pool worker's job, set in the worker alone


def _pool_workers(n_train: int, n_members: int) -> int:
    """How many processes should train a family; 1 means in-process.  A
    process running other Python threads does not fork: a lock one of them
    holds would stay locked in the children."""
    if n_train < _POOL_MIN_TRAIN or n_members < 2:
        return 1
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2 or threading.active_count() > 1 or not _blas_single_threaded():
        return 1
    return min(cpus, n_members)


def _blas_single_threaded() -> bool:
    """Whether every BLAS library this process has loaded is an OpenBLAS
    that reports one thread; pool workers running more BLAS threads each
    would oversubscribe the CPUs.  Any other BLAS cannot be asked, and
    neither can a process without ``/proc/self/maps``: both read as
    unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            rows = [line.split(maxsplit=5) for line in maps.read().splitlines()]
    except OSError:
        return False
    # the mapped files' paths; the f2py modules (scipy's _fblas) do not match
    libraries = {row[5] for row in rows
                 if len(row) == 6 and re.match(r"lib\w*(blas|blis|mkl)", os.path.basename(row[5]))}
    if not libraries:
        return False
    for path in libraries:
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            return False
        getters = [getattr(library, name, None) for name in _BLAS_THREAD_GETTERS]
        getter = next((g for g in getters if g is not None), None)
        if getter is None:
            return False
        getter.restype = ctypes.c_int
        if getter() != 1:
            return False
    return True


def _adopt(job) -> None:
    global _JOB
    _JOB = job


def _fit_adopted(index: int) -> tuple:
    return _fit(_JOB, index)


def _fit_in_pool(job, workers: int) -> list:
    """``_fit`` of every member of ``job``, in member order, by ``workers``
    forked processes.  Forked, they inherit ``job`` (the Grams included)
    without a copy; only member indices and results cross the pipes.  The
    pool is shut down, and its processes have exited, on every path out."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt, initargs=(job,))
    try:
        return list(pool.map(_fit_adopted, range(len(job[1]))))
    finally:
        # drops the members not started yet when one raised, then waits for
        # the running ones and the workers' exit
        pool.shutdown(cancel_futures=True)


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
