"""Joint calibration of hyperparameter families: union-bound confidence,
shared-Gram training, selection and reporting."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import saferegions.classifiers as classifiers
import saferegions.families as families
from saferegions import (
    CalibrationCertificate,
    FamilyMember,
    FamilyResult,
    GaussianSpec,
    Hyperparameters,
    KernelSpec,
    TRAINERS,
    ScalingPlan,
    TrainingError,
    UncertifiedPlanError,
    calibrate,
    calibrate_trained_family,
    model_to_record,
    safe_coverage,
    sample_gaussian,
    select_best,
    train_family,
)
from saferegions.datagen import Dataset
from saferegions.scaling import WHOLE_SPACE

_SPEC = GaussianSpec(mu_safe=(-1.5, 0.0), mu_unsafe=(1.5, 0.0),
                     cov_safe=((1.0, 0.0), (0.0, 1.0)),
                     cov_unsafe=((1.0, 0.0), (0.0, 1.0)))

# eps = delta = 0.5 keeps the required calibration size at 11 with r = 3.
_PLAN = ScalingPlan.from_risk(0.5, 0.5)


def _splits(seed=11):
    train = sample_gaussian(_SPEC, 80, seed=seed)
    calib = sample_gaussian(_SPEC, _PLAN.n_c, seed=seed + 1)
    return train, calib


class _HalfPlane:
    """Stub model: margin is the first coordinate, so the region at level
    rho is {x : x1 < -rho}."""

    def decision_value(self, x, rho):
        return np.atleast_2d(x)[:, 0] + rho

    def predict(self, x, rho):
        return np.where(self.decision_value(x, rho) < 0.0, 1, -1)

    def boundary_radius(self, x):
        return -np.atleast_2d(x)[:, 0]


class _Calib:
    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=int)

    @property
    def n_samples(self):
        return self.x.shape[0]


def _cert(rho):
    return CalibrationCertificate(rho_eps=rho, plan=_PLAN, n_U=3,
                                  confidence=0.9, certified=True)


def test_performance_indices_hand_computed():
    model = _HalfPlane()
    x = np.array([[-2.0, 0.0], [-0.5, 0.0], [0.5, 0.0], [2.0, 0.0]])
    y = np.array([1, 1, -1, -1])
    calib = _Calib(x, y)
    # Region at rho = 0 is x1 < 0: both safe points inside, both unsafe out.
    assert safe_coverage(model, _cert(0.0), calib) == 2.0
    # Region at rho = -1 is x1 < 1: one unsafe point slips inside.
    assert safe_coverage(model, _cert(-1.0), calib) == 2.0


def test_indices_on_single_class_calibration():
    model = _HalfPlane()
    all_safe = _Calib([[-1.0, 0.0]], [1])
    all_unsafe = _Calib([[1.0, 0.0]], [-1])
    assert safe_coverage(model, _cert(0.0), all_unsafe) == 0.0
    assert safe_coverage(model, _cert(0.0), all_safe) == 1.0


def _family(etas=(0.5, 1.0), kernel=None):
    kernel = kernel or KernelSpec(kind="gaussian")
    return [Hyperparameters(eta=eta, tau=0.5, kernel=kernel) for eta in etas]


def _calibrated(train, calib, family, variant):
    members = train_family(train, family, variant)
    return calibrate_trained_family(members, calib, _PLAN, variant)


def test_single_member_family_matches_standalone():
    train, calib = _splits()
    family = _family(etas=(1.0,))
    result = _calibrated(train, calib, family, "svm")
    member = result.selected
    standalone = calibrate(member.model, calib, _PLAN)
    # m = 1 turns the union bound back into the standalone confidence.
    assert member.certificate.rho_eps == standalone.rho_eps
    assert member.certificate.confidence == standalone.confidence
    assert result.family_confidence == standalone.confidence
    assert result.selected_index == 0


def test_union_bound_confidence_exact():
    train, calib = _splits(seed=13)
    family = _family(etas=(0.25, 0.5, 1.0))
    result = _calibrated(train, calib, family, "svm")
    # tail = B(2; 11, 1/2) = (1 + 11 + 55) / 2048, exactly representable here
    tail = Fraction(67, 2048)
    expected = float(1 - 3 * tail)
    assert result.family_confidence == pytest.approx(expected, rel=1e-12)
    for member in result.members:
        assert member.certificate.confidence == result.family_confidence
    standalone = calibrate(result.selected.model, calib, _PLAN)
    assert result.family_confidence < standalone.confidence


def test_member_levels_equal_standalone_levels():
    train, calib = _splits(seed=17)
    family = _family(etas=(0.25, 1.0, 4.0))
    result = _calibrated(train, calib, family, "svdd")
    for member in result.members:
        standalone = calibrate(member.model, calib, _PLAN)
        assert member.certificate.rho_eps == standalone.rho_eps


def test_selection_is_exhaustive_argmax():
    train, calib = _splits(seed=19)
    family = _family(etas=(0.05, 0.2, 1.0, 5.0))
    result = _calibrated(train, calib, family, "svm")
    scores = [m.score for m in result.members]
    assert result.selected_index == int(np.argmax(scores))
    assert result.selected.score == max(scores)


def test_selection_tie_goes_to_lowest_index():
    hp = Hyperparameters()
    members = [FamilyMember(index=i, hyperparameters=hp, score=s)
               for i, s in enumerate([1.0, 3.0, 3.0, 2.0])]
    result = FamilyResult(variant="svm", plan=_PLAN, members=members)
    assert select_best(result) == 1


def test_select_best_skips_failed_and_raises_when_all_fail():
    hp = Hyperparameters()
    members = [
        FamilyMember(index=0, hyperparameters=hp, score=9.0, failed=True),
        FamilyMember(index=1, hyperparameters=hp, score=1.0),
    ]
    result = FamilyResult(variant="svm", plan=_PLAN, members=members)
    assert select_best(result) == 1
    for member in members:
        member.failed = True
    with pytest.raises(TrainingError):
        select_best(result)


def test_failed_member_is_reported_not_selected():
    train, calib = _splits(seed=23)
    # eta = 1e-4 cannot reach the unit mass the one-class dual needs.
    family = _family(etas=(1e-4, 1.0))
    result = _calibrated(train, calib, family, "svdd")
    failed, good = result.members
    assert failed.failed and failed.error
    assert failed.certificate is None and failed.score is None
    assert not good.failed
    assert result.selected_index == 1


def test_gram_shared_per_resolved_kernel(monkeypatch):
    import saferegions.families as families_module
    train, _ = _splits(seed=27)
    calls = []
    real_gram = families_module.gram

    def counting_gram(kernel, x):
        calls.append(kernel)
        return real_gram(kernel, x)

    monkeypatch.setattr(families_module, "gram", counting_gram)
    shared = KernelSpec(kind="gaussian", gamma=0.3)
    other = KernelSpec(kind="linear")
    family = [Hyperparameters(eta=e, tau=0.5, kernel=shared) for e in (0.5, 1.0, 2.0)]
    family.append(Hyperparameters(eta=1.0, tau=0.5, kernel=other))
    train_family(train, family, "svm")
    # three members share one Gram; the linear member adds a second
    assert len(calls) == 2


@pytest.mark.parametrize("variant", ["svm", "svdd", "lr"])
def test_family_fits_equal_standalone_fits(variant):
    # a member trained on the family's shared Gram is the model its trainer
    # builds from its own Gram, record for record
    train, _ = _splits(seed=31)
    family = [Hyperparameters(eta=eta, tau=tau, kernel=kernel)
              for eta in (0.5, 2.0) for tau in (0.3, 0.5)
              for kernel in (KernelSpec(kind="gaussian"), KernelSpec(kind="linear"))]
    members = train_family(train, family, variant)
    assert not any(member.failed for member in members)
    for member, hp in zip(members, family):
        standalone = TRAINERS[variant](train, hp)
        assert model_to_record(member.model) == model_to_record(standalone)


def test_family_requires_known_variant_and_members():
    train, calib = _splits(seed=31)
    from saferegions import InvalidArgument
    with pytest.raises(InvalidArgument):
        train_family(train, [], "svm")
    with pytest.raises(InvalidArgument):
        train_family(train, _family(), "forest")


def test_uncertifiable_plan_propagates_and_can_be_forced():
    train, calib_small = _splits(seed=37)
    bad_plan = ScalingPlan(eps=0.5, delta=1e-9, r=3, n_c=11)
    members = train_family(train, _family(etas=(1.0,)), "svm")
    with pytest.raises(UncertifiedPlanError):
        calibrate_trained_family(members, calib_small, bad_plan, "svm")
    result = calibrate_trained_family(members, calib_small, bad_plan, "svm",
                                      force_uncertified=True)
    assert not result.selected.certificate.certified



def test_calibration_returns_new_members_and_leaves_trained_ones_untouched():
    train, calib = _splits(seed=47)
    members = train_family(train, _family(etas=(1e-4, 0.5, 1.0)), "svdd")
    tight = ScalingPlan.from_risk(0.5, 0.5, n_c=15)
    calib_tight = sample_gaussian(_SPEC, tight.n_c, seed=48)
    first = calibrate_trained_family(members, calib, _PLAN, "svdd")
    second = calibrate_trained_family(members, calib_tight, tight, "svdd")
    for trained, a, b in zip(members, first.members, second.members):
        assert trained.certificate is None and trained.score is None
        assert a.model is trained.model and b.model is trained.model
        if trained.failed:
            continue
        assert a is not trained and b is not trained
        assert a.certificate.plan == _PLAN and b.certificate.plan == tight
        assert a.certificate.rho_eps == calibrate(trained.model, calib, _PLAN).rho_eps


# eps = 0.2, delta = 0.05: n_c = 112 with r = 12, so both classes bring
# dozens of calibration points and the level is an interior order statistic.
_WIDE = ScalingPlan.from_risk(0.2, 0.05)


@pytest.fixture(scope="module")
def lr_family():
    """Three logistic members: each expands over all 150 training points."""
    train = sample_gaussian(_SPEC, 150, seed=51)
    members = train_family(train, _family(etas=(0.25, 1.0, 4.0)), "lr")
    assert not any(member.failed for member in members)
    return members, sample_gaussian(_SPEC, _WIDE.n_c, seed=52)


def _assert_standalone_bits(result, calib, plan):
    """Every member's certificate and score are standalone calibrate's and
    safe_coverage's, with only the confidence replaced by the family value."""
    assert len(result.members) >= 3
    for member in result.members:
        standalone = calibrate(member.model, calib, plan)
        assert member.certificate.rho_eps == standalone.rho_eps
        assert member.certificate.confidence == result.family_confidence
        assert member.certificate == replace(standalone, confidence=result.family_confidence)
        assert member.score == safe_coverage(member.model, standalone, calib)


def _relabelled(calib, y):
    return Dataset(x=calib.x, y=np.asarray(y), provenance=calib.provenance)


def test_lr_family_levels_and_scores_equal_standalone_bits(lr_family):
    members, calib = lr_family
    result = calibrate_trained_family(members, calib, _WIDE, "lr")
    assert len({m.certificate.rho_eps for m in result.members}) == 3
    assert all(m.certificate.kind == "scaled" for m in result.members)
    _assert_standalone_bits(result, calib, _WIDE)


def test_lr_family_builds_one_kernel_block_per_row_block(lr_family, monkeypatch):
    members, calib = lr_family
    # 150 distinct centers: 16 points per row block, so each subset spans several
    monkeypatch.setattr(classifiers, "_BLOCK_ENTRIES", 150 * 16)
    calls = []
    real_kernel_matrix = classifiers.kernel_matrix

    def counting_kernel_matrix(spec, a, b):
        calls.append(np.asarray(a).shape[0])
        return real_kernel_matrix(spec, a, b)

    monkeypatch.setattr(classifiers, "kernel_matrix", counting_kernel_matrix)
    result = calibrate_trained_family(members, calib, _WIDE, "lr")
    n_unsafe = int((calib.y == -1).sum())
    blocks = math.ceil(n_unsafe / 16) + math.ceil((calib.n_samples - n_unsafe) / 16)
    assert blocks > 2
    # one block per row block of each subset, shared by the three members
    assert len(calls) == blocks
    calls.clear()
    _assert_standalone_bits(result, calib, _WIDE)
    # standalone calibrate and safe_coverage build every block once per member
    assert len(calls) == len(members) * blocks


def test_lr_family_whole_space_equals_standalone(lr_family):
    members, calib = lr_family
    # r - 1 unsafe points: too few for the rank, so the region is the whole space
    y = np.ones(calib.n_samples, dtype=int)
    y[:_WIDE.r - 1] = -1
    whole = _relabelled(calib, y)
    result = calibrate_trained_family(members, whole, _WIDE, "lr")
    for member in result.members:
        assert member.certificate.rho_eps == WHOLE_SPACE
        assert member.certificate.n_U == _WIDE.r - 1
        assert member.score == calib.n_samples - (_WIDE.r - 1)
    _assert_standalone_bits(result, whole, _WIDE)


def test_lr_family_without_safe_calibration_points_scores_zero(lr_family):
    members, calib = lr_family
    unsafe_only = _relabelled(calib, -np.ones(calib.n_samples, dtype=int))
    result = calibrate_trained_family(members, unsafe_only, _WIDE, "lr")
    assert [m.score for m in result.members] == [0.0, 0.0, 0.0]
    assert result.selected_index == 0
    _assert_standalone_bits(result, unsafe_only, _WIDE)


def _cpus() -> set:
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


def test_family_below_the_size_rule_trains_in_process(monkeypatch):
    # with the BLAS gate open, only the size rule keeps this family serial,
    # so patches of the trainer see every member
    monkeypatch.setattr(families, "_blas_single_threaded", lambda: True)
    train, _ = _splits(seed=29)
    assert train.n_samples < families._POOL_MIN_TRAIN
    calls = []
    real_trainer = TRAINERS["svm"]

    def counting(train, hp, **kwargs):
        calls.append(hp.eta)
        return real_trainer(train, hp, **kwargs)

    monkeypatch.setitem(families.TRAINERS, "svm", counting)
    members = train_family(train, _family(etas=(0.5, 1.0, 2.0)), "svm")
    assert calls == [0.5, 1.0, 2.0]
    assert [m.index for m in members] == [0, 1, 2]
    assert families._pool_workers(train.n_samples, 3) == 1
    forks = hasattr(os, "fork") and len(_cpus()) > 1 and threading.active_count() == 1
    expected = min(len(_cpus()), 3) if forks else 1
    assert families._pool_workers(families._POOL_MIN_TRAIN, 3) == expected
    assert families._pool_workers(families._POOL_MIN_TRAIN, 1) == 1


_needs_pool = pytest.mark.skipif(len(_cpus()) < 2 or not hasattr(os, "fork"),
                                 reason="the fork pool needs fork and two CPUs")


def _pinned_python(args, cwd, *, one_cpu: bool) -> str:
    """stdout of ``python args`` with every BLAS pinned to one thread, on one
    CPU or on all of this process's CPUs."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = str(Path(families.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    cpu = min(_cpus())
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300,
                          preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if one_cpu else None)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _require_pool_route(tmp_path):
    """Skip where numpy's BLAS is not an OpenBLAS, which cannot be asked for
    its thread count; else fail unless a pinned process takes the pool on all
    CPUs and not on one."""
    probe = ("import numpy; from saferegions import families; "
             "print(numpy.show_config(mode='dicts')['Build Dependencies']['blas']['name'], "
             "families._pool_workers(families._POOL_MIN_TRAIN, 9))")
    blas, workers = _pinned_python(["-c", probe], tmp_path, one_cpu=False).split()
    if "openblas" not in blas:
        pytest.skip(f"{blas} does not report its thread count, so training stays serial")
    assert int(workers) == min(len(_cpus()), 9)
    one = _pinned_python(["-c", probe], tmp_path, one_cpu=True).split()[1]
    assert int(one) == 1


_PLATOON_MEMBERS = """
import json, multiprocessing, os, sys
from saferegions import Hyperparameters, KernelSpec, generate_platoon_dataset, model_to_record
from saferegions.datagen import standardize
from saferegions import families

(train,), _ = standardize(generate_platoon_dataset(families._POOL_MIN_TRAIN, seed=7))
family = [Hyperparameters(eta=eta, tau=tau, kernel=KernelSpec(kind="gaussian"))
          for eta in (0.01, 0.1, 1.0) for tau in (0.1, 0.5, 0.9)]
pids = sys.argv[1]
real = families.TRAINERS["svdd"]

def recording(*args, **kwargs):
    with open(pids, "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    return real(*args, **kwargs)

families.TRAINERS["svdd"] = recording
members = families.train_family(train, family, "svdd")

def raising(train, hp, **kwargs):
    if hp.eta == 0.1:
        raise ValueError("not a training error")
    return real(train, hp, **kwargs)

families.TRAINERS["svdd"] = raising
try:
    families.train_family(train, family, "svdd")
    raised = None
except ValueError as exc:
    raised = str(exc)
print(json.dumps({
    "members": [[m.index, m.failed, m.error, m.hyperparameters.eta, m.hyperparameters.tau,
                 None if m.model is None else model_to_record(m.model)] for m in members],
    "raised": raised, "left": len(multiprocessing.active_children()), "pid": os.getpid()}))
"""


@_needs_pool
def test_failed_members_come_back_from_the_pool_in_member_order(tmp_path):
    # on platoon data the eta=0.01, tau=0.9 SVDD member fails by design
    _require_pool_route(tmp_path)
    script = tmp_path / "members.py"
    script.write_text(_PLATOON_MEMBERS)
    runs = {}
    for one_cpu in (True, False):
        pids = tmp_path / f"pids-{one_cpu}.txt"
        runs[one_cpu] = json.loads(_pinned_python([str(script), str(pids)], tmp_path,
                                                  one_cpu=one_cpu))
        runs[one_cpu]["trained_in"] = set(pids.read_text().split())
    serial, forked = runs[True], runs[False]
    assert serial["trained_in"] == {str(serial["pid"])}
    assert forked["trained_in"] and str(forked["pid"]) not in forked["trained_in"]
    assert forked["members"] == serial["members"]
    members = forked["members"]
    assert [m[0] for m in members] == list(range(9))
    failed = [(eta, tau) for _, is_failed, error, eta, tau, _ in members if is_failed]
    assert (0.01, 0.9) in failed
    assert all(error for _, is_failed, error, *_ in members if is_failed)
    assert all(record is not None for _, is_failed, _, _, _, record in members if not is_failed)
    # an error other than TrainingError propagates, and no worker is left
    assert forked["raised"] == serial["raised"] == "not a training error"
    assert forked["left"] == serial["left"] == 0


@_needs_pool
def test_forked_run_writes_the_serial_run_bytes(tmp_path):
    _require_pool_route(tmp_path)
    config = tmp_path / "config.yaml"
    config.write_text(json.dumps({
        "seed": 5,
        "data": {"generator": "gaussian", "n_train": families._POOL_MIN_TRAIN, "n_test": 2000},
        "classifier": {"variants": ["svdd", "lr"], "etas": [0.1, 1.0], "taus": [0.5, 0.9]},
        "risk": {"eps": [0.1, 0.2], "delta": 0.01}}))
    outputs = {}
    for one_cpu in (True, False):
        out = tmp_path / f"run-{one_cpu}"
        _pinned_python(["-m", "saferegions", "run", "--config", str(config), "--out", str(out)],
                       tmp_path, one_cpu=one_cpu)
        outputs[one_cpu] = {path.relative_to(out).as_posix(): path.read_bytes()
                            for path in sorted(out.rglob("*")) if path.is_file()
                            and path.name != "resolved_config.yaml"}
    assert len(outputs[True]) > 4
    assert outputs[False] == outputs[True]
