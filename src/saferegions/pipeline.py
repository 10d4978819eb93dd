"""End-to-end experiment pipeline: data, training, calibration, selection,
test evaluation, and deterministic report files.

Every output byte is a pure function of (config, seed): float cells are
written with repr so reruns are byte-identical, rows follow a fixed order
(variant as configured, then eps as configured, then member index), and no
timestamps or environment data are recorded.

Report columns, in order:
    variant, member, eta, tau, kernel, eps, delta, beta, r, n_c, n_U,
    rho_eps, region_kind, certified, confidence, J, joint_freq,
    conditional_freq, accuracy_rho0, n_test, selected

joint_freq is the headline column: the fraction of all test points that are
unsafe AND inside the region.  conditional_freq is the unsafe fraction among
test points inside the region (empty when the region holds no test points).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .classifiers import expansion_margins, load_model, save_model
from .config import ExperimentConfig, load_config
from .datagen import Dataset, sample_gaussian, standardize, write_csv
from .errors import InvalidArgument, UncertifiedPlanError
from .families import FamilyResult, calibrate_trained_family, train_family
from .platoon import generate_platoon_dataset
from .scaling import ScalingPlan, check_plan, min_calibration_size

__all__ = [
    "REPORT_COLUMNS",
    "EVALUATION_COLUMNS",
    "ExperimentResult",
    "derive_seed",
    "resolve_plans",
    "check_plans",
    "build_datasets",
    "run_experiment",
    "boundary_grid_rows",
    "evaluate_saved",
    "write_csv",
    "write_resolved_config",
]

REPORT_COLUMNS = [
    "variant", "member", "eta", "tau", "kernel", "eps", "delta", "beta", "r",
    "n_c", "n_U", "rho_eps", "region_kind", "certified", "confidence", "J",
    "joint_freq", "conditional_freq", "accuracy_rho0", "n_test", "selected",
]

EVALUATION_COLUMNS = [
    "variant", "eta", "tau", "kernel", "eps", "rho_eps", "region_kind",
    "certified", "confidence", "joint_freq", "conditional_freq",
    "accuracy_rho0", "n_test",
]

# seed-derivation tags for the independent data splits
_TAG_TRAIN = 101
_TAG_TEST = 102
_TAG_CALIB = 200
_TAG_POOL = 300


def derive_seed(base: int, *tags: int) -> int:
    """Deterministic child seed for a named substream of the run seed."""
    seq = np.random.SeedSequence([int(base), *[int(t) for t in tags]])
    return int(seq.generate_state(1, np.uint64)[0] >> 1)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    plans: dict
    family_results: dict          # (variant, eps) -> FamilyResult
    report_rows: list
    all_certified: bool
    scaler: object | None = None
    train_original: Dataset | None = None
    output_dir: Path | None = None
    files: dict = field(default_factory=dict)


def resolve_plans(config: ExperimentConfig) -> dict:
    """The plans a run uses, one per configured eps: sized by ``risk.n_c``
    when set, else by the rows of a csv calibration file, else by the
    closed-form rule."""
    risk = config.risk
    n_c = risk.n_c
    if n_c is None and config.data.generator == "csv":
        n_c = Dataset.from_csv(config.data.paths["calib"]).n_samples
    return {eps: ScalingPlan.from_risk(eps, risk.delta, risk.beta, n_c=n_c)
            for eps in risk.eps}


def check_plans(plans: dict, force_uncertified: bool) -> bool:
    """True when every plan certifies; otherwise raise UncertifiedPlanError
    naming the minimal sizes, or return False under ``force_uncertified``."""
    failing = {eps: plan for eps, plan in plans.items()
               if not check_plan(plan).certified}
    if failing and not force_uncertified:
        parts = [f"eps={eps}: n_c={plan.n_c} is not certifiable at delta={plan.delta}, "
                 f"minimal n_c is {min_calibration_size(eps, plan.delta, plan.beta)}"
                 for eps, plan in failing.items()]
        raise UncertifiedPlanError(
            "; ".join(parts) + " (pass --force-uncertified to run anyway)")
    return not failing


def build_datasets(config: ExperimentConfig, plans: dict, *, calibration: bool = True):
    """Return (train, {eps: calib}, test) according to the configured source.

    Generated calibration sets are drawn independently per eps at exactly the
    plan size; a csv calibration file must match every plan's n_c.  With
    ``calibration=False`` the gaussian and platoon generators draw no
    calibration set and the mapping is empty; train and test are the same
    points and labels either way.
    """
    data = config.data
    if data.generator == "gaussian":
        spec = data.gaussian
        train = sample_gaussian(spec, data.n_train,
                                seed=derive_seed(config.seed, _TAG_TRAIN), role="train")
        test = sample_gaussian(spec, data.n_test,
                               seed=derive_seed(config.seed, _TAG_TEST), role="test")
        calibs = {eps: sample_gaussian(spec, plans[eps].n_c,
                                       seed=derive_seed(config.seed, _TAG_CALIB, i),
                                       role="calib")
                  for i, eps in enumerate(plans) if calibration}
        return train, calibs, test
    if data.generator == "platoon":
        sizes = [data.n_train] + [plans[eps].n_c for eps in plans] + [data.n_test]
        seed = derive_seed(config.seed, _TAG_POOL)
        if not calibration:
            # every scenario has its own substream, so the train and test
            # index ranges generate alone to the rows of the whole pool
            return (generate_platoon_dataset(data.n_train, ranges=data.platoon, seed=seed),
                    {},
                    generate_platoon_dataset(data.n_test, ranges=data.platoon, seed=seed,
                                             start=sum(sizes) - data.n_test))
        pool = generate_platoon_dataset(sum(sizes), ranges=data.platoon, seed=seed)
        # scenarios are i.i.d. across indices, so consecutive slices are
        # themselves independent samples
        cuts = np.cumsum([0] + sizes)
        parts = [pool.subset(range(cuts[k], cuts[k + 1])) for k in range(len(sizes))]
        train, *calib_parts, test = parts
        return train, dict(zip(plans, calib_parts)), test
    paths = data.paths
    train = Dataset.from_csv(paths["train"])
    calib = Dataset.from_csv(paths["calib"])
    test = Dataset.from_csv(paths["test"])
    for eps, plan in plans.items():
        if plan.n_c != calib.n_samples:
            raise InvalidArgument(
                f"calibration file {paths['calib']} has {calib.n_samples} rows but "
                f"the eps={eps} plan requires n_c={plan.n_c}; set risk.n_c to the "
                f"file size or supply a matching file")
    return train, {eps: calib for eps in plans}, test


def write_resolved_config(config: ExperimentConfig) -> Path:
    """Create the output directory and write ``resolved_config.yaml`` into it,
    so any result can be reproduced; returns the file's path."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "resolved_config.yaml"
    path.write_text(yaml.safe_dump(config.to_mapping(), sort_keys=True))
    return path


def _write_table(path: Path, header: list, table: np.ndarray) -> None:
    """Integer table as csv; the same bytes ``write_csv`` writes for its rows."""
    lines = [",".join(header)] + [",".join(map(str, row)) for row in table.tolist()]
    path.write_text("\n".join(lines) + "\n", newline="")


def _membership_table(labels: np.ndarray, margins: np.ndarray, live: list) -> np.ndarray:
    """int64 columns index, label, then 1 where ``margin + rho_eps < 0`` for
    each live member (one margin column each, in member order)."""
    rho = np.array([m.certificate.rho_eps for m in live], dtype=float)
    table = np.empty((labels.size, 2 + len(live)), dtype=np.int64)
    table[:, 0] = np.arange(labels.size)
    table[:, 1] = labels
    table[:, 2:] = (margins + rho) < 0.0
    return table


def _frequencies(inside: np.ndarray, margin: np.ndarray, labels: np.ndarray) -> tuple:
    """(joint_freq, conditional_freq, accuracy_rho0) of one region on the
    test set; conditional_freq is empty when the region holds no point."""
    joint_count = int((inside & (labels == -1)).sum())
    inside_count = int(inside.sum())
    conditional = "" if inside_count == 0 else joint_count / inside_count
    accuracy = float(np.mean(np.where(margin < 0.0, 1, -1) == labels))
    return joint_count / labels.size, conditional, accuracy


def _live(members: list) -> list:
    """The members that trained; each owns one margin and membership column."""
    return [m for m in members if not m.failed]


def _member_rows(variant: str, eps_value: float, result: FamilyResult,
                 margins: np.ndarray, table: np.ndarray) -> list:
    """Report rows of one (variant, eps) family; ``margins`` and the member
    columns of its ``_membership_table`` hold one column per live member."""
    labels = table[:, 1]
    n_test = labels.size
    column = {m.index: k for k, m in enumerate(_live(result.members))}
    rows = []
    for member in result.members:
        hp = member.hyperparameters
        cert = member.certificate
        base = [variant, member.index, float(hp.eta), float(hp.tau), hp.kernel.label(),
                float(eps_value), float(result.plan.delta), float(result.plan.beta),
                result.plan.r, result.plan.n_c]
        if member.failed:
            rows.append(base + ["", "", "", "", "", "", "", "", "", n_test, 0])
            continue
        k = column[member.index]
        joint, conditional, accuracy = _frequencies(table[:, 2 + k] == 1, margins[:, k], labels)
        rows.append(base + [cert.n_U, cert.reported_rho, cert.kind, cert.certified,
                            float(cert.confidence), float(member.score), joint,
                            conditional, accuracy, n_test,
                            int(member.index == result.selected_index)])
    return rows


def run_experiment(config: ExperimentConfig, *, force_uncertified: bool = False,
                   write: bool = True, evaluate: bool = True) -> ExperimentResult:
    """Run the full pipeline and (optionally) write the report files.

    Families are trained once per variant and reused across the eps sweep;
    each eps calibrates the trained members against its own plan and
    calibration set.
    """
    plans = resolve_plans(config)
    all_certified = check_plans(plans, force_uncertified)
    train, calibs, test = build_datasets(config, plans)
    train_original = train
    scaler = None
    if config.data.standardize:
        (train, *rest, test), scaler = standardize(
            train, *[calibs[eps] for eps in plans], test)
        calibs = dict(zip(plans, rest))

    settings = config.classifier.train_settings()
    family = config.classifier.family()
    labels = test.y
    family_results: dict = {}
    memberships: dict = {}
    report_rows: list = []
    for variant in config.classifier.variants:
        members = train_family(train, family, variant, settings=settings)
        live = _live(members)
        margins = None
        if evaluate and live:
            # one (n_test, live) block serves every eps of this variant
            margins = expansion_margins([m.model for m in live], test.x)
        for eps in config.risk.eps:
            result = calibrate_trained_family(members, calibs[eps], plans[eps], variant,
                                              force_uncertified=force_uncertified)
            family_results[variant, eps] = result
            if evaluate:
                table = _membership_table(labels, margins, _live(result.members))
                memberships[variant, eps] = table
                report_rows.extend(_member_rows(variant, eps, result, margins, table))

    result = ExperimentResult(config=config, plans=plans, family_results=family_results,
                              report_rows=report_rows, all_certified=all_certified,
                              scaler=scaler, train_original=train_original)
    if write:
        _write_outputs(result, memberships if evaluate else None)
    return result


def _write_outputs(result: ExperimentResult, memberships: dict | None) -> None:
    """Write the run directory.  ``memberships`` maps (variant, eps) to its
    ``_membership_table``; None writes neither report nor membership files."""
    config_path = write_resolved_config(result.config)
    out = config_path.parent
    files = {"config": config_path}

    if memberships is not None:
        report_path = out / "report.csv"
        write_csv(report_path, REPORT_COLUMNS, result.report_rows)
        files["report"] = report_path

    models_dir = out / "models"
    models_dir.mkdir(exist_ok=True)
    model_files = []
    membership_files = []
    for (variant, eps), family_result in result.family_results.items():
        selected = family_result.selected
        model_path = models_dir / f"{variant}_eps_{repr(float(eps))}.json"
        save_model(selected.model, model_path, certificate=selected.certificate)
        model_files.append(model_path)
        if memberships is None:
            continue
        # per-point membership table so every Pr{} cell can be recomputed
        live = _live(family_result.members)
        header = ["index", "label"] + [f"member_{m.index}" for m in live]
        membership_path = out / f"membership_{variant}_eps_{repr(float(eps))}.csv"
        _write_table(membership_path, header, memberships[variant, eps])
        membership_files.append(membership_path)

    files["models"] = model_files
    files["membership"] = membership_files
    result.output_dir = out
    result.files = files


def boundary_grid_rows(model, certificate, bbox: tuple, resolution: int,
                       scaler=None) -> list:
    """Uniform grid rows (x1, x2, f_value, inside) for a 2-D region boundary:
    ``f_value`` is the decision value, ``inside`` the model's ``predict``.

    Coordinates are in the original data space; the model is evaluated on the
    standardized image when a scaler is given.
    """
    x1_min, x1_max, x2_min, x2_max = map(float, bbox)
    xs = np.linspace(x1_min, x1_max, int(resolution))
    ys = np.linspace(x2_min, x2_max, int(resolution))
    g1, g2 = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([g1.ravel(), g2.ravel()])
    mapped = scaler.apply(pts) if scaler is not None else pts
    f = model.decision_value(mapped, certificate.rho_eps)
    inside = model.predict(mapped, certificate.rho_eps) == 1
    return [[float(p[0]), float(p[1]), float(v), int(i)] for p, v, i in zip(pts, f, inside)]


def data_bbox(train: Dataset, margin: float) -> tuple:
    lo = train.x.min(axis=0) - margin
    hi = train.x.max(axis=0) + margin
    return float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1])


def evaluate_saved(run_dir) -> list:
    """Recompute test frequencies for the models saved by a previous run.

    Reads resolved_config.yaml and models/*.json from ``run_dir``, rebuilds
    the test split (and the training split, to refit the standardizer) from
    the stored config, generating no calibration set, and writes
    evaluation.csv with EVALUATION_COLUMNS.
    The frequencies must agree with the matching report.csv rows.
    """
    run_dir = Path(run_dir)
    config_path = run_dir / "resolved_config.yaml"
    if not config_path.exists():
        raise InvalidArgument(f"{run_dir} has no resolved_config.yaml; run the "
                              "pipeline first")
    config = load_config(config_path)
    model_paths = sorted((run_dir / "models").glob("*.json"))
    if not model_paths:
        raise InvalidArgument(f"{run_dir}/models holds no saved models")

    train, _, test = build_datasets(config, resolve_plans(config), calibration=False)
    if config.data.standardize:
        (train, test), scaler = standardize(train, test)

    loaded = []
    for path in model_paths:
        model, certificate = load_model(path)
        if certificate is None:
            raise InvalidArgument(f"{path} carries no certificate")
        loaded.append((model, certificate))
    # fixed order: variant as configured, then eps as configured
    variant_order = {v: i for i, v in enumerate(config.classifier.variants)}
    eps_order = {float(e): i for i, e in enumerate(config.risk.eps)}
    loaded.sort(key=lambda mc: (variant_order.get(mc[0].variant, len(variant_order)),
                                eps_order.get(float(mc[1].plan.eps), len(eps_order))))

    margins = expansion_margins([model for model, _ in loaded], test.x)
    rows = []
    for k, (model, cert) in enumerate(loaded):
        s = margins[:, k]
        joint, conditional, accuracy = _frequencies((s + cert.rho_eps) < 0.0, s, test.y)
        hp = model.hyperparameters
        rows.append([model.variant, float(hp.eta), float(hp.tau), model.kernel.label(),
                     float(cert.plan.eps), cert.reported_rho, cert.kind, cert.certified,
                     float(cert.confidence), joint, conditional, accuracy, test.n_samples])
    write_csv(run_dir / "evaluation.csv", EVALUATION_COLUMNS, rows)
    return rows
