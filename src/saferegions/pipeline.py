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

Each variant's test margins, one column per live member, are the one record
of a run's test evaluation: the membership files, the report rows and the
test cells of every row derive from them and the test labels.  An
evaluation.csv row is the selected report row's EVALUATION_COLUMNS cells,
recomputed from the saved model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .classifiers import expansion_margins, in_region, load_model, save_model
from .config import ExperimentConfig, load_config
from .datagen import Dataset, sample_gaussian, standardize, write_csv
from .errors import InvalidArgument
from .families import FamilyResult, calibrate_trained_family, train_families
from .platoon import generate_platoon_dataset
from .scaling import ScalingPlan, check_plans

__all__ = [
    "REPORT_COLUMNS",
    "EVALUATION_COLUMNS",
    "ExperimentResult",
    "derive_seed",
    "resolve_plans",
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


def build_datasets(config: ExperimentConfig, plans: dict, *, calibration: bool = True):
    """Return (train, {eps: calib}, test) according to the configured source.

    Generated calibration sets are drawn independently per eps at exactly the
    plan size; a csv calibration file must match every plan's n_c.  With
    ``calibration=False`` no calibration set is drawn or read and the
    mapping is empty; train and test are the same points and labels either
    way.
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
    test = Dataset.from_csv(paths["test"])
    if not calibration:
        return train, {}, test
    calib = Dataset.from_csv(paths["calib"])
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


def _row_prefixes(labels: np.ndarray) -> list:
    """The ``index,label`` bytes of each test point, the same in every
    membership file of a run, formatted as ``write_csv`` formats them."""
    return [f"{i},{label}".encode() for i, label in enumerate(labels.tolist())]


def _write_table(path: Path, header: list, inside: np.ndarray, prefixes: list) -> None:
    """A membership file, the same bytes ``write_csv`` writes for its rows:
    each row's ``_row_prefixes`` entry, then the boolean member columns
    ``inside`` as one byte matrix of ``,0``/``,1`` cells."""
    n, width = inside.shape
    cells = np.empty((n, 2 * width + 1), dtype=np.uint8)
    cells[:, 0:-1:2] = ord(",")
    cells[:, 1:-1:2] = inside + ord("0")
    cells[:, -1] = ord("\n")
    tails = cells.tobytes()
    step = cells.shape[1]
    with path.open("wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        handle.write(b"".join(prefix + tails[row * step:(row + 1) * step]
                              for row, prefix in enumerate(prefixes)))


def _test_cells(variant: str, hp, eps, labels: np.ndarray, cert, margin) -> dict:
    """The cells report.csv and evaluation.csv share for one model, by column
    name: its hyperparameters, certificate and test frequencies at its
    certified level.  A member that failed to train (``margin`` None) has
    no certificate or test cells."""
    cells = {"variant": variant, "eta": float(hp.eta), "tau": float(hp.tau),
             "kernel": hp.kernel.label(), "eps": float(eps), "n_test": labels.size}
    if margin is None:
        return cells
    inside = in_region(margin, cert.rho_eps)
    joint_count = int((inside & (labels == -1)).sum())
    inside_count = int(inside.sum())
    cells.update(
        rho_eps=cert.reported_rho, region_kind=cert.kind, certified=cert.certified,
        confidence=float(cert.confidence), joint_freq=joint_count / labels.size,
        conditional_freq="" if inside_count == 0 else joint_count / inside_count,
        accuracy_rho0=float(np.mean(np.where(in_region(margin, 0.0), 1, -1) == labels)))
    return cells


def _live(members: list) -> list:
    """The members that trained; each owns one margin and membership column."""
    return [m for m in members if not m.failed]


def _member_rows(variant: str, eps_value: float, result: FamilyResult,
                 margins: np.ndarray, labels: np.ndarray) -> list:
    """Report rows of one (variant, eps) family; ``margins`` holds one test
    margin column per live member."""
    plan = result.plan
    column = {m.index: k for k, m in enumerate(_live(result.members))}
    rows = []
    for member in result.members:
        margin = None if member.failed else margins[:, column[member.index]]
        cells = _test_cells(variant, member.hyperparameters, eps_value, labels,
                            member.certificate, margin)
        cells.update(member=member.index, delta=float(plan.delta), beta=float(plan.beta),
                     r=plan.r, n_c=plan.n_c, selected=int(member.index == result.selected_index))
        if not member.failed:
            cells.update(n_U=member.certificate.n_U, J=float(member.score))
        rows.append([cells.get(name, "") for name in REPORT_COLUMNS])
    return rows


def run_experiment(config: ExperimentConfig, *, force_uncertified: bool = False,
                   write: bool = True, evaluate: bool = True) -> ExperimentResult:
    """Run the full pipeline and (optionally) write the report files.

    Every variant's family is trained once, all in one ``train_families``
    call, and reused across the eps sweep; each eps calibrates the trained
    members against its own plan and calibration set.  Every plan must
    certify the family (etas x taus x kernels members a variant) under the
    union bound, checked before any data is drawn.
    """
    plans = resolve_plans(config)
    family = config.classifier.family()
    all_certified = check_plans(plans, force_uncertified, len(family))
    train, calibs, test = build_datasets(config, plans)
    train_original = train
    scaler = None
    if config.data.standardize:
        (train, *rest, test), scaler = standardize(
            train, *[calibs[eps] for eps in plans], test)
        calibs = dict(zip(plans, rest))

    settings = config.classifier.train_settings()
    family_results: dict = {}
    margins: dict = {}
    report_rows: list = []
    trained = train_families(train, family, config.classifier.variants, settings)
    for variant, members in trained.items():
        live = _live(members)
        if evaluate and live:
            # one (n_test, live) block serves every eps of this variant
            margins[variant] = expansion_margins([m.model for m in live], test.x)
        for eps in config.risk.eps:
            result = calibrate_trained_family(members, calibs[eps], plans[eps], variant,
                                              force_uncertified=force_uncertified)
            family_results[variant, eps] = result
            if evaluate:
                report_rows.extend(_member_rows(variant, eps, result, margins[variant],
                                                test.y))

    result = ExperimentResult(config=config, plans=plans, family_results=family_results,
                              report_rows=report_rows, all_certified=all_certified,
                              scaler=scaler, train_original=train_original)
    if write:
        _write_outputs(result, margins if evaluate else None, test.y)
    return result


def _model_path(run_dir: Path, variant: str, eps) -> Path:
    """Where a run saves the selected model of its (variant, eps) family."""
    return run_dir / "models" / f"{variant}_eps_{repr(float(eps))}.json"


def _write_outputs(result: ExperimentResult, margins: dict | None,
                   labels: np.ndarray) -> None:
    """Write the run directory.  ``margins`` maps each variant to its test
    margins, one column per live member; None writes neither report nor
    membership files.  The report, model, membership and evaluation files
    this run does not write are deleted first, so a reused directory holds
    what a fresh one would."""
    config_path = write_resolved_config(result.config)
    out = config_path.parent
    model_files = {key: _model_path(out, *key) for key in result.family_results}
    membership_files = {} if margins is None else {
        (variant, eps): out / f"membership_{variant}_eps_{repr(float(eps))}.csv"
        for variant, eps in result.family_results}
    written = {*model_files.values(), *membership_files.values()}
    for stale in [out / "report.csv", out / "evaluation.csv",
                  *out.glob("membership_*_eps_*.csv"), *out.glob("models/*_eps_*.json")]:
        if stale not in written:
            stale.unlink(missing_ok=True)
    files = {"config": config_path}

    if margins is not None:
        report_path = out / "report.csv"
        write_csv(report_path, REPORT_COLUMNS, result.report_rows)
        files["report"] = report_path

    (out / "models").mkdir(exist_ok=True)
    for key, family_result in result.family_results.items():
        selected = family_result.selected
        save_model(selected.model, model_files[key], certificate=selected.certificate)
    # every file holds the same test points, so one set of row prefixes
    prefixes = _row_prefixes(labels) if membership_files else []
    for (variant, eps), path in membership_files.items():
        # per-point membership table so every Pr{} cell can be recomputed
        live = _live(result.family_results[variant, eps].members)
        header = ["index", "label"] + [f"member_{m.index}" for m in live]
        rho = np.array([m.certificate.rho_eps for m in live], dtype=float)
        _write_table(path, header, in_region(margins[variant], rho), prefixes)

    files["models"] = list(model_files.values())
    files["membership"] = list(membership_files.values())
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

    Reads resolved_config.yaml from ``run_dir`` and the model file of each
    configured (variant, eps), in that order; a model file left by an
    earlier run under another config is not read.  Rebuilds the test split
    (and the training split, to refit the standardizer) from the stored
    config, sized by the loaded certificates' plans and reading no calibration
    set, and writes evaluation.csv with EVALUATION_COLUMNS.
    The frequencies must agree with the matching report.csv rows.
    """
    run_dir = Path(run_dir)
    config_path = run_dir / "resolved_config.yaml"
    if not config_path.exists():
        raise InvalidArgument(f"{run_dir} has no resolved_config.yaml; run the "
                              "pipeline first")
    config = load_config(config_path)
    loaded = []
    for variant in config.classifier.variants:
        for eps in config.risk.eps:
            path = _model_path(run_dir, variant, eps)
            if not path.exists():
                raise InvalidArgument(f"{path} is missing; run the pipeline on this config")
            model, certificate = load_model(path)
            if certificate is None:
                raise InvalidArgument(f"{path} carries no certificate")
            loaded.append((model, certificate))

    plans = {cert.plan.eps: cert.plan for _, cert in loaded}
    train, _, test = build_datasets(config, plans, calibration=False)
    if config.data.standardize:
        (train, test), scaler = standardize(train, test)

    margins = expansion_margins([model for model, _ in loaded], test.x)
    rows = []
    for k, (model, cert) in enumerate(loaded):
        cells = _test_cells(model.variant, model.hyperparameters, cert.plan.eps, test.y,
                            cert, margins[:, k])
        rows.append([cells[name] for name in EVALUATION_COLUMNS])
    write_csv(run_dir / "evaluation.csv", EVALUATION_COLUMNS, rows)
    return rows
