"""Pipeline behavior: plan gating, dataset plumbing, report arithmetic,
determinism of every emitted byte."""

import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest
import yaml

from saferegions import (
    EVALUATION_COLUMNS,
    REPORT_COLUMNS,
    WHOLE_SPACE,
    Dataset,
    ExperimentConfig,
    InvalidArgument,
    UncertifiedPlanError,
    boundary_grid_rows,
    calibrate,
    derive_seed,
    evaluate_saved,
    load_model,
    resolve_plans,
    run_experiment,
    train_sc_svm,
)
from saferegions.classifiers import in_region
from saferegions.pipeline import (
    _row_prefixes,
    _write_table,
    build_datasets,
    write_csv,
)


def _raw(tmp_path, **overrides):
    raw = {
        "seed": 13,
        "output_dir": "unused" if tmp_path is None else str(tmp_path / "out"),
        "data": {"generator": "gaussian", "n_train": 120, "n_test": 400},
        "classifier": {"variants": ["svm"], "etas": [1.0], "taus": [0.5],
                       "kernels": [{"kind": "linear"}]},
        "risk": {"eps": [0.1], "delta": 0.01, "beta": 0.5},
    }
    raw.update(overrides)
    return raw


def test_derive_seed_stable_and_distinct():
    assert derive_seed(3, 101) == derive_seed(3, 101)
    tags = {derive_seed(3, t) for t in (101, 102, 300)} | {derive_seed(4, 101)}
    assert len(tags) == 4
    assert derive_seed(3, 200, 0) != derive_seed(3, 200, 1)


def test_plans_follow_config():
    config = ExperimentConfig.from_mapping(
        _raw(None, risk={"eps": [0.1, 0.5], "delta": 0.5}))
    plans = resolve_plans(config)
    assert plans[0.1].n_c == 52 and plans[0.5].n_c == 11
    pinned = ExperimentConfig.from_mapping(
        _raw(None, risk={"eps": [0.1, 0.5], "delta": 0.5, "n_c": 64}))
    assert {p.n_c for p in resolve_plans(pinned).values()} == {64}


def test_uncertifiable_plan_blocks_with_minimal_size(tmp_path):
    config = ExperimentConfig.from_mapping(
        _raw(tmp_path, risk={"eps": [0.1], "delta": 1.0e-6, "n_c": 50}))
    with pytest.raises(UncertifiedPlanError, match="minimal n_c is 1032"):
        run_experiment(config, write=False)
    result = run_experiment(config, force_uncertified=True, write=False)
    assert result.all_certified is False
    cert = result.family_results["svm", 0.1].selected.certificate
    assert cert.certified is False


def test_calibration_draws_are_independent_per_eps(tmp_path):
    config = ExperimentConfig.from_mapping(
        _raw(tmp_path, risk={"eps": [0.1, 0.25], "delta": 0.5}))
    plans = resolve_plans(config)
    train, calibs, test = build_datasets(config, plans)
    assert train.n_samples == 120 and test.n_samples == 400
    for eps, plan in plans.items():
        assert calibs[eps].n_samples == plan.n_c
    k = min(calibs[0.1].n_samples, calibs[0.25].n_samples)
    assert not np.array_equal(calibs[0.1].x[:k], calibs[0.25].x[:k])


def test_platoon_splits_are_disjoint_slices(tmp_path):
    raw = _raw(tmp_path,
               data={"generator": "platoon", "n_train": 30, "n_test": 40},
               risk={"eps": [0.5], "delta": 0.5})
    config = ExperimentConfig.from_mapping(raw)
    plans = resolve_plans(config)
    train, calibs, test = build_datasets(config, plans)
    assert train.n_samples == 30
    assert calibs[0.5].n_samples == plans[0.5].n_c == 11
    assert test.n_samples == 40
    # slices of one pool: idx provenance keeps them disjoint and contiguous
    pool_total = 30 + 11 + 40
    stacked = np.vstack([train.x, calibs[0.5].x, test.x])
    assert stacked.shape[0] == pool_total
    assert np.unique(stacked, axis=0).shape[0] == pool_total


def test_evaluate_saved_simulates_only_the_platoon_train_and_test_splits(tmp_path, monkeypatch):
    import saferegions.pipeline as pipeline
    import saferegions.platoon as platoon

    raw = _raw(tmp_path, data={"generator": "platoon", "n_train": 30, "n_test": 40},
               risk={"eps": [0.5, 0.25], "delta": 0.5})
    config = ExperimentConfig.from_mapping(raw)
    plans = resolve_plans(config)
    train, _, test = build_datasets(config, plans)
    only_train, calibs, only_test = build_datasets(config, plans, calibration=False)
    assert calibs == {}
    for whole, alone in ((train, only_train), (test, only_test)):
        assert whole.x.tobytes() == alone.x.tobytes() and whole.x.shape == alone.x.shape
        assert whole.y.tobytes() == alone.y.tobytes() and whole.y.dtype == alone.y.dtype

    result = run_experiment(config)
    # evaluation.csv as it is when the whole pool is simulated again
    full = build_datasets
    monkeypatch.setattr(pipeline, "build_datasets",
                        lambda config, plans, calibration: full(config, plans))
    evaluate_saved(result.output_dir)
    expected = (result.output_dir / "evaluation.csv").read_bytes()
    monkeypatch.undo()

    simulated = []
    real_simulate = platoon._simulate_batch

    def counting(x, reception, physics, first=0):
        simulated.append(len(x))
        return real_simulate(x, reception, physics, first)

    monkeypatch.setattr(platoon, "_simulate_batch", counting)
    evaluate_saved(result.output_dir)
    assert sum(simulated) == 30 + 40
    assert (result.output_dir / "evaluation.csv").read_bytes() == expected


def _csv_raw(tmp_path, **risk):
    rng = np.random.default_rng(0)
    files = {}
    for name, n in [("train", 40), ("calib", 11), ("test", 30)]:
        data = Dataset(x=rng.normal(size=(n, 2)),
                       y=np.where(rng.random(n) < 0.5, 1, -1))
        files[name] = tmp_path / f"{name}.csv"
        data.to_csv(files[name])
    return _raw(tmp_path,
                data={"generator": "csv",
                      "paths": {k: str(v) for k, v in files.items()}},
                risk={"eps": [0.5], "delta": 0.5, **risk})


def test_csv_generator_requires_matching_calibration_rows(tmp_path):
    raw = _csv_raw(tmp_path)
    config = ExperimentConfig.from_mapping(raw)
    result = run_experiment(config, write=False)
    # plan size comes from the calibration file when n_c is unset
    assert result.plans[0.5].n_c == 11

    raw["risk"]["n_c"] = 12
    with pytest.raises(InvalidArgument, match="11 rows"):
        run_experiment(ExperimentConfig.from_mapping(raw), write=False)


def test_resolve_plans_sizes_csv_plans_from_the_calibration_file(tmp_path):
    csv_config = ExperimentConfig.from_mapping(_csv_raw(tmp_path, eps=[0.1, 0.5]))
    assert {eps: p.n_c for eps, p in resolve_plans(csv_config).items()} == {0.1: 11, 0.5: 11}
    pinned = ExperimentConfig.from_mapping(_csv_raw(tmp_path, n_c=64))
    assert resolve_plans(pinned)[0.5].n_c == 64


def test_evaluate_saved_runs_on_a_forced_uncertified_csv_run(tmp_path):
    # 11 calibration rows cannot certify delta = 1e-6
    config = ExperimentConfig.from_mapping(_csv_raw(tmp_path, delta=1e-6))
    with pytest.raises(UncertifiedPlanError, match="n_c=11"):
        run_experiment(config, write=False)
    result = run_experiment(config, force_uncertified=True)
    rows = evaluate_saved(result.output_dir)
    selected = [r for r in result.report_rows if r[-1] == 1]
    assert len(rows) == len(selected) == 1
    assert rows[0][7] is False
    assert rows[0][9:12] == selected[0][16:19]


def test_csv_test_split_with_nan_is_rejected(tmp_path):
    raw = _csv_raw(tmp_path)
    test_path = tmp_path / "test.csv"
    lines = test_path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[1] = "nan"
    lines[5] = ",".join(fields)
    test_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidArgument, match=r"test\.csv: points contain 1 non-finite"):
        run_experiment(ExperimentConfig.from_mapping(raw), write=False)


def test_report_rows_shape_and_order(tmp_path):
    raw = _raw(tmp_path,
               classifier={"variants": ["svm", "lr"], "etas": [0.5, 1.0],
                           "taus": [0.5], "kernels": [{"kind": "linear"}]},
               risk={"eps": [0.1, 0.5], "delta": 0.5})
    result = run_experiment(ExperimentConfig.from_mapping(raw), write=False)
    rows = result.report_rows
    assert len(rows) == 2 * 2 * 2  # variants x eps x members
    assert [r[0] for r in rows] == ["svm"] * 4 + ["lr"] * 4
    assert [r[REPORT_COLUMNS.index("eps")] for r in rows] == [0.1, 0.1, 0.5, 0.5] * 2
    assert [r[1] for r in rows] == [0, 1, 0, 1, 0, 1, 0, 1]
    for row in rows:
        assert len(row) == len(REPORT_COLUMNS)
        assert 0.0 <= row[REPORT_COLUMNS.index("joint_freq")] <= 1.0
    # exactly one selected member per (variant, eps) block
    sel = REPORT_COLUMNS.index("selected")
    for block in range(4):
        assert sum(r[sel] for r in rows[2 * block: 2 * block + 2]) == 1


def test_failed_member_is_reported_with_blank_cells_and_no_membership_column(tmp_path):
    # eta = 1e-4 cannot reach the unit mass the one-class dual needs.
    raw = _raw(tmp_path, classifier={"variants": ["svdd"], "etas": [1e-4, 1.0],
                                     "taus": [0.5], "kernels": [{"kind": "gaussian"}]})
    result = run_experiment(ExperimentConfig.from_mapping(raw))
    failed, good = result.family_results["svdd", 0.1].members
    assert failed.failed and not good.failed
    out = result.output_dir
    with (out / "report.csv").open() as fh:
        failed_row, good_row = csv.DictReader(fh)
    blank = REPORT_COLUMNS[REPORT_COLUMNS.index("n_U"):REPORT_COLUMNS.index("accuracy_rho0") + 1]
    assert [failed_row[c] for c in blank] == [""] * len(blank)
    assert all(good_row[c] != "" for c in blank if c != "conditional_freq")
    assert failed_row["member"] == "0" and failed_row["eta"] == "0.0001"
    assert failed_row["n_test"] == good_row["n_test"] == "400"
    assert (failed_row["selected"], good_row["selected"]) == ("0", "1")
    with (out / "membership_svdd_eps_0.1.csv").open() as fh:
        assert next(csv.reader(fh)) == ["index", "label", "member_1"]


def test_report_joint_frequency_matches_membership_file(tmp_path):
    raw = _raw(tmp_path, risk={"eps": [0.1, 0.5], "delta": 0.5})
    result = run_experiment(ExperimentConfig.from_mapping(raw))
    out = result.output_dir
    with (out / "report.csv").open() as fh:
        report = list(csv.DictReader(fh))
    for rep in report:
        eps = rep["eps"]
        with (out / f"membership_svm_eps_{eps}.csv").open() as fh:
            members = list(csv.DictReader(fh))
        col = f"member_{rep['member']}"
        joint = sum(1 for m in members
                    if m["label"] == "-1" and m[col] == "1") / len(members)
        cond_rows = [m for m in members if m[col] == "1"]
        assert repr(joint) == rep["joint_freq"]
        if cond_rows:
            cond = sum(1 for m in cond_rows if m["label"] == "-1") / len(cond_rows)
            assert repr(cond) == rep["conditional_freq"]
        else:
            assert rep["conditional_freq"] == ""


def test_saved_model_reproduces_report_row(tmp_path):
    raw = _raw(tmp_path, risk={"eps": [0.1], "delta": 0.01})
    result = run_experiment(ExperimentConfig.from_mapping(raw))
    model, cert = load_model(result.output_dir / "models" / "svm_eps_0.1.json")
    selected = result.family_results["svm", 0.1].selected
    assert cert.rho_eps == selected.certificate.rho_eps
    assert model.variant == "svm"
    x = np.array([[0.3, -0.2], [1.0, 1.0]])
    assert np.allclose(model.margin(x), selected.model.margin(x), rtol=1e-12, atol=1e-12)


def test_single_member_family_equals_standalone_pipeline(tmp_path):
    raw = _raw(tmp_path, risk={"eps": [0.1], "delta": 0.01})
    config = ExperimentConfig.from_mapping(raw)
    result = run_experiment(config, write=False)
    member = result.family_results["svm", 0.1].selected

    plans = resolve_plans(config)
    train, calibs, test = build_datasets(config, plans)
    from saferegions import standardize
    (train, calib, test), _ = standardize(train, calibs[0.1], test)
    model = train_sc_svm(train, member.hyperparameters,
                         settings=config.classifier.train_settings())
    cert = calibrate(model, calib, plans[0.1])
    assert member.certificate.rho_eps == cert.rho_eps
    # family confidence with m = 1 equals the standalone confidence
    assert member.certificate.confidence == pytest.approx(cert.confidence, rel=1e-15)


def test_eps_sweep_monotone_on_report(tmp_path):
    raw = _raw(tmp_path,
               data={"generator": "gaussian", "n_train": 200, "n_test": 2000},
               risk={"eps": [0.05, 0.1, 0.3], "delta": 0.01})
    result = run_experiment(ExperimentConfig.from_mapping(raw), write=False)
    joint = REPORT_COLUMNS.index("joint_freq")
    freqs = [row[joint] for row in result.report_rows]
    assert freqs == sorted(freqs)
    # a looser risk level admits a larger region, i.e. a smaller level
    rhos = [result.family_results["svm", e].selected.certificate.rho_eps
            for e in (0.05, 0.1, 0.3)]
    assert rhos == sorted(rhos, reverse=True)


def test_outputs_byte_identical_across_reruns(tmp_path):
    raw = _raw(tmp_path, risk={"eps": [0.1, 0.5], "delta": 0.5})
    config = ExperimentConfig.from_mapping(raw)
    run_experiment(config)
    out = tmp_path / "out"
    first = {p.relative_to(out): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    assert first
    run_experiment(config)
    second = {p.relative_to(out): p.read_bytes()
              for p in sorted(out.rglob("*")) if p.is_file()}
    assert first == second


def test_resolved_config_written_and_reloadable(tmp_path):
    raw = _raw(tmp_path)
    config = ExperimentConfig.from_mapping(raw)
    result = run_experiment(config)
    stored = yaml.safe_load((result.output_dir / "resolved_config.yaml").read_text())
    assert ExperimentConfig.from_mapping(stored).to_mapping() == config.to_mapping()


def test_evaluate_saved_matches_report(tmp_path):
    # gaussian(gamma=auto): both files must label the gamma resolved on the
    # training points
    raw = _raw(tmp_path, risk={"eps": [0.1, 0.5], "delta": 0.5},
               classifier={"variants": ["svm"], "etas": [1.0], "taus": [0.5],
                           "kernels": [{"kind": "gaussian"}]})
    result = run_experiment(ExperimentConfig.from_mapping(raw))
    rows = evaluate_saved(result.output_dir)
    with (result.output_dir / "report.csv").open() as fh:
        selected = [r for r in csv.DictReader(fh) if r["selected"] == "1"]
    assert len(rows) == len(selected) == 2
    for ev, rep in zip(rows, selected):
        assert ev[0] == rep["variant"]
        assert ev[3] == rep["kernel"] == "gaussian(gamma=0.5)"
        assert repr(ev[4]) == rep["eps"]
        assert repr(ev[9]) == rep["joint_freq"]
        assert repr(ev[11]) == rep["accuracy_rho0"]
    assert (result.output_dir / "evaluation.csv").exists()


def test_evaluation_rows_are_the_selected_report_rows(tmp_path):
    raw = _raw(tmp_path, risk={"eps": [0.1, 0.5], "delta": 0.5},
               classifier={"variants": ["svm", "svdd", "lr"], "etas": [0.5, 2.0],
                           "taus": [0.5], "kernels": [{"kind": "gaussian"}]})
    result = run_experiment(ExperimentConfig.from_mapping(raw))
    evaluate_saved(result.output_dir)
    with (result.output_dir / "report.csv").open() as fh:
        selected = [{name: row[name] for name in EVALUATION_COLUMNS}
                    for row in csv.DictReader(fh) if row["selected"] == "1"]
    with (result.output_dir / "evaluation.csv").open() as fh:
        evaluated = list(csv.DictReader(fh))
    assert len(evaluated) == 6
    assert evaluated == selected


def test_membership_table_bytes_equal_csv_writer(tmp_path):
    labels = np.array([1, -1, -1, 1, -1])
    margins = np.array([[-2.0, 0.5], [-0.1, -3.0], [0.3, 0.2], [-1.0, -1.0],
                        [0.0, -0.25]])
    rho = np.array([0.2, WHOLE_SPACE])
    header = ["index", "label", "member_0", "member_3"]
    rows = [[i, int(labels[i])] + [int(margins[i, k] + rho[k] < 0.0) for k in range(2)]
            for i in range(labels.size)]
    _write_table(tmp_path / "fast.csv", header, in_region(margins, rho), _row_prefixes(labels))
    write_csv(tmp_path / "reference.csv", header, rows)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    _write_table(tmp_path / "empty.csv", header[:2], np.zeros((0, 0), dtype=bool), [])
    write_csv(tmp_path / "empty_reference.csv", header[:2], [])
    assert ((tmp_path / "empty.csv").read_bytes()
            == (tmp_path / "empty_reference.csv").read_bytes())


@pytest.mark.parametrize("members", [9, 0])
def test_membership_table_at_scale_bytes_equal_csv_writer(tmp_path, members):
    rng = np.random.default_rng(23)
    n = 10_000
    labels = rng.choice([-1, 1], size=n)
    inside = rng.random((n, members)) < 0.5
    assert set(labels.tolist()) == {-1, 1}
    assert members == 0 or set(inside.ravel().tolist()) == {False, True}
    header = ["index", "label"] + [f"member_{k}" for k in range(members)]
    rows = [[i, label] + row
            for i, (label, row) in enumerate(zip(labels.tolist(), inside.astype(int).tolist()))]
    _write_table(tmp_path / "fast.csv", header, inside, _row_prefixes(labels))
    write_csv(tmp_path / "reference.csv", header, rows)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_evaluate_saved_requires_run_directory(tmp_path):
    with pytest.raises(InvalidArgument, match="resolved_config"):
        evaluate_saved(tmp_path)


def test_boundary_grid_rows_shape_and_nesting(tmp_path):
    raw = _raw(tmp_path, risk={"eps": [0.05, 0.5], "delta": 0.01})
    result = run_experiment(ExperimentConfig.from_mapping(raw), write=False)
    bbox = (-3.0, 3.0, -3.0, 3.0)
    grids = {}
    for eps in (0.05, 0.5):
        member = result.family_results["svm", eps].selected
        rows = boundary_grid_rows(member.model, member.certificate, bbox, 6,
                                  scaler=result.scaler)
        assert len(rows) == 36
        xs = sorted({r[0] for r in rows})
        assert xs[0] == -3.0 and xs[-1] == 3.0
        for row in rows:
            assert row[3] == int(row[2] < 0.0)
        grids[eps] = np.array([r[3] for r in rows], dtype=bool)
    # smaller risk level gives the smaller region, pointwise on the grid
    assert not np.any(grids[0.05] & ~grids[0.5])


def test_unstandardized_run_uses_raw_coordinates(tmp_path):
    raw = _raw(tmp_path)
    raw["data"]["standardize"] = False
    result = run_experiment(ExperimentConfig.from_mapping(raw), write=False)
    assert result.scaler is None
    assert result.train_original.n_samples == 120


def test_evaluate_saved_reads_only_the_configured_models(tmp_path):
    # a run of two variants and two eps, then one of one variant and one eps
    # into the same directory: the first run's four model files stay there
    wide = _raw(tmp_path, risk={"eps": [0.1, 0.5], "delta": 0.5},
                classifier={"variants": ["svm", "lr"], "etas": [1.0], "taus": [0.5],
                            "kernels": [{"kind": "linear"}]})
    run_experiment(ExperimentConfig.from_mapping(wide))
    models = tmp_path / "out" / "models"
    earlier = {path.name: path.read_bytes() for path in models.glob("*.json")}
    narrow = _raw(tmp_path, risk={"eps": [0.5], "delta": 0.5})
    result = run_experiment(ExperimentConfig.from_mapping(narrow))
    # the run deletes the models it does not write; put them back, as a
    # copy by hand would
    assert [path.name for path in models.glob("*.json")] == ["svm_eps_0.5.json"]
    for name, data in earlier.items():
        if not (models / name).exists():
            (models / name).write_bytes(data)
    assert len(list(models.glob("*.json"))) == 4
    rows = evaluate_saved(result.output_dir)
    assert [(row[0], row[4]) for row in rows] == [("svm", 0.5)]
    with (result.output_dir / "evaluation.csv").open() as fh:
        assert [(r["variant"], r["eps"]) for r in csv.DictReader(fh)] == [("svm", "0.5")]
    (models / "svm_eps_0.5.json").unlink()
    with pytest.raises(InvalidArgument, match="svm_eps_0.5.json"):
        evaluate_saved(result.output_dir)


def _run_files(out):
    """Every file of a run directory but resolved_config.yaml, which names
    the directory, by relative path."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "resolved_config.yaml"}


def test_a_reused_run_directory_holds_what_a_fresh_run_writes(tmp_path):
    # the second run once left the first run's membership and model files of
    # lr and of eps 0.1, and its four-row evaluation.csv, beside its report
    wide = _raw(tmp_path, risk={"eps": [0.1, 0.5], "delta": 0.5},
                classifier={"variants": ["svm", "lr"], "etas": [1.0], "taus": [0.5],
                            "kernels": [{"kind": "linear"}]})
    evaluate_saved(run_experiment(ExperimentConfig.from_mapping(wide)).output_dir)
    narrow = _raw(tmp_path, risk={"eps": [0.5], "delta": 0.5})
    reused = run_experiment(ExperimentConfig.from_mapping(narrow)).output_dir
    fresh_raw = dict(narrow, output_dir=str(tmp_path / "fresh"))
    fresh = run_experiment(ExperimentConfig.from_mapping(fresh_raw)).output_dir
    assert sorted(_run_files(reused)) == ["membership_svm_eps_0.5.csv",
                                          "models/svm_eps_0.5.json", "report.csv"]
    assert _run_files(reused) == _run_files(fresh)


def test_a_reused_run_directory_keeps_no_report_a_run_without_evaluation_skips(tmp_path):
    # a run with evaluate=False writes no report, and once left the earlier
    # run's four-row report.csv beside its one model
    wide = _raw(tmp_path, risk={"eps": [0.1, 0.5], "delta": 0.5},
                classifier={"variants": ["svm", "lr"], "etas": [1.0], "taus": [0.5],
                            "kernels": [{"kind": "linear"}]})
    run_experiment(ExperimentConfig.from_mapping(wide))
    narrow = _raw(tmp_path, risk={"eps": [0.5], "delta": 0.5})
    reused = run_experiment(ExperimentConfig.from_mapping(narrow), evaluate=False).output_dir
    fresh_raw = dict(narrow, output_dir=str(tmp_path / "fresh"))
    fresh = run_experiment(ExperimentConfig.from_mapping(fresh_raw), evaluate=False).output_dir
    assert sorted(_run_files(reused)) == ["models/svm_eps_0.5.json"]
    assert _run_files(reused) == _run_files(fresh)


def test_evaluate_saved_reads_no_calibration_file_on_a_csv_run(tmp_path):
    # it once parsed the calibration file twice, and failed without it
    config = ExperimentConfig.from_mapping(_csv_raw(tmp_path))
    out = run_experiment(config).output_dir
    evaluate_saved(out)
    expected = (out / "evaluation.csv").read_bytes()
    calib = Path(config.data.paths["calib"])
    calib.rename(tmp_path / "moved.csv")
    evaluate_saved(out)
    assert (out / "evaluation.csv").read_bytes() == expected
