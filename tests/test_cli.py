"""Command-line contract: verbs, exit codes, printed plans, emitted files."""

import csv

import numpy as np
import pytest
import yaml

from saferegions import Dataset, pipeline
from saferegions.cli import main


def _write_config(tmp_path, **overrides):
    raw = {
        "seed": 21,
        "output_dir": str(tmp_path / "out"),
        "data": {"generator": "gaussian", "n_train": 120, "n_test": 300},
        "classifier": {"variants": ["svm"], "etas": [1.0], "taus": [0.5],
                       "kernels": [{"kind": "linear"}]},
        "risk": {"eps": [0.1], "delta": 0.01, "beta": 0.5},
        "grid": {"resolution": 2, "bbox": [-2.0, 2.0, -2.0, 2.0]},
    }
    raw.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_plan_prints_both_sizing_variants(capsys):
    assert main(["plan", "--eps", "0.05", "--delta", "1e-6", "--beta", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "n_c=2063" in out and "n_c=2064" in out
    assert out.count("r=52") == 2
    assert "certified" in out


def test_plan_formula_size_small_case(capsys):
    assert main(["plan", "--eps", "0.5", "--delta", "0.5", "--beta", "0.5"]) == 0
    assert "n_c=11" in capsys.readouterr().out


def test_plan_rejects_out_of_range_delta(capsys):
    assert main(["plan", "--eps", "0.05", "--delta", "1", "--beta", "0.5"]) == 1
    assert "delta" in capsys.readouterr().err


def test_plan_uncertifiable_override_exits_2(capsys):
    assert main(["plan", "--eps", "0.1", "--delta", "1e-6", "--n-c", "500"]) == 2
    out = capsys.readouterr().out
    assert "NOT certified" in out
    assert "minimal certifiable n_c" in out and "1032" in out


def test_plan_from_config_checks_the_size_a_run_uses(tmp_path, capsys):
    # the config's n_c and a csv calibration file were once ignored: plan
    # printed the formula sizes, not the sizes a run uses
    path = _write_config(tmp_path, risk={"eps": [0.05], "delta": 1.0e-6, "n_c": 100})
    assert main(["plan", "--config", str(path)]) == 2
    out = capsys.readouterr().out
    assert "given n_c: n_c=100" in out and "NOT certified" in out and "kappa" not in out
    # --eps overrides the config's levels and keeps its delta and n_c
    assert main(["plan", "--config", str(path), "--eps", "0.5", "--n-c", "400"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("eps=0.5 delta=1e-06 beta=0.5\n  given n_c: n_c=400")

    splits = tmp_path / "splits"
    assert main(["generate", "--config", str(_write_config(tmp_path)), "--out", str(splits)]) == 0
    lines = (splits / "calib_eps_0.1.csv").read_text().splitlines(keepends=True)
    (splits / "calib_eps_0.1.csv").write_text("".join(lines[:201]))   # 200 of 344 rows
    paths = {name: str(splits / f"{name}.csv") for name in ("train", "test")}
    path = _write_config(tmp_path, data={"generator": "csv", "paths": {
        **paths, "calib": str(splits / "calib_eps_0.1.csv")}})
    capsys.readouterr()
    assert main(["plan", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("n_c=") == 1 and "given n_c: n_c=200 r=10" in out
    assert main(["run", "--config", str(path)]) == 0


def test_plan_rejects_a_config_that_cannot_train(tmp_path, capsys):
    # a negative tol once passed plan and stopped run only after generating
    path = _write_config(tmp_path, classifier={"tol": -1.0})
    assert main(["plan", "--config", str(path)]) == 1
    assert "classifier.tol must be positive" in capsys.readouterr().err


def test_argument_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--eps", "not-a-number"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 1


def test_missing_config_is_an_argument_error(tmp_path, capsys):
    assert main(["run"]) == 1
    assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 1


def test_generate_writes_three_files_for_single_eps(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "data"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.glob("*.csv"))
    assert names == ["calib_eps_0.1.csv", "test.csv", "train.csv"]
    with (out / "train.csv").open() as fh:
        assert sum(1 for _ in fh) == 121  # header + rows
    with (out / "calib_eps_0.1.csv").open() as fh:
        n_calib = sum(1 for _ in fh) - 1
    assert n_calib == 344  # closed-form size for eps=0.1, delta=0.01
    assert (out / "resolved_config.yaml").exists()


def test_generate_empty_n_gives_header_only_file(tmp_path, capsys):
    config = _write_config(
        tmp_path, data={"generator": "gaussian", "n_train": 0, "n_test": 0})
    out = tmp_path / "data"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "train.csv").read_text() == "f0,f1,label\n"
    assert (out / "test.csv").read_text() == "f0,f1,label\n"


def test_generate_rerun_identical_bytes(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "data"
    main(["generate", "--config", str(config), "--out", str(out)])
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    main(["generate", "--config", str(config), "--out", str(out)])
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_generate_rejects_csv_generator(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        data={"generator": "csv",
              "paths": {"train": "a.csv", "calib": "b.csv", "test": "c.csv"}})
    assert main(["generate", "--config", str(config)]) == 1
    assert "nothing to generate" in capsys.readouterr().err


def test_run_writes_report_and_exits_0(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "selected member" in out and "certified=yes" in out
    report = tmp_path / "out" / "report.csv"
    with report.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["certified"] == "1"
    assert (tmp_path / "out" / "resolved_config.yaml").exists()
    assert (tmp_path / "out" / "models" / "svm_eps_0.1.json").exists()


def test_run_on_a_csv_with_a_fractional_label_exits_1(tmp_path, capsys):
    paths = {}
    for name in ("train", "calib", "test"):
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("f0,f1,label\n0.1,0.2,1\n0.3,0.4,-1\n")
    paths["calib"].write_text("f0,f1,label\n0.1,0.2,1\n0.3,0.4,1.7\n")
    config = _write_config(
        tmp_path, data={"generator": "csv", "paths": {k: str(v) for k, v in paths.items()}},
        risk={"eps": [0.5], "delta": 0.5})
    assert main(["run", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert f"{paths['calib']}, line 3: label must be 1 or -1" in captured.err
    assert not (tmp_path / "out" / "report.csv").exists()


def test_plan_on_a_csv_with_a_malformed_sidecar_exits_1(tmp_path, capsys):
    # once a traceback: planning reads the calibration file, sidecar included
    paths = {}
    for name in ("train", "calib", "test"):
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("f0,f1,label\n0.1,0.2,1\n0.3,0.4,-1\n")
    sidecar = tmp_path / "calib.csv.meta.yaml"
    sidecar.write_text("seed: {3\n")
    config = _write_config(
        tmp_path, data={"generator": "csv", "paths": {k: str(v) for k, v in paths.items()}},
        risk={"eps": [0.5], "delta": 0.5})
    assert main(["plan", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(sidecar) in err and "not valid YAML" in err


def test_run_uncertifiable_exit_codes(tmp_path, capsys):
    config = _write_config(
        tmp_path, risk={"eps": [0.1], "delta": 1.0e-6, "n_c": 50})
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "minimal n_c is 1032" in err
    # override completes the run but still reports the uncertified state
    assert main(["run", "--config", str(config), "--force-uncertified"]) == 2
    assert (tmp_path / "out" / "report.csv").exists()


def test_run_refuses_a_family_its_union_bound_does_not_certify(tmp_path, capsys):
    # at n_c = 1394 one model certifies (tail 9.94e-7 <= delta = 1e-6), a
    # family of two does not (2 x tail > delta), so the run stops before
    # training unless forced, and a forced run reports every member
    # uncertified
    classifier = {"variants": ["svm"], "etas": [0.5, 1.0], "taus": [0.5],
                  "kernels": [{"kind": "linear"}]}
    config = _write_config(tmp_path, classifier=classifier,
                           risk={"eps": [0.05], "delta": 1.0e-6, "n_c": 1394})
    assert main(["plan", "--config", str(config)]) == 2
    out = capsys.readouterr().out
    assert "tail=9.94439506331341e-07 (certified)" in out
    assert "family of 2 members: 2 x tail = " in out and "NOT certified" in out
    assert "minimal certifiable n_c at these levels for the family: " in out
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "for a family of 2 members" in err
    assert not (tmp_path / "out").exists()
    assert main(["run", "--config", str(config), "--force-uncertified"]) == 2
    with open(tmp_path / "out" / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 and {row["certified"] for row in rows} == {"0"}


def test_run_seed_override_changes_outputs(tmp_path, capsys):
    config = _write_config(tmp_path)
    main(["run", "--config", str(config)])
    first = (tmp_path / "out" / "report.csv").read_bytes()
    main(["run", "--config", str(config), "--seed", "99"])
    second = (tmp_path / "out" / "report.csv").read_bytes()
    assert first != second
    stored = yaml.safe_load((tmp_path / "out" / "resolved_config.yaml").read_text())
    assert stored["seed"] == 99


def test_run_rerun_byte_identical(tmp_path, capsys):
    config = _write_config(tmp_path, risk={"eps": [0.05, 0.1], "delta": 0.01})
    assert main(["run", "--config", str(config)]) == 0
    out = tmp_path / "out"
    first = {p.relative_to(out): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    assert main(["run", "--config", str(config)]) == 0
    second = {p.relative_to(out): p.read_bytes()
              for p in sorted(out.rglob("*")) if p.is_file()}
    assert first == second


def test_boundary_grid_resolution_and_nesting(tmp_path, capsys):
    config = _write_config(tmp_path, risk={"eps": [0.05, 0.5], "delta": 0.01})
    out = tmp_path / "grids"
    assert main(["boundary-grid", "--config", str(config), "--out", str(out)]) == 0
    small = list(csv.DictReader((out / "grid_svm_eps_0.05.csv").open()))
    large = list(csv.DictReader((out / "grid_svm_eps_0.5.csv").open()))
    assert len(small) == len(large) == 4  # resolution 2x2 from the config
    assert list(small[0].keys()) == ["x1", "x2", "f_value", "inside"]
    for a, b in zip(small, large):
        assert (a["x1"], a["x2"]) == (b["x1"], b["x2"])
        # smaller eps region is contained in the larger one
        assert not (a["inside"] == "1" and b["inside"] == "0")
    xs = {row["x1"] for row in small}
    assert xs == {"-2.0", "2.0"}  # original coordinates, not standardized


def test_boundary_grid_rejects_non_2d(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        data={"generator": "gaussian", "n_train": 40, "n_test": 40,
              "gaussian": {"mu_safe": [-1.0, -1.0, -1.0],
                           "mu_unsafe": [1.0, 1.0, 1.0],
                           "cov_safe": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                        [0.0, 0.0, 1.0]],
                           "cov_unsafe": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                          [0.0, 0.0, 1.0]]}},
        risk={"eps": [0.5], "delta": 0.5})
    assert main(["boundary-grid", "--config", str(config)]) == 1
    assert "2-D" in capsys.readouterr().err


_IDENTITY_3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize("generator", ["gaussian", "platoon", "csv"])
def test_boundary_grid_rejects_non_2d_before_drawing_any_data(tmp_path, capsys, monkeypatch,
                                                              generator):
    # a 40-D platoon config once trained its families before the check
    def unreachable(*args, **kwargs):
        raise AssertionError("data drawn or a family trained before the 2-D check")

    monkeypatch.setattr(pipeline, "build_datasets", unreachable)
    monkeypatch.setattr(pipeline, "train_families", unreachable)
    data = {"generator": generator, "n_train": 40, "n_test": 40}
    if generator == "gaussian":
        data["gaussian"] = {"mu_safe": [-1.0] * 3, "mu_unsafe": [1.0] * 3,
                            "cov_safe": _IDENTITY_3, "cov_unsafe": _IDENTITY_3}
    elif generator == "csv":
        train = tmp_path / "train.csv"
        Dataset(x=np.zeros((4, 3)), y=np.array([1, -1, 1, -1])).to_csv(train)
        data = {"generator": "csv",
                "paths": {split: str(train) for split in ("train", "calib", "test")}}
    config = _write_config(tmp_path, data=data, risk={"eps": [0.5], "delta": 0.5})
    out = tmp_path / "grids"
    assert main(["boundary-grid", "--config", str(config), "--out", str(out)]) == 1
    assert "2-D" in capsys.readouterr().err
    assert not out.exists()


def _no_data(*args, **kwargs):
    raise AssertionError("data drawn or a family trained before the config check")


@pytest.mark.parametrize("resolution", ["1", "0", "-5"])
def test_boundary_grid_checks_the_resolution_flag_before_drawing_any_data(
        tmp_path, capsys, monkeypatch, resolution):
    # 1 once wrote one-row grids, 0 used the config's value and -5 trained
    # every family before numpy refused it
    monkeypatch.setattr(pipeline, "build_datasets", _no_data)
    monkeypatch.setattr(pipeline, "train_families", _no_data)
    out = tmp_path / "grids"
    assert main(["boundary-grid", "--config", str(_write_config(tmp_path)),
                 "--out", str(out), "--resolution", resolution]) == 1
    assert "grid.resolution" in capsys.readouterr().err
    assert not out.exists()


def test_boundary_grid_resolution_flag_sets_the_grids_and_resolved_config(tmp_path, capsys):
    out = tmp_path / "grids"
    assert main(["boundary-grid", "--config", str(_write_config(tmp_path)),
                 "--out", str(out), "--resolution", "3"]) == 0
    rows = list(csv.DictReader((out / "grid_svm_eps_0.1.csv").open()))
    assert len(rows) == 9
    stored = yaml.safe_load((out / "resolved_config.yaml").read_text())
    assert stored["grid"]["resolution"] == 3


def test_run_rejects_a_negative_seed_before_drawing_any_data(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "build_datasets", _no_data)
    monkeypatch.setattr(pipeline, "train_families", _no_data)
    assert main(["run", "--config", str(_write_config(tmp_path)), "--seed", "-1"]) == 1
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_evaluate_recomputes_from_run_dir(tmp_path, capsys):
    config = _write_config(tmp_path)
    main(["run", "--config", str(config)])
    capsys.readouterr()
    assert main(["evaluate", "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "joint_freq=" in out
    rows = list(csv.DictReader((tmp_path / "out" / "evaluation.csv").open()))
    with (tmp_path / "out" / "report.csv").open() as fh:
        report = list(csv.DictReader(fh))
    assert rows[0]["joint_freq"] == report[0]["joint_freq"]


def test_evaluate_without_run_dir_fails(tmp_path, capsys):
    assert main(["evaluate", "--out", str(tmp_path)]) == 1


def test_config_that_is_not_yaml_exits_1_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("risk: {eps: [0.1")
    assert main(["plan", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and "not valid YAML" in err


@pytest.mark.parametrize("field, bounds", [
    ("gap", ["a", 5.0]), ("gap", 5.0), ("gap", [4.0, 5.0, 6.0]), ("gap", [True, 5.0]),
    ("mass", [-5.0, 10.0]), ("packet_error_rate", [0.0, 3.0]), ("gap", [-1e308, 1e308]),
], ids=["text", "scalar", "triple", "boolean", "negative_mass", "error_rate_above_one",
        "infinite_width"])
def test_bad_platoon_range_exits_1_with_one_error_line(tmp_path, capsys, field, bounds):
    # text, scalar, triple and infinite width once ended in a traceback, a
    # boolean loaded silently; the negative mass failed only after planning
    # and the error rate above one named a drawn value, not the range
    path = _write_config(tmp_path, data={"generator": "platoon", "n_train": 40,
                                         "n_test": 40, "platoon": {field: bounds}})
    assert main(["plan", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"range {field}" in err
