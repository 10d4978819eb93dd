"""The version-1 model record, pinned from the test side: hand-written
records load with their dtypes and give closed-form margins, trained models
encode to exactly the v1 keys, and malformed model files are rejected with
the file named."""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
import yaml

from saferegions import (
    GaussianSpec,
    Hyperparameters,
    InvalidArgument,
    KernelSpec,
    ScLrModel,
    ScSvddModel,
    ScSvmModel,
    load_model,
    model_to_record,
    sample_gaussian,
    save_model,
    train_sc_lr,
    train_sc_svdd,
    train_sc_svm,
)
from saferegions.cli import main

_SHARED = {
    "format_version": 1,
    "eta": 0.5,
    "tau": 0.25,
    "kernel": {"kind": "linear", "gamma": None, "degree": 3, "coef0": 0.0},
    "diagnostics": {"iterations": 7, "residual": 1e-9, "converged": True,
                    "objective": -0.125, "flags": {}},
}

# two centers (1, 0) and (0, 2) in every variant
V1_RECORDS = {
    "svm": {**_SHARED, "variant": "svm",
            "support_x": [[1.0, 0.0], [0.0, 2.0]],
            "support_alpha": [0.5, 0.25],
            "support_y": [1, -1],
            "offset": 0.1},
    # center w = 2 (0.75 (1, 0) - 0.25 (0, 2)) = (1.5, -1), |w|^2 = 3.25
    "svdd": {**_SHARED, "variant": "svdd",
             "support_x": [[1.0, 0.0], [0.0, 2.0]],
             "support_alpha": [0.75, 0.25],
             "support_y": [1, -1],
             "r_squared": 2.0,
             "center_sq_norm": 3.25},
    "lr": {**_SHARED, "variant": "lr",
           "train_x": [[1.0, 0.0], [0.0, 2.0]],
           "beta": [0.5, -0.25],
           "offset": 0.2},
}

V1_CLASSES = {"svm": ScSvmModel, "svdd": ScSvddModel, "lr": ScLrModel}

_SHARED_KEYS = {"format_version", "variant", "eta", "tau", "kernel", "diagnostics"}
V1_FITTED_KEYS = {
    "svm": {"support_x", "support_alpha", "support_y", "offset"},
    "svdd": {"support_x", "support_alpha", "support_y", "r_squared", "center_sq_norm"},
    "lr": {"train_x", "beta", "offset"},
}

_CERTIFICATE = {"eps": 0.1, "delta": 0.01, "beta": 0.5, "r": 3, "n_c": 120,
                "n_U": 40, "rho_eps": 0.3, "region_kind": "scaled",
                "confidence": 0.995, "certified": True}

_POINTS = np.array([[0.0, 0.0], [1.0, -2.0], [-0.5, 0.75], [3.0, 1.0]])


def _closed_form(variant, x):
    x1, x2 = x[:, 0], x[:, 1]
    if variant == "svm":
        # -(0.5 * <x, (1, 0)>) + 0.25 * <x, (0, 2)> - 0.1
        return -0.5 * x1 + 0.5 * x2 - 0.1
    if variant == "svdd":
        return (x1 - 1.5) ** 2 + (x2 + 1.0) ** 2 - 2.0
    return 0.5 * x1 - 0.5 * x2 - 0.2


def _write(path, record):
    path.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
    return path


@pytest.mark.parametrize("variant", sorted(V1_RECORDS))
def test_v1_record_loads_with_its_dtypes_and_closed_form_margins(tmp_path, variant):
    record = V1_RECORDS[variant]
    model, certificate = load_model(_write(tmp_path / "m.json", record))
    assert certificate is None
    assert type(model) is V1_CLASSES[variant]
    assert model.kernel == KernelSpec(kind="linear")
    assert (model.hyperparameters.eta, model.hyperparameters.tau) == (0.5, 0.25)
    assert model.diagnostics.iterations == 7
    for name in V1_FITTED_KEYS[variant]:
        value = getattr(model, name)
        if isinstance(record[name], list):
            assert value.dtype == (np.int64 if name == "support_y" else np.float64), name
            assert value.tolist() == record[name]
        else:
            assert type(value) is float and value == record[name]
    expected = _closed_form(variant, _POINTS)
    np.testing.assert_allclose(model.margin(_POINTS), expected, rtol=1e-14, atol=1e-14)
    rho = 0.4
    decision = expected + rho
    if variant == "lr":
        decision = 1.0 / (1.0 + np.exp(-decision)) - 0.5
    np.testing.assert_allclose(model.decision_value(_POINTS, rho), decision,
                               rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("variant", sorted(V1_RECORDS))
def test_v1_record_saves_back_to_the_same_bytes(tmp_path, variant):
    record = {**V1_RECORDS[variant], "certificate": _CERTIFICATE}
    source = _write(tmp_path / "in.json", record)
    model, certificate = load_model(source)
    save_model(model, tmp_path / "out.json", certificate=certificate)
    assert (tmp_path / "out.json").read_bytes() == source.read_bytes()


def _trained(variant):
    spec = GaussianSpec(mu_safe=(-1.0, -1.0), mu_unsafe=(1.0, 1.0),
                        cov_safe=((1.0, 0.0), (0.0, 1.0)), cov_unsafe=((1.0, 0.0), (0.0, 1.0)))
    data = sample_gaussian(spec, 60, seed=8)
    trainer = {"svm": train_sc_svm, "svdd": train_sc_svdd, "lr": train_sc_lr}[variant]
    return trainer(data, Hyperparameters(eta=1.0, tau=0.5, kernel=KernelSpec(kind="gaussian")))


@pytest.mark.parametrize("variant", sorted(V1_RECORDS))
def test_trained_model_encodes_to_exactly_the_v1_keys(variant):
    record = model_to_record(_trained(variant))
    assert set(record) == _SHARED_KEYS | V1_FITTED_KEYS[variant]
    assert record["format_version"] == 1 and record["variant"] == variant
    assert set(record["kernel"]) == set(_SHARED["kernel"])
    assert set(record["diagnostics"]) == set(_SHARED["diagnostics"])
    for name in V1_FITTED_KEYS[variant]:
        assert type(record[name]) is type(V1_RECORDS[variant][name]), name
    json.dumps(record, allow_nan=False)


def _svdd_without_r_squared():
    record = copy.deepcopy(V1_RECORDS["svdd"])
    del record["r_squared"]
    return record


def _without_certificate_key():
    record = {**copy.deepcopy(V1_RECORDS["svm"]), "certificate": dict(_CERTIFICATE)}
    del record["certificate"]["n_U"]
    return record


def _edited(variant, **fields):
    return {**copy.deepcopy(V1_RECORDS[variant]), **fields}


def _with_certificate(**fields):
    return {**copy.deepcopy(V1_RECORDS["svm"]), "certificate": {**_CERTIFICATE, **fields}}


MALFORMED = {
    "missing_model_key": (_svdd_without_r_squared(), "r_squared"),
    "missing_diagnostics_key": (_edited("lr", diagnostics={"iterations": 1}), "residual"),
    "missing_certificate_key": (_without_certificate_key(), "n_U"),
    "beta_one_short": (_edited("lr", beta=[0.5]), "beta"),
    "labels_one_long": (_edited("svm", support_y=[1, -1, 1]), "support_y"),
    "flat_centers": (_edited("svdd", support_x=[1.0, 0.0, 0.0, 2.0]), "support_x"),
    "ragged_centers": (_edited("lr", train_x=[[1.0, 0.0], [0.0]]), "malformed"),
    "nan_beta": (_edited("lr", beta=[float("nan"), -0.25]), "beta"),
    "infinite_offset": (_edited("svm", offset=float("inf")), "offset"),
    "nan_radius": (_edited("svdd", r_squared=float("nan")), "r_squared"),
    "text_alpha": (_edited("svm", support_alpha=["a", "b"]), "support_alpha"),
    "list_offset": (_edited("lr", offset=[0.2]), "malformed"),
    "not_an_object": ([1, 2], "JSON object"),
    "unknown_version": (_edited("svm", format_version=2), "format version"),
    # a non-finite level would mark every point outside: a silently empty region
    "nan_rho_eps": (_with_certificate(rho_eps=float("nan")), "rho_eps"),
    "infinite_rho_eps": (_with_certificate(rho_eps=float("inf")), "rho_eps"),
    "nan_confidence": (_with_certificate(confidence=float("nan")), "confidence"),
    "confidence_above_one": (_with_certificate(confidence=5.0), "confidence"),
    "negative_n_U": (_with_certificate(n_U=-3), "n_U"),
    "n_U_above_n_c": (_with_certificate(n_U=121), "n_U"),
    "text_certified": (_with_certificate(certified="false"), "certified"),
    # plan fields once loaded as r=3 and as the string "0.1"
    "fractional_r": (_with_certificate(r=3.7), "r must be an integer"),
    "text_eps": (_with_certificate(eps="0.1"), "eps must be a real number"),
    "boolean_n_c": (_with_certificate(n_c=True), "n_c must be an integer"),
    # once loaded as gamma=None and as degree 2
    "misspelt_kernel_key": (_edited("lr", kernel={**_SHARED["kernel"], "gama": 0.5}), "gama"),
    "fractional_degree": (_edited("svm", kernel={**_SHARED["kernel"], "degree": 2.5}),
                          "degree must be an integer"),
    # once loaded as coef0=1.0; an infinite gamma or eta trained NaN margins
    "boolean_coef0": (_edited("svm", kernel={**_SHARED["kernel"], "coef0": True}),
                      "kernel coef0 must be a finite real number"),
    "infinite_gamma": (_edited("lr", kernel={**_SHARED["kernel"], "gamma": float("inf")}),
                       "kernel gamma must be a finite real number"),
    "infinite_eta": (_edited("svdd", eta=float("inf")), "eta must be a finite real number"),
    # once loaded as eta 0.5, as converged=True and as 2 iterations
    "text_eta": (_edited("svm", eta="0.5"), "eta must be a finite real number"),
    "text_converged": (_edited("lr", diagnostics={**_SHARED["diagnostics"], "converged": "no"}),
                       "converged must be true or false"),
    "fractional_iterations": (_edited("svdd", diagnostics={**_SHARED["diagnostics"],
                                                           "iterations": 2.7}),
                              "iterations must be an integer"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_model_file_is_rejected_naming_the_file(tmp_path, case):
    record, reason = MALFORMED[case]
    path = _write(tmp_path / f"{case}.json", record)
    with pytest.raises(InvalidArgument, match=reason) as info:
        load_model(path)
    assert str(path) in str(info.value)


def test_truncated_model_file_is_rejected_naming_the_file(tmp_path):
    path = tmp_path / "truncated.json"
    path.write_text(json.dumps(V1_RECORDS["lr"], sort_keys=True, indent=1)[:50])
    with pytest.raises(InvalidArgument, match="JSON") as info:
        load_model(path)
    assert str(path) in str(info.value)


def _run_directory(tmp_path):
    """A one-model run directory; returns the path of its model file."""
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "seed": 21,
        "output_dir": str(tmp_path / "out"),
        "data": {"generator": "gaussian", "n_train": 120, "n_test": 300},
        "classifier": {"variants": ["lr"], "etas": [1.0], "taus": [0.5],
                       "kernels": [{"kind": "linear"}]},
        "risk": {"eps": [0.1], "delta": 0.01, "beta": 0.5},
    }))
    assert main(["run", "--config", str(config)]) == 0
    return tmp_path / "out" / "models" / "lr_eps_0.1.json"


def _evaluate_error(tmp_path, capsys):
    """The single ``error:`` line ``saferegions evaluate`` exits 1 with."""
    capsys.readouterr()
    assert main(["evaluate", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


def test_cli_evaluate_reports_a_malformed_model_file(tmp_path, capsys):
    path = _run_directory(tmp_path)
    record = json.loads(path.read_text())
    record["beta"] = record["beta"][:-1]
    path.write_text(json.dumps(record))

    err = _evaluate_error(tmp_path, capsys)
    assert str(path) in err and "beta" in err


def test_cli_evaluate_reports_a_nan_certificate_level(tmp_path, capsys):
    path = _run_directory(tmp_path)
    record = json.loads(path.read_text())
    record["certificate"]["rho_eps"] = float("nan")
    path.write_text(json.dumps(record))

    err = _evaluate_error(tmp_path, capsys)
    assert str(path) in err and "rho_eps" in err
