"""Config parsing: strict keys, defaults, YAML round-trips."""

import re

import numpy as np
import pytest
import yaml

from saferegions import (
    ClassifierConfig,
    DataConfig,
    ExperimentConfig,
    GaussianSpec,
    GridConfig,
    Hyperparameters,
    InvalidArgument,
    KernelSpec,
    RiskConfig,
    TrainSettings,
    load_config,
    run_experiment,
)


def _minimal_raw():
    return {
        "seed": 5,
        "output_dir": "out",
        "data": {"generator": "gaussian", "n_train": 50, "n_test": 100},
        "classifier": {"variants": ["svm"], "etas": [1.0], "taus": [0.5],
                       "kernels": [{"kind": "linear"}]},
        "risk": {"eps": [0.1], "delta": 0.01},
    }


def test_defaults_fill_in():
    config = ExperimentConfig.from_mapping(_minimal_raw())
    assert config.seed == 5
    assert config.data.standardize is True
    assert config.data.gaussian is not None
    assert config.risk.beta == 0.5
    assert config.risk.n_c is None
    assert config.grid.resolution == 50
    assert config.classifier.tol == pytest.approx(1e-6)


def test_unknown_keys_rejected_at_every_level():
    for mutate in [
        lambda raw: raw.update(bogus=1),
        lambda raw: raw["data"].update(bogus=1),
        lambda raw: raw["classifier"].update(bogus=1),
        lambda raw: raw["risk"].update(bogus=1),
        lambda raw: raw.update(grid={"bogus": 1}),
        lambda raw: raw["data"].update(gaussian={"bogus": 1}),
        # a section its generator does not read was once dropped or kept unchecked
        lambda raw: raw["data"].update(generator="platoon", gaussian={"safe_prob": 0.5}),
        lambda raw: raw["data"].update(paths={"bogus": 1}),
    ]:
        raw = _minimal_raw()
        mutate(raw)
        with pytest.raises(InvalidArgument, match="unknown config key"):
            ExperimentConfig.from_mapping(raw)


def test_family_is_eta_major_cross_product():
    config = ClassifierConfig.from_mapping({
        "variants": "svm", "etas": [0.1, 1.0], "taus": [0.3, 0.7],
        "kernels": [{"kind": "linear"}]})
    family = config.family()
    assert [(hp.eta, hp.tau) for hp in family] == [
        (0.1, 0.3), (0.1, 0.7), (1.0, 0.3), (1.0, 0.7)]
    assert config.variants == ("svm",)


def test_bad_values_rejected():
    with pytest.raises(InvalidArgument):
        ClassifierConfig.from_mapping({"variants": ["forest"]})
    with pytest.raises(InvalidArgument):
        ClassifierConfig.from_mapping({"variants": ["svm", "svm"]})
    with pytest.raises(InvalidArgument):
        RiskConfig.from_mapping({"eps": []})
    with pytest.raises(InvalidArgument):
        RiskConfig.from_mapping({"eps": [0.1, 0.1]})
    with pytest.raises(InvalidArgument):
        RiskConfig.from_mapping({"eps": [0.0]})
    with pytest.raises(InvalidArgument):
        DataConfig.from_mapping({"generator": "nope"})
    with pytest.raises(InvalidArgument, match="paths"):
        DataConfig.from_mapping({"generator": "csv"})
    with pytest.raises(InvalidArgument):
        DataConfig.from_mapping({"generator": "gaussian", "n_train": -1})


def test_csv_sizes_rejected_and_csv_configs_resolve_unchanged(tmp_path):
    path = tmp_path / "csv.yaml"
    path.write_text("data: {generator: csv, n_test: 5, paths: "
                    "{train: a.csv, calib: b.csv, test: c.csv}}\n")
    with pytest.raises(InvalidArgument, match=re.escape(
            "unknown config keys in data for the csv generator: ['n_test']")):
        load_config(path)
    config = DataConfig.from_mapping({"generator": "csv", "paths": _CSV_PATHS})
    assert config.to_mapping() == {"generator": "csv", "standardize": True,
                                   "paths": _CSV_PATHS}
    assert DataConfig.from_mapping(config.to_mapping()) == config


def test_zero_rows_allowed_for_generators():
    config = DataConfig.from_mapping({"generator": "gaussian", "n_train": 0,
                                      "n_test": 0})
    assert config.n_train == 0 and config.n_test == 0


def test_yaml_round_trip(tmp_path):
    raw = _minimal_raw()
    raw["data"]["gaussian"] = {"mu_safe": [0.0, 2.0], "mu_unsafe": [1.0, -1.0]}
    raw["grid"] = {"resolution": 7, "bbox": [-1.0, 1.0, -2.0, 2.0]}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    config = load_config(path)
    assert config.data.gaussian.mu_safe == (0.0, 2.0)
    assert config.grid.bbox == (-1.0, 1.0, -2.0, 2.0)

    # to_mapping -> from_mapping is the identity on the resolved form
    resolved = config.to_mapping()
    again = ExperimentConfig.from_mapping(resolved)
    assert again.to_mapping() == resolved


def test_platoon_config_round_trip():
    raw = _minimal_raw()
    raw["data"] = {"generator": "platoon", "n_train": 40, "n_test": 60,
                   "platoon": {"gap": [5.0, 6.0]}}
    config = ExperimentConfig.from_mapping(raw)
    assert config.data.platoon.gap == (5.0, 6.0)
    assert config.data.platoon.n_followers == (3, 8)
    again = ExperimentConfig.from_mapping(config.to_mapping())
    assert again.to_mapping() == config.to_mapping()


def test_load_config_errors(tmp_path):
    with pytest.raises(InvalidArgument, match="not found"):
        load_config(tmp_path / "missing.yaml")
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(InvalidArgument):
        load_config(path)


def test_negative_seed_rejected_from_file_and_keyword(tmp_path):
    # it once loaded, and the first seed derivation ended in numpy's ValueError
    path = tmp_path / "negative.yaml"
    path.write_text(yaml.safe_dump({**_minimal_raw(), "seed": -1}))
    with pytest.raises(InvalidArgument, match="seed must be non-negative"):
        load_config(path)
    with pytest.raises(InvalidArgument, match="seed must be non-negative"):
        ExperimentConfig(seed=-1)
    assert ExperimentConfig(seed=0).seed == 0


def test_uncertifiable_risk_still_parses():
    # certifiability is checked by the pipeline, not the parser, so an
    # explicit small n_c must parse cleanly
    raw = _minimal_raw()
    raw["risk"]["n_c"] = 10
    config = ExperimentConfig.from_mapping(raw)
    assert config.risk.n_c == 10


def _outcome(build):
    try:
        return build().to_mapping()
    except InvalidArgument as exc:
        return f"InvalidArgument: {exc}"


_CSV_PATHS = {"train": "a.csv", "calib": "b.csv", "test": "c.csv"}


@pytest.mark.parametrize("section, raw, message", [
    # the constructor once accepted the first five and failed on the next two
    # with a TypeError and an AttributeError
    (DataConfig, {"standardize": "false"}, "data.standardize must be true or false"),
    (RiskConfig, {"eps": [0.05, 0.05]}, "risk.eps contains duplicates"),
    (ClassifierConfig, {"etas": [1.0, 1.0]}, "classifier.etas contains duplicates"),
    (ClassifierConfig, {"tol": -1.0}, "classifier.tol must be positive"),
    (ClassifierConfig, {"max_iter": 0}, "classifier.max_iter must be positive"),
    (RiskConfig, {"eps": 0.05}, None),
    (DataConfig, {"generator": "csv", "paths": 5}, "data.paths must be a mapping"),
    (DataConfig, {"gaussian": {"safe_prob": "0.5"}},
     "data.gaussian.safe_prob must be a finite real number"),
    (DataConfig, {"generator": "platoon", "platoon": {"gap": [5.0, 4.0]}},
     "range gap must have lo <= hi"),
    (DataConfig, {"generator": "platoon", "gaussian": {}},
     "unknown config keys in data for the platoon generator: ['gaussian']"),
    (DataConfig, {"generator": "csv", "paths": {"train": "a.csv", "calib": 5}},
     "csv generator needs file paths for ['calib', 'test']"),
    # once loaded, with the size silently dropped
    (DataConfig, {"generator": "csv", "n_train": 5, "n_test": 7, "paths": _CSV_PATHS},
     "unknown config keys in data for the csv generator: ['n_train', 'n_test']"),
    (ClassifierConfig, {"variants": "lr"}, None),
    (ClassifierConfig, {"variants": []}, "classifier.variants must be a non-empty list"),
    (ClassifierConfig, {"kernels": [{"kind": "linear"}, {"kind": "linear"}]},
     "classifier.kernels contains duplicates"),
    (ClassifierConfig, {"kernels": ["linear"]}, "classifier.kernels[] must be a mapping"),
    (GridConfig, {"bbox": [1.0, 0.0, 0.0, 1.0]}, "grid.bbox must satisfy min < max"),
    (ExperimentConfig, {"seed": "1"}, "seed must be an integer"),
    (ExperimentConfig, {"risk": {"eps": 0.05, "n_c": 0}}, "risk.n_c must be positive"),
], ids=["text_standardize", "duplicate_eps", "duplicate_etas", "negative_tol", "zero_max_iter",
        "scalar_eps", "scalar_paths", "text_safe_prob", "reversed_gap", "unread_section",
        "bad_paths", "csv_sizes", "text_variant", "no_variants", "duplicate_kernels", "text_kernel",
        "reversed_bbox", "text_seed", "zero_n_c"])
def test_parser_and_constructor_agree(section, raw, message):
    # a value means the same, and fails the same way, from YAML or from Python
    parsed = _outcome(lambda: section.from_mapping(raw))
    assert parsed == _outcome(lambda: section(**raw))
    assert isinstance(parsed, dict) if message is None else message in parsed


def test_kernel_specs_parse_with_parameters():
    config = ClassifierConfig.from_mapping({
        "variants": ["svdd"], "etas": [1.0], "taus": [0.5],
        "kernels": [{"kind": "gaussian", "gamma": 0.25},
                    {"kind": "polynomial", "degree": 3, "coef0": 1.0}]})
    labels = [hp.kernel.label() for hp in config.family()]
    assert labels == ["gaussian(gamma=0.25)", "polynomial(degree=3,coef0=1)"]


_INTEGER_KEYS = ["data.n_train", "data.n_test", "seed", "classifier.max_iter", "risk.n_c",
                 "grid.resolution"]


def _with_key(key, value):
    raw = _minimal_raw()
    *parents, leaf = key.split(".")
    node = raw
    for name in parents:
        node = node.setdefault(name, {})
    node[leaf] = value
    return raw


@pytest.mark.parametrize("key", _INTEGER_KEYS)
@pytest.mark.parametrize("value", [1394.7, True, "12"], ids=["fraction", "boolean", "text"])
def test_integer_keys_reject_non_integers(key, value):
    # 1394.7 once ran as 1394 and true as 1
    with pytest.raises(InvalidArgument, match=re.escape(f"{key} must be an integer")):
        ExperimentConfig.from_mapping(_with_key(key, value))


@pytest.mark.parametrize("key", _INTEGER_KEYS)
def test_integer_keys_accept_integral_floats(key):
    resolved = ExperimentConfig.from_mapping(_with_key(key, 12.0)).to_mapping()
    node = resolved
    for name in key.split("."):
        node = node[name]
    assert node == 12 and type(node) is int


@pytest.mark.parametrize("build, key", [
    (lambda: KernelSpec(kind="polynomial", degree=True), "kernel degree"),
    (lambda: GridConfig(resolution=2.5), "grid.resolution"),
    (lambda: RiskConfig(n_c=2.5), "risk.n_c"),
    (lambda: DataConfig(n_train=2.5), "data.n_train"),
    (lambda: ClassifierConfig(max_iter=2.5), "classifier.max_iter"),
    (lambda: ExperimentConfig(seed=2.5), "seed"),
], ids=["boolean_degree", "fractional_resolution", "fractional_n_c", "fractional_n_train",
        "fractional_max_iter", "fractional_seed"])
def test_constructors_reject_non_integers(build, key):
    # each once loaded through int(), as degree 1, resolution 2, n_c 2 and n_train 2
    with pytest.raises(InvalidArgument, match=re.escape(f"{key} must be an integer")):
        build()


@pytest.mark.parametrize("build, key", [
    (lambda: GridConfig(margin="0.5"), "grid.margin"),
    (lambda: GridConfig(bbox=("a", 1.0, 2.0, 3.0)), "grid.bbox"),
    (lambda: ClassifierConfig(tol="x"), "classifier.tol"),
    (lambda: GaussianSpec((0.0, 0.0), (1.0, 1.0), ((1.0, 0.0), (0.0, 1.0)),
                          ((1.0, 0.0), (0.0, 1.0)), safe_prob="0.5"), "safe_prob"),
    (lambda: DataConfig(gaussian={"outlier_prob": "0"}), "data.gaussian.outlier_prob"),
    (lambda: RiskConfig(eps="0.05"), "risk.eps"),
    (lambda: RiskConfig(delta="0.01"), "risk.delta"),
    (lambda: ClassifierConfig(etas=("1.0",)), "classifier.etas"),
    (lambda: KernelSpec(gamma="0.5"), "kernel gamma"),
    (lambda: GridConfig(margin=10**400), "grid.margin"),
], ids=["text_margin", "text_bbox", "text_tol", "text_safe_prob", "text_outlier_prob",
        "text_eps", "text_delta", "text_eta", "text_gamma", "huge_margin"])
def test_constructors_reject_values_that_are_not_real_numbers(build, key):
    # the margin and the safe_prob once ended in a TypeError, the bbox in a
    # bare ValueError, and the tol was stored as given; the eps, delta and
    # eta once failed without naming their key
    with pytest.raises(InvalidArgument, match=re.escape(f"{key} must be a finite real number")):
        build()


def test_default_gaussian_data_config_carries_the_default_spec(tmp_path):
    # a gaussian DataConfig built without a spec once held None, and a run
    # of it ended in an AttributeError
    assert DataConfig().gaussian == ExperimentConfig.from_mapping({}).data.gaussian == GaussianSpec()
    config = ExperimentConfig(data=DataConfig(n_train=60, n_test=50),
                              risk=RiskConfig(eps=(0.2,), delta=0.05),
                              output_dir=str(tmp_path / "out"))
    result = run_experiment(config, write=False)
    assert result.train_original.n_samples == 60


def test_kernel_entries_reject_unknown_keys_and_fractional_degrees():
    with pytest.raises(InvalidArgument, match="gama"):
        ClassifierConfig.from_mapping({"kernels": [{"kind": "gaussian", "gama": 0.5}]})
    with pytest.raises(InvalidArgument, match="degree must be an integer"):
        ClassifierConfig.from_mapping({"kernels": [{"kind": "polynomial", "degree": 2.5}]})


# (key, valid value to wrap): a scalar key, or a list key checked per element
_REAL_KEYS = [
    ("classifier.etas", [1.0]),
    ("classifier.taus", [0.5]),
    ("classifier.tol", 1e-6),
    ("risk.eps", [0.1]),
    ("risk.delta", 0.01),
    ("risk.beta", 0.5),
    ("grid.margin", 0.5),
    ("grid.bbox", [-1.0, 1.0, -2.0, 2.0]),
    ("data.gaussian.safe_prob", 0.5),
    ("data.gaussian.outlier_prob", 0.0),
]


def _spoiled(valid, bad):
    return [bad] + list(valid[1:]) if isinstance(valid, list) else bad


@pytest.mark.parametrize("key, valid", _REAL_KEYS, ids=[k for k, _ in _REAL_KEYS])
@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), True, "0.5"],
                         ids=["inf", "minus_inf", "nan", "boolean", "text"])
def test_real_keys_reject_non_finite_and_non_numeric_values(key, valid, bad):
    # "0.5" and true once parsed through float(); a tol of inf once stopped
    # the logistic trainer at beta = 0, a certified but empty region
    with pytest.raises(InvalidArgument, match=re.escape(f"{key} must be a finite real number")):
        ExperimentConfig.from_mapping(_with_key(key, _spoiled(valid, bad)))


@pytest.mark.parametrize("name", ["gamma", "coef0"])
@pytest.mark.parametrize("bad", [float("inf"), float("nan"), True, "0.5"],
                         ids=["inf", "nan", "boolean", "text"])
def test_kernel_entries_reject_non_finite_and_non_numeric_reals(name, bad):
    # a gamma of inf once trained models whose margins were all NaN
    with pytest.raises(InvalidArgument, match=f"kernel {name} must be a finite real number"):
        ClassifierConfig.from_mapping({"kernels": [{"kind": "polynomial", name: bad}]})


@pytest.mark.parametrize("make", [
    lambda bad: KernelSpec(kind="gaussian", gamma=bad),
    lambda bad: KernelSpec(kind="polynomial", coef0=bad),
    lambda bad: Hyperparameters(eta=bad),
    lambda bad: TrainSettings(tol=bad),
], ids=["gamma", "coef0", "eta", "tol"])
@pytest.mark.parametrize("bad", [float("inf"), float("nan"), np.float32("inf")],
                         ids=["inf", "nan", "float32_inf"])
def test_training_values_reject_non_finite_values(make, bad):
    # a float32 value once raised numpy's overflow warning instead
    with pytest.raises(InvalidArgument, match="must be a finite real number"):
        make(bad)


@pytest.mark.parametrize("bad", ["5", 2.5, True], ids=["text", "fraction", "boolean"])
def test_train_settings_max_iter_must_be_an_integer(bad):
    # it was once stored as given
    with pytest.raises(InvalidArgument, match="max_iter must be an integer"):
        TrainSettings(max_iter=bad)


def test_train_settings_max_iter_stores_an_int():
    settings = TrainSettings(max_iter=5.0)
    assert settings.max_iter == 5 and type(settings.max_iter) is int


@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_standardize_must_be_a_boolean(value):
    # bool("false") is True, so the string once switched standardizing on
    with pytest.raises(InvalidArgument, match="data.standardize must be true or false"):
        ExperimentConfig.from_mapping(_with_key("data.standardize", value))
    with pytest.raises(InvalidArgument, match="data.standardize must be true or false"):
        DataConfig(standardize=value)


def test_exponent_floats_without_a_dot_load_as_floats(tmp_path):
    # YAML 1.1 reads 1e-6 as a string, which the real-valued keys reject;
    # JSON configs write small deltas that way
    path = tmp_path / "config.yaml"
    path.write_text('{"risk": {"eps": [5e-02], "delta": 1e-06}, "grid": {"margin": 1E+0}}\n')
    config = load_config(path)
    assert (config.risk.eps, config.risk.delta, config.grid.margin) == ((0.05,), 1e-06, 1.0)
    path.write_text('risk: {delta: "1e-6"}\n')
    with pytest.raises(InvalidArgument, match="risk.delta must be a finite real number"):
        load_config(path)


@pytest.mark.parametrize("key, text", [
    ("mu_safe", "[a, 1.0]"),
    ("mu_safe", "['0.5', 1.0]"),
    ("mu_unsafe", "[.inf, 1.0]"),
    ("mu_unsafe", "[1.0, true]"),
    ("cov_safe", "[[1.0, 0.0], [0.0, .nan]]"),
    ("cov_unsafe", "[[1.0, '0'], [0.0, 1.0]]"),
], ids=["name", "text", "inf", "boolean", "cov_nan", "cov_text"])
def test_gaussian_means_and_covariances_reject_non_numbers(tmp_path, key, text):
    # a name once ended in a bare ValueError, strings loaded, and .inf was
    # caught only when sampling, without naming the key
    path = tmp_path / "config.yaml"
    path.write_text(f"data: {{gaussian: {{{key}: {text}}}}}\n")
    with pytest.raises(InvalidArgument, match=f"{key} must be a finite real number"):
        load_config(path)


@pytest.mark.parametrize("key, value, what", [
    ("mu_safe", 1.0, "a list of numbers"),
    ("cov_safe", 1.0, "a list of rows"),
    ("cov_unsafe", [1.0, 0.0], "a list of numbers"),
])
def test_gaussian_means_and_covariances_must_be_lists(key, value, what):
    with pytest.raises(InvalidArgument, match=f"{key} must be {what}"):
        ExperimentConfig.from_mapping({"data": {"gaussian": {key: value}}})
