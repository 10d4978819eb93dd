"""Dataset container, Gaussian sampling, CSV round-trips, and standardization."""

from __future__ import annotations

import re

import numpy as np
import pytest

from saferegions import (
    Dataset,
    GaussianSpec,
    InvalidArgument,
    fit_standardizer,
    sample_gaussian,
    standardize,
)
from saferegions.datagen import write_csv

_SPEC = GaussianSpec(mu_safe=(-2.0, 0.0), mu_unsafe=(2.0, 0.0),
                     cov_safe=((1.0, 0.0), (0.0, 1.0)),
                     cov_unsafe=((1.0, 0.3), (0.3, 1.0)))


def test_dataset_validation():
    with pytest.raises(InvalidArgument):
        Dataset(np.zeros(4), np.ones(4, dtype=int))          # 1-D points
    with pytest.raises(InvalidArgument):
        Dataset(np.zeros((4, 2)), np.ones(3, dtype=int))     # length mismatch
    with pytest.raises(InvalidArgument):
        Dataset(np.zeros((2, 2)), np.array([0, 1]))          # labels not +-1
    empty = Dataset(np.empty((0, 3)), np.empty(0, dtype=int))
    assert empty.n_samples == 0 and empty.dim == 3


def test_dataset_rejects_non_finite_points():
    for bad in (float("nan"), float("inf"), float("-inf")):
        x = np.zeros((3, 2))
        x[1, 0] = bad
        with pytest.raises(InvalidArgument, match="1 non-finite"):
            Dataset(x, np.ones(3, dtype=int))


def test_dataset_class_views_and_subset():
    data = Dataset([[0.0], [1.0], [2.0], [3.0]], [1, -1, 1, -1], {"tag": "t"})
    sub = data.subset([3, 0])
    assert np.array_equal(sub.x[:, 0], [3.0, 0.0])
    assert sub.provenance == {"tag": "t"}
    # subsets own their memory
    sub.x[0, 0] = 99.0
    assert data.x[3, 0] == 3.0


def test_gaussian_spec_validation():
    base = dict(mu_safe=(0.0,), mu_unsafe=(1.0,), cov_safe=((1.0,),), cov_unsafe=((1.0,),))
    with pytest.raises(InvalidArgument):
        GaussianSpec(**{**base, "safe_prob": 1.0})
    with pytest.raises(InvalidArgument):
        GaussianSpec(**{**base, "outlier_prob": 0.5})
    with pytest.raises(InvalidArgument):
        GaussianSpec(mu_safe=(0.0, 0.0), mu_unsafe=(1.0,),
                     cov_safe=((1.0,),), cov_unsafe=((1.0,),))
    with pytest.raises(InvalidArgument):
        GaussianSpec(mu_safe=(0.0, 0.0), mu_unsafe=(1.0, 1.0),
                     cov_safe=((1.0, 0.2), (0.3, 1.0)),       # asymmetric
                     cov_unsafe=((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(InvalidArgument):
        GaussianSpec(mu_safe=(0.0, 0.0), mu_unsafe=(1.0, 1.0),
                     cov_safe=((1.0, 2.0), (2.0, 1.0)),       # indefinite
                     cov_unsafe=((1.0, 0.0), (0.0, 1.0)))


def test_sampling_is_deterministic_per_seed():
    a = sample_gaussian(_SPEC, 200, seed=7)
    b = sample_gaussian(_SPEC, 200, seed=7)
    c = sample_gaussian(_SPEC, 200, seed=8)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.x, c.x)
    with pytest.raises(InvalidArgument):
        sample_gaussian(_SPEC, -1, seed=0)
    assert sample_gaussian(_SPEC, 0, seed=0).n_samples == 0


def test_sampling_statistics():
    data = sample_gaussian(_SPEC, 4000, seed=3)
    safe_frac = float((data.y == 1).mean())
    assert abs(safe_frac - 0.5) < 0.04
    safe_mean = data.x[data.y == 1].mean(axis=0)
    unsafe_mean = data.x[data.y == -1].mean(axis=0)
    assert np.allclose(safe_mean, [-2.0, 0.0], atol=0.15)
    assert np.allclose(unsafe_mean, [2.0, 0.0], atol=0.15)
    assert data.provenance["generator"] == "gaussian"
    assert data.provenance["seed"] == 3


def test_outlier_fraction_matches_requested_rate():
    spec = GaussianSpec(mu_safe=(-5.0,), mu_unsafe=(5.0,),
                        cov_safe=((1.0,),), cov_unsafe=((1.0,),),
                        outlier_prob=0.2)
    data = sample_gaussian(spec, 5000, seed=9)
    safe_pts = data.x[data.y == 1][:, 0]
    # means are 10 sigma apart, so side of the origin identifies the source
    crossed = float((safe_pts > 0.0).mean())
    assert abs(crossed - 0.2) < 0.04
    clean = sample_gaussian(_SPEC, 2000, seed=9)
    near_wrong = float((clean.x[clean.y == 1][:, 0] > 2.0).mean())
    assert near_wrong < 0.05


def test_csv_round_trip_is_exact(tmp_path):
    data = sample_gaussian(_SPEC, 37, seed=2)
    path = tmp_path / "points.csv"
    data.to_csv(path)
    back = Dataset.from_csv(path)
    assert np.array_equal(back.x, data.x)
    assert np.array_equal(back.y, data.y)
    # provenance survives through the sidecar
    assert back.provenance["generator"] == "gaussian"
    assert back.provenance["seed"] == 2
    assert back.provenance["source"] == str(path)


def test_to_csv_writes_lf_lines_through_the_shared_writer(tmp_path):
    data = Dataset(x=[[0.1, 2.0], [-1.5, 3.25]], y=[1, -1])
    data.to_csv(tmp_path / "data.csv")
    write_csv(tmp_path / "rows.csv", ["f0", "f1", "label"], [[0.1, 2.0, 1], [-1.5, 3.25, -1]])
    written = (tmp_path / "data.csv").read_bytes()
    assert written == b"f0,f1,label\n0.1,2.0,1\n-1.5,3.25,-1\n"
    assert written == (tmp_path / "rows.csv").read_bytes()
    back = Dataset.from_csv(tmp_path / "data.csv")
    assert np.array_equal(back.x, data.x) and np.array_equal(back.y, data.y)


def test_csv_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(InvalidArgument):
        Dataset.from_csv(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("f0,label\n1.0,1\n2.0\n")
    with pytest.raises(InvalidArgument):
        Dataset.from_csv(ragged)


@pytest.mark.parametrize("line, fragment", [
    ("0.5,1.7", "label must be 1 or -1, got '1.7'"),      # once loaded as +1
    ("0.5,-1.9", "label must be 1 or -1, got '-1.9'"),    # once loaded as -1
    ("0.5,0", "label must be 1 or -1, got '0'"),
    ("0.5,nan", "label must be 1 or -1, got 'nan'"),      # once a bare ValueError
    ("0.5,inf", "label must be 1 or -1, got 'inf'"),      # once an OverflowError
    ("0.5,safe", "could not convert"),
    ("abc,1", "could not convert"),
    ("0.5", "row with 1 fields"),
], ids=["fraction", "negative_fraction", "zero", "nan", "inf", "text_label", "text_point",
        "ragged"])
def test_csv_names_the_file_and_line_of_a_bad_cell(tmp_path, line, fragment):
    path = tmp_path / "cells.csv"
    path.write_text(f"f0,label\n1.0,1\n2.0,-1.0\n{line}\n")
    with pytest.raises(InvalidArgument, match=re.escape(f"{path}, line 4: {fragment}")):
        Dataset.from_csv(path)


def test_csv_with_a_malformed_sidecar_names_the_sidecar(tmp_path):
    # once a yaml.YAMLError traceback
    path = tmp_path / "points.csv"
    Dataset(x=[[0.1], [0.2]], y=[1, -1]).to_csv(path)
    sidecar = tmp_path / "points.csv.meta.yaml"
    sidecar.write_text("generator: [gaussian\n")
    with pytest.raises(InvalidArgument, match=re.escape(f"{sidecar}, line 2")) as info:
        Dataset.from_csv(path)
    assert "not valid YAML" in str(info.value)


def test_csv_labels_written_as_floats_load_as_integers(tmp_path):
    path = tmp_path / "floats.csv"
    path.write_text("f0,label\n1.0,1.0\n2.0,-1.0\n3.0,1e0\n")
    back = Dataset.from_csv(path)
    assert back.y.tolist() == [1, -1, 1]


def test_standardizer_centers_and_scales():
    data = sample_gaussian(_SPEC, 300, seed=31)
    other = sample_gaussian(_SPEC, 50, seed=32)
    (train_z, other_z), _ = standardize(data, other)
    assert np.allclose(train_z.x.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(train_z.x.std(axis=0), 1.0, atol=1e-12)
    assert train_z.provenance["standardized"] is True
    # the other split uses the training statistics, not its own
    assert np.allclose(other_z.x, (other.x - data.x.mean(axis=0)) / data.x.std(axis=0))


def test_standardizer_degenerate_feature():
    x = np.column_stack([np.arange(5.0), np.full(5, 3.25)])
    data = Dataset(x, np.ones(5, dtype=int))
    scaler = fit_standardizer(data)
    z = scaler.apply(x)
    assert (z[:, 1] == 0.0).all()
    with pytest.raises(InvalidArgument):
        fit_standardizer(Dataset(np.empty((0, 2)), np.empty(0, dtype=int)))
