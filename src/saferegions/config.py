"""Experiment configuration loaded from a nested YAML file.

Every field is validated up front, before any data generation or training
starts, so a bad config fails in milliseconds.  Unknown keys are rejected to
catch typos.  The resolved form (all defaults materialized) is written next
to the outputs of every run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import yaml

from .classifiers import Hyperparameters, TrainSettings
from .datagen import GaussianSpec
from .errors import InvalidArgument
from .families import TRAINERS
from .kernels import KernelSpec
from .platoon import PlatoonRanges
from .scaling import min_calibration_size
from .validation import checked_int, checked_real

__all__ = [
    "DataConfig",
    "ClassifierConfig",
    "RiskConfig",
    "GridConfig",
    "ExperimentConfig",
    "load_config",
]

_GENERATORS = ("gaussian", "platoon", "csv")

# The two-unit-Gaussian benchmark: well separated classes on the diagonal.
_DEFAULT_GAUSSIAN = {
    "mu_safe": [-1.0, -1.0],
    "mu_unsafe": [1.0, 1.0],
    "cov_safe": [[1.0, 0.0], [0.0, 1.0]],
    "cov_unsafe": [[1.0, 0.0], [0.0, 1.0]],
    "safe_prob": 0.5,
    "outlier_prob": 0.0,
}


def _take(mapping: dict, context: str, **defaults):
    """Pop known keys with defaults; leftover keys are a config error."""
    out = {}
    mapping = dict(mapping)
    for key, default in defaults.items():
        out[key] = mapping.pop(key, default)
    if mapping:
        raise InvalidArgument(f"unknown config keys in {context}: {sorted(mapping)}")
    return out


def _mapping(value, context: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise InvalidArgument(f"{context} must be a mapping, got {type(value).__name__}")
    return value


def _float_list(value, context: str, distinct: bool = True) -> tuple:
    """A non-empty list of finite reals, as floats, distinct unless told not."""
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise InvalidArgument(f"{context} must be a non-empty list")
    out = tuple(checked_real(v, context) for v in value)
    if distinct and len(set(out)) != len(out):
        raise InvalidArgument(f"{context} contains duplicates: {list(out)}")
    return out


@dataclass(frozen=True)
class DataConfig:
    """Where the train/calibration/test splits come from."""

    generator: str = "gaussian"
    n_train: int = 1000
    n_test: int = 10000
    standardize: bool = True
    gaussian: GaussianSpec | None = None
    platoon: PlatoonRanges | None = None
    paths: dict | None = None     # csv generator: train/calib/test file paths

    def __post_init__(self):
        if self.generator not in _GENERATORS:
            raise InvalidArgument(
                f"unknown generator {self.generator!r}, expected one of {_GENERATORS}")
        for name in ("n_train", "n_test"):
            object.__setattr__(self, name, checked_int(getattr(self, name), f"data.{name}"))
            # 0 is allowed so `generate` can emit header-only files
            if self.generator != "csv" and getattr(self, name) < 0:
                raise InvalidArgument(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.generator == "csv":
            paths = self.paths or {}
            missing = [k for k in ("train", "calib", "test") if not paths.get(k)]
            if missing:
                raise InvalidArgument(f"csv generator needs paths for {missing}")

    @classmethod
    def from_mapping(cls, raw) -> "DataConfig":
        raw = _mapping(raw, "data")
        fields = _take(raw, "data", generator="gaussian", n_train=1000, n_test=10000,
                       standardize=True, gaussian=None, platoon=None, paths=None)
        generator = fields["generator"]
        gaussian = platoon = None
        if generator == "gaussian":
            spec = {**_DEFAULT_GAUSSIAN, **_mapping(fields["gaussian"], "data.gaussian")}
            spec = _take(spec, "data.gaussian", **_DEFAULT_GAUSSIAN)
            gaussian = GaussianSpec(
                mu_safe=spec["mu_safe"], mu_unsafe=spec["mu_unsafe"],
                cov_safe=spec["cov_safe"], cov_unsafe=spec["cov_unsafe"],
                safe_prob=checked_real(spec["safe_prob"], "data.gaussian.safe_prob"),
                outlier_prob=checked_real(spec["outlier_prob"], "data.gaussian.outlier_prob"))
        elif generator == "platoon":
            spec = _take(_mapping(fields["platoon"], "data.platoon"), "data.platoon",
                         **PlatoonRanges().to_record())
            platoon = PlatoonRanges(**spec)
        if not isinstance(fields["standardize"], bool):
            raise InvalidArgument(
                f"data.standardize must be true or false, got {fields['standardize']!r}")
        paths = fields["paths"]
        if generator == "csv":
            paths = _take(_mapping(paths, "data.paths"), "data.paths",
                          train=None, calib=None, test=None)
        return cls(generator=generator, n_train=fields["n_train"], n_test=fields["n_test"],
                   standardize=fields["standardize"],
                   gaussian=gaussian, platoon=platoon, paths=paths)

    def to_mapping(self) -> dict:
        out = {"generator": self.generator, "standardize": self.standardize}
        if self.generator == "csv":
            out["paths"] = dict(self.paths)
        else:
            out["n_train"] = self.n_train
            out["n_test"] = self.n_test
        if self.gaussian is not None:
            out["gaussian"] = self.gaussian.to_record()
        if self.platoon is not None:
            out["platoon"] = self.platoon.to_record()
        return out


@dataclass(frozen=True)
class ClassifierConfig:
    """Variants to run and the hyperparameter family grid, shared by all
    variants: the family is the cross product etas x taus x kernels."""

    variants: tuple = ("svm",)
    etas: tuple = (1.0,)
    taus: tuple = (0.5,)
    kernels: tuple = (KernelSpec(),)
    tol: float = 1e-6
    max_iter: int | None = None

    def __post_init__(self):
        if len(self.variants) == 0:
            raise InvalidArgument("classifier.variants must not be empty")
        unknown = [v for v in self.variants if v not in TRAINERS]
        if unknown:
            raise InvalidArgument(
                f"unknown variants {unknown}, expected a subset of {sorted(TRAINERS)}")
        if len(set(self.variants)) != len(self.variants):
            raise InvalidArgument(f"duplicate variants in {list(self.variants)}")
        self.family()   # constructing every member validates the whole grid now

    def family(self) -> list:
        return [Hyperparameters(eta=eta, tau=tau, kernel=kernel)
                for eta in self.etas for tau in self.taus for kernel in self.kernels]

    def train_settings(self) -> TrainSettings:
        return TrainSettings(tol=self.tol, max_iter=self.max_iter)

    @classmethod
    def from_mapping(cls, raw) -> "ClassifierConfig":
        raw = _mapping(raw, "classifier")
        fields = _take(raw, "classifier", variants=["svm"], etas=[1.0], taus=[0.5],
                       kernels=[{"kind": "gaussian"}], tol=1e-6, max_iter=None)
        variants = fields["variants"]
        if isinstance(variants, str):
            variants = [variants]
        kernels = tuple(KernelSpec.from_record(_mapping(entry, "classifier.kernels[]"))
                        for entry in fields["kernels"])
        max_iter = fields["max_iter"]
        return cls(variants=tuple(variants),
                   etas=_float_list(fields["etas"], "classifier.etas"),
                   taus=_float_list(fields["taus"], "classifier.taus"),
                   kernels=kernels, tol=checked_real(fields["tol"], "classifier.tol"),
                   max_iter=None if max_iter is None
                   else checked_int(max_iter, "classifier.max_iter"))

    def to_mapping(self) -> dict:
        return {
            "variants": list(self.variants),
            "etas": [float(v) for v in self.etas],
            "taus": [float(v) for v in self.taus],
            "kernels": [k.to_record() for k in self.kernels],
            "tol": float(self.tol),
            "max_iter": self.max_iter,
        }


@dataclass(frozen=True)
class RiskConfig:
    """Risk levels to sweep and the shared confidence/rank parameters."""

    eps: tuple = (0.05,)
    delta: float = 1e-6
    beta: float = 0.5
    n_c: int | None = None    # explicit calibration size shared by all eps

    def __post_init__(self):
        for eps in self.eps:
            # raises on out-of-range values; result unused here
            min_calibration_size(eps, self.delta, self.beta)
        if self.n_c is not None:
            object.__setattr__(self, "n_c", checked_int(self.n_c, "risk.n_c"))
            if self.n_c < 1:
                raise InvalidArgument(f"risk.n_c must be positive, got {self.n_c}")

    @classmethod
    def from_mapping(cls, raw) -> "RiskConfig":
        raw = _mapping(raw, "risk")
        fields = _take(raw, "risk", eps=[0.05], delta=1e-6, beta=0.5, n_c=None)
        eps = fields["eps"]
        if isinstance(eps, (int, float)):
            eps = [eps]
        return cls(eps=_float_list(eps, "risk.eps"),
                   delta=checked_real(fields["delta"], "risk.delta"),
                   beta=checked_real(fields["beta"], "risk.beta"),
                   n_c=fields["n_c"])

    def to_mapping(self) -> dict:
        return {"eps": [float(v) for v in self.eps], "delta": float(self.delta),
                "beta": float(self.beta), "n_c": self.n_c}


@dataclass(frozen=True)
class GridConfig:
    """2-D boundary export: uniform resolution x resolution grid over bbox
    (x1_min, x1_max, x2_min, x2_max); bbox defaults to the data extent plus
    a margin."""

    resolution: int = 50
    bbox: tuple | None = None
    margin: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "resolution", checked_int(self.resolution, "grid.resolution"))
        if self.resolution < 2:
            raise InvalidArgument(f"grid.resolution must be >= 2, got {self.resolution}")
        if self.bbox is not None:
            if len(self.bbox) != 4:
                raise InvalidArgument(f"grid.bbox needs 4 numbers, got {list(self.bbox)}")
            x1_min, x1_max, x2_min, x2_max = map(float, self.bbox)
            if not (x1_min < x1_max and x2_min < x2_max):
                raise InvalidArgument(f"grid.bbox must satisfy min < max per axis")
        if not self.margin >= 0:
            raise InvalidArgument(f"grid.margin must be non-negative, got {self.margin}")

    @classmethod
    def from_mapping(cls, raw) -> "GridConfig":
        raw = _mapping(raw, "grid")
        fields = _take(raw, "grid", resolution=50, bbox=None, margin=0.5)
        bbox = fields["bbox"]
        return cls(resolution=fields["resolution"],
                   bbox=None if bbox is None else _float_list(bbox, "grid.bbox", distinct=False),
                   margin=checked_real(fields["margin"], "grid.margin"))

    def to_mapping(self) -> dict:
        return {"resolution": self.resolution,
                "bbox": None if self.bbox is None else [float(v) for v in self.bbox],
                "margin": float(self.margin)}


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig = field(default_factory=DataConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    risk: RiskConfig = field(default_factory=RiskConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    seed: int = 0
    output_dir: str = "safe-regions-out"

    @classmethod
    def from_mapping(cls, raw: dict) -> "ExperimentConfig":
        raw = _mapping(raw, "config")
        fields = _take(raw, "config", data=None, classifier=None, risk=None,
                       grid=None, seed=0, output_dir="safe-regions-out")
        return cls(data=DataConfig.from_mapping(fields["data"]),
                   classifier=ClassifierConfig.from_mapping(fields["classifier"]),
                   risk=RiskConfig.from_mapping(fields["risk"]),
                   grid=GridConfig.from_mapping(fields["grid"]),
                   seed=checked_int(fields["seed"], "seed"),
                   output_dir=str(fields["output_dir"]))

    def to_mapping(self) -> dict:
        return {
            "data": self.data.to_mapping(),
            "classifier": self.classifier.to_mapping(),
            "risk": self.risk.to_mapping(),
            "grid": self.grid.to_mapping(),
            "seed": int(self.seed),
            "output_dir": str(self.output_dir),
        }

    def with_overrides(self, seed: int | None = None,
                       output_dir: str | None = None) -> "ExperimentConfig":
        out = self
        if seed is not None:
            out = replace(out, seed=int(seed))
        if output_dir is not None:
            out = replace(out, output_dir=str(output_dir))
        return out


class _ConfigLoader(yaml.SafeLoader):
    """Safe YAML loader that also reads exponent floats without a dot, such as
    ``1e-6`` (and JSON's ``1e-06``), as floats: YAML 1.1 reads them as strings,
    which the real-valued keys reject."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float", re.compile(r"^[-+]?[0-9][0-9_]*[eE][-+]?[0-9]+$"),
    list("-+0123456789"))


def load_config(path) -> ExperimentConfig:
    """Read an experiment config from a YAML file; an empty file gives the
    defaults.  A file that is not valid YAML raises ``InvalidArgument``
    naming the file."""
    path = Path(path)
    if not path.exists():
        raise InvalidArgument(f"config file not found: {path}")
    try:
        raw = yaml.load(path.read_bytes(), Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}, line {mark.line + 1}, column {mark.column + 1}" if mark else str(path)
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise InvalidArgument(f"{where}: not valid YAML: {problem}") from None
    return ExperimentConfig.from_mapping(raw)
