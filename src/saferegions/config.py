"""Experiment configuration loaded from a nested YAML file.

Each config dataclass checks its own keys when built and accepts the values
YAML holds (lists for tuples, a single ``eps`` or ``variants``, mappings for
kernels and data sections), so a value means the same, and fails with the
same message, from a file or from Python.  One generic ``from_mapping``
parses every section: missing keys take the field defaults and unknown keys
are rejected to catch typos.  A bad config fails before any data generation
or training starts; the resolved form (all defaults materialized) is written
next to the outputs of every run.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields, replace
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
_SPLITS = ("train", "calib", "test")


def _known(value, names, context: str) -> dict:
    """``value`` as a mapping (None is empty) whose keys are all in ``names``."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise InvalidArgument(f"{context} must be a mapping, got {type(value).__name__}")
    unknown = sorted(set(value) - set(names))
    if unknown:
        raise InvalidArgument(f"unknown config keys in {context}: {unknown}")
    return value


def _parse(cls, value, context: str):
    """Dataclass ``cls`` built from a mapping; missing keys take its defaults."""
    return cls(**_known(value, [f.name for f in fields(cls)], context))


def _plain(value):
    """A checked field value in the form YAML holds."""
    if hasattr(value, "to_mapping"):
        return value.to_mapping()
    if hasattr(value, "to_record"):
        return value.to_record()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _distinct(values, context: str, entry=lambda v: v) -> tuple:
    """A non-empty list without duplicates, each value passed through ``entry``."""
    if not isinstance(values, (list, tuple)) or len(values) == 0:
        raise InvalidArgument(f"{context} must be a non-empty list")
    out = tuple(entry(v) for v in values)
    if len(set(out)) != len(out):
        raise InvalidArgument(f"{context} contains duplicates: {list(out)}")
    return out


def _reals(values, context: str) -> tuple:
    """A non-empty list of distinct finite reals, as floats."""
    return _distinct(values, context, lambda v: checked_real(v, context))


class _Section:
    """The mapping codec every config section shares."""

    _context = "config"   # the section's name in error messages

    @classmethod
    def from_mapping(cls, raw):
        return _parse(cls, raw, cls._context)

    def to_mapping(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    def _set(self, name: str, value) -> None:
        object.__setattr__(self, name, value)


@dataclass(frozen=True)
class DataConfig(_Section):
    """Where the train/calibration/test splits come from.  The generator's
    own section (``gaussian``, ``platoon`` or, for csv, the ``paths`` of the
    three splits) may be a mapping and defaults to its field defaults; the
    sections of other generators must be absent.  The split sizes belong to
    the gaussian and platoon generators (1000 and 10000 when not given); the
    csv files fix their own, so csv takes neither."""

    _context = "data"

    generator: str = "gaussian"
    n_train: int | None = None
    n_test: int | None = None
    standardize: bool = True
    gaussian: GaussianSpec | None = None
    platoon: PlatoonRanges | None = None
    paths: dict | None = None     # csv generator: train/calib/test file paths

    def __post_init__(self):
        if self.generator not in _GENERATORS:
            raise InvalidArgument(
                f"unknown generator {self.generator!r}, expected one of {_GENERATORS}")
        if not isinstance(self.standardize, bool):
            raise InvalidArgument(
                f"data.standardize must be true or false, got {self.standardize!r}")
        own = ("paths",) if self.generator == "csv" else (self.generator, "n_train", "n_test")
        unread = [name for name in ("n_train", "n_test", "gaussian", "platoon", "paths")
                  if name not in own and getattr(self, name) is not None]
        if unread:
            raise InvalidArgument(
                f"unknown config keys in data for the {self.generator} generator: {unread}")
        if self.generator != "csv":
            for name, default in (("n_train", 1000), ("n_test", 10000)):
                size = getattr(self, name)
                size = default if size is None else checked_int(size, f"data.{name}")
                # 0 is allowed so `generate` can emit header-only files
                if size < 0:
                    raise InvalidArgument(f"{name} must be >= 0, got {size}")
                self._set(name, size)
        if self.generator == "gaussian" and not isinstance(self.gaussian, GaussianSpec):
            spec = _known(self.gaussian, [f.name for f in fields(GaussianSpec)], "data.gaussian")
            for name in ("safe_prob", "outlier_prob"):
                if name in spec:
                    checked_real(spec[name], f"data.gaussian.{name}")
            self._set("gaussian", GaussianSpec(**spec))
        elif self.generator == "platoon" and not isinstance(self.platoon, PlatoonRanges):
            self._set("platoon", _parse(PlatoonRanges, self.platoon, "data.platoon"))
        elif self.generator == "csv":
            paths = _known(self.paths, _SPLITS, "data.paths")
            missing = [k for k in _SPLITS if not (isinstance(paths.get(k), str) and paths[k])]
            if missing:
                raise InvalidArgument(f"csv generator needs file paths for {missing}")
            self._set("paths", {k: paths[k] for k in _SPLITS})

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
class ClassifierConfig(_Section):
    """Variants to run and the hyperparameter family grid, shared by all
    variants: the family is the cross product etas x taus x kernels."""

    _context = "classifier"

    variants: tuple = ("svm",)
    etas: tuple = (1.0,)
    taus: tuple = (0.5,)
    kernels: tuple = (KernelSpec(),)
    tol: float = 1e-6
    max_iter: int | None = None

    def __post_init__(self):
        variants = (self.variants,) if isinstance(self.variants, str) else self.variants
        self._set("variants", _distinct(variants, "classifier.variants"))
        unknown = [v for v in self.variants if v not in TRAINERS]
        if unknown:
            raise InvalidArgument(
                f"unknown variants {unknown}, expected a subset of {sorted(TRAINERS)}")
        self._set("etas", _reals(self.etas, "classifier.etas"))
        self._set("taus", _reals(self.taus, "classifier.taus"))
        self._set("kernels", _distinct(
            self.kernels, "classifier.kernels", lambda k: k if isinstance(k, KernelSpec)
            else _parse(KernelSpec, k, "classifier.kernels[]")))
        self._set("tol", checked_real(self.tol, "classifier.tol"))
        if not self.tol > 0:
            raise InvalidArgument(f"classifier.tol must be positive, got {self.tol!r}")
        if self.max_iter is not None:
            self._set("max_iter", checked_int(self.max_iter, "classifier.max_iter"))
            if self.max_iter < 1:
                raise InvalidArgument(
                    f"classifier.max_iter must be positive, got {self.max_iter!r}")
        self.family()   # constructing every member validates the whole grid now

    def family(self) -> list:
        return [Hyperparameters(eta=eta, tau=tau, kernel=kernel)
                for eta in self.etas for tau in self.taus for kernel in self.kernels]

    def train_settings(self) -> TrainSettings:
        return TrainSettings(tol=self.tol, max_iter=self.max_iter)


@dataclass(frozen=True)
class RiskConfig(_Section):
    """Risk levels to sweep and the shared confidence/rank parameters; a
    single eps is a one-level sweep."""

    _context = "risk"

    eps: tuple = (0.05,)
    delta: float = 1e-6
    beta: float = 0.5
    n_c: int | None = None    # explicit calibration size shared by all eps

    def __post_init__(self):
        eps = self.eps if isinstance(self.eps, (list, tuple)) else (self.eps,)
        self._set("eps", _reals(eps, "risk.eps"))
        self._set("delta", checked_real(self.delta, "risk.delta"))
        self._set("beta", checked_real(self.beta, "risk.beta"))
        for eps in self.eps:
            # raises on out-of-range values; result unused here
            min_calibration_size(eps, self.delta, self.beta)
        if self.n_c is not None:
            self._set("n_c", checked_int(self.n_c, "risk.n_c"))
            if self.n_c < 1:
                raise InvalidArgument(f"risk.n_c must be positive, got {self.n_c}")


@dataclass(frozen=True)
class GridConfig(_Section):
    """2-D boundary export: uniform resolution x resolution grid over bbox
    (x1_min, x1_max, x2_min, x2_max); bbox defaults to the data extent plus
    a margin."""

    _context = "grid"

    resolution: int = 50
    bbox: tuple | None = None
    margin: float = 0.5

    def __post_init__(self):
        self._set("resolution", checked_int(self.resolution, "grid.resolution"))
        if self.resolution < 2:
            raise InvalidArgument(f"grid.resolution must be >= 2, got {self.resolution}")
        if self.bbox is not None:
            if not isinstance(self.bbox, (list, tuple)) or len(self.bbox) != 4:
                raise InvalidArgument(f"grid.bbox needs 4 numbers, got {self.bbox!r}")
            self._set("bbox", tuple(checked_real(v, "grid.bbox") for v in self.bbox))
            x1_min, x1_max, x2_min, x2_max = self.bbox
            if not (x1_min < x1_max and x2_min < x2_max):
                raise InvalidArgument(f"grid.bbox must satisfy min < max per axis")
        self._set("margin", checked_real(self.margin, "grid.margin"))
        if not self.margin >= 0:
            raise InvalidArgument(f"grid.margin must be non-negative, got {self.margin}")


@dataclass(frozen=True)
class ExperimentConfig(_Section):
    """The whole experiment; each section may be given as a mapping."""

    data: DataConfig = field(default_factory=DataConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    risk: RiskConfig = field(default_factory=RiskConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    seed: int = 0
    output_dir: str = "safe-regions-out"

    def __post_init__(self):
        for f in fields(self):
            section = f.default_factory
            if section is not MISSING and not isinstance(getattr(self, f.name), section):
                self._set(f.name, section.from_mapping(getattr(self, f.name)))
        self._set("seed", checked_int(self.seed, "seed"))
        self._set("output_dir", str(self.output_dir))

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
