"""Datasets, synthetic Gaussian sampling, and standardization.

Labels are +1 for safe and -1 for unsafe throughout.  All sampling is driven
by explicit seeds; the same spec and seed reproduce a dataset bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import InvalidArgument
from .validation import checked_real, invalid_yaml

__all__ = [
    "Dataset",
    "GaussianSpec",
    "sample_gaussian",
    "Standardizer",
    "fit_standardizer",
    "standardize",
    "write_csv",
]


@dataclass
class Dataset:
    """Points, labels, and a provenance record describing where they came from."""

    x: np.ndarray
    y: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        if self.x.ndim != 2:
            raise InvalidArgument(f"points must form a 2-D array, got shape {self.x.shape}")
        if self.y.shape != (self.x.shape[0],):
            raise InvalidArgument(
                f"labels of shape {self.y.shape} do not match {self.x.shape[0]} points")
        if self.y.size and not np.isin(self.y, (-1, 1)).all():
            raise InvalidArgument("labels must be +1 or -1")
        finite = np.isfinite(self.x)
        if not finite.all():
            raise InvalidArgument(
                f"points contain {int((~finite).sum())} non-finite values")

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(self.x[indices].copy(), self.y[indices].copy(), dict(self.provenance))

    def to_csv(self, path) -> None:
        """Write points and labels as CSV with a feature header, plus a YAML
        provenance sidecar next to the file."""
        path = Path(path)
        write_csv(path, [f"f{i}" for i in range(self.dim)] + ["label"],
                  [row + [label] for row, label in zip(self.x.tolist(), self.y.tolist())])
        sidecar = path.with_suffix(path.suffix + ".meta.yaml")
        sidecar.write_text(yaml.safe_dump(_plain(self.provenance), sort_keys=True))

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        """Read a file written by ``to_csv``; ``InvalidArgument`` names the file
        and line of a ragged row, a non-number or a label other than 1 or -1,
        and the provenance sidecar when it is not valid YAML."""
        path = Path(path)
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or header[-1] != "label":
                raise InvalidArgument(f"{path}: expected a header ending in 'label'")
            dim = len(header) - 1
            rows = []
            for row in reader:
                where = f"{path}, line {reader.line_num}"
                if len(row) != dim + 1:
                    raise InvalidArgument(f"{where}: row with {len(row)} fields, expected {dim + 1}")
                try:
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise InvalidArgument(f"{where}: {exc}") from None
                if rows[-1][dim] not in (1.0, -1.0):   # exact; NaN equals nothing
                    raise InvalidArgument(f"{where}: label must be 1 or -1, got {row[dim]!r}")
        provenance = {"source": str(path)}
        sidecar = path.with_suffix(path.suffix + ".meta.yaml")
        if sidecar.exists():
            try:
                loaded = yaml.safe_load(sidecar.read_bytes())
            except yaml.YAMLError as exc:
                raise invalid_yaml(sidecar, exc) from None
            if isinstance(loaded, dict):
                provenance.update(loaded)
        table = np.array(rows, dtype=float).reshape(-1, dim + 1)
        try:
            return cls(np.ascontiguousarray(table[:, :dim]), table[:, dim].astype(int), provenance)
        except InvalidArgument as exc:
            raise InvalidArgument(f"{path}: {exc}") from None


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, header: list, rows: list) -> None:
    """Rows as csv with ``\n`` line ends; floats as ``repr``, bools as 0/1."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _plain(obj):
    """Recursively convert numpy scalars/arrays so YAML stays readable."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _sequence(value, name: str, what: str):
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise InvalidArgument(f"{name} must be {what}, got {value!r}")
    return value


def _real_tuple(values, name: str) -> tuple:
    """``values`` as a tuple of floats; ``InvalidArgument`` naming ``name``
    unless every entry passes ``checked_real``."""
    return tuple(checked_real(v, name) for v in _sequence(values, name, "a list of numbers"))


@dataclass(frozen=True)
class GaussianSpec:
    """Two-Gaussian mixture with optional label-preserving contamination.

    Each sample first draws its label (+1 with probability ``safe_prob``),
    then with probability ``outlier_prob`` the point itself comes from the
    *other* class's Gaussian while the label is kept, modelling mislabeled or
    contaminated data.  The defaults are the two-unit-Gaussian benchmark:
    well separated classes on the diagonal.
    """

    mu_safe: tuple = (-1.0, -1.0)
    mu_unsafe: tuple = (1.0, 1.0)
    cov_safe: tuple = ((1.0, 0.0), (0.0, 1.0))
    cov_unsafe: tuple = ((1.0, 0.0), (0.0, 1.0))
    safe_prob: float = 0.5
    outlier_prob: float = 0.0

    def __post_init__(self):
        for name in ("mu_safe", "mu_unsafe"):
            object.__setattr__(self, name, _real_tuple(getattr(self, name), name))
        for name in ("cov_safe", "cov_unsafe"):
            rows = _sequence(getattr(self, name), name, "a list of rows")
            object.__setattr__(self, name, tuple(_real_tuple(row, name) for row in rows))
        for name in ("safe_prob", "outlier_prob"):
            object.__setattr__(self, name, checked_real(getattr(self, name), name))
        if not 0.0 < self.safe_prob < 1.0:
            raise InvalidArgument(f"safe_prob must lie in (0, 1), got {self.safe_prob!r}")
        if not 0.0 <= self.outlier_prob < 0.5:
            raise InvalidArgument(f"outlier_prob must lie in [0, 0.5), got {self.outlier_prob!r}")
        dim = len(self.mu_safe)
        if len(self.mu_unsafe) != dim:
            raise InvalidArgument("class means must share a dimension")
        for name in ("cov_safe", "cov_unsafe"):
            rows = getattr(self, name)
            if len(rows) != dim or any(len(row) != dim for row in rows):
                raise InvalidArgument(f"{name} must be {dim}x{dim}")
            cov = np.array(rows)
            if not np.allclose(cov, cov.T):
                raise InvalidArgument(f"{name} must be symmetric")
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise InvalidArgument(f"{name} must be positive definite") from None

    @property
    def dim(self) -> int:
        return len(self.mu_safe)

    def to_record(self) -> dict:
        return {
            "mu_safe": list(map(float, self.mu_safe)),
            "mu_unsafe": list(map(float, self.mu_unsafe)),
            "cov_safe": np.asarray(self.cov_safe, dtype=float).tolist(),
            "cov_unsafe": np.asarray(self.cov_unsafe, dtype=float).tolist(),
            "safe_prob": self.safe_prob,
            "outlier_prob": self.outlier_prob,
        }


def sample_gaussian(spec: GaussianSpec, n: int, seed: int, role: str = "sample") -> Dataset:
    """Draw n labelled points from the mixture; n = 0 gives an empty dataset."""
    n = int(n)
    if n < 0:
        raise InvalidArgument(f"sample count must be non-negative, got {n}")
    rng = np.random.default_rng(seed)
    dim = spec.dim
    mu_s = np.asarray(spec.mu_safe, dtype=float)
    mu_u = np.asarray(spec.mu_unsafe, dtype=float)
    chol_s = np.linalg.cholesky(np.asarray(spec.cov_safe, dtype=float))
    chol_u = np.linalg.cholesky(np.asarray(spec.cov_unsafe, dtype=float))

    labels = np.where(rng.random(n) < spec.safe_prob, 1, -1)
    flipped = rng.random(n) < spec.outlier_prob
    source_safe = np.where(flipped, labels == -1, labels == 1)
    z = rng.standard_normal((n, dim))
    from_safe = z @ chol_s.T + mu_s
    from_unsafe = z @ chol_u.T + mu_u
    x = np.where(source_safe[:, None], from_safe, from_unsafe)
    provenance = {"generator": "gaussian", "seed": int(seed), "n": n, "role": role,
                  "spec": spec.to_record()}
    return Dataset(x, labels, provenance)


@dataclass
class Standardizer:
    """Per-feature affine map fitted on training data.

    Zero-variance features are flagged and mapped to 0.
    """

    mean: np.ndarray
    scale: np.ndarray
    degenerate: np.ndarray

    def apply(self, data):
        if isinstance(data, Dataset):
            out = Dataset(self.apply(data.x), data.y.copy(), dict(data.provenance))
            out.provenance["standardized"] = True
            return out
        x = np.atleast_2d(np.asarray(data, dtype=float))
        z = (x - self.mean) / self.scale
        if self.degenerate.any():
            z[:, self.degenerate] = 0.0
        return z


def fit_standardizer(train: Dataset) -> Standardizer:
    if train.n_samples == 0:
        raise InvalidArgument("cannot fit a standardizer on an empty dataset")
    mean = train.x.mean(axis=0)
    std = train.x.std(axis=0)
    degenerate = std == 0.0
    scale = np.where(degenerate, 1.0, std)
    return Standardizer(mean=mean, scale=scale, degenerate=degenerate)


def standardize(train: Dataset, *others: Dataset) -> tuple[list[Dataset], Standardizer]:
    """Fit on the training split, apply to all splits; returns the transformed
    datasets in the order given plus the fitted transform."""
    scaler = fit_standardizer(train)
    transformed = [scaler.apply(train)] + [scaler.apply(d) for d in others]
    return transformed, scaler
