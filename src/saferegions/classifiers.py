"""Shared contract of scalable classifiers.

A scalable classifier has a level-free margin ``s(x)``.  A point belongs to
the predicted-safe region at level ``rho`` (predicted +1) exactly when
``s(x) + rho < 0``, with ties going to unsafe.  In floating point that sum
keeps the sign of the exact sum and is zero only when the exact sum is, so
membership is exactly ``rho < boundary_radius(x) = -s(x)``: raising ``rho``
only ever shrinks the region, and regions are nested.

The decision value ``f(x, rho) = link(s(x) + rho)`` applies a strictly
increasing link with ``link(0) = 0``: the identity for the margin variants,
a centered sigmoid for the logistic one.  The link only shapes
``decision_value``; membership is decided on the margin, because a link that
rounds tiny negative sums to zero would move points out of the region.

Each variant's margin is a kernel expansion plus an offset, with an optional
self-similarity term: ``s(x) = w_d k(x, x) + sum_j c_j k(x, x_j) + b0``.
``expansion_margins`` evaluates that form for many models at once over their
merged centers.  ``_shared_center_margins`` evaluates models whose centers are
identical from one kernel block, with each model's own product, and every
variant's ``margin`` is that evaluator applied to a single model, so models
sharing centers get the bits of their own ``margin``.

The steps every trainer shares live here too: ``_training_problem`` (checked
data, resolved kernel, Gram) and, for the margin and ball variants,
``_fit_box_dual`` (dual solve, convergence check, diagnostics, support).

Models are immutable after training; their prediction methods hold no state
and can be shared freely across threads.

The model record format lives here alone: ``model_to_record`` and
``model_from_record`` encode a variant's own dataclass fields generically
(arrays as nested lists, scalars as floats) next to the shared
hyperparameters, kernel and diagnostics, and ``model_from_record`` rejects
records that do not describe a finite model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import InvalidArgument, TrainingError
from .kernels import KernelSpec, gram, kernel_diag, kernel_matrix
from .solvers import DEFAULT_MAX_UPDATES, ascent_objective, solve_box_qp
from .validation import checked_int, checked_real, training_arrays

__all__ = [
    "Hyperparameters",
    "TrainSettings",
    "TrainingDiagnostics",
    "ScalableModel",
    "box_bounds",
    "expansion_margins",
    "save_model",
    "load_model",
    "model_to_record",
    "model_from_record",
]

# Kernel entries per row block of expansion_margins: 2**21 doubles keep each
# transient cross-kernel block at 16 MB whatever the number of centers.
_BLOCK_ENTRIES = 2 ** 21


@dataclass(frozen=True)
class Hyperparameters:
    """Regularization weight eta, class-asymmetry weight tau, kernel choice.

    tau in (0, 1) splits the misclassification budget between the classes:
    slack on safe samples is weighted (1 - tau) and on unsafe samples tau, so
    small tau protects the safe class and large tau the unsafe one.
    """

    eta: float = 1.0
    tau: float = 0.5
    kernel: KernelSpec = field(default_factory=KernelSpec)

    def __post_init__(self):
        if not checked_real(self.eta, "eta") > 0:
            raise InvalidArgument(f"eta must be positive, got {self.eta!r}")
        if not 0.0 < checked_real(self.tau, "tau") < 1.0:
            raise InvalidArgument(f"tau must lie strictly between 0 and 1, got {self.tau!r}")


@dataclass(frozen=True)
class TrainSettings:
    """Optimizer knobs. max_iter=None keeps each trainer's own default."""

    tol: float = 1e-6
    max_iter: int | None = None

    def __post_init__(self):
        if not checked_real(self.tol, "tol") > 0:
            raise InvalidArgument(f"tol must be positive, got {self.tol!r}")
        if self.max_iter is not None:
            object.__setattr__(self, "max_iter", checked_int(self.max_iter, "max_iter"))
            if self.max_iter < 1:
                raise InvalidArgument(f"max_iter must be positive, got {self.max_iter!r}")


@dataclass
class TrainingDiagnostics:
    iterations: int
    residual: float
    converged: bool
    objective: float
    flags: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {"iterations": int(self.iterations), "residual": float(self.residual),
                "converged": bool(self.converged), "objective": float(self.objective),
                "flags": dict(self.flags)}

    @classmethod
    def from_record(cls, record: dict) -> "TrainingDiagnostics":
        iterations, residual, converged, objective = (
            record[key] for key in ("iterations", "residual", "converged", "objective"))
        if not isinstance(converged, bool):
            raise InvalidArgument(f"diagnostics converged must be true or false, got {converged!r}")
        return cls(iterations=checked_int(iterations, "diagnostics iterations"),
                   residual=checked_real(residual, "diagnostics residual"), converged=converged,
                   objective=checked_real(objective, "diagnostics objective"),
                   flags=dict(record.get("flags", {})))


def box_bounds(hp: Hyperparameters, y: np.ndarray) -> np.ndarray:
    """Per-sample slack weight C_i: eta*(1-tau) on safe samples, eta*tau on
    unsafe ones.  These are the box constraints of the dual problems."""
    y = np.asarray(y)
    return np.where(y > 0, hp.eta * (1.0 - hp.tau), hp.eta * hp.tau)


def _training_problem(train, hp: Hyperparameters, settings: TrainSettings | None,
                      gram_matrix: np.ndarray | None, require_both_classes: bool = True):
    """``(x, y, K, hp, settings)`` of a fit: checked arrays, the Gram of the
    kernel resolved on ``x`` (the caller's shared one when given), ``hp`` with
    that kernel as the model stores it, and the settings or their defaults."""
    x, y = training_arrays(train, require_both_classes=require_both_classes)
    hp = replace(hp, kernel=hp.kernel.resolved(x))
    K = gram(hp.kernel, x) if gram_matrix is None else gram_matrix
    return x, y, K, hp, settings or TrainSettings()


_BOUND_REL = 1e-8   # relative margin for "strictly inside the box" of a dual


def _fit_box_dual(x, y, K, s, C, alpha0, q, scale, settings: TrainSettings) -> tuple:
    """Solve a ``solve_box_qp`` dual; ``TrainingError`` unless it converges.

    Returns ``(alpha, g, gap, inside, at_upper, fields)``: the solution, its
    gradient and violation gap, the coordinates strictly inside their box and
    those at its top (both by _BOUND_REL), and the model fields ``support_*``
    of the coordinates with alpha > 0 plus ``diagnostics``, to which the
    caller adds the flags of its offset or radius recovery.
    """
    max_iter = settings.max_iter if settings.max_iter is not None else DEFAULT_MAX_UPDATES
    alpha, g, iters, residual, converged, gap = solve_box_qp(
        K, s, C, alpha0, q, scale, settings.tol, max_iter)
    if not converged:
        raise TrainingError(
            f"dual solver stopped at residual {residual:.3e} > tol={settings.tol} "
            f"after {iters} updates")
    at_upper = alpha >= C * (1.0 - _BOUND_REL)
    inside = (alpha > _BOUND_REL * C) & ~at_upper
    diagnostics = TrainingDiagnostics(iterations=iters, residual=residual, converged=True,
                                      objective=ascent_objective(K, s, alpha, q, scale))
    support = alpha > 0.0
    return alpha, g, gap, inside, at_upper, {
        "support_x": x[support].copy(), "support_alpha": alpha[support].copy(),
        "support_y": y[support].copy(), "diagnostics": diagnostics}


@dataclass
class ScalableModel:
    """Base for the trained variants: the fields every variant shares.

    Subclasses declare their fitted fields, the centers of the expansion
    first, and provide ``_expansion``; their ``margin`` evaluates it through
    ``expansion_margins``.
    """

    hyperparameters: Hyperparameters
    diagnostics: TrainingDiagnostics

    @property
    def kernel(self) -> KernelSpec:
        """The resolved kernel the model was trained with."""
        return self.hyperparameters.kernel

    def _expansion(self) -> tuple:
        """(centers, coef, w_d, b0) with s(x) = w_d k(x,x) + K(x, centers) coef + b0."""
        raise NotImplementedError

    def margin(self, x: np.ndarray) -> np.ndarray:
        """Level-free decision core s(x); f(x, rho) = link(s(x) + rho)."""
        raise NotImplementedError

    def decision_value(self, x: np.ndarray, rho: float) -> np.ndarray:
        """f(x, rho) = link(s(x) + rho), the identity link unless a variant
        overrides it; ``predict`` decides membership."""
        return self.margin(x) + rho

    def boundary_radius(self, x: np.ndarray) -> np.ndarray:
        """Unique level at which each point sits exactly on the boundary."""
        return -self.margin(x)

    def predict(self, x: np.ndarray, rho: float) -> np.ndarray:
        """+1 inside the region (s(x) + rho < 0), -1 outside; ties count as unsafe."""
        return np.where(self.margin(x) + rho < 0.0, 1, -1)


def _as_points(x: np.ndarray, dim: int) -> np.ndarray:
    """Normalize to (n, dim), rejecting any other feature count."""
    arr = np.atleast_2d(np.asarray(x, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise InvalidArgument(f"expected points with {dim} features, got shape {arr.shape}")
    return arr


def _single_margin(model: ScalableModel, x):
    """``margin`` of one model: a float for one point, an (n,) array otherwise."""
    s = _shared_center_margins([model], x)[:, 0]
    return float(s[0]) if np.ndim(x) == 1 else s


def _distinct_centers(centers: np.ndarray) -> tuple:
    """(distinct rows in order of first appearance, row of each center in them).

    First-appearance order makes a model with distinct centers sum its
    expansion in its own order.
    """
    _, first, inverse = np.unique(centers, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return centers[first[order]], rank[inverse.reshape(-1)]


def _block_rows(union: np.ndarray) -> int:
    """Points per row block against ``union``: at most _BLOCK_ENTRIES kernel entries."""
    return max(1, _BLOCK_ENTRIES // max(1, union.shape[0]))


def _shared_center_margins(models, x: np.ndarray) -> np.ndarray:
    """Margins of models sharing one resolved kernel and one center array,
    as an (n, len(models)) array.

    The caller guarantees that every model's kernel and centers equal the
    first model's, element for element.  Each row block of points costs one
    kernel block against the distinct centers and then, per model, the same
    single-column product that model makes alone, so every column holds the
    bits of that model's own ``margin``.
    """
    expansions = [model._expansion() for model in models]
    spec = models[0].kernel
    pts = _as_points(x, expansions[0][0].shape[1])
    union, inverse = _distinct_centers(expansions[0][0])
    coefs = []
    for _, c, _, _ in expansions:
        coef = np.zeros((union.shape[0], 1))
        np.add.at(coef, (inverse, 0), c)
        coefs.append(coef)
    n = pts.shape[0]
    rows = _block_rows(union)
    out = np.empty((n, len(models)))
    for start in range(0, n, rows):
        block = pts[start:start + rows]
        k = kernel_matrix(spec, block, union)
        diag = kernel_diag(spec, block)[:, None]
        for column, (coef, (_, _, w_d, b0)) in enumerate(zip(coefs, expansions)):
            s = k @ coef
            if w_d:
                s += diag * w_d
            s += b0
            out[start:start + rows, column] = s[:, 0]
        # free this block before the next one is built, so one block is live
        del k
    return out


def expansion_margins(models, x: np.ndarray) -> np.ndarray:
    """Margins s(x) of several models at once, as an (n, len(models)) array.

    Models are grouped by their resolved kernel.  Within a group the centers
    of all expansions are merged into their distinct rows and the
    coefficients summed into one column per model, so each row block of
    points costs one kernel block against the merged centers and one matrix
    product, however many models share it.  Results agree with evaluating
    each model alone up to the order of floating-point summation.
    """
    models = list(models)
    if not models:
        raise InvalidArgument("expansion_margins needs at least one model")
    expansions = [model._expansion() for model in models]
    pts = _as_points(x, expansions[0][0].shape[1])
    groups: dict = {}
    for column, model in enumerate(models):
        groups.setdefault(model.kernel, []).append(column)
    n = pts.shape[0]
    out = np.empty((n, len(models)))
    for spec, columns in groups.items():
        parts = [expansions[c] for c in columns]
        union, inverse = _distinct_centers(np.vstack([p[0] for p in parts]))
        owner = np.repeat(np.arange(len(columns)), [p[0].shape[0] for p in parts])
        coef = np.zeros((union.shape[0], len(columns)))
        np.add.at(coef, (inverse, owner), np.concatenate([p[1] for p in parts]))
        w_d = np.array([p[2] for p in parts], dtype=float)
        b0 = np.array([p[3] for p in parts], dtype=float)
        rows = _block_rows(union)
        for start in range(0, n, rows):
            block = pts[start:start + rows]
            s = kernel_matrix(spec, block, union) @ coef
            if w_d.any():
                s += kernel_diag(spec, block)[:, None] * w_d
            s += b0
            out[start:start + rows, columns] = s
    return out


_MODEL_FORMAT_VERSION = 1


def _fitted_fields(cls) -> list:
    """(name, is_array) for each field a variant declares beyond the shared ones."""
    hints = get_type_hints(cls)
    shared = {f.name for f in fields(ScalableModel)}
    return [(f.name, hints[f.name] is np.ndarray) for f in fields(cls) if f.name not in shared]


def model_to_record(model: ScalableModel) -> dict:
    """Serialize a trained model to a flat, JSON-ready record."""
    record = {
        "format_version": _MODEL_FORMAT_VERSION,
        "variant": model.variant,
        "eta": model.hyperparameters.eta,
        "tau": model.hyperparameters.tau,
        "kernel": model.kernel.to_record(),
        "diagnostics": model.diagnostics.to_record(),
    }
    for name, is_array in _fitted_fields(type(model)):
        value = getattr(model, name)
        record[name] = value.tolist() if is_array else float(value)
    return record


def model_from_record(record: dict) -> ScalableModel:
    """Rebuild a trained model from its record; inverse of model_to_record.

    Arrays keep the JSON number type (integer labels stay integers).  Raises
    ``InvalidArgument`` unless the record is a version-1 record of a known
    variant with every key present, centers forming a 2-D array, every other
    fitted array holding one entry per center, and every fitted value finite.
    """
    from .logistic import ScLrModel
    from .svdd import ScSvddModel
    from .svm import ScSvmModel

    if not isinstance(record, dict):
        raise InvalidArgument(f"a model record is a JSON object, got {type(record).__name__}")
    version = record.get("format_version")
    if version != _MODEL_FORMAT_VERSION:
        raise InvalidArgument(f"unsupported model format version {version!r}")
    variant = record.get("variant")
    table = {"svm": ScSvmModel, "svdd": ScSvddModel, "lr": ScLrModel}
    if variant not in table:
        raise InvalidArgument(f"unknown model variant {variant!r}")
    cls = table[variant]
    spec = _fitted_fields(cls)
    try:
        hp = Hyperparameters(eta=checked_real(record["eta"], "eta"),
                             tau=checked_real(record["tau"], "tau"),
                             kernel=KernelSpec.from_record(record["kernel"]))
        diagnostics = TrainingDiagnostics.from_record(record["diagnostics"])
        fitted = {name: np.asarray(record[name]) if is_array else float(record[name])
                  for name, is_array in spec}
    except KeyError as exc:
        raise InvalidArgument(f"model record has no key {exc}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgument(f"malformed model record: {exc}") from None

    # the centers are each variant's first fitted array
    centers_name, *per_center = [name for name, is_array in spec if is_array]
    centers = fitted[centers_name]
    if centers.ndim != 2:
        raise InvalidArgument(f"{centers_name} must be a 2-D array of centers, "
                              f"got shape {centers.shape}")
    for name in per_center:
        if fitted[name].shape != centers.shape[:1]:
            raise InvalidArgument(f"{name} has shape {fitted[name].shape}, expected one "
                                  f"entry per row of {centers_name} ({centers.shape[0]})")
    for name, value in fitted.items():
        if np.asarray(value).dtype.kind not in "iuf" or not np.isfinite(value).all():
            raise InvalidArgument(f"{name} must hold finite numbers only")
    return cls(hyperparameters=hp, diagnostics=diagnostics, **fitted)


def save_model(model: ScalableModel, path, certificate=None) -> None:
    """Write a model record (optionally with its certificate) as JSON."""
    record = model_to_record(model)
    if certificate is not None:
        record["certificate"] = certificate.to_record()
    Path(path).write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")


def load_model(path) -> tuple[ScalableModel, object | None]:
    """Read back a model record; returns (model, certificate-or-None).

    Raises ``InvalidArgument`` naming the file when it is not JSON or does
    not hold a valid model record and certificate.
    """
    from .scaling import CalibrationCertificate

    try:
        record = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise InvalidArgument(f"{path} is not a JSON model file: {exc}") from None
    try:
        model = model_from_record(record)
        certificate = None
        if "certificate" in record:
            certificate = CalibrationCertificate.from_record(record["certificate"])
    except KeyError as exc:
        # model_from_record raises InvalidArgument only, so this is the certificate's
        raise InvalidArgument(f"{path}: certificate has no key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgument(f"{path}: {exc}") from None
    return model, certificate
