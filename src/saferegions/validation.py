"""Input checks shared across the package: training sets and numbers."""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import InvalidArgument, TrainingError


def is_real(value) -> bool:
    """A real number, booleans and strings excluded."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def checked_int(value, name: str) -> int:
    """``value`` as an int; ``InvalidArgument`` naming ``name`` unless it is
    an integral number (``2.0`` passes, ``2.5``, ``True`` and ``"2"`` do not)."""
    if not (is_real(value)
            and (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise InvalidArgument(f"{name} must be an integer, got {value!r}")
    return int(value)


def is_finite_real(value) -> bool:
    """A real number within the float range (``10**400`` is not)."""
    try:
        return is_real(value) and math.isfinite(value)
    except OverflowError:   # an integer or fraction beyond the float range
        return False


def checked_real(value, name: str) -> float:
    """``value`` as a float; ``InvalidArgument`` naming ``name`` unless it is
    a finite real number (``True``, ``"0.5"`` and ``inf`` are not)."""
    if not is_finite_real(value):
        raise InvalidArgument(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def training_arrays(train, require_both_classes: bool = True):
    """Validate a training set and return (x, y) as float/int arrays."""
    x = np.asarray(train.x, dtype=float)
    y = np.asarray(train.y)
    if x.ndim != 2 or x.shape[0] == 0:
        raise InvalidArgument(f"training points must form a non-empty 2-D array, got {x.shape}")
    if y.shape != (x.shape[0],):
        raise InvalidArgument(f"labels of shape {y.shape} do not match {x.shape[0]} points")
    if not np.isfinite(x).all():
        raise InvalidArgument("training points contain non-finite values")
    if not np.isin(y, (-1, 1)).all():
        raise InvalidArgument("labels must be +1 or -1")
    if require_both_classes and ((y > 0).all() or (y < 0).all()):
        raise TrainingError("training set contains a single class")
    return x, y.astype(int)


def invalid_yaml(path, exc) -> InvalidArgument:
    """The ``InvalidArgument`` for a file that is not valid YAML: it names
    the file, and the line and column when the parser marks them."""
    mark = getattr(exc, "problem_mark", None)
    where = f"{path}, line {mark.line + 1}, column {mark.column + 1}" if mark else str(path)
    problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
    return InvalidArgument(f"{where}: not valid YAML: {problem}")
