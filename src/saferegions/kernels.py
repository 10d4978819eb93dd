"""Kernel specifications and Gram machinery for the classifiers."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgument
from .validation import checked_int, checked_real

__all__ = ["KernelSpec", "default_gamma", "kernel_matrix", "gram", "kernel_diag"]

_KINDS = ("linear", "gaussian", "polynomial")


@dataclass(frozen=True)
class KernelSpec:
    """Declarative kernel choice.

    ``gamma=None`` on a gaussian kernel means "resolve from data at fit time"
    via :func:`default_gamma`; trained models always store the resolved value.
    """

    kind: str = "gaussian"
    gamma: float | None = None
    degree: int = 3
    coef0: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidArgument(f"unknown kernel kind {self.kind!r}, expected one of {_KINDS}")
        if self.gamma is not None and not checked_real(self.gamma, "gamma") > 0:
            raise InvalidArgument(f"gamma must be positive, got {self.gamma!r}")
        checked_real(self.coef0, "coef0")
        if self.kind == "polynomial" and (int(self.degree) < 1 or self.degree != int(self.degree)):
            raise InvalidArgument(f"degree must be a positive integer, got {self.degree!r}")

    def resolved(self, x: np.ndarray) -> "KernelSpec":
        """Return a spec with any data-dependent defaults filled in from x."""
        if self.kind == "gaussian" and self.gamma is None:
            return replace(self, gamma=default_gamma(x))
        return self

    def label(self) -> str:
        """Compact one-token description, used in report tables."""
        if self.kind == "linear":
            return "linear"
        if self.kind == "gaussian":
            g = "auto" if self.gamma is None else f"{self.gamma:.6g}"
            return f"gaussian(gamma={g})"
        return f"polynomial(degree={int(self.degree)},coef0={self.coef0:.6g})"

    def to_record(self) -> dict:
        return {"kind": self.kind, "gamma": self.gamma,
                "degree": int(self.degree), "coef0": float(self.coef0)}

    @classmethod
    def from_record(cls, record: dict) -> "KernelSpec":
        """Inverse of ``to_record`` and the parser of config kernel entries;
        missing keys take defaults; unknown keys, fractional degrees and
        non-finite or non-numeric reals raise."""
        unknown = sorted(set(record) - {"kind", "gamma", "degree", "coef0"})
        if unknown:
            raise InvalidArgument(f"unknown kernel keys: {unknown}")
        gamma = record.get("gamma")
        return cls(kind=record.get("kind", "gaussian"),
                   gamma=None if gamma is None else checked_real(gamma, "kernel gamma"),
                   degree=checked_int(record.get("degree", 3), "kernel degree"),
                   coef0=checked_real(record.get("coef0", 0.0), "kernel coef0"))


def default_gamma(x: np.ndarray) -> float:
    """Width heuristic 1 / (n_features * var(x)), falling back to 1 for
    constant data."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise InvalidArgument(f"need a non-empty 2-D sample to resolve gamma, got shape {x.shape}")
    variance = float(x.var())
    if variance <= 0.0:
        return 1.0
    return 1.0 / (x.shape[1] * variance)


def _require_gamma(spec: KernelSpec) -> float:
    if spec.gamma is None:
        raise InvalidArgument("gaussian kernel used before gamma was resolved")
    return spec.gamma


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-kernel matrix of shape (len(a), len(b))."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise InvalidArgument(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if spec.kind == "linear":
        return a @ b.T
    if spec.kind == "gaussian":
        k = _squared_distances(a, b)
        k *= -_require_gamma(spec)
        return np.exp(k, out=k)
    return (a @ b.T + spec.coef0) ** int(spec.degree)


def gram(spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Symmetric Gram matrix of a point set.

    The upper triangle is computed once and mirrored, so K[i, j] == K[j, i]
    exactly; the gaussian diagonal is exactly 1.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k = kernel_matrix(spec, points, points)
    if spec.kind == "gaussian":
        np.fill_diagonal(k, 1.0)
    # mirror the upper triangle for exact symmetry
    upper = np.triu(k)
    k = upper + np.triu(k, 1).T
    return k


def kernel_diag(spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Vector of self-similarities k(x_i, x_i)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if spec.kind == "gaussian":
        _require_gamma(spec)
        return np.ones(points.shape[0])
    sq_norms = np.einsum("ij,ij->i", points, points)
    if spec.kind == "linear":
        return sq_norms
    return (sq_norms + spec.coef0) ** int(spec.degree)


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (|a|^2 + |b|^2) - 2 a.b, clamped: cancellation can leave small negatives;
    # built in place, so a block holds two n x m buffers at most
    a_sq = np.einsum("ij,ij->i", a, a)[:, None]
    b_sq = np.einsum("ij,ij->i", b, b)[None, :]
    ab = a @ b.T
    ab *= 2.0
    sq = np.add(a_sq, b_sq)
    np.subtract(sq, ab, out=sq)
    np.maximum(sq, 0.0, out=sq)
    return sq
