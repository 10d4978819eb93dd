"""Kernel specifications and Gram machinery for the classifiers.

``kernel_matrix`` builds a cross-kernel block either in fresh buffers or in
place, in a ``kernel_workspace`` that a caller allocates once and reuses for
every row block.  Each kernel formula is written once, so both paths give
the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgument
from .validation import checked_int, checked_real

__all__ = ["KernelSpec", "default_gamma", "kernel_matrix", "kernel_workspace", "gram",
           "kernel_diag"]

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
        if self.gamma is not None:
            object.__setattr__(self, "gamma", checked_real(self.gamma, "kernel gamma"))
            if not self.gamma > 0:
                raise InvalidArgument(f"gamma must be positive, got {self.gamma!r}")
        object.__setattr__(self, "coef0", checked_real(self.coef0, "kernel coef0"))
        object.__setattr__(self, "degree", checked_int(self.degree, "kernel degree"))
        if self.kind == "polynomial" and self.degree < 1:
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
        return f"polynomial(degree={self.degree},coef0={self.coef0:.6g})"

    def to_record(self) -> dict:
        return {"kind": self.kind, "gamma": self.gamma,
                "degree": self.degree, "coef0": self.coef0}

    @classmethod
    def from_record(cls, record: dict) -> "KernelSpec":
        """Inverse of ``to_record``; missing keys take defaults; unknown keys,
        fractional degrees and non-finite or non-numeric reals raise."""
        unknown = sorted(set(record) - {"kind", "gamma", "degree", "coef0"})
        if unknown:
            raise InvalidArgument(f"unknown kernel keys: {unknown}")
        return cls(**record)


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


def kernel_workspace(spec: KernelSpec, rows: int, cols: int) -> list:
    """Buffers for ``kernel_matrix`` blocks of up to ``rows`` points against
    ``cols`` centers: one ``(rows, cols)`` array, two for a gaussian kernel."""
    return [np.empty((rows, cols)) for _ in range(2 if spec.kind == "gaussian" else 1)]


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray, work=None) -> np.ndarray:
    """Cross-kernel matrix of shape (len(a), len(b)).

    With ``work`` from ``kernel_workspace(spec, rows, len(b))``, ``rows >=
    len(a)``, the block is built in place in those buffers and the result is
    a view of them, overwritten by the next call on the same workspace;
    without it, fresh buffers are allocated.  Both paths run the same
    floating-point operations in the same order.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise InvalidArgument(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if work is None:
        work = kernel_workspace(spec, a.shape[0], b.shape[0])
    k = work[0][:a.shape[0]]
    if spec.kind == "gaussian":
        _squared_distances(a, b, k, work[1][:a.shape[0]])
        k *= -_require_gamma(spec)
        return np.exp(k, out=k)
    np.matmul(a, b.T, out=k)
    if spec.kind == "polynomial":
        k += spec.coef0
        np.power(k, spec.degree, out=k)
    return k


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
    return (sq_norms + spec.coef0) ** spec.degree


def _squared_distances(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                       scratch: np.ndarray) -> None:
    # (|a|^2 + |b|^2) - 2 a.b into out, clamped: cancellation can leave small
    # negatives; scratch (same shape) holds the product
    a_sq = np.einsum("ij,ij->i", a, a)[:, None]
    b_sq = np.einsum("ij,ij->i", b, b)[None, :]
    np.matmul(a, b.T, out=scratch)
    scratch *= 2.0
    np.add(a_sq, b_sq, out=out)
    np.subtract(out, scratch, out=out)
    np.maximum(out, 0.0, out=out)
