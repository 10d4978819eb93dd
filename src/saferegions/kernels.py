"""Kernel specifications and Gram machinery for the classifiers.

``kernel_matrix`` builds a cross-kernel block either in fresh buffers or in
place, in a ``kernel_workspace`` that a caller allocates once and reuses for
every row block.  ``gram`` builds a symmetric Gram in its one n x n output
array, plus a scratch of a few rows for the gaussian squared distances, and
mirrors its upper triangle in place.  Each kernel formula is written once,
so every path gives the same bits.
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
    np.matmul(a, b.T, out=k)
    if spec.kind == "gaussian":
        _gaussian_from_products(k, _squared_norms(a)[:, None], _squared_norms(b)[None, :],
                                work[1], _require_gamma(spec))
    elif spec.kind == "polynomial":
        _polynomial_from_products(spec, k)
    return k


# Kernel entries per row chunk of a gaussian Gram (a 512 KiB scratch) and
# rows per block of the in-place mirror.  gaussian gram ms, best of 7, one
# BLAS thread, 2-vCPU Xeon, at n = 1100 / 3000 (d = 2): chunks of 2**14,
# 2**16, 2**18 entries 11.4 / 90.7, 12.4 / 92.9, 12.4 / 95.6; mirror blocks
# of 32, 128, 512 rows 13.3 / 100.0, 13.0 / 94.1, 17.3 / 96.8.
_GRAM_CHUNK_ENTRIES = 2 ** 16
_MIRROR_ROWS = 128


def gram(spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Symmetric Gram matrix of a point set.

    The upper triangle is computed once and mirrored, so K[i, j] == K[j, i]
    exactly; the gaussian diagonal is exactly 1.  The matrix is built in its
    one n x n output array: the product ``points @ points.T`` goes there,
    a gaussian kernel turns it into kernel values one row chunk at a time
    through a scratch of ``_GRAM_CHUNK_ENTRIES`` entries, and the mirror
    copies the upper triangle into the lower one in place.  These are the
    operations, in the order, of ``kernel_matrix`` on the whole point set
    followed by ``np.triu(k) + np.triu(k, 1).T``, so the bits are the same.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    k = np.empty((n, n))
    np.matmul(points, points.T, out=k)
    if spec.kind == "gaussian":
        _gaussian_gram_rows(k, points, _require_gamma(spec))
        np.fill_diagonal(k, 1.0)
    elif spec.kind == "polynomial":
        _polynomial_from_products(spec, k)
    _mirror_upper(k)
    return k


def _gaussian_gram_rows(k: np.ndarray, points: np.ndarray, gamma: float) -> None:
    # the products in k become kernel values one row chunk at a time, so the
    # scratch holds a few rows, not a second n x n array
    sq = _squared_norms(points)
    rows = max(1, _GRAM_CHUNK_ENTRIES // max(1, k.shape[1]))
    scratch = np.empty((min(rows, k.shape[0]), k.shape[1]))
    for start in range(0, k.shape[0], rows):
        _gaussian_from_products(k[start:start + rows], sq[start:start + rows, None],
                                sq[None, :], scratch, gamma)


def _mirror_upper(k: np.ndarray) -> None:
    """``k[...] = np.triu(k) + np.triu(k, 1).T`` in place, block row by block
    row: each diagonal block as that formula, each block of the upper
    rectangle plus 0.0 (as the sum adds, so a -0.0 reads 0.0) and copied
    transposed into the lower one."""
    n = k.shape[0]
    for start in range(0, n, _MIRROR_ROWS):
        stop = min(start + _MIRROR_ROWS, n)
        diagonal = k[start:stop, start:stop]
        diagonal[...] = np.triu(diagonal) + np.triu(diagonal, 1).T
        upper = k[start:stop, stop:]
        upper += 0.0
        k[stop:, start:stop] = upper.T


def kernel_diag(spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Vector of self-similarities k(x_i, x_i)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if spec.kind == "gaussian":
        _require_gamma(spec)
        return np.ones(points.shape[0])
    sq_norms = _squared_norms(points)
    if spec.kind == "linear":
        return sq_norms
    return (sq_norms + spec.coef0) ** spec.degree


def _squared_norms(points: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", points, points)


def _gaussian_from_products(k: np.ndarray, a_sq: np.ndarray, b_sq: np.ndarray,
                            scratch: np.ndarray, gamma: float) -> None:
    # k holds the products a.b; it becomes exp(-gamma * max((|a|^2 + |b|^2)
    # - 2 a.b, 0)) in place, the clamp because cancellation can leave small
    # negatives; the first rows of scratch hold |a|^2 + |b|^2
    scratch = scratch[:k.shape[0]]
    k *= 2.0
    np.add(a_sq, b_sq, out=scratch)
    np.subtract(scratch, k, out=k)
    np.maximum(k, 0.0, out=k)
    k *= -gamma
    np.exp(k, out=k)


def _polynomial_from_products(spec: KernelSpec, k: np.ndarray) -> None:
    k += spec.coef0
    np.power(k, spec.degree, out=k)
