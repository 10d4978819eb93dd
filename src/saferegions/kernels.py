"""Kernel specifications and Gram machinery for the classifiers.

``kernel_matrix`` builds a cross-kernel block in a fresh buffer or in place,
in a ``kernel_workspace`` a caller allocates once and reuses for every row
block.  A gaussian block is one product of lifted points ``[a, |a|^2, 1]``
and centers ``[2 gamma b; -gamma; -gamma |b|^2]``, which is -gamma |a - b|^2,
then one clamp and one exp in place, with no scratch.  ``gram`` is the block
of a point set against itself, mirrored in place.  Each kernel formula is
written once, so every path gives the same bits.
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
    """Buffer for ``kernel_matrix`` blocks of up to ``rows`` points against
    ``cols`` centers: one ``(rows, cols)`` array for every kind.  A gaussian
    kernel also keeps there, from its first call on a center array, their
    lifted form and a buffer for a block's lifted points, so that array must
    not change in place while the workspace is in use."""
    return _Workspace([np.empty((rows, cols))])


class _Workspace(list):
    lifted = None   # (centers, gamma, lifted centers, lifted-points buffer)


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray, work=None) -> np.ndarray:
    """Cross-kernel matrix of shape (len(a), len(b)).

    With ``work`` from ``kernel_workspace(spec, rows, len(b))``, ``rows >=
    len(a)``, the block is built in place in that buffer and the result is
    a view of it, overwritten by the next call on the same workspace;
    without it, a fresh buffer is allocated.  Both paths run the same
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
        np.matmul(*_lifted(work, a, b, _require_gamma(spec)), out=k)
        _gaussian_from_exponents(k)
    else:
        np.matmul(a, b.T, out=k)
        if spec.kind == "polynomial":
            k += spec.coef0
            np.power(k, spec.degree, out=k)
    return k


def _lifted(work: _Workspace, a: np.ndarray, b: np.ndarray, gamma: float) -> tuple:
    # points [a, |a|^2, 1] in the workspace and centers [2 gamma b^T; -gamma;
    # -gamma |b|^2], lifted again only for another center array or gamma;
    # their product is -gamma |a - b|^2
    d = b.shape[1]
    if work.lifted is None or work.lifted[0] is not b or work.lifted[1] != gamma:
        centers = np.empty((d + 2, b.shape[0]))
        np.multiply(b.T, 2.0 * gamma, out=centers[:d])
        centers[d] = -gamma
        np.multiply(_squared_norms(b), -gamma, out=centers[d + 1])
        work.lifted = (b, gamma, centers, np.empty((work[0].shape[0], d + 2)))
    points = work.lifted[3][:a.shape[0]]
    points[:, :d] = a
    np.einsum("ij,ij->i", a, a, out=points[:, d])
    points[:, d + 1] = 1.0
    return points, work.lifted[2]


# Kernel entries per row chunk of the gaussian clamp and exp, and rows per
# block of the in-place mirror.  gaussian gram ms, best of 7, one BLAS
# thread, 2-vCPU Xeon, n = 1100 / 3000, d = 2: clamp-and-exp chunks of
# 2**14, 2**16, 2**18 entries and the whole matrix 8.1 / 83.8, 8.2 / 81.3,
# 8.4 / 80.8, 7.6 / 81.4; mirror blocks of 32, 128, 512 rows 13.3 / 100.0,
# 13.0 / 94.1, 17.3 / 96.8 (measured before the lifted product).
_GRAM_CHUNK_ENTRIES = 2 ** 16
_MIRROR_ROWS = 128


def _gaussian_from_exponents(k: np.ndarray) -> None:
    # k holds -gamma |a - b|^2 from the lifted product and becomes exp(min(k,
    # 0)) in place, the clamp because cancellation can leave small positives;
    # a row chunk at a time, so both passes run on an L2-resident chunk
    rows = max(1, _GRAM_CHUNK_ENTRIES // max(1, k.shape[1]))
    for start in range(0, k.shape[0], rows):
        chunk = k[start:start + rows]
        np.minimum(chunk, 0.0, out=chunk)
        np.exp(chunk, out=chunk)


def gram(spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Symmetric Gram matrix of a point set: ``kernel_matrix`` of the set
    against itself in its one n x n array, the gaussian diagonal set to
    exactly 1 and the upper triangle mirrored in place, so K[i, j] == K[j, i]
    exactly and the bits are those of the block then ``np.triu(k) +
    np.triu(k, 1).T``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k = kernel_matrix(spec, points, points)
    if spec.kind == "gaussian":
        np.fill_diagonal(k, 1.0)
    _mirror_upper(k)
    return k


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
