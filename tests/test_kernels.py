"""Kernel evaluation and Gram construction."""

from __future__ import annotations

import numpy as np
import pytest

from saferegions import InvalidArgument, KernelSpec
from saferegions.kernels import (
    default_gamma,
    gram,
    kernel_diag,
    kernel_matrix,
    kernel_workspace,
)


def test_spec_validation():
    with pytest.raises(InvalidArgument):
        KernelSpec(kind="rbf")
    with pytest.raises(InvalidArgument):
        KernelSpec(kind="gaussian", gamma=-1.0)
    with pytest.raises(InvalidArgument):
        KernelSpec(kind="polynomial", degree=0)


def test_resolved_fills_gamma_from_data():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 3))
    spec = KernelSpec(kind="gaussian").resolved(x)
    assert spec.gamma == default_gamma(x)
    assert spec.gamma > 0.0
    # Linear kernels carry no gamma and resolve to themselves.
    lin = KernelSpec(kind="linear")
    assert lin.resolved(x) == lin


def test_default_gamma_degenerate_data():
    x = np.ones((10, 2))
    assert default_gamma(x) == 1.0


def test_record_round_trip():
    for spec in (KernelSpec(kind="linear"),
                 KernelSpec(kind="gaussian", gamma=0.25),
                 KernelSpec(kind="polynomial", degree=4, coef0=1.5)):
        assert KernelSpec.from_record(spec.to_record()) == spec


def test_linear_kernel_values():
    a = np.array([[1.0, 2.0], [0.0, -1.0]])
    b = np.array([[3.0, 1.0]])
    got = kernel_matrix(KernelSpec(kind="linear"), a, b)
    assert np.allclose(got, [[5.0], [-1.0]])


def test_polynomial_kernel_values():
    spec = KernelSpec(kind="polynomial", gamma=1.0, degree=2, coef0=1.0)
    a = np.array([[1.0, 0.0]])
    b = np.array([[2.0, 0.0]])
    assert np.allclose(kernel_matrix(spec, a, b), [[9.0]])


def test_gaussian_kernel_values():
    spec = KernelSpec(kind="gaussian", gamma=0.5)
    a = np.array([[0.0, 0.0]])
    b = np.array([[1.0, 1.0]])
    assert np.allclose(kernel_matrix(spec, a, b), [[np.exp(-1.0)]])


def test_gram_symmetry_diag_and_psd():
    rng = np.random.default_rng(3)
    for kind in ("linear", "gaussian", "polynomial"):
        for trial in range(5):
            x = rng.normal(size=(int(rng.integers(5, 30)), int(rng.integers(1, 4))))
            spec = KernelSpec(kind=kind).resolved(x)
            K = gram(spec, x)
            assert np.array_equal(K, K.T)
            assert np.allclose(np.diagonal(K), kernel_diag(spec, x), atol=1e-12)
            smallest = float(np.linalg.eigvalsh(K).min())
            assert smallest >= -1e-8 * np.trace(K) / K.shape[0]


def test_gaussian_gram_diag_exactly_one():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 2)) * 1e3
    K = gram(KernelSpec(kind="gaussian", gamma=0.1), x)
    assert np.array_equal(np.diagonal(K), np.ones(20))


def test_duplicate_points_give_equal_rows():
    x = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    K = gram(KernelSpec(kind="gaussian", gamma=1.0), x)
    assert np.array_equal(K[0], K[1])
    assert K[0, 1] == 1.0


def _allocating_formula(spec, a, b):
    """Each kernel as the allocating expressions write it, operation by operation."""
    if spec.kind == "linear":
        return a @ b.T
    if spec.kind == "polynomial":
        return (a @ b.T + spec.coef0) ** spec.degree
    sq = (np.einsum("ij,ij->i", a, a)[:, None] + np.einsum("ij,ij->i", b, b)[None, :]
          - 2.0 * (a @ b.T))
    return np.exp(-spec.gamma * np.maximum(sq, 0.0))


@pytest.mark.parametrize("spec", [KernelSpec(kind="linear"),
                                  KernelSpec(kind="gaussian", gamma=0.3),
                                  KernelSpec(kind="polynomial", degree=2, coef0=0.5),
                                  KernelSpec(kind="polynomial", degree=3, coef0=1.0)],
                         ids=lambda spec: spec.label())
def test_workspace_blocks_equal_allocated_blocks(spec):
    rng = np.random.default_rng(13)
    x = rng.normal(size=(23, 5))
    centers = rng.normal(size=(17, 5))
    work = kernel_workspace(spec, 8, centers.shape[0])
    assert [w.shape for w in work] == [(8, 17)] * (2 if spec.kind == "gaussian" else 1)
    # two full blocks, a short last block, one row and no rows, in one workspace
    for block in (x[:8], x[8:16], x[16:], x[:1], x[:0]):
        got = kernel_matrix(spec, block, centers, work)
        assert got.shape == (block.shape[0], 17)
        assert got.size == 0 or np.shares_memory(got, work[0])
        assert np.array_equal(got, kernel_matrix(spec, block, centers))
        assert np.array_equal(got, _allocating_formula(spec, block, centers))
