"""Kernel evaluation and Gram construction."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from saferegions import InvalidArgument, KernelSpec
from saferegions import kernels
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
    # the lifted product [a, |a|^2, 1] @ [2 gamma b^T; -gamma; -gamma |b|^2]
    # is -gamma |a - b|^2; the lifted centers are C-ordered, as the product's
    # bits depend on its operands' layout
    points = np.hstack([a, np.einsum("ij,ij->i", a, a)[:, None], np.ones((a.shape[0], 1))])
    centers = np.ascontiguousarray(np.vstack([
        2.0 * spec.gamma * b.T, np.full((1, b.shape[0]), -spec.gamma),
        -spec.gamma * np.einsum("ij,ij->i", b, b)[None, :]]))
    return np.exp(np.minimum(points @ centers, 0.0))


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
    assert [w.shape for w in work] == [(8, 17)]
    # two full blocks, a short last block, one row and no rows, in one workspace
    for block in (x[:8], x[8:16], x[16:], x[:1], x[:0]):
        got = kernel_matrix(spec, block, centers, work)
        assert got.shape == (block.shape[0], 17)
        assert got.size == 0 or np.shares_memory(got, work[0])
        assert np.array_equal(got, kernel_matrix(spec, block, centers))
        assert np.array_equal(got, _allocating_formula(spec, block, centers))


def test_gaussian_workspace_lifts_again_for_other_centers_or_gamma():
    # the workspace keeps the lifted centers of the array it last saw; another
    # array of the same shape, or another gamma, must not reuse them
    rng = np.random.default_rng(29)
    x = rng.normal(size=(8, 3))
    first, second = rng.normal(size=(11, 3)), rng.normal(size=(11, 3))
    narrow, wide = KernelSpec(kind="gaussian", gamma=0.3), KernelSpec(kind="gaussian", gamma=2.0)
    work = kernel_workspace(narrow, 8, 11)
    for spec, centers in ((narrow, first), (narrow, second), (wide, second), (narrow, first)):
        got = kernel_matrix(spec, x, centers, work)
        assert np.array_equal(got, kernel_matrix(spec, x, centers))


def _direct_differences(gamma, a, b):
    return np.exp(-gamma * ((a[:, None] - b[None]) ** 2).sum(-1))


@pytest.mark.parametrize("d", [2, 40])
@pytest.mark.parametrize("offset", [0.0, 1e2, 1e3])
def test_gaussian_blocks_match_direct_differences(d, offset):
    # the oracle takes differences first, so it has no cancellation; the
    # lifted product's rounding grows with |a|^2 + |b|^2, the bound is
    # entrywise, and every value lies in [0, 1]
    rng = np.random.default_rng(int(offset) + d)
    a = rng.normal(size=(37, d)) + offset
    b = rng.normal(size=(29, d)) + offset
    b[:6] = a[10:16]                    # exact duplicates across a and b
    x = np.vstack([a, a[:4]])           # and within one Gram's point set
    spec = KernelSpec(kind="gaussian").resolved(a - offset)
    eps = np.finfo(float).eps

    def bound(p, q):
        sq_p, sq_q = (np.einsum("ij,ij->i", p, p), np.einsum("ij,ij->i", q, q))
        return spec.gamma * (d + 3) * eps * (sq_p[:, None] + sq_q[None, :])

    got = kernel_matrix(spec, a, b)
    assert np.all(np.abs(got - _direct_differences(spec.gamma, a, b)) <= bound(a, b))
    assert np.all((got >= 0.0) & (got <= 1.0))
    assert float(got.max()) > 0.5 and float(got[:, 6:].min()) < 0.5
    K = gram(spec, x)
    off_diagonal = ~np.eye(x.shape[0], dtype=bool)
    error = np.abs(K - _direct_differences(spec.gamma, x, x))
    assert np.all(error[off_diagonal] <= bound(x, x)[off_diagonal])
    assert np.all((K >= 0.0) & (K <= 1.0))


_GRAM_SPECS = [KernelSpec(kind="linear"), KernelSpec(kind="gaussian", gamma=0.7),
               KernelSpec(kind="polynomial", degree=3, coef0=1.0)]


def _mirrored_reference(spec, x):
    """The Gram as the whole kernel block, gaussian diagonal set to 1, and
    its upper triangle mirrored by the allocating sum."""
    k = kernel_matrix(spec, x, x).copy()
    if spec.kind == "gaussian":
        np.fill_diagonal(k, 1.0)
    return np.triu(k) + np.triu(k, 1).T


# one point; either side of a mirror block (128 rows); either side of the
# first gaussian chunk boundary (2**16 entries: 256 rows at n = 256, 255
# rows and a 2-row chunk at n = 257); several chunks; a 40-D case
@pytest.mark.parametrize("n, d", [(1, 2), (127, 3), (128, 3), (129, 3), (255, 2), (256, 2),
                                  (257, 2), (700, 1), (300, 40)])
@pytest.mark.parametrize("spec", _GRAM_SPECS, ids=lambda spec: spec.kind)
def test_gram_bits_equal_the_mirrored_kernel_block(spec, n, d):
    assert (kernels._MIRROR_ROWS, kernels._GRAM_CHUNK_ENTRIES) == (128, 2 ** 16)
    rng = np.random.default_rng(n * 100 + d)
    x = rng.normal(size=(n, d))
    got = gram(spec, x)
    assert got.tobytes() == _mirrored_reference(spec, x).tobytes()
    assert got.flags.c_contiguous
    # the mirror alone on entries that include -0.0, which the sum reads as
    # 0.0 (BLAS products start from +0.0, so a Gram rarely holds one)
    k = rng.normal(size=(n, n))
    k[::3] = -0.0
    expected = (np.triu(k) + np.triu(k, 1).T).tobytes()
    kernels._mirror_upper(k)
    assert k.tobytes() == expected


@pytest.mark.parametrize("spec", _GRAM_SPECS, ids=lambda spec: spec.kind)
def test_gram_peak_memory_is_about_one_n_by_n_array(spec):
    # the Gram's own n x n array plus its (d + 2) x n lifted operands;
    # building the block beside a second n x n scratch and mirroring it
    # through three more n x n temporaries peaked at 4 n^2 doubles
    n = 1100
    x = np.random.default_rng(17).normal(size=(n, 2))
    tracemalloc.start()
    try:
        gram(spec, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * n * n * 8, peak / (n * n * 8)
