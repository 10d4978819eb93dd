"""Fixtures shared by the test modules."""

from __future__ import annotations

from typing import NamedTuple

import pytest

import saferegions.classifiers as classifiers


class KernelBlock(NamedTuple):
    kind: str
    rows: int
    cols: int


@pytest.fixture
def kernel_blocks(monkeypatch):
    """Every kernel block the margin evaluator builds from now on, as
    ``KernelBlock(kind, rows, cols)`` in call order; the real
    ``kernel_matrix`` builds each, with any workspace passed through."""
    blocks = []
    real = classifiers.kernel_matrix

    def recording(spec, a, b, *args, **kwargs):
        blocks.append(KernelBlock(spec.kind, len(a), len(b)))
        return real(spec, a, b, *args, **kwargs)

    monkeypatch.setattr(classifiers, "kernel_matrix", recording)
    return blocks
