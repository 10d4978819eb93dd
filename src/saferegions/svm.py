"""Margin classifier with an additive scaling level.

Training solves the weighted soft-margin problem

    min  (1/(2*eta)) |w|^2  +  (1/2) sum_i ((1-2*tau)*y_i + 1) xi_i
    s.t. y_i (w.phi(x_i) - b) <= xi_i - 1,   xi_i >= 0,

whose decision core is s(x) = w.phi(x) - b; the scaled decision value is
f(x, rho) = s(x) + rho and a point is predicted safe when f < 0.  Flipping
the labels turns this into a standard per-sample-cost SVM with
C_i = eta*(1-tau) on safe samples and eta*tau on unsafe ones, solved in the
dual by pairwise coordinate ascent (see solvers.py).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .classifiers import (
    Hyperparameters,
    ScalableModel,
    TrainSettings,
    TrainingDiagnostics,
    _single_margin,
    box_bounds,
)
from .errors import TrainingError
from .kernels import gram
from .solvers import DEFAULT_MAX_UPDATES, ascent_objective, solve_box_qp
from .validation import training_arrays

__all__ = ["ScSvmModel", "train_sc_svm"]

_BOUND_REL = 1e-8   # relative margin for "strictly inside the box"


@dataclass
class ScSvmModel(ScalableModel):
    """Trained margin model; immutable by convention."""

    variant = "svm"

    support_x: np.ndarray
    support_alpha: np.ndarray
    support_y: np.ndarray
    offset: float

    def _expansion(self):
        return self.support_x, -self.support_alpha * self.support_y, 0.0, -self.offset

    def margin(self, x):
        return _single_margin(self, x)


def train_sc_svm(train, hp: Hyperparameters, settings: TrainSettings | None = None,
                 gram_matrix: np.ndarray | None = None) -> ScSvmModel:
    """Fit the margin variant on a labelled dataset.

    ``gram_matrix`` lets callers share one Gram matrix across several fits on
    the same points; it must match ``hp.kernel`` resolved on the data.
    Raises ``TrainingError`` on single-class data or solver non-convergence.
    """
    settings = settings or TrainSettings()
    x, y = training_arrays(train)
    kernel = hp.kernel.resolved(x)
    K = gram(kernel, x) if gram_matrix is None else gram_matrix
    yhat = -y.astype(float)
    C = box_bounds(hp, y)
    max_iter = settings.max_iter if settings.max_iter is not None else DEFAULT_MAX_UPDATES

    alpha, g, iters, residual, converged, gap = solve_box_qp(
        K, yhat, C, np.zeros(y.size), np.ones(y.size), 1.0, settings.tol, max_iter)
    if not converged:
        raise TrainingError(
            f"dual solver stopped at residual {residual:.3e} > tol={settings.tol} "
            f"after {iters} updates")

    yg = yhat * g
    flags: dict = {}
    inside = (alpha > _BOUND_REL * C) & (alpha < C * (1.0 - _BOUND_REL))
    if inside.any():
        # stationarity at a strictly-inside support vector pins the offset:
        # w.phi(x_i) - b = yhat_i there
        b = float(np.mean(-yg[inside]))
    else:
        # otherwise any offset in the optimality interval is valid; take its
        # midpoint and report the choice
        b = float(-(gap[0] + gap[1]) / 2.0)
        flags["offset_from_interval"] = True

    objective = ascent_objective(K, yhat, alpha, np.ones(y.size), 1.0)
    diagnostics = TrainingDiagnostics(iterations=iters, residual=residual,
                                      converged=True, objective=objective, flags=flags)
    support = alpha > 0.0
    return ScSvmModel(
        support_x=x[support].copy(),
        support_alpha=alpha[support].copy(),
        support_y=y[support].copy(),
        offset=b,
        hyperparameters=replace(hp, kernel=kernel),
        diagnostics=diagnostics)
