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

from dataclasses import dataclass

import numpy as np

from .classifiers import (
    Hyperparameters,
    ScalableModel,
    TrainSettings,
    _fit_box_dual,
    _single_margin,
    _training_problem,
    box_bounds,
)

__all__ = ["ScSvmModel", "train_sc_svm"]


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
                 gram_matrix: np.ndarray | None = None, pivoting=None) -> ScSvmModel:
    """Fit the margin variant on a labelled dataset.

    ``gram_matrix`` lets callers share one Gram matrix across several fits on
    the same points; it must match ``hp.kernel`` resolved on the data.
    ``pivoting``, ``solvers.first_pivoting(gram_matrix)``, shares its factor
    too.  Raises ``TrainingError`` on single-class data or solver
    non-convergence.
    """
    x, y, K, hp, settings = _training_problem(train, hp, settings, gram_matrix)
    yhat = -y.astype(float)
    _, g, gap, inside, _, fields = _fit_box_dual(
        x, y, K, yhat, box_bounds(hp, y), np.zeros(y.size), np.ones(y.size), 1.0, settings,
        pivoting)
    if inside.any():
        # stationarity at a strictly-inside support vector pins the offset:
        # w.phi(x_i) - b = yhat_i there
        b = float(np.mean(-(yhat * g)[inside]))
    else:
        # otherwise any offset in the optimality interval is valid; take its
        # midpoint and report the choice
        b = float(-(gap[0] + gap[1]) / 2.0)
        fields["diagnostics"].flags["offset_from_interval"] = True
    return ScSvmModel(**fields, offset=b, hyperparameters=hp)
