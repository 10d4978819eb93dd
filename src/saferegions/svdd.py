"""Enclosing-ball classifier with an additive scaling level.

Training solves the weighted ball problem

    min  (1/(2*eta)) R^2  +  (1/2) sum_i ((1-2*tau)*y_i + 1) xi_i
    s.t. y_i (|phi(x_i) - w|^2 - R^2) <= xi_i,   xi_i >= 0.

The decision core is s(x) = |phi(x) - w|^2 - R^2; f(x, rho) = s(x) + rho and
points with f < 0 are predicted safe, so the region at rho = 0 is the ball
itself.  In the rescaled dual the center is w = 2 * sum_i alpha_i y_i phi(x_i)
with box 0 <= alpha_i <= C_i (same per-class weights as the margin variant)
and weighted mass sum_i y_i alpha_i = 1/2:

    maximize  sum_i alpha_i y_i K_ii - 2 sum_ij alpha_i alpha_j y_i y_j K_ij.

Feasibility requires the safe-class capacity sum_{y_i=+1} C_i to reach 1/2.
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
from .errors import TrainingError

__all__ = ["ScSvddModel", "train_sc_svdd"]

_MASS = 0.5   # required weighted mass sum_i y_i alpha_i


@dataclass
class ScSvddModel(ScalableModel):
    """Trained ball model; immutable by convention."""

    variant = "svdd"

    support_x: np.ndarray
    support_alpha: np.ndarray
    support_y: np.ndarray
    r_squared: float
    center_sq_norm: float

    def _expansion(self):
        # |phi(x) - w|^2 - R^2 with w = 2 sum_i alpha_i y_i phi(x_i)
        return (self.support_x, -4.0 * self.support_alpha * self.support_y, 1.0,
                self.center_sq_norm - self.r_squared)

    def margin(self, x):
        return _single_margin(self, x)


def train_sc_svdd(train, hp: Hyperparameters, settings: TrainSettings | None = None,
                  gram_matrix: np.ndarray | None = None, pivoting=None) -> ScSvddModel:
    """Fit the ball variant on a labelled dataset.

    ``gram_matrix`` and ``pivoting`` share a Gram and its factor across fits,
    as in ``train_sc_svm``.  All-safe data is legitimate (a one-class ball);
    raises ``TrainingError`` when the safe-class capacity cannot carry the
    required weighted mass, and on solver non-convergence.
    """
    x, y, K, hp, settings = _training_problem(train, hp, settings, gram_matrix,
                                              require_both_classes=False)
    C = box_bounds(hp, y)
    safe = y > 0
    capacity = float(C[safe].sum())
    if capacity < _MASS:
        raise TrainingError(
            f"safe-class capacity {capacity:.6g} cannot reach the required mass {_MASS}; "
            f"increase eta or decrease tau")

    # deterministic feasible start: fill safe coordinates to their bound in
    # index order until the mass constraint is met
    alpha0 = np.zeros(y.size)
    remaining = _MASS
    for idx in np.flatnonzero(safe):
        take = min(C[idx], remaining)
        alpha0[idx] = take
        remaining -= take
        if remaining <= 0.0:
            break

    yf = y.astype(float)
    alpha, g, _, inside, at_upper, fields = _fit_box_dual(
        x, y, K, yf, C, alpha0, yf * np.diagonal(K), 4.0, settings, pivoting)

    # y_i*g_i = K_ii - 4(Ku)_i = |phi_i - w|^2 - |w|^2, so squared distances
    # of training points to the center come straight from the gradient
    u = alpha * yf
    center_sq_norm = float(4.0 * (u @ (K @ u)))
    dist_sq = yf * g + center_sq_norm

    flags = fields["diagnostics"].flags
    if inside.any():
        r_squared = float(np.mean(dist_sq[inside]))
    else:
        at_cap = safe & at_upper
        if not at_cap.any():
            raise TrainingError("no support points available to recover the ball radius")
        r_squared = float(dist_sq[at_cap].max())
        flags["radius_from_bound"] = True
    if r_squared < 0.0:
        flags["radius_clipped"] = True
        r_squared = 0.0
    return ScSvddModel(**fields, r_squared=r_squared, center_sq_norm=center_sq_norm,
                       hyperparameters=hp)
