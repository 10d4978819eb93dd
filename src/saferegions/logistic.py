"""Kernel logistic classifier with a bounded, saturating decision value.

Training minimizes the weighted regularized loss over (beta, b):

    L = (1/(2*eta)) beta' K beta
      + (1/2) sum_i c_i log(1 + exp(y_i * z_i)),    z = K beta - b,

with the same class weights c_i = (1-2*tau)*y_i + 1 as the other variants.
The decision core is the logit s(x) = sum_i beta_i k(x_i, x) - b and the
scaled decision value is the centered sigmoid

    f(x, rho) = 1 / (1 + exp(-(s(x) + rho))) - 1/2,

which is strictly increasing in rho with limits -1/2 and +1/2, so it orders
points exactly like the raw logit while staying bounded.

The optimizer is a damped Newton iteration: exact gradient and Hessian of L,
a tiny ridge on the Hessian solve, and Armijo backtracking on the full step.
The loss decreases monotonically across accepted steps and iteration ends
when the gradient sup-norm reaches tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .classifiers import (
    Hyperparameters,
    ScalableModel,
    TrainSettings,
    TrainingDiagnostics,
    _single_margin,
)
from .errors import TrainingError
from .kernels import KernelSpec, gram
from .validation import training_arrays

__all__ = ["ScLrModel", "train_sc_lr", "lr_loss", "lr_gradient"]

_DEFAULT_MAX_ITER = 50_000
_RIDGE = 1e-10
_MAX_BACKTRACKS = 60


@dataclass
class ScLrModel(ScalableModel):
    """Trained logistic model; immutable by convention."""

    variant = "lr"

    train_x: np.ndarray
    beta: np.ndarray
    offset: float
    hyperparameters: Hyperparameters
    kernel: KernelSpec
    diagnostics: TrainingDiagnostics

    def _expansion(self):
        return self.train_x, self.beta, 0.0, -self.offset

    def margin(self, x):
        return _single_margin(self, x)

    def _link(self, t):
        return expit(t) - 0.5

    def _payload(self) -> dict:
        return {
            "train_x": self.train_x.tolist(),
            "beta": self.beta.tolist(),
            "offset": self.offset,
        }

    @classmethod
    def _from_payload(cls, record, hp, kernel, diagnostics):
        return cls(
            train_x=np.asarray(record["train_x"], dtype=float),
            beta=np.asarray(record["beta"], dtype=float),
            offset=float(record["offset"]),
            hyperparameters=hp, kernel=kernel, diagnostics=diagnostics)


def lr_loss(K, y, c, eta, beta, b):
    """Objective value; log(1+exp) evaluated in a non-overflowing form."""
    z = K @ beta - b
    return float((beta @ (K @ beta)) / (2.0 * eta)
                 + 0.5 * np.sum(c * np.logaddexp(0.0, y * z)))


def lr_gradient(K, y, c, eta, beta, b):
    """Exact gradient of the loss with respect to (beta, b)."""
    z = K @ beta - b
    s = expit(y * z)
    grad_beta = (K @ beta) / eta + 0.5 * (K @ (c * y * s))
    grad_b = -0.5 * float(np.sum(c * y * s))
    return grad_beta, grad_b


def train_sc_lr(train, hp: Hyperparameters, settings: TrainSettings | None = None,
                gram_matrix: np.ndarray | None = None) -> ScLrModel:
    """Fit the logistic variant on a labelled dataset.

    Raises ``TrainingError`` on single-class data (the unregularized offset
    would run away) and when the optimizer cannot reach tolerance.
    """
    settings = settings or TrainSettings()
    x, y = training_arrays(train)
    kernel = hp.kernel.resolved(x)
    K = gram(kernel, x) if gram_matrix is None else gram_matrix
    n = y.size
    yf = y.astype(float)
    c = (1.0 - 2.0 * hp.tau) * yf + 1.0
    eta = hp.eta
    max_iter = settings.max_iter if settings.max_iter is not None else _DEFAULT_MAX_ITER

    beta = np.zeros(n)
    b = 0.0
    z = K @ beta - b
    loss = float(0.5 * np.sum(c * np.logaddexp(0.0, yf * z)))
    monotone = True
    converged = False
    grad_norm = np.inf
    it = 0

    for it in range(1, max_iter + 1):
        t = yf * z
        s = expit(t)
        Kbeta = K @ beta
        grad_beta = Kbeta / eta + 0.5 * (K @ (c * yf * s))
        grad_b = -0.5 * float(np.sum(c * yf * s))
        grad_norm = max(float(np.abs(grad_beta).max()), abs(grad_b))
        if grad_norm <= settings.tol:
            converged = True
            break

        # Newton system on (beta, b); d is the curvature of the data term
        d = 0.5 * c * s * (1.0 - s)
        Kd = K * d[None, :]
        H = np.empty((n + 1, n + 1))
        H[:n, :n] = K / eta + Kd @ K
        H[:n, n] = -(K @ d)
        H[n, :n] = H[:n, n]
        H[n, n] = float(d.sum())
        ridge = _RIDGE * (1.0 + float(np.trace(H[:n, :n])) / n)
        H[np.diag_indices(n + 1)] += ridge

        rhs = np.concatenate([-grad_beta, [-grad_b]])
        try:
            step = np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(H, rhs, rcond=None)
        step_beta, step_b = step[:n], float(step[n])

        # z is affine in the step, so backtracking needs no extra matvecs
        Kstep = K @ step_beta
        slope = float(grad_beta @ step_beta + grad_b * step_b)
        if slope >= 0.0:
            # not a descent direction (pathological curvature); fall back
            step_beta, step_b = -grad_beta, -grad_b
            Kstep = K @ step_beta
            slope = float(grad_beta @ step_beta + grad_b * step_b)

        width = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            beta_try = beta + width * step_beta
            b_try = b + width * step_b
            z_try = z + width * (Kstep - step_b)
            loss_try = float((beta_try @ (Kbeta + width * Kstep)) / (2.0 * eta)
                             + 0.5 * np.sum(c * np.logaddexp(0.0, yf * z_try)))
            if loss_try <= loss + settings.armijo * width * slope:
                accepted = True
                break
            width *= 0.5
        if not accepted:
            break
        if loss_try > loss:
            monotone = False
        beta, b, z, loss = beta_try, b_try, z_try, loss_try

    if not converged:
        raise TrainingError(
            f"newton iteration stopped with gradient sup-norm {grad_norm:.3e} > "
            f"tol={settings.tol} after {it} steps")

    diagnostics = TrainingDiagnostics(
        iterations=it, residual=grad_norm, converged=True, objective=loss,
        flags={"monotone_loss": monotone})
    return ScLrModel(
        train_x=x.copy(), beta=beta.copy(), offset=float(b),
        hyperparameters=replace(hp, kernel=kernel), kernel=kernel,
        diagnostics=diagnostics)
