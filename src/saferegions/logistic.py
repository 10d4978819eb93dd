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

The optimizer is a damped Newton iteration with Armijo backtracking on the
full step.  With g = beta/eta + (1/2) c*y*s, s = sigmoid(y*z), the gradient
is (K g, -(1/2) sum c*y*s), and with d = (1/2) c*s*(1-s) the Hessian is

    [K/eta + K D K,  -K d]
    [-d' K,        sum(d)],      D = diag(d).

Every solution of the reduced system (I/eta + D K) dbeta - d db = -g,
-d' K dbeta + sum(d) db = -g_b solves the Newton system (multiply its first
row by K).  With h = sqrt(d) and H = diag(h), the reduced system needs one
Cholesky factorization of the n x n matrix M = I/eta + H K H, which is
symmetric positive definite with smallest eigenvalue at least 1/eta:

    (I/eta + D K)^-1 r = eta (r - h * M^-1 (h * K r)),

and the bias Schur complement is h' M^-1 h / eta, positive whenever d != 0.
When every d underflows the step falls back to steepest descent.  The loss
decreases monotonically across accepted steps and iteration ends when the
gradient sup-norm reaches tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve
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


def _newton_step(K, eta, g, grad_beta, grad_b, d):
    """Newton step (dbeta, db) from one Cholesky factorization of
    M = I/eta + H K H, H = diag(sqrt(d)); ``grad_beta`` is ``K @ g``.

    Returns None when the bias Schur complement is not positive and finite
    (every d underflowed) or M does not factor.
    """
    h = np.sqrt(d)
    M = K * np.outer(h, h)
    M.flat[::M.shape[0] + 1] += 1.0 / eta
    try:
        # M is symmetric, so its transpose is the Fortran-ordered view
        # LAPACK can factor in place
        factor = cho_factor(M.T, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    # q = M^-1 (h * K g) and p = M^-1 h; then (I/eta + D K)^-1 (-g) is
    # -eta (g - h*q), (I/eta + D K)^-1 d is h*p, d' K applied to the first
    # is -h'q and the Schur complement sum(d) - d' K h*p is h'p / eta
    q, p = cho_solve(factor, np.column_stack([h * grad_beta, h]),
                     check_finite=False).T
    schur = float(h @ p) / eta
    if not (np.isfinite(schur) and schur > 0.0):
        return None
    step_b = (-grad_b - float(h @ q)) / schur
    step_beta = eta * (h * q - g) + step_b * (h * p)
    return step_beta, step_b


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
        s = expit(yf * z)
        Kbeta = K @ beta
        dz = 0.5 * (c * yf * s)     # derivative of the data term in z
        g = beta / eta + dz
        grad_beta = K @ g
        grad_b = -float(np.sum(dz))
        grad_norm = max(float(np.abs(grad_beta).max()), abs(grad_b))
        if grad_norm <= settings.tol:
            converged = True
            break

        step = _newton_step(K, eta, g, grad_beta, grad_b, 0.5 * c * s * (1.0 - s))
        if step is not None:
            step_beta, step_b = step
            # z is affine in the step, so backtracking needs no extra matvecs
            Kstep = K @ step_beta
            slope = float(grad_beta @ step_beta + grad_b * step_b)
        if step is None or slope >= 0.0:
            # no curvature left, or not a descent direction; fall back
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
