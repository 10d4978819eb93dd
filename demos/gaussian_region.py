#!/usr/bin/env python3
"""Calibrate a safety region on two overlapping Gaussian classes.

Trains one weighted kernel SVM, then calibrates its region at several risk
levels on fresh calibration draws.  The headline number per level is the
joint frequency of (unsafe AND inside the region) on a large test set,
which the certificate bounds by eps with the stated confidence.
"""

import argparse

import numpy as np

from saferegions import (
    GaussianSpec,
    Hyperparameters,
    KernelSpec,
    ScalingPlan,
    calibrate,
    sample_gaussian,
    train_sc_svm,
)

SPEC = GaussianSpec(mu_safe=(-1.0, -1.0), mu_unsafe=(1.0, 1.0),
                    cov_safe=((1.0, 0.0), (0.0, 1.0)),
                    cov_unsafe=((1.0, 0.0), (0.0, 1.0)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-train", type=int, default=2000)
    parser.add_argument("--n-test", type=int, default=50_000)
    parser.add_argument("--delta", type=float, default=1e-6)
    args = parser.parse_args()

    train = sample_gaussian(SPEC, args.n_train, seed=args.seed)
    test = sample_gaussian(SPEC, args.n_test, seed=args.seed + 1)
    model = train_sc_svm(train, Hyperparameters(eta=1.0, tau=0.5,
                                                kernel=KernelSpec(kind="linear")))
    radii = model.boundary_radius(test.x)
    unsafe = test.y == -1
    accuracy = float(np.mean(model.predict(test.x, 0.0) == test.y))
    print(f"trained on {args.n_train} points, "
          f"test accuracy at rho=0: {accuracy:.4f}")

    print(f"{'eps':>6} {'n_c':>6} {'rho_eps':>10} {'joint freq':>11} {'bound':>6}")
    for eps in (0.01, 0.05, 0.1, 0.2):
        plan = ScalingPlan.from_risk(eps, args.delta)
        n_c = plan.n_c
        calib = sample_gaussian(SPEC, n_c, seed=args.seed + 100 + int(1000 * eps))
        cert = calibrate(model, calib, plan)
        freq = float(np.mean(unsafe & (radii > cert.rho_eps)))
        print(f"{eps:>6} {n_c:>6} {cert.rho_eps:>10.4f} {freq:>11.4f} {eps:>6}")
    print("each joint frequency should sit at or below its eps "
          "(up to binomial noise)")


if __name__ == "__main__":
    main()
