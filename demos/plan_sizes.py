#!/usr/bin/env python3
"""Print calibration sample sizes across a grid of risk settings.

The closed-form rule n_c = ceil((kappa(beta)/eps) * ln(1/delta)) trades the
risk level eps and confidence target delta against how much held-out data
calibration needs.  This sweep shows how fast the budget grows as either
knob tightens, and verifies each size actually certifies.
"""

import argparse

from saferegions import ScalingPlan, kappa


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beta", type=float, default=0.5,
                        help="discarding split in (0, 1)")
    args = parser.parse_args()

    print(f"kappa({args.beta}) = {kappa(args.beta):.6f}")
    print(f"{'eps':>6} {'delta':>8} {'n_c':>7} {'r':>5} {'tail':>12} certified")
    for eps in (0.01, 0.05, 0.1, 0.2, 0.5):
        for delta in (1e-2, 1e-4, 1e-6):
            plan = ScalingPlan.from_risk(eps, delta, args.beta)
            print(f"{eps:>6} {delta:>8.0e} {plan.n_c:>7} {plan.r:>5} "
                  f"{plan.tail:>12.3e} {plan.certified}")


if __name__ == "__main__":
    main()
