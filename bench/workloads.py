"""The benchmark workloads as saferegions experiment configs.

Each workload is a config mapping built from the benchmark seed, a data
draw and a size; the seed of the draw is written into the config and the
program receives nothing else.  A run measures several draws, because run
time and the calibrated regions vary from one data set to the next and a
single draw would make one run unrepresentative of the workload.
``full`` is the measured size, ``warmup`` the small run made before timing
(same variants, grid and eps, so every code path is imported and touched),
and ``tiny`` the size the benchmark's own tests use.
"""

from __future__ import annotations

# The family grid shared by every workload: 9 members per variant.
_GRID = {"etas": [0.01, 0.1, 1.0], "taus": [0.1, 0.5, 0.9],
         "kernels": [{"kind": "gaussian"}]}

WORKLOADS = {
    # criterion 08 scaled down: the dual solver dominates
    "svdd_family": {
        "data": {"generator": "gaussian", "gaussian": {"outlier_prob": 0.1}},
        "classifier": {"variants": ["svdd"]},
        "risk": {"eps": [0.05]},
        "evaluate": False,
        "draws": 3,
    },
    # criterion 09 scaled down: simulator, Newton solver, failed members
    "platoon_pipeline": {
        "data": {"generator": "platoon"},
        "classifier": {"variants": ["svm", "svdd", "lr"]},
        "risk": {"eps": [0.05, 0.1]},
        "evaluate": False,
        "draws": 2,
    },
    # test-margin evaluation, membership writing and reading models back
    "screen_eval": {
        "data": {"generator": "gaussian"},
        "classifier": {"variants": ["svm", "lr"]},
        "risk": {"eps": [0.01, 0.05, 0.1]},
        "evaluate": True,
        "draws": 4,
    },
}

# (n_train, n_test, delta) per workload and size.  At full size svdd_family
# needs about 500 safe training points (half of n_train) so that the
# eta=0.01, tau=0.9 member can carry the ball's mass and, as in criterion 08,
# no member fails.  On the platoon data that member fails by design at each
# eps; with n_train below about 600 a second SVDD member fails too.
SIZES = {
    "full": {"svdd_family": (1100, 10_000, 1e-6),
             "platoon_pipeline": (700, 1000, 1e-6),
             "screen_eval": (400, 10_000, 1e-6)},
    "warmup": {"svdd_family": (200, 500, 1e-2),
               "platoon_pipeline": (150, 100, 5e-2),
               "screen_eval": (100, 500, 1e-2)},
    "tiny": {"svdd_family": (150, 400, 1e-2),
             "platoon_pipeline": (150, 150, 1e-2),
             "screen_eval": (80, 400, 1e-2)},
}


def evaluates(workload: str) -> bool:
    """Whether a repetition also runs ``evaluate_saved`` on its run directory."""
    return WORKLOADS[workload]["evaluate"]


def draws(workload: str) -> int:
    """How many data sets, each drawn from its own seed, one run measures."""
    return WORKLOADS[workload]["draws"]


def config_mapping(workload: str, seed: int, draw: int, size: str, output_dir: str) -> dict:
    """The config a repetition runs, as the mapping written to YAML."""
    spec = WORKLOADS[workload]
    n_train, n_test, delta = SIZES[size][workload]
    return {
        "seed": int(seed) * 1000 + int(draw),
        "output_dir": str(output_dir),
        "data": {**spec["data"], "n_train": n_train, "n_test": n_test},
        "classifier": {**spec["classifier"], **_GRID},
        "risk": {**spec["risk"], "delta": delta, "beta": 0.5},
    }
