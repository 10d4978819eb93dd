"""Per-layer metrics from the traced repetitions.

Times are seconds per repetition, the median over traced repetitions.  A
``self`` time excludes the time of child spans; a ``total`` time includes it.
Counts are per repetition and repeat exactly from one repetition to the next.
"""

from __future__ import annotations

import statistics

# metric -> (span name, "self" or "total")
TIMES = {
    "solvers.solve_box_qp.s": ("solvers.solve_box_qp", "total"),
    "solvers.pairwise_ascent.s": ("solvers.pairwise_ascent", "total"),
    "solvers.warm_start.s": ("solvers.solve_box_qp", "self"),
    "classifiers.margin.s": ("classifiers.margin", "total"),
    "classifiers.save_model.s": ("classifiers.save_model", "total"),
    "classifiers.load_model.s": ("classifiers.load_model", "total"),
    "pipeline.run_experiment.s": ("pipeline.run_experiment", "total"),
    "pipeline.write_outputs.s": ("pipeline.write_outputs", "self"),
    "pipeline.evaluate_saved.s": ("pipeline.evaluate_saved", "total"),
    "platoon.generate.s": ("platoon.generate", "total"),
    "logistic.train.s": ("logistic.train", "self"),
    "svm.train.s": ("svm.train", "self"),
    "svdd.train.s": ("svdd.train", "self"),
    "kernels.gram.s": ("kernels.gram", "total"),
    "families.train_family.s": ("families.train_family", "self"),
    "families.calibrate.s": ("families.calibrate", "self"),
    "scaling.calibrate.s": ("scaling.calibrate", "self"),
    "datagen.sample_gaussian.s": ("datagen.sample_gaussian", "total"),
    "datagen.standardize.s": ("datagen.standardize", "total"),
}

# counters reported as they are, per repetition
COUNTS = (
    "solvers.solves",
    "solvers.pair_updates",
    "solvers.unconverged",
    "classifiers.margin.calls",
    "classifiers.margin.points",
    "classifiers.margin.kernel_evals",
    "platoon.generate.scenarios",
    "logistic.newton_steps",
    "kernels.gram.calls",
    "kernels.gram.entries",
    "families.members",
    "families.members_failed",
    "scaling.calibrate.calls",
    "datagen.sample_gaussian.points",
)


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(recorder, reps) -> dict:
    """{metric: (unit, value)} over the traced repetitions."""
    runs = sorted({span.run for span in recorder.spans})
    totals = [recorder.totals(run) for run in runs]
    out = {}
    for metric, (span, kind) in TIMES.items():
        column = 0 if kind == "total" else 1
        out[metric] = ("s", _median([t.get(span, (0.0, 0.0))[column] for t in totals]))
    counters = [recorder.counters[run] for run in runs]
    for metric in COUNTS:
        out[metric] = ("count", _median([c.get(metric, 0.0) for c in counters]))
    points = _median([c.get("classifiers.margin.points", 0.0) for c in counters])
    repeats = _median([c.get("classifiers.margin.repeat_points", 0.0) for c in counters])
    out["classifiers.margin.repeat_frac"] = ("fraction", repeats / points if points else 0.0)
    out["pipeline.bytes_written"] = ("bytes", _median(reps.bytes_written))
    traced, untraced = _median(reps.times[True]), _median(reps.times[False])
    out["trace.overhead_s"] = ("s", traced - untraced)
    return out


def print_per_layer(metrics: dict, reps) -> None:
    for name, (unit, value) in metrics.items():
        print(f"{name:<34} {value:.6g} {unit}")
    traced, untraced = _median(reps.times[True]), _median(reps.times[False])
    print(f"run_s untraced {untraced:.6g} s (n={len(reps.times[False])}), "
          f"traced {traced:.6g} s (n={len(reps.times[True])})")
    warm = metrics["solvers.warm_start.s"][1]
    print(f"solvers.warm_start.s share of traced run_s: {warm:.6g} / {traced:.6g} = "
          f"{warm / traced:.4f}")
    points = metrics["classifiers.margin.points"][1]
    frac = metrics["classifiers.margin.repeat_frac"][1]
    print(f"classifiers.margin.repeat_frac: {frac * points:.0f} / {points:.0f} margin "
          f"point-evaluations repeat an earlier (model, array) pair = {frac:.4f}")
