"""Span recorder and call probes for the traced benchmark mode.

The recorder keeps spans in memory (name, start, end, parent, run id) and
per-run counters; nothing is written until the caller dumps it.  Probes wrap
public functions of the saferegions modules from outside: every binding of a
probed function in every loaded ``saferegions`` module is replaced by a timing
wrapper, as are the trainers in ``families.TRAINERS`` and ``margin`` on every
model class.  ``Probes.remove`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """In-memory spans and counters; one run id per benchmark repetition."""

    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(float)))
    run: int = 0
    _stack: list = field(default_factory=list)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[self.run][name] += value

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its direct children.

        Spans of one thread nest strictly, so children never overlap and
        their durations can simply be summed.
        """
        out = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                out[span.parent] -= span.duration
        return out

    def totals(self, run: int) -> dict:
        """{span name: (inclusive seconds, self seconds)} summed over one run."""
        sums: dict = defaultdict(lambda: [0.0, 0.0])
        for span, own in zip(self.spans, self.self_times()):
            if span.run == run:
                sums[span.name][0] += span.duration
                sums[span.name][1] += own
        return {name: tuple(v) for name, v in sums.items()}

    def to_records(self) -> list:
        origin = self.spans[0].start if self.spans else 0.0
        return [{"name": s.name, "start": s.start - origin, "end": s.end - origin,
                 "parent": s.parent, "run": s.run} for s in self.spans]


def _traced(recorder: Recorder, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(recorder, args, kwargs, result)
        return result

    return wrapper


PACKAGE = "saferegions"


# Counters read from a probed call's arguments and result.

def _count_solve(rec, args, kwargs, result):
    rec.count("solvers.solves")
    rec.count("solvers.pair_updates", result[2])
    rec.count("solvers.unconverged", 0 if result[4] else 1)


def _count_gram(rec, args, kwargs, result):
    n = result.shape[0]
    rec.count("kernels.gram.calls")
    rec.count("kernels.gram.entries", n * n)


def _count_lr(rec, args, kwargs, result):
    rec.count("logistic.newton_steps", result.diagnostics.iterations)


def _count_calibrate_family(rec, args, kwargs, result):
    rec.count("families.members", len(result.members))
    rec.count("families.members_failed", sum(1 for m in result.members if m.failed))


def _count_calibrate(rec, args, kwargs, result):
    rec.count("scaling.calibrate.calls")


def _count_gaussian(rec, args, kwargs, result):
    rec.count("datagen.sample_gaussian.points", result.n_samples)


def _count_platoon(rec, args, kwargs, result):
    data = result[0] if isinstance(result, tuple) else result
    rec.count("platoon.generate.scenarios", data.n_samples)


# (home module, function name, span name, counter hook)
FUNCTION_PROBES = [
    ("pipeline", "run_experiment", "pipeline.run_experiment", None),
    ("pipeline", "_write_outputs", "pipeline.write_outputs", None),
    ("pipeline", "evaluate_saved", "pipeline.evaluate_saved", None),
    ("classifiers", "save_model", "classifiers.save_model", None),
    ("classifiers", "load_model", "classifiers.load_model", None),
    ("families", "train_family", "families.train_family", None),
    ("families", "calibrate_trained_family", "families.calibrate", _count_calibrate_family),
    ("scaling", "calibrate", "scaling.calibrate", _count_calibrate),
    ("kernels", "gram", "kernels.gram", _count_gram),
    ("solvers", "solve_box_qp", "solvers.solve_box_qp", _count_solve),
    ("solvers", "pairwise_ascent", "solvers.pairwise_ascent", None),
    ("datagen", "sample_gaussian", "datagen.sample_gaussian", _count_gaussian),
    ("datagen", "standardize", "datagen.standardize", None),
    ("platoon", "generate_platoon_dataset", "platoon.generate", _count_platoon),
]

# variant -> (span name, counter hook) for the entries of families.TRAINERS
TRAINER_PROBES = {
    "svm": ("svm.train", None),
    "svdd": ("svdd.train", None),
    "lr": ("logistic.train", _count_lr),
}


class MarginCounter:
    """Counts margin work: calls, points x expansion size, and the share of
    point-evaluations repeating an earlier (model, array) pair of the run.

    Seen models and arrays are kept referenced until ``reset`` so that their
    ids and buffer addresses cannot be reused by other objects meanwhile.
    """

    def __init__(self):
        self._seen: dict = {}

    def reset(self) -> None:
        self._seen.clear()

    def __call__(self, rec, args, kwargs, result):
        model, x = args[0], (args[1] if len(args) > 1 else kwargs["x"])
        points = 1 if getattr(x, "ndim", 1) == 1 else x.shape[0]
        expansion = 0
        for name in ("support_x", "train_x"):
            if hasattr(model, name):
                expansion = getattr(model, name).shape[0]
                break
        rec.count("classifiers.margin.calls")
        rec.count("classifiers.margin.points", points)
        rec.count("classifiers.margin.kernel_evals", points * expansion)
        interface = getattr(x, "__array_interface__", None)
        if interface is None:
            return
        key = (id(model), interface["data"][0], interface["shape"], interface["strides"])
        if key in self._seen:
            rec.count("classifiers.margin.repeat_points", points)
        else:
            self._seen[key] = (model, x)


def _model_classes(base) -> list:
    """Every subclass of ``base`` that defines its own ``margin``."""
    found, pending = [], list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "margin" in cls.__dict__:
            found.append(cls)
    return sorted(set(found), key=lambda c: c.__qualname__)


class Probes:
    """Installs the timing wrappers and removes them again.

    ``patched`` lists (owner, key, original) for every replaced binding, in
    installation order.  A probed function that no longer exists is skipped,
    and its metrics read 0.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.margins = MarginCounter()
        self.patched: list = []

    @staticmethod
    def _modules() -> list:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _replace(self, owner, key, wrapper) -> None:
        if isinstance(owner, dict):
            self.patched.append((owner, key, owner[key]))
            owner[key] = wrapper
        else:
            self.patched.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, wrapper)

    def install(self) -> "Probes":
        modules = self._modules()
        by_name = {m.__name__: m for m in modules}
        for home, attr, span, hook in FUNCTION_PROBES:
            home_module = by_name.get(f"{PACKAGE}.{home}")
            original = getattr(home_module, attr, None) if home_module else None
            if original is None:
                continue
            wrapper = _traced(self.recorder, span, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
        families = by_name.get(f"{PACKAGE}.families")
        trainers = getattr(families, "TRAINERS", {})
        for variant, (span, hook) in TRAINER_PROBES.items():
            if variant in trainers:
                self._replace(trainers, variant,
                              _traced(self.recorder, span, trainers[variant], hook))
        classifiers = by_name.get(f"{PACKAGE}.classifiers")
        base = getattr(classifiers, "ScalableModel", None)
        for cls in _model_classes(base) if base is not None else []:
            self._replace(cls, "margin", _traced(self.recorder, "classifiers.margin",
                                                 cls.__dict__["margin"], self.margins))
        return self

    def remove(self) -> None:
        while self.patched:
            owner, key, original = self.patched.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self.margins.reset()
