"""Benchmark: time to a certified report, split by module.

Usage, from the root of a checkout:

    python3 bench/run.py --workload svdd_family --seed 1 --seconds 30 --trace 0

Each repetition runs ``run_experiment`` (and, on screen_eval,
``evaluate_saved``) on a config generated from the seed, then checks the
files it wrote.  With ``--trace 0`` repetitions cycle over the workload's
data draws and the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` repetitions of the first draw alternate between
untraced and traced, and the JSON carries the per-layer metrics.  Human
readable lines come first; results, spans and per-member records are written
to ``bench/_out/<workload>-<seed>/`` once at the end.  Exit code 0 means
every repetition ran and passed the gate.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
MIN_TRACED = 2
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# On a shared two-core machine two BLAS threads made the svdd_family warm
# start slower (15.1 s against 9.2 s a repetition) and its times more spread.
BLAS_THREADS = 1


def pin_blas_threads() -> None:
    """Must run before numpy is imported; child processes inherit it."""
    for name in _BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)


def work_dir(workload: str, seed: int, size: str) -> Path:
    suffix = "" if size == "full" else f"-{size}"
    return BENCH_DIR / "_out" / f"{workload}-{seed}{suffix}"


def config_paths(workload: str, base: Path) -> dict:
    """{"warmup": path, draw: path} of the configs a run uses."""
    from workloads import draws

    paths = {"warmup": base / "warmup.yaml"}
    paths.update({d: base / f"draw-{d}.yaml" for d in range(draws(workload))})
    return paths


def write_configs(workload: str, seed: int, size: str, base: Path) -> dict:
    """Write the warm-up config and one config per draw; YAML accepts JSON."""
    from workloads import config_mapping

    base.mkdir(parents=True, exist_ok=True)
    paths = config_paths(workload, base)
    for key, path in paths.items():
        if key == "warmup":
            mapping = config_mapping(workload, seed, 0, "warmup", str(base / "warmup"))
        else:
            mapping = config_mapping(workload, seed, key, size, str(base / "run"))
        path.write_text(json.dumps(mapping, indent=1) + "\n")
    return paths


def require_sources() -> None:
    if not (SRC / "saferegions" / "__init__.py").is_file():
        raise SystemExit(f"bench: no saferegions sources under {SRC}")


def import_package():
    """Import saferegions from this checkout's ``src``, nowhere else."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import saferegions
    from saferegions import pipeline

    if Path(saferegions.__file__).resolve().parent != SRC / "saferegions":
        raise SystemExit(f"bench: imported saferegions from {saferegions.__file__}")
    return pipeline


def prepare(workload: str, paths: dict):
    """Set-up before the first timed repetition: import, validate, warm up.

    Returns the pipeline module and the validated config of every draw.
    """
    from workloads import evaluates

    pipeline = import_package()
    from saferegions import load_config

    configs = [load_config(path) for key, path in paths.items() if key != "warmup"]
    warmup = load_config(paths["warmup"])
    shutil.rmtree(warmup.output_dir, ignore_errors=True)
    pipeline.run_experiment(warmup)
    if evaluates(workload):
        pipeline.evaluate_saved(warmup.output_dir)
    return pipeline, configs


def time_setup(args) -> list:
    """Wall time of fresh processes doing exactly the set-up, spawn to exit."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe",
               "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"bench: set-up probe exited with {done.returncode}")
    return times


def environment() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libs / "libscipy_openblas*"))):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = int(getter())
    return {"nproc": len(os.sched_getaffinity(0)), "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": threads if threads is not None else BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def member_records(result) -> list:
    """Per-member solver and certificate record, read from the result."""
    out = []
    for (variant, eps), family in result.family_results.items():
        for m in family.members:
            record = {"variant": variant, "eps": eps, "member": m.index,
                      "eta": m.hyperparameters.eta, "tau": m.hyperparameters.tau,
                      "failed": m.failed, "error": m.error,
                      "selected": m.index == family.selected_index}
            if m.model is not None:
                d = m.model.diagnostics
                record.update(iterations=d.iterations, converged=d.converged,
                              flags=dict(d.flags))
            if m.certificate is not None:
                c = m.certificate
                record.update(r=c.plan.r, n_c=c.plan.n_c, n_U=c.n_U,
                              confidence=c.confidence, certified=c.certified)
            out.append(record)
    return out


class Repetitions:
    """Runs timed repetitions, gates each, and keeps the samples."""

    def __init__(self, pipeline, configs: list, evaluate: bool, recorder=None, probes=None):
        self.pipeline = pipeline
        self.configs = configs
        self.evaluate = evaluate
        self.recorder = recorder
        self.probes = probes
        self.times = {False: [], True: []}
        self.digests = {}        # draw -> output digests of its first repetition
        self.quality = []        # gate figures, one entry per draw
        self.members = None      # per-member records of the first repetition
        self.bytes_written = []  # per traced repetition

    @property
    def count(self) -> int:
        return len(self.times[False]) + len(self.times[True])

    def run_once(self, draw: int, traced: bool) -> None:
        import checks

        config = self.configs[draw]
        out = Path(config.output_dir)
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        if traced:
            self.recorder.run = len(self.times[True])
            self.probes.install()
            root = self.recorder.begin("bench.repetition")
        try:
            start = time.perf_counter()
            result = self.pipeline.run_experiment(config)
            if self.evaluate:
                self.pipeline.evaluate_saved(out)
            elapsed = time.perf_counter() - start
        finally:
            if traced:
                self.recorder.end(root)
                self.probes.remove()
        repetition = self.count
        self.times[traced].append(elapsed)
        digests = checks.digest_outputs(out)
        if draw in self.digests:
            checks.check_identical(self.digests[draw], digests, repetition)
        else:
            self.digests[draw] = digests
            self.quality.append(checks.check_run(out, result, self.evaluate))
            if self.members is None:
                self.members = member_records(result)
        if traced:
            self.bytes_written.append(checks.bytes_written(out))

    def measure(self, seconds: float, traced_mode: bool) -> None:
        """Repeat until the next repetition would overrun ``seconds``.

        Untraced, repetitions cycle over the draws, at least once through
        them plus one repeat of the first draw, so every run checks byte
        identity.  Traced, repetitions of the first draw alternate untraced
        and traced, at least MIN_TRACED of each, so both kinds see the same
        inputs and machine state.
        """
        start = time.perf_counter()
        while True:
            if traced_mode:
                self.run_once(0, len(self.times[True]) < len(self.times[False]))
                enough = min(len(self.times[False]), len(self.times[True])) >= MIN_TRACED
            else:
                self.run_once(self.count % len(self.configs), False)
                enough = self.count > len(self.configs)
            if not enough:
                continue
            typical = statistics.median(self.times[False] + self.times[True])
            if time.perf_counter() - start + typical > seconds:
                break


def _summary(values: list, center=statistics.median) -> dict:
    return {"value": center(values), "n": len(values), "min": min(values),
            "max": max(values), "center": center.__name__}


def end_to_end(reps: Repetitions, setup: list) -> dict:
    """{metric: (unit, summary)}.  Times are medians over samples;
    safe_coverage is the mean over the selected rows of every draw."""
    members = sum(q["members"] for q in reps.quality)
    failed = sum(q["members_failed"] for q in reps.quality)
    coverage = [v for q in reps.quality for v in q["safe_coverage"]]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": ("s", _summary(setup)),
        "run_s": ("s", _summary(reps.times[False])),
        "peak_rss_mb": ("MB", _summary([peak_mb])),
        "member_ok_ratio": ("fraction", _summary([(members - failed) / members])),
        "safe_coverage": ("fraction", _summary(coverage, statistics.fmean)),
    }


def print_end_to_end(metrics: dict, reps: Repetitions) -> None:
    for name, (unit, s) in metrics.items():
        print(f"{name:<18} {s['value']:.6g} {unit}  ({s['center']} of n={s['n']}, "
              f"min {s['min']:.6g}, max {s['max']:.6g})")
    members = sum(q["members"] for q in reps.quality)
    failed = sum(q["members_failed"] for q in reps.quality)
    violations = sum(q["bound_violations"] for q in reps.quality)
    bound_use = [v for q in reps.quality for v in q["bound_use"]]
    per_draw = ", ".join(f"{q['members_failed']}/{q['members']}" for q in reps.quality)
    print(f"member_fail_ratio  {failed}/{members} members over (draw, variant, eps); "
          f"per draw {per_draw}")
    print(f"bound_violations   {violations} of {len(bound_use)} selected rows over "
          "eps + 3*sqrt(eps(1-eps)/n_test)")
    print(f"bound_use          {statistics.fmean(bound_use):.6g} mean joint_freq / bound "
          f"(min {min(bound_use):.6g}, max {max(bound_use):.6g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_blas_threads()
    from workloads import WORKLOADS, evaluates

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    base = work_dir(args.workload, args.seed, args.size)
    if args.probe:
        prepare(args.workload, config_paths(args.workload, base))
        return 0

    require_sources()
    paths = write_configs(args.workload, args.seed, args.size, base)
    setup = time_setup(args)
    pipeline, configs = prepare(args.workload, paths)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))

    import checks
    import layers
    from tracer import Probes, Recorder

    recorder = Recorder() if args.trace else None
    probes = Probes(recorder) if args.trace else None
    reps = Repetitions(pipeline, configs, evaluates(args.workload), recorder, probes)
    failed = 0
    try:
        reps.measure(args.seconds, bool(args.trace))
        correct = True
    except checks.GateFailure as exc:
        correct = False
        print(f"GATE FAILED: {exc}")
    except Exception:  # the program under test failed a repetition
        traceback.print_exc()
        correct, failed = False, 1
    attempted = max(1, reps.count + failed)
    if not correct:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    record = {"workload": args.workload, "seed": args.seed, "environment": env,
              "quality": reps.quality, "run_s": reps.times[False], "setup_s": setup}
    if args.trace:
        per_layer = layers.per_layer(recorder, reps)
        layers.print_per_layer(per_layer, reps)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (unit, value) in per_layer.items()}
        record.update(per_layer=metrics, traced_run_s=reps.times[True])
        (base / "trace.json").write_text(json.dumps(
            {**record, "spans": recorder.to_records(),
             "counters": {run: dict(c) for run, c in recorder.counters.items()},
             "members": reps.members}, indent=1) + "\n")
    else:
        summary = end_to_end(reps, setup)
        print_end_to_end(summary, reps)
        metrics = {name: {"value": s["value"], "unit": unit}
                   for name, (unit, s) in summary.items()}
        record.update(metrics=metrics, members=reps.members)
        (base / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
