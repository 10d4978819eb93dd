"""Tests of the benchmark itself: tiny smoke runs with the gate, the gate
catching broken outputs, the tracer's self-time arithmetic, and removal of
every probe after a traced run.

Run from the root of a checkout with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from tracer import Probes, Recorder
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _benchmark_names(section: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


def _run_cli(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_passes_gate_and_prints_every_metric(workload):
    result = _run_cli(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    assert sorted(result["metrics"]) == sorted(_benchmark_names("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_tiny_run_prints_every_layer_metric():
    result = _run_cli("screen_eval", trace=1)
    assert result["correct"] is True
    assert sorted(result["metrics"]) == sorted(_benchmark_names("per_layer"))
    assert result["metrics"]["solvers.solves"]["value"] == 9
    assert result["metrics"]["families.members"]["value"] == 54


def _tiny_repetitions(tmp_path, workload: str, traced: bool = False):
    paths = run.write_configs(workload, 5, "tiny", tmp_path)
    pipeline, configs = run.prepare(workload, paths)
    recorder = Recorder() if traced else None
    probes = Probes(recorder) if traced else None
    return run.Repetitions(pipeline, configs, WORKLOADS[workload]["evaluate"],
                           recorder, probes)


def test_gate_catches_a_wrong_joint_freq(tmp_path):
    reps = _tiny_repetitions(tmp_path, "screen_eval")
    reps.run_once(0, traced=False)
    out = Path(reps.configs[0].output_dir)
    report = out / "report.csv"
    lines = report.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    column = header.index("joint_freq")
    cells[column] = repr(float(cells[column]) + 1e-3)
    report.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
    with pytest.raises(checks.GateFailure, match="joint_freq"):
        checks.check_run(out, _result_of(reps), evaluate=True)


def _result_of(reps):
    """Re-run the first draw untimed to get an ExperimentResult to check against."""
    return reps.pipeline.run_experiment(reps.configs[0], write=False)


def test_gate_catches_changed_bytes():
    first = {"report.csv": "a", "models/svm.json": "b"}
    checks.check_identical(first, dict(first), 1)
    with pytest.raises(checks.GateFailure, match="byte-identity"):
        checks.check_identical(first, {**first, "report.csv": "c"}, 1)


def test_gate_catches_an_evaluation_mismatch(tmp_path):
    reps = _tiny_repetitions(tmp_path, "screen_eval")
    reps.run_once(0, traced=False)
    out = Path(reps.configs[0].output_dir)
    evaluation = out / "evaluation.csv"
    text = evaluation.read_text().splitlines()
    cells = text[1].split(",")
    cells[-1] = str(int(cells[-1]) + 1)     # n_test
    evaluation.write_text("\n".join([text[0], ",".join(cells)] + text[2:]) + "\n")
    with pytest.raises(checks.GateFailure, match="evaluation"):
        checks.check_run(out, _result_of(reps), evaluate=True)


def test_self_times_reconstruct_each_root_span(tmp_path):
    reps = _tiny_repetitions(tmp_path, "platoon_pipeline", traced=True)
    reps.run_once(0, traced=True)
    recorder = reps.recorder
    own = recorder.self_times()
    subtree = list(own)
    # children are recorded after their parents, so a reverse pass folds
    # every span's subtree total into its parent
    for index in range(len(recorder.spans) - 1, -1, -1):
        parent = recorder.spans[index].parent
        if parent is not None:
            subtree[parent] += subtree[index]
    roots = [i for i, s in enumerate(recorder.spans) if s.parent is None]
    assert roots and len(recorder.spans) > 50
    for i in roots:
        assert subtree[i] == pytest.approx(recorder.spans[i].duration, abs=1e-6)
    assert all(t >= -1e-9 for t in own)
    names = {s.name for s in recorder.spans}
    assert {"solvers.solve_box_qp", "solvers.pairwise_ascent", "classifiers.margin",
            "platoon.generate", "logistic.train", "kernels.gram"} <= names


def test_member_records_carry_errors_and_certificates(tmp_path):
    reps = _tiny_repetitions(tmp_path, "platoon_pipeline")
    reps.run_once(0, traced=False)
    failed = [m for m in reps.members if m["failed"]]
    assert failed and all("capacity" in m["error"] for m in failed)
    for m in reps.members:
        if not m["failed"]:
            assert {"iterations", "converged", "flags", "r", "n_U", "confidence"} <= set(m)


def test_nested_spans_self_time():
    recorder = Recorder()
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    recorder.end(inner)
    recorder.end(outer)
    recorder.spans[outer].start, recorder.spans[outer].end = 0.0, 3.0
    recorder.spans[inner].start, recorder.spans[inner].end = 1.0, 2.5
    assert recorder.self_times() == [1.5, 1.5]
    assert recorder.totals(0) == {"outer": (3.0, 1.5), "inner": (1.5, 1.5)}


def _bindings() -> dict:
    """Identity of every name a probe could replace."""
    from saferegions.classifiers import ScalableModel
    from saferegions.families import TRAINERS

    out = {}
    for name, module in list(sys.modules.items()):
        if name == "saferegions" or name.startswith("saferegions."):
            out.update({(name, k): id(v) for k, v in vars(module).items()})
    out.update({("TRAINERS", k): id(v) for k, v in TRAINERS.items()})
    for cls in ScalableModel.__subclasses__():
        out[(cls.__qualname__, "margin")] = id(cls.__dict__["margin"])
    return out


def test_probes_are_removed_after_a_traced_run(tmp_path):
    reps = _tiny_repetitions(tmp_path, "svdd_family", traced=True)
    before = _bindings()
    reps.probes.install()
    assert len(reps.probes.patched) > 20
    assert _bindings() != before
    reps.probes.remove()
    assert _bindings() == before
    reps.run_once(0, traced=True)
    assert reps.probes.patched == []
    assert _bindings() == before
    assert reps.recorder.spans
