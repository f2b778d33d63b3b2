"""Tests of the benchmark harness itself (not of spdsgd)."""

import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402

bench_run.import_program()

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
from bench_trace import Span, TraceSummary, Tracer, covered, self_times  # noqa: E402
from spdsgd import manifold  # noqa: E402


# Sizes small enough to run every workload in a few seconds.
TINY = {
    "sweep_excess": replace(bw.WORKLOADS["sweep_excess"], n=32, batches="2^2..2^4", seeds="0,1"),
    "fixed_budget": replace(bw.WORKLOADS["fixed_budget"], n=32, steps=20),
    "descriptors_large_n": replace(bw.WORKLOADS["descriptors_large_n"], side=32, steps=10),
}


def _span(sid, start, end, parent=-1, name="x", work=None):
    return Span(sid, name, start, end, parent, 0, work)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0, 100, []) == 0
    assert covered(0, 100, [(10, 30), (20, 50)]) == 40
    assert covered(0, 100, [(10, 20), (10, 20)]) == 10
    assert covered(0, 100, [(60, 70), (10, 20), (65, 80)]) == 30
    assert covered(10, 20, [(0, 15), (18, 40), (50, 60)]) == 7


def test_self_times_on_nested_and_overlapping_spans():
    spans = [
        _span(0, 0, 100),
        _span(1, 10, 30, parent=0),   # two children that overlap, as
        _span(2, 20, 50, parent=0),   # from two worker threads
        _span(3, 60, 70, parent=0),
        _span(4, 62, 65, parent=3),   # grandchild: not subtracted from span 0
        _span(5, 200, 210),           # unrelated root
    ]
    self_ns = self_times(spans)
    assert self_ns == {0: 100 - 40 - 10, 1: 20, 2: 30, 3: 10 - 3, 4: 3, 5: 10}


def test_summary_filters_by_ancestor_and_sums_work():
    spans = [
        _span(0, 0, 100, name="rsgd.run", work={"steps": 4}),
        _span(1, 10, 20, parent=0, name="objective.objective_summary"),
        _span(2, 12, 18, parent=1, name="numpy.linalg.eigh", work={"matrices": 8, "bytes": 1}),
        _span(3, 200, 300, name="rsgd.reference_centroid"),
        _span(4, 210, 220, parent=3, name="objective.objective_summary"),
        _span(5, 212, 218, parent=4, name="numpy.linalg.eigh", work={"matrices": 8, "bytes": 1}),
    ]
    t = TraceSummary(spans)
    assert t.calls("objective.objective_summary") == 2
    assert t.calls("objective.objective_summary", "rsgd.run") == 1
    assert t.work("numpy.linalg.eigh", "matrices") == 16
    assert t.work("numpy.linalg.eigh", "matrices", "rsgd.run") == 8
    metrics = bench_trace.layer_metrics(t, 0.0)
    assert metrics["objective.matrices_per_step"] == 2.0
    assert metrics["rsgd.reference_evals"] == 1
    assert metrics["rsgd.self_us_per_step"] == pytest.approx(90e-3 / 4)


def _bindings():
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "spdsgd" or name.startswith("spdsgd."))]
    modules += [np.linalg, bw.objective.Dataset]
    return {(id(m), key): value for m in modules for key, value in list(vars(m).items())}


def test_tracer_restores_every_wrapped_function():
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert getattr(bw.rsgd.run, "bench_traced", False)
            assert getattr(sys.modules["spdsgd.experiment"].run, "bench_traced", False)
            assert getattr(sys.modules["spdsgd.objective"]._eigh, "bench_traced", False)
            assert getattr(np.linalg.eigh, "bench_traced", False)
            raise RuntimeError("leave the block by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(getattr(v, "bench_traced", False) for v in after.values())


def test_tracer_links_each_call_to_its_caller():
    tracer = Tracer()
    with tracer.installed():
        manifold.exp_map(np.eye(3), 0.1 * np.eye(3))
    by_id = {s.sid: s for s in tracer.spans}
    (root,) = [s for s in tracer.spans if s.parent == -1]
    assert root.name == "manifold.exp_map"
    for s in tracer.spans:
        if s.parent >= 0:
            parent = by_id[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
    eighs = [s for s in tracer.spans if s.name == "numpy.linalg.eigh"]
    assert {by_id[s.parent].name for s in eighs} == {"symmat._eigh"}
    assert all(s.work == {"matrices": 1, "bytes": 9 * 8 + 3 * 8 + 9 * 8} for s in eighs)


def test_compare_expected_counts_each_mismatch_once():
    outcome = bw.Outcome(ops={"a": None, "b": None, "c": None})
    outcome.outputs = {"a": {"K": 5, "final_f": 1.0}, "b": {"C1": 2.0}, "c": {"K": 7}}
    expected = {"a": {"K": 6, "final_f": 1.0 + 1e-6}, "b": {"C1": 2.0 * (1 + 1e-8)}, "c": {"K": 7}}
    bw.compare_expected(outcome, expected)
    assert outcome.failed == 1
    assert outcome.ops["a"].startswith("K is 5")


def test_fit_values_share_a_floor_set_by_c1_and_c2():
    expected = {"fit": {"C1": 3e-15, "C2": 200.0, "b_star": 4.0}}
    outcome = bw.Outcome(ops={"fit": None})
    outcome.outputs = {"fit": {"C1": 8e-15, "C2": 200.0, "b_star": 4.0}}
    bw.compare_expected(outcome, expected)
    assert outcome.failed == 0
    outcome.outputs = {"fit": {"C1": 1e-3, "C2": 200.0, "b_star": 4.0}}
    bw.compare_expected(outcome, expected)
    assert outcome.ops["fit"].startswith("C1 is 0.001")


def test_fit_report_is_read_by_line_not_by_comma():
    stdout = "\n".join([
        "schedule: staircase:0.005,0.5,60,4",
        "epsilon: 5.9",
        "points: (4,35.2) (8,34.4)",
        "C1: 5.5",
        "C2: 0.25",
        "residual: 0.01",
        "critical_batch_numeric: 4",
        "critical_batch_closed_form: 6.5",
        "boundary: true",
        "batch_lower_bound: 1.5",
    ])
    assert bw.read_fit(stdout) == {"C1": 5.5, "C2": 0.25, "b_star": 4.0}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_passes_its_checks(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "SETUP_MIN_SECONDS", 0.0)
    work = tmp_path / "work"
    work.mkdir()
    record = bench_run.measure(TINY[name], 3, 0.0, trace, work)
    assert record["failed"] == 0, record["failures"]
    assert record["steps"] > 0
    spec = bench_run.load_spec()["per_layer" if trace else "end_to_end"]
    assert [(k, m["unit"]) for k, m in record["metrics"].items()] == [
        (m["name"], m["unit"]) for m in spec]
    assert all(math.isfinite(m["value"]) for m in record["metrics"].values())
    if trace:
        assert (tmp_path / f"spans-{name}-seed3.csv.gz").is_file()


def test_traced_counts_repeat_exactly(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "SETUP_MIN_SECONDS", 0.0)
    counts = []
    for i in range(2):
        work = tmp_path / str(i) / "work"
        work.mkdir(parents=True)
        record = bench_run.measure(TINY["sweep_excess"], 3, 0.0, True, work)
        counts.append({k: m["value"] for k, m in record["metrics"].items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["rsgd.steps"] > 0


def test_benchmark_fails_without_the_program_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "bench" / f.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fixed_budget", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
