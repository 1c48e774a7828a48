"""Checks of the benchmark itself, on smoke-size fixtures.

    python3 -m pytest perfbench

The exact counters and quality totals of a traced smoke run must repeat
exactly across two runs of the same seed, the tracer must refuse to run
when a binding it wraps has gone, and the metrics must be the ones
BENCHMARK.json lists.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402

run._load_program()


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_counters_repeat_exactly(name):
    first = run.run_workload(name, seed=7, seconds=0.0, trace=True, smoke=True)
    second = run.run_workload(name, seed=7, seconds=0.0, trace=True, smoke=True)
    assert first["problems"] == [] and second["problems"] == []
    assert first["counters_per_scene"] == second["counters_per_scene"]
    assert first["quality_totals"] == second["quality_totals"]
    assert first["counters_per_scene"][0]["apply_calls"] > 0


def test_missing_binding_fails_loudly(monkeypatch):
    import resofilt.pipeline

    monkeypatch.delattr(resofilt.pipeline, "apply_filter")
    with pytest.raises(tracing.MissingBinding, match="resofilt.pipeline.apply_filter"):
        with tracing.Tracer().installed():
            pass


def test_bindings_restored_after_tracing():
    import resofilt.cli

    original = resofilt.cli.run_pipeline
    with tracing.Tracer().installed():
        assert resofilt.cli.run_pipeline is not original
    assert resofilt.cli.run_pipeline is original


def test_self_time_subtracts_children():
    spans = [
        tracing.Span("cli.main", 0.0, 10.0, -1, 1),
        tracing.Span("pipeline.run_pipeline", 1.0, 9.0, 0, 1),
        tracing.Span("filtering.apply_filter", 2.0, 5.0, 1, 1),
        tracing.Span("filtering.apply_filter", 5.0, 7.0, 1, 1),
    ]
    assert tracing.self_times(spans) == {
        1: {"cli.main": 2.0, "pipeline.run_pipeline": 3.0, "filtering.apply_filter": 5.0}
    }


def test_tail_keeps_ten_samples_above():
    samples = [float(v) for v in range(100)]
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == 90.0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    plain = run.run_workload("static-1024", seed=1, seconds=0.0, trace=False, smoke=True)
    traced = run.run_workload("static-1024", seed=1, seconds=0.0, trace=True, smoke=True)
    assert sorted(plain["end_to_end"]) == sorted(m["name"] for m in spec["end_to_end"])
    assert sorted(traced["per_layer"]) == sorted(m["name"] for m in spec["per_layer"])
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in spec["workloads"])


def test_score_against_ground_truth():
    truth = {"objects": [[[10, 10, 20, 20], [50, 50, 54, 54]]]}
    box = {"x0": 10, "y0": 10, "x1": 20, "y1": 20}
    stray = {"x0": 90, "y0": 90, "x1": 95, "y1": 95}
    report = {"frames": [{"frame": 0, "confirmed": [box, stray]}]}
    q = run.score(report, truth)
    assert (q["objects"], q["hits"], q["confirmed"], q["true_boxes"]) == (2, 1, 2, 1)
    assert q["iou_sum"] == 1.0
    assert run.iou([0, 0, 1, 1], [1, 1, 2, 2]) == 1 / 7
