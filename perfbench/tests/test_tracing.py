"""Self time of spans, and the metric names the benchmark declares."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402


def _span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


def test_self_time_of_nested_and_sibling_spans():
    spans = [
        _span("op", 0.0, 10.0, -1),  # 0
        _span("a", 1.0, 4.0, 0),  # 1: child of op
        _span("b", 1.5, 2.5, 1),  # 2: child of a
        _span("c", 3.0, 3.5, 1),  # 3: sibling of b
        _span("d", 5.0, 9.0, 0),  # 4: sibling of a
        _span("e", 6.0, 7.0, 4),  # 5: child of d
        _span("op", 10.0, 12.0, -1, op=1),  # 6: second op, no children
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 1.0, 0.5, 3.0, 1.0, 2.0])


def test_overlapping_children_are_counted_once():
    spans = [
        _span("p", 0.0, 10.0, -1),
        _span("x", 2.0, 6.0, 0),
        _span("y", 4.0, 8.0, 0),
        _span("z", 9.0, 12.0, 0),  # runs past its parent: clipped
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_layer_metrics_sum_calls_self_time_and_counters():
    spans = [
        _span("op", 0.0, 10.0, -1),
        _span("families.of_word.bsbar", 1.0, 3.0, 0),
        _span("rationals.Mat2Q.pow", 1.5, 2.0, 1),
        _span("families.of_word.bsbar", 4.0, 5.0, 0),
    ]
    counters = {"families.of_word.bsbar.letters": 7}
    metrics = tracing.layer_metrics(spans, counters)
    assert metrics["families.of_word.bsbar.calls"] == 2
    assert metrics["families.of_word.bsbar.self_s"] == pytest.approx(2.5)
    assert metrics["families.of_word.bsbar.letters"] == 7
    assert metrics["rationals.Mat2Q.pow.calls"] == 1
    assert metrics["verify.oracle_word_eq.calls"] == 0
    assert tracing.op_coverage(spans) == pytest.approx(0.3)


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    reference = json.loads((HERE / "reference.json").read_text())
    assert list(reference["verify_exit_codes"]) == list(tracing.VERIFY_FIXTURES)
