"""Tests for the benchmark's own code: span arithmetic, metric names, inputs.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_self_time_subtracts_nested_children():
    # root [0, 10] holds a [1, 4] (which holds a leaf [2, 3]) and b [5, 9]
    tree = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    assert sum(spans.self_times(tree)) == 10.0
    by_name = spans.self_time_by_name(tree + [Span("leaf", 11.0, 11.5, None)])
    assert by_name["leaf"] == 1.5


def test_self_time_counts_overlapping_children_once():
    tree = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 6.0, 0),
        Span("b", 4.0, 8.0, 0),
        Span("c", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_tracer_spans_nest_and_restore():
    import types

    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = spans.Tracer()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer")
    assert mod.outer(1) == 4
    tracer.restore()
    assert mod.outer(1) == 4 and len(tracer.spans) == 2
    outer, inner = sorted(tracer.spans, key=lambda s: s.start)
    assert inner.parent == tracer.spans.index(outer)
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_tail_percentile_leaves_ten_samples_beyond():
    assert spans.tail_percentile(35) == 0.71
    assert spans.tail_percentile(1000) == 0.99
    assert spans.tail_percentile(12) == 0.5
    for n in (20, 35, 200, 1000):
        assert n * (1.0 - spans.tail_percentile(n)) >= 10 - 1e-9


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    names = list(declared_e2e) + list(declared_layer) + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for unit in list(declared_e2e.values()) + list(declared_layer.values()):
        assert UNIT_RE.match(unit), unit


def test_layer_metrics_emit_every_traced_name():
    emitted = set(spans.layer_metrics(spans.Tracer()))
    computed_by_run = {"ingest.bytes_read", "pipeline.thread_speedup", "trace.overhead_frac"}
    assert emitted | computed_by_run == set(run.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_input_bytes(workload, tmp_path):
    a = workloads.generate(workload, 3, str(tmp_path / "a"))
    b = workloads.generate(workload, 3, str(tmp_path / "b"))
    assert a["input_sha256"] == b["input_sha256"]
    assert workloads.inputs_digest(str(tmp_path / "a")) == a["input_sha256"]
    c = workloads.generate(workload, 4, str(tmp_path / "c"))
    assert c["input_sha256"] != a["input_sha256"]


def test_sequence_mixed_low_score_count_does_not_depend_on_seed(tmp_path):
    from cuboidlift import ingest
    from cuboidlift.config import default_taxonomy

    for seed in (3, 4):
        info = workloads.generate("sequence_mixed", seed, str(tmp_path / str(seed)))
        detections = ingest.load_detections(info["detections"], default_taxonomy())
        low = [d for d in detections if d.score < workloads.ROUTING_THRESHOLD]
        assert (len(detections), len(low)) == (120, 120 // workloads.LOW_SCORE_PERIOD)
