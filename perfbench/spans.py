"""Spans and counters for the traced run, recorded from outside the package.

The tracer replaces module-level names that callers look up at call time
(for example `cuboidlift.pipeline.extract_frustum`, which
`_process_detection` resolves through the pipeline module's globals)
with wrappers that record a span per call and restore the originals
afterwards. Spans nest through a stack, so the traced run must stay on
one thread; a call from any other thread raises.

A span's self time is its duration minus the part of its interval that
its child spans cover. Layer metrics are sums of self times by span name,
plus counters taken from the wrapped calls' arguments and results.
"""

from __future__ import annotations

import functools
import math
import threading
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional



@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in Tracer.spans


def self_times(spans: list) -> list:
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((s.end - s.start) - covered)
    return out


def self_time_by_name(spans: list) -> dict:
    totals = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] += t
    return dict(totals)


def tail_percentile(n: int) -> float:
    """Highest whole percentile with at least ten of n samples beyond it.

    Never below the median: with fewer than 20 samples the tail is p50.
    """
    return max(0.5, math.floor(100.0 * (1.0 - 10.0 / max(n, 1))) / 100.0)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[k]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.durations = defaultdict(list)  # span name -> per-call seconds
        self._stack = []
        self._patches = []
        self._thread = threading.get_ident()
        self._alive_points = 0

    def wrap(self, module, attr: str, span_name: str, count: Callable = None) -> None:
        """Record a span around every call of module.attr until restore()."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                raise RuntimeError(f"{span_name} called off the traced thread")
            span = Span(span_name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            tracer.durations[span_name].append(span.end - span.start)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def hold_points(self, array) -> None:
        """Count an array's rows as held until the array is freed."""
        n = len(array)
        self._alive_points += n
        self.counts["aggregate.points_held"] = max(
            self.counts["aggregate.points_held"], self._alive_points
        )
        weakref.finalize(array, self._release_points, n)

    def _release_points(self, n: int) -> None:
        self._alive_points -= n


# ---------------------------------------------------------------------------
# What the traced run wraps. Names are looked up where the caller resolves
# them: pipeline-level stages through cuboidlift.pipeline, the evaluation
# kernel through cuboidlift.search (select_best calls it), matching through
# cuboidlift.metrics.


def _count_aggregate(tracer):
    def count(c, args, kwargs, result):
        c["aggregate.calls"] += 1
        c["aggregate.points_out"] += len(result)
        tracer.hold_points(result)

    return count


def _count_extract(c, args, kwargs, result):
    c["frustum.points_projected"] += len(args[0])
    c["frustum.points_selected"] += len(result.points)


def _count_mask(c, args, kwargs, result):
    c["frustum.mask_in"] += len(result.points)
    c["frustum.mask_fg"] += int(result.foreground_flags.sum())


def _count_route(c, args, kwargs, result):
    c["prior.route_calls"] += 1
    c["prior.per_instance"] += result.source == "per_instance"


def _count_enumerate(c, args, kwargs, result):
    c["search.hypotheses"] += len(result)


def _count_evaluate(c, args, kwargs, result):
    grid, fp = args[0], args[1]
    c["search.evaluate_calls"] += 1
    c["search.containment_tests"] += len(grid) * len(fp.foreground)


def _count_associate(c, args, kwargs, result):
    c["refine.tracks"] += len(result)


def _count_match(c, args, kwargs, result):
    c["metrics.match_calls"] += 1


def install(tracer: Tracer) -> None:
    from cuboidlift import ingest, metrics, pipeline, prior, score, search

    tracer.wrap(ingest, "load_scene", "ingest.load")
    tracer.wrap(ingest, "load_detections", "ingest.load")
    tracer.wrap(ingest, "load_annotations", "ingest.load")
    tracer.wrap(prior, "load_expert_records", "ingest.load")
    tracer.wrap(ingest, "write_annotations", "ingest.write")
    tracer.wrap(pipeline, "annotate_scene", "pipeline.annotate")
    tracer.wrap(pipeline, "aggregate_sweeps", "aggregate", _count_aggregate(tracer))
    tracer.wrap(pipeline, "extract_frustum", "frustum.extract", _count_extract)
    tracer.wrap(pipeline, "filter_foreground", "frustum.mask", _count_mask)
    tracer.wrap(pipeline, "route", "prior.route", _count_route)
    tracer.wrap(pipeline, "init_hypothesis", "search.init")
    tracer.wrap(pipeline, "enumerate_hypotheses", "search.enumerate", _count_enumerate)
    tracer.wrap(pipeline, "select_best", "search.select")
    tracer.wrap(search, "evaluate_hypotheses", "search.evaluate", _count_evaluate)
    tracer.wrap(pipeline, "occupancy_rate", "score.occupancy")
    for name in ("associate", "refine_scores", "apply_velocities", "assign_track_ids"):
        tracer.wrap(pipeline, name, "refine", _count_associate if name == "associate" else None)
    tracer.wrap(metrics, "evaluate_detections", "metrics.evaluate")
    tracer.wrap(metrics, "match_predictions", "metrics.match", _count_match)
    tracer.wrap(metrics, "average_precision", "metrics.ap")
    tracer.wrap(score, "tune_alpha", "score.tune_alpha")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced process, by BENCHMARK.json name."""
    st = self_time_by_name(tracer.spans)
    c = tracer.counts
    evals = [1e3 * d for d in tracer.durations.get("search.evaluate", [])]
    evaluate_s = st.get("search.evaluate", 0.0)
    return {
        "ingest.load_s": st.get("ingest.load", 0.0),
        "ingest.write_s": st.get("ingest.write", 0.0),
        "aggregate.calls": c["aggregate.calls"],
        "aggregate.s": st.get("aggregate", 0.0),
        "aggregate.points_out": c["aggregate.points_out"],
        "aggregate.points_held": c["aggregate.points_held"],
        "frustum.extract_s": st.get("frustum.extract", 0.0),
        "frustum.points_projected": c["frustum.points_projected"],
        "frustum.select_ratio": _ratio(c["frustum.points_selected"], c["frustum.points_projected"]),
        "frustum.mask_s": st.get("frustum.mask", 0.0),
        "frustum.fg_ratio": _ratio(c["frustum.mask_fg"], c["frustum.mask_in"]),
        "prior.route_s": st.get("prior.route", 0.0),
        "prior.per_instance_frac": _ratio(c["prior.per_instance"], c["prior.route_calls"]),
        "search.init_s": st.get("search.init", 0.0),
        "search.enumerate_s": st.get("search.enumerate", 0.0),
        "search.evaluate_s": evaluate_s,
        "search.select_self_s": st.get("search.select", 0.0),
        "search.hypotheses": c["search.hypotheses"],
        "search.containment_tests": c["search.containment_tests"],
        "search.ns_per_test": 1e9 * _ratio(evaluate_s, c["search.containment_tests"]),
        "search.evaluate_p50_ms": percentile(evals, 0.5),
        "search.evaluate_tail_ms": percentile(evals, tail_percentile(len(evals))),
        "score.occupancy_s": st.get("score.occupancy", 0.0),
        "refine.s": st.get("refine", 0.0),
        "refine.tracks": c["refine.tracks"],
        "metrics.match_s": st.get("metrics.match", 0.0),
        "metrics.match_calls": c["metrics.match_calls"],
        "metrics.ap_s": st.get("metrics.ap", 0.0),
        "pipeline.self_s": st.get("pipeline.annotate", 0.0),
    }
