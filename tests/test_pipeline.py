import dataclasses
import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import naive_frustum_mask
from cuboidlift import frustum, geom, ingest, pipeline, prior
from cuboidlift.aggregate import aggregate_sweeps
from cuboidlift.config import PipelineConfig
from cuboidlift.search import SearchConfig
from cuboidlift.synth import generate_scene, random_scene_spec

ROOT = Path(__file__).resolve().parents[1]
SPANS_PY = ROOT / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, taxonomy):
    """A three-sweep scene whose classes use three different windows."""
    out = tmp_path_factory.mktemp("scene")
    spec = random_scene_spec(
        seed=11, taxonomy=taxonomy, n_objects=6, n_sweeps=3,
        classes=["car", "adult", "traffic-cone"], noise_sigma=0.02, ego_speed=2.0,
    )
    built = generate_scene(spec)
    ingest.write_scene(built.scene, out)
    ingest.write_detections(built.detections, out / "detections.ndjson")
    prior.write_expert_records(built.expert_records, out / "expert.ndjson")
    return out


def annotate(inputs, out_path) -> dict:
    """What the annotate verb does, through the module-level names."""
    config = PipelineConfig()
    scene = ingest.load_scene(inputs / "scene.json", stride=config.sweep_stride)
    detections = ingest.load_detections(inputs / "detections.ndjson", config.taxonomy)
    expert_index = prior.load_expert_records(inputs / "expert.ndjson")
    frames, summary = pipeline.annotate_scene(
        scene, detections, config, expert_index=expert_index, threads=1
    )
    ingest.write_annotations([a for frame in frames for a in frame], out_path)
    summary.pop("wall_time_s")
    return summary


def test_one_window_alive_at_a_time(inputs, tmp_path, monkeypatch):
    windows = []
    peak = 0
    original = pipeline.aggregate_sweeps

    def counting(*args, **kwargs):
        nonlocal peak
        window = original(*args, **kwargs)
        windows.append(weakref.ref(window))
        peak = max(peak, sum(ref() is not None for ref in windows))
        return window

    monkeypatch.setattr(pipeline, "aggregate_sweeps", counting)
    annotate(inputs, tmp_path / "pred.ndjson")
    assert len(windows) > 3
    assert peak == 1
    assert all(ref() is None for ref in windows)


def test_one_window_group_of_views_alive_at_a_time(inputs, tmp_path, monkeypatch):
    # views are numbered by the window they were projected from; a window
    # group's views must all be freed before the next group's window is built
    groups = 0
    views = []  # (group number, weak reference to the view)
    peak = 0
    aggregate, project = pipeline.aggregate_sweeps, pipeline.project_view

    def numbering(*args, **kwargs):
        nonlocal groups
        groups += 1
        return aggregate(*args, **kwargs)

    def counting(*args, **kwargs):
        nonlocal peak
        view = project(*args, **kwargs)
        views.append((groups, weakref.ref(view)))
        peak = max(peak, len({g for g, ref in views if ref() is not None}))
        return view

    monkeypatch.setattr(pipeline, "aggregate_sweeps", numbering)
    monkeypatch.setattr(pipeline, "project_view", counting)
    annotate(inputs, tmp_path / "pred.ndjson")
    assert groups > 3
    assert len(views) > groups  # some group projects into more than one camera
    assert peak == 1
    assert all(ref() is None for _, ref in views)


# what the 40-sweep run may hold beyond the 10-sweep one: the 30 extra
# sweeps and the per-detection records, about 1.2 MB measured; the 150 extra
# detections' full-image masks alone would be 54 MB
LENGTH_ALLOWANCE_BYTES = 4_000_000


def test_memory_does_not_grow_with_held_masks(tmp_path, taxonomy):
    # two static scenes with the same objects, at 10 and at 40 sweeps; a
    # one-node search keeps the traced run short without changing what is held
    config = PipelineConfig(search=SearchConfig(xy_range=0.0, z_range=0.0))
    peaks = []
    for n_sweeps in (10, 40):
        out = tmp_path / str(n_sweeps)
        spec = random_scene_spec(
            seed=7, taxonomy=taxonomy, n_objects=3, n_sweeps=n_sweeps,
            classes=["car", "adult", "stroller"], points_per_object=(200, 260),
        )
        built = generate_scene(spec)
        ingest.write_scene(built.scene, out)
        ingest.write_detections(built.detections, out / "detections.ndjson")
        assert all(d.mask is not None for d in built.detections)
        del built
        tracemalloc.start()
        try:
            scene = ingest.load_scene(out / "scene.json", stride=config.sweep_stride)
            detections = ingest.load_detections(out / "detections.ndjson", config.taxonomy)
            frames, _ = pipeline.annotate_scene(scene, detections, config, threads=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert sum(map(len, frames)) == len(detections) == 5 * n_sweeps
        del scene, detections, frames
    assert peaks[1] - peaks[0] < LENGTH_ALLOWANCE_BYTES, peaks


def test_benchmark_tracer_contract(inputs, tmp_path, monkeypatch):
    module_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(module_spec)
    monkeypatch.setitem(sys.modules, module_spec.name, spans)
    module_spec.loader.exec_module(spans)

    plain = annotate(inputs, tmp_path / "plain.ndjson")
    tracer = spans.Tracer()
    spans.install(tracer)  # looks up every name it wraps
    try:
        traced = annotate(inputs, tmp_path / "traced.ndjson")
    finally:
        tracer.restore()
    assert pipeline.extract_frustum is frustum.extract_frustum

    names = [s.name for s in tracer.spans]
    for stage in (
        "ingest.load", "ingest.write", "pipeline.annotate", "aggregate", "frustum.extract",
        "frustum.mask", "prior.route", "search.init", "search.enumerate", "search.select",
        "search.evaluate", "score.occupancy", "refine",
    ):
        assert stage in names, stage
    assert traced == plain
    assert plain["skipped_detections"] < plain["detections"]
    assert names.count("frustum.extract") == plain["detections"]
    assert names.count("search.evaluate") == plain["detections"] - plain["skipped_detections"]
    assert (tmp_path / "traced.ndjson").read_bytes() == (tmp_path / "plain.ndjson").read_bytes()


def test_transforms_are_built_per_scene_not_per_detection(inputs, monkeypatch):
    built = 0
    original = geom.RigidTransform.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        original(self)

    monkeypatch.setattr(geom.RigidTransform, "__post_init__", counting)
    config = PipelineConfig()
    expert_index = prior.load_expert_records(inputs / "expert.ndjson")
    detections = ingest.load_detections(inputs / "detections.ndjson", config.taxonomy)
    counts = []
    for dets in (detections, detections + detections):
        scene = ingest.load_scene(inputs / "scene.json", stride=config.sweep_stride)
        built = 0
        frames, _ = pipeline.annotate_scene(scene, dets, config, expert_index=expert_index, threads=1)
        counts.append(built)
    assert sum(len(f) for f in frames) > 0
    assert counts[0] == counts[1]


def test_annotate_does_not_import_numpy_ma(inputs, tmp_path):
    script = (
        "import sys\n"
        "from cuboidlift.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit as e:\n"
        "    assert not e.code, e.code\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    args = [
        "annotate", "--scene", str(inputs / "scene.json"),
        "--detections", str(inputs / "detections.ndjson"),
        "--expert", str(inputs / "expert.ndjson"),
        "--out", str(tmp_path / "pred.ndjson"), "--threads", "1",
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "pred.ndjson").stat().st_size > 0
    assert res.stdout.strip().splitlines()[-1] == "False"


def test_summary_counts_each_skip_reason(inputs):
    # one skipped detection of each kind, built from an annotated one: its
    # box moved wholly off the image, its box moved onto an image corner
    # no point projects to, and its mask cleared
    config = PipelineConfig()
    scene = ingest.load_scene(inputs / "scene.json", stride=config.sweep_stride)
    detections = ingest.load_detections(inputs / "detections.ndjson", config.taxonomy)
    expert_index = prior.load_expert_records(inputs / "expert.ndjson")
    det = detections[0]
    intr = scene.rig.camera(det.camera_id).intrinsics
    h, w = intr.height, intr.width
    skipped = [
        dataclasses.replace(det, box=geom.Box2D(w + 1e5, 0.0, w + 1e5 + 40.0, 40.0)),
        dataclasses.replace(det, box=geom.Box2D(0.0, 0.0, 1.0, 1.0)),
        dataclasses.replace(det, mask={"size": [h, w], "counts": [h * w]}),
    ]
    frames, summary = pipeline.annotate_scene(scene, [det], config, expert_index=expert_index)
    assert (summary["annotations"], summary["skipped_detections"]) == (1, 0)
    assert summary["skipped_by_reason"] == {"box_outside_image": 0, "empty_frustum": 0, "mask_removed_all": 0}
    frames, summary = pipeline.annotate_scene(scene, [det, *skipped], config, expert_index=expert_index)
    assert (summary["annotations"], summary["skipped_detections"]) == (1, 3)
    assert summary["skipped_by_reason"] == {"box_outside_image": 1, "empty_frustum": 1, "mask_removed_all": 1}


def test_boxes_are_cut_to_their_image(inputs, tmp_path, monkeypatch):
    # an adult the generator cut at the left image edge, given back the box
    # that reaches past that edge, and a box wholly beyond the edge, without
    # its mask; points project into both off-image parts
    config = PipelineConfig()
    scene = ingest.load_scene(inputs / "scene.json", stride=config.sweep_stride)
    detections = ingest.load_detections(inputs / "detections.ndjson", config.taxonomy)
    expert_index = prior.load_expert_records(inputs / "expert.ndjson")
    det = next(d for d in detections if d.box.x1 == 0.0)
    b = det.box
    past = dataclasses.replace(det, box=geom.Box2D(-400.0, b.y1, b.x2, b.y2))
    by_hand = dataclasses.replace(past, box=geom.Box2D(0.0, b.y1, b.x2, b.y2))
    beyond = dataclasses.replace(det, box=geom.Box2D(-400.0, b.y1, -1.0, b.y2), mask=None)
    si = [sw.frame_id for sw in scene.sweeps].index(det.frame_id)
    window = aggregate_sweeps(scene, si, config.taxonomy.get(det.class_label).aggregation)
    assert naive_frustum_mask(window, beyond, scene.rig).any()
    in_image = naive_frustum_mask(window, by_hand, scene.rig)
    assert (naive_frustum_mask(window, past, scene.rig) & ~in_image).any()

    extracted, routed = [], []
    extract, route = pipeline.extract_frustum, pipeline.route

    def recording_extract(view, d):
        extracted.append(extract(view, d))
        return extracted[-1]

    def recording_route(d, *args, **kwargs):
        routed.append(d)
        return route(d, *args, **kwargs)

    monkeypatch.setattr(pipeline, "extract_frustum", recording_extract)
    monkeypatch.setattr(pipeline, "route", recording_route)

    frames, summary = pipeline.annotate_scene(scene, [beyond], config, expert_index=expert_index)
    assert (summary["annotations"], summary["skipped_by_reason"]["box_outside_image"]) == (0, 1)
    assert extracted == [] and routed == []

    # the sidecar joins on the box as written: give both boxes the record
    record = expert_index[prior.expert_key(det)]
    index = {prior.expert_key(past): record, prior.expert_key(by_hand): record}
    outputs = []
    for d in (past, by_hand):
        extracted.clear()
        routed.clear()
        frames, summary = pipeline.annotate_scene(scene, [d], config, expert_index=index)
        assert summary["annotations"] == 1
        assert routed == [d]
        assert np.array_equal(extracted[0].points, window[in_image, :3])
        out = tmp_path / f"{len(outputs)}.ndjson"
        ingest.write_annotations([a for frame in frames for a in frame], out)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_summary_counts_prior_sources(inputs):
    # every routed detection counts once under its prior's source, at any
    # thread count; a box wholly off its image is not routed
    config = PipelineConfig()
    scene = ingest.load_scene(inputs / "scene.json", stride=config.sweep_stride)
    detections = ingest.load_detections(inputs / "detections.ndjson", config.taxonomy)
    expert_index = prior.load_expert_records(inputs / "expert.ndjson")
    unsure = dataclasses.replace(detections[0], score=config.routing_threshold / 2.0)
    off = dataclasses.replace(detections[0], box=geom.Box2D(-50.0, 0.0, -10.0, 40.0))
    routed = [*detections, unsure]
    expected = Counter(
        prior.route(
            d, expert_index.get(prior.expert_key(d)), config.taxonomy, scene.rig,
            threshold=config.routing_threshold, sector_half_width=config.sector_half_width,
        ).source
        for d in routed
    )
    assert set(expected) == set(prior.PRIOR_SOURCES)
    for threads in (1, 2):
        _, summary = pipeline.annotate_scene(
            scene, [*routed, off], config, expert_index=expert_index, threads=threads
        )
        assert summary["skipped_by_reason"]["box_outside_image"] == 1
        assert summary["prior_sources"] == {s: expected[s] for s in prior.PRIOR_SOURCES}
        assert sum(summary["prior_sources"].values()) == summary["detections"] - 1

    # a provider's priors count under the source they report
    flat = prior.SemanticPrior(
        dims=(1.0, 1.0, 1.0), orientation=None, sector_half_width=math.pi, source="class_average"
    )
    _, summary = pipeline.annotate_scene(scene, [*routed, off], config, prior_provider=lambda d: flat)
    assert summary["prior_sources"] == {"per_instance": 0, "class_average": len(routed)}
