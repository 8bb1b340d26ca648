import importlib.util
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from cuboidlift import frustum, geom, ingest, pipeline, prior
from cuboidlift.config import PipelineConfig
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
