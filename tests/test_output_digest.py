"""Pinned `annotate` output bytes on two benchmark workload inputs.

The inputs come from the benchmark's own seeded generator
(`perfbench/workloads.generate`), so they are the files the benchmark
runs. Every exact change to the search, the scoring or the writers must
leave these digests as they are; one that changes output on purpose
updates them and says why.
"""

import hashlib
import os
import sys

import pytest

from cuboidlift import ingest, pipeline, prior
from cuboidlift.config import PipelineConfig

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import workloads  # noqa: E402

# sha256 of the annotation file written for seed 1 of each workload
OUTPUT_SHA256 = {
    "dense_expert": "6a65d84176a0f3dd02a6af9cd95838bad9bd8996a5fec005b738f310c2471868",
    "sequence_mixed": "fcc957c0c1897feb6988d526f8685d27250a94d7dc1d617a3e4e2d9dfaa1fb61",
}


@pytest.mark.parametrize("workload", sorted(OUTPUT_SHA256))
def test_annotate_output_is_pinned(tmp_path, workload):
    workloads.generate(workload, 1, str(tmp_path))
    config = PipelineConfig()
    scene = ingest.load_scene(tmp_path / "scene.json", stride=config.sweep_stride)
    detections = ingest.load_detections(tmp_path / "detections.ndjson", config.taxonomy)
    expert = prior.load_expert_records(tmp_path / "expert.ndjson")
    frames, _ = pipeline.annotate_scene(scene, detections, config, expert_index=expert, threads=1)
    out = tmp_path / "pred.ndjson"
    ingest.write_annotations([a for frame in frames for a in frame], out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUTPUT_SHA256[workload]
