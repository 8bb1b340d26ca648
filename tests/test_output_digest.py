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

# sha256 of the annotation file written for seeds 1-4 of each workload
OUTPUT_SHA256 = {
    ("dense_expert", 1): "6a65d84176a0f3dd02a6af9cd95838bad9bd8996a5fec005b738f310c2471868",
    ("dense_expert", 2): "96e93b05b3f2052ffd0854d97069297f699ecd0e6777ec83dccda5bcd3cd058c",
    ("dense_expert", 3): "e382516af2c7cc8372c2c560a79c272475c34d4b6cca0a7496cde9701ec38598",
    ("dense_expert", 4): "935d078d79b9a700ab69138949414c0db2baf4e660cae67f447fe0ca484f88d7",
    ("sequence_mixed", 1): "fcc957c0c1897feb6988d526f8685d27250a94d7dc1d617a3e4e2d9dfaa1fb61",
    ("sequence_mixed", 2): "ad61df65ab9865a57adc54d69ebb5d9c7032afd6c1971ec45404ac03c3a4c495",
    ("sequence_mixed", 3): "a9cd97df15acd1873f4a59d588ebc16d97a10f7423ab850e625aeda9829c38f1",
    ("sequence_mixed", 4): "21ba3fa0d90b33ad6619ae0627252b8d807b2f96dea260d5a94be1e1ccbf42d3",
}


@pytest.mark.parametrize("workload, seed", sorted(OUTPUT_SHA256))
def test_annotate_output_is_pinned(tmp_path, workload, seed):
    workloads.generate(workload, seed, str(tmp_path))
    config = PipelineConfig()
    scene = ingest.load_scene(tmp_path / "scene.json", stride=config.sweep_stride)
    detections = ingest.load_detections(tmp_path / "detections.ndjson", config.taxonomy)
    expert = prior.load_expert_records(tmp_path / "expert.ndjson")
    frames, _ = pipeline.annotate_scene(scene, detections, config, expert_index=expert, threads=1)
    out = tmp_path / "pred.ndjson"
    ingest.write_annotations([a for frame in frames for a in frame], out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUTPUT_SHA256[workload, seed]
