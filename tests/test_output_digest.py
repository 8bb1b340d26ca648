"""Pinned `annotate` output bytes on two benchmark workload inputs.

The inputs come from the benchmark's own seeded generator
(`perfbench/workloads.generate`), so they are the files the benchmark
runs; the whole generated input (`workloads.inputs_digest`) and its
detections file are pinned too, so a change in how sweeps, masks or any
other generated file are built or encoded cannot move the benchmark's
inputs. Each input is annotated at one thread and at two, with the same
expected bytes. Every exact change to the search, the scoring, the
threading, the writers or the geometry the generator runs must leave
these digests as they are; one that changes output on purpose updates
them and says why.
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

# sha256 of the generated detections.ndjson for the same seeds
DETECTIONS_SHA256 = {
    ("dense_expert", 1): "567d71e34faef15893d2f432483eb4e78489babdb10ab19cea9972094c825bab",
    ("dense_expert", 2): "99baa8cdd7b021f3579898a5ba39f774cfbe72b469126123fd849ab6053533fe",
    ("dense_expert", 3): "2ff43cded107e1f113cc74d4e8446d82e2680e2deeea03d6a45392ea5359175d",
    ("dense_expert", 4): "3488879603a8fb107094560332b49d52863be623285fa8cbf27a27cf335e2b3d",
    ("sequence_mixed", 1): "78cace1bfb1ffb050767d7877fc032f4f4d75f4a67f6ddaeab197dbd267c1dc0",
    ("sequence_mixed", 2): "8d8f4654419c3665ae4c91edf85827e8c5f30282d7ae2ce9ceb3b72f5544c34d",
    ("sequence_mixed", 3): "fda3b941863960d69b603d42cd37927673d3ea3aad843671ffcb5ac772fa9288",
    ("sequence_mixed", 4): "a45d3f9fc71caa07d99e64df2abd891ab17ee38a3247afebf5b0c98558a988c9",
}


# `workloads.inputs_digest` of the whole generated input for the same seeds:
# sweeps, scene.json, detections, expert and gt
INPUTS_SHA256 = {
    ("dense_expert", 1): "9aceedee924677234ea76598db50aacd530bd8153bdfd52f8ac8c50e97bc9e46",
    ("dense_expert", 2): "d538228bd5d811a96d8d24bd04921766de289fb64759b4a8fe56ef78e57f05e3",
    ("dense_expert", 3): "0717ca88f4fad81423429f30371ae003e576c284a5230e0c734bfe3fa41f8a1a",
    ("dense_expert", 4): "dc2448a5f246a21ec077062fb287da44129dd564d383f1e4241c424d42f390df",
    ("sequence_mixed", 1): "32b4d08b332e81f453b02567bb80aad263babf816db88855cb354e1b212107f1",
    ("sequence_mixed", 2): "8f7ff4c6d69a61bffaffcff8e75d05f1a34b01be7c1506496fc4f0a26f722c0c",
    ("sequence_mixed", 3): "4abf1786d989e9e2e7814624fbcd3c66abf0fc5c4d2c8083c55b1266a5f4c7b2",
    ("sequence_mixed", 4): "eb642949df07edc79612d9f46b7d480b619ca6e9a442f5225e65c08e123e8117",
}


@pytest.mark.parametrize("workload, seed", sorted(OUTPUT_SHA256))
def test_annotate_output_is_pinned(tmp_path, workload, seed):
    workloads.generate(workload, seed, str(tmp_path))
    assert workloads.inputs_digest(str(tmp_path)) == INPUTS_SHA256[workload, seed]
    det_bytes = (tmp_path / "detections.ndjson").read_bytes()
    assert hashlib.sha256(det_bytes).hexdigest() == DETECTIONS_SHA256[workload, seed]
    config = PipelineConfig()
    scene = ingest.load_scene(tmp_path / "scene.json", stride=config.sweep_stride)
    detections = ingest.load_detections(tmp_path / "detections.ndjson", config.taxonomy)
    expert = prior.load_expert_records(tmp_path / "expert.ndjson")
    # every generated box lies inside its image with positive area, so the
    # cut to the image on entry leaves each detection as it is and skips none
    for det in detections:
        b, intr = det.box, scene.rig.camera(det.camera_id).intrinsics
        assert 0.0 <= b.x1 < b.x2 <= intr.width and 0.0 <= b.y1 < b.y2 <= intr.height, det
    for threads in (1, 2):
        frames, _ = pipeline.annotate_scene(scene, detections, config, expert_index=expert, threads=threads)
        out = tmp_path / f"pred-{threads}.ndjson"
        ingest.write_annotations([a for frame in frames for a in frame], out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == OUTPUT_SHA256[workload, seed], threads
