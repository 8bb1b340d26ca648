"""Seeded input generation for the benchmark workloads.

Each workload writes the files the `cuboidlift` verbs read (scene
manifest and sweeps, detections, expert sidecar, ground-truth NDJSON) into
a directory. The same seed gives the same bytes. The program under test
only ever sees these files.

Work per run is kept close to constant across seeds: class mix, moving
objects and which detections score below the routing threshold are fixed
per workload, and the seed moves only positions, headings, speeds, point
samples and score values.
That keeps the seed-to-seed spread of the timings small enough to
compare two commits on different seeds.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import replace

import numpy as np

from cuboidlift import ingest
from cuboidlift.config import default_taxonomy
from cuboidlift.geom import Cuboid3D, wrap_angle
from cuboidlift.prior import write_expert_records
from cuboidlift.synth import (
    DEFAULT_LIDAR_EXTRINSICS,
    SceneObject,
    SceneSpec,
    default_cameras,
    generate_scene,
    random_scene_spec,
    straight_ego_trajectory,
)

WORKLOADS = ("dense_expert", "sequence_mixed")

# sequence_mixed: (class, moving). Wide aggregation windows: stroller
# (0, 10), child (6, 0), bicycle (0, 2).
SEQUENCE_OBJECTS = (
    ("car", True),
    ("car", False),
    ("truck", False),
    ("adult", True),
    ("adult", False),
    ("child", True),
    ("bicycle", True),
    ("bicycle", False),
    ("stroller", True),
    ("traffic-cone", False),
    ("barrier", False),
    ("motorcycle", True),
)
SEQUENCE_SWEEPS = 10
SEQUENCE_EGO_SPEED = 2.0  # m/s along +x
# six cameras whose views meet without overlap, and objects placed clear
# of the seams between views at every sweep: each object gives exactly one
# detection per sweep, so the detection count is the same for every seed
SEQUENCE_CAMERAS = 6
SEQUENCE_HFOV_DEG = 60.0
ROUTING_THRESHOLD = 0.3
# one in LOW_SCORE_PERIOD sequence_mixed detections (30 of 120) scores
# below the routing threshold; they take the class-average full-circle
# search (8100 hypotheses each)
LOW_SCORE_PERIOD = 4
# a detector does not report boxes this thin; the seam clips that the
# synthetic rig produces would hold no foreground points
MIN_BOX_SIDE_PX = 8.0


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's inputs under out_dir; returns their description.

    Raises ValueError when the seed's scene cannot be placed; the caller
    reports that as an error rather than trying another seed.
    """
    os.makedirs(out_dir, exist_ok=True)
    if workload == "dense_expert":
        info = _write_scene(_dense_expert_scene(seed), out_dir, seed, rescore=False)
    elif workload == "sequence_mixed":
        info = _write_scene(_sequence_mixed_scene(seed), out_dir, seed, rescore=True)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    info["workload"] = workload
    info["seed"] = seed
    info["input_sha256"] = inputs_digest(out_dir)
    return info


def inputs_digest(root: str) -> str:
    """sha256 over every file under root, in sorted relative-path order."""
    h = hashlib.sha256()
    paths = sorted(
        os.path.relpath(os.path.join(d, f), root) for d, _, files in os.walk(root) for f in files
    )
    for rel in paths:
        h.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Annotate workloads


def _dense_expert_scene(seed: int):
    # the acceptance criterion-1c scene: 20 cars, ~5k points each, one sweep
    spec = random_scene_spec(
        seed=seed,
        taxonomy=default_taxonomy(),
        n_objects=20,
        classes=["car"],
        n_sweeps=1,
        noise_sigma=0.0,
        points_per_object=(4800, 5200),
        surface_inset=1e-2,
        range_m=(14.0, 48.0),
        angular_margin=0.015,
    )
    return generate_scene(spec)


def _sequence_mixed_scene(seed: int):
    tax = default_taxonomy()
    rng = np.random.default_rng(np.random.PCG64(seed))
    timestamps, poses = straight_ego_trajectory(SEQUENCE_SWEEPS, speed=SEQUENCE_EGO_SPEED)
    times = np.array([(t - timestamps[0]) / 1e6 for t in timestamps])
    ego_xy = np.array([p.translation[:2] for p in poses])

    objects = []
    tracks = []  # (N_t, 2) centers per placed object
    radii = []
    for cls, moving in SEQUENCE_OBJECTS:
        dims = tax.get(cls).avg_dims
        radius = 0.5 * math.hypot(dims[0], dims[1])
        for _ in range(5000):
            r = math.sqrt(rng.uniform(10.0**2, 35.0**2))
            angle = rng.uniform(-math.pi, math.pi)
            yaw = float(rng.uniform(-math.pi, math.pi))
            vel = None
            if moving:
                speed = rng.uniform(0.5, 1.5)
                heading = rng.uniform(-math.pi, math.pi)
                vel = (speed * math.cos(heading), speed * math.sin(heading))
            start = np.array([r * math.cos(angle), r * math.sin(angle)])
            track = start + times[:, None] * (np.array(vel) if vel else np.zeros(2))
            if _placeable(track, radius, ego_xy, tracks, radii):
                break
        else:
            raise ValueError(f"seed {seed}: could not place a {cls} in sequence_mixed")
        center = np.array([start[0], start[1], dims[2] / 2.0])
        objects.append(SceneObject(cls, Cuboid3D(center, dims, yaw), velocity=vel))
        tracks.append(track)
        radii.append(radius)

    spec = SceneSpec(
        seed=seed,
        objects=objects,
        cameras=default_cameras(n_cameras=SEQUENCE_CAMERAS, hfov_deg=SEQUENCE_HFOV_DEG),
        timestamps=timestamps,
        ego_poses=poses,
        lidar_extrinsics=DEFAULT_LIDAR_EXTRINSICS,
        points_per_object=(250, 350),
        noise_sigma=0.03,
    )
    return generate_scene(spec)


def _placeable(track, radius, ego_xy, tracks, radii) -> bool:
    """Bounding circles stay apart, off the ego path, clear of camera seams
    and angularly separated.

    Circle separation at every sweep is stricter than the exact footprint
    test the scene spec applies. Angular separation (checked at the first
    and last sweep) keeps one object's points out of another's frustum.
    """
    if np.min(np.linalg.norm(track - ego_xy, axis=1)) < radius + 5.0:
        return False
    view = 2.0 * math.pi / SEQUENCE_CAMERAS
    for t in range(len(track)):
        center, half = _bearing(track[t], radius, ego_xy[t])
        off = (center - math.radians(SEQUENCE_HFOV_DEG) / 2.0) % view
        if min(off, view - off) <= half + 0.02:
            return False
    for other, other_r in zip(tracks, radii):
        if np.min(np.linalg.norm(track - other, axis=1)) < radius + other_r + 1.0:
            return False
        for t in (0, -1):
            a = _bearing(track[t], radius, ego_xy[t])
            b = _bearing(other[t], other_r, ego_xy[t])
            if abs(wrap_angle(a[0] - b[0])) <= a[1] + b[1] + 0.03:
                return False
    return True


def _bearing(center, radius, sensor_xy):
    d = center - sensor_xy
    dist = float(np.hypot(d[0], d[1]))
    return math.atan2(d[1], d[0]), math.asin(min(1.0, (radius + 0.5) / dist))


def _write_scene(built, out_dir: str, seed: int, rescore: bool) -> dict:
    keep = [
        i
        for i, d in enumerate(built.detections)
        if min(d.box.x2 - d.box.x1, d.box.y2 - d.box.y1) >= MIN_BOX_SIDE_PX
    ]
    detections = [built.detections[i] for i in keep]
    records = [built.expert_records[i] for i in keep]
    if rescore:
        # a detection scores below the routing threshold when its object
        # and sweep indices sum to a multiple of LOW_SCORE_PERIOD. The
        # full-circle searches, which dominate the run time, then fall on
        # the same objects and sweeps for every seed: their count and the
        # aggregation windows they search do not depend on the seed
        rng = np.random.default_rng(np.random.PCG64([seed, 1]))
        sweep_index = {sw.frame_id: j for j, sw in enumerate(built.scene.sweeps)}
        rescored = []
        for i, det in zip(keep, detections):
            low = (built.det_object_ids[i] + sweep_index[det.frame_id]) % LOW_SCORE_PERIOD == 0
            lo, hi = (0.05, ROUTING_THRESHOLD) if low else (ROUTING_THRESHOLD, 1.0)
            rescored.append(replace(det, score=float(rng.uniform(lo, hi))))
        detections = rescored
    ingest.write_scene(built.scene, out_dir)
    ingest.write_detections(detections, os.path.join(out_dir, "detections.ndjson"))
    write_expert_records(records, os.path.join(out_dir, "expert.ndjson"))
    ingest.write_annotations(built.gt_flat, os.path.join(out_dir, "gt.ndjson"))
    sweeps = os.path.join(out_dir, "sweeps")
    setup_files = [os.path.join(sweeps, f) for f in os.listdir(sweeps)] + [
        os.path.join(out_dir, f) for f in ("scene.json", "detections.ndjson", "expert.ndjson")
    ]
    return {
        "scene": os.path.join(out_dir, "scene.json"),
        "detections": os.path.join(out_dir, "detections.ndjson"),
        "expert": os.path.join(out_dir, "expert.ndjson"),
        "gt": os.path.join(out_dir, "gt.ndjson"),
        "n_detections": len(detections),
        "n_sweeps": len(built.scene.sweeps),
        "n_points": int(sum(len(sw.points) for sw in built.scene.sweeps)),
        "n_gt": len(built.gt_flat),
        "setup_bytes": sum(os.path.getsize(p) for p in setup_files),
    }
