"""End-to-end annotation: aggregate, frustum, prior, search, score, refine.

Per frame and detection the pipeline aggregates sweeps with the class's
window, selects frustum points, routes to a prior, runs the hypothesis
search, scores the winner and finally refines scores over tracks built
across the whole sequence. Each aggregated window is projected once per
camera and freed before the next is built; a detection's frustum is a box
cut of its camera's view. Detections are processed independently, so
detection-level threading cannot change the output: results land in a
slot per detection index and every reduction is order-free.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

from .aggregate import aggregate_sweeps
from .config import PipelineConfig
from .frustum import CameraView, extract_frustum, filter_foreground, project_view
from .geom import transform_cuboid
from .ingest import Detection2D, Scene, ScoredAnnotation, Taxonomy
from .prior import SemanticPrior, expert_key, route
from .refine import apply_velocities, assign_track_ids, associate, refine_scores
from .score import fuse_score, occupancy_rate
from .search import EmptyFrustumError, enumerate_hypotheses, init_hypothesis, select_best


def track_and_refine(frames: list, timestamps: list, taxonomy: Taxonomy):
    """Associate time-ordered per-frame annotations into tracks and refine them.

    Members of a track share their mean score, gain a finite-difference
    velocity and carry the track id. Returns (refined frames, tracks).
    """
    tracks = associate(frames, taxonomy)
    frames = refine_scores(tracks, frames)
    frames = apply_velocities(tracks, frames, timestamps)
    return assign_track_ids(tracks, frames), tracks


def _process_detection(
    det: Detection2D,
    sweep_idx: int,
    view: CameraView,
    scene: Scene,
    config: PipelineConfig,
    prior: SemanticPrior,
) -> Optional[ScoredAnnotation]:
    """Lift one detection; None when no foreground point anchors the search."""
    fp = extract_frustum(view, det)
    fp = filter_foreground(fp, det.mask)
    try:
        init = init_hypothesis(fp, prior)
    except EmptyFrustumError:
        return None
    grid = enumerate_hypotheses(init, prior, config.search)
    best = select_best(grid, fp, det, scene.rig)
    s3d = occupancy_rate(best.cuboid, fp.foreground, config.scoring.grid_k)
    fused = fuse_score(det.score, s3d, config.scoring.alpha)
    world = transform_cuboid(scene.sweeps[sweep_idx].lidar_to_world(), best.cuboid)
    return ScoredAnnotation(
        frame_id=det.frame_id,
        cuboid=world,
        class_label=det.class_label,
        score=fused,
        s2d=det.score,
        s3d=s3d,
    )


def annotate_scene(
    scene: Scene,
    detections: list,
    config: PipelineConfig,
    expert_index: Optional[dict] = None,
    prior_provider: Optional[Callable] = None,
    threads: int = 0,
):
    """Run the full pipeline; returns (per-frame annotation lists, summary).

    `prior_provider` overrides the routing stage entirely (used by the
    synthetic round-trip); otherwise detections route through the expert
    record index with class-average fallback. `threads` 0 means one worker
    per CPU, at most 8.
    """
    t_start = time.perf_counter()
    if threads <= 0:
        threads = min(8, os.cpu_count() or 1)

    frame_index = {sw.frame_id: i for i, sw in enumerate(scene.sweeps)}
    for det in detections:
        if det.frame_id not in frame_index:
            raise ValueError(f"detection references unknown frame {det.frame_id!r}")
        if det.mask is not None:
            intr = scene.rig.camera(det.camera_id).intrinsics
            if det.mask.shape != (intr.height, intr.width):
                raise ValueError(
                    f"mask shape {det.mask.shape} does not match camera "
                    f"{det.camera_id} image size {(intr.height, intr.width)}"
                )

    def prior_for(det: Detection2D) -> SemanticPrior:
        if prior_provider is not None:
            return prior_provider(det)
        record = expert_index.get(expert_key(det)) if expert_index else None
        return route(
            det,
            record,
            config.taxonomy,
            scene.rig,
            threshold=config.routing_threshold,
            sector_half_width=config.sector_half_width,
        )

    jobs = []  # (detection, sweep index)
    windows = {}  # (sweep index, (past, future)) -> camera id -> job indices, first-seen order
    for i, det in enumerate(detections):
        si = frame_index[det.frame_id]
        aggregation = config.taxonomy.get(det.class_label).aggregation
        jobs.append((det, si))
        windows.setdefault((si, aggregation), {}).setdefault(det.camera_id, []).append(i)

    # project each window once per camera, keeping only what some box of
    # that camera can select, then drop the window: one is alive at a time
    views = [None] * len(jobs)
    for (si, aggregation), cameras in windows.items():
        window = aggregate_sweeps(scene.sweeps, si, aggregation)
        for camera_id, members in cameras.items():
            view = project_view(window, scene.rig, camera_id, [jobs[i][0].box for i in members])
            for i in members:
                views[i] = view
        del window

    annotations = [None] * len(jobs)

    def run(i: int) -> None:
        det, si = jobs[i]
        annotations[i] = _process_detection(det, si, views[i], scene, config, prior_for(det))

    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(len(jobs))))
    else:
        for i in range(len(jobs)):
            run(i)

    frames = [[] for _ in scene.sweeps]
    skipped = 0
    for (_, si), annotation in zip(jobs, annotations):
        if annotation is None:
            skipped += 1
        else:
            frames[si].append(annotation)

    frames, tracks = track_and_refine(
        frames, [sw.timestamp for sw in scene.sweeps], config.taxonomy
    )

    summary = {
        "frames": len(scene.sweeps),
        "detections": len(detections),
        "annotations": sum(len(f) for f in frames),
        "skipped_detections": skipped,
        "tracks": len(tracks),
        "wall_time_s": time.perf_counter() - t_start,
    }
    return frames, summary
