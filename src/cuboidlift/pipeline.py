"""End-to-end annotation: aggregate, frustum, prior, search, score, refine.

Per frame and detection the pipeline aggregates sweeps with the class's
window, selects frustum points, routes to a prior, runs the hypothesis
search, scores the winner and finally refines scores over tracks built
across the whole sequence. Detections are processed independently, so
detection-level threading cannot change the output: results land in a
slot per detection index and every reduction is order-free.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

import numpy as np

from .aggregate import AggregationStrategy, aggregate_sweeps, strategy_for_class
from .config import PipelineConfig
from .frustum import extract_frustum, filter_foreground
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
    agg_points: np.ndarray,
    scene: Scene,
    config: PipelineConfig,
    prior: SemanticPrior,
) -> Optional[ScoredAnnotation]:
    """Lift one detection; None when no foreground point anchors the search."""
    fp = extract_frustum(agg_points, det, scene.rig)
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
    threads: Optional[int] = None,
):
    """Run the full pipeline; returns (per-frame annotation lists, summary).

    `prior_provider` overrides the routing stage entirely (used by the
    synthetic round-trip); otherwise detections route through the expert
    record index with class-average fallback.
    """
    t_start = time.perf_counter()
    n_threads = config.threads if threads is None else threads
    if n_threads <= 0:
        import os

        n_threads = min(8, os.cpu_count() or 1)

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

    # aggregation windows are shared across detections of the same frame/class
    agg_cache = {}

    def aggregated(sweep_idx: int, strat: AggregationStrategy) -> np.ndarray:
        key = (sweep_idx, strat.past, strat.future)
        if key not in agg_cache:
            agg_cache[key] = aggregate_sweeps(scene.sweeps, sweep_idx, strat)
        return agg_cache[key]

    jobs = []
    for det in detections:
        si = frame_index[det.frame_id]
        strat = strategy_for_class(config.taxonomy, det.class_label)
        aggregated(si, strat)  # fill the cache sequentially
        jobs.append((det, si, strat))

    annotations = [None] * len(jobs)

    def run(i: int) -> None:
        det, si, strat = jobs[i]
        annotations[i] = _process_detection(
            det, si, agg_cache[(si, strat.past, strat.future)], scene, config, prior_for(det)
        )

    if n_threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(run, range(len(jobs))))
    else:
        for i in range(len(jobs)):
            run(i)

    frames = [[] for _ in scene.sweeps]
    skipped = 0
    for (_, si, _), annotation in zip(jobs, annotations):
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
