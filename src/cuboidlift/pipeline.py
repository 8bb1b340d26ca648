"""End-to-end annotation: aggregate, frustum, prior, search, score, refine.

Per frame and detection the pipeline aggregates sweeps with the class's
window, selects frustum points, routes to a prior, runs the hypothesis
search, scores the winner and finally refines scores over tracks built
across the whole sequence. Detections that need the same window (sweep,
class aggregation) form a group, and each group runs whole: its window
is aggregated, projected once per camera and freed, its detections cut
their frustums out of their camera's view, and the views go when the
group is done. Groups are independent, so threading over groups cannot
change the output: results land in a slot per detection index and every
reduction is order-free.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Union

from .aggregate import aggregate_sweeps
from .config import PipelineConfig
from .frustum import CameraView, extract_frustum, filter_foreground, project_view
from .geom import Box2D, transform_cuboid
from .ingest import Detection2D, Scene, ScoredAnnotation, Taxonomy
from .prior import PRIOR_SOURCES, SemanticPrior, expert_key, route
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


# why a detection was skipped, in the order of the summary's counts
SKIP_REASONS = ("box_outside_image", "empty_frustum", "mask_removed_all")


def _process_detection(
    det: Detection2D,
    sweep_idx: int,
    view: CameraView,
    scene: Scene,
    config: PipelineConfig,
    prior: SemanticPrior,
) -> Union[ScoredAnnotation, str]:
    """Lift one detection; the skip reason when no foreground point anchors the search."""
    fp = extract_frustum(view, det)
    fp = filter_foreground(fp, det.mask)
    try:
        init = init_hypothesis(fp, prior)
    except EmptyFrustumError:
        return "empty_frustum" if len(fp.points) == 0 else "mask_removed_all"
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
    threads: int = 1,
):
    """Run the full pipeline; returns (per-frame annotation lists, summary).

    Each box is cut to its camera's image on entry (README step 2): one
    with no positive-area overlap is skipped as `box_outside_image`, and
    the others search with their in-image part but route as written. The
    summary counts the skipped detections, in total and by reason
    (`SKIP_REASONS`), and the routed ones by prior source (`PRIOR_SOURCES`).

    `prior_provider` overrides the routing stage entirely (used by the
    synthetic round-trip); otherwise detections route through the expert
    record index with class-average fallback. `threads` above 1 runs the
    window groups on that many workers; each takes whole groups, so a
    scene with one group runs on one thread.
    """
    t_start = time.perf_counter()

    # one pass checks every detection, cuts its box to its image and groups
    # it by (sweep index, (past, future)) window, then by camera, in
    # first-seen order; per detection index: the detection later stages
    # see, its annotation or skip reason, and its prior's source
    frame_index = {sw.frame_id: i for i, sw in enumerate(scene.sweeps)}
    groups, cut = {}, list(detections)
    annotations, sources = [None] * len(detections), [None] * len(detections)
    for i, det in enumerate(detections):
        if det.frame_id not in frame_index:
            raise ValueError(f"detection references unknown frame {det.frame_id!r}")
        if det.camera_id not in scene.rig.cameras:
            raise ValueError(f"detection references unknown camera id {det.camera_id!r}")
        intr = scene.rig.cameras[det.camera_id].intrinsics
        if det.mask is not None and det.mask["size"] != [intr.height, intr.width]:
            raise ValueError(
                f"mask size {det.mask['size']} does not match camera "
                f"{det.camera_id} image size {[intr.height, intr.width]}"
            )
        key = (frame_index[det.frame_id], config.taxonomy.get(det.class_label).aggregation)
        b = det.box
        x1, y1, x2, y2 = max(b.x1, 0.0), max(b.y1, 0.0), min(b.x2, intr.width), min(b.y2, intr.height)
        if x2 <= x1 or y2 <= y1:
            annotations[i] = "box_outside_image"
            continue
        if (x1, y1, x2, y2) != (b.x1, b.y1, b.x2, b.y2):
            cut[i] = dataclasses.replace(det, box=Box2D(x1, y1, float(x2), float(y2)))
        groups.setdefault(key, {}).setdefault(det.camera_id, []).append(i)

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

    def run(group) -> None:
        # project the window once per camera, keeping only what some box of
        # that camera can select, and drop it before any detection runs;
        # the group's views go when it returns
        (si, aggregation), cameras = group
        window = aggregate_sweeps(scene.sweeps, si, aggregation)
        views = [
            (project_view(window, scene.rig, camera_id, [cut[i].box for i in members]), members)
            for camera_id, members in cameras.items()
        ]
        del window
        for view, members in views:
            for i in members:
                prior = prior_for(detections[i])
                sources[i] = prior.source
                annotations[i] = _process_detection(cut[i], si, view, scene, config, prior)

    if threads > 1 and len(groups) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, groups.items()))
    else:
        for group in groups.items():
            run(group)

    frames = [[] for _ in scene.sweeps]
    skipped = Counter()
    for det, annotation in zip(detections, annotations):
        if isinstance(annotation, str):
            skipped[annotation] += 1
        else:
            frames[frame_index[det.frame_id]].append(annotation)

    frames, tracks = track_and_refine(
        frames, [sw.timestamp for sw in scene.sweeps], config.taxonomy
    )

    summary = {
        "frames": len(scene.sweeps),
        "detections": len(detections),
        "annotations": sum(len(f) for f in frames),
        "skipped_detections": sum(skipped.values()),
        "skipped_by_reason": {reason: skipped[reason] for reason in SKIP_REASONS},
        "prior_sources": {source: sources.count(source) for source in PRIOR_SOURCES},
        "tracks": len(tracks),
        "wall_time_s": time.perf_counter() - t_start,
    }
    return frames, summary
