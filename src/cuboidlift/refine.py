"""Tracking-based score refinement over per-frame annotation lists.

Greedy frame-to-frame association: same-class cuboids in consecutive
frames match by ascending BEV center distance, within the class's match
radius, each cuboid at most once (`greedy_assign`; equal distances take
the lower previous-frame, then current-frame index). A missed frame
terminates the track (no gap bridging). Every annotation ends up in
exactly one track; members of a track then share the arithmetic mean of
their original scores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geom import bev_distance
from .ingest import Taxonomy


def greedy_assign(pairs) -> dict:
    """Take pairs in ascending order, each side at most once.

    Each pair is a tuple `(*sort_key, left, right)`. Walking them sorted,
    a pair is taken when neither its left nor its right side is taken
    yet. Returns {left: right} over the taken pairs.
    """
    taken, right_taken = {}, set()
    for *_, left, right in sorted(pairs):
        if left not in taken and right not in right_taken:
            taken[left] = right
            right_taken.add(right)
    return taken


@dataclass
class Track:
    track_id: int
    members: list  # [(frame_idx, ann_idx)] ordered by frame


def associate(frames: list, tax: Taxonomy) -> list:
    """Partition per-frame annotation lists into tracks.

    `frames` is a list (time-ordered) of lists of ScoredAnnotation in the
    world frame. Track ids are assigned in first-appearance order
    (frame index, then index within the frame).
    """
    tracks = []
    open_tracks = []  # the previous frame's tracks, by annotation index
    for fi, anns in enumerate(frames):
        prev = frames[fi - 1] if fi else []
        pairs = []
        for pi, pa in enumerate(prev):
            radius = tax.get(pa.class_label).match_radius
            for ci, ca in enumerate(anns):
                if ca.class_label != pa.class_label:
                    continue
                d = bev_distance(pa.cuboid, ca.cuboid)
                if d <= radius:
                    pairs.append((d, pi, ci))

        next_open = [None] * len(anns)
        for pi, ci in greedy_assign(pairs).items():
            open_tracks[pi].members.append((fi, ci))
            next_open[ci] = open_tracks[pi]
        for ci, t in enumerate(next_open):
            if t is None:
                next_open[ci] = Track(track_id=len(tracks), members=[(fi, ci)])
                tracks.append(next_open[ci])
        open_tracks = next_open

    return tracks


def refine_scores(tracks: list, frames: list) -> list:
    """Replace each member's score with its track's mean original score.

    Returns new per-frame lists; non-score fields are untouched and a
    track whose members already share one score (a single-member track,
    or one refined before) comes back unchanged: the float mean of equal
    values is not always that value, so re-averaging would drift.
    """
    out = [list(anns) for anns in frames]
    for t in tracks:
        scores = [frames[fi][ai].score for fi, ai in t.members]
        if len(set(scores)) == 1:
            continue
        mean = sum(scores) / len(scores)
        for fi, ai in t.members:
            out[fi][ai] = replace(out[fi][ai], score=mean)
    return out


def estimate_velocity(track: Track, frames: list, timestamps: list) -> list:
    """Per-member BEV velocity by finite differences of world centers.

    Central differences inside the track, one-sided at the ends; a
    single-member track has no velocity (list of None).
    """
    n = len(track.members)
    if n < 2:
        return [None] * n
    centers = np.array(
        [frames[fi][ai].cuboid.center[:2] for fi, ai in track.members]
    )
    times = np.array([timestamps[fi] for fi, ai in track.members], dtype=float) / 1e6
    vels = []
    for i in range(n):
        lo = max(0, i - 1)
        hi = min(n - 1, i + 1)
        dt = times[hi] - times[lo]
        if dt <= 0:
            vels.append(None)
            continue
        v = (centers[hi] - centers[lo]) / dt
        vels.append((float(v[0]), float(v[1])))
    return vels


def apply_velocities(tracks: list, frames: list, timestamps: list) -> list:
    """Annotate every track member with its estimated velocity."""
    out = [list(anns) for anns in frames]
    for t in tracks:
        vels = estimate_velocity(t, frames, timestamps)
        for (fi, ai), v in zip(t.members, vels):
            if v is not None:
                out[fi][ai] = replace(out[fi][ai], velocity=v)
    return out


def assign_track_ids(tracks: list, frames: list) -> list:
    out = [list(anns) for anns in frames]
    for t in tracks:
        for fi, ai in t.members:
            out[fi][ai] = replace(out[fi][ai], track_id=t.track_id)
    return out
