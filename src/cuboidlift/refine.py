"""Tracking-based score refinement over per-frame annotation lists.

Greedy frame-to-frame association: same-class cuboids in consecutive
frames match by ascending BEV center distance, within the class's match
radius, each cuboid at most once. A missed frame terminates the track (no
gap bridging). Every annotation ends up in exactly one track; members of
a track then share the arithmetic mean of their original scores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geom import bev_distance
from .ingest import Taxonomy


@dataclass
class Track:
    track_id: int
    class_label: str
    members: list  # [(frame_idx, ann_idx)] ordered by frame


def associate(frames: list, tax: Taxonomy) -> list:
    """Partition per-frame annotation lists into tracks.

    `frames` is a list (time-ordered) of lists of ScoredAnnotation in the
    world frame. Track ids are assigned in first-appearance order
    (frame index, then index within the frame).
    """
    tracks = []
    open_track_of = {}  # (frame_idx, ann_idx) -> Track, for the previous frame

    for fi, anns in enumerate(frames):
        if fi == 0:
            for ai, a in enumerate(anns):
                t = Track(track_id=len(tracks), class_label=a.class_label, members=[(fi, ai)])
                tracks.append(t)
                open_track_of[(fi, ai)] = t
            continue

        prev = frames[fi - 1]
        # candidate pairs sorted by distance; index tie-break keeps it deterministic
        pairs = []
        for pi, pa in enumerate(prev):
            radius = tax.get(pa.class_label).match_radius
            for ci, ca in enumerate(anns):
                if ca.class_label != pa.class_label:
                    continue
                d = bev_distance(pa.cuboid, ca.cuboid)
                if d <= radius:
                    pairs.append((d, pi, ci))
        pairs.sort()

        matched_prev = set()
        matched_cur = set()
        next_open = {}
        for d, pi, ci in pairs:
            if pi in matched_prev or ci in matched_cur:
                continue
            matched_prev.add(pi)
            matched_cur.add(ci)
            t = open_track_of.get((fi - 1, pi))
            if t is None:
                continue
            t.members.append((fi, ci))
            next_open[(fi, ci)] = t
        for ci, ca in enumerate(anns):
            if ci in matched_cur:
                continue
            t = Track(track_id=len(tracks), class_label=ca.class_label, members=[(fi, ci)])
            tracks.append(t)
            next_open[(fi, ci)] = t
        open_track_of = next_open

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
