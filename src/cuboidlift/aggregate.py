"""Ego-motion-compensated aggregation of neighboring LiDAR sweeps.

Sweeps in a window around the annotation timestamp are transformed into
the current sweep's lidar frame and concatenated (sweep order, then point
order). The window is clamped at sequence boundaries so first/last frames
stay annotatable. Points of moving objects smear across sweeps; there is
deliberately no per-object motion compensation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import Taxonomy


@dataclass(frozen=True)
class AggregationStrategy:
    """Number of past and future sweeps to merge with the current one."""

    past: int = 0
    future: int = 0

    def __post_init__(self):
        if self.past < 0 or self.future < 0:
            raise ValueError("past/future sweep counts must be >= 0")


def strategy_for_class(tax: Taxonomy, class_label: str) -> AggregationStrategy:
    past, future = tax.get(class_label).aggregation
    return AggregationStrategy(past=past, future=future)


def aggregate_sweeps(seq: list, idx: int, strat: AggregationStrategy) -> np.ndarray:
    """Merge seq[idx-past : idx+future] into seq[idx]'s lidar frame.

    Returns an (N, 3) float array. Each sweep j is moved by
    (world<-lidar at idx)^-1 @ (world<-lidar at j).
    """
    if not seq:
        raise ValueError("empty sweep sequence")
    if not (0 <= idx < len(seq)):
        raise IndexError(f"sweep index {idx} out of range")
    lo = max(0, idx - strat.past)
    hi = min(len(seq) - 1, idx + strat.future)
    current = seq[idx].lidar_to_world()
    to_current = current.inverse()
    chunks = []
    for j in range(lo, hi + 1):
        pts = np.asarray(seq[j].points, dtype=float)[:, :3]
        pose = seq[j].lidar_to_world()
        same_pose = np.array_equal(pose.rotation, current.rotation) and np.array_equal(
            pose.translation, current.translation
        )
        if j == idx or same_pose:
            chunks.append(pts)
            continue
        t = to_current @ pose
        chunks.append(t.apply(pts))
    if not chunks:
        return np.zeros((0, 3))
    return np.concatenate(chunks, axis=0)
