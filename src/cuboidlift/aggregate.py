"""Ego-motion-compensated aggregation of neighboring LiDAR sweeps.

Sweeps in a window around the annotation timestamp are transformed into
the current sweep's lidar frame and concatenated (sweep order, then point
order). The window is clamped at sequence boundaries so first/last frames
stay annotatable. Points of moving objects smear across sweeps; there is
deliberately no per-object motion compensation.
"""

from __future__ import annotations

import numpy as np


def aggregate_sweeps(seq: list, idx: int, window: tuple) -> np.ndarray:
    """Merge seq[idx-past : idx+future] into seq[idx]'s lidar frame.

    `window` is (past, future), the sweep counts of a class's
    `ClassSpec.aggregation`. Returns an (N, 3) float array. Each sweep j
    is moved by (world<-lidar at idx)^-1 @ (world<-lidar at j).
    """
    past, future = window
    if past < 0 or future < 0:
        raise ValueError("past/future sweep counts must be >= 0")
    if not seq:
        raise ValueError("empty sweep sequence")
    if not (0 <= idx < len(seq)):
        raise IndexError(f"sweep index {idx} out of range")
    lo = max(0, idx - past)
    hi = min(len(seq) - 1, idx + future)
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
    return np.concatenate(chunks, axis=0)
