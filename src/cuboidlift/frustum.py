"""Frustum point selection and foreground mask filtering for 2D detections."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geom import RigidTransform, project_points, round_half_away
from .ingest import Detection2D, SensorRig


@dataclass(frozen=True)
class FrustumPoints:
    """LiDAR points projecting into one detection's 2D box.

    Points stay in the lidar frame and keep the input sweep ordering.
    `pixels` caches the projected (u, v) per point so mask filtering does
    not re-project.
    """

    points: np.ndarray  # (M, 3) lidar frame
    foreground_flags: np.ndarray  # (M,) bool
    pixels: np.ndarray  # (M, 2)

    def __post_init__(self):
        if len(self.foreground_flags) != len(self.points):
            raise ValueError("flags length must equal points length")

    @property
    def foreground(self) -> np.ndarray:
        return self.points[self.foreground_flags]


def camera_from_lidar(rig: SensorRig, camera_id: str) -> RigidTransform:
    """camera <- lidar transform for one camera of the rig."""
    cam = rig.camera(camera_id)
    return cam.extrinsics.inverse() @ rig.lidar_extrinsics


def extract_frustum(points: np.ndarray, det: Detection2D, rig: SensorRig) -> FrustumPoints:
    """Select the points whose projection lands inside det.box with depth > 0.

    `points` is the (N, >=3) aggregated set in the current lidar frame.
    Box membership is boundary-inclusive. The result keeps input ordering;
    all selected points start flagged foreground.
    """
    cam = rig.camera(det.camera_id)
    xyz = np.asarray(points, dtype=float)[:, :3]
    u, v, front = project_points(camera_from_lidar(rig, det.camera_id).apply(xyz), cam.intrinsics)
    inside = (
        front
        & (u >= det.box.x1)
        & (u <= det.box.x2)
        & (v >= det.box.y1)
        & (v <= det.box.y2)
    )
    idx = np.nonzero(inside)[0]
    return FrustumPoints(
        points=np.ascontiguousarray(xyz[idx]),
        foreground_flags=np.ones(len(idx), dtype=bool),
        pixels=np.stack([u[idx], v[idx]], axis=1),
    )


def filter_foreground(fp: FrustumPoints, mask: Optional[np.ndarray]) -> FrustumPoints:
    """Flag points whose projected pixel is set in the mask.

    Pixels are rounded half away from zero and clipped to the image bounds.
    No mask means everything stays foreground (the pipeline must run
    without a segmentation stage).
    """
    if mask is None:
        return fp
    h, w = mask.shape
    if len(fp.points) == 0:
        return fp
    cols = round_half_away(fp.pixels[:, 0]).astype(int)
    rows = round_half_away(fp.pixels[:, 1]).astype(int)
    cols = np.clip(cols, 0, w - 1)
    rows = np.clip(rows, 0, h - 1)
    flags = fp.foreground_flags & np.asarray(mask, dtype=bool)[rows, cols]
    return FrustumPoints(points=fp.points, foreground_flags=flags, pixels=fp.pixels)
