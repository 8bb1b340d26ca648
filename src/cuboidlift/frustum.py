"""Frustum point selection and foreground mask filtering for 2D detections.

A window of points is projected into each camera once (`project_view`);
each detection's frustum is then a box cut of that camera's view
(`extract_frustum`), on the same cached pixel coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .geom import Box2D, RigidTransform, project_points, round_half_away
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

    @cached_property
    def foreground(self) -> np.ndarray:
        return self.points[self.foreground_flags]


@dataclass(frozen=True)
class CameraView:
    """An aggregated window projected into one camera, cut to a pixel box.

    Holds the points in front of the camera whose projection lies inside
    `bounds` (boundary-inclusive), with their projected u and v, in input
    order. The arrays are copies, so a view does not keep its window alive.
    """

    camera_id: str
    bounds: Box2D
    points: np.ndarray  # (K, 3) lidar frame
    u: np.ndarray  # (K,)
    v: np.ndarray  # (K,)

    def __len__(self) -> int:
        return len(self.points)


def camera_from_lidar(rig: SensorRig, camera_id: str) -> RigidTransform:
    """camera <- lidar transform for one camera of the rig, built once per rig."""
    return rig.camera_from_lidar(camera_id)


def _in_box(u: np.ndarray, v: np.ndarray, box: Box2D) -> np.ndarray:
    return (u >= box.x1) & (u <= box.x2) & (v >= box.y1) & (v <= box.y2)


def project_view(points: np.ndarray, rig: SensorRig, camera_id: str, boxes: list) -> CameraView:
    """Project a window into one camera, keeping what any of `boxes` can select.

    `points` is the (N, >=3) aggregated set in the current lidar frame.
    The view keeps the points with depth > 0 whose projection lies inside
    the bounding box of all `boxes`, so `extract_frustum` on the view
    selects exactly what projecting all points for each box would.
    """
    if not boxes:
        raise ValueError("a camera view needs at least one box")
    bounds = Box2D(
        min(b.x1 for b in boxes),
        min(b.y1 for b in boxes),
        max(b.x2 for b in boxes),
        max(b.y2 for b in boxes),
    )
    cam = rig.camera(camera_id)
    xyz = np.asarray(points, dtype=float)[:, :3]
    u, v, front = project_points(camera_from_lidar(rig, camera_id).apply(xyz), cam.intrinsics)
    idx = np.nonzero(front & _in_box(u, v, bounds))[0]
    return CameraView(camera_id=camera_id, bounds=bounds, points=xyz[idx], u=u[idx], v=v[idx])


def extract_frustum(view: CameraView, det: Detection2D) -> FrustumPoints:
    """Select the view's points whose projection lands inside det.box.

    Box membership is boundary-inclusive. The result keeps input ordering;
    all selected points start flagged foreground. The box must lie within
    the view's bounds, or points outside them would be silently missed.
    """
    if det.camera_id != view.camera_id:
        raise ValueError(f"detection on camera {det.camera_id!r}, view of {view.camera_id!r}")
    box, bounds = det.box, view.bounds
    if not (
        bounds.x1 <= box.x1 and box.x2 <= bounds.x2 and bounds.y1 <= box.y1 and box.y2 <= bounds.y2
    ):
        raise ValueError("detection box reaches outside the camera view's bounds")
    idx = np.nonzero(_in_box(view.u, view.v, box))[0]
    return FrustumPoints(
        points=view.points[idx],
        foreground_flags=np.ones(len(idx), dtype=bool),
        pixels=np.stack([view.u[idx], view.v[idx]], axis=1),
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
