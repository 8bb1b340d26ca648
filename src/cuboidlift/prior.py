"""Per-detection size/orientation priors with confidence-aware routing.

A prior carries the cuboid dimensions to fit and, optionally, a coarse
heading that constrains the yaw search to a narrow sector. Per-instance
priors come from an external record file (typically produced offline by a
vision-language model, see docs/expert_prompt.md); low-confidence or
uncovered detections fall back to class-average dimensions with a full
360-degree yaw search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geom import RigidTransform, wrap_angle
from .ingest import Detection2D, FormatError, SensorRig, Taxonomy, read_ndjson, read_numbers, write_ndjson

FULL_SECTOR = math.pi

# canonical face order also breaks circular-mean ties at exact opposition
FACES = ("front", "back", "left", "right")

# third of the image width that holds the box center (docs/expert_prompt.md)
IMAGE_REGIONS = ("left", "center", "right")

# heading of the face's outward normal relative to the camera optical-axis
# azimuth; seeing a face means the object heads the opposite way for front,
# the same way for back, etc.
_FACE_HEADING_OFFSET = {
    "back": 0.0,
    "front": math.pi,
    "left": math.pi / 2.0,
    "right": -math.pi / 2.0,
}


@dataclass(frozen=True)
class SemanticPrior:
    dims: tuple  # (l, w, h)
    orientation: Optional[float]  # yaw in current lidar frame, None if unknown
    sector_half_width: float
    source: str  # "per_instance" | "class_average"

    def __post_init__(self):
        if any(d <= 0 for d in self.dims):
            raise ValueError("prior dims must be positive")
        if not (0.0 < self.sector_half_width <= math.pi):
            raise ValueError("sector_half_width must be in (0, pi]")


@dataclass(frozen=True)
class ExpertRecord:
    frame_id: str
    camera_id: str
    box: tuple  # (x1, y1, x2, y2)
    dims: tuple  # (l, w, h)
    visible_faces: tuple
    image_region: str = "center"

    def __post_init__(self):
        if not self.visible_faces:
            raise ValueError("record needs at least one visible face")
        for f in self.visible_faces:
            if f not in FACES:
                raise ValueError(f"unknown face {f!r}")
        if any(d <= 0 for d in self.dims):
            raise ValueError("record dims must be positive")
        if self.image_region not in IMAGE_REGIONS:
            raise ValueError(f"expected image_region in {IMAGE_REGIONS}, got {self.image_region!r}")


def _detection_key(frame_id: str, camera_id: str, box) -> tuple:
    # box coordinates rounded to one decimal so float noise in the two
    # files does not break the join
    return (frame_id, camera_id) + tuple(round(float(v), 1) for v in box)


def expert_key(det: Detection2D) -> tuple:
    return _detection_key(det.frame_id, det.camera_id, (det.box.x1, det.box.y1, det.box.x2, det.box.y2))


def _record_from_json(rec: dict) -> ExpertRecord:
    return ExpertRecord(
        frame_id=str(rec["frame_id"]),
        camera_id=str(rec["camera_id"]),
        box=read_numbers(rec["box"], 4),
        dims=read_numbers(rec["dims"], 3),
        visible_faces=tuple(rec["visible_faces"]),
        image_region=rec.get("image_region", "center"),
    )


def _record_to_json(r: ExpertRecord) -> dict:
    return {
        "frame_id": r.frame_id,
        "camera_id": r.camera_id,
        "box": [float(v) for v in r.box],
        "dims": [float(v) for v in r.dims],
        "visible_faces": list(r.visible_faces),
        "image_region": r.image_region,
    }


def load_expert_records(path) -> dict:
    """Parse the NDJSON sidecar into a lookup keyed by (frame, camera, box)."""
    index = {}
    for lineno, record in read_ndjson(path, _record_from_json):
        key = _detection_key(record.frame_id, record.camera_id, record.box)
        if key in index:
            raise FormatError(f"{path}:{lineno}: duplicate record for key {key}")
        index[key] = record
    return index


def write_expert_records(records: list, path) -> None:
    write_ndjson(map(_record_to_json, records), path)


def camera_axis_azimuth(camera_extr: RigidTransform, lidar_extr: RigidTransform) -> float:
    """Azimuth of the camera optical axis (+z) in the lidar frame."""
    # lidar_extr.inverse().rotation, without building the inverse transform
    rot_lidar_cam = lidar_extr.rotation.T @ camera_extr.rotation
    axis = rot_lidar_cam @ np.array([0.0, 0.0, 1.0])
    return math.atan2(axis[1], axis[0])


def derive_orientation(
    rec: ExpertRecord, camera_extr: RigidTransform, lidar_extr: RigidTransform
) -> float:
    """Map visible faces to an object heading in the lidar frame.

    Seeing the back means the object heads away from the camera, the front
    means toward it, the sides give +-90 degrees. Several faces average on
    the circle; an exactly opposed pair degenerates, in which case the face
    listed first in the canonical front<back<left<right order wins.
    """
    if not rec.visible_faces:
        raise ValueError("empty face set")
    azimuth = camera_axis_azimuth(camera_extr, lidar_extr)
    headings = [azimuth + _FACE_HEADING_OFFSET[f] for f in rec.visible_faces]
    sin_sum = sum(math.sin(h) for h in headings)
    cos_sum = sum(math.cos(h) for h in headings)
    if math.hypot(sin_sum, cos_sum) < 1e-9:
        first = min(rec.visible_faces, key=FACES.index)
        return wrap_angle(azimuth + _FACE_HEADING_OFFSET[first])
    return wrap_angle(math.atan2(sin_sum, cos_sum))


def route(
    det: Detection2D,
    expert: Optional[ExpertRecord],
    tax: Taxonomy,
    rig: SensorRig,
    threshold: float,
    sector_half_width: float,
) -> SemanticPrior:
    """Pick the per-instance prior when confident and covered, else fall back.

    High-confidence detections with a record get the record's dimensions,
    a derived heading and a narrow yaw sector; everything else searches the
    full circle around class-average dimensions.
    """
    spec = tax.get(det.class_label)
    if det.score >= threshold and expert is not None:
        cam = rig.camera(det.camera_id)
        orientation = derive_orientation(expert, cam.extrinsics, rig.lidar_extrinsics)
        return SemanticPrior(
            dims=expert.dims,
            orientation=orientation,
            sector_half_width=sector_half_width,
            source="per_instance",
        )
    return SemanticPrior(
        dims=spec.avg_dims,
        orientation=None,
        sector_half_width=FULL_SECTOR,
        source="class_average",
    )
