"""Load and persist pipeline data: sweeps, calibration, detections, annotations.

File formats (all distances meters, all angles radians, timestamps integer
microseconds):

* sweeps: raw little-endian float32 records, stride 4 (x, y, z, intensity)
  or 5 (x, y, z, intensity, ring). The stride comes from config and is
  never auto-sniffed. Only x, y, z are read; intensity and ring are
  written as 0.5 and 0. This module is the only one that knows the layout.
* scene manifest: one JSON document with cameras (id, intrinsics,
  extrinsics ego<-camera), lidar extrinsics ego<-lidar, and an ordered
  sweep list (frame_id, timestamp, ego_pose as quaternion wxyz +
  translation xyz, relative file path).
* detections: NDJSON {frame_id, camera_id, class, box:[x1,y1,x2,y2],
  score, mask_rle?}. Masks are run-length encoded over row-major pixel
  order, counts starting with the run of zeros, and held as those runs;
  a missing or null mask_rle means no mask; anything else must be an RLE object.
* annotations: NDJSON {frame_id, class, center:[x,y,z], dims:[l,w,h], yaw,
  score, track_id?, velocity?:[vx,vy], s2d?, s3d?}. The optional s2d/s3d
  fields preserve the fusion inputs so scores can be re-fused offline.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geom import Box2D, CameraIntrinsics, Cuboid3D, RigidTransform, rotmat_to_quat


class FormatError(ValueError):
    """Malformed input file; message names the file and, where known, the line."""


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class SweepFrame:
    """One timestamped LiDAR sweep: its manifest entry and its file's points."""

    frame_id: str
    timestamp: int  # microseconds
    points: np.ndarray  # (N, 3) float32 x, y, z, lidar frame
    ego_pose: RigidTransform  # world <- ego


@dataclass(frozen=True)
class Detection2D:
    frame_id: str
    camera_id: str
    class_label: str
    box: Box2D
    score: float
    mask: Optional[dict] = None  # RLE {"size": [height, width], "counts": [...]}

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class ScoredAnnotation:
    frame_id: str
    cuboid: Cuboid3D  # world frame
    class_label: str
    score: float
    track_id: Optional[int] = None
    velocity: Optional[tuple] = None  # (vx, vy) m/s in BEV
    s2d: Optional[float] = None
    s3d: Optional[float] = None

    def __post_init__(self):
        for name in ("score", "s2d", "s3d"):
            v = getattr(self, name)
            if v is not None and not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} {v} outside [0, 1]")


@dataclass(frozen=True)
class ClassSpec:
    name: str
    avg_dims: tuple  # (l, w, h)
    aggregation: tuple  # (past, future)
    match_radius: float = 2.0

    def __post_init__(self):
        if len(self.avg_dims) != 3 or any(d <= 0 for d in self.avg_dims):
            raise ValueError(f"class {self.name}: avg_dims must be three positive values")
        if len(self.aggregation) != 2 or any(not isinstance(n, int) or n < 0 for n in self.aggregation):
            raise ValueError(f"class {self.name}: aggregation must be two integers >= 0")
        if not self.match_radius > 0:
            raise ValueError(f"class {self.name}: match_radius must be positive")


@dataclass(frozen=True)
class Taxonomy:
    classes: tuple

    def __post_init__(self):
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate class names in taxonomy")
        object.__setattr__(self, "_by_name", {c.name: c for c in self.classes})

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> ClassSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown class {name!r}") from None

    @property
    def names(self):
        return [c.name for c in self.classes]


@dataclass(frozen=True)
class CameraCalib:
    camera_id: str
    intrinsics: CameraIntrinsics
    extrinsics: RigidTransform  # ego <- camera


@dataclass(frozen=True)
class SensorRig:
    """Calibration block of a scene: cameras plus the lidar mount."""

    cameras: dict  # camera_id -> CameraCalib
    lidar_extrinsics: RigidTransform  # ego <- lidar

    def __post_init__(self):
        object.__setattr__(self, "_camera_from_lidar", {})

    def camera(self, camera_id: str) -> CameraCalib:
        try:
            return self.cameras[camera_id]
        except KeyError:
            raise KeyError(f"unknown camera id {camera_id!r}") from None

    def camera_from_lidar(self, camera_id: str) -> RigidTransform:
        """camera <- lidar for one camera, composed on first use and kept."""
        t = self._camera_from_lidar.get(camera_id)
        if t is None:
            t = self.camera(camera_id).extrinsics.inverse() @ self.lidar_extrinsics
            self._camera_from_lidar[camera_id] = t
        return t


@dataclass(frozen=True)
class Scene:
    rig: SensorRig
    sweeps: list  # ordered SweepFrame list

    def __post_init__(self):
        frame_index = {}  # frame_id -> index into sweeps
        for i, sw in enumerate(self.sweeps):
            if frame_index.setdefault(sw.frame_id, i) != i:
                raise ValueError(f"duplicate sweep frame_id {sw.frame_id!r}")
        object.__setattr__(self, "frame_index", frame_index)
        # world <- lidar per sweep: its ego pose after the rig's one mount
        lidar = self.rig.lidar_extrinsics
        object.__setattr__(self, "lidar_to_world", [sw.ego_pose @ lidar for sw in self.sweeps])

    def check_frame(self, frame_id: str) -> None:
        if frame_id not in self.frame_index:
            raise ValueError(f"unknown frame {frame_id!r}")


# ---------------------------------------------------------------------------
# JSON values: every number a loader reads goes through one of these


def read_number(value) -> float:
    """A finite JSON number (an int or float, not a bool or str) as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"expected a finite number, got {value!r}")


def read_int(value) -> int:
    """A JSON integer (an int, not a bool)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected an integer, got {value!r}")


def _read_list(value, n: int, read, kind: str) -> tuple:
    if not isinstance(value, list) or len(value) != n:
        raise ValueError(f"expected a list of {n} {kind}, got {value!r}")
    return tuple(read(v) for v in value)


def read_numbers(value, n: int) -> tuple:
    """A JSON list of exactly n finite numbers, as a tuple of floats."""
    return _read_list(value, n, read_number, "numbers")


def read_ints(value, n: int) -> tuple:
    """A JSON list of exactly n integers, as a tuple of ints."""
    return _read_list(value, n, read_int, "integers")


# ---------------------------------------------------------------------------
# NDJSON


def _format_error(where: str, e: Exception) -> FormatError:
    if isinstance(e, KeyError):
        return FormatError(f"{where}: missing field {e}")
    return FormatError(f"{where}: {e}")


def read_ndjson(path, parse):
    """Yield (lineno, parse(record)) for each non-blank line of an NDJSON file.

    Line numbers are 1-based. Non-UTF-8 bytes, malformed JSON, a record
    that is not an object, and a KeyError, TypeError, ValueError or
    OverflowError from `parse` become a FormatError citing path:lineno.
    """
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("expected a JSON object")
                value = parse(rec)
            except UnicodeDecodeError as e:
                raise FormatError(f"{path}:{lineno}: not UTF-8 ({e.reason})") from None
            except json.JSONDecodeError as e:
                raise FormatError(f"{path}:{lineno}: malformed JSON ({e.msg})") from None
            except (KeyError, TypeError, ValueError, OverflowError) as e:
                raise _format_error(f"{path}:{lineno}", e) from None
            yield lineno, value


def write_ndjson(records, path) -> None:
    """One `json.dumps` line per record; a NaN or infinity is a ValueError."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# Run-length masks


def mask_to_rle(mask: np.ndarray) -> dict:
    """Encode a bool (height, width) mask; counts start with the run of zeros."""
    m = np.asarray(mask, dtype=bool)
    h, w = m.shape
    flat = m.reshape(-1)
    counts = []
    if flat.size == 0:
        return {"size": [h, w], "counts": []}
    # run boundaries over row-major order
    change = np.nonzero(flat[1:] != flat[:-1])[0] + 1
    starts = np.concatenate([[0], change])
    lengths = np.diff(np.concatenate([starts, [flat.size]]))
    if flat[0]:
        counts.append(0)
    counts.extend(int(v) for v in lengths)
    return {"size": [h, w], "counts": counts}


def rle_lookup(rle: dict, index: np.ndarray) -> np.ndarray:
    """Whether each row-major pixel `index` (row * width + col) is set.

    Runs alternate from the run of zeros, so the pixel lies in the run
    numbered by how many run ends are at or before it, and is set when
    that number is odd. A zero-length run adds an end equal to the one
    before it, which never changes that parity at a real pixel.
    """
    ends = np.cumsum(rle["counts"], dtype=np.int64)
    return (np.searchsorted(ends, index, side="right") & 1).astype(bool)


def _rle_from_json(value) -> dict:
    """Check a `mask_rle` object and return it as `mask_to_rle` writes it."""
    if not isinstance(value, dict):
        raise ValueError(f"mask_rle must be an RLE object, got {value!r}")
    h, w = read_ints(value["size"], 2)
    if h < 0 or w < 0:
        raise ValueError(f"RLE size {[h, w]} is negative")
    counts = value["counts"]
    if not isinstance(counts, list):
        raise ValueError(f"RLE counts must be a list, got {counts!r}")
    for c in counts:
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            raise ValueError(f"RLE count {c!r} is not a non-negative integer")
    total = sum(counts)
    if total != h * w:
        raise ValueError(f"RLE counts sum to {total}, expected {h * w}")
    return {"size": [h, w], "counts": counts}


# ---------------------------------------------------------------------------
# Sweeps

# floats per sweep record: the accepted strides and the default one
SWEEP_STRIDES = (4, 5)
SWEEP_STRIDE = 5


def load_sweep_points(path, stride: int = SWEEP_STRIDE) -> np.ndarray:
    """Read raw float32 records; returns their (N, 3) float32 x, y, z.

    Intensity, and the ring index of stride 5, are read past.
    """
    if stride not in SWEEP_STRIDES:
        raise ValueError("stride must be 4 or 5")
    with open(path, "rb") as f:
        # fromfile drops a trailing partial float, so check the byte length
        if os.fstat(f.fileno()).st_size % (4 * stride) != 0:
            raise FormatError(
                f"{path}: byte length not divisible by record stride {stride}"
            )
        raw = np.fromfile(f, dtype="<f4")
    pts = raw.reshape(-1, stride)[:, :3]
    if pts.size and not np.isfinite(pts).all():
        raise FormatError(f"{path}: non-finite coordinates")
    return np.ascontiguousarray(pts)


def write_sweep_points(points: np.ndarray, path, stride: int = SWEEP_STRIDE) -> None:
    """Write (N, 3) x, y, z as float32 records with intensity 0.5 and ring 0."""
    if stride not in SWEEP_STRIDES:
        raise ValueError("stride must be 4 or 5")
    pts = np.asarray(points)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"sweep points must be (N, 3), got shape {pts.shape}")
    out = np.zeros((len(pts), stride), dtype="<f4")
    out[:, :3] = pts
    out[:, 3] = 0.5
    out.tofile(path)


def _pose_from_json(obj) -> RigidTransform:
    return RigidTransform.from_quat(read_numbers(obj["rotation"], 4), read_numbers(obj["translation"], 3))


def _pose_to_json(t: RigidTransform) -> dict:
    return {
        "rotation": [float(v) for v in rotmat_to_quat(t.rotation)],
        "translation": [float(v) for v in t.translation],
    }


def load_scene(manifest_path, stride: int = SWEEP_STRIDE) -> Scene:
    """Parse a scene manifest and every sweep file it references.

    Raises OSError, or FormatError naming the manifest (or the sweep file
    at fault).
    """
    try:
        with open(manifest_path, encoding="utf-8") as f:
            doc = json.load(f)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        return _scene_from_json(doc, os.path.dirname(os.path.abspath(manifest_path)), stride)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise _format_error(str(manifest_path), e) from None


def _scene_from_json(doc: dict, base: str, stride: int) -> Scene:
    cameras = {}
    for cam in doc["cameras"]:
        camera_id = str(cam["id"])  # as load_detections reads them
        if camera_id in cameras:
            raise ValueError(f"duplicate camera id {camera_id!r}")
        intr = cam["intrinsics"]
        cameras[camera_id] = CameraCalib(
            camera_id=camera_id,
            intrinsics=CameraIntrinsics(
                fx=read_number(intr["fx"]),
                fy=read_number(intr["fy"]),
                cx=read_number(intr["cx"]),
                cy=read_number(intr["cy"]),
                width=read_int(intr["width"]),
                height=read_int(intr["height"]),
            ),
            extrinsics=_pose_from_json(cam["extrinsics"]),
        )
    rig = SensorRig(cameras=cameras, lidar_extrinsics=_pose_from_json(doc["lidar"]))

    sweeps = []
    last_ts = None
    for entry in doc["sweeps"]:
        frame_id = str(entry["frame_id"])
        ts = read_int(entry["timestamp"])
        if last_ts is not None and ts <= last_ts:
            raise ValueError("sweep timestamps not strictly increasing")
        last_ts = ts
        pts = load_sweep_points(os.path.join(base, entry["file"]), stride=stride)
        sweeps.append(
            SweepFrame(
                frame_id=frame_id,
                timestamp=ts,
                points=pts,
                ego_pose=_pose_from_json(entry["ego_pose"]),
            )
        )
    return Scene(rig=rig, sweeps=sweeps)


def write_scene(scene: Scene, out_dir) -> str:
    """Write manifest + stride-5 sweep binaries under out_dir; returns the manifest path."""
    os.makedirs(os.path.join(out_dir, "sweeps"), exist_ok=True)
    entries = []
    for i, sw in enumerate(scene.sweeps):
        rel = os.path.join("sweeps", f"{i:06d}.bin")
        write_sweep_points(sw.points, os.path.join(out_dir, rel))
        entries.append(
            {
                "frame_id": sw.frame_id,
                "timestamp": sw.timestamp,
                "ego_pose": _pose_to_json(sw.ego_pose),
                "file": rel,
            }
        )
    doc = {
        "cameras": [
            {
                "id": c.camera_id,
                "intrinsics": {
                    "fx": c.intrinsics.fx,
                    "fy": c.intrinsics.fy,
                    "cx": c.intrinsics.cx,
                    "cy": c.intrinsics.cy,
                    "width": c.intrinsics.width,
                    "height": c.intrinsics.height,
                },
                "extrinsics": _pose_to_json(c.extrinsics),
            }
            for c in scene.rig.cameras.values()
        ],
        "lidar": _pose_to_json(scene.rig.lidar_extrinsics),
        "sweeps": entries,
    }
    manifest = os.path.join(out_dir, "scene.json")
    with open(manifest, "w") as f:
        json.dump(doc, f, indent=1, allow_nan=False)
        f.write("\n")
    return manifest


# ---------------------------------------------------------------------------
# Detections


def load_detections(path, taxonomy: Taxonomy, scene: Optional[Scene] = None) -> list:
    """Parse NDJSON detections; errors cite the 1-based line number.

    Given the scene, each record's frame and camera must be in it, and a
    mask's size must be its camera's [height, width].
    """

    def parse(rec: dict) -> Detection2D:
        det = _detection_from_json(rec, taxonomy)
        if scene is not None:
            scene.check_frame(det.frame_id)
            cam = scene.rig.cameras.get(det.camera_id)
            if cam is None:
                raise ValueError(f"unknown camera id {det.camera_id!r}")
            size = [cam.intrinsics.height, cam.intrinsics.width]
            if det.mask is not None and det.mask["size"] != size:
                raise ValueError(f"mask size {det.mask['size']} is not camera {det.camera_id}'s image size {size}")
        return det

    return [det for _, det in read_ndjson(path, parse)]


def _detection_from_json(rec: dict, taxonomy: Taxonomy) -> Detection2D:
    label = rec["class"]
    if label not in taxonomy:
        raise ValueError(f"unknown class {label!r}")
    mask = _rle_from_json(rec["mask_rle"]) if rec.get("mask_rle") is not None else None
    return Detection2D(
        frame_id=str(rec["frame_id"]),
        camera_id=str(rec["camera_id"]),
        class_label=label,
        box=Box2D(*read_numbers(rec["box"], 4)),
        score=read_number(rec["score"]),
        mask=mask,
    )


def _detection_to_json(d: Detection2D) -> dict:
    rec = {
        "frame_id": d.frame_id,
        "camera_id": d.camera_id,
        "class": d.class_label,
        "box": [d.box.x1, d.box.y1, d.box.x2, d.box.y2],
        "score": d.score,
    }
    if d.mask is not None:
        rec["mask_rle"] = d.mask
    return rec


def write_detections(dets: list, path) -> None:
    write_ndjson(map(_detection_to_json, dets), path)


# ---------------------------------------------------------------------------
# Annotations


def annotation_to_json(a: ScoredAnnotation) -> dict:
    rec = {
        "frame_id": a.frame_id,
        "class": a.class_label,
        "center": [float(v) for v in a.cuboid.center],
        "dims": [float(v) for v in a.cuboid.dims],
        "yaw": float(a.cuboid.yaw),
        "score": float(a.score),
    }
    if a.track_id is not None:
        rec["track_id"] = int(a.track_id)
    if a.velocity is not None:
        rec["velocity"] = [float(a.velocity[0]), float(a.velocity[1])]
    if a.s2d is not None:
        rec["s2d"] = float(a.s2d)
    if a.s3d is not None:
        rec["s3d"] = float(a.s3d)
    return rec


def annotation_from_json(rec: dict) -> ScoredAnnotation:
    return ScoredAnnotation(
        frame_id=str(rec["frame_id"]),
        cuboid=Cuboid3D(read_numbers(rec["center"], 3), read_numbers(rec["dims"], 3), read_number(rec["yaw"])),
        class_label=str(rec["class"]),
        score=read_number(rec["score"]),
        track_id=read_int(rec["track_id"]) if "track_id" in rec else None,
        velocity=read_numbers(rec["velocity"], 2) if "velocity" in rec else None,
        s2d=read_number(rec["s2d"]) if "s2d" in rec else None,
        s3d=read_number(rec["s3d"]) if "s3d" in rec else None,
    )


def write_annotations(items: list, path) -> None:
    write_ndjson(map(annotation_to_json, items), path)


def load_annotations(path, scene: Optional[Scene] = None, taxonomy: Optional[Taxonomy] = None) -> list:
    """Parse NDJSON annotations; errors cite the 1-based line number.

    Given the scene, each record's frame must be in it; given the
    taxonomy, its class must be in that.
    """

    def parse(rec: dict) -> ScoredAnnotation:
        a = annotation_from_json(rec)
        if scene is not None:
            scene.check_frame(a.frame_id)
        if taxonomy is not None and a.class_label not in taxonomy:
            raise ValueError(f"unknown class {a.class_label!r}")
        return a

    return [a for _, a in read_ndjson(path, parse)]
