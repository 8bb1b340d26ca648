"""Rigid transforms, pinhole projection, cuboid geometry and 2D box arithmetic.

Everything here is a pure function on immutable values. Conventions used
throughout the package:

* rotations are 3x3 orthonormal matrices, translations 3-vectors in meters
* cuboids are (center, dims=(l, w, h), yaw): length along local x, width
  along local y, height along z, yaw about +z, normalized to (-pi, pi]
* cuboid corners follow a fixed order (bottom face first, then top face,
  counter-clockwise in the local frame seen from above)::

      idx  (sx, sy, sz) signs of (l/2, w/2, h/2)
      0    (+, +, -)
      1    (-, +, -)
      2    (-, -, -)
      3    (+, -, -)
      4    (+, +, +)
      5    (-, +, +)
      6    (-, -, +)
      7    (+, -, +)

  The order is part of the serialization contract; do not change it.
* no lens distortion: calibration files may carry distortion fields but
  they are ignored (images are assumed rectified)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi

# Local corner sign template, see module docstring for the ordering contract.
_CORNER_SIGNS = np.array(
    [
        [1.0, 1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, -1.0],
        [1.0, -1.0, -1.0],
        [1.0, 1.0, 1.0],
        [-1.0, 1.0, 1.0],
        [-1.0, -1.0, 1.0],
        [1.0, -1.0, 1.0],
    ]
)

# np.allclose(rot.T @ rot, I, atol=1e-6) written out: |x - I| <= atol + rtol * |I|
# with allclose's default rtol, so it accepts exactly the same matrices
_ORTHONORMAL_TOL = 1e-6 + 1e-5 * np.eye(3)
_EYE3 = np.eye(3)


def wrap_angle(a):
    """Normalize an angle (scalar or array) to (-pi, pi]."""
    a = np.asarray(a, dtype=float)
    wrapped = a - TWO_PI * np.floor((a + math.pi) / TWO_PI)
    # floor maps +pi to +pi, but -pi must wrap to +pi
    wrapped = np.where(wrapped <= -math.pi, wrapped + TWO_PI, wrapped)
    if wrapped.ndim == 0:
        return float(wrapped)
    return wrapped


def yaw_diff(a: float, b: float) -> float:
    """Smallest absolute angular difference of two yaws, in [0, pi]."""
    d = math.fmod(abs(a - b), TWO_PI)
    return min(d, TWO_PI - d)


def rot_z(yaw: float) -> np.ndarray:
    """3x3 rotation about +z by `yaw` radians."""
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def quat_to_rotmat(q) -> np.ndarray:
    """Unit quaternion (w, x, y, z) to a 3x3 rotation matrix."""
    w, x, y, z = (float(v) for v in q)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n == 0.0:
        raise ValueError("zero quaternion")
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotmat_to_quat(rot: np.ndarray):
    """Rotation matrix to unit quaternion (w, x, y, z), w >= 0."""
    m = np.asarray(rot, dtype=float)
    t = np.trace(m)
    if t > 0:
        s = math.sqrt(t + 1.0) * 2.0
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    else:
        i = int(np.argmax([m[0, 0], m[1, 1], m[2, 2]]))
        if i == 0:
            s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            w = (m[2, 1] - m[1, 2]) / s
            x = 0.25 * s
            y = (m[0, 1] + m[1, 0]) / s
            z = (m[0, 2] + m[2, 0]) / s
        elif i == 1:
            s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
            w = (m[0, 2] - m[2, 0]) / s
            x = (m[0, 1] + m[1, 0]) / s
            y = 0.25 * s
            z = (m[1, 2] + m[2, 1]) / s
        else:
            s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
            w = (m[1, 0] - m[0, 1]) / s
            x = (m[0, 2] + m[2, 0]) / s
            y = (m[1, 2] + m[2, 1]) / s
            z = 0.25 * s
    q = np.array([w, x, y, z])
    if q[0] < 0:
        q = -q
    return q


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) transform: p_out = rotation @ p_in + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if not (np.abs(rot.T @ rot - _EYE3) <= _ORTHONORMAL_TOL).all():
            raise ValueError("rotation is not orthonormal")
        if np.linalg.det(rot) < 0:
            raise ValueError("rotation has negative determinant")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    @staticmethod
    def from_quat(quat_wxyz, translation) -> "RigidTransform":
        return RigidTransform(quat_to_rotmat(quat_wxyz), np.asarray(translation, dtype=float))

    @cached_property
    def _rotation_t(self) -> np.ndarray:
        """rotation.T as a C-contiguous copy, the right operand of `apply`."""
        return np.ascontiguousarray(self.rotation.T)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one (3,) point or an (N, 3) array.

        Two or more rows multiply a C-contiguous copy of rotation.T and
        add the translation in place, which gives the bits of
        `p @ rotation.T + translation` on every BLAS kernel at less cost.
        A single point, as a (3,) or a one-row (1, 3) array, keeps that
        form: a one-row product through the copy rounds differently on
        some kernels.
        """
        p = np.asarray(points, dtype=float)
        if p.ndim == 1:
            return self.rotation @ p + self.translation
        if len(p) < 2:
            return p @ self.rotation.T + self.translation
        out = p @ self._rotation_t
        out += self.translation
        return out

    def __matmul__(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: (self @ other).apply(p) == self.apply(other.apply(p))."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -(rt @ self.translation))

    def heading(self) -> float:
        """Rotation of the x-axis about +z; exact for planar (yaw-only) transforms."""
        return math.atan2(self.rotation[1, 0], self.rotation[0, 0])


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point outside image")


@dataclass(frozen=True)
class Cuboid3D:
    """Oriented box: center (3,), dims (l, w, h) in meters, yaw in (-pi, pi]."""

    center: np.ndarray
    dims: tuple
    yaw: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).reshape(3)
        d = tuple(float(v) for v in self.dims)
        if len(d) != 3 or any(v <= 0 for v in d):
            raise ValueError("dims must be three positive values")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "dims", d)
        object.__setattr__(self, "yaw", wrap_angle(float(self.yaw)))


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned pixel box, x1 <= x2 and y1 <= y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError("box corners out of order")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


def project_points(points: np.ndarray, intr: CameraIntrinsics):
    """Vectorized projection of (N, 3) camera-frame points.

    Returns (u (N,), v (N,), valid (N,)); entries with z <= 0 are garbage
    and masked out by `valid`.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    valid = p[:, 2] > 0.0
    z = np.where(valid, p[:, 2], 1.0)
    # a huge focal length or a denormal depth overflows to ±inf, a pixel past every image
    with np.errstate(over="ignore"):
        return intr.fx * p[:, 0] / z + intr.cx, intr.fy * p[:, 1] / z + intr.cy, valid


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Symmetric nearest-integer rounding of pixel coordinates; ties go away from zero."""
    return np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5))


def corner_offsets(dims, yaw: float) -> np.ndarray:
    """The 8 corners (see module docstring for ordering) relative to the center, (8, 3)."""
    half = np.asarray(dims) / 2.0
    return (_CORNER_SIGNS * half) @ rot_z(yaw).T


def cuboid_corners(c: Cuboid3D) -> np.ndarray:
    """The 8 corners (see module docstring for ordering) as an (8, 3) array."""
    return corner_offsets(c.dims, c.yaw) + c.center


def bev_rect(c: Cuboid3D) -> np.ndarray:
    """Ground-plane rectangle: bottom-face corners with z dropped, (4, 2)."""
    return cuboid_corners(c)[:4, :2]


def bev_distance(a: Cuboid3D, b: Cuboid3D) -> float:
    """Ground-plane distance between two cuboid centers."""
    return math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])


def turn_xy(x, y, yaws):
    """Point coordinates x and y in axes turned by each of `yaws` about +z.

    Returns the turned x and y, each (yaws, points). They are elementwise
    products and sums of rot_z(-yaw)'s entries, one rounding each, so a
    point turns to the same bits whatever else shares the call and on
    every BLAS kernel.
    """
    r = np.array([rot_z(-yaw) for yaw in np.atleast_1d(yaws)]).reshape(-1, 3, 3)[:, :2, :2, None]
    return r[:, 0, 0] * x + r[:, 0, 1] * y, r[:, 1, 0] * x + r[:, 1, 1] * y


def cuboid_local(points: np.ndarray, c: Cuboid3D) -> np.ndarray:
    """(N, 3) points expressed in the cuboid's yaw-aligned local frame.

    Points and center are turned apart by `turn_xy` and then subtracted,
    z as it is: the arithmetic of the search's coverage kernel, so
    containment counted on these offsets equals the kernel's count for
    this box on any grid that holds it, bit for bit.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    (px,), (py,) = turn_xy(p[:, 0], p[:, 1], c.yaw)
    (cx,), (cy,) = turn_xy(c.center[0], c.center[1], c.yaw)
    return np.stack([px - cx, py - cy, p[:, 2] - c.center[2]], axis=1)


def inside_local(local: np.ndarray, dims) -> np.ndarray:
    """Boundary-inclusive containment of local-frame points in a centered box of `dims`."""
    return np.all(np.abs(local) <= np.asarray(dims) / 2.0, axis=1)


def project_boxes(corners: np.ndarray, extr: RigidTransform, intr: CameraIntrinsics):
    """Clipped image AABBs of projected corner sets, corner-major (8, H, 3) -> (H, 4).

    `extr` maps the corners' frame into the camera frame. Corners with
    z <= 0 are dropped; partially behind-camera cuboids keep only their
    front corners. Returns (boxes, has_box); rows without any corner in
    front of the camera have no box and zeros in `boxes`. Corner-major
    input makes the min/max over the 8 corners a pass over contiguous
    rows of H; min and max are exact, so the order they run in changes
    no bit. When every corner is in front of the camera, the reductions
    see the projected values as they are, without the NaN masking that
    drops the others: they see the same values either way.
    """
    u, v, front = project_points(extr.apply(corners.reshape(-1, 3)), intr)
    front = front.reshape(corners.shape[:2])
    u, v = u.reshape(front.shape), v.reshape(front.shape)
    every = front.all()
    if not every:
        # the fmin/fmax reductions skip the NaN-masked corners, and unlike
        # np.nanmin they do not warn about rows that are all NaN
        u = np.where(front, u, np.nan)
        v = np.where(front, v, np.nan)
    boxes = np.stack([np.fmin.reduce(u), np.fmin.reduce(v), np.fmax.reduce(u), np.fmax.reduce(v)], 1)
    if every:
        has_box = np.ones(front.shape[1], dtype=bool)
    else:
        has_box = front.any(axis=0)
        boxes[~has_box] = 0.0
    # np.clip's bounds, in place: np.maximum then np.minimum give its bits
    np.maximum(boxes, 0.0, out=boxes)
    np.minimum(boxes, [intr.width, intr.height] * 2, out=boxes)
    return boxes, has_box


def project_cuboid_to_box(c: Cuboid3D, extr: RigidTransform, intr: CameraIntrinsics):
    """`project_boxes` for one cuboid: a Box2D, or None if fully behind the camera."""
    boxes, has_box = project_boxes(cuboid_corners(c)[:, None], extr, intr)
    return Box2D(*(float(x) for x in boxes[0])) if has_box[0] else None


def iou_2d(boxes: np.ndarray, box: Box2D) -> np.ndarray:
    """IoU of (N, 4) [x1, y1, x2, y2] boxes with one box, (N,); 0 where the union is empty."""
    ix = np.maximum(0.0, np.minimum(boxes[:, 2], box.x2) - np.maximum(boxes[:, 0], box.x1))
    iy = np.maximum(0.0, np.minimum(boxes[:, 3], box.y2) - np.maximum(boxes[:, 1], box.y1))
    inter = ix * iy
    union = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1]) + box.area - inter
    return np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)


def transform_cuboid(t: RigidTransform, c: Cuboid3D) -> Cuboid3D:
    """Rigidly move a cuboid; yaw composes with the transform's heading.

    Exact for planar (yaw-only) transforms, which is all the pipeline uses
    for world<->lidar cuboid bookkeeping.
    """
    return Cuboid3D(t.apply(c.center), c.dims, c.yaw + t.heading())
