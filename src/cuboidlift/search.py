"""Multi-hypothesis cuboid search over translation x yaw grids.

For one detection the search enumerates cuboid poses on a Cartesian grid
around an initial guess (dimensions stay fixed at the prior's), scores
every pose by point coverage plus projected-box IoU against the 2D
detection, and returns the argmax under a total, deterministic tie-break.
Coverage is counted per yaw for all translations at once, as one matmul
of an xy and a z containment factor (see `evaluate_hypotheses`).

Grid enumeration order is x (outer), y, z, yaw (inner); offsets are exact
integer multiples of the step so the initial pose is always on the grid
and halving the steps yields a superset grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .geom import (
    Cuboid3D,
    corner_offsets,
    cuboid_local,
    points_in_cuboid,
    project_points,
    rot_z,
    wrap_angle,
)
from .ingest import Detection2D, SensorRig
from .frustum import FrustumPoints, camera_from_lidar
from .prior import SemanticPrior

# cap on the elements of one (xy node x point) containment block; the
# points axis is chunked so a block's float64 temporaries (512 KB each)
# stay cache-sized however many points a frustum holds
_CHUNK_ELEMS = 65_536


class EmptyFrustumError(ValueError):
    """No foreground points to anchor the search; the detection is skipped."""


@dataclass(frozen=True)
class SearchConfig:
    trans_step: float = 0.5  # meters
    rot_step: float = math.pi / 10.0  # radians
    xy_range: float = 2.0  # half-width around the init, meters
    z_range: float = 1.0  # half-width around the init, meters

    def __post_init__(self):
        if self.trans_step <= 0 or self.rot_step <= 0:
            raise ValueError("step sizes must be positive")
        # zero range degenerates to a single node on that axis
        if self.xy_range < 0 or self.z_range < 0:
            raise ValueError("search ranges must be >= 0")


@dataclass(frozen=True)
class Hypothesis:
    cuboid: Cuboid3D
    coverage: float
    proj_iou: float
    objective: float

    def __post_init__(self):
        if self.objective != self.coverage + self.proj_iou:
            raise ValueError("objective must equal coverage + proj_iou")


@dataclass(frozen=True)
class HypothesisGrid:
    """Flat pose grid: centers (H, 3), yaws (H,), shared dims and init pose."""

    centers: np.ndarray
    yaws: np.ndarray
    dims: tuple
    init: Cuboid3D

    def __len__(self) -> int:
        return len(self.yaws)

    def cuboid(self, i: int) -> Cuboid3D:
        return Cuboid3D(self.centers[i], self.dims, float(self.yaws[i]))


def coverage_ratio(points: np.ndarray, c: Cuboid3D) -> float:
    """Fraction of points inside the cuboid (boundary inclusive); 0 if empty."""
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(p) == 0:
        return 0.0
    return float(points_in_cuboid(p, c).sum()) / float(len(p))


def init_hypothesis(fp: FrustumPoints, prior: SemanticPrior) -> Cuboid3D:
    """Anchor cuboid: median-xy center, bottom seated on the lowest point.

    The median resists occluder outliers better than the mean. Raises
    EmptyFrustumError when the detection has no foreground points.
    """
    fg = fp.foreground
    if len(fg) == 0:
        raise EmptyFrustumError("no foreground points in frustum")
    l, w, h = prior.dims
    cx = float(np.median(fg[:, 0]))
    cy = float(np.median(fg[:, 1]))
    cz = float(fg[:, 2].min()) + h / 2.0
    yaw = prior.orientation if prior.orientation is not None else 0.0
    return Cuboid3D(np.array([cx, cy, cz]), prior.dims, yaw)


def _symmetric_offsets(half_range: float, step: float) -> np.ndarray:
    k = int(math.floor(half_range / step + 1e-9))
    return np.arange(-k, k + 1, dtype=float) * step


def _yaw_offsets(sector_half_width: float, rot_step: float) -> np.ndarray:
    m = int(math.floor(sector_half_width / rot_step + 1e-9))
    ks = np.arange(-m, m + 1, dtype=float)
    # a full-circle sector repeats its endpoints modulo 2*pi; drop one
    if 2.0 * m * rot_step >= 2.0 * math.pi - 1e-9:
        ks = ks[1:]
    return ks * rot_step


def enumerate_hypotheses(
    init: Cuboid3D, prior: SemanticPrior, cfg: SearchConfig
) -> HypothesisGrid:
    """Cartesian pose grid around `init`, yaw constrained to the prior's sector.

    Offsets never exceed the configured ranges, so with a per-instance
    prior every enumerated yaw stays inside the sector.
    """
    if cfg.rot_step > 2.0 * prior.sector_half_width:
        raise ValueError("rot_step exceeds the yaw sector width")
    xo = _symmetric_offsets(cfg.xy_range, cfg.trans_step)
    yo = xo
    zo = _symmetric_offsets(cfg.z_range, cfg.trans_step)
    yawo = _yaw_offsets(prior.sector_half_width, cfg.rot_step)

    gx, gy, gz, gyaw = np.meshgrid(xo, yo, zo, yawo, indexing="ij")
    centers = np.stack(
        [
            init.center[0] + gx.reshape(-1),
            init.center[1] + gy.reshape(-1),
            init.center[2] + gz.reshape(-1),
        ],
        axis=1,
    )
    yaws = wrap_angle(init.yaw + gyaw.reshape(-1))
    return HypothesisGrid(centers=centers, yaws=np.atleast_1d(yaws), dims=init.dims, init=init)


def _project_boxes(corners: np.ndarray, rig: SensorRig, camera_id: str):
    """Clipped AABBs of projected corner sets, (H, 8, 3) lidar frame -> (H, 4).

    Returns (boxes, has_box); rows without any corner in front of the
    camera have no box.
    """
    intr = rig.camera(camera_id).intrinsics
    pc = camera_from_lidar(rig, camera_id).apply(corners.reshape(-1, 3))
    u, v, front = project_points(pc, intr)
    front = front.reshape(corners.shape[:2])
    u = np.where(front, u.reshape(front.shape), np.nan)
    v = np.where(front, v.reshape(front.shape), np.nan)
    has_box = front.any(axis=1)
    with np.errstate(invalid="ignore"):
        x1 = np.clip(np.nanmin(u, axis=1), 0.0, intr.width)
        x2 = np.clip(np.nanmax(u, axis=1), 0.0, intr.width)
        y1 = np.clip(np.nanmin(v, axis=1), 0.0, intr.height)
        y2 = np.clip(np.nanmax(v, axis=1), 0.0, intr.height)
    boxes = np.stack([x1, y1, x2, y2], axis=1)
    boxes[~has_box] = 0.0
    return boxes, has_box


def _iou_with_box(boxes: np.ndarray, has_box: np.ndarray, det_box) -> np.ndarray:
    bx1, by1, bx2, by2 = det_box.x1, det_box.y1, det_box.x2, det_box.y2
    ix = np.maximum(0.0, np.minimum(boxes[:, 2], bx2) - np.maximum(boxes[:, 0], bx1))
    iy = np.maximum(0.0, np.minimum(boxes[:, 3], by2) - np.maximum(boxes[:, 1], by1))
    inter = ix * iy
    area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    union = area + det_box.area - inter
    iou = np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)
    return np.where(has_box, iou, 0.0)


def evaluate_hypotheses(
    grid: HypothesisGrid, fp: FrustumPoints, det: Detection2D, rig: SensorRig
):
    """Coverage and projected IoU for every grid entry, vectorized.

    Coverage is factorised. Yaw rotates about +z, so in a box frame the z
    test of a point does not depend on the box's xy position and the xy
    test does not depend on its z. The grid's distinct xy nodes and
    distinct z levels are found once; then, per yaw, the points and the
    xy nodes are rotated into the box frame and

        counts = inside_xy (xy nodes x points) @ inside_z (points x z levels)

    counts the points inside every (xy node, z level) box at once. Each
    hypothesis reads its count from its own node and level.

    This is exact, not an approximation: both factors use the same
    `abs(p - c) <= half` comparisons on the same rotated values as a
    per-hypothesis test (rot_z's zero entries make a rotated xy
    independent of z and a rotated z equal to the input z, bit for bit),
    and a float64 matmul sums 0/1 values without rounding. The points
    axis is chunked so no containment block exceeds _CHUNK_ELEMS; the
    partial matmuls are summed, which is exact for the same reason.

    The cost per yaw is (xy nodes x points) comparisons plus a matmul into
    an (xy nodes x z levels) count table; on a Cartesian grid that table
    has one cell per hypothesis of the yaw.
    """
    h = len(grid)
    coverage = np.zeros(h)
    fg = fp.foreground
    m = len(fg)
    half = np.asarray(grid.dims) / 2.0
    unique_yaws = np.unique(grid.yaws)

    if m > 0 and h > 0:
        _, first_xy, ixy = np.unique(
            grid.centers[:, :2], axis=0, return_index=True, return_inverse=True
        )
        ixy = ixy.reshape(-1)  # numpy 2.0.0 returns it with shape (H, 1)
        uz, iz = np.unique(grid.centers[:, 2], return_inverse=True)
        nodes_xy = grid.centers[first_xy]  # any z: it never reaches the rotated xy
        chunk = max(1, _CHUNK_ELEMS // len(nodes_xy))
        for yaw in unique_yaws:
            sel = np.nonzero(grid.yaws == yaw)[0]
            rinv = rot_z(-float(yaw))
            prot = fg @ rinv.T
            crot = nodes_xy @ rinv.T
            counts = np.zeros((len(nodes_xy), len(uz)))
            for s in range(0, m, chunk):
                p = prot[s : s + chunk]
                inside_xy = np.abs(p[None, :, 0] - crot[:, 0:1]) <= half[0]
                inside_xy &= np.abs(p[None, :, 1] - crot[:, 1:2]) <= half[1]
                inside_z = np.abs(p[:, 2:3] - uz[None, :]) <= half[2]
                counts += inside_xy.astype(np.float64) @ inside_z.astype(np.float64)
            coverage[sel] = counts[ixy[sel], iz[sel]] / float(m)

    # projected-box IoU against the detection
    corners = np.empty((h, 8, 3))
    for yaw in unique_yaws:
        sel = grid.yaws == yaw
        template = corner_offsets(grid.dims, float(yaw))
        corners[sel] = grid.centers[sel][:, None, :] + template[None, :, :]
    boxes, has_box = _project_boxes(corners, rig, det.camera_id)
    iou = _iou_with_box(boxes, has_box, det.box)
    return coverage, iou


def select_best(
    grid: HypothesisGrid, fp: FrustumPoints, det: Detection2D, rig: SensorRig
) -> Hypothesis:
    """Argmax of coverage + IoU with a total tie-break.

    Ties fall back to higher coverage, then smaller yaw distance to the
    init, then lexicographic (x, y, z), then signed yaw; the chain is total
    so the result is independent of evaluation order.
    """
    if len(grid) == 0:
        raise ValueError("empty hypothesis grid")
    coverage, iou = evaluate_hypotheses(grid, fp, det, rig)
    objective = coverage + iou
    yaw_dist = np.abs(wrap_angle(grid.yaws - grid.init.yaw))
    order = np.lexsort(
        (
            grid.yaws,
            grid.centers[:, 2],
            grid.centers[:, 1],
            grid.centers[:, 0],
            yaw_dist,
            -coverage,
            -objective,
        )
    )
    best = int(order[0])
    return Hypothesis(
        cuboid=grid.cuboid(best),
        coverage=float(coverage[best]),
        proj_iou=float(iou[best]),
        objective=float(coverage[best]) + float(iou[best]),
    )


# ---------------------------------------------------------------------------
# Codecs for the (external) learned dimension refiner


# Express points in the cuboid's yaw-aligned local frame.
canonicalize_points = cuboid_local


def encode_point_features(
    local_points: np.ndarray, dims, n_points: int = 512, seed: int = 0
) -> np.ndarray:
    """Per-point 9-dim features resampled to a fixed count.

    Each row is [p, d - p, d + p] with d the cuboid dimensions. Short sets
    are padded by random oversampling with replacement, long ones reduced
    by uniform random downsampling; both draw from the caller's seed.
    """
    p = np.asarray(local_points, dtype=float).reshape(-1, 3)
    m = len(p)
    if m == 0:
        raise ValueError("empty point set")
    rng = np.random.default_rng(seed)
    if m < n_points:
        extra = rng.integers(0, m, size=n_points - m)
        idx = np.concatenate([np.arange(m), extra])
    elif m > n_points:
        idx = np.sort(rng.choice(m, size=n_points, replace=False))
    else:
        idx = np.arange(m)
    p = p[idx]
    d = np.asarray(dims, dtype=float)
    return np.concatenate([p, d - p, d + p], axis=1)


def encode_dim_offsets(gt_dims, init_dims) -> tuple:
    """Log-scale dimension offsets between a target and an initial cuboid."""
    out = []
    for g, i in zip(gt_dims, init_dims):
        if g <= 0 or i <= 0:
            raise ValueError("dims must be positive")
        out.append(math.log(g / i))
    return tuple(out)


def decode_dim_offsets(init_dims, offsets) -> tuple:
    """Exact inverse of encode_dim_offsets."""
    out = []
    for i, o in zip(init_dims, offsets):
        if i <= 0:
            raise ValueError("dims must be positive")
        out.append(i * math.exp(o))
    return tuple(out)
