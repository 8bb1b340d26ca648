"""Multi-hypothesis cuboid search over translation x yaw grids.

For one detection the search enumerates cuboid poses on a Cartesian grid
around an initial guess (dimensions stay fixed at the prior's), scores
every pose by point coverage plus projected-box IoU against the 2D
detection, and returns the argmax under a total, deterministic tie-break.
Coverage is counted per yaw for all translations at once, as one matmul
of an xy and a z containment factor (see `_coverage`); projected IoU is
computed only for the hypotheses that can still win (see
`evaluate_hypotheses`).

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
    points_in_cuboid,
    project_boxes,
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

# hypotheses whose projected IoU seeds the pruning bound of
# `evaluate_hypotheses`; any count is exact, and a few of the
# highest-coverage ones usually bound near the best objective
_BOUND_SEEDS = 8


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


def _median(x: np.ndarray) -> float:
    """np.median of a non-empty finite 1-D array, signed zeros included.

    The same partition and mean of the middle one or two order statistics
    that np.median takes, without its NaN check, whose first call in a
    process imports numpy.ma.
    """
    k = len(x) // 2
    lo = k if len(x) % 2 else k - 1
    return float(np.mean(np.partition(x, (lo, k))[lo : k + 1]))


def init_hypothesis(fp: FrustumPoints, prior: SemanticPrior) -> Cuboid3D:
    """Anchor cuboid: median-xy center, bottom seated on the lowest point.

    The median resists occluder outliers better than the mean. Raises
    EmptyFrustumError when the detection has no foreground points.
    """
    fg = fp.foreground
    if len(fg) == 0:
        raise EmptyFrustumError("no foreground points in frustum")
    l, w, h = prior.dims
    cx = _median(fg[:, 0])
    cy = _median(fg[:, 1])
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


def _iou_with_box(boxes: np.ndarray, has_box: np.ndarray, det_box) -> np.ndarray:
    bx1, by1, bx2, by2 = det_box.x1, det_box.y1, det_box.x2, det_box.y2
    ix = np.maximum(0.0, np.minimum(boxes[:, 2], bx2) - np.maximum(boxes[:, 0], bx1))
    iy = np.maximum(0.0, np.minimum(boxes[:, 3], by2) - np.maximum(boxes[:, 1], by1))
    inter = ix * iy
    area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    union = area + det_box.area - inter
    iou = np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)
    return np.where(has_box, iou, 0.0)


def _iou_at(grid: HypothesisGrid, idx: np.ndarray, det_box, extr, intr) -> np.ndarray:
    corners = np.empty((len(idx), 8, 3))
    uyaw, iyaw = np.unique(grid.yaws[idx], return_inverse=True)
    for k, yaw in enumerate(uyaw):
        sel = iyaw == k
        template = corner_offsets(grid.dims, float(yaw))
        corners[sel] = grid.centers[idx[sel]][:, None, :] + template[None, :, :]
    boxes, has_box = project_boxes(corners, extr, intr)
    return _iou_with_box(boxes, has_box, det_box)


def projected_iou(
    grid: HypothesisGrid, idx: np.ndarray, det: Detection2D, rig: SensorRig
) -> np.ndarray:
    """IoU of the projected boxes of hypotheses `idx` with the detection box.

    Every value depends on its own hypothesis only, so a subset's IoU
    equals the same rows of the whole grid's IoU bit for bit. Hypotheses
    wholly behind the camera score 0.
    """
    idx = np.asarray(idx, dtype=np.intp)
    cam = rig.camera(det.camera_id)
    return _iou_at(grid, idx, det.box, camera_from_lidar(rig, det.camera_id), cam.intrinsics)


def _coverage(grid: HypothesisGrid, fg: np.ndarray) -> np.ndarray:
    """Fraction of `fg` inside every grid entry: the factorised kernel.

    Yaw rotates about +z, so in a box frame the z test of a point does not
    depend on the box's xy position and the xy test does not depend on its
    z. The grid's distinct xy nodes, z levels and yaws are found once;
    then, per yaw, the points and the xy nodes are rotated into the box
    frame and

        counts = inside_xy (xy nodes x points) @ inside_z (points x z levels)

    counts the points inside every (xy node, z level) box at once. The
    counts of all yaws fill one (yaws x xy nodes x z levels) table, and
    each hypothesis reads its cell of it.

    This is exact, not an approximation: both factors use the same
    `abs(p - c) <= half` comparisons on the same rotated values as a
    per-hypothesis test (rot_z's zero entries make a rotated xy
    independent of z and a rotated z equal to the input z, bit for bit, so
    `inside_z` is built once from the input z), and a float64 matmul sums
    0/1 values without rounding. The points axis is chunked so no
    containment block exceeds _CHUNK_ELEMS; the partial matmuls are
    summed, which is exact for the same reason. The blocks are computed in
    buffers allocated once per call, never shared between calls.

    The xy nodes come from one 1-D unique per axis and one on the combined
    index: two centers share a node exactly when their x and their y
    compare equal, as with a row-wise unique, and each node keeps its
    first center's coordinates. Equal values that differ in the sign of
    zero share a node; that never changes a comparison, because
    |p - c| is the same for c = 0.0 and c = -0.0.

    The cost per yaw is (xy nodes x points) comparisons plus a matmul into
    an (xy nodes x z levels) count table; on a Cartesian grid that table
    has one cell per hypothesis of the yaw.
    """
    m = len(fg)
    if m == 0 or len(grid) == 0:
        return np.zeros(len(grid))
    half = np.asarray(grid.dims) / 2.0
    ix = np.unique(grid.centers[:, 0], return_inverse=True)[1]
    uy, iy = np.unique(grid.centers[:, 1], return_inverse=True)
    first_xy, ixy = np.unique(ix * len(uy) + iy, return_index=True, return_inverse=True)[1:]
    uz, iz = np.unique(grid.centers[:, 2], return_inverse=True)
    uyaw, iyaw = np.unique(grid.yaws, return_inverse=True)
    nodes_xy = grid.centers[first_xy]  # any z: it never reaches the rotated xy
    n = len(nodes_xy)
    inside_z = (np.abs(fg[:, 2:3] - uz[None, :]) <= half[2]).astype(np.float64)
    chunk = max(1, _CHUNK_ELEMS // n)
    block = np.empty(n * min(chunk, m))
    in_x = np.empty(len(block), dtype=bool)
    in_y = np.empty(len(block), dtype=bool)
    counts = np.zeros((len(uyaw), n, len(uz)))
    for k, yaw in enumerate(uyaw):
        rinv = rot_z(-float(yaw))
        px, py = np.ascontiguousarray((fg @ rinv.T)[:, :2].T)
        crot = nodes_xy @ rinv.T
        for s in range(0, m, chunk):
            w = min(chunk, m - s)
            d = block[: n * w].reshape(n, w)
            bx = in_x[: n * w].reshape(n, w)
            by = in_y[: n * w].reshape(n, w)
            np.subtract(px[None, s : s + w], crot[:, 0:1], out=d)
            np.less_equal(np.abs(d, out=d), half[0], out=bx)
            np.subtract(py[None, s : s + w], crot[:, 1:2], out=d)
            np.less_equal(np.abs(d, out=d), half[1], out=by)
            np.logical_and(bx, by, out=bx)
            np.copyto(d, bx)
            counts[k] += d @ inside_z[s : s + w]
    return counts[iyaw, ixy, iz] / float(m)


def evaluate_hypotheses(
    grid: HypothesisGrid, fp: FrustumPoints, det: Detection2D, rig: SensorRig
):
    """Coverage of every grid entry, and projected IoU where it can still win.

    Returns (coverage (H,), candidates (K,), iou (K,)): `candidates` holds
    the ascending indices of the hypotheses that can still win or tie the
    argmax of coverage + IoU, and `iou` their projected IoU.

    The pruning is exact. IoU is at most 1 (the intersection never
    exceeds the union, and division rounds correctly), and float addition
    is monotone, so fl(cov + iou) <= fl(cov + 1). The IoU of the
    _BOUND_SEEDS highest-coverage hypotheses gives an objective L that
    some hypothesis reaches; one with fl(cov + 1) < L is strictly below
    it and can neither win nor tie. Which hypotheses seed L changes only
    how many survive, never the winner. With no foreground point every
    coverage is 0 and every hypothesis survives.
    """
    coverage = _coverage(grid, fp.foreground)
    extr = camera_from_lidar(rig, det.camera_id)
    intr = rig.camera(det.camera_id).intrinsics
    if len(grid) > _BOUND_SEEDS:
        seeds = np.argpartition(-coverage, _BOUND_SEEDS)[:_BOUND_SEEDS]
    else:
        seeds = np.arange(len(grid))
    seed_objective = coverage[seeds] + _iou_at(grid, seeds, det.box, extr, intr)
    bound = seed_objective.max(initial=-np.inf)
    candidates = np.nonzero(coverage + 1.0 >= bound)[0]
    return coverage, candidates, _iou_at(grid, candidates, det.box, extr, intr)


def select_best(
    grid: HypothesisGrid, fp: FrustumPoints, det: Detection2D, rig: SensorRig
) -> Hypothesis:
    """Argmax of coverage + IoU with a total tie-break.

    Ties fall back to higher coverage, then smaller yaw distance to the
    init, then lexicographic (x, y, z), then signed yaw; the chain is total
    so the result is independent of evaluation order. Only the candidates
    `evaluate_hypotheses` keeps are ranked; every hypothesis it prunes
    scores strictly below one of them.
    """
    if len(grid) == 0:
        raise ValueError("empty hypothesis grid")
    coverage, candidates, iou = evaluate_hypotheses(grid, fp, det, rig)
    coverage = coverage[candidates]
    objective = coverage + iou
    yaws = grid.yaws[candidates]
    centers = grid.centers[candidates]
    yaw_dist = np.abs(wrap_angle(yaws - grid.init.yaw))
    order = np.lexsort(
        (yaws, centers[:, 2], centers[:, 1], centers[:, 0], yaw_dist, -coverage, -objective)
    )
    k = int(order[0])
    return Hypothesis(
        cuboid=grid.cuboid(int(candidates[k])),
        coverage=float(coverage[k]),
        proj_iou=float(iou[k]),
        objective=float(coverage[k]) + float(iou[k]),
    )
