"""Multi-hypothesis cuboid search over translation x yaw grids.

For one detection the search enumerates cuboid poses on a Cartesian grid
around an initial guess (dimensions stay fixed at the prior's), scores
every pose by point coverage plus projected-box IoU against the 2D
detection, and returns the argmax under a total, deterministic tie-break.
The grid is its x, y, z and yaw axes (`HypothesisGrid`, flat order x
outer to yaw inner): coverage is counted per yaw for every (x, y) node
and z level at once, as one matmul of an xy and a z containment factor
(see `_coverage`); projected IoU is computed only for the hypotheses
that can still win (see `evaluate_hypotheses`).

Offsets are exact integer multiples of the step, so the initial pose is
always on the grid and halving the steps yields a superset grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geom import (
    Cuboid3D,
    corner_offsets,
    iou_2d,
    points_in_cuboid,
    project_boxes,
    rot_z,
    wrap_angle,
)
from .ingest import Detection2D, SensorRig
from .frustum import FrustumPoints
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
    """Cartesian pose grid: x, y and z center axes, a yaw axis, shared dims.

    Flat index i is the pose at axis indices np.unravel_index(i, shape):
    x outer, y, z, yaw inner. `centers` (H, 3) and `yaws` (H,) are
    read-only per-hypothesis views of that one mapping.
    """

    x_axis: np.ndarray
    y_axis: np.ndarray
    z_axis: np.ndarray
    yaw_axis: np.ndarray
    dims: tuple
    init: Cuboid3D

    def __post_init__(self):
        for name in ("x_axis", "y_axis", "z_axis", "yaw_axis"):
            axis = np.array(getattr(self, name), dtype=float)
            if axis.ndim != 1:
                raise ValueError(f"{name} must be 1-D")
            axis.setflags(write=False)
            object.__setattr__(self, name, axis)

    @property
    def shape(self) -> tuple:
        return (len(self.x_axis), len(self.y_axis), len(self.z_axis), len(self.yaw_axis))

    def __len__(self) -> int:
        return math.prod(self.shape)

    def pose(self, i):
        """Center(s) (..., 3) and yaw(s) of flat index or index array `i`."""
        a, b, c, d = np.unravel_index(i, self.shape)
        return np.stack([self.x_axis[a], self.y_axis[b], self.z_axis[c]], axis=-1), self.yaw_axis[d]

    @cached_property
    def _views(self) -> tuple:
        views = self.pose(np.arange(len(self)))
        for v in views:
            v.setflags(write=False)
        return views

    centers = property(lambda self: self._views[0])
    yaws = property(lambda self: self._views[1])

    def cuboid(self, i: int) -> Cuboid3D:
        center, yaw = self.pose(i)
        return Cuboid3D(center, self.dims, float(yaw))


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
    xyo = _symmetric_offsets(cfg.xy_range, cfg.trans_step)
    zo = _symmetric_offsets(cfg.z_range, cfg.trans_step)
    yawo = _yaw_offsets(prior.sector_half_width, cfg.rot_step)
    c, yaws = init.center, wrap_angle(init.yaw + yawo)
    return HypothesisGrid(c[0] + xyo, c[1] + xyo, c[2] + zo, yaws, dims=init.dims, init=init)


def projected_iou(
    grid: HypothesisGrid, idx: np.ndarray, det: Detection2D, rig: SensorRig
) -> np.ndarray:
    """IoU of the projected boxes of hypotheses `idx` with the detection box.

    Every value depends on its own hypothesis only, so a subset's IoU
    equals the same rows of the whole grid's IoU bit for bit: the corners
    of each come from its center and its yaw axis entry's template.
    Hypotheses wholly behind the camera project to the zero box and
    score 0.
    """
    idx = np.asarray(idx, dtype=np.intp)
    centers = grid.centers[idx]
    iyaw = np.unravel_index(idx, grid.shape)[3]
    corners = np.empty((len(idx), 8, 3))
    for k in np.flatnonzero(np.bincount(iyaw)):
        sel = iyaw == k
        template = corner_offsets(grid.dims, float(grid.yaw_axis[k]))
        corners[sel] = centers[sel][:, None, :] + template[None, :, :]
    extr, cam = rig.camera_from_lidar(det.camera_id), rig.camera(det.camera_id)
    return iou_2d(project_boxes(corners, extr, cam.intrinsics)[0], det.box)


def _coverage(grid: HypothesisGrid, fg: np.ndarray) -> np.ndarray:
    """Fraction of `fg` inside every grid entry: the factorised kernel.

    Yaw rotates about +z, so in a box frame the z test of a point does not
    depend on the box's xy position and the xy test does not depend on its
    z. Per entry of the yaw axis, the points and the xy nodes (the x axis
    x y axis product) are rotated into the box frame and

        counts = inside_xy (xy nodes x points) @ inside_z (points x z levels)

    counts the points inside every (xy node, z level) box at once, one cell
    per hypothesis of the yaw; the (yaws x xy nodes x z levels) table, its
    yaw axis moved last, is in the grid's flat order.

    This is exact, not an approximation: both factors use the same
    `abs(p - c) <= half` comparisons on the same rotated values as a
    per-hypothesis test (rot_z's zero entries make a rotated xy
    independent of z and a rotated z equal to the input z, bit for bit, so
    the nodes sit at z = 0 and `inside_z` is built once from the input z),
    and a float64 matmul sums 0/1 values without rounding. The points axis
    is chunked so no containment block exceeds _CHUNK_ELEMS; the partial
    matmuls are summed, which is exact for the same reason. The blocks are
    computed in buffers allocated once per call, never shared between
    calls.
    """
    m = len(fg)
    if m == 0 or len(grid) == 0:
        return np.zeros(len(grid))
    half = np.asarray(grid.dims) / 2.0
    gx, gy = np.meshgrid(grid.x_axis, grid.y_axis, indexing="ij")
    nodes_xy = np.stack([gx.reshape(-1), gy.reshape(-1), np.zeros(gx.size)], axis=1)
    n = len(nodes_xy)
    inside_z = (np.abs(fg[:, 2:3] - grid.z_axis[None, :]) <= half[2]).astype(np.float64)
    chunk = max(1, _CHUNK_ELEMS // n)
    block = np.empty(n * min(chunk, m))
    in_x = np.empty(len(block), dtype=bool)
    in_y = np.empty(len(block), dtype=bool)
    counts = np.zeros((len(grid.yaw_axis), n, len(grid.z_axis)))
    for k, yaw in enumerate(grid.yaw_axis):
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
    return np.moveaxis(counts, 0, -1).reshape(-1) / float(m)


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
    if len(grid) > _BOUND_SEEDS:
        seeds = np.argpartition(-coverage, _BOUND_SEEDS)[:_BOUND_SEEDS]
    else:
        seeds = np.arange(len(grid))
    seed_objective = coverage[seeds] + projected_iou(grid, seeds, det, rig)
    bound = seed_objective.max(initial=-np.inf)
    candidates = np.nonzero(coverage + 1.0 >= bound)[0]
    return coverage, candidates, projected_iou(grid, candidates, det, rig)


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
