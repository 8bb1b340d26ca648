"""Multi-hypothesis cuboid search over translation x yaw grids.

For one detection the search enumerates cuboid poses on a Cartesian grid
around an initial guess (dimensions stay fixed at the prior's), scores
every pose by point coverage plus projected-box IoU against the 2D
detection, and returns the argmax under a total, deterministic tie-break.
The grid is its x, y, z and yaw axes (`HypothesisGrid`, flat order x
outer to yaw inner). Both kernels take ascending flat hypothesis indices:
coverage is counted per yaw for the (x, y) nodes they name and every z
level at once, as one matmul of an xy and a z containment factor, exact
in any summation order (see `_coverage`), and projected IoU row by row
(see `projected_iou`). Each runs only on the hypotheses that can still
win; the pruning and why it is exact are in `evaluate_hypotheses`.

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
    project_boxes,
    turn_xy,
    wrap_angle,
)
from .ingest import Detection2D, SensorRig
from .frustum import FrustumPoints
from .prior import SemanticPrior

# cap on the elements of one (xy node x point) containment block; the
# points axis is chunked so a block's float64 temporaries (512 KB each)
# stay cache-sized however many points a frustum holds, and so that the
# float32 counts stay exact (see `_coverage`)
_CHUNK_ELEMS = 65_536

# cap on the hypotheses of one `projected_iou` block, so that its corner
# and projection temporaries stay a few hundred KB however many rows a
# call is given
_IOU_BLOCK = 512


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

    @property
    def objective(self) -> float:
        return self.coverage + self.proj_iou


@dataclass(frozen=True)
class HypothesisGrid:
    """Cartesian pose grid: x, y and z center axes, a yaw axis, the init's dims.

    Flat index i is the pose at axis indices np.unravel_index(i, shape):
    x outer, y, z, yaw inner; `pose` maps flat indices to poses.
    """

    x_axis: np.ndarray
    y_axis: np.ndarray
    z_axis: np.ndarray
    yaw_axis: np.ndarray
    init: Cuboid3D

    def __post_init__(self):
        for name in ("x_axis", "y_axis", "z_axis", "yaw_axis"):
            axis = np.array(getattr(self, name), dtype=float)
            if axis.ndim != 1:
                raise ValueError(f"{name} must be 1-D")
            axis.setflags(write=False)
            object.__setattr__(self, name, axis)

    @property
    def dims(self) -> tuple:
        return self.init.dims

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
    def corner_table(self) -> np.ndarray:
        """Corner offsets, corner-major (8, yaws, 3), of the shared dims at each yaw axis entry."""
        table = np.array([corner_offsets(self.dims, float(y)) for y in self.yaw_axis])
        table = np.ascontiguousarray(table.reshape(len(self.yaw_axis), 8, 3).transpose(1, 0, 2))
        table.setflags(write=False)
        return table

    def cuboid(self, i: int) -> Cuboid3D:
        center, yaw = self.pose(i)
        return Cuboid3D(center, self.dims, float(yaw))


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
    return HypothesisGrid(c[0] + xyo, c[1] + xyo, c[2] + zo, yaws, init=init)


def projected_iou(
    grid: HypothesisGrid, idx: np.ndarray, det: Detection2D, rig: SensorRig
) -> np.ndarray:
    """IoU of the projected boxes of hypotheses `idx` with the detection box.

    Every value depends on its own hypothesis only, so a subset's IoU
    equals the same rows of the whole grid's IoU bit for bit: the corners
    of each are its center plus its yaw's column of `grid.corner_table`.
    Hypotheses wholly behind the camera project to the zero box and
    score 0. The rows go through `geom.project_boxes` in blocks of at
    most _IOU_BLOCK, which bounds the memory of a call.
    """
    idx = np.asarray(idx, dtype=np.intp)
    extr, intr = rig.camera_from_lidar(det.camera_id), rig.camera(det.camera_id).intrinsics
    iou = np.empty(len(idx))
    centres = np.empty((min(len(idx), _IOU_BLOCK), 3))
    for s in range(0, len(idx), _IOU_BLOCK):
        a, b, c, d = np.unravel_index(idx[s : s + _IOU_BLOCK], grid.shape)
        centre = centres[: len(a)]
        centre[:, 0], centre[:, 1], centre[:, 2] = grid.x_axis[a], grid.y_axis[b], grid.z_axis[c]
        iou[s : s + len(a)] = iou_2d(project_boxes(grid.corner_table[:, d] + centre, extr, intr)[0], det.box)
    return iou


def _inside_z(grid: HypothesisGrid, fg: np.ndarray) -> np.ndarray:
    """(points x z levels) 0/1 float32: the z test of every box, any yaw."""
    half_h = grid.dims[2] / 2.0
    return (np.abs(fg[:, 2:3] - grid.z_axis[None, :]) <= half_h).astype(np.float32)


def _coverage(grid: HypothesisGrid, turned, inside_z: np.ndarray, hyps: np.ndarray) -> np.ndarray:
    """Fraction of the foreground inside each of the hypotheses `hyps`.

    `turned` is the foreground's x and y turned into every yaw's box
    frame, `turn_xy(fg[:, 0], fg[:, 1], grid.yaw_axis)`, and `inside_z`
    is `_inside_z(grid, fg)`: both are built once per grid by
    `evaluate_hypotheses` and shared by its calls. `hyps` are ascending
    flat indices, as `projected_iou` takes them; the coverage is returned
    in that order. Every hypothesis at the xy nodes they name is counted,
    and the rows of `hyps` are taken.

    Yaw rotates about +z, so in a box frame the z test of a point does not
    depend on the box's xy position and the xy test does not depend on its
    z. Per entry of the yaw axis, the counted nodes are turned into the
    box frame by `geom.turn_xy` too, and

        counts = inside_xy (nodes x points) @ inside_z (points x z levels)

    counts the points inside every (node, z level) box at once, one cell
    per hypothesis of the yaw; the (yaws x nodes x z levels) table, its
    yaw axis moved last, is in flat order within each node.

    This is exact, not an approximation: both factors use the same
    `abs(p - c) <= half` comparisons, in float64, on the same turned
    values as the per-hypothesis test `inside_local(cuboid_local(fg, box),
    dims)` (z is not turned, so `inside_z` is built from the input z).
    The matmul multiplies 0/1 float32 factors, and each of its sums counts
    at most _CHUNK_ELEMS = 65,536 < 2^24 ones, which float32 represents
    exactly, so it is exact in any summation order; the partial counts
    add up in float64. `turn_xy` is elementwise, so a point or node turns
    to the same bits in any subset, and a hypothesis's coverage is the
    same whichever subset it is counted in.

    No containment block exceeds _CHUNK_ELEMS: a block holds as many
    whole yaws (all nodes by all points) as fit, which keeps few-node
    calls from paying a pass per yaw, or else one yaw and a chunk of the
    points, whose partial matmuls are summed, exact for the same reason.
    The blocks are computed in buffers allocated once per call, never
    shared between calls.
    """
    hyps = np.asarray(hyps, dtype=np.intp)
    m, nyaw, per_node = len(inside_z), len(grid.yaw_axis), len(grid.z_axis) * len(grid.yaw_axis)
    if m == 0 or len(hyps) == 0:
        return np.zeros(len(hyps))
    # hyps ascend, so each node's hypotheses are one run
    node = hyps // per_node
    starts = np.ones(len(node), dtype=bool)
    np.not_equal(node[1:], node[:-1], out=starts[1:])
    nodes = node[starts]
    n = len(nodes)
    half = np.asarray(grid.dims) / 2.0
    ny = len(grid.y_axis)
    px, py = turned
    # the counted nodes' turned x and y, (yaws, nodes, 1) each, every yaw at once
    cx, cy = turn_xy(grid.x_axis[nodes // ny], grid.y_axis[nodes % ny], grid.yaw_axis)
    cx, cy = cx[..., None], cy[..., None]
    batch = max(1, min(nyaw, _CHUNK_ELEMS // (n * m)))
    chunk = max(1, _CHUNK_ELEMS // (batch * n))
    block = np.empty(batch * n * min(chunk, m))
    flags32 = np.empty(len(block), dtype=np.float32)
    in_x = np.empty(len(block), dtype=bool)
    in_y = np.empty(len(block), dtype=bool)
    counts = np.zeros((nyaw, n, len(grid.z_axis)))
    for y0 in range(0, nyaw, batch):
        b = min(batch, nyaw - y0)
        for s in range(0, m, chunk):
            w = min(chunk, m - s)
            d = block[: b * n * w].reshape(b, n, w)
            bx = in_x[: b * n * w].reshape(b, n, w)
            by = in_y[: b * n * w].reshape(b, n, w)
            np.subtract(px[y0 : y0 + b, None, s : s + w], cx[y0 : y0 + b], out=d)
            np.less_equal(np.abs(d, out=d), half[0], out=bx)
            np.subtract(py[y0 : y0 + b, None, s : s + w], cy[y0 : y0 + b], out=d)
            np.less_equal(np.abs(d, out=d), half[1], out=by)
            np.logical_and(bx, by, out=bx)
            o = flags32[: b * n * w].reshape(b * n, w)
            np.copyto(o, bx.reshape(b * n, w))
            counts[y0 : y0 + b] += (o @ inside_z[s : s + w]).reshape(b, n, -1)
    rows = (np.cumsum(starts) - 1) * per_node + hyps % per_node
    return np.moveaxis(counts, 0, -1).reshape(-1)[rows] / float(m)


def _node_bound(grid: HypothesisGrid, fg: np.ndarray, inside_z: np.ndarray) -> np.ndarray:
    """Upper bound (xy nodes, z levels) on the coverage of any hypothesis there.

    Per (node, z level) it counts the points within r of the node in xy
    and inside the z slab (`inside_z`, the kernel's own z test, as
    `_inside_z(grid, fg)` builds it). A point the kernel counts inside a
    box of the node, at any yaw, lies within hypot(l, w) / 2 of the node:
    its box-frame offset is at most (l/2, w/2), and a rotation keeps
    lengths. The kernel compares rounded rotations, and this distance is
    rounded too, so r = hypot(l, w) / 2 * (1 + 1e-9) + 1e-6 m: the
    relative margin covers the rounding of the squares and the absolute
    one that of the rotations, which is below 1e-12 m at lidar ranges.
    Chunked over the points like `_coverage`, with the same block cap, so
    its float32 sums are exact for the same reason.
    """
    m = len(fg)
    nx, ny = len(grid.x_axis), len(grid.y_axis)
    r = math.hypot(grid.dims[0], grid.dims[1]) / 2.0 * (1.0 + 1e-9) + 1e-6
    chunk = max(1, _CHUNK_ELEMS // (nx * ny))
    w_max = min(chunk, m)
    dx2 = np.empty(nx * w_max)
    dy2 = np.empty(ny * w_max)
    block = np.empty(nx * ny * w_max)
    flags32 = np.empty(len(block), dtype=np.float32)
    near = np.empty(len(block), dtype=bool)
    counts = np.zeros((nx * ny, len(grid.z_axis)))
    for s in range(0, m, chunk):
        w = min(chunk, m - s)
        ddx = dx2[: nx * w].reshape(nx, w)
        ddy = dy2[: ny * w].reshape(ny, w)
        d = block[: nx * ny * w].reshape(nx, ny, w)
        b = near[: nx * ny * w].reshape(nx, ny, w)
        np.square(np.subtract(fg[None, s : s + w, 0], grid.x_axis[:, None], out=ddx), out=ddx)
        np.square(np.subtract(fg[None, s : s + w, 1], grid.y_axis[:, None], out=ddy), out=ddy)
        np.add(ddx[:, None, :], ddy[None, :, :], out=d)
        np.less_equal(d, r * r, out=b)
        o = flags32[: nx * ny * w].reshape(nx * ny, w)
        np.copyto(o, b.reshape(nx * ny, w))
        counts += o @ inside_z[s : s + w]
    return counts / float(m)


def evaluate_hypotheses(
    grid: HypothesisGrid, fp: FrustumPoints, det: Detection2D, rig: SensorRig
):
    """The hypotheses that tie for the best objective, with their coverage and IoU.

    Returns (candidates (K,), coverage (K,), iou (K,)): the ascending
    flat indices of the hypotheses whose coverage + IoU is the grid's
    largest, and their coverage and projected IoU. With no foreground
    point every coverage is 0 and every hypothesis is returned.

    The grid's per-point work is done once: its z factor (`_inside_z`)
    and the foreground turned into every yaw's box frame (`turn_xy`,
    2 x yaws x points float64, held only during this call) go to both
    `_coverage` calls and to `_node_bound`.

    The pruning is exact. `_node_bound` gives ub, a superset bound on the
    coverage of each (xy node, z level): cov <= ub for each of its
    hypotheses. IoU is at most 1 (the intersection never exceeds the
    union, and division rounds correctly), and float addition is
    monotone, so fl(cov + iou) <= fl(ub + iou) <= fl(ub + 1).
    1. The grid's middle xy node, the init's on an enumerated grid, the
       seed, gets exact coverage and IoU at all its z levels and yaws;
       their best objective L (`bound`) is one that some hypothesis
       reaches. The seed is scored once: its hypotheses are left out of
       the steps below and merged back, in flat order, at the end.
    2. IoU is computed for the hypotheses of the other (node, z) pairs
       with fl(ub + 1) >= L; every other one scores strictly below L.
    3. Coverage is counted only for the hypotheses with
       fl(ub + iou) >= L, its own IoU; every other one is strictly below
       L too.
    What is left, with the seed, holds every hypothesis that reaches L,
    so the grid's best objective and every hypothesis that ties it. Any
    seed keeps this exact; the seed changes only how many hypotheses
    survive, never the winner.
    """
    fg = fp.foreground
    if len(fg) == 0 or len(grid) == 0:
        every = np.arange(len(grid))
        return every, np.zeros(len(grid)), projected_iou(grid, every, det, rig)
    nx, ny, nz, nyaw = grid.shape
    inside_z = _inside_z(grid, fg)
    turned = turn_xy(fg[:, 0], fg[:, 1], grid.yaw_axis)
    seed_node = (nx // 2) * ny + ny // 2
    seed = seed_node * nz * nyaw + np.arange(nz * nyaw)
    seed_cov = _coverage(grid, turned, inside_z, seed)
    seed_iou = projected_iou(grid, seed, det, rig)
    bound = (seed_cov + seed_iou).max()
    # flat index // yaws is the (node, z level) pair, ub's flat index
    ub = _node_bound(grid, fg, inside_z).reshape(-1)
    pairs = np.flatnonzero(ub + 1.0 >= bound)
    pairs = pairs[pairs // nz != seed_node]
    hyps = (pairs[:, None] * nyaw + np.arange(nyaw)).reshape(-1)
    iou = projected_iou(grid, hyps, det, rig)
    live = np.repeat(ub[pairs], nyaw) + iou >= bound
    hyps, iou = hyps[live], iou[live]
    coverage = _coverage(grid, turned, inside_z, hyps)
    # the seed's run of flat indices goes back where it belongs
    at = np.searchsorted(hyps, seed[0])
    hyps, coverage, iou = (
        np.concatenate([rest[:at], own, rest[at:]])
        for rest, own in ((hyps, seed), (coverage, seed_cov), (iou, seed_iou))
    )
    objective = coverage + iou
    keep = objective >= objective.max()
    return hyps[keep], coverage[keep], iou[keep]


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
    candidates, coverage, iou = evaluate_hypotheses(grid, fp, det, rig)
    objective = coverage + iou
    centers, yaws = grid.pose(candidates)
    yaw_dist = np.abs(wrap_angle(yaws - grid.init.yaw))
    order = np.lexsort(
        (yaws, centers[:, 2], centers[:, 1], centers[:, 0], yaw_dist, -coverage, -objective)
    )
    k = int(order[0])
    return Hypothesis(
        cuboid=grid.cuboid(int(candidates[k])),
        coverage=float(coverage[k]),
        proj_iou=float(iou[k]),
    )
