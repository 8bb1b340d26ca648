"""Multi-hypothesis cuboid search over translation x yaw grids.

For one detection the search enumerates cuboid poses on a Cartesian grid
around an initial guess (dimensions stay fixed at the prior's), scores
every pose by point coverage plus projected-box IoU against the 2D
detection, and returns the argmax under a total, deterministic tie-break.
The grid is its x, y, z and yaw axes (`HypothesisGrid`, flat order x
outer to yaw inner): coverage is counted per yaw for a set of (x, y)
nodes and every z level at once, as one matmul of an xy and a z
containment factor (see `_coverage`); projected IoU is computed only for
the hypotheses that can still win (see `evaluate_hypotheses`).

Each grid first bounds the coverage of every (x, y node, z level) pair
over all its yaws (see `_node_bound`). The bound is a superset test: a
point inside a box of dims (l, w, h) centred on a node lies within
hypot(l, w) / 2 of the node in xy whatever the box's yaw, so counting the
points within that radius (plus a margin for the rounding of the
rotations) and inside the box's z slab never undercounts any hypothesis
of the pair. The node with the largest bound (the one nearest the init on
a tie) seeds an objective L that some hypothesis reaches; IoU goes only to
the pairs whose bound + 1 reaches L, and coverage only to the nodes that
hold a hypothesis whose bound + its own IoU reaches L. Every hypothesis
pruned on the way scores strictly below L, so none could win or tie.

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
    wrap_angle,
    yaw_frame,
)
from .ingest import Detection2D, SensorRig
from .frustum import FrustumPoints
from .prior import SemanticPrior

# cap on the elements of one (xy node x point) containment block; the
# points axis is chunked so a block's float64 temporaries (512 KB each)
# stay cache-sized however many points a frustum holds
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
    objective: float

    def __post_init__(self):
        if self.objective != self.coverage + self.proj_iou:
            raise ValueError("objective must equal coverage + proj_iou")


@dataclass(frozen=True)
class HypothesisGrid:
    """Cartesian pose grid: x, y and z center axes, a yaw axis, shared dims.

    Flat index i is the pose at axis indices np.unravel_index(i, shape):
    x outer, y, z, yaw inner; `pose` maps flat indices to poses.
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
    return HypothesisGrid(c[0] + xyo, c[1] + xyo, c[2] + zo, yaws, dims=init.dims, init=init)


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
    for s in range(0, len(idx), _IOU_BLOCK):
        block = idx[s : s + _IOU_BLOCK]
        centers, _ = grid.pose(block)
        corners = grid.corner_table[:, np.unravel_index(block, grid.shape)[3]] + centers
        iou[s : s + len(block)] = iou_2d(project_boxes(corners, extr, intr)[0], det.box)
    return iou


def _node_hypotheses(grid: HypothesisGrid, nodes: np.ndarray) -> np.ndarray:
    """Flat indices of every hypothesis at xy nodes `nodes`, node by node.

    xy node j is (x_axis[j // len(y_axis)], y_axis[j % len(y_axis)]); its
    hypotheses are contiguous in the flat order, z levels then yaws.
    """
    per_node = len(grid.z_axis) * len(grid.yaw_axis)
    return (np.asarray(nodes)[:, None] * per_node + np.arange(per_node)).reshape(-1)


def _inside_z(grid: HypothesisGrid, fg: np.ndarray) -> np.ndarray:
    """(points x z levels) 0/1 float64: the z test of every box, any yaw."""
    half_h = grid.dims[2] / 2.0
    return (np.abs(fg[:, 2:3] - grid.z_axis[None, :]) <= half_h).astype(np.float64)


def _coverage(grid: HypothesisGrid, fg: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Fraction of `fg` inside every hypothesis at xy nodes `nodes`.

    Returns the coverage of `_node_hypotheses(grid, nodes)`, in that
    order; with every node, of the whole grid in its flat order.

    Yaw rotates about +z, so in a box frame the z test of a point does not
    depend on the box's xy position and the xy test does not depend on its
    z. Per entry of the yaw axis, the points and the nodes are turned
    into the box frame by `geom.yaw_frame` and

        counts = inside_xy (nodes x points) @ inside_z (points x z levels)

    counts the points inside every (node, z level) box at once, one cell
    per hypothesis of the yaw; the (yaws x nodes x z levels) table, its
    yaw axis moved last, is in the order of `_node_hypotheses`.

    This is exact, not an approximation: both factors use the same
    `abs(p - c) <= half` comparisons on the same turned values as a
    per-hypothesis test, `inside_local(cuboid_local(fg, box), dims)` on a
    one-entry grid (`yaw_frame` leaves z unchanged and its xy independent
    of z, so the nodes sit at z = 0 and `inside_z` is built once from the
    input z), and a float64 matmul sums 0/1 values without rounding.
    Every node is turned and the subset's rows taken, so a node's turned
    position is the same whichever subset it is counted in.

    No containment block exceeds _CHUNK_ELEMS: a block holds as many
    whole yaws (all nodes by all points) as fit, which keeps few-node
    calls from paying a pass per yaw, or else one yaw and a chunk of the
    points, whose partial matmuls are summed, exact for the same reason.
    The blocks are computed in buffers allocated once per call, never
    shared between calls.
    """
    m, n, nyaw = len(fg), len(nodes), len(grid.yaw_axis)
    if m == 0 or n * len(grid.z_axis) * nyaw == 0:
        return np.zeros(n * len(grid.z_axis) * nyaw)
    half = np.asarray(grid.dims) / 2.0
    gx, gy = np.meshgrid(grid.x_axis, grid.y_axis, indexing="ij")
    nodes_xy = np.stack([gx.reshape(-1), gy.reshape(-1), np.zeros(gx.size)], axis=1)
    inside_z = _inside_z(grid, fg)
    batch = max(1, min(nyaw, _CHUNK_ELEMS // (n * m)))
    chunk = max(1, _CHUNK_ELEMS // (batch * n))
    rot = np.empty((2, batch, m))
    crot = np.empty((2, batch, n, 1))
    block = np.empty(batch * n * min(chunk, m))
    in_x = np.empty(len(block), dtype=bool)
    in_y = np.empty(len(block), dtype=bool)
    counts = np.zeros((nyaw, n, len(grid.z_axis)))
    for y0 in range(0, nyaw, batch):
        b = min(batch, nyaw - y0)
        for k, yaw in enumerate(grid.yaw_axis[y0 : y0 + b]):
            rot[:, k] = yaw_frame(fg, yaw)[:, :2].T
            crot[:, k, :, 0] = yaw_frame(nodes_xy, yaw)[nodes, :2].T
        px, py = rot[:, :b]
        cx, cy = crot[:, :b]
        for s in range(0, m, chunk):
            w = min(chunk, m - s)
            d = block[: b * n * w].reshape(b, n, w)
            bx = in_x[: b * n * w].reshape(b, n, w)
            by = in_y[: b * n * w].reshape(b, n, w)
            np.subtract(px[:, None, s : s + w], cx, out=d)
            np.less_equal(np.abs(d, out=d), half[0], out=bx)
            np.subtract(py[:, None, s : s + w], cy, out=d)
            np.less_equal(np.abs(d, out=d), half[1], out=by)
            np.logical_and(bx, by, out=bx)
            np.copyto(d, bx)
            counts[y0 : y0 + b] += (d.reshape(b * n, w) @ inside_z[s : s + w]).reshape(b, n, -1)
    return np.moveaxis(counts, 0, -1).reshape(-1) / float(m)


def _node_bound(grid: HypothesisGrid, fg: np.ndarray) -> np.ndarray:
    """Upper bound (xy nodes, z levels) on the coverage of any hypothesis there.

    Per (node, z level) it counts the points within r of the node in xy
    and inside the z slab (`_inside_z`, the kernel's own z test). A point
    the kernel counts inside a box of the node, at any yaw, lies within
    hypot(l, w) / 2 of the node: its box-frame offset is at most
    (l/2, w/2), and a rotation keeps lengths. The kernel compares rounded
    rotations, and this distance is rounded too, so
    r = hypot(l, w) / 2 * (1 + 1e-9) + 1e-6 m: the relative margin covers
    the rounding of the squares and the absolute one that of the
    rotations, which is below 1e-12 m at lidar ranges. Chunked over the
    points like `_coverage`, with the same block cap.
    """
    m = len(fg)
    nx, ny = len(grid.x_axis), len(grid.y_axis)
    r = math.hypot(grid.dims[0], grid.dims[1]) / 2.0 * (1.0 + 1e-9) + 1e-6
    inside_z = _inside_z(grid, fg)
    chunk = max(1, _CHUNK_ELEMS // (nx * ny))
    w_max = min(chunk, m)
    dx2 = np.empty(nx * w_max)
    dy2 = np.empty(ny * w_max)
    block = np.empty(nx * ny * w_max)
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
        np.copyto(d, b)
        counts += d.reshape(nx * ny, w) @ inside_z[s : s + w]
    return counts / float(m)


def _seed_node(grid: HypothesisGrid, ub: np.ndarray) -> np.ndarray:
    """The xy node (as a one-entry array) with the largest bound `ub`.

    Of tied nodes, the one nearest the grid's centre, the init's xy, and
    then the first: a tie at the top is usually a wide box whose bound is
    1.0 at every node, and the nodes near the init hold the best poses.
    """
    x, y = np.meshgrid(grid.x_axis - grid.init.center[0], grid.y_axis - grid.init.center[1], indexing="ij")
    return np.lexsort((x.reshape(-1) ** 2 + y.reshape(-1) ** 2, -ub))[:1]


def evaluate_hypotheses(
    grid: HypothesisGrid, fp: FrustumPoints, det: Detection2D, rig: SensorRig
):
    """The hypotheses that tie for the best objective, with their coverage and IoU.

    Returns (candidates (K,), coverage (K,), iou (K,)): the ascending
    flat indices of the hypotheses whose coverage + IoU is the grid's
    largest, and their coverage and projected IoU. With no foreground
    point every coverage is 0 and every hypothesis is returned.

    The pruning is exact. `_node_bound` gives ub, a superset bound on the
    coverage of each (xy node, z level): cov <= ub for each of its
    hypotheses. IoU is at most 1 (the intersection never exceeds the
    union, and division rounds correctly), and float addition is
    monotone, so fl(cov + iou) <= fl(ub + iou) <= fl(ub + 1).
    1. The seed node, the one with the largest bound (`_seed_node`),
       gets exact coverage and IoU; its best objective L (`bound`) is
       one that some hypothesis reaches.
    2. IoU is computed for the hypotheses of the (node, z) pairs with
       fl(ub + 1) >= L; every other one scores strictly below L.
    3. Coverage is counted only at the nodes that hold a hypothesis with
       fl(ub + iou) >= L, its own IoU; every other one is strictly below
       L too.
    What is left holds every hypothesis that reaches L, the seed's best
    among them, so the grid's best objective and every hypothesis that
    ties it. Which node seeds L changes only how many survive, never the
    winner.
    """
    fg = fp.foreground
    if len(fg) == 0 or len(grid) == 0:
        every = np.arange(len(grid))
        return every, np.zeros(len(grid)), projected_iou(grid, every, det, rig)
    nyaw, per_node = len(grid.yaw_axis), len(grid.z_axis) * len(grid.yaw_axis)
    ub = _node_bound(grid, fg)
    seed = _seed_node(grid, ub.max(axis=1))
    bound = (_coverage(grid, fg, seed) + projected_iou(grid, _node_hypotheses(grid, seed), det, rig)).max()
    # flat index // yaws is the (node, z level) pair, ub's flat index
    pairs = np.flatnonzero(ub.reshape(-1) + 1.0 >= bound)
    hyps = (pairs[:, None] * nyaw + np.arange(nyaw)).reshape(-1)
    iou = projected_iou(grid, hyps, det, rig)
    live = np.repeat(ub.reshape(-1)[pairs], nyaw) + iou >= bound
    hyps, iou = hyps[live], iou[live]
    # hyps ascend, so each node's live hypotheses are one run
    node = hyps // per_node
    starts = np.ones(len(node), dtype=bool)
    np.not_equal(node[1:], node[:-1], out=starts[1:])
    run = np.cumsum(starts) - 1
    coverage = _coverage(grid, fg, node[starts])[run * per_node + hyps % per_node]
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
        objective=float(coverage[k]) + float(iou[k]),
    )
