"""Shared builders and independent naive reference implementations.

The naive oracles deliberately avoid the library's vectorized code paths:
containment uses face half-space tests on corner geometry, binning and
matching are plain Python loops.
"""

import math

import numpy as np
import pytest

from cuboidlift.config import PipelineConfig, default_taxonomy
from cuboidlift.geom import Box2D, Cuboid3D, cuboid_corners, rot_z, wrap_angle
from cuboidlift import search
from cuboidlift.search import Hypothesis, HypothesisGrid, SearchConfig, projected_iou
from cuboidlift.synth import random_scene_spec

CRITERION_CLASSES = [
    "car",
    "motorcycle",
    "bicycle",
    "adult",
    "adult",
    "traffic-cone",
    "traffic-cone",
]


@pytest.fixture(scope="session")
def taxonomy():
    return default_taxonomy()


@pytest.fixture(scope="session")
def default_config():
    return PipelineConfig()


@pytest.fixture(scope="session")
def fine_config():
    # finer translation grid used by the oracle round-trip checks
    return PipelineConfig(search=SearchConfig(trans_step=0.25))


def criterion_scene_spec(seed, taxonomy, sigma, points, inset, rmax=16.0):
    """The frozen scene family of the oracle round-trip acceptance check."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 21))
    return random_scene_spec(
        seed=1000 + seed,
        taxonomy=taxonomy,
        n_objects=n,
        classes=CRITERION_CLASSES,
        n_sweeps=1,
        noise_sigma=sigma,
        points_per_object=points,
        surface_inset=inset,
        range_m=(7.0, rmax),
        angular_margin=0.025,
        min_objects=5,
        corner_views=True,
    )


# ---------------------------------------------------------------------------
# Naive reference implementations


def naive_point_in_cuboid(p, c: Cuboid3D) -> bool:
    """Half-space test against the three face-pair planes built from corners."""
    corners = cuboid_corners(c)
    center = corners.mean(axis=0)
    # outward axes from corner differences (see corner ordering)
    axes = [corners[0] - corners[1], corners[0] - corners[3], corners[4] - corners[0]]
    p = np.asarray(p, dtype=float)
    for axis in axes:
        n = np.linalg.norm(axis)
        u = axis / n
        d = float(np.dot(p - center, u))
        if abs(d) > n / 2.0:
            return False
    return True


def naive_coverage(points, c: Cuboid3D) -> float:
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        return 0.0
    return sum(1 for p in pts if naive_point_in_cuboid(p, c)) / len(pts)


def naive_occupancy(c: Cuboid3D, points, k: int) -> float:
    """Loop-based footprint binning, floor with inclusive last edge."""
    l, w, h = c.dims
    cells = set()
    cy, sy = math.cos(-c.yaw), math.sin(-c.yaw)
    for p in np.asarray(points, dtype=float).reshape(-1, 3):
        if not naive_point_in_cuboid(p, c):
            continue
        dx, dy, dz = p - c.center
        lx = cy * dx - sy * dy
        ly = sy * dx + cy * dy
        ix = math.floor((lx + l / 2.0) / l * k)
        iy = math.floor((ly + w / 2.0) / w * k)
        cells.add((min(ix, k - 1), min(iy, k - 1)))
    return len(cells) / float(k * k)


def naive_frustum_mask(points, det, rig) -> np.ndarray:
    """Per-point scalar pinhole projection, plain loop.

    The points are moved into the camera frame in one `pts @ R.T + t`, the
    rounding of any batched rigid transform, so the oracle agrees with the
    library at box-boundary ties; a per-point `R @ p` rounds differently.
    """
    intr = rig.camera(det.camera_id).intrinsics
    t = rig.camera_from_lidar(det.camera_id)
    pts = np.asarray(points, dtype=float)[:, :3]
    out = []
    for p in pts @ t.rotation.T + t.translation:
        x, y, z = (float(v) for v in p)
        if z <= 0.0:
            out.append(False)
            continue
        u = intr.fx * x / z + intr.cx
        v = intr.fy * y / z + intr.cy
        out.append(det.box.x1 <= u <= det.box.x2 and det.box.y1 <= v <= det.box.y2)
    return np.array(out, dtype=bool)


def grid_poses(grid):
    """Centers (H, 3) and yaws (H,) of every hypothesis of `grid`, in flat order."""
    return grid.pose(np.arange(len(grid)))


def naive_evaluate_coverage(grid, fg) -> np.ndarray:
    """Coverage of every grid entry by the unfactorised containment test.

    Per yaw, the points and that yaw's hypothesis centers are rotated into
    the box frame and every (hypothesis, point) pair is compared on all
    three axes in one broadcast, with no chunking and no deduplication.
    """
    fg = np.asarray(fg, dtype=float).reshape(-1, 3)
    coverage = np.zeros(len(grid))
    if len(fg) == 0:
        return coverage
    half = np.asarray(grid.dims) / 2.0
    centers, yaws = grid_poses(grid)
    for yaw in np.unique(yaws):
        sel = np.nonzero(yaws == yaw)[0]
        rinv = rot_z(-float(yaw))
        prot = fg @ rinv.T
        crot = centers[sel] @ rinv.T
        inside = np.all(np.abs(prot[None, :, :] - crot[:, None, :]) <= half, axis=2)
        coverage[sel] = inside.sum(axis=1) / float(len(fg))
    return coverage


def naive_select_best(grid, fp, det, rig):
    """Evaluate-all-then-lexsort argmax: oracle coverage, full projected IoU, no pruning."""
    coverage = naive_evaluate_coverage(grid, fp.foreground)
    iou = projected_iou(grid, np.arange(len(grid)), det, rig)
    objective = coverage + iou
    centers, yaws = grid_poses(grid)
    yaw_dist = np.abs(wrap_angle(yaws - grid.init.yaw))
    order = np.lexsort(
        (
            yaws,
            centers[:, 2],
            centers[:, 1],
            centers[:, 0],
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


def naive_match(preds, gts, class_label, threshold):
    """Greedy matcher mirroring the documented tie rules, dict-based."""
    cls_preds = [(i, p) for i, p in enumerate(preds) if p.class_label == class_label]
    cls_gts = [(j, g) for j, g in enumerate(gts) if g.class_label == class_label]
    order = sorted(range(len(cls_preds)), key=lambda k: -cls_preds[k][1].score)
    taken = set()
    rows = []
    for k in order:
        pi, p = cls_preds[k]
        best = None
        best_d = None
        for j, g in cls_gts:
            if j in taken or g.frame_id != p.frame_id:
                continue
            d = math.hypot(
                p.cuboid.center[0] - g.cuboid.center[0],
                p.cuboid.center[1] - g.cuboid.center[1],
            )
            if d <= threshold and (best_d is None or d < best_d):
                best_d = d
                best = j
        if best is not None:
            taken.add(best)
            rows.append((p.score, True, pi, best))
        else:
            rows.append((p.score, False, pi, None))
    return rows, len(cls_gts)


def naive_iou_2d(a: Box2D, b: Box2D) -> float:
    """Per-pair scalar IoU; 0 when the union is empty."""
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def naive_map2d(pred_dets, gt_dets, iou_threshold=0.5) -> float:
    """Per-pair greedy 2D matching and 101-point enveloped AP, plain loops.

    By descending score (ties in input order) each prediction scans the
    untaken same-class GT of its image and keeps the first strictly
    higher IoU that reaches the threshold.
    """
    aps = []
    for cls in sorted({g.class_label for g in gt_dets}):
        gts = [g for g in gt_dets if g.class_label == cls]
        preds = sorted((p for p in pred_dets if p.class_label == cls), key=lambda p: -p.score)
        taken = set()
        is_tp = []
        for p in preds:
            best_j, best_v = None, -1.0
            for j, g in enumerate(gts):
                if j in taken or (g.frame_id, g.camera_id) != (p.frame_id, p.camera_id):
                    continue
                v = naive_iou_2d(p.box, g.box)
                if v >= iou_threshold and v > best_v:
                    best_j, best_v = j, v
            if best_j is not None:
                taken.add(best_j)
            is_tp.append(best_j is not None)
        tp = [sum(is_tp[: i + 1]) for i in range(len(is_tp))]
        prec = [t / (i + 1) for i, t in enumerate(tp)]
        rec = [t / len(gts) for t in tp]
        total = 0.0
        for r in np.linspace(0.0, 1.0, 101):
            total += max((p for p, q in zip(prec, rec) if q >= r), default=0.0)
        aps.append(total / 101.0)
    return float(np.mean(aps)) if aps else 0.0


def random_cuboid(rng, span=10.0, dim_range=(0.4, 5.0)) -> Cuboid3D:
    center = rng.uniform(-span, span, size=3)
    dims = tuple(rng.uniform(*dim_range, size=3))
    yaw = rng.uniform(-math.pi, math.pi)
    return Cuboid3D(center, dims, yaw)


def kernel_coverage(points, c: Cuboid3D) -> float:
    """`search._coverage` of the one-entry grid holding `c`: the production coverage of one box."""
    grid = HypothesisGrid([c.center[0]], [c.center[1]], [c.center[2]], [c.yaw], dims=c.dims, init=c)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    return float(search._coverage(grid, pts, np.array([0]))[0])


def random_box(rng, span=100.0) -> Box2D:
    x1, x2 = sorted(rng.uniform(0, span, size=2))
    y1, y2 = sorted(rng.uniform(0, span, size=2))
    return Box2D(x1, y1, x2, y2)


def _set(path, value):
    """Manifest breaker: set the value at a key path of the parsed manifest."""

    def apply(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc

    return apply


# scene manifests broken in ways a loader must report as a FormatError
# naming the manifest, each applied to a parsed valid manifest
BROKEN_MANIFESTS = {
    "root_is_list": lambda doc: [doc],
    "null_intrinsic": _set(("cameras", 0, "intrinsics", "fx"), None),
    "numeric_sweep_file": _set(("sweeps", 0, "file"), 7),
    "three_value_rotation": _set(("lidar", "rotation"), [1.0, 0.0, 0.0]),
    "string_rotation": _set(("lidar", "rotation"), "1000"),
    "nan_translation": _set(("sweeps", 0, "ego_pose", "translation"), [0.0, float("nan"), 0.0]),
    "fractional_width": _set(("cameras", 0, "intrinsics", "width"), 800.5),
    "bool_timestamp": _set(("sweeps", 0, "timestamp"), True),
    "missing_cameras": lambda doc: {k: v for k, v in doc.items() if k != "cameras"},
}
