"""Shared builders, independent naive reference implementations and the
synthetic round-trip oracle.

The naive oracles deliberately avoid the library's vectorized code paths:
containment uses face half-space tests on corner geometry, binning and
matching are plain Python loops.
"""

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from cuboidlift.config import PipelineConfig, default_taxonomy
from cuboidlift.geom import Box2D, Cuboid3D, cuboid_corners, rot_z, turn_xy, wrap_angle, yaw_diff
from cuboidlift.metrics import DIST_THRESHOLDS, gt_classes, match_predictions
from cuboidlift.pipeline import annotate_scene
from cuboidlift.prior import SemanticPrior, expert_key
from cuboidlift import search
from cuboidlift.search import Hypothesis, HypothesisGrid, SearchConfig, projected_iou
from cuboidlift.synth import generate_scene, random_scene_spec

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


def naive_rle_decode(rle) -> np.ndarray:
    """Expand an RLE mask run by run into its (height, width) bool array."""
    h, w = rle["size"]
    flat = []
    value = False
    for c in rle["counts"]:
        flat.extend([value] * c)
        value = not value
    return np.array(flat, dtype=bool).reshape(h, w)


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


def naive_associate(frames, taxonomy):
    """Tracks as member lists by repeated minimum, plain loops over all pairs.

    Per frame, among the free same-class pairs within the class's match
    radius, the one of least (distance, previous index, current index)
    joins its current annotation to the previous one's track, until no
    pair is left; every current annotation left over starts a track.
    """
    tracks = []
    prev_track = []  # track index of each previous-frame annotation
    for fi, anns in enumerate(frames):
        prev = frames[fi - 1] if fi else []
        cur_track = [None] * len(anns)
        used_prev = set()
        while True:
            best = None
            for pi, pa in enumerate(prev):
                for ci, ca in enumerate(anns):
                    if pi in used_prev or cur_track[ci] is not None or ca.class_label != pa.class_label:
                        continue
                    d = math.hypot(
                        pa.cuboid.center[0] - ca.cuboid.center[0],
                        pa.cuboid.center[1] - ca.cuboid.center[1],
                    )
                    if d <= taxonomy.get(pa.class_label).match_radius and (best is None or (d, pi, ci) < best):
                        best = (d, pi, ci)
            if best is None:
                break
            _, pi, ci = best
            used_prev.add(pi)
            cur_track[ci] = prev_track[pi]
            tracks[prev_track[pi]].append((fi, ci))
        for ci in range(len(anns)):
            if cur_track[ci] is None:
                cur_track[ci] = len(tracks)
                tracks.append([(fi, ci)])
        prev_track = cur_track
    return tracks


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


# ---------------------------------------------------------------------------
# Round-trip oracle: generate a scene, annotate it, score the recovery


@dataclass
class ObjectRecovery:
    frame_id: str
    class_label: str
    center_error: float
    yaw_error: float


@dataclass
class RecoveryReport:
    objects: list  # ObjectRecovery, one per GT object per frame (inf if missed)
    recall: dict  # threshold -> recall
    n_gt: int
    n_pred: int

    def max_center_error(self) -> float:
        return max((o.center_error for o in self.objects), default=0.0)

    def max_yaw_error(self) -> float:
        return max((o.yaw_error for o in self.objects), default=0.0)


def oracle_prior_provider(synth_scene, config):
    """Per-instance priors from synthetic ground truth (true dims + yaw).

    The returned provider keys detections by identity within the synthetic
    scene's detection list; orientations are converted into the lidar frame
    of the detection's sweep.
    """
    det_to_obj = {id(d): oi for d, oi in zip(synth_scene.detections, synth_scene.det_object_ids)}
    scene = synth_scene.scene
    t0 = scene.sweeps[0].timestamp

    def provider(det):
        oi = det_to_obj[id(det)]
        si = scene.frame_index[det.frame_id]
        obj = synth_scene.spec.objects[oi]
        cub = obj.cuboid_at((scene.sweeps[si].timestamp - t0) / 1e6)
        heading = scene.lidar_to_world[si].heading()
        return SemanticPrior(
            dims=cub.dims,
            orientation=wrap_angle(cub.yaw - heading),
            sector_half_width=config.sector_half_width,
            source="per_instance",
        )

    return provider


def verify_roundtrip(spec, config, priors: str = "oracle") -> RecoveryReport:
    """Generate the scene, run the pipeline on it, and score the recovery.

    priors="oracle" feeds per-instance priors with the true dimensions and
    orientation; "class_average" exercises the fallback full-sector path;
    "expert_file" routes through the generated record sidecar.
    """
    synth = generate_scene(spec)
    provider = None
    expert_index = None
    if priors == "oracle":
        provider = oracle_prior_provider(synth, config)
    elif priors == "expert_file":
        expert_index = {expert_key(rec_det): rec for rec_det, rec in zip(synth.detections, synth.expert_records)}
    elif priors != "class_average":
        raise ValueError(f"unknown prior mode {priors!r}")

    frames, _ = annotate_scene(
        synth.scene,
        synth.detections,
        config,
        expert_index=expert_index,
        prior_provider=provider,
    )
    preds = [a for frame in frames for a in frame]
    gts = synth.gt_flat

    objects = []
    for sweep, frame_preds, frame_gt in zip(synth.scene.sweeps, frames, synth.gt_frames):
        frame_id = sweep.frame_id
        for g in frame_gt:
            # the nearest same-class prediction in BEV, the first of equals
            best = min(
                (p for p in frame_preds if p.class_label == g.class_label),
                key=lambda p: np.linalg.norm(p.cuboid.center[:2] - g.cuboid.center[:2]),
                default=None,
            )
            if best is None:
                objects.append(ObjectRecovery(frame_id, g.class_label, math.inf, math.inf))
            else:
                objects.append(
                    ObjectRecovery(
                        frame_id,
                        g.class_label,
                        float(np.linalg.norm(best.cuboid.center - g.cuboid.center)),
                        yaw_diff(best.cuboid.yaw, g.cuboid.yaw),
                    )
                )

    recall = {}
    classes = gt_classes(gts)
    for t in DIST_THRESHOLDS:
        tp = 0
        for cls in classes:
            m = match_predictions(preds, gts, cls, t)
            tp += sum(1 for r in m.rows if r[1])
        recall[t] = tp / len(gts) if gts else 0.0

    return RecoveryReport(
        objects=objects,
        recall=recall,
        n_gt=len(gts),
        n_pred=len(preds),
    )


def random_cuboid(rng, span=10.0, dim_range=(0.4, 5.0)) -> Cuboid3D:
    center = rng.uniform(-span, span, size=3)
    dims = tuple(rng.uniform(*dim_range, size=3))
    yaw = rng.uniform(-math.pi, math.pi)
    return Cuboid3D(center, dims, yaw)


def grid_coverage(grid, fg, hyps) -> np.ndarray:
    """`search._coverage` of hypotheses `hyps`, on point factors built as `evaluate_hypotheses` builds them."""
    fg = np.asarray(fg, dtype=float).reshape(-1, 3)
    turned = turn_xy(fg[:, 0], fg[:, 1], grid.yaw_axis)
    return search._coverage(grid, turned, search._inside_z(grid, fg), hyps)


def node_bound(grid, fg) -> np.ndarray:
    """`search._node_bound` of `fg`, with the z factor built as `evaluate_hypotheses` builds it."""
    return search._node_bound(grid, fg, search._inside_z(grid, fg))


def kernel_coverage(points, c: Cuboid3D) -> float:
    """`search._coverage` of the one-entry grid holding `c`: the production coverage of one box."""
    grid = HypothesisGrid([c.center[0]], [c.center[1]], [c.center[2]], [c.yaw], init=c)
    return float(grid_coverage(grid, points, np.array([0]))[0])


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


# the OpenBLAS kernels a BLAS-independence check runs under; None is the
# one OpenBLAS picks for the CPU, the others are forced by OPENBLAS_CORETYPE
# (Sandybridge and Nehalem have no FMA, so their products round apart)
BLAS_KERNELS = (None, "Haswell", "Sandybridge", "Nehalem")

# digest of a raw BLAS product: its bits tell whether the kernel switched
_BLAS_PROBE = (
    "import hashlib\n"
    "import numpy as np\n"
    "_rng = np.random.default_rng(3)\n"
    "_p = _rng.uniform(-50.0, 50.0, (1000, 3)) @ _rng.standard_normal((3, 3)).T\n"
    "print(hashlib.sha256(_p.tobytes()).hexdigest())\n"
)


def run_under_blas_kernels(snippet: str) -> dict:
    """The stdout of `snippet` run by a fresh interpreter under each of BLAS_KERNELS.

    Returns {kernel: stdout}. OPENBLAS_CORETYPE is set, or for the default
    kernel removed, in the children's environment only. Each child first
    digests a raw `P @ R.T`; if the default kernel and Sandybridge give it
    the same bits, this OpenBLAS build cannot switch kernels, a check
    across them would be vacuous, and the calling test is skipped.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probes, outs = {}, {}
    for kernel in BLAS_KERNELS:
        env = base if kernel is None else dict(base, OPENBLAS_CORETYPE=kernel)
        res = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE + snippet], env=env, capture_output=True, text=True, timeout=120
        )
        assert res.returncode == 0, f"OPENBLAS_CORETYPE={kernel}: {res.stderr}"
        probes[kernel], _, outs[kernel] = res.stdout.partition("\n")
    if probes[None] == probes["Sandybridge"]:
        pytest.skip("a raw P @ R.T has the same bits under the default OpenBLAS kernel and Sandybridge: "
                    "this build cannot switch kernels")
    return outs
