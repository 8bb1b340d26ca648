"""Synthetic scene generator and ground-truth oracle.

Builds scenes with known cuboids, samples LiDAR-like points on the faces
visible from the sensor, derives oracle 2D detections and masks, and
round-trips them through the full pipeline to measure recovery quality.
Everything is driven by one integer-seeded PCG64 stream, so outputs are
bit-reproducible for a fixed seed.

Face visibility uses the outward-normal test (enough for isolated convex
boxes); occluders are modeled explicitly as wall fixtures rather than by
ray casting. Point intensity is a constant 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .geom import (
    Box2D,
    CameraIntrinsics,
    Cuboid3D,
    RigidTransform,
    bev_rect,
    project_cuboid_to_box,
    project_points,
    rot_z,
    round_half_away,
    wrap_angle,
)
from .ingest import (
    CameraCalib,
    Detection2D,
    Scene,
    ScoredAnnotation,
    SensorRig,
    SweepFrame,
    Taxonomy,
)
from .prior import FACES, ExpertRecord, SemanticPrior

if TYPE_CHECKING:
    from .config import PipelineConfig

MASK_DILATION_PX = 2


@dataclass(frozen=True)
class SceneObject:
    class_label: str
    cuboid: Cuboid3D  # world frame, at the first timestamp
    velocity: Optional[tuple] = None  # (vx, vy) m/s

    def cuboid_at(self, dt_seconds: float) -> Cuboid3D:
        if self.velocity is None or dt_seconds == 0.0:
            return self.cuboid
        off = np.array([self.velocity[0] * dt_seconds, self.velocity[1] * dt_seconds, 0.0])
        return Cuboid3D(self.cuboid.center + off, self.cuboid.dims, self.cuboid.yaw)


@dataclass(frozen=True)
class Wall:
    """Vertical rectangle of clutter points (the classic occluding fence)."""

    center: np.ndarray  # (3,) world
    normal_yaw: float  # BEV direction of the outward normal
    width: float
    height: float
    n_points: int


@dataclass
class SceneSpec:
    seed: int
    objects: list  # SceneObject
    cameras: list  # CameraCalib
    timestamps: list  # integer microseconds, strictly increasing
    ego_poses: list  # RigidTransform world<-ego, one per timestamp
    lidar_extrinsics: RigidTransform  # ego<-lidar
    points_per_object: tuple = (150, 250)
    noise_sigma: float = 0.0
    walls: list = field(default_factory=list)
    # pull face samples inward by this much so points survive float32
    # storage strictly inside the box; 0 samples the exact surface
    surface_inset: float = 0.0

    def __post_init__(self):
        if not self.cameras:
            raise ValueError("scene needs at least one camera")
        if len(self.ego_poses) != len(self.timestamps):
            raise ValueError("one ego pose per timestamp required")
        if any(t2 <= t1 for t1, t2 in zip(self.timestamps, self.timestamps[1:])):
            raise ValueError("timestamps must be strictly increasing")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        self._check_bev_overlap()

    def _check_bev_overlap(self):
        for ti, ts in enumerate(self.timestamps):
            dt = (ts - self.timestamps[0]) / 1e6
            rects = [bev_rect(o.cuboid_at(dt)) for o in self.objects]
            for i in range(len(rects)):
                for j in range(i + 1, len(rects)):
                    if rects_overlap(rects[i], rects[j]):
                        raise ValueError(
                            f"objects {i} and {j} overlap in BEV at sweep {ti}"
                        )


def rects_overlap(a: np.ndarray, b: np.ndarray) -> bool:
    """Separating-axis test for two convex BEV quadrilaterals."""
    for rect in (a, b):
        for k in range(4):
            edge = rect[(k + 1) % 4] - rect[k]
            axis = np.array([-edge[1], edge[0]])
            n = np.linalg.norm(axis)
            if n == 0:
                continue
            axis = axis / n
            pa = a @ axis
            pb = b @ axis
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True


# face index -> (outward normal in the local frame, its two in-plane axes);
# the four side faces come first, in prior.FACES order
_FACES = (
    (np.array([1.0, 0, 0]), 1, 2),  # +x (front)
    (np.array([-1.0, 0, 0]), 1, 2),  # -x (back)
    (np.array([0, 1.0, 0]), 0, 2),  # +y (left)
    (np.array([0, -1.0, 0]), 0, 2),  # -y (right)
    (np.array([0, 0, 1.0]), 0, 1),  # +z (top)
    (np.array([0, 0, -1.0]), 0, 1),  # -z (bottom)
)


def _facing_faces(c: Cuboid3D, pos: np.ndarray) -> list:
    """Indices into _FACES of the faces whose outward normal points at `pos`."""
    r = rot_z(c.yaw)
    half = np.asarray(c.dims) / 2.0
    out = []
    for fi, (normal_local, _, _) in enumerate(_FACES):
        normal = r @ normal_local
        face_center = c.center + normal * (half * np.abs(normal_local)).sum()
        if float(normal @ (pos - face_center)) > 0.0:
            out.append(fi)
    return out


def sample_visible_surface(
    c: Cuboid3D,
    sensor_pos: np.ndarray,
    n: int,
    rng: np.random.Generator,
    inset: float = 0.0,
) -> np.ndarray:
    """Uniform samples on the faces whose outward normal faces the sensor."""
    dims = np.asarray(c.dims)
    half = dims / 2.0
    visible = [_FACES[fi] for fi in _facing_faces(c, sensor_pos)]
    if not visible:
        return np.zeros((0, 3))
    areas = np.array([dims[ai] * dims[bi] for _, ai, bi in visible])
    choice = rng.choice(len(visible), size=n, p=areas / areas.sum())
    uv = rng.uniform(-0.5, 0.5, size=(n, 2))
    pts_local = np.zeros((n, 3))
    for fi, (normal_local, ai, bi) in enumerate(visible):
        sel = choice == fi
        if not sel.any():
            continue
        block = np.zeros((int(sel.sum()), 3))
        fixed_axis = int(np.nonzero(normal_local)[0][0])
        depth = half[fixed_axis] - min(inset, 0.25 * dims[fixed_axis])
        block[:, fixed_axis] = depth * np.sign(normal_local[fixed_axis])
        block[:, ai] = uv[sel, 0] * dims[ai]
        block[:, bi] = uv[sel, 1] * dims[bi]
        pts_local[sel] = block
    return pts_local @ rot_z(c.yaw).T + c.center


def sample_wall(wall: Wall, rng: np.random.Generator) -> np.ndarray:
    along = np.array([-math.sin(wall.normal_yaw), math.cos(wall.normal_yaw), 0.0])
    up = np.array([0.0, 0.0, 1.0])
    u = rng.uniform(-0.5, 0.5, size=wall.n_points) * wall.width
    v = rng.uniform(-0.5, 0.5, size=wall.n_points) * wall.height
    return wall.center + u[:, None] * along + v[:, None] * up


@dataclass
class SyntheticScene:
    scene: Scene
    detections: list  # oracle Detection2D (with masks)
    det_object_ids: list  # parallel to detections: index into spec.objects
    gt_frames: list  # per sweep: list of ScoredAnnotation (world frame)
    expert_records: list  # oracle size/orientation records, one per detection
    spec: SceneSpec

    @property
    def gt_flat(self) -> list:
        return [a for frame in self.gt_frames for a in frame]


def _rasterize_mask(u: np.ndarray, v: np.ndarray, intr: CameraIntrinsics, radius: int) -> np.ndarray:
    mask = np.zeros((intr.height, intr.width), dtype=bool)
    if len(u) == 0:
        return mask
    cols = round_half_away(u).astype(int)
    rows = round_half_away(v).astype(int)
    keep = (cols >= -radius) & (cols < intr.width + radius) & (rows >= -radius) & (rows < intr.height + radius)
    cols, rows = cols[keep], rows[keep]
    for dr in range(-radius, radius + 1):
        for dc in range(-radius, radius + 1):
            r = np.clip(rows + dr, 0, intr.height - 1)
            c = np.clip(cols + dc, 0, intr.width - 1)
            mask[r, c] = True
    return mask


def _visible_side_faces(c: Cuboid3D, cam_pos_world: np.ndarray) -> tuple:
    """Side faces (front/back/left/right) whose normal points at the camera."""
    return tuple(FACES[fi] for fi in _facing_faces(c, cam_pos_world) if fi < len(FACES))


def _image_region(box: Box2D, intr: CameraIntrinsics) -> str:
    mid = (box.x1 + box.x2) / 2.0
    if mid < intr.width / 3.0:
        return "left"
    if mid > 2.0 * intr.width / 3.0:
        return "right"
    return "center"


def generate_scene(spec: SceneSpec) -> SyntheticScene:
    """Sweeps, oracle detections/masks, expert records and GT annotations."""
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    rig = SensorRig(
        cameras={c.camera_id: c for c in spec.cameras},
        lidar_extrinsics=spec.lidar_extrinsics,
    )

    sweeps = []
    detections = []
    det_object_ids = []
    gt_frames = []
    expert_records = []
    t0 = spec.timestamps[0]

    for si, ts in enumerate(spec.timestamps):
        frame_id = f"{si:06d}"
        ego = spec.ego_poses[si]
        world_from_lidar = ego @ spec.lidar_extrinsics
        lidar_from_world = world_from_lidar.inverse()
        sensor_pos = world_from_lidar.translation
        dt = (ts - t0) / 1e6

        world_pts = []
        per_object_world = []
        for obj in spec.objects:
            cub = obj.cuboid_at(dt)
            lo, hi = spec.points_per_object
            n = int(rng.integers(lo, hi + 1))
            pts = sample_visible_surface(cub, sensor_pos, n, rng, inset=spec.surface_inset)
            if spec.noise_sigma > 0 and len(pts):
                pts = pts + rng.normal(0.0, spec.noise_sigma, size=pts.shape)
            per_object_world.append(pts)
            world_pts.append(pts)
        for wall in spec.walls:
            world_pts.append(sample_wall(wall, rng))

        allw = np.concatenate(world_pts, axis=0) if world_pts else np.zeros((0, 3))
        lidar_pts = lidar_from_world.apply(allw)
        stored = np.zeros((len(lidar_pts), 4), dtype=np.float32)
        stored[:, :3] = lidar_pts.astype(np.float32)
        stored[:, 3] = 0.5
        sweeps.append(
            SweepFrame(
                frame_id=frame_id,
                timestamp=ts,
                points=stored,
                ego_pose=ego,
                sensor_pose=spec.lidar_extrinsics,
            )
        )

        frame_gt = []
        for oi, obj in enumerate(spec.objects):
            cub = obj.cuboid_at(dt)
            frame_gt.append(
                ScoredAnnotation(
                    frame_id=frame_id,
                    cuboid=cub,
                    class_label=obj.class_label,
                    score=1.0,
                    velocity=obj.velocity,
                )
            )
            for cam in spec.cameras:
                cam_from_world = (ego @ cam.extrinsics).inverse()
                box = project_cuboid_to_box(cub, cam_from_world, cam.intrinsics)
                if box is None or box.area <= 0.0:
                    continue
                u, v, front = project_points(
                    cam_from_world.apply(per_object_world[oi]), cam.intrinsics
                )
                mask = _rasterize_mask(u[front], v[front], cam.intrinsics, MASK_DILATION_PX)
                det = Detection2D(
                    frame_id=frame_id,
                    camera_id=cam.camera_id,
                    class_label=obj.class_label,
                    box=box,
                    score=1.0,
                    mask=mask,
                )
                detections.append(det)
                det_object_ids.append(oi)
                cam_pos_world = (ego @ cam.extrinsics).translation
                expert_records.append(
                    ExpertRecord(
                        frame_id=frame_id,
                        camera_id=cam.camera_id,
                        box=(box.x1, box.y1, box.x2, box.y2),
                        dims=cub.dims,
                        visible_faces=_visible_side_faces(cub, cam_pos_world) or ("front",),
                        image_region=_image_region(box, cam.intrinsics),
                    )
                )
        gt_frames.append(frame_gt)

    scene = Scene(rig=rig, sweeps=sweeps)
    return SyntheticScene(
        scene=scene,
        detections=detections,
        det_object_ids=det_object_ids,
        gt_frames=gt_frames,
        expert_records=expert_records,
        spec=spec,
    )


# ---------------------------------------------------------------------------
# Ready-made rigs and randomized specs


def default_cameras(
    width: int = 800, height: int = 450, n_cameras: int = 6, hfov_deg: float = 100.0
) -> list:
    """A ring of cameras with overlapping fields of view around the ego.

    The default six 100-degree cameras at 60-degree spacing overlap enough
    that any object of moderate angular size is fully visible in at least
    one view (clipped seam boxes still occur in the neighbors, as on a real
    rig).
    """
    focal = (width / 2.0) / math.tan(math.radians(hfov_deg) / 2.0)
    intr = CameraIntrinsics(
        fx=focal, fy=focal, cx=width / 2.0, cy=height / 2.0, width=width, height=height
    )
    # columns are the camera axes in ego coords: x right (-y_ego),
    # y down (-z_ego), z forward (+x_ego)
    base = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    cams = []
    for i in range(n_cameras):
        heading = wrap_angle(i * 2.0 * math.pi / n_cameras)
        rot = rot_z(heading) @ base
        cams.append(
            CameraCalib(
                camera_id=f"cam_{i}",
                intrinsics=intr,
                extrinsics=RigidTransform(rot, np.array([0.0, 0.0, 1.6])),
            )
        )
    return cams


def straight_ego_trajectory(n: int, speed: float = 0.0, dt_us: int = 500_000, t0_us: int = 1_000_000):
    timestamps = [t0_us + i * dt_us for i in range(n)]
    poses = [
        RigidTransform(np.eye(3), np.array([speed * (i * dt_us) / 1e6, 0.0, 0.0]))
        for i in range(n)
    ]
    return timestamps, poses


DEFAULT_LIDAR_EXTRINSICS = RigidTransform(np.eye(3), np.array([0.0, 0.0, 1.8]))


def _angular_interval(rect: np.ndarray, sensor_xy: np.ndarray):
    """(center, half-span) of the BEV angles a rectangle subtends."""
    angles = np.arctan2(rect[:, 1] - sensor_xy[1], rect[:, 0] - sensor_xy[0])
    center = float(angles[0])
    half = 0.0
    for a in angles:
        half = max(half, abs(wrap_angle(a - center)))
    return center, half


def _intervals_overlap(a, b, margin: float) -> bool:
    return abs(wrap_angle(a[0] - b[0])) <= a[1] + b[1] + margin


def random_scene_spec(
    seed: int,
    taxonomy: Taxonomy,
    n_objects: int,
    classes=None,
    n_sweeps: int = 1,
    noise_sigma: float = SceneSpec.noise_sigma,
    points_per_object=SceneSpec.points_per_object,
    moving_fraction: float = 0.0,
    ego_speed: float = 0.0,
    range_m=(7.0, 38.0),
    surface_inset: float = SceneSpec.surface_inset,
    angular_margin: float = 0.03,
    min_objects: int = None,
    corner_views: bool = False,
) -> SceneSpec:
    """Place objects (rejection sampling) around the ego.

    Candidates must stay clear of each other both in BEV footprint and in
    the viewing angles they subtend from the sensor: the generator has no
    occlusion model (faces are sampled whenever their normal points at the
    sensor), so angular separation is what keeps oracle masks and frustums
    uncontaminated.

    corner_views constrains elongated objects to headings roughly 45
    degrees off the line of sight, so two side faces are always sampled
    and the pose is well determined; end-on views of long objects leave
    the depth axis under-constrained.
    """
    if classes is None:
        classes = taxonomy.names
    if not isinstance(classes, (list, tuple)) or not all(isinstance(c, str) and c in taxonomy for c in classes):
        raise ValueError(f"classes must be a list of taxonomy class names, got {classes!r}")
    rng = np.random.default_rng(np.random.PCG64(seed))
    timestamps, poses = straight_ego_trajectory(n_sweeps, speed=ego_speed)
    duration = (timestamps[-1] - timestamps[0]) / 1e6
    check_fracs = (0.0, 0.5, 1.0) if n_sweeps > 1 else (0.0,)
    sensors_xy = []
    for frac in check_fracs:
        i = min(len(poses) - 1, int(round(frac * (len(poses) - 1))))
        sensors_xy.append(poses[i].translation[:2])

    objects = []
    rects = []
    intervals = []  # one list of (center, half) per checked time
    attempts = 0
    while len(objects) < n_objects and attempts < 20000:
        attempts += 1
        cls = classes[int(rng.integers(0, len(classes)))]
        dims = taxonomy.get(cls).avg_dims
        # area-uniform radius so far placements (small angular size) dominate
        r = float(math.sqrt(rng.uniform(range_m[0] ** 2, range_m[1] ** 2)))
        angle = float(rng.uniform(-math.pi, math.pi))
        center = np.array([r * math.cos(angle), r * math.sin(angle), dims[2] / 2.0])
        if corner_views and dims[0] >= 1.5 and dims[0] / dims[1] >= 1.5:
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            yaw = float(wrap_angle(angle + sign * (math.pi / 4 + rng.uniform(-0.25, 0.25))))
        else:
            yaw = float(rng.uniform(-math.pi, math.pi))
        vel = None
        if rng.uniform() < moving_fraction:
            speed = float(rng.uniform(0.5, 3.0))
            heading = float(rng.uniform(-math.pi, math.pi))
            vel = (speed * math.cos(heading), speed * math.sin(heading))
        obj = SceneObject(class_label=cls, cuboid=Cuboid3D(center, dims, yaw), velocity=vel)

        candidate_rects = []
        candidate_intervals = []
        for frac, sensor_xy in zip(check_fracs, sensors_xy):
            rect = bev_rect(obj.cuboid_at(duration * frac))
            grown = _grow_rect(rect, 0.5)
            # both tests must pass; the cheap angular one rejects most candidates
            interval = _angular_interval(grown, sensor_xy)
            if any(_intervals_overlap(interval, other, angular_margin) for other in intervals):
                break
            if any(rects_overlap(grown, other) for other in rects):
                break
            candidate_rects.append(grown)
            candidate_intervals.append(interval)
        else:
            objects.append(obj)
            rects.extend(candidate_rects)
            intervals.extend(candidate_intervals)
    floor = n_objects if min_objects is None else min_objects
    if len(objects) < floor:
        raise ValueError("could not place requested number of objects")

    return SceneSpec(
        seed=seed,
        objects=objects,
        cameras=default_cameras(),
        timestamps=timestamps,
        ego_poses=poses,
        lidar_extrinsics=DEFAULT_LIDAR_EXTRINSICS,
        points_per_object=tuple(points_per_object),
        noise_sigma=noise_sigma,
        surface_inset=surface_inset,
    )


def _grow_rect(rect: np.ndarray, margin: float) -> np.ndarray:
    center = rect.mean(axis=0)
    out = np.empty_like(rect)
    for i, corner in enumerate(rect):
        d = corner - center
        n = np.linalg.norm(d)
        out[i] = corner if n == 0 else corner + d / n * margin
    return out


# ---------------------------------------------------------------------------
# Round-trip verification


@dataclass
class ObjectRecovery:
    frame_id: str
    class_label: str
    center_error: float
    yaw_error: float
    dim_error: float


@dataclass
class RecoveryReport:
    objects: list  # ObjectRecovery, one per GT object per frame (inf if missed)
    recall: dict  # threshold -> recall
    precision: dict  # threshold -> precision
    n_gt: int
    n_pred: int
    skipped_detections: int

    def max_center_error(self) -> float:
        return max((o.center_error for o in self.objects), default=0.0)

    def max_yaw_error(self) -> float:
        return max((o.yaw_error for o in self.objects), default=0.0)


def oracle_prior_provider(synth_scene: SyntheticScene, config: PipelineConfig) -> Callable:
    """Per-instance priors from synthetic ground truth (true dims + yaw).

    The returned provider keys detections by identity within the synthetic
    scene's detection list; orientations are converted into the lidar frame
    of the detection's sweep.
    """
    det_to_obj = {id(d): oi for d, oi in zip(synth_scene.detections, synth_scene.det_object_ids)}
    frame_index = {sw.frame_id: i for i, sw in enumerate(synth_scene.scene.sweeps)}
    t0 = synth_scene.scene.sweeps[0].timestamp

    def provider(det: Detection2D) -> SemanticPrior:
        oi = det_to_obj[id(det)]
        si = frame_index[det.frame_id]
        sweep = synth_scene.scene.sweeps[si]
        obj = synth_scene.spec.objects[oi]
        cub = obj.cuboid_at((sweep.timestamp - t0) / 1e6)
        heading = sweep.lidar_to_world().heading()
        return SemanticPrior(
            dims=cub.dims,
            orientation=wrap_angle(cub.yaw - heading),
            sector_half_width=config.sector_half_width,
            source="per_instance",
        )

    return provider


def verify_roundtrip(spec: SceneSpec, config, priors: str = "oracle") -> RecoveryReport:
    """Generate the scene, run the pipeline on it, and score the recovery.

    priors="oracle" feeds per-instance priors with the true dimensions and
    orientation; "class_average" exercises the fallback full-sector path;
    "expert_file" routes through the generated record sidecar.
    """
    from .geom import yaw_diff
    from .metrics import DIST_THRESHOLDS, gt_classes, match_predictions
    from .pipeline import annotate_scene

    synth = generate_scene(spec)
    provider = None
    expert_index = None
    if priors == "oracle":
        provider = oracle_prior_provider(synth, config)
    elif priors == "expert_file":
        from .prior import expert_key

        expert_index = {expert_key(rec_det): rec for rec_det, rec in zip(synth.detections, synth.expert_records)}
    elif priors != "class_average":
        raise ValueError(f"unknown prior mode {priors!r}")

    frames, summary = annotate_scene(
        synth.scene,
        synth.detections,
        config,
        expert_index=expert_index,
        prior_provider=provider,
    )
    preds = [a for frame in frames for a in frame]
    gts = synth.gt_flat

    objects = []
    for fi, frame_gt in enumerate(synth.gt_frames):
        frame_id = synth.scene.sweeps[fi].frame_id
        frame_preds = [p for p in preds if p.frame_id == frame_id]
        for g in frame_gt:
            best = None
            best_d = math.inf
            for p in frame_preds:
                if p.class_label != g.class_label:
                    continue
                d = np.linalg.norm(p.cuboid.center[:2] - g.cuboid.center[:2])
                if d < best_d:
                    best_d = d
                    best = p
            if best is None:
                objects.append(ObjectRecovery(frame_id, g.class_label, math.inf, math.inf, math.inf))
            else:
                dim_err = max(abs(a - b) for a, b in zip(best.cuboid.dims, g.cuboid.dims))
                objects.append(
                    ObjectRecovery(
                        frame_id,
                        g.class_label,
                        float(np.linalg.norm(best.cuboid.center - g.cuboid.center)),
                        yaw_diff(best.cuboid.yaw, g.cuboid.yaw),
                        dim_err,
                    )
                )

    recall = {}
    precision = {}
    classes = gt_classes(gts)
    for t in DIST_THRESHOLDS:
        tp = 0
        npred = 0
        for cls in classes:
            m = match_predictions(preds, gts, cls, t)
            tp += sum(1 for r in m.rows if r[1])
            npred += len(m.rows)
        recall[t] = tp / len(gts) if gts else 0.0
        precision[t] = tp / npred if npred else 0.0

    return RecoveryReport(
        objects=objects,
        recall=recall,
        precision=precision,
        n_gt=len(gts),
        n_pred=len(preds),
        skipped_detections=summary["skipped_detections"],
    )
