import hashlib
import math

import numpy as np
import pytest

from cuboidlift.geom import Cuboid3D, cuboid_local, inside_local, rot_z
from cuboidlift.synth import (
    DEFAULT_LIDAR_EXTRINSICS,
    SceneObject,
    SceneSpec,
    Wall,
    default_cameras,
    generate_scene,
    random_scene_spec,
    rects_overlap,
    sample_visible_surface,
    straight_ego_trajectory,
    verify_roundtrip,
)
from conftest import criterion_scene_spec


def simple_spec(objects, seed=0, n_sweeps=1, noise=0.0, walls=(), ego_speed=0.0, inset=0.0):
    timestamps, poses = straight_ego_trajectory(n_sweeps, speed=ego_speed)
    return SceneSpec(
        seed=seed,
        objects=objects,
        cameras=default_cameras(),
        timestamps=timestamps,
        ego_poses=poses,
        lidar_extrinsics=DEFAULT_LIDAR_EXTRINSICS,
        points_per_object=(150, 250),
        noise_sigma=noise,
        walls=list(walls),
        surface_inset=inset,
    )


def cube_at(x, y, cls="car", dims=(2.0, 2.0, 2.0), yaw=0.0, vel=None):
    return SceneObject(cls, Cuboid3D(np.array([x, y, dims[2] / 2]), dims, yaw), velocity=vel)


class TestDeterminism:
    def test_same_seed_byte_identical(self, taxonomy):
        a = generate_scene(criterion_scene_spec(3, taxonomy, 0.0, (100, 150), 0.0))
        b = generate_scene(criterion_scene_spec(3, taxonomy, 0.0, (100, 150), 0.0))
        assert len(a.scene.sweeps) == len(b.scene.sweeps)
        for sa, sb in zip(a.scene.sweeps, b.scene.sweeps):
            assert sa.points.tobytes() == sb.points.tobytes()
        assert len(a.detections) == len(b.detections)
        for da, db in zip(a.detections, b.detections):
            assert da.box == db.box
            assert np.array_equal(da.mask, db.mask)

    def test_different_seed_differs(self, taxonomy):
        a = generate_scene(criterion_scene_spec(3, taxonomy, 0.0, (100, 150), 0.0))
        b = generate_scene(criterion_scene_spec(4, taxonomy, 0.0, (100, 150), 0.0))
        assert a.scene.sweeps[0].points.tobytes() != b.scene.sweeps[0].points.tobytes()


class TestSurfaceSampling:
    def test_zero_noise_points_on_surface(self):
        # exactly representable cube: float32 storage keeps points on faces
        obj = cube_at(10.0, 0.0)
        built = generate_scene(simple_spec([obj]))
        pts = np.asarray(built.scene.sweeps[0].points[:, :3], dtype=float)
        world = pts @ built.scene.sweeps[0].lidar_to_world().rotation.T + DEFAULT_LIDAR_EXTRINSICS.translation
        c = obj.cuboid
        assert inside_local(cuboid_local(world, c), c.dims).all()
        for p in world:
            dist_to_face = min(
                min(abs(abs(p[i] - c.center[i]) - c.dims[i] / 2) for i in range(3)),
                1.0,
            )
            assert dist_to_face == 0.0

    def test_only_sensor_facing_faces(self):
        rng = np.random.default_rng(5)
        c = Cuboid3D((10.0, 0.0, 1.0), (2, 2, 2), 0.0)
        sensor = np.array([0.0, 0.0, 1.0])
        pts = sample_visible_surface(c, sensor, 400, rng)
        assert len(pts) == 400
        # nothing lands on the far (+x) face, which points away
        assert not np.any(np.isclose(pts[:, 0], 11.0))
        assert np.any(np.isclose(pts[:, 0], 9.0))

    def test_inset_moves_points_inside(self):
        rng = np.random.default_rng(7)
        c = Cuboid3D((10.0, 0.0, 1.0), (2, 2, 2), 0.3)
        pts = sample_visible_surface(c, np.zeros(3), 300, rng, inset=0.05)
        local = (pts - c.center) @ rot_z(-c.yaw).T
        # everything stays inside the box, and every sample sits exactly
        # inset-deep along its face normal (in-plane coords span the face)
        assert np.all(np.abs(local) <= np.array(c.dims) / 2 + 1e-12)
        depth = np.abs(np.abs(local) - (np.array(c.dims) / 2 - 0.05))
        assert np.all(depth.min(axis=1) <= 1e-12)


class TestMotionAndOverlap:
    def test_moving_object_centers_advance(self):
        obj = cube_at(10.0, 0.0, vel=(1.0, 0.5))
        built = generate_scene(simple_spec([obj], n_sweeps=3))
        centers = [frame[0].cuboid.center for frame in built.gt_frames]
        dt = 0.5  # default sweep spacing
        assert np.allclose(centers[1] - centers[0], [1.0 * dt, 0.5 * dt, 0.0], atol=1e-12)
        assert np.allclose(centers[2] - centers[0], [1.0, 0.5, 0.0], atol=1e-12)

    def test_overlapping_objects_rejected(self):
        with pytest.raises(ValueError):
            simple_spec([cube_at(10, 0), cube_at(10.5, 0)])

    def test_collision_later_in_trajectory_rejected(self):
        a = cube_at(10, 0, vel=(0.0, 0.0))
        b = cube_at(10, -6, vel=(0.0, 6.0))  # rams into a by the second sweep
        with pytest.raises(ValueError):
            simple_spec([a, b], n_sweeps=3)

    def test_empty_cameras_rejected(self):
        timestamps, poses = straight_ego_trajectory(1)
        with pytest.raises(ValueError):
            SceneSpec(
                seed=0, objects=[], cameras=[], timestamps=timestamps, ego_poses=poses,
                lidar_extrinsics=DEFAULT_LIDAR_EXTRINSICS,
            )

    def test_rects_overlap_sat(self):
        a = np.array([[0, 0], [2, 0], [2, 1], [0, 1]], dtype=float)
        b = a + np.array([1.0, 0.5])
        c = a + np.array([5.0, 0.0])
        assert rects_overlap(a, b)
        assert not rects_overlap(a, c)


class TestOracleBoxes:
    def test_boxes_contain_in_image_projections(self, taxonomy):
        built = generate_scene(criterion_scene_spec(5, taxonomy, 0.0, (100, 150), 0.0))
        sweep = built.scene.sweeps[0]
        world_from_lidar = sweep.lidar_to_world()
        pts_world = (
            np.asarray(sweep.points[:, :3], dtype=float) @ world_from_lidar.rotation.T
            + world_from_lidar.translation
        )
        # group points back to objects via containment
        for det, oi in zip(built.detections, built.det_object_ids):
            obj = built.spec.objects[oi]
            cam = built.scene.rig.camera(det.camera_id)
            cam_from_world = (sweep.ego_pose @ cam.extrinsics).inverse()
            own = pts_world[inside_local(cuboid_local(pts_world, obj.cuboid), obj.cuboid.dims)]
            pc = own @ cam_from_world.rotation.T + cam_from_world.translation
            front = pc[:, 2] > 0
            u = cam.intrinsics.fx * pc[front, 0] / pc[front, 2] + cam.intrinsics.cx
            v = cam.intrinsics.fy * pc[front, 1] / pc[front, 2] + cam.intrinsics.cy
            in_image = (u >= 0) & (u <= cam.intrinsics.width) & (v >= 0) & (v <= cam.intrinsics.height)
            eps = 1e-6
            assert np.all(u[in_image] >= det.box.x1 - eps)
            assert np.all(u[in_image] <= det.box.x2 + eps)
            assert np.all(v[in_image] >= det.box.y1 - eps)
            assert np.all(v[in_image] <= det.box.y2 + eps)

    def test_masks_cover_object_pixels(self, taxonomy):
        built = generate_scene(criterion_scene_spec(6, taxonomy, 0.0, (100, 150), 0.0))
        for det in built.detections[:5]:
            assert det.mask is not None
            assert det.mask.shape == (450, 800)
            assert det.mask.any()


class TestWalls:
    def test_wall_points_on_plane(self):
        wall = Wall(center=np.array([8.0, 0.0, 1.0]), normal_yaw=math.pi, width=4.0, height=2.0, n_points=200)
        obj = cube_at(14.0, 0.0)
        built = generate_scene(simple_spec([obj], walls=[wall]))
        pts = np.asarray(built.scene.sweeps[0].points[:, :3], dtype=float)
        world = pts + DEFAULT_LIDAR_EXTRINSICS.translation
        wall_pts = world[np.isclose(world[:, 0], 8.0, atol=1e-5)]
        assert len(wall_pts) == 200
        assert np.all(np.abs(wall_pts[:, 1]) <= 2.0 + 1e-9)
        assert np.all(np.abs(wall_pts[:, 2] - 1.0) <= 1.0 + 1e-9)


class TestVerifyRoundtrip:
    def test_empty_scene(self, default_config):
        built_spec = simple_spec([])
        report = verify_roundtrip(built_spec, default_config, priors="class_average")
        assert report.n_gt == 0
        assert report.n_pred == 0
        assert report.objects == []

    def test_unknown_prior_mode(self, default_config):
        with pytest.raises(ValueError):
            verify_roundtrip(simple_spec([]), default_config, priors="psychic")

    def test_single_object_recovery(self, fine_config):
        spec = simple_spec([cube_at(10.0, 2.0, dims=(4.0, 2.0, 1.6), yaw=0.8)], inset=0.01)
        report = verify_roundtrip(spec, fine_config, priors="oracle")
        assert report.n_gt == 1
        assert report.max_center_error() <= 0.5
        assert report.max_yaw_error() <= math.pi / 10

    def test_expert_file_mode_runs(self, default_config):
        spec = simple_spec([cube_at(10.0, 2.0, dims=(4.0, 2.0, 1.6), yaw=0.8)], inset=0.01)
        report = verify_roundtrip(spec, default_config, priors="expert_file")
        assert report.n_pred >= 1


class TestRandomSceneSpec:
    def test_requested_counts(self, taxonomy):
        spec = random_scene_spec(seed=1, taxonomy=taxonomy, n_objects=8, classes=["car", "adult"])
        assert len(spec.objects) == 8
        assert all(o.class_label in ("car", "adult") for o in spec.objects)

    def test_min_objects_floor(self, taxonomy):
        # an infeasible target with a low floor still yields a scene
        spec = random_scene_spec(
            seed=2, taxonomy=taxonomy, n_objects=60, classes=["car"],
            range_m=(7.0, 15.0), min_objects=3,
        )
        assert len(spec.objects) >= 3

    def test_corner_views_constrain_heading(self, taxonomy):
        spec = random_scene_spec(
            seed=3, taxonomy=taxonomy, n_objects=6, classes=["car"], corner_views=True
        )
        for o in spec.objects:
            bearing = math.atan2(o.cuboid.center[1], o.cuboid.center[0])
            from cuboidlift.geom import yaw_diff

            rel = yaw_diff(o.cuboid.yaw, bearing)
            assert 0.25 <= min(rel, math.pi - rel) <= math.pi / 2


def placement_digest(spec) -> str:
    """sha256 over every object's class, center, dims, yaw and velocity."""
    h = hashlib.sha256()
    for o in spec.objects:
        h.update(o.class_label.encode() + b"\0")
        h.update(np.asarray(o.cuboid.center, dtype=float).tobytes())
        h.update(np.asarray(o.cuboid.dims, dtype=float).tobytes())
        h.update(np.float64(o.cuboid.yaw).tobytes())
        h.update(np.asarray(o.velocity if o.velocity is not None else (), dtype=float).tobytes())
    return h.hexdigest()


class TestPlacementsPinned:
    """The acceptance suite and the benchmark generate their scenes with
    random_scene_spec: a faster rejection loop must place the same objects."""

    CRITERION = {
        0: "8a0b06f474c7d52da3cd2ee9a38a2085f691abfa6d29d0362829553d31e27bc9",
        1: "138e0a7f6245055ad9f692d4b7efe6afbbfeb9bce313b50bc83c279f5821acad",
        2: "713c3bd0871f3ed3042633e59ac51ca341517525ee18b8013c35de0ca46e100a",
        7: "408b567dd986a8cfcdb6c9bda4b182dfe4a8214cb1f6a35b52e9e02af0ebaf25",
    }
    # the spec of perfbench's dense_expert workload
    DENSE_EXPERT = {
        1: "511d5ad66279bda15a100a2bbb83811d28a166bffd9040defbf46ce806571180",
        5: "99b284ce4e54948731d0d0785dc7915f2640e19e7c75b80567099925a6d722be",
    }
    # moving objects on a moving ego, checked at three times per candidate
    SEQUENCE = {
        11: "637583d0f4ee359b2fda39b07395fadb5aea53b76a321034b890e13da1fdf6d0",
        12: "83b3453781159dca7c4401920e4bdc11f4f0740e52e226b4a0b0f21cacbf52cd",
    }

    @pytest.mark.parametrize("seed", sorted(CRITERION))
    def test_criterion_specs(self, taxonomy, seed):
        spec = criterion_scene_spec(seed, taxonomy, sigma=0.0, points=(500, 700), inset=1e-2)
        assert placement_digest(spec) == self.CRITERION[seed]

    @pytest.mark.parametrize("seed", sorted(DENSE_EXPERT))
    def test_dense_expert_specs(self, taxonomy, seed):
        spec = random_scene_spec(
            seed=seed, taxonomy=taxonomy, n_objects=20, classes=["car"], n_sweeps=1,
            noise_sigma=0.0, points_per_object=(4800, 5200), surface_inset=1e-2,
            range_m=(14.0, 48.0), angular_margin=0.015,
        )
        assert placement_digest(spec) == self.DENSE_EXPERT[seed]

    @pytest.mark.parametrize("seed", sorted(SEQUENCE))
    def test_multi_sweep_specs(self, taxonomy, seed):
        spec = random_scene_spec(
            seed=seed, taxonomy=taxonomy, n_objects=8, n_sweeps=5,
            classes=["car", "adult", "traffic-cone"], moving_fraction=0.5, ego_speed=2.0,
        )
        assert placement_digest(spec) == self.SEQUENCE[seed]
