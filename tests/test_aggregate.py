import numpy as np
import pytest

from cuboidlift.aggregate import aggregate_sweeps
from cuboidlift.geom import RigidTransform, rot_z
from cuboidlift.ingest import Scene, SensorRig, SweepFrame


def sweep(i, pts, ego=None):
    return SweepFrame(
        frame_id=f"{i:06d}",
        timestamp=1_000_000 + 500_000 * i,
        points=np.asarray(pts, dtype=np.float32).reshape(-1, 3),
        ego_pose=ego or RigidTransform.identity(),
    )


def scene(sweeps, lidar=None):
    """The sweeps on a camera-less rig; the lidar mount defaults to 1.8 m up."""
    mount = lidar or RigidTransform(np.eye(3), np.array([0.0, 0.0, 1.8]))
    return Scene(rig=SensorRig(cameras={}, lidar_extrinsics=mount), sweeps=sweeps)


def rand_points(rng, n):
    return rng.uniform(-20, 20, (n, 3))


class TestAggregateSweeps:
    def test_current_only_is_identity(self):
        rng = np.random.default_rng(3)
        s = sweep(0, rand_points(rng, 100), ego=RigidTransform(rot_z(0.4), np.array([3.0, 1.0, 0.0])))
        out = aggregate_sweeps(scene([s]), 0, (0, 0))
        assert np.array_equal(out, np.asarray(s.points, dtype=float))

    def test_identical_poses_concat_unchanged(self):
        rng = np.random.default_rng(5)
        ego = RigidTransform(rot_z(1.2), np.array([5.0, -2.0, 0.1]))
        s0 = sweep(0, rand_points(rng, 40), ego=ego)
        s1 = sweep(1, rand_points(rng, 60), ego=ego)
        out = aggregate_sweeps(scene([s0, s1]), 1, (1, 0))
        want = np.concatenate([np.asarray(s0.points, float), np.asarray(s1.points, float)])
        assert np.array_equal(out, want)

    def test_static_object_aligns_across_ego_motion(self):
        # fixed world-frame points observed from two different ego poses
        rng = np.random.default_rng(7)
        world = rng.uniform(-10, 10, size=(50, 3))
        ego0 = RigidTransform(rot_z(0.3), np.array([1.0, 2.0, 0.0]))
        ego1 = RigidTransform(rot_z(-0.5), np.array([4.0, -1.0, 0.0]))
        lidar = RigidTransform(rot_z(0.1), np.array([0.2, 0.0, 1.8]))

        def in_lidar(ego):
            t = (ego @ lidar).inverse()
            return world @ t.rotation.T + t.translation

        s0 = sweep(0, in_lidar(ego0), ego=ego0)
        s1 = sweep(1, in_lidar(ego1), ego=ego1)
        out = aggregate_sweeps(scene([s0, s1], lidar=lidar), 1, (1, 0))
        # both halves describe the same static points in sweep 1's frame
        assert np.allclose(out[:50], out[50:], atol=1e-6)

    def test_count_is_window_sum(self):
        rng = np.random.default_rng(9)
        seq = [sweep(i, rand_points(rng, 10 + i)) for i in range(6)]
        out = aggregate_sweeps(scene(seq), 3, (2, 1))
        assert len(out) == 11 + 12 + 13 + 14  # sweeps 1..4

    def test_window_clamped_at_boundaries(self):
        rng = np.random.default_rng(11)
        seq = [sweep(i, rand_points(rng, 5)) for i in range(3)]
        assert len(aggregate_sweeps(scene(seq), 0, (10, 0))) == 5
        assert len(aggregate_sweeps(scene(seq), 0, (0, 10))) == 15
        assert len(aggregate_sweeps(scene(seq), 2, (10, 10))) == 15

    def test_compensation_consistency(self):
        # applying the per-sweep transform then its inverse returns inputs
        rng = np.random.default_rng(13)
        for _ in range(20):
            q = rng.normal(size=4)
            t = RigidTransform.from_quat(q, rng.uniform(-5, 5, 3))
            pts = rng.uniform(-10, 10, size=(30, 3))
            back = t.inverse().apply(t.apply(pts))
            assert np.allclose(back, pts, atol=1e-9)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            aggregate_sweeps(scene([]), 0, (0, 0))

    def test_index_out_of_range(self):
        s = sweep(0, np.zeros((0, 3)))
        with pytest.raises(IndexError):
            aggregate_sweeps(scene([s]), 1, (0, 0))


class TestStrategyForClass:
    def test_paper_backed_defaults(self, taxonomy):
        assert taxonomy.get("car").aggregation == (0, 0)
        assert taxonomy.get("bicycle").aggregation == (0, 2)
        assert taxonomy.get("adult").aggregation == (1, 1)

    def test_unknown_class(self, taxonomy):
        with pytest.raises(KeyError):
            taxonomy.get("hovercraft")

    def test_negative_counts_rejected(self):
        s = sweep(0, np.zeros((0, 3)))
        with pytest.raises(ValueError):
            aggregate_sweeps(scene([s]), 0, (-1, 0))
