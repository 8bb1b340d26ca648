import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuboidlift.frustum import FrustumPoints
from cuboidlift.geom import Box2D, Cuboid3D, rot_z, wrap_angle, yaw_diff
from cuboidlift.ingest import Detection2D, SensorRig
from cuboidlift.prior import SemanticPrior
from cuboidlift import search
from cuboidlift.search import (
    EmptyFrustumError,
    Hypothesis,
    HypothesisGrid,
    SearchConfig,
    canonicalize_points,
    coverage_ratio,
    decode_dim_offsets,
    encode_dim_offsets,
    encode_point_features,
    enumerate_hypotheses,
    evaluate_hypotheses,
    init_hypothesis,
    select_best,
)
from cuboidlift.synth import (
    DEFAULT_LIDAR_EXTRINSICS,
    default_cameras,
    sample_visible_surface,
)
from conftest import naive_coverage, naive_evaluate_coverage, random_cuboid


def fp_from(points, flags=None):
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if flags is None:
        flags = np.ones(len(pts), dtype=bool)
    return FrustumPoints(pts, np.asarray(flags, bool), np.zeros((len(pts), 2)))


def prior(dims=(4.0, 2.0, 1.6), orientation=0.0, sector=math.pi / 6):
    return SemanticPrior(
        dims=dims,
        orientation=orientation,
        sector_half_width=sector,
        source="per_instance" if orientation is not None else "class_average",
    )


FULL = SemanticPrior(dims=(4.0, 2.0, 1.6), orientation=None, sector_half_width=math.pi, source="class_average")


@pytest.fixture(scope="module")
def rig():
    cams = default_cameras()
    return SensorRig(cameras={c.camera_id: c for c in cams}, lidar_extrinsics=DEFAULT_LIDAR_EXTRINSICS)


class TestCoverageRatio:
    def test_all_inside(self):
        c = Cuboid3D((0, 0, 0), (2, 2, 2), 0.3)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.5, 0.5, size=(50, 3))
        assert coverage_ratio(pts, c) == 1.0

    def test_empty_points(self):
        assert coverage_ratio(np.zeros((0, 3)), Cuboid3D((0, 0, 0), (1, 1, 1), 0.0)) == 0.0

    def test_partial_counts_match_oracle(self):
        c = Cuboid3D((0, 0, 0), (2, 2, 2), 0.0)
        pts = np.array(
            [[0, 0, 0], [0.9, 0, 0], [0, 0.9, 0], [0, 0, 0.9], [-0.9, -0.9, 0],
             [0.5, 0.5, 0.5], [0.2, -0.3, 0.1], [3, 0, 0], [0, 3, 0], [0, 0, -3]],
            dtype=float,
        )
        assert coverage_ratio(pts, c) == 0.7
        assert coverage_ratio(pts, c) == naive_coverage(pts, c)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            c = random_cuboid(rng, span=3.0)
            pts = rng.uniform(-8, 8, size=(60, 3))
            assert coverage_ratio(pts, c) == naive_coverage(pts, c)


class TestInitHypothesis:
    def test_single_point(self):
        p = np.array([3.0, -2.0, 0.5])
        init = init_hypothesis(fp_from([p]), prior(dims=(2.0, 1.0, 1.5)))
        assert np.allclose(init.center, [3.0, -2.0, 0.5 + 0.75])
        assert init.dims == (2.0, 1.0, 1.5)

    def test_symmetric_cluster_median(self):
        pts = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 0]], dtype=float)
        init = init_hypothesis(fp_from(pts), prior(dims=(2, 2, 2)))
        assert np.allclose(init.center[:2], [0, 0])
        assert math.isclose(init.center[2], 0.0 + 1.0)

    def test_surface_samples_near_true_center(self):
        # side-ish sensor poses (a vehicle rig never looks straight down, so
        # the lowest sample tracks the cuboid bottom and seats z correctly)
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = random_cuboid(rng, span=6.0, dim_range=(0.8, 4.0))
            bearing = rng.uniform(-math.pi, math.pi)
            dist = rng.uniform(8.0, 25.0)
            sensor = c.center + np.array(
                [dist * math.cos(bearing), dist * math.sin(bearing), rng.uniform(-1.0, 2.0)]
            )
            pts = sample_visible_surface(c, sensor, 300, rng)
            init = init_hypothesis(fp_from(pts), prior(dims=c.dims, orientation=c.yaw))
            # the anchor stays inside the cuboid's world-axis bounding box
            # (per-axis medians of a rotated footprint can exceed dims/2)
            from cuboidlift.geom import cuboid_corners

            half_aabb = (cuboid_corners(c) - c.center).max(axis=0)
            assert np.all(np.abs(init.center - c.center) <= half_aabb + 1e-9)

    def test_yaw_from_prior(self):
        init = init_hypothesis(fp_from([[0, 0, 0]]), prior(orientation=0.8))
        assert init.yaw == 0.8
        init = init_hypothesis(fp_from([[0, 0, 0]]), FULL)
        assert init.yaw == 0.0

    def test_empty_foreground_raises(self):
        with pytest.raises(EmptyFrustumError):
            init_hypothesis(fp_from(np.zeros((3, 3)), flags=[False, False, False]), FULL)


class TestEnumerateHypotheses:
    def test_degenerate_grid(self):
        cfg = SearchConfig(trans_step=0.5, rot_step=0.3, xy_range=0.0, z_range=0.0)
        init = Cuboid3D((0, 0, 0), (4, 2, 1.6), 0.0)
        grid = enumerate_hypotheses(init, prior(sector=0.3), cfg)
        assert len(grid) == 3
        assert np.allclose(sorted(grid.yaws), [-0.3, 0.0, 0.3])
        assert np.allclose(grid.centers, 0.0)

    def test_default_grid_size(self):
        # 9 x 9 translations, 5 z levels, 3 yaw steps inside the pi/6 sector
        cfg = SearchConfig()
        init = Cuboid3D((1, 2, 0.5), (4, 2, 1.6), 0.2)
        grid = enumerate_hypotheses(init, prior(orientation=0.2), cfg)
        assert len(grid) == 9 * 9 * 5 * 3

    def test_full_sector_yaw_count(self):
        cfg = SearchConfig()
        init = Cuboid3D((0, 0, 0), (4, 2, 1.6), 0.0)
        grid = enumerate_hypotheses(init, FULL, cfg)
        yaws = np.unique(np.round(grid.yaws, 12))
        assert len(yaws) == round(2 * math.pi / cfg.rot_step)  # 20 at the default step

    def test_includes_init_exactly(self):
        cfg = SearchConfig()
        init = Cuboid3D((1.7, -3.1, 0.4), (4, 2, 1.6), 0.37)
        grid = enumerate_hypotheses(init, prior(orientation=0.37), cfg)
        hit = np.nonzero(
            (grid.centers == init.center).all(axis=1) & (grid.yaws == wrap_angle(init.yaw))
        )[0]
        assert len(hit) == 1

    def test_dims_fixed(self):
        cfg = SearchConfig()
        init = Cuboid3D((0, 0, 0), (4, 2, 1.6), 0.0)
        grid = enumerate_hypotheses(init, prior(orientation=0.0), cfg)
        assert grid.dims == (4, 2, 1.6)

    def test_yaws_stay_inside_sector(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            sector = float(rng.uniform(0.2, math.pi))
            step = float(rng.uniform(0.05, min(0.8, 2 * sector)))
            cfg = SearchConfig(trans_step=0.5, rot_step=step, xy_range=0.5, z_range=0.5)
            yaw0 = float(rng.uniform(-math.pi, math.pi))
            init = Cuboid3D((0, 0, 0), (4, 2, 1.6), yaw0)
            grid = enumerate_hypotheses(init, prior(orientation=yaw0, sector=sector), cfg)
            for y in np.unique(grid.yaws):
                assert yaw_diff(float(y), yaw0) <= sector + 1e-9

    def test_rot_step_wider_than_sector_rejected(self):
        cfg = SearchConfig(rot_step=1.0)
        init = Cuboid3D((0, 0, 0), (4, 2, 1.6), 0.0)
        with pytest.raises(ValueError):
            enumerate_hypotheses(init, prior(sector=0.3), cfg)


def synthetic_detection(rig, seed=3, dims=(4.0, 2.0, 1.6), dist=12.0, n=400):
    """One clean object with its oracle box, points in the lidar frame."""
    rng = np.random.default_rng(seed)
    bearing = rng.uniform(-0.4, 0.4)
    center = np.array([dist * math.cos(bearing), dist * math.sin(bearing), dims[2] / 2 - 1.8])
    yaw = float(rng.uniform(-math.pi, math.pi))
    cub = Cuboid3D(center, dims, yaw)
    pts = sample_visible_surface(cub, np.zeros(3), n, rng, inset=0.01)
    from cuboidlift.frustum import camera_from_lidar
    from cuboidlift.geom import project_cuboid_to_box

    box = project_cuboid_to_box(cub, camera_from_lidar(rig, "cam_0"), rig.camera("cam_0").intrinsics)
    det = Detection2D("f", "cam_0", "car", box, 0.9)
    return cub, pts, det


KERNEL_CONFIGS = {
    "default": SearchConfig(),
    # xy_range 1 keeps the unchunked oracle's full-circle broadcast small
    "fine_step": SearchConfig(trans_step=0.25, xy_range=1.0),
    "xy_range_0": SearchConfig(xy_range=0.0),
    "z_range_0": SearchConfig(z_range=0.0),
}


def random_kernel_case(rng, cfg, full_circle):
    """A grid (shuffled half the time) and a masked frustum around it.

    The init sits on a dyadic lattice with dyadic dims and, for sector
    priors, yaw 0 half the time, so points built as node +- dims/2 along
    one axis lie exactly on a face of that node's box.
    """
    dims = (4.0, 2.0, 1.5) if rng.random() < 0.5 else tuple(rng.uniform(0.3, 5.0, size=3))
    yaw0 = 0.0 if rng.random() < 0.5 else float(rng.uniform(-math.pi, math.pi))
    if full_circle:
        p = prior(dims=dims, orientation=None, sector=math.pi)
    else:
        p = prior(dims=dims, orientation=yaw0)
    anchor = rng.uniform((8.0, -5.0, -1.5), (30.0, 5.0, 0.5))  # in front of cam_0
    init = Cuboid3D(np.round(anchor * 4.0) / 4.0, dims, 0.0 if full_circle else yaw0)
    grid = enumerate_hypotheses(init, p, cfg)
    if rng.random() < 0.5:
        perm = rng.permutation(len(grid))
        grid = HypothesisGrid(centers=grid.centers[perm], yaws=grid.yaws[perm], dims=grid.dims, init=grid.init)
    spread = rng.uniform(-4.0, 4.0, size=(int(rng.integers(1, 100)), 3))
    k = int(rng.integers(1, 30))
    nodes = rng.integers(0, len(grid), size=k)
    axes = rng.integers(0, 3, size=k)
    faces = grid.centers[nodes].copy()
    faces[np.arange(k), axes] += rng.choice([-1.0, 1.0], size=k) * np.asarray(dims)[axes] / 2.0
    pts = np.concatenate([init.center + spread, faces])[rng.permutation(len(spread) + k)]
    return grid, fp_from(pts, rng.random(len(pts)) < 0.8)


KERNEL_DET = Detection2D("f", "cam_0", "car", Box2D(200.0, 150.0, 900.0, 600.0), 0.9)


class TestCoverageKernel:
    """Factorised coverage must equal the naive broadcast bit for bit."""

    @pytest.mark.parametrize("full_circle", [False, True], ids=["sector", "full_circle"])
    @pytest.mark.parametrize("name", sorted(KERNEL_CONFIGS))
    def test_matches_naive_oracle(self, rig, name, full_circle):
        rng = np.random.default_rng([7, len(name), int(full_circle)])
        for _ in range(12):
            grid, fp = random_kernel_case(rng, KERNEL_CONFIGS[name], full_circle)
            cov, _ = evaluate_hypotheses(grid, fp, KERNEL_DET, rig)
            want = naive_evaluate_coverage(grid, fp.foreground)
            assert cov.dtype == np.float64
            assert np.array_equal(cov, want)

    def test_point_on_face_counts(self, rig):
        cfg = SearchConfig(xy_range=0.5, z_range=0.5)
        init = Cuboid3D((10.0, 2.0, -0.5), (4.0, 2.0, 1.5), 0.0)
        grid = enumerate_hypotheses(init, prior(dims=init.dims, orientation=0.0), cfg)
        pts = init.center + np.array([[2.0, 0, 0], [0, -1.0, 0], [0, 0, 0.75]])
        cov, _ = evaluate_hypotheses(grid, fp_from(pts), KERNEL_DET, rig)
        at_init = (grid.centers == init.center).all(axis=1) & (grid.yaws == 0.0)
        assert cov[at_init].tolist() == [1.0]
        assert np.array_equal(cov, naive_evaluate_coverage(grid, pts))

    def test_empty_foreground_is_zero(self, rig):
        grid, fp = random_kernel_case(np.random.default_rng(3), SearchConfig(), True)
        empty = fp_from(fp.points, np.zeros(len(fp.points), dtype=bool))
        cov, _ = evaluate_hypotheses(grid, empty, KERNEL_DET, rig)
        assert cov.dtype == np.float64
        assert np.array_equal(cov, np.zeros(len(grid)))

    def test_empty_grid(self, rig):
        _, fp = random_kernel_case(np.random.default_rng(4), SearchConfig(), False)
        init = Cuboid3D((10.0, 0.0, 0.0), (4.0, 2.0, 1.5), 0.0)
        grid = HypothesisGrid(centers=np.zeros((0, 3)), yaws=np.zeros(0), dims=init.dims, init=init)
        cov, iou = evaluate_hypotheses(grid, fp, KERNEL_DET, rig)
        assert cov.shape == iou.shape == (0,)

    @pytest.mark.parametrize("elems", [1, 7, 500])
    def test_chunked_points_match_oracle(self, rig, monkeypatch, elems):
        monkeypatch.setattr(search, "_CHUNK_ELEMS", elems)
        rng = np.random.default_rng(elems)
        for cfg, full_circle in ((SearchConfig(), False), (KERNEL_CONFIGS["fine_step"], True)):
            grid, fp = random_kernel_case(rng, cfg, full_circle)
            cov, _ = evaluate_hypotheses(grid, fp, KERNEL_DET, rig)
            assert np.array_equal(cov, naive_evaluate_coverage(grid, fp.foreground))


class TestProjectedIou:
    def test_hypotheses_behind_camera_warn_nothing(self, rig):
        # a full-circle grid around the lidar origin puts some hypotheses
        # wholly behind cam_0; they score IoU 0 without numpy warnings
        import warnings

        grid = enumerate_hypotheses(
            Cuboid3D(np.zeros(3), (1.0, 1.0, 1.0), 0.0),
            SemanticPrior(dims=(1.0, 1.0, 1.0), orientation=None, sector_half_width=math.pi, source="class_average"),
            SearchConfig(),
        )
        det = Detection2D("f", "cam_0", "car", Box2D(100, 100, 300, 300), 0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, iou = evaluate_hypotheses(grid, fp_from([[0.1, 0.0, 0.0], [5.0, 0.0, 0.0]]), det, rig)
        assert (iou == 0.0).any() and (iou > 0.0).any()


class TestSelectBest:
    def test_single_hypothesis(self, rig):
        cub, pts, det = synthetic_detection(rig)
        cfg = SearchConfig(trans_step=0.5, rot_step=0.3, xy_range=0.0, z_range=0.0)
        grid = enumerate_hypotheses(cub, prior(dims=cub.dims, orientation=cub.yaw, sector=0.15), cfg)
        assert len(grid) == 1
        best = select_best(grid, fp_from(pts), det, rig)
        assert np.allclose(best.cuboid.center, cub.center)

    def test_objective_at_least_init(self, rig):
        cub, pts, det = synthetic_detection(rig, seed=9)
        p = prior(dims=cub.dims, orientation=cub.yaw)
        fp = fp_from(pts)
        init = init_hypothesis(fp, p)
        grid = enumerate_hypotheses(init, p, SearchConfig())
        best = select_best(grid, fp, det, rig)
        init_idx = int(
            np.nonzero((grid.centers == init.center).all(axis=1) & (grid.yaws == wrap_angle(init.yaw)))[0][0]
        )
        cov, iou = evaluate_hypotheses(grid, fp, det, rig)
        assert best.objective >= cov[init_idx] + iou[init_idx]

    def test_recovers_synthetic_pose(self, rig):
        for seed in range(8):
            cub, pts, det = synthetic_detection(rig, seed=100 + seed)
            p = prior(dims=cub.dims, orientation=cub.yaw)
            fp = fp_from(pts)
            init = init_hypothesis(fp, p)
            grid = enumerate_hypotheses(init, p, SearchConfig())
            best = select_best(grid, fp, det, rig)
            assert np.linalg.norm(best.cuboid.center - cub.center) <= math.sqrt(3) * 0.5 + 1e-9
            assert yaw_diff(best.cuboid.yaw, cub.yaw) <= math.pi / 10 + 1e-12

    def test_deterministic_under_grid_shuffle(self, rig):
        from cuboidlift.search import HypothesisGrid

        cub, pts, det = synthetic_detection(rig, seed=21)
        p = prior(dims=cub.dims, orientation=cub.yaw)
        fp = fp_from(pts)
        init = init_hypothesis(fp, p)
        grid = enumerate_hypotheses(init, p, SearchConfig())
        best = select_best(grid, fp, det, rig)
        rng = np.random.default_rng(0)
        for _ in range(3):
            perm = rng.permutation(len(grid))
            shuffled = HypothesisGrid(
                centers=grid.centers[perm], yaws=grid.yaws[perm], dims=grid.dims, init=grid.init
            )
            other = select_best(shuffled, fp, det, rig)
            assert np.array_equal(other.cuboid.center, best.cuboid.center)
            assert other.cuboid.yaw == best.cuboid.yaw

    def test_terms_bounded(self, rig):
        cub, pts, det = synthetic_detection(rig, seed=33)
        p = prior(dims=cub.dims, orientation=cub.yaw)
        fp = fp_from(pts)
        grid = enumerate_hypotheses(init_hypothesis(fp, p), p, SearchConfig())
        cov, iou = evaluate_hypotheses(grid, fp, det, rig)
        assert np.all((cov >= 0) & (cov <= 1))
        assert np.all((iou >= 0) & (iou <= 1))
        best = select_best(grid, fp, det, rig)
        assert 0.0 <= best.objective <= 2.0
        assert best.objective == best.coverage + best.proj_iou

    def test_selected_yaw_within_sector(self, rig):
        rng = np.random.default_rng(41)
        for seed in range(10):
            cub, pts, det = synthetic_detection(rig, seed=300 + seed)
            anchor = wrap_angle(cub.yaw + rng.uniform(-0.1, 0.1))
            p = prior(dims=cub.dims, orientation=anchor)
            fp = fp_from(pts)
            grid = enumerate_hypotheses(init_hypothesis(fp, p), p, SearchConfig())
            best = select_best(grid, fp, det, rig)
            assert yaw_diff(best.cuboid.yaw, anchor) <= p.sector_half_width + 1e-9

    def test_nested_grid_monotone(self, rig):
        for seed in range(6):
            cub, pts, det = synthetic_detection(rig, seed=500 + seed)
            p = prior(dims=cub.dims, orientation=cub.yaw)
            fp = fp_from(pts)
            init = init_hypothesis(fp, p)
            coarse = SearchConfig(trans_step=0.5, rot_step=math.pi / 10)
            fine = SearchConfig(trans_step=0.25, rot_step=math.pi / 20)
            a = select_best(enumerate_hypotheses(init, p, coarse), fp, det, rig)
            b = select_best(enumerate_hypotheses(init, p, fine), fp, det, rig)
            assert b.objective >= a.objective - 1e-12


class TestHypothesisType:
    def test_objective_must_be_sum(self):
        c = Cuboid3D((0, 0, 0), (1, 1, 1), 0.0)
        with pytest.raises(ValueError):
            Hypothesis(cuboid=c, coverage=0.5, proj_iou=0.25, objective=0.8)


class TestCanonicalize:
    def test_center_maps_to_origin(self):
        c = Cuboid3D((3, -1, 2), (2, 1, 1), 0.7)
        assert np.allclose(canonicalize_points([c.center], c), 0.0)

    def test_zero_yaw_is_translation(self):
        c = Cuboid3D((1, 2, 3), (2, 1, 1), 0.0)
        pts = np.array([[2.0, 2.0, 3.0], [1.0, 5.0, 0.0]])
        assert np.allclose(canonicalize_points(pts, c), pts - c.center)

    def test_matches_rotation_matrix_oracle(self):
        rng = np.random.default_rng(3)
        psi = math.pi / 3
        c = Cuboid3D((0.5, -0.5, 1.0), (2, 1, 1), psi)
        pts = rng.uniform(-4, 4, size=(20, 3))
        want = np.array([rot_z(-psi) @ (p - c.center) for p in pts])
        assert np.allclose(canonicalize_points(pts, c), want)


class TestPointFeatures:
    def test_origin_feature(self):
        f = encode_point_features(np.zeros((1, 3)), (1, 2, 3), n_points=1)
        assert np.allclose(f[0], [0, 0, 0, 1, 2, 3, 1, 2, 3])

    def test_algebraic_identities(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(700, 3))
        d = (4.1, 1.9, 1.6)
        f = encode_point_features(pts, d, seed=7)
        assert f.shape == (512, 9)
        assert np.allclose(f[:, 3:6] + f[:, 0:3], d)
        assert np.allclose(f[:, 6:9] - f[:, 0:3], d)

    def test_downsample_is_subset(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(600, 3))
        f = encode_point_features(pts, (1, 1, 1), seed=3)
        assert f.shape[0] == 512
        rows = {tuple(r) for r in f[:, :3]}
        pool = {tuple(r) for r in pts}
        assert rows <= pool

    def test_oversample_keeps_all_originals(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(100, 3))
        f = encode_point_features(pts, (1, 1, 1), seed=5)
        assert f.shape[0] == 512
        rows = {tuple(r) for r in f[:, :3]}
        assert {tuple(r) for r in pts} <= rows

    def test_seed_determinism(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(600, 3))
        a = encode_point_features(pts, (1, 1, 1), seed=42)
        b = encode_point_features(pts, (1, 1, 1), seed=42)
        assert np.array_equal(a, b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            encode_point_features(np.zeros((0, 3)), (1, 1, 1))


class TestDimOffsets:
    def test_equal_dims_zero_offsets(self):
        assert encode_dim_offsets((2, 3, 4), (2, 3, 4)) == (0.0, 0.0, 0.0)

    def test_log_identity(self):
        d = encode_dim_offsets((math.e * 2.0, 1.0, 1.0), (2.0, 1.0, 1.0))
        assert math.isclose(d[0], 1.0, rel_tol=1e-12)

    @given(
        st.tuples(*[st.floats(0.05, 50.0) for _ in range(3)]),
        st.tuples(*[st.floats(0.05, 50.0) for _ in range(3)]),
    )
    def test_roundtrip(self, gt, init):
        back = decode_dim_offsets(init, encode_dim_offsets(gt, init))
        for a, b in zip(back, gt):
            assert math.isclose(a, b, rel_tol=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            encode_dim_offsets((0.0, 1, 1), (1, 1, 1))
        with pytest.raises(ValueError):
            decode_dim_offsets((-1.0, 1, 1), (0, 0, 0))
