import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuboidlift.frustum import FrustumPoints
from cuboidlift.geom import (
    Box2D,
    Cuboid3D,
    cuboid_local,
    inside_local,
    project_cuboid_to_box,
    rot_z,
    wrap_angle,
    yaw_diff,
)
from cuboidlift.ingest import Detection2D, SensorRig
from cuboidlift.prior import SemanticPrior
from cuboidlift import search
from cuboidlift.codecs import (
    canonicalize_points,
    decode_dim_offsets,
    encode_dim_offsets,
    encode_point_features,
)
from cuboidlift.search import (
    EmptyFrustumError,
    Hypothesis,
    HypothesisGrid,
    SearchConfig,
    enumerate_hypotheses,
    evaluate_hypotheses,
    init_hypothesis,
    projected_iou,
    select_best,
)
from cuboidlift.synth import (
    DEFAULT_LIDAR_EXTRINSICS,
    default_cameras,
    sample_visible_surface,
)
from conftest import (
    grid_poses,
    kernel_coverage,
    naive_coverage,
    naive_evaluate_coverage,
    naive_select_best,
    random_cuboid,
)


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
    """The coverage kernel on one-entry grids, the production coverage of one box."""

    def test_all_inside(self):
        c = Cuboid3D((0, 0, 0), (2, 2, 2), 0.3)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.5, 0.5, size=(50, 3))
        assert kernel_coverage(pts, c) == 1.0

    def test_empty_points(self):
        assert kernel_coverage(np.zeros((0, 3)), Cuboid3D((0, 0, 0), (1, 1, 1), 0.0)) == 0.0

    def test_partial_counts_match_oracle(self):
        c = Cuboid3D((0, 0, 0), (2, 2, 2), 0.0)
        pts = np.array(
            [[0, 0, 0], [0.9, 0, 0], [0, 0.9, 0], [0, 0, 0.9], [-0.9, -0.9, 0],
             [0.5, 0.5, 0.5], [0.2, -0.3, 0.1], [3, 0, 0], [0, 3, 0], [0, 0, -3]],
            dtype=float,
        )
        assert kernel_coverage(pts, c) == 0.7
        assert kernel_coverage(pts, c) == naive_coverage(pts, c)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            c = random_cuboid(rng, span=3.0)
            pts = rng.uniform(-8, 8, size=(60, 3))
            assert kernel_coverage(pts, c) == naive_coverage(pts, c)

    def test_box_frame_ties_kernel_on_faces_edges_corners(self):
        # points built on a box's corners, edges and faces in its own frame
        # lie within rounding of its boundary once moved to the world, where
        # the order of turning and subtracting decides some of them;
        # `cuboid_local` must decide every one as the kernel does
        rng = np.random.default_rng(29)
        n_corner, n_edge, n_face = 8, 24, 24
        some_outside = 0
        for _ in range(1000):
            c = random_cuboid(rng, span=40.0, dim_range=(0.3, 7.0))
            signs = rng.choice([-1.0, 1.0], size=(n_corner + n_edge + n_face, 3))
            free = rng.uniform(-1.0, 1.0, size=signs.shape)
            # an edge point has one free coordinate, a face point two
            axis = rng.integers(0, 3, size=n_edge + n_face)
            on = signs.copy()
            on[n_corner + np.arange(n_edge), axis[:n_edge]] = free[n_corner : n_corner + n_edge, 0]
            face = n_corner + n_edge + np.arange(n_face)
            on[face] = free[face]
            on[face, axis[n_edge:]] = signs[face, 0]
            pts = (on * np.asarray(c.dims) / 2.0) @ rot_z(c.yaw).T + c.center
            inside = inside_local(cuboid_local(pts, c), c.dims)
            assert inside.sum() / len(pts) == kernel_coverage(pts, c)
            some_outside += inside.sum() != len(pts)
        # the boundary cases are really exercised: some points fall outside
        assert some_outside > 100


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

    @staticmethod
    def median_cases():
        yield "n=1", np.array([2.5])
        yield "n=1, -0.0", np.array([-0.0])
        yield "odd", np.array([3.0, -1.0, 7.0, 0.5, 2.0])
        yield "even", np.array([3.0, -1.0, 7.0, 0.5])
        yield "all -0.0", np.full(6, -0.0)
        yield "all -0.0, odd", np.full(5, -0.0)
        rng = np.random.default_rng(41)
        for i in range(40):
            yield f"mixed signed zeros {i}", rng.choice([-0.0, 0.0], size=int(rng.integers(1, 12)))
            yield f"zeros among values {i}", rng.choice([-0.0, 0.0, 1.0, -2.0], size=int(rng.integers(1, 12)))
        for i in range(200):
            yield f"random {i}", rng.normal(size=int(rng.integers(1, 300)))

    def test_center_is_np_median_signed_zeros_included(self):
        for name, x in self.median_cases():
            pts = np.stack([x, x[::-1], np.zeros(len(x))], axis=1)
            got = init_hypothesis(fp_from(pts), FULL).center
            for axis in (0, 1):
                want = np.median(pts[:, axis])
                assert got[axis] == want, name
                assert np.signbit(got[axis]) == np.signbit(want), name


class TestEnumerateHypotheses:
    def test_degenerate_grid(self):
        cfg = SearchConfig(trans_step=0.5, rot_step=0.3, xy_range=0.0, z_range=0.0)
        init = Cuboid3D((0, 0, 0), (4, 2, 1.6), 0.0)
        grid = enumerate_hypotheses(init, prior(sector=0.3), cfg)
        assert len(grid) == 3
        centers, yaws = grid_poses(grid)
        assert np.allclose(sorted(yaws), [-0.3, 0.0, 0.3])
        assert np.allclose(centers, 0.0)

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
        yaws = np.unique(np.round(grid_poses(grid)[1], 12))
        assert len(yaws) == round(2 * math.pi / cfg.rot_step)  # 20 at the default step

    def test_includes_init_exactly(self):
        cfg = SearchConfig()
        init = Cuboid3D((1.7, -3.1, 0.4), (4, 2, 1.6), 0.37)
        grid = enumerate_hypotheses(init, prior(orientation=0.37), cfg)
        centers, yaws = grid_poses(grid)
        hit = np.nonzero((centers == init.center).all(axis=1) & (yaws == wrap_angle(init.yaw)))[0]
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
            for y in np.unique(grid_poses(grid)[1]):
                assert yaw_diff(float(y), yaw0) <= sector + 1e-9

    def test_rot_step_wider_than_sector_rejected(self):
        cfg = SearchConfig(rot_step=1.0)
        init = Cuboid3D((0, 0, 0), (4, 2, 1.6), 0.0)
        with pytest.raises(ValueError):
            enumerate_hypotheses(init, prior(sector=0.3), cfg)


class TestHypothesisGrid:
    INIT = Cuboid3D((0, 0, 0), (4, 2, 1.6), 0.0)

    def test_flat_order_is_x_outer_yaw_inner(self):
        xs, ys, zs, yaws = [1.0, 2.0], [3.0, 4.0, 5.0], [6.0], [0.1, -0.2]
        grid = HypothesisGrid(xs, ys, zs, yaws, dims=self.INIT.dims, init=self.INIT)
        want = [(x, y, z, yaw) for x in xs for y in ys for z in zs for yaw in yaws]
        assert len(grid) == len(want) == 12
        centers, yaws = grid_poses(grid)
        got = [(*c, yaw) for c, yaw in zip(centers.tolist(), yaws.tolist())]
        assert got == want
        for i, pose in enumerate(want):
            cub = grid.cuboid(i)
            assert (*cub.center.tolist(), cub.yaw) == pose

    def test_axes_and_views_are_read_only(self):
        xs = np.array([1.0, 2.0])
        grid = HypothesisGrid(xs, [0.0], [0.0], [0.0], dims=self.INIT.dims, init=self.INIT)
        xs[0] = 9.0  # the grid keeps its own copy
        assert grid.x_axis.tolist() == [1.0, 2.0]
        for a in (grid.x_axis, grid.y_axis, grid.z_axis, grid.yaw_axis, grid.corner_table):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_non_axis_rejected(self):
        # a flat list of centers is not an axis: the grid is Cartesian by type
        with pytest.raises(ValueError, match="1-D"):
            HypothesisGrid(np.zeros((4, 3)), [0.0], [0.0], [0.0], dims=self.INIT.dims, init=self.INIT)
        with pytest.raises(ValueError, match="1-D"):
            HypothesisGrid([0.0], [0.0], [0.0], 0.0, dims=self.INIT.dims, init=self.INIT)


def synthetic_detection(rig, seed=3, dims=(4.0, 2.0, 1.6), dist=12.0, n=400):
    """One clean object with its oracle box, points in the lidar frame."""
    rng = np.random.default_rng(seed)
    bearing = rng.uniform(-0.4, 0.4)
    center = np.array([dist * math.cos(bearing), dist * math.sin(bearing), dims[2] / 2 - 1.8])
    yaw = float(rng.uniform(-math.pi, math.pi))
    cub = Cuboid3D(center, dims, yaw)
    pts = sample_visible_surface(cub, np.zeros(3), n, rng, inset=0.01)
    from cuboidlift.geom import project_cuboid_to_box

    box = project_cuboid_to_box(cub, rig.camera_from_lidar("cam_0"), rig.camera("cam_0").intrinsics)
    det = Detection2D("f", "cam_0", "car", box, 0.9)
    return cub, pts, det


KERNEL_CONFIGS = {
    "default": SearchConfig(),
    # xy_range 1 keeps the unchunked oracle's full-circle broadcast small
    "fine_step": SearchConfig(trans_step=0.25, xy_range=1.0),
    "xy_range_0": SearchConfig(xy_range=0.0),
    "z_range_0": SearchConfig(z_range=0.0),
}


def permuted_axes(grid, rng):
    """The same hypotheses in another flat order: each axis permuted on its own."""
    axes = (grid.x_axis, grid.y_axis, grid.z_axis, grid.yaw_axis)
    return HypothesisGrid(*(rng.permutation(a) for a in axes), dims=grid.dims, init=grid.init)


def random_kernel_case(rng, cfg, full_circle):
    """A grid (axes shuffled half the time) and a masked frustum around it.

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
        grid = permuted_axes(grid, rng)
    spread = rng.uniform(-4.0, 4.0, size=(int(rng.integers(1, 100)), 3))
    k = int(rng.integers(1, 30))
    nodes = rng.integers(0, len(grid), size=k)
    axes = rng.integers(0, 3, size=k)
    faces = grid.pose(nodes)[0]
    faces[np.arange(k), axes] += rng.choice([-1.0, 1.0], size=k) * np.asarray(dims)[axes] / 2.0
    pts = np.concatenate([init.center + spread, faces])[rng.permutation(len(spread) + k)]
    return grid, fp_from(pts, rng.random(len(pts)) < 0.8)


KERNEL_DET = Detection2D("f", "cam_0", "car", Box2D(200.0, 150.0, 900.0, 600.0), 0.9)


def all_nodes(grid):
    return np.arange(len(grid.x_axis) * len(grid.y_axis))


def assert_coverage_matches_oracle(grid, fp, rig, det=KERNEL_DET):
    """The all-node kernel on the whole grid, then the coverages the pruned
    path hands back at its candidates, each against the naive oracle."""
    want = naive_evaluate_coverage(grid, fp.foreground)
    cov = search._coverage(grid, fp.foreground, all_nodes(grid))
    assert cov.dtype == np.float64
    assert np.array_equal(cov, want)
    candidates, cand_cov, _ = evaluate_hypotheses(grid, fp, det, rig)
    assert cand_cov.dtype == np.float64
    assert np.array_equal(cand_cov, want[candidates])


class TestCoverageKernel:
    """Factorised coverage must equal the naive broadcast bit for bit."""

    @pytest.mark.parametrize("full_circle", [False, True], ids=["sector", "full_circle"])
    @pytest.mark.parametrize("name", sorted(KERNEL_CONFIGS))
    def test_matches_naive_oracle(self, rig, name, full_circle):
        rng = np.random.default_rng([7, len(name), int(full_circle)])
        for _ in range(12):
            grid, fp = random_kernel_case(rng, KERNEL_CONFIGS[name], full_circle)
            assert_coverage_matches_oracle(grid, fp, rig)

    def test_point_on_face_counts(self, rig):
        cfg = SearchConfig(xy_range=0.5, z_range=0.5)
        init = Cuboid3D((10.0, 2.0, -0.5), (4.0, 2.0, 1.5), 0.0)
        grid = enumerate_hypotheses(init, prior(dims=init.dims, orientation=0.0), cfg)
        pts = init.center + np.array([[2.0, 0, 0], [0, -1.0, 0], [0, 0, 0.75]])
        cov = search._coverage(grid, pts, all_nodes(grid))
        centers, yaws = grid_poses(grid)
        at_init = (centers == init.center).all(axis=1) & (yaws == 0.0)
        assert cov[at_init].tolist() == [1.0]
        assert_coverage_matches_oracle(grid, fp_from(pts), rig)

    def test_empty_foreground_is_zero(self, rig):
        grid, fp = random_kernel_case(np.random.default_rng(3), SearchConfig(), True)
        empty = fp_from(fp.points, np.zeros(len(fp.points), dtype=bool))
        assert np.array_equal(search._coverage(grid, empty.foreground, all_nodes(grid)), np.zeros(len(grid)))
        candidates, cov, _ = evaluate_hypotheses(grid, empty, KERNEL_DET, rig)
        assert np.array_equal(candidates, np.arange(len(grid)))
        assert cov.dtype == np.float64
        assert np.array_equal(cov, np.zeros(len(grid)))

    def test_empty_grid(self, rig):
        _, fp = random_kernel_case(np.random.default_rng(4), SearchConfig(), False)
        init = Cuboid3D((10.0, 0.0, 0.0), (4.0, 2.0, 1.5), 0.0)
        for empty in range(4):
            axes = [[10.0, 10.5], [0.0], [0.0, -0.5], [0.0, 0.3]]
            axes[empty] = []
            grid = HypothesisGrid(*axes, dims=init.dims, init=init)
            assert len(grid) == 0 and grid_poses(grid)[0].shape == (0, 3)
            candidates, cov, iou = evaluate_hypotheses(grid, fp, KERNEL_DET, rig)
            assert candidates.shape == cov.shape == iou.shape == (0,)
            assert search._coverage(grid, fp.foreground, all_nodes(grid)).shape == (0,)

    @staticmethod
    def signed_zero_case(rng):
        """Axes and points drawn from values that include 0.0 and -0.0.

        Unit dims put the faces of a box at a center at +-0.5, so many
        points lie exactly on faces of boxes at signed-zero centers. Axes
        are drawn with replacement, so they repeat entries too.
        """

        def axis(values):
            return rng.choice(values, size=int(rng.integers(1, 5)))

        coords = [-0.5, -0.0, 0.0, 0.5]
        yaws = axis([-0.0, 0.0, math.pi / 2, -math.pi / 2, 0.3])
        init = Cuboid3D(np.zeros(3), (1.0, 1.0, 1.0), 0.0)
        grid = HypothesisGrid(axis(coords), axis(coords), axis(coords), yaws, dims=init.dims, init=init)
        pts = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0], size=(int(rng.integers(1, 40)), 3))
        return grid, fp_from(pts)

    @staticmethod
    def duplicated_case(rng):
        """A kernel case whose axes repeat some entries, in shuffled order."""
        grid, fp = random_kernel_case(rng, SearchConfig(), bool(rng.random() < 0.5))
        axes = []
        for a in (grid.x_axis, grid.y_axis, grid.z_axis, grid.yaw_axis):
            axes.append(a[rng.permutation(np.concatenate([np.arange(len(a)), rng.integers(0, len(a), 2)]))])
        return HypothesisGrid(*axes, dims=grid.dims, init=grid.init), fp

    @pytest.mark.parametrize("elems", [None, 1, 7, 500])
    @pytest.mark.parametrize("case", ["signed_zero_case", "duplicated_case"])
    def test_signed_zeros_and_duplicates_match_oracle(self, rig, monkeypatch, case, elems):
        if elems is not None:
            monkeypatch.setattr(search, "_CHUNK_ELEMS", elems)
        rng = np.random.default_rng([len(case), elems or 0])
        for _ in range(20):
            grid, fp = getattr(self, case)(rng)
            assert_coverage_matches_oracle(grid, fp, rig)

    @pytest.mark.parametrize("elems", [1, 7, 500])
    def test_chunked_points_match_oracle(self, rig, monkeypatch, elems):
        monkeypatch.setattr(search, "_CHUNK_ELEMS", elems)
        rng = np.random.default_rng(elems)
        for cfg, full_circle in ((SearchConfig(), False), (KERNEL_CONFIGS["fine_step"], True)):
            grid, fp = random_kernel_case(rng, cfg, full_circle)
            assert_coverage_matches_oracle(grid, fp, rig)


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
            evaluate_hypotheses(grid, fp_from([[0.1, 0.0, 0.0], [5.0, 0.0, 0.0]]), det, rig)
            iou = projected_iou(grid, np.arange(len(grid)), det, rig)
        assert (iou == 0.0).any() and (iou > 0.0).any()

    @pytest.mark.parametrize("camera", range(6))
    def test_subset_rows_match_full_grid(self, rig, camera):
        # the pruned argmax evaluates IoU on subsets of a grid, so a row's
        # value must not depend on which other rows are evaluated with it
        rng = np.random.default_rng([13, camera])
        heading = camera * math.pi / 3.0
        for _ in range(5):
            dist, bearing = rng.uniform(1.0, 30.0), heading + rng.uniform(-1.0, 1.0)
            anchor = (dist * math.cos(bearing), dist * math.sin(bearing), rng.uniform(-2.0, 1.0))
            dims = tuple(rng.uniform(0.3, 5.0, size=3))
            grid = enumerate_hypotheses(
                Cuboid3D(anchor, dims, float(rng.uniform(-math.pi, math.pi))),
                prior(dims=dims, orientation=None, sector=math.pi),
                SearchConfig(),
            )
            # the whole image overlaps every projected box, so each IoU
            # carries its box's rounding
            det = Detection2D("f", f"cam_{camera}", "car", Box2D(0.0, 0.0, 800.0, 450.0), 0.9)
            full = projected_iou(grid, np.arange(len(grid)), det, rig)
            assert (full > 0.0).any()
            for size in (1, 3, 8, 300):
                for _ in range(5):
                    idx = rng.choice(len(grid), size=size, replace=False)
                    if rng.random() < 0.5:
                        idx = np.sort(idx)
                    assert np.array_equal(projected_iou(grid, idx, det, rig), full[idx])


def assert_same_hypothesis(a, b):
    assert a.cuboid.center.tobytes() == b.cuboid.center.tobytes()
    assert a.cuboid.dims == b.cuboid.dims
    got = (a.cuboid.yaw, a.coverage, a.proj_iou, a.objective)
    want = (b.cuboid.yaw, b.coverage, b.proj_iou, b.objective)
    assert [float(x).hex() for x in got] == [float(x).hex() for x in want]


class TestPrunedArgmax:
    """select_best ranks only the pruned candidates yet equals the full argmax."""

    @pytest.mark.parametrize("full_circle", [False, True], ids=["sector", "full_circle"])
    @pytest.mark.parametrize("name", sorted(KERNEL_CONFIGS))
    def test_random_grids_match_naive(self, rig, name, full_circle):
        rng = np.random.default_rng([17, len(name), int(full_circle)])
        for _ in range(8):
            grid, fp = random_kernel_case(rng, KERNEL_CONFIGS[name], full_circle)
            assert_same_hypothesis(select_best(grid, fp, KERNEL_DET, rig), naive_select_best(grid, fp, KERNEL_DET, rig))

    @pytest.mark.parametrize("full_circle", [False, True], ids=["sector", "full_circle"])
    def test_synthetic_detections_match_naive(self, rig, full_circle):
        rng = np.random.default_rng(int(full_circle))
        pruned = 0
        for seed in range(6):
            cub, pts, det = synthetic_detection(rig, seed=700 + seed)
            p = prior(dims=cub.dims, orientation=None if full_circle else cub.yaw, sector=math.pi if full_circle else math.pi / 6)
            fp = fp_from(pts)
            grid = enumerate_hypotheses(init_hypothesis(fp, p), p, SearchConfig())
            if seed % 2:
                grid = permuted_axes(grid, rng)
            best = select_best(grid, fp, det, rig)
            assert_same_hypothesis(best, naive_select_best(grid, fp, det, rig))
            # every pruned hypothesis scores strictly below the winner
            candidates, cand_cov, iou = evaluate_hypotheses(grid, fp, det, rig)
            cov = naive_evaluate_coverage(grid, fp.foreground)
            full_iou = projected_iou(grid, np.arange(len(grid)), det, rig)
            assert np.all(np.diff(candidates) > 0)
            assert np.array_equal(cand_cov, cov[candidates])
            assert np.array_equal(iou, full_iou[candidates])
            assert np.all(np.delete(cov + full_iou, candidates) < best.objective)
            pruned += len(grid) - len(candidates)
        assert pruned > 0

    def test_forced_objective_ties(self, rig):
        # a cube with points symmetric about its center: poses a quarter
        # turn apart tie on the objective; duplicated rows tie on every key
        cube = Cuboid3D((12.0, 0.0, -1.0), (2.0, 2.0, 2.0), 0.0)
        offsets = np.random.default_rng(5).uniform(-0.7, 0.7, size=(40, 3))
        pts = cube.center + np.concatenate([offsets, -offsets])
        box = Box2D(340.0, 170.0, 460.0, 280.0)
        det = Detection2D("f", "cam_0", "car", box, 0.9)
        p = prior(dims=cube.dims, orientation=None, sector=math.pi)
        grid = enumerate_hypotheses(cube, p, SearchConfig())
        yaw_twice = np.concatenate([grid.yaw_axis, grid.yaw_axis])
        doubled = HypothesisGrid(grid.x_axis, grid.y_axis, grid.z_axis, yaw_twice, dims=grid.dims, init=grid.init)
        assert len(doubled) == 2 * len(grid)
        shuffled = permuted_axes(doubled, np.random.default_rng(6))
        for g in (grid, doubled, shuffled):
            fp = fp_from(pts)
            want = naive_select_best(g, fp, det, rig)
            cov = naive_evaluate_coverage(g, fp.foreground)
            objective = cov + projected_iou(g, np.arange(len(g)), det, rig)
            assert (objective == want.objective).sum() >= 2
            assert_same_hypothesis(select_best(g, fp, det, rig), want)

    def test_box_off_image_scores_zero_iou(self, rig):
        grid, fp = random_kernel_case(np.random.default_rng(8), SearchConfig(), True)
        det = Detection2D("f", "cam_0", "car", Box2D(-60.0, -60.0, -10.0, -10.0), 0.9)
        assert not projected_iou(grid, np.arange(len(grid)), det, rig).any()
        best = select_best(grid, fp, det, rig)
        assert best.proj_iou == 0.0
        assert_same_hypothesis(best, naive_select_best(grid, fp, det, rig))

    @pytest.mark.parametrize("camera", ["cam_3", "cam_0"], ids=["all_behind", "straddling"])
    def test_hypotheses_behind_camera(self, rig, camera):
        # cam_3 looks backwards, so a grid in front of cam_0 is wholly
        # behind it; a grid around the lidar origin straddles cam_0
        rng = np.random.default_rng(9)
        if camera == "cam_3":
            grid, fp = random_kernel_case(rng, SearchConfig(), True)
        else:
            p = prior(dims=(1.0, 1.0, 1.0), orientation=None, sector=math.pi)
            grid = enumerate_hypotheses(Cuboid3D(np.zeros(3), (1.0, 1.0, 1.0), 0.0), p, SearchConfig())
            fp = fp_from(rng.uniform(-1.5, 1.5, size=(50, 3)))
        det = Detection2D("f", camera, "car", Box2D(100.0, 100.0, 300.0, 300.0), 0.9)
        iou = projected_iou(grid, np.arange(len(grid)), det, rig)
        assert (camera == "cam_3") == (not iou.any())
        assert_same_hypothesis(select_best(grid, fp, det, rig), naive_select_best(grid, fp, det, rig))

    def test_single_hypothesis_grid(self, rig):
        cub, pts, det = synthetic_detection(rig, seed=4)
        cfg = SearchConfig(trans_step=0.5, rot_step=0.3, xy_range=0.0, z_range=0.0)
        grid = enumerate_hypotheses(cub, prior(dims=cub.dims, orientation=cub.yaw, sector=0.15), cfg)
        assert len(grid) == 1
        assert_same_hypothesis(select_best(grid, fp_from(pts), det, rig), naive_select_best(grid, fp_from(pts), det, rig))

    @pytest.mark.parametrize("full_circle", [False, True], ids=["sector", "full_circle"])
    def test_reads_axes_without_unique(self, rig, monkeypatch, full_circle):
        # the grid hands its axes over, so nothing rediscovers them
        cub, pts, det = synthetic_detection(rig, seed=41)
        p = prior(dims=cub.dims, orientation=None if full_circle else cub.yaw, sector=math.pi if full_circle else math.pi / 6)
        fp = fp_from(pts)
        want = naive_select_best(enumerate_hypotheses(init_hypothesis(fp, p), p, SearchConfig()), fp, det, rig)

        def no_unique(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", no_unique)
        grid = enumerate_hypotheses(init_hypothesis(fp, p), p, SearchConfig())
        assert_same_hypothesis(select_best(grid, fp, det, rig), want)

    def test_zero_coverage_keeps_every_hypothesis(self, rig):
        cub, pts, det = synthetic_detection(rig, seed=6)
        grid = enumerate_hypotheses(cub, prior(dims=cub.dims, orientation=None, sector=math.pi), SearchConfig())
        fp = fp_from(pts, np.zeros(len(pts), dtype=bool))
        candidates, _, _ = evaluate_hypotheses(grid, fp, det, rig)
        assert np.array_equal(candidates, np.arange(len(grid)))
        assert_same_hypothesis(select_best(grid, fp, det, rig), naive_select_best(grid, fp, det, rig))



def record_calls(monkeypatch, name):
    """Wrap search.<name>, recording each call's positional arguments."""
    calls = []
    inner = getattr(search, name)

    def wrapped(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(search, name, wrapped)
    return calls


class TestNodeBound:
    """Each grid bounds its xy nodes and counts coverage only where a hypothesis can win."""

    @staticmethod
    def box_points(grid, node, yaw):
        """The 8 corners, 6 face centers and 4 side-edge midpoints of the box at
        an xy node and z level 0 with the given yaw, built in its frame and
        rotated out, so they lie on its boundary up to rounding."""
        half = np.asarray(grid.dims) / 2.0
        signs = [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
        signs += [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        signs += [(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0)]
        ix, iy = divmod(int(node), len(grid.y_axis))
        center = np.array([grid.x_axis[ix], grid.y_axis[iy], grid.z_axis[0]])
        return center + (np.array(signs, dtype=float) * half) @ rot_z(float(yaw)).T

    @pytest.mark.parametrize("dims", [(4.0, 2.0, 1.5), (4.6, 1.95, 1.7), (0.41, 0.41, 1.07)])
    def test_counts_every_boundary_point_the_kernel_counts(self, dims):
        init = Cuboid3D((14.25, -3.5, -0.75), dims, 0.0)
        grid = enumerate_hypotheses(init, prior(dims=dims, orientation=None, sector=math.pi), SearchConfig())
        nodes = all_nodes(grid)
        counted = 0
        for node in (0, 40, 71):
            for yaw in grid.yaw_axis:
                for p in self.box_points(grid, node, yaw):
                    kernel = search._coverage(grid, p[None], nodes).reshape(len(nodes), -1).max(axis=1)
                    bound = search._node_bound(grid, p[None])
                    assert np.all(bound >= kernel)
                    counted += int(kernel[node])
        # a good share of the boundary points round inside their own box
        assert counted > 3 * len(grid.yaw_axis) * 18 // 4

    @pytest.mark.parametrize("elems", [1, 7, 500])
    def test_chunking_leaves_the_bound_unchanged(self, monkeypatch, elems):
        rng = np.random.default_rng([29, elems])
        cases = [random_kernel_case(rng, SearchConfig(), True) for _ in range(6)]
        want = [search._node_bound(grid, fp.foreground) for grid, fp in cases]
        monkeypatch.setattr(search, "_CHUNK_ELEMS", elems)
        for (grid, fp), ub in zip(cases, want):
            assert np.array_equal(search._node_bound(grid, fp.foreground), ub)

    @pytest.mark.parametrize("elems", [None, 7, 500])
    def test_random_full_circle_grids_match_naive(self, rig, monkeypatch, elems):
        if elems is not None:
            monkeypatch.setattr(search, "_CHUNK_ELEMS", elems)
        bounds = record_calls(monkeypatch, "_node_bound")
        counted = record_calls(monkeypatch, "_coverage")
        rng = np.random.default_rng([23, elems or 0])
        for trial in range(8):
            dims = [(4.6, 1.95, 1.7), (6.9, 2.5, 2.8), (0.73, 0.67, 1.77)][trial % 3]
            cub, pts, det = synthetic_detection(rig, seed=900 + trial, dims=dims, n=int(rng.integers(30, 300)))
            p = prior(dims=dims, orientation=None, sector=math.pi)
            fp = fp_from(pts, rng.random(len(pts)) < 0.9)
            grid = enumerate_hypotheses(init_hypothesis(fp, p), p, SearchConfig())
            if trial % 2:
                grid = permuted_axes(grid, rng)
            assert_same_hypothesis(select_best(grid, fp, det, rig), naive_select_best(grid, fp, det, rig))
        assert len(bounds) == 8
        # some grids were pruned to fewer nodes than the whole grid
        assert any(len(args[2]) < 81 for args in counted)

    def test_every_node_survives(self, rig, monkeypatch):
        # truck-sized dims around a tight cluster: every node's disc holds
        # every point, so the bound is 1.0 everywhere and no node is pruned
        dims = (6.9, 2.5, 2.8)
        center = np.array([15.0, 1.0, -0.4])
        pts = center + np.random.default_rng(31).uniform(-0.3, 0.3, size=(60, 3))
        p = prior(dims=dims, orientation=None, sector=math.pi)
        fp = fp_from(pts)
        grid = enumerate_hypotheses(Cuboid3D(center, dims, 0.0), p, SearchConfig())
        assert np.array_equal(search._node_bound(grid, pts), np.ones(81))
        counted = record_calls(monkeypatch, "_coverage")
        det = Detection2D("f", "cam_0", "truck", Box2D(300.0, 150.0, 700.0, 400.0), 0.9)
        assert_same_hypothesis(select_best(grid, fp, det, rig), naive_select_best(grid, fp, det, rig))
        assert [len(args[2]) for args in counted] == [1, 81]

    def test_winner_reaching_its_node_bound_survives(self, rig):
        # points near the corners of one box, and a detection box equal to
        # its projection: that hypothesis scores exactly 1 + 1, its node's
        # bound + 1 equals that objective, and no other node reaches it
        box = Cuboid3D((15.0, 0.5, -0.5), (4.0, 2.0, 1.5), 0.0)
        corners = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
        pts = box.center + 0.95 * corners * np.asarray(box.dims) / 2.0
        grid = enumerate_hypotheses(box, prior(dims=box.dims, orientation=None, sector=math.pi), SearchConfig())
        centers, yaws = grid_poses(grid)
        at_box = int(np.flatnonzero((centers == box.center).all(axis=1) & (yaws == box.yaw))[0])
        proj = project_cuboid_to_box(box, rig.camera_from_lidar("cam_0"), rig.camera("cam_0").intrinsics)
        det = Detection2D("f", "cam_0", "car", proj, 0.9)
        ub = search._node_bound(grid, pts)
        assert ub[at_box // (len(grid.z_axis) * len(grid.yaw_axis))] == 1.0 and (ub == 1.0).sum() == 1
        candidates, _, _ = evaluate_hypotheses(grid, fp_from(pts), det, rig)
        assert at_box in candidates
        best = select_best(grid, fp_from(pts), det, rig)
        assert best.objective == 2.0
        assert_same_hypothesis(best, naive_select_best(grid, fp_from(pts), det, rig))

    def test_weak_seed_node_still_prunes_iou(self, rig, monkeypatch):
        # a ring of points just inside the bound radius of a corner node
        # gives that node the largest bound but a poor best objective, so
        # no node is pruned; the counted grid then seeds L again, and IoU
        # goes only to what seeding from the whole grid would keep
        dims = (0.8, 0.58, 1.03)
        cub, obj_pts, det = synthetic_detection(rig, seed=61, dims=dims, n=100)
        p = prior(dims=dims, orientation=None, sector=math.pi)
        grid = enumerate_hypotheses(cub, p, SearchConfig())
        corner = np.array([grid.x_axis[0], grid.y_axis[0], cub.center[2]])
        angle = np.linspace(0.0, 2.0 * math.pi, 300, endpoint=False)
        ring = corner + 0.97 * math.hypot(*dims[:2]) / 2.0 * np.stack([np.cos(angle), np.sin(angle), 0.0 * angle], 1)
        pts = np.concatenate([obj_pts, ring])
        counted = record_calls(monkeypatch, "_coverage")
        candidates, _, _ = evaluate_hypotheses(grid, fp_from(pts), det, rig)
        assert [len(args[2]) for args in counted] == [1, 81]
        cov = naive_evaluate_coverage(grid, pts)
        whole = search._attained(grid, np.arange(len(grid)), cov, det, rig)
        assert np.array_equal(candidates, np.flatnonzero(cov + 1.0 >= whole))
        assert len(candidates) < len(grid) // 10

    def test_no_foreground_skips_the_bound(self, rig, monkeypatch):
        grid, fp = random_kernel_case(np.random.default_rng(12), SearchConfig(), True)
        empty = fp_from(fp.points, np.zeros(len(fp.points), dtype=bool))
        bounds = record_calls(monkeypatch, "_node_bound")
        candidates, cov, _ = evaluate_hypotheses(grid, empty, KERNEL_DET, rig)
        assert np.array_equal(candidates, np.arange(len(grid)))
        assert not cov.any() and not bounds
        assert_same_hypothesis(select_best(grid, empty, KERNEL_DET, rig), naive_select_best(grid, empty, KERNEL_DET, rig))

    def test_sector_grids_are_bounded_too(self, rig, monkeypatch):
        bounds = record_calls(monkeypatch, "_node_bound")
        for seed in range(4):
            cub, pts, det = synthetic_detection(rig, seed=77 + seed)
            p = prior(dims=cub.dims, orientation=cub.yaw)
            fp = fp_from(pts)
            grid = enumerate_hypotheses(init_hypothesis(fp, p), p, SearchConfig())
            assert len(grid.yaw_axis) == 3
            assert_same_hypothesis(select_best(grid, fp, det, rig), naive_select_best(grid, fp, det, rig))
        assert len(bounds) == 4


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
        centers, yaws = grid_poses(grid)
        init_idx = int(np.nonzero((centers == init.center).all(axis=1) & (yaws == wrap_angle(init.yaw)))[0][0])
        cov = search._coverage(grid, fp.foreground, all_nodes(grid))
        iou = projected_iou(grid, np.arange(len(grid)), det, rig)
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
        cub, pts, det = synthetic_detection(rig, seed=21)
        p = prior(dims=cub.dims, orientation=cub.yaw)
        fp = fp_from(pts)
        init = init_hypothesis(fp, p)
        grid = enumerate_hypotheses(init, p, SearchConfig())
        best = select_best(grid, fp, det, rig)
        rng = np.random.default_rng(0)
        for _ in range(3):
            shuffled = permuted_axes(grid, rng)
            other = select_best(shuffled, fp, det, rig)
            assert np.array_equal(other.cuboid.center, best.cuboid.center)
            assert other.cuboid.yaw == best.cuboid.yaw

    def test_terms_bounded(self, rig):
        cub, pts, det = synthetic_detection(rig, seed=33)
        p = prior(dims=cub.dims, orientation=cub.yaw)
        fp = fp_from(pts)
        grid = enumerate_hypotheses(init_hypothesis(fp, p), p, SearchConfig())
        cov = search._coverage(grid, fp.foreground, all_nodes(grid))
        iou = projected_iou(grid, np.arange(len(grid)), det, rig)
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
