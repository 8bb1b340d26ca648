import numpy as np
import pytest

from cuboidlift.frustum import FrustumPoints, extract_frustum, filter_foreground, project_view
from cuboidlift.geom import Box2D
from cuboidlift.ingest import Detection2D, SensorRig
from cuboidlift.synth import DEFAULT_LIDAR_EXTRINSICS, default_cameras
from conftest import naive_frustum_mask


@pytest.fixture(scope="module")
def rig():
    cams = default_cameras()
    return SensorRig(cameras={c.camera_id: c for c in cams}, lidar_extrinsics=DEFAULT_LIDAR_EXTRINSICS)


def det(box, camera_id="cam_0", mask=None):
    return Detection2D("000000", camera_id, "car", box, 0.9, mask=mask)


def frustum(pts, d, rig):
    """One detection's frustum from a view of its own box."""
    return extract_frustum(project_view(pts, rig, d.camera_id, [d.box]), d)


class TestExtractFrustum:
    def test_no_points_in_box(self, rig):
        pts = np.array([[-20.0, 0.0, 0.0]])  # behind cam_0
        fp = frustum(pts, det(Box2D(0, 0, 800, 450)), rig)
        assert len(fp.points) == 0

    def test_single_point_at_box_center(self, rig):
        cam = rig.camera("cam_0")
        # on the camera's optical axis: camera rides at ego z=1.6, lidar at 1.8
        pts = np.array([[10.0, 0.0, -0.2]])
        box = Box2D(cam.intrinsics.cx - 5, cam.intrinsics.cy - 5, cam.intrinsics.cx + 5, cam.intrinsics.cy + 5)
        fp = frustum(pts, det(box), rig)
        assert len(fp.points) == 1
        assert np.allclose(fp.points[0], pts[0])
        assert fp.foreground_flags.all()

    def test_matches_per_point_oracle(self, rig):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-30, 30, size=(1500, 3))
        for cam_id in ("cam_0", "cam_2"):
            d = det(Box2D(100, 80, 600, 400), camera_id=cam_id)
            fp = frustum(pts, d, rig)
            want = naive_frustum_mask(pts, d, rig)
            assert np.array_equal(fp.points, pts[want])

    def test_monotone_in_box(self, rig):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-30, 30, size=(800, 3))
        small = frustum(pts, det(Box2D(200, 150, 500, 350)), rig)
        large = frustum(pts, det(Box2D(150, 100, 600, 420)), rig)
        small_set = {tuple(p) for p in small.points}
        large_set = {tuple(p) for p in large.points}
        assert small_set <= large_set

    def test_preserves_input_order(self, rig):
        rng = np.random.default_rng(9)
        pts = rng.uniform(5, 25, size=(400, 3)) * np.array([1, 0.2, 0.1])
        fp = frustum(pts, det(Box2D(0, 0, 800, 450)), rig)
        # selected points appear in the same relative order as the input
        idx = [int(np.nonzero((pts == p).all(axis=1))[0][0]) for p in fp.points]
        assert idx == sorted(idx)

    def test_unknown_camera(self, rig):
        with pytest.raises(KeyError):
            frustum(np.zeros((1, 3)), det(Box2D(0, 0, 10, 10), camera_id="cam_zz"), rig)


class TestCameraView:
    @pytest.mark.parametrize("cam_id", ["cam_0", "cam_2"])
    def test_shared_view_matches_per_box_oracle(self, rig, cam_id):
        rng = np.random.default_rng(17)
        pts = rng.uniform(-30, 30, size=(3000, 3))
        boxes = [
            Box2D(100, 80, 600, 400),
            Box2D(250, 200, 300, 260),
            Box2D(-200, -100, 150, 120),  # partly outside the image
            Box2D(650, 300, 1000, 700),
            Box2D(400, 0, 400, 450),  # zero width
            Box2D(0, 225, 800, 225),  # zero height
            Box2D(500, 100, 500, 100),  # zero area
        ]
        view = project_view(pts, rig, cam_id, boxes)
        assert 0 < len(view) < len(pts)
        for box in boxes:
            d = det(box, camera_id=cam_id)
            fp = extract_frustum(view, d)
            assert np.array_equal(fp.points, pts[naive_frustum_mask(pts, d, rig)])

    @pytest.mark.parametrize("cam_id", ["cam_0", "cam_2"])
    def test_boundary_ties_match_single_box_view(self, rig, cam_id):
        # zero-area boxes sitting exactly on projected points: membership is
        # boundary-inclusive on the same cached u/v as a view of the box alone
        rng = np.random.default_rng(19)
        pts = rng.uniform(-30, 30, size=(2000, 3))
        whole = project_view(pts, rig, cam_id, [Box2D(0, 0, 800, 450)])
        dets = [det(Box2D(u, v, u, v), camera_id=cam_id) for u, v in zip(whole.u[::25], whole.v[::25])]
        view = project_view(pts, rig, cam_id, [d.box for d in dets] + [Box2D(300, 200, 420, 260)])
        for d in dets:
            fp = extract_frustum(view, d)
            alone = frustum(pts, d, rig)
            assert len(fp.points) >= 1
            assert np.array_equal(fp.points, alone.points)
            assert np.array_equal(fp.pixels, alone.pixels)

    @pytest.mark.parametrize("cam_id", [c.camera_id for c in default_cameras()])
    def test_oracle_agrees_at_ties(self, rig, cam_id):
        # zero-area boxes on the view's own (u, v) put a point exactly on
        # every face of its box; the per-point oracle must round like the view
        rng = np.random.default_rng(29)
        intr = rig.camera(cam_id).intrinsics
        pts = rng.uniform(-30, 30, size=(3000, 3))
        whole = project_view(pts, rig, cam_id, [Box2D(0, 0, intr.width, intr.height)])
        assert len(whole) > 100
        for u, v in zip(whole.u[::len(whole) // 100], whole.v[::len(whole) // 100]):
            d = det(Box2D(u, v, u, v), camera_id=cam_id)
            want = naive_frustum_mask(pts, d, rig)
            assert want.any()
            assert np.array_equal(extract_frustum(whole, d).points, pts[want])

    def test_view_copies_the_window(self, rig):
        pts = np.random.default_rng(23).uniform(-30, 30, size=(500, 3))
        view = project_view(pts, rig, "cam_0", [Box2D(0, 0, 800, 450)])
        for arr in (view.points, view.u, view.v):
            assert not np.shares_memory(arr, pts)

    def test_box_outside_view_rejected(self, rig):
        view = project_view(np.zeros((1, 3)), rig, "cam_0", [Box2D(100, 100, 200, 200)])
        with pytest.raises(ValueError, match="bounds"):
            extract_frustum(view, det(Box2D(90, 100, 200, 200)))
        with pytest.raises(ValueError, match="camera"):
            extract_frustum(view, det(Box2D(100, 100, 200, 200), camera_id="cam_1"))
        with pytest.raises(ValueError):
            project_view(np.zeros((1, 3)), rig, "cam_0", [])


class TestFilterForeground:
    def _fp(self, rig, n=300, seed=11):
        rng = np.random.default_rng(seed)
        pts = np.column_stack(
            [rng.uniform(5, 30, n), rng.uniform(-8, 8, n), rng.uniform(-1.5, 1.5, n)]
        )
        return frustum(pts, det(Box2D(0, 0, 800, 450)), rig)

    def test_all_ones_mask(self, rig):
        fp = self._fp(rig)
        out = filter_foreground(fp, np.ones((450, 800), dtype=bool))
        assert out.foreground_flags.all()

    def test_all_zeros_mask(self, rig):
        fp = self._fp(rig)
        out = filter_foreground(fp, np.zeros((450, 800), dtype=bool))
        assert not out.foreground_flags.any()

    def test_checkerboard_matches_pixel_oracle(self, rig):
        fp = self._fp(rig)
        mask = (np.indices((450, 800)).sum(axis=0) % 2).astype(bool)
        out = filter_foreground(fp, mask)
        for i, (u, v) in enumerate(fp.pixels):
            col = int(np.floor(u + 0.5)) if u >= 0 else int(np.ceil(u - 0.5))
            row = int(np.floor(v + 0.5)) if v >= 0 else int(np.ceil(v - 0.5))
            col = min(max(col, 0), 799)
            row = min(max(row, 0), 449)
            assert out.foreground_flags[i] == mask[row, col]

    def test_never_adds_points(self, rig):
        fp = self._fp(rig)
        rng = np.random.default_rng(13)
        mask = rng.uniform(size=(450, 800)) > 0.5
        out = filter_foreground(fp, mask)
        assert np.array_equal(out.points, fp.points)
        assert out.foreground_flags.sum() <= len(fp.points)

    def test_absent_mask_keeps_all(self, rig):
        fp = self._fp(rig)
        out = filter_foreground(fp, None)
        assert out.foreground_flags.all()

    def test_rounding_half_away_from_zero(self):
        # pixels at exact .5 boundaries round away from zero, then clip
        fp = FrustumPoints(
            points=np.zeros((3, 3)),
            foreground_flags=np.ones(3, dtype=bool),
            pixels=np.array([[9.5, 0.0], [10.5, 0.0], [-0.4, 0.0]]),
        )
        mask = np.zeros((5, 20), dtype=bool)
        mask[0, 10] = True  # rows are v, cols are u
        mask[0, 11] = True
        mask[0, 0] = True
        out = filter_foreground(fp, mask)
        assert out.foreground_flags.tolist() == [True, True, True]


class TestFrustumPointsType:
    def test_flag_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FrustumPoints(np.zeros((2, 3)), np.ones(3, dtype=bool), np.zeros((2, 2)))

    def test_foreground_built_once(self):
        fp = FrustumPoints(np.arange(9.0).reshape(3, 3), np.array([True, False, True]), np.zeros((3, 2)))
        assert fp.foreground is fp.foreground
        assert np.array_equal(fp.foreground, fp.points[[0, 2]])
