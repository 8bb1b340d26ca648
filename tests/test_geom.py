import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuboidlift.geom import (
    Box2D,
    CameraIntrinsics,
    Cuboid3D,
    RigidTransform,
    bev_rect,
    cuboid_corners,
    cuboid_local,
    inside_local,
    iou_2d,
    project_boxes,
    project_cuboid_to_box,
    project_points,
    quat_to_rotmat,
    rot_z,
    wrap_angle,
    yaw_diff,
)
from conftest import naive_iou_2d, naive_point_in_cuboid, random_cuboid, run_under_blas_kernels


def make_intr(fx=100.0, fy=100.0, cx=50.0, cy=50.0, w=100, h=100):
    return CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=w, height=h)


class TestProjectPoint:
    def test_optical_axis_hits_principal_point(self):
        u, v, valid = project_points((0, 0, 1), make_intr())
        assert valid[0] and (u[0], v[0]) == (50.0, 50.0)

    def test_behind_camera_is_none(self):
        _, _, valid = project_points([(0, 0, -1), (1, 2, 0)], make_intr())
        assert not valid.any()

    def test_hand_computed(self):
        intr = make_intr(fx=500, fy=500, cx=320, cy=240, w=640, h=480)
        u, v, valid = project_points((2, 1, 4), intr)
        assert valid[0] and np.allclose([u[0], v[0]], [570, 365])

    @pytest.mark.parametrize("fx, point", [(500.0, (1.0, -1.0, 1e-310)), (1e308, (2.0, -2.0, 1.0))])
    def test_overflow_is_an_infinite_pixel_without_a_warning(self, fx, point):
        # a denormal depth or a huge focal length: the pixel lies past every image
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, v, valid = project_points(point, make_intr(fx=fx, fy=fx))
        assert valid[0] and u[0] == np.inf and v[0] == -np.inf


class TestCuboidCorners:
    def test_axis_aligned_cube(self):
        c = Cuboid3D(np.zeros(3), (2, 2, 2), 0.0)
        got = {tuple(row) for row in np.round(cuboid_corners(c), 9)}
        want = {(sx, sy, sz) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)}
        assert got == want

    def test_quarter_turn_swaps_extents(self):
        c = Cuboid3D(np.zeros(3), (4, 2, 2), math.pi / 2)
        corners = cuboid_corners(c)
        assert np.allclose(np.abs(corners[:, 0]).max(), 1.0)
        assert np.allclose(np.abs(corners[:, 1]).max(), 2.0)

    def test_rotation_matrix_oracle(self):
        c = Cuboid3D((5.0, 0.0, 0.0), (2, 2, 2), math.pi / 4)
        r = rot_z(math.pi / 4)
        local = np.array(
            [
                [1, 1, -1], [-1, 1, -1], [-1, -1, -1], [1, -1, -1],
                [1, 1, 1], [-1, 1, 1], [-1, -1, 1], [1, -1, 1],
            ],
            dtype=float,
        )
        want = local @ r.T + np.array([5.0, 0.0, 0.0])
        assert np.allclose(cuboid_corners(c), want)

    def test_roundtrip_recovers_parameters(self):
        # center, dims and yaw read back from the corner order's edges
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = random_cuboid(rng)
            corners = cuboid_corners(c)
            x_edge, y_edge, z_edge = corners[0] - corners[1], corners[0] - corners[3], corners[4] - corners[0]
            assert np.allclose(corners.mean(axis=0), c.center, atol=1e-6)
            assert np.allclose(np.linalg.norm([x_edge, y_edge, z_edge], axis=1), c.dims, atol=1e-6)
            assert yaw_diff(math.atan2(x_edge[1], x_edge[0]), c.yaw) < 1e-6


class TestPointInCuboid:
    def test_center_inside(self):
        c = Cuboid3D((1, 2, 3), (2, 3, 4), 0.7)
        assert inside_local(cuboid_local(c.center, c), c.dims).tolist() == [True]

    def test_corner_is_inside(self):
        # exact arithmetic case: axis-aligned, representable halves
        c = Cuboid3D((1, 2, 3), (2, 3, 4), 0.0)
        assert inside_local(cuboid_local(cuboid_corners(c), c), c.dims).all()

    def test_near_corner_inside_rotated(self):
        # rotated corners round-trip with last-ulp error; nudge inward
        c = Cuboid3D((1, 2, 3), (2, 3, 4), 0.7)
        corners = cuboid_corners(c)
        assert inside_local(cuboid_local(corners + (c.center - corners) * 1e-9, c), c.dims).all()

    def test_against_halfspace_oracle(self):
        rng = np.random.default_rng(11)
        c = random_cuboid(rng)
        pts = rng.uniform(-12, 12, size=(1000, 3))
        inside = inside_local(cuboid_local(pts, c), c.dims)
        assert inside.tolist() == [naive_point_in_cuboid(p, c) for p in pts]

    def test_invariant_under_joint_rigid_transform(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            c = random_cuboid(rng)
            t = RigidTransform(rot_z(rng.uniform(-math.pi, math.pi)), rng.uniform(-5, 5, 3))
            pts = rng.uniform(-12, 12, size=(25, 3))
            moved = Cuboid3D(t.apply(c.center), c.dims, c.yaw + t.heading())
            inside = inside_local(cuboid_local(pts, c), c.dims)
            assert inside.tolist() == inside_local(cuboid_local(t.apply(pts), moved), c.dims).tolist()


class TestProjectCuboid:
    def test_on_axis_box_symmetric(self):
        intr = make_intr()
        extr = RigidTransform.identity()
        c = Cuboid3D((0, 0, 10), (1, 1, 1), 0.0)
        box = project_cuboid_to_box(c, extr, intr)
        assert box is not None
        assert math.isclose(box.x1 + box.x2, 2 * intr.cx, abs_tol=1e-9)
        assert math.isclose(box.y1 + box.y2, 2 * intr.cy, abs_tol=1e-9)

    def test_behind_camera_absent(self):
        c = Cuboid3D((0, 0, -10), (1, 1, 1), 0.0)
        assert project_cuboid_to_box(c, RigidTransform.identity(), make_intr()) is None

    def test_per_corner_oracle(self):
        rng = np.random.default_rng(17)
        intr = make_intr(fx=300, fy=280, cx=320, cy=200, w=640, h=400)
        extr = RigidTransform.identity()
        for _ in range(100):
            center = np.array([rng.uniform(-4, 4), rng.uniform(-3, 3), rng.uniform(3, 25)])
            c = Cuboid3D(center, tuple(rng.uniform(0.4, 3.0, 3)), rng.uniform(-math.pi, math.pi))
            box = project_cuboid_to_box(c, extr, intr)
            uvs = [
                (intr.fx * x / z + intr.cx, intr.fy * y / z + intr.cy)
                for x, y, z in cuboid_corners(c)
                if z > 0
            ]
            if not uvs:
                assert box is None
                continue
            us = [uv[0] for uv in uvs]
            vs = [uv[1] for uv in uvs]
            clip = lambda v, hi: min(max(v, 0.0), float(hi))
            assert math.isclose(box.x1, clip(min(us), intr.width), abs_tol=1e-9)
            assert math.isclose(box.x2, clip(max(us), intr.width), abs_tol=1e-9)
            assert math.isclose(box.y1, clip(min(vs), intr.height), abs_tol=1e-9)
            assert math.isclose(box.y2, clip(max(vs), intr.height), abs_tol=1e-9)

    def test_batch_rows_without_front_corner_have_no_box(self, recwarn):
        intr = make_intr()
        cubs = [Cuboid3D((0, 0, 10), (1, 1, 1), 0.2), Cuboid3D((0, 0, -10), (1, 1, 1), 0.0)]
        corners = np.stack([cuboid_corners(c) for c in cubs], axis=1)
        boxes, has_box = project_boxes(corners, RigidTransform.identity(), intr)
        assert has_box.tolist() == [True, False]
        front = project_cuboid_to_box(cubs[0], RigidTransform.identity(), intr)
        assert boxes[0].tolist() == [front.x1, front.y1, front.x2, front.y2]
        assert boxes[1].tolist() == [0.0, 0.0, 0.0, 0.0]
        assert len(recwarn) == 0

    def test_area_shrinks_with_distance(self):
        intr = make_intr()
        extr = RigidTransform.identity()
        areas = []
        for z in (5.0, 8.0, 12.0, 20.0, 40.0):
            box = project_cuboid_to_box(Cuboid3D((0, 0, z), (1, 1, 1), 0.3), extr, intr)
            areas.append(box.area)
        assert all(a > b for a, b in zip(areas, areas[1:]))


def iou(a: Box2D, b: Box2D) -> float:
    return float(iou_2d(np.array([[a.x1, a.y1, a.x2, a.y2]]), b)[0])


IOU_PAIR_KINDS = ["random", "disjoint", "touching", "identical", "zero_area"]


def box_pair(kind: str, rng) -> tuple:
    """Two boxes related as `kind` says."""
    x1, y1 = rng.uniform(0, 100, 2)
    w, h = rng.uniform(0.5, 40, 2)
    a = Box2D(x1, y1, x1 + w, y1 + h)
    if kind == "random":
        x3, y3 = rng.uniform(0, 100, 2)
        return a, Box2D(x3, y3, x3 + rng.uniform(0, 40), y3 + rng.uniform(0, 40))
    if kind == "disjoint":
        return a, Box2D(a.x2 + rng.uniform(0.1, 5), a.y1, a.x2 + 10, a.y2)
    if kind == "touching":
        return a, Box2D(a.x2, a.y1 + h / 2, a.x2 + w, a.y2 + h / 2)
    if kind == "identical":
        return a, Box2D(a.x1, a.y1, a.x2, a.y2)
    line = Box2D(a.x1, a.y1, a.x1, a.y2)  # zero width
    return line, (line if rng.uniform() < 0.5 else a)


class TestIou2D:
    def test_identical(self):
        b = Box2D(1, 2, 5, 9)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(Box2D(0, 0, 1, 1), Box2D(2, 2, 3, 3)) == 0.0

    def test_hand_computed(self):
        assert math.isclose(iou(Box2D(0, 0, 2, 2), Box2D(1, 1, 3, 3)), 1 / 7)

    def test_zero_union(self):
        degenerate = Box2D(1, 1, 1, 1)
        assert iou(degenerate, degenerate) == 0.0

    @given(st.lists(st.floats(0, 100), min_size=8, max_size=8))
    def test_symmetric_and_bounded(self, vals):
        x1, x2 = sorted(vals[0:2])
        y1, y2 = sorted(vals[2:4])
        x3, x4 = sorted(vals[4:6])
        y3, y4 = sorted(vals[6:8])
        a, b = Box2D(x1, y1, x2, y2), Box2D(x3, y3, x4, y4)
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("kind", IOU_PAIR_KINDS)
    def test_rows_bitwise_equal_naive_both_orders(self, kind):
        rng = np.random.default_rng(IOU_PAIR_KINDS.index(kind))
        a_boxes, b_boxes = zip(*(box_pair(kind, rng) for _ in range(100)))
        for firsts, seconds in ((a_boxes, b_boxes), (b_boxes, a_boxes)):
            rows = np.array([[a.x1, a.y1, a.x2, a.y2] for a in firsts])
            for b in seconds:
                got = iou_2d(rows, b)
                for want in ([naive_iou_2d(a, b) for a in firsts], [naive_iou_2d(b, a) for a in firsts]):
                    assert got.tobytes() == np.array(want).tobytes()


class TestBevRect:
    def test_axis_aligned(self):
        r = bev_rect(Cuboid3D(np.zeros(3), (2, 4, 1), 0.0))
        assert {tuple(np.round(p, 9)) for p in r} == {(1, 2), (1, -2), (-1, 2), (-1, -2)}

    def test_half_turn_same_footprint(self):
        a = bev_rect(Cuboid3D((3, 1, 0), (2, 4, 1), 0.0))
        b = bev_rect(Cuboid3D((3, 1, 0), (2, 4, 1), math.pi))
        assert {tuple(np.round(p, 9)) for p in a} == {tuple(np.round(p, 9)) for p in b}

    def test_matches_bottom_face(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            c = random_cuboid(rng)
            assert np.allclose(bev_rect(c), cuboid_corners(c)[:4, :2])


class TestYawDiff:
    def test_zero(self):
        assert yaw_diff(0.0, 0.0) == 0.0

    def test_wraparound(self):
        assert math.isclose(yaw_diff(-math.pi + 0.1, math.pi - 0.1), 0.2, abs_tol=1e-12)

    def test_plain_difference(self):
        assert math.isclose(yaw_diff(0.3, 2.5), 2.2, abs_tol=1e-12)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_range(self, a, b):
        d = yaw_diff(a, b)
        assert 0.0 <= d <= math.pi + 1e-12


class TestRigidTransform:
    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            q = rng.normal(size=4)
            t = RigidTransform.from_quat(q, rng.uniform(-10, 10, 3))
            ident = t @ t.inverse()
            assert np.allclose(ident.rotation, np.eye(3), atol=1e-9)
            assert np.allclose(ident.translation, 0.0, atol=1e-9)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))

    def test_rejects_reflection(self):
        m = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(m, np.zeros(3))

    @staticmethod
    def boundary_table():
        def off_diagonal(e):
            # rot.T @ rot is exactly e at (0, 1) and 1 + e * e at (1, 1)
            m = np.eye(3)
            m[0, 1] = e
            return m

        table = {
            "off-diagonal 1e-6": off_diagonal(1e-6),
            "off-diagonal next float above 1e-6": off_diagonal(np.nextafter(1e-6, 1.0)),
            "off-diagonal -1e-6": off_diagonal(-1e-6),
            "scaled identity 2": 2.0 * np.eye(3),
            "scaled identity 1 + 1e-7": (1.0 + 1e-7) * np.eye(3),
            "negative determinant": np.diag([1.0, 1.0, -1.0]),
            "negative determinant, rotated": rot_z(0.4) @ np.diag([1.0, -1.0, 1.0]),
        }
        # diagonal error around allclose's tolerance there, 1e-6 + 1e-5 * 1
        s = math.sqrt(1.0 + 1.1e-5)
        for k in range(-3, 4):
            table[f"diagonal error 1.1e-5, {k:+d} ulp"] = np.diag([s + k * np.spacing(s), 1.0, 1.0])
        for v in (np.nan, np.inf, -np.inf):
            m = np.eye(3)
            m[1, 2] = v
            table[f"{v} entry"] = m
            table[f"{v} on the diagonal"] = np.diag([1.0, v, 1.0])
        return table

    @staticmethod
    def assert_checked_like_allclose(m):
        with np.errstate(invalid="ignore"):
            orthonormal = np.allclose(m.T @ m, np.eye(3), atol=1e-6)
            if not orthonormal:
                with pytest.raises(ValueError, match="not orthonormal"):
                    RigidTransform(m, np.zeros(3))
            elif np.linalg.det(m) < 0:
                with pytest.raises(ValueError, match="negative determinant"):
                    RigidTransform(m, np.zeros(3))
            else:
                RigidTransform(m, np.zeros(3))
        return orthonormal

    def test_orthonormality_check_is_allclose(self):
        verdicts = {name: self.assert_checked_like_allclose(m) for name, m in self.boundary_table().items()}
        assert verdicts["off-diagonal 1e-6"] and verdicts["off-diagonal -1e-6"]
        assert not verdicts["off-diagonal next float above 1e-6"]
        diagonal = [v for name, v in verdicts.items() if name.startswith("diagonal error")]
        assert any(diagonal) and not all(diagonal)

    def test_orthonormality_check_is_allclose_under_perturbation(self):
        rng = np.random.default_rng(43)
        verdicts = []
        for _ in range(400):
            m = quat_to_rotmat(rng.normal(size=4))
            m = m + rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-7.5, -4.5)
            verdicts.append(self.assert_checked_like_allclose(m))
        assert any(verdicts) and not all(verdicts)

    def test_apply_matches_matmul(self):
        rng = np.random.default_rng(31)
        t = RigidTransform(rot_z(0.83), np.array([1.0, -2.0, 0.5]))
        pts = rng.uniform(-5, 5, size=(10, 3))
        batch = t.apply(pts)
        for i, p in enumerate(pts):
            assert np.allclose(batch[i], t.rotation @ p + t.translation)

    def test_apply_keeps_the_bits_of_the_plain_product_on_every_blas_kernel(self):
        # `apply` computes `p @ rotation.T + translation` in a cheaper form;
        # every row count, on contiguous inputs and on the [:, :3] slices of
        # an (N, 4) array, must give that expression's bits, under each kernel
        snippet = (
            "import numpy as np\n"
            "from cuboidlift.geom import RigidTransform\n"
            "rng = np.random.default_rng(53)\n"
            "differ = 0\n"
            "for n in (1, 2, 3, 8, 17, 40000):\n"
            "    for _ in range(4):\n"
            "        t = RigidTransform.from_quat(rng.normal(size=4), rng.uniform(-50.0, 50.0, 3))\n"
            "        wide = rng.uniform(-80.0, 80.0, (n, 4))\n"
            "        for p in (np.ascontiguousarray(wide[:, :3]), wide[:, :3]):\n"
            "            want = p @ t.rotation.T + t.translation\n"
            "            differ += t.apply(p).tobytes() != want.tobytes()\n"
            "print(differ)\n"
        )
        exec(snippet.replace("print(differ)", "assert differ == 0, differ"), {})
        outs = run_under_blas_kernels(snippet)
        assert outs == {kernel: "0\n" for kernel in outs}


class TestWrapAngle:
    @given(st.floats(-100, 100))
    def test_range_and_equivalence(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi + 1e-15
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)

    def test_pi_maps_to_pi(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi


class TestCuboidValidation:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Cuboid3D(np.zeros(3), (1.0, 0.0, 1.0), 0.0)

    def test_yaw_normalized(self):
        c = Cuboid3D(np.zeros(3), (1, 1, 1), 3 * math.pi)
        assert -math.pi < c.yaw <= math.pi
