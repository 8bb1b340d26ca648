import json
import math

import numpy as np
import pytest

from cuboidlift import ingest
from cuboidlift.geom import Cuboid3D, RigidTransform, rot_z
from cuboidlift.ingest import (
    ClassSpec,
    Detection2D,
    FormatError,
    ScoredAnnotation,
    Taxonomy,
    load_annotations,
    load_detections,
    load_sweep_points,
    mask_to_rle,
    rle_lookup,
    write_annotations,
    write_detections,
    write_sweep_points,
)
from cuboidlift.prior import load_expert_records
from conftest import BROKEN_MANIFESTS, naive_rle_decode


@pytest.fixture
def tiny_taxonomy():
    return Taxonomy(
        classes=(
            ClassSpec("car", (4.5, 1.9, 1.7), (0, 0)),
            ClassSpec("adult", (0.7, 0.7, 1.8), (1, 1)),
        )
    )


class TestSweepIO:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.bin"
        p.write_bytes(b"")
        pts = load_sweep_points(p, stride=5)
        assert pts.shape == (0, 3)

    def test_single_record_stride4(self, tmp_path):
        p = tmp_path / "one.bin"
        np.array([1.0, 2.0, 3.0, 0.5], dtype="<f4").tofile(p)
        pts = load_sweep_points(p, stride=4)
        assert pts.shape == (1, 3)
        assert np.array_equal(pts[0], np.array([1, 2, 3], dtype=np.float32))

    @pytest.mark.parametrize("stride", [4, 5])
    def test_roundtrip_bitwise(self, tmp_path, stride):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(10_000, 3)).astype(np.float32)
        p = tmp_path / "pts.bin"
        write_sweep_points(pts, p, stride=stride)
        back = load_sweep_points(p, stride=stride)
        assert back.dtype == np.float32 and back.shape == (10_000, 3)
        assert back.flags.c_contiguous
        assert np.array_equal(back, pts)

    @pytest.mark.parametrize("stride", [4, 5])
    def test_write_fills_intensity_and_ring(self, tmp_path, stride):
        pts = np.arange(12, dtype=np.float64).reshape(4, 3)
        p = tmp_path / "pts.bin"
        write_sweep_points(pts, p, stride=stride)
        raw = np.fromfile(p, dtype="<f4").reshape(-1, stride)
        assert np.array_equal(raw[:, :3], pts)
        assert (raw[:, 3] == np.float32(0.5)).all()
        assert (raw[:, 4:] == 0).all()

    @pytest.mark.parametrize("shape", [(5, 4), (5, 2), (3,), (2, 3, 3)])
    def test_write_rejects_other_shapes(self, tmp_path, shape):
        # an (N, 4) array is not reshaped into rows of three: that would scramble it
        p = tmp_path / "pts.bin"
        with pytest.raises(ValueError, match=r"must be \(N, 3\)"):
            write_sweep_points(np.zeros(shape, np.float32), p)
        assert not p.exists()

    def test_bad_length_names_file(self, tmp_path):
        p = tmp_path / "ragged.bin"
        p.write_bytes(b"\x00" * 12)  # 3 floats, not divisible by 5
        with pytest.raises(FormatError) as err:
            load_sweep_points(p, stride=5)
        assert "ragged.bin" in str(err.value)

    @pytest.mark.parametrize("extra", [1, 2, 3])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        # whole floats, but not whole records: np.fromfile alone would drop them
        p = tmp_path / "tail.bin"
        p.write_bytes(np.ones(15, dtype="<f4").tobytes() + b"\x00" * extra)
        with pytest.raises(FormatError, match="not divisible by record stride 5"):
            load_sweep_points(p, stride=5)

    def test_rejects_nonfinite(self, tmp_path):
        p = tmp_path / "nan.bin"
        np.array([[1, np.nan, 0, 0]], dtype="<f4").tofile(p)
        with pytest.raises(FormatError):
            load_sweep_points(p, stride=4)

    @pytest.mark.parametrize("stride", [4, 5])
    def test_nonfinite_intensity_and_ring_load(self, tmp_path, stride):
        # only x, y, z are read, so only they must be finite
        p = tmp_path / "nan.bin"
        np.array([[1, 2, 3, np.nan, np.inf][:stride]], dtype="<f4").tofile(p)
        assert np.array_equal(load_sweep_points(p, stride=stride), [[1, 2, 3]])

    def test_stride5_drops_ring(self, tmp_path):
        p = tmp_path / "ring.bin"
        np.array([1, 2, 3, 0.5, 17], dtype="<f4").tofile(p)
        pts = load_sweep_points(p, stride=5)
        assert pts.shape == (1, 3)
        assert np.array_equal(pts[0], np.array([1, 2, 3], dtype=np.float32))


def random_rle(seed) -> dict:
    """Runs of random length, zero-length ones included, summing to h * w."""
    rng = np.random.default_rng(seed)
    h, w = (int(v) for v in rng.integers(1, 40, size=2))
    counts = []
    while sum(counts) < h * w:
        counts.append(min(int(rng.integers(0, 12)), h * w - sum(counts)))
    return {"size": [h, w], "counts": counts}


class TestRle:
    def test_counts_start_with_zero_run(self):
        mask = np.zeros((2, 3), dtype=bool)
        mask[0, 0] = True
        rle = mask_to_rle(mask)
        assert rle["counts"][0] == 0  # leading set pixel means empty zero-run

    @pytest.mark.parametrize(
        "build",
        [
            lambda: np.zeros((5, 7), dtype=bool),
            lambda: np.ones((5, 7), dtype=bool),
            lambda: (np.indices((6, 6)).sum(axis=0) % 2).astype(bool),
            lambda: np.random.default_rng(3).uniform(size=(20, 30)) > 0.6,
        ],
    )
    def test_roundtrip(self, build):
        mask = build()
        assert np.array_equal(naive_rle_decode(mask_to_rle(mask)), mask)

    @pytest.mark.parametrize(
        "rle",
        [
            {"size": [3, 4], "counts": [0, 2, 10]},  # leading set pixel
            {"size": [3, 4], "counts": [11, 1]},  # set last pixel
            {"size": [3, 4], "counts": [2, 0, 3, 4, 0, 0, 3]},  # zero-length interior runs
            {"size": [3, 4], "counts": [12]},  # all zeros
            {"size": [0, 5], "counts": []},
            *(random_rle(seed) for seed in range(6)),
        ],
    )
    def test_lookup_matches_naive_decode(self, rle):
        want = naive_rle_decode(rle).reshape(-1)
        assert np.array_equal(rle_lookup(rle, np.arange(want.size)), want)

    @staticmethod
    def load_mask(tmp_path, taxonomy, rle):
        rec = {"frame_id": "f", "camera_id": "c", "class": "car", "box": [0, 0, 1, 1], "score": 0.5}
        p = tmp_path / "dets.ndjson"
        p.write_text(json.dumps(dict(rec, mask_rle=rle)) + "\n")
        return load_detections(p, taxonomy)[0].mask

    def test_bad_total_rejected(self, tmp_path, tiny_taxonomy):
        with pytest.raises(FormatError):
            self.load_mask(tmp_path, tiny_taxonomy, {"size": [2, 2], "counts": [3]})

    @pytest.mark.parametrize("counts", [[-1, 5], [2, -1, 3], [1.5, 2.5], [True, 3]])
    def test_bad_count_rejected(self, tmp_path, tiny_taxonomy, counts):
        # [-1, 5] sums to 4 and used to decode silently
        with pytest.raises(FormatError, match="RLE count"):
            self.load_mask(tmp_path, tiny_taxonomy, {"size": [2, 2], "counts": counts})

    @pytest.mark.parametrize(
        "rle, why",
        [
            # a negative size used to fail inside numpy's reshape
            ({"size": [-2, -2], "counts": [4]}, r"RLE size \[-2, -2\] is negative"),
            ({"size": [0, -1], "counts": []}, r"RLE size \[0, -1\] is negative"),
            # a third entry used to fail on tuple unpacking
            ({"size": [2, 2, 1], "counts": [4]}, "expected a list of 2 integers"),
            ({"size": [2.0, 2], "counts": [4]}, "expected an integer"),
            ({"size": "22", "counts": [4]}, "expected a list of 2 integers"),
            # a dict or string used to be iterated key by key or char by char
            ({"size": [2, 2], "counts": {"4": 4}}, "RLE counts must be a list"),
            ({"size": [2, 2], "counts": "4"}, "RLE counts must be a list"),
            ({"size": [2, 2]}, "missing field 'counts'"),
        ],
    )
    def test_bad_header_cites_line(self, tmp_path, tiny_taxonomy, rle, why):
        with pytest.raises(FormatError, match=r"dets\.ndjson:1: " + why):
            self.load_mask(tmp_path, tiny_taxonomy, rle)


class TestDetectionsIO:
    def test_empty_file(self, tmp_path, tiny_taxonomy):
        p = tmp_path / "dets.ndjson"
        p.write_text("")
        assert load_detections(p, tiny_taxonomy) == []

    def test_single_line(self, tmp_path, tiny_taxonomy):
        p = tmp_path / "dets.ndjson"
        p.write_text(
            json.dumps(
                {
                    "frame_id": "000000",
                    "camera_id": "cam_0",
                    "class": "car",
                    "box": [10, 20, 110, 90],
                    "score": 0.8,
                }
            )
            + "\n"
        )
        dets = load_detections(p, tiny_taxonomy)
        assert len(dets) == 1
        assert dets[0].class_label == "car"
        assert dets[0].box.x2 == 110
        assert dets[0].mask is None

    def test_unknown_class_cites_line(self, tmp_path, tiny_taxonomy):
        rec = {"frame_id": "f", "camera_id": "c", "class": "car", "box": [0, 0, 1, 1], "score": 0.5}
        bad = dict(rec, **{"class": "spaceship"})
        p = tmp_path / "dets.ndjson"
        p.write_text("\n".join(json.dumps(r) for r in (rec, rec, bad)) + "\n")
        with pytest.raises(FormatError) as err:
            load_detections(p, tiny_taxonomy)
        assert ":3:" in str(err.value)
        assert "spaceship" in str(err.value)

    def test_malformed_json_cites_line(self, tmp_path, tiny_taxonomy):
        p = tmp_path / "dets.ndjson"
        p.write_text('{"frame_id": "f"\n')
        with pytest.raises(FormatError) as err:
            load_detections(p, tiny_taxonomy)
        assert ":1:" in str(err.value)

    def test_out_of_range_score_rejected(self, tmp_path, tiny_taxonomy):
        rec = {"frame_id": "f", "camera_id": "c", "class": "car", "box": [0, 0, 1, 1], "score": 1.5}
        p = tmp_path / "dets.ndjson"
        p.write_text(json.dumps(rec) + "\n")
        with pytest.raises(FormatError):
            load_detections(p, tiny_taxonomy)

    def test_nonfinite_box_rejected(self, tmp_path, tiny_taxonomy):
        rec = {"frame_id": "f", "camera_id": "c", "class": "car", "box": [0, 0, float("nan"), 1], "score": 0.5}
        p = tmp_path / "dets.ndjson"
        p.write_text(json.dumps(rec).replace("NaN", "NaN") + "\n")
        with pytest.raises(FormatError) as err:
            load_detections(p, tiny_taxonomy)
        assert "finite" in str(err.value) or "NaN" in str(err.value) or "nan" in str(err.value)

    def test_negative_rle_count_cites_line(self, tmp_path, tiny_taxonomy):
        rec = {"frame_id": "f", "camera_id": "c", "class": "car", "box": [0, 0, 1, 1], "score": 0.5}
        bad = dict(rec, mask_rle={"size": [2, 2], "counts": [-1, 5]})
        p = tmp_path / "dets.ndjson"
        p.write_text("\n".join(json.dumps(r) for r in (rec, bad)) + "\n")
        with pytest.raises(FormatError, match=r"dets\.ndjson:2: RLE count -1"):
            load_detections(p, tiny_taxonomy)

    @pytest.mark.parametrize(
        "value, why",
        [
            ({}, "missing field 'size'"),
            ({"counts": [4]}, "missing field 'size'"),
            ([], "mask_rle must be an RLE object"),
            (0, "mask_rle must be an RLE object"),
            ("", "mask_rle must be an RLE object"),
            (False, "mask_rle must be an RLE object"),
        ],
    )
    def test_mask_rle_that_is_not_an_rle_object_cites_line(self, tmp_path, tiny_taxonomy, value, why):
        # these used to load as "no mask"
        rec = {"frame_id": "f", "camera_id": "c", "class": "car", "box": [0, 0, 1, 1], "score": 0.5}
        p = tmp_path / "dets.ndjson"
        p.write_text("\n".join(json.dumps(r) for r in (rec, dict(rec, mask_rle=value))) + "\n")
        with pytest.raises(FormatError, match=r"dets\.ndjson:2: " + why):
            load_detections(p, tiny_taxonomy)

    def test_missing_or_null_mask_rle_is_no_mask(self, tmp_path, tiny_taxonomy):
        rec = {"frame_id": "f", "camera_id": "c", "class": "car", "box": [0, 0, 1, 1], "score": 0.5}
        p = tmp_path / "dets.ndjson"
        p.write_text("\n".join(json.dumps(r) for r in (rec, dict(rec, mask_rle=None))) + "\n")
        assert [d.mask for d in load_detections(p, tiny_taxonomy)] == [None, None]

    def test_mask_roundtrip(self, tmp_path, tiny_taxonomy):
        rng = np.random.default_rng(9)
        mask = mask_to_rle(rng.uniform(size=(12, 16)) > 0.7)
        det = Detection2D("f", "c", "car", ingest.Box2D(0, 0, 5, 5), 0.5, mask=mask)
        p = tmp_path / "dets.ndjson"
        write_detections([det], p)
        back = load_detections(p, tiny_taxonomy)
        assert back[0].mask == mask


def random_annotation(rng, frame="000000"):
    c = Cuboid3D(rng.uniform(-40, 40, 3), tuple(rng.uniform(0.3, 6, 3)), rng.uniform(-math.pi, math.pi))
    return ScoredAnnotation(
        frame_id=frame,
        cuboid=c,
        class_label="car",
        score=float(rng.uniform(0, 1)),
        track_id=int(rng.integers(0, 50)) if rng.uniform() < 0.5 else None,
        velocity=(float(rng.normal()), float(rng.normal())) if rng.uniform() < 0.5 else None,
        s2d=float(rng.uniform(0, 1)) if rng.uniform() < 0.5 else None,
        s3d=float(rng.uniform(0, 1)) if rng.uniform() < 0.5 else None,
    )


class TestAnnotationsIO:
    def test_empty_roundtrip(self, tmp_path):
        p = tmp_path / "ann.ndjson"
        write_annotations([], p)
        assert load_annotations(p) == []

    def test_random_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        items = [random_annotation(rng) for _ in range(100)]
        p = tmp_path / "ann.ndjson"
        write_annotations(items, p)
        back = load_annotations(p)
        assert len(back) == 100
        for a, b in zip(items, back):
            assert np.array_equal(a.cuboid.center, b.cuboid.center)
            assert a.cuboid.dims == b.cuboid.dims
            assert a.cuboid.yaw == b.cuboid.yaw
            assert a.score == b.score
            assert a.track_id == b.track_id
            assert a.velocity == b.velocity
            assert a.s2d == b.s2d and a.s3d == b.s3d

    def test_absent_track_id_omitted(self, tmp_path):
        a = ScoredAnnotation("f", Cuboid3D((0, 0, 0), (1, 1, 1), 0.0), "car", 0.5)
        p = tmp_path / "ann.ndjson"
        write_annotations([a], p)
        raw = json.loads(p.read_text())
        assert "track_id" not in raw and "velocity" not in raw
        assert load_annotations(p)[0].track_id is None

    def test_rejects_nonfinite(self, tmp_path):
        p = tmp_path / "ann.ndjson"
        rec = {
            "frame_id": "f",
            "class": "car",
            "center": [0, 0, float("nan")],
            "dims": [1, 1, 1],
            "yaw": 0.0,
            "score": 0.5,
        }
        p.write_text(json.dumps(rec) + "\n")
        with pytest.raises(FormatError):
            load_annotations(p)

    @pytest.mark.parametrize(
        "extra",
        [
            {"velocity": [1.0]},
            {"velocity": [1.0, 2.0, 3.0]},
            {"velocity": "12"},
            {"velocity": [float("nan"), 1.0]},
            {"velocity": [1.0, float("inf")]},
            {"s2d": float("nan")},
            {"s3d": float("-inf")},
        ],
        ids=["one_value", "three_values", "string", "nan", "inf", "nan_s2d", "inf_s3d"],
    )
    def test_rejects_bad_optional_fields(self, tmp_path, extra):
        p = tmp_path / "ann.ndjson"
        rec = {"frame_id": "f", "class": "car", "center": [0, 0, 0], "dims": [1, 1, 1], "yaw": 0.0, "score": 0.5}
        p.write_text("\n" + json.dumps({**rec, **extra}) + "\n")
        with pytest.raises(FormatError, match=f"{p}:2:"):
            load_annotations(p)


class TestReferencesInScene:
    """Given the scene, a record whose reference does not resolve in it is a
    FormatError at its line; without the scene, the record loads as written."""

    @pytest.fixture
    def scene(self):
        from cuboidlift.synth import default_cameras, DEFAULT_LIDAR_EXTRINSICS
        from cuboidlift.ingest import Scene, SensorRig, SweepFrame

        rig = SensorRig(
            cameras={c.camera_id: c for c in default_cameras(n_cameras=2)},
            lidar_extrinsics=DEFAULT_LIDAR_EXTRINSICS,
        )
        sweeps = [
            SweepFrame(
                frame_id=f"{i:06d}", timestamp=100 * (i + 1), points=np.zeros((0, 3), np.float32),
                ego_pose=RigidTransform.identity(),
            )
            for i in range(2)
        ]
        return Scene(rig=rig, sweeps=sweeps)

    DETECTION = {
        "frame_id": "000001", "camera_id": "cam_1", "class": "car", "box": [10, 20, 110, 90],
        "score": 0.5, "mask_rle": {"size": [450, 800], "counts": [360000]},
    }

    @pytest.mark.parametrize(
        "edit, why",
        [
            ({"frame_id": "zzz"}, "unknown frame 'zzz'"),
            ({"camera_id": "cam_9"}, "unknown camera id 'cam_9'"),
            (
                {"mask_rle": {"size": [2, 2], "counts": [4]}},
                r"mask size \[2, 2\] is not camera cam_1's image size \[450, 800\]",
            ),
        ],
    )
    def test_detection_reference_faults(self, tmp_path, tiny_taxonomy, scene, edit, why):
        recs = [self.DETECTION, self.DETECTION, {**self.DETECTION, **edit}]
        p = tmp_path / "dets.ndjson"
        p.write_text("".join(json.dumps(r) + "\n" for r in recs))
        with pytest.raises(FormatError, match=rf"dets\.ndjson:3: {why}$") as err:
            load_detections(p, tiny_taxonomy, scene)
        assert "missing field" not in str(err.value)
        back = load_detections(p, tiny_taxonomy)
        assert [ingest._detection_to_json(d) for d in back] == recs

    def test_detections_that_resolve_load_the_same_with_the_scene(self, tmp_path, tiny_taxonomy, scene):
        p = tmp_path / "dets.ndjson"
        p.write_text(json.dumps(self.DETECTION) + "\n" + json.dumps({**self.DETECTION, "frame_id": "000000"}) + "\n")
        assert load_detections(p, tiny_taxonomy, scene) == load_detections(p, tiny_taxonomy)

    @pytest.mark.parametrize(
        "edit, why", [({"frame_id": "zzz"}, "unknown frame 'zzz'"), ({"class": "alien"}, "unknown class 'alien'")]
    )
    def test_annotation_reference_faults(self, tmp_path, tiny_taxonomy, scene, edit, why):
        rng = np.random.default_rng(5)
        recs = [ingest.annotation_to_json(random_annotation(rng, frame=f)) for f in ("000000", "000001")]
        recs.append({**recs[0], **edit})
        p = tmp_path / "ann.ndjson"
        p.write_text("".join(json.dumps(r) + "\n" for r in recs))
        with pytest.raises(FormatError, match=rf"ann\.ndjson:3: {why}$"):
            load_annotations(p, scene, tiny_taxonomy)
        assert [ingest.annotation_to_json(a) for a in load_annotations(p)] == recs
        good = tmp_path / "good.ndjson"
        good.write_text("".join(json.dumps(r) + "\n" for r in recs[:2]))
        back = load_annotations(good, scene, tiny_taxonomy)
        assert [ingest.annotation_to_json(a) for a in back] == recs[:2]


class TestSceneIO:
    def test_manifest_roundtrip(self, tmp_path):
        from cuboidlift.synth import default_cameras, DEFAULT_LIDAR_EXTRINSICS
        from cuboidlift.ingest import Scene, SensorRig, SweepFrame

        rng = np.random.default_rng(21)
        cams = default_cameras()
        rig = SensorRig(cameras={c.camera_id: c for c in cams}, lidar_extrinsics=DEFAULT_LIDAR_EXTRINSICS)
        sweeps = []
        for i in range(3):
            pts = rng.normal(size=(50, 3)).astype(np.float32)
            ego = RigidTransform(rot_z(0.1 * i), np.array([2.0 * i, 0.0, 0.0]))
            sweeps.append(
                SweepFrame(
                    frame_id=f"{i:06d}",
                    timestamp=1_000_000 + i * 500_000,
                    points=pts,
                    ego_pose=ego,
                )
            )
        scene = Scene(rig=rig, sweeps=sweeps)
        manifest = ingest.write_scene(scene, tmp_path)
        back = ingest.load_scene(manifest)
        assert len(back.sweeps) == 3
        for a, b in zip(scene.sweeps, back.sweeps):
            assert a.frame_id == b.frame_id and a.timestamp == b.timestamp
            assert np.array_equal(a.points, b.points)
            assert np.allclose(a.ego_pose.rotation, b.ego_pose.rotation, atol=1e-12)
            assert np.allclose(a.ego_pose.translation, b.ego_pose.translation, atol=1e-12)
        cam = back.rig.camera("cam_0")
        assert cam.intrinsics == cams[0].intrinsics
        assert np.allclose(cam.extrinsics.rotation, cams[0].extrinsics.rotation, atol=1e-12)

    def test_lidar_to_world_is_each_ego_pose_after_the_rig_mount(self):
        from cuboidlift.ingest import Scene, SensorRig, SweepFrame

        rig = SensorRig(cameras={}, lidar_extrinsics=RigidTransform(rot_z(0.3), np.array([0.5, -0.2, 1.8])))
        egos = [RigidTransform(rot_z(0.1 * i), np.array([2.0 * i, 1.0, 0.0])) for i in range(3)]
        scene = Scene(rig=rig, sweeps=[SweepFrame(str(i), i, np.zeros((0, 3), np.float32), e) for i, e in enumerate(egos)])
        assert len(scene.lidar_to_world) == 3
        for ego, t in zip(egos, scene.lidar_to_world):
            want = ego @ rig.lidar_extrinsics
            assert np.array_equal(t.rotation, want.rotation) and np.array_equal(t.translation, want.translation)

    def test_nonmonotonic_timestamps_rejected(self, tmp_path):
        from cuboidlift.synth import default_cameras, DEFAULT_LIDAR_EXTRINSICS
        from cuboidlift.ingest import Scene, SensorRig, SweepFrame

        cams = default_cameras()
        rig = SensorRig(cameras={c.camera_id: c for c in cams}, lidar_extrinsics=DEFAULT_LIDAR_EXTRINSICS)
        mk = lambda i, ts: SweepFrame(
            frame_id=str(i), timestamp=ts, points=np.zeros((0, 3), np.float32),
            ego_pose=RigidTransform.identity(),
        )
        scene = Scene(rig=rig, sweeps=[mk(0, 200), mk(1, 100)])
        manifest = ingest.write_scene(scene, tmp_path)
        with pytest.raises(FormatError):
            ingest.load_scene(manifest)


    def _manifest(self, tmp_path):
        from cuboidlift.synth import default_cameras, DEFAULT_LIDAR_EXTRINSICS
        from cuboidlift.ingest import Scene, SensorRig, SweepFrame

        rig = SensorRig(
            cameras={c.camera_id: c for c in default_cameras(n_cameras=2)},
            lidar_extrinsics=DEFAULT_LIDAR_EXTRINSICS,
        )
        sweeps = [
            SweepFrame(
                frame_id=f"{i:06d}", timestamp=100 * (i + 1), points=np.zeros((0, 3), np.float32),
                ego_pose=RigidTransform.identity(),
            )
            for i in range(2)
        ]
        manifest = ingest.write_scene(Scene(rig=rig, sweeps=sweeps), tmp_path)
        with open(manifest) as f:
            return manifest, json.load(f)

    def test_duplicate_frame_id_rejected(self, tmp_path):
        manifest, doc = self._manifest(tmp_path)
        doc["sweeps"][1]["frame_id"] = doc["sweeps"][0]["frame_id"]
        with open(manifest, "w") as f:
            json.dump(doc, f)
        with pytest.raises(FormatError, match="000000"):
            ingest.load_scene(manifest)

    def test_duplicate_camera_id_rejected(self, tmp_path):
        manifest, doc = self._manifest(tmp_path)
        doc["cameras"][1]["id"] = doc["cameras"][0]["id"]
        with open(manifest, "w") as f:
            json.dump(doc, f)
        with pytest.raises(FormatError, match="cam_0"):
            ingest.load_scene(manifest)


    def test_numeric_camera_ids_become_strings(self, tmp_path):
        manifest, doc = self._manifest(tmp_path)
        for i, cam in enumerate(doc["cameras"]):
            cam["id"] = i
        with open(manifest, "w") as f:
            json.dump(doc, f)
        rig = ingest.load_scene(manifest).rig
        assert sorted(rig.cameras) == ["0", "1"]
        assert rig.camera("1").camera_id == "1"

    def test_numeric_and_string_camera_ids_collide(self, tmp_path):
        manifest, doc = self._manifest(tmp_path)
        doc["cameras"][0]["id"] = 0
        doc["cameras"][1]["id"] = "0"
        with open(manifest, "w") as f:
            json.dump(doc, f)
        with pytest.raises(FormatError, match="duplicate camera id '0'"):
            ingest.load_scene(manifest)

    @pytest.mark.parametrize("breakage", sorted(BROKEN_MANIFESTS))
    def test_malformed_manifest_names_file(self, tmp_path, breakage):
        manifest, doc = self._manifest(tmp_path)
        with open(manifest, "w") as f:
            json.dump(BROKEN_MANIFESTS[breakage](doc), f)
        with pytest.raises(FormatError) as err:
            ingest.load_scene(manifest)
        assert str(manifest) in str(err.value)

    def test_non_utf8_manifest_names_file(self, tmp_path):
        manifest, _ = self._manifest(tmp_path)
        with open(manifest, "wb") as f:
            f.write(b'{"cameras": "\xff"}')
        with pytest.raises(FormatError, match="scene.json"):
            ingest.load_scene(manifest)


LOADERS = {
    "detections": load_detections,
    "annotations": lambda p, _: load_annotations(p),
    "expert": lambda p, _: load_expert_records(p),
}

# one valid record per loader, for tests that break a single field
GOOD_RECORDS = {
    "detections": {"frame_id": "f", "camera_id": "c", "class": "car", "box": [0, 0, 1, 1], "score": 0.5},
    "annotations": {"frame_id": "f", "class": "car", "center": [0, 0, 0], "dims": [1, 1, 1], "yaw": 0.0, "score": 0.5},
    "expert": {"frame_id": "f", "camera_id": "c", "box": [0, 0, 1, 1], "dims": [1, 1, 1], "visible_faces": ["back"]},
}


class TestNdjson:
    def test_write_then_read_skips_blank_lines(self, tmp_path):
        p = tmp_path / "x.ndjson"
        ingest.write_ndjson([{"a": 1}, {"a": 2.5}], p)
        assert p.read_bytes() == b'{"a": 1}\n{"a": 2.5}\n'
        p.write_text('{"a": 1}\n\n  \n{"a": 2.5}\n')
        assert list(ingest.read_ndjson(p, lambda rec: rec["a"])) == [(1, 1), (4, 2.5)]

    def test_write_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError):
            ingest.write_ndjson([{"a": [1.0, float("nan")]}], tmp_path / "x.ndjson")

    @pytest.mark.parametrize(
        "line, fragment",
        [
            (b'{"a": 1', b"malformed JSON"),
            (b"[1, 2]", b"expected a JSON object"),
            (b'{"b": 1}', b"missing field 'a'"),
            (b'{"a": null}', b"float()"),
            (b'{"a": "x"}', b"could not convert"),
            (b'{"a": 1' + b"0" * 400 + b"}", b"too large"),
            (b'{"a": "\xff"}', b"not UTF-8"),
        ],
        ids=["malformed_json", "not_object", "missing_key", "type_error", "value_error", "oversized_int", "non_utf8"],
    )
    def test_failure_cites_line(self, tmp_path, line, fragment):
        p = tmp_path / "x.ndjson"
        p.write_bytes(b'{"a": 1}\n' + line + b"\n")
        with pytest.raises(FormatError) as err:
            list(ingest.read_ndjson(p, lambda rec: float(rec["a"])))
        assert f"{p}:2:" in str(err.value)
        assert fragment.decode() in str(err.value)

    @pytest.mark.parametrize("loader", ["detections", "annotations", "expert"])
    def test_loaders_reject_non_utf8(self, tmp_path, tiny_taxonomy, loader):
        p = tmp_path / "x.ndjson"
        p.write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff\n")
        with pytest.raises(FormatError, match=f"{p}:1: not UTF-8"):
            LOADERS[loader](p, tiny_taxonomy)

    @pytest.mark.parametrize(
        "loader, key, value",
        [
            ("detections", "box", "1234"),
            ("annotations", "dims", "111"),
            ("annotations", "track_id", 1.5),
            ("annotations", "track_id", True),
            ("expert", "box", "1234"),
            ("expert", "dims", "421"),
            ("expert", "image_region", [5]),
            ("expert", "image_region", "middle"),
        ],
        ids=["det_string_box", "ann_string_dims", "ann_fractional_track", "ann_bool_track",
             "expert_string_box", "expert_string_dims", "expert_list_region", "expert_unknown_region"],
    )
    def test_value_of_wrong_kind_cites_line(self, tmp_path, tiny_taxonomy, loader, key, value):
        good = GOOD_RECORDS[loader]
        p = tmp_path / "x.ndjson"
        p.write_text(json.dumps(good) + "\n" + json.dumps({**good, key: value}) + "\n")
        with pytest.raises(FormatError, match=f"{p}:2: expected"):
            LOADERS[loader](p, tiny_taxonomy)

    def test_oversized_integer_cites_line(self, tmp_path, tiny_taxonomy):
        rec = '{"frame_id": "f", "camera_id": "c", "class": "car", "box": [0, 0, 1, %s], "score": 0.5}'
        p = tmp_path / "dets.ndjson"
        p.write_text(rec % "1" + "\n" + rec % ("1" + "0" * 400) + "\n")
        with pytest.raises(FormatError, match=f"{p}:2:"):
            load_detections(p, tiny_taxonomy)


class TestTaxonomy:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Taxonomy(classes=(ClassSpec("car", (1, 1, 1), (0, 0)), ClassSpec("car", (2, 2, 2), (0, 0))))

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ValueError):
            Taxonomy(classes=(ClassSpec("car", (0, 1, 1), (0, 0)),))

    @pytest.mark.parametrize(
        "avg_dims, aggregation, match_radius",
        [
            ((4.0, 2.0), (0, 0), 2.0),
            ((4.0, 2.0, 1.0), (1.5, 0), 2.0),
            ((4.0, 2.0, 1.0), (0, -1), 2.0),
            ((4.0, 2.0, 1.0), (0,), 2.0),
            ((4.0, 2.0, 1.0), (0, 0), 0.0),
            ((4.0, 2.0, 1.0), (0, 0), float("nan")),
        ],
        ids=["two_dims", "fractional_past", "negative_future", "one_window", "zero_radius", "nan_radius"],
    )
    def test_class_spec_checks_itself(self, avg_dims, aggregation, match_radius):
        with pytest.raises(ValueError, match="class car"):
            ClassSpec("car", avg_dims, aggregation, match_radius)

    def test_lookup(self, tiny_taxonomy):
        assert "car" in tiny_taxonomy
        assert tiny_taxonomy.get("adult").aggregation == (1, 1)
        with pytest.raises(KeyError):
            tiny_taxonomy.get("bogus")
