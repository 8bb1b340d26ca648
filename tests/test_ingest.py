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
    rle_to_mask,
    write_annotations,
    write_detections,
    write_sweep_points,
)
from cuboidlift.prior import load_expert_records
from conftest import BROKEN_MANIFESTS


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
        assert pts.shape == (0, 4)

    def test_single_record_stride4(self, tmp_path):
        p = tmp_path / "one.bin"
        np.array([1.0, 2.0, 3.0, 0.5], dtype="<f4").tofile(p)
        pts = load_sweep_points(p, stride=4)
        assert pts.shape == (1, 4)
        assert np.array_equal(pts[0], np.array([1, 2, 3, 0.5], dtype=np.float32))

    @pytest.mark.parametrize("stride", [4, 5])
    def test_roundtrip_bitwise(self, tmp_path, stride):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(10_000, 4)).astype(np.float32)
        p = tmp_path / "pts.bin"
        write_sweep_points(pts, p, stride=stride)
        back = load_sweep_points(p, stride=stride)
        assert back.dtype == np.float32
        assert np.array_equal(back, pts)

    def test_bad_length_names_file(self, tmp_path):
        p = tmp_path / "ragged.bin"
        p.write_bytes(b"\x00" * 12)  # 3 floats, not divisible by 5
        with pytest.raises(FormatError) as err:
            load_sweep_points(p, stride=5)
        assert "ragged.bin" in str(err.value)

    def test_rejects_nonfinite(self, tmp_path):
        p = tmp_path / "nan.bin"
        np.array([[1, np.nan, 0, 0]], dtype="<f4").tofile(p)
        with pytest.raises(FormatError):
            load_sweep_points(p, stride=4)

    def test_stride5_drops_ring(self, tmp_path):
        p = tmp_path / "ring.bin"
        np.array([1, 2, 3, 0.5, 17], dtype="<f4").tofile(p)
        pts = load_sweep_points(p, stride=5)
        assert pts.shape == (1, 4)
        assert pts[0, 3] == np.float32(0.5)


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
        assert np.array_equal(rle_to_mask(mask_to_rle(mask)), mask)

    def test_bad_total_rejected(self):
        with pytest.raises(FormatError):
            rle_to_mask({"size": [2, 2], "counts": [3]})

    @pytest.mark.parametrize("counts", [[-1, 5], [2, -1, 3], [1.5, 2.5], [True, 3]])
    def test_bad_count_rejected(self, counts):
        # [-1, 5] sums to 4 and used to decode silently
        with pytest.raises(FormatError, match="RLE count"):
            rle_to_mask({"size": [2, 2], "counts": counts})


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

    def test_mask_roundtrip(self, tmp_path, tiny_taxonomy):
        rng = np.random.default_rng(9)
        mask = rng.uniform(size=(12, 16)) > 0.7
        det = Detection2D("f", "c", "car", ingest.Box2D(0, 0, 5, 5), 0.5, mask=mask)
        p = tmp_path / "dets.ndjson"
        write_detections([det], p)
        back = load_detections(p, tiny_taxonomy)
        assert np.array_equal(back[0].mask, mask)


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


class TestSceneIO:
    def test_manifest_roundtrip(self, tmp_path):
        from cuboidlift.synth import default_cameras, DEFAULT_LIDAR_EXTRINSICS
        from cuboidlift.ingest import Scene, SensorRig, SweepFrame

        rng = np.random.default_rng(21)
        cams = default_cameras()
        rig = SensorRig(cameras={c.camera_id: c for c in cams}, lidar_extrinsics=DEFAULT_LIDAR_EXTRINSICS)
        sweeps = []
        for i in range(3):
            pts = rng.normal(size=(50, 4)).astype(np.float32)
            ego = RigidTransform(rot_z(0.1 * i), np.array([2.0 * i, 0.0, 0.0]))
            sweeps.append(
                SweepFrame(
                    frame_id=f"{i:06d}",
                    timestamp=1_000_000 + i * 500_000,
                    points=pts,
                    ego_pose=ego,
                    sensor_pose=rig.lidar_extrinsics,
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

    def test_nonmonotonic_timestamps_rejected(self, tmp_path):
        from cuboidlift.synth import default_cameras, DEFAULT_LIDAR_EXTRINSICS
        from cuboidlift.ingest import Scene, SensorRig, SweepFrame

        cams = default_cameras()
        rig = SensorRig(cameras={c.camera_id: c for c in cams}, lidar_extrinsics=DEFAULT_LIDAR_EXTRINSICS)
        mk = lambda i, ts: SweepFrame(
            frame_id=str(i), timestamp=ts, points=np.zeros((0, 4), np.float32),
            ego_pose=RigidTransform.identity(), sensor_pose=rig.lidar_extrinsics,
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
                frame_id=f"{i:06d}", timestamp=100 * (i + 1), points=np.zeros((0, 4), np.float32),
                ego_pose=RigidTransform.identity(), sensor_pose=rig.lidar_extrinsics,
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
