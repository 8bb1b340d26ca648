import json
import math

import numpy as np
import pytest

from cuboidlift.geom import Box2D, RigidTransform, rot_z, wrap_angle, yaw_diff
from cuboidlift.ingest import Detection2D, SensorRig
from cuboidlift.config import PipelineConfig
from cuboidlift.prior import (
    ExpertRecord,
    SemanticPrior,
    derive_orientation,
    expert_key,
    load_expert_records,
    route,
    write_expert_records,
)
from cuboidlift.synth import DEFAULT_LIDAR_EXTRINSICS, default_cameras

# camera axes in ego coords: x right, y down, z forward along ego +x
CAM_BASE = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


def cam_extr(heading=0.0):
    return RigidTransform(rot_z(heading) @ CAM_BASE, np.array([0.0, 0.0, 1.6]))


def record(faces, dims=(4.5, 1.9, 1.7)):
    return ExpertRecord(
        frame_id="f", camera_id="c", box=(0, 0, 10, 10), dims=dims, visible_faces=tuple(faces)
    )


IDENT = RigidTransform.identity()


class TestDeriveOrientation:
    def test_back_faces_away_from_camera(self):
        yaw = derive_orientation(record(["back"]), cam_extr(), IDENT)
        assert math.isclose(yaw, 0.0, abs_tol=1e-12)

    def test_front_faces_camera(self):
        yaw = derive_orientation(record(["front"]), cam_extr(), IDENT)
        assert math.isclose(abs(yaw), math.pi, abs_tol=1e-12)

    def test_back_right_circular_mean(self):
        yaw = derive_orientation(record(["back", "right"]), cam_extr(), IDENT)
        assert math.isclose(yaw, -math.pi / 4, abs_tol=1e-12)

    def test_opposition_resolves_to_canonical_first(self):
        # front before back in the canonical order
        yaw = derive_orientation(record(["back", "front"]), cam_extr(), IDENT)
        assert math.isclose(abs(yaw), math.pi, abs_tol=1e-9)

    def test_output_range(self):
        rng = np.random.default_rng(3)
        faces_pool = ["front", "back", "left", "right"]
        for _ in range(200):
            k = int(rng.integers(1, 4))
            faces = list(rng.choice(faces_pool, size=k, replace=False))
            yaw = derive_orientation(record(faces), cam_extr(rng.uniform(-math.pi, math.pi)), IDENT)
            assert -math.pi < yaw <= math.pi

    def test_rotating_camera_rotates_yaw(self):
        rng = np.random.default_rng(5)
        base = derive_orientation(record(["left"]), cam_extr(0.0), IDENT)
        for _ in range(50):
            phi = float(rng.uniform(-math.pi, math.pi))
            got = derive_orientation(record(["left"]), cam_extr(phi), IDENT)
            assert yaw_diff(got, base + phi) < 1e-9

    def test_lidar_extrinsics_compensated(self):
        # rotating the lidar mount rotates the frame the yaw lives in
        lidar = RigidTransform(rot_z(0.9), np.array([0.0, 0.0, 1.8]))
        yaw = derive_orientation(record(["back"]), cam_extr(0.0), lidar)
        assert math.isclose(yaw, wrap_angle(-0.9), abs_tol=1e-12)

    def test_empty_faces_rejected(self):
        with pytest.raises(ValueError):
            ExpertRecord("f", "c", (0, 0, 1, 1), (1, 1, 1), ())


@pytest.fixture(scope="module")
def rig():
    cams = default_cameras()
    return SensorRig(cameras={c.camera_id: c for c in cams}, lidar_extrinsics=DEFAULT_LIDAR_EXTRINSICS)


def detection(score, camera_id="cam_0"):
    return Detection2D("f0", camera_id, "car", Box2D(10, 10, 60, 40), score)


def route_with_defaults(det, rec, taxonomy, rig):
    cfg = PipelineConfig()
    return route(det, rec, taxonomy, rig, cfg.routing_threshold, cfg.sector_half_width)


class TestRoute:
    def test_confident_with_record(self, taxonomy, rig):
        rec = ExpertRecord("f0", "cam_0", (10, 10, 60, 40), (4.2, 1.8, 1.5), ("back",))
        prior = route_with_defaults(detection(0.9), rec, taxonomy, rig)
        assert prior.source == "per_instance"
        assert prior.dims == (4.2, 1.8, 1.5)
        assert prior.orientation is not None
        assert prior.sector_half_width == PipelineConfig().sector_half_width

    def test_low_confidence_falls_back(self, taxonomy, rig):
        rec = ExpertRecord("f0", "cam_0", (10, 10, 60, 40), (4.2, 1.8, 1.5), ("back",))
        prior = route_with_defaults(detection(0.2), rec, taxonomy, rig)
        assert prior.source == "class_average"
        assert prior.dims == taxonomy.get("car").avg_dims
        assert prior.orientation is None
        assert prior.sector_half_width == math.pi

    def test_missing_record_falls_back(self, taxonomy, rig):
        prior = route_with_defaults(detection(0.9), None, taxonomy, rig)
        assert prior.source == "class_average"
        assert prior.sector_half_width == math.pi

    def test_threshold_is_inclusive(self, taxonomy, rig):
        rec = ExpertRecord("f0", "cam_0", (10, 10, 60, 40), (4.2, 1.8, 1.5), ("back",))
        assert route_with_defaults(detection(0.3), rec, taxonomy, rig).source == "per_instance"
        assert route_with_defaults(detection(0.2999), rec, taxonomy, rig).source == "class_average"

    def test_positive_dims_always(self, taxonomy, rig):
        rng = np.random.default_rng(7)
        for _ in range(50):
            score = float(rng.uniform(0, 1))
            rec = None
            if rng.uniform() < 0.5:
                rec = ExpertRecord(
                    "f0", "cam_0", (10, 10, 60, 40), tuple(rng.uniform(0.1, 8, 3)), ("left",)
                )
            prior = route_with_defaults(detection(score), rec, taxonomy, rig)
            assert all(d > 0 for d in prior.dims)

    def test_unknown_class(self, taxonomy, rig):
        det = Detection2D("f0", "cam_0", "car", Box2D(0, 0, 1, 1), 0.5)
        bad = Detection2D("f0", "cam_0", "adult", Box2D(0, 0, 1, 1), 0.5)
        route_with_defaults(det, None, taxonomy, rig)
        from dataclasses import replace

        with pytest.raises(KeyError):
            route_with_defaults(replace(bad, class_label="hovercraft"), None, taxonomy, rig)


class TestExpertRecordsIO:
    def test_roundtrip_and_key_rounding(self, tmp_path):
        recs = [
            ExpertRecord("f0", "cam_0", (10.04, 20.0, 110.96, 90.0), (4.0, 1.9, 1.6), ("back", "left"), "center"),
            ExpertRecord("f1", "cam_2", (0.0, 0.0, 50.0, 40.0), (0.7, 0.7, 1.8), ("front",), "left"),
        ]
        p = tmp_path / "expert.ndjson"
        write_expert_records(recs, p)
        index = load_expert_records(p)
        assert len(index) == 2
        # a detection whose box differs below the rounding precision still joins
        det = Detection2D("f0", "cam_0", "car", Box2D(10.02, 20.01, 110.98, 89.99), 0.9)
        assert expert_key(det) in index
        rec = index[expert_key(det)]
        assert rec.visible_faces == ("back", "left")

    def test_malformed_line_cites_lineno(self, tmp_path):
        p = tmp_path / "expert.ndjson"
        p.write_text('{"frame_id": "f"}\n')
        from cuboidlift.ingest import FormatError

        with pytest.raises(FormatError) as err:
            load_expert_records(p)
        assert ":1:" in str(err.value)

    @pytest.mark.parametrize("faces", [{"front": 1}, "back", None])
    def test_visible_faces_must_be_a_list(self, tmp_path, faces):
        rec = {"frame_id": "f0", "camera_id": "cam_0", "box": [0, 0, 10, 10], "dims": [4, 2, 1.5],
               "visible_faces": faces}
        p = tmp_path / "expert.ndjson"
        p.write_text(json.dumps(rec) + "\n")
        from cuboidlift.ingest import FormatError

        with pytest.raises(FormatError) as err:
            load_expert_records(p)
        assert str(err.value).startswith(f"{p}:1: visible_faces: expected a list of face names")

    def test_duplicate_key_cites_lineno(self, tmp_path):
        # line 3 differs from line 1 only below the key's rounding precision
        recs = [
            ExpertRecord("f0", "cam_0", (10.0, 20.0, 110.0, 90.0), (4.0, 1.9, 1.6), ("back",)),
            ExpertRecord("f1", "cam_0", (10.0, 20.0, 110.0, 90.0), (4.0, 1.9, 1.6), ("back",)),
            ExpertRecord("f0", "cam_0", (10.02, 20.0, 110.0, 90.0), (4.4, 1.9, 1.6), ("front",)),
        ]
        p = tmp_path / "expert.ndjson"
        write_expert_records(recs, p)
        from cuboidlift.ingest import FormatError

        with pytest.raises(FormatError) as err:
            load_expert_records(p)
        assert f"{p}:3:" in str(err.value)


class TestSemanticPriorType:
    def test_validation(self):
        with pytest.raises(ValueError):
            SemanticPrior(dims=(0, 1, 1), orientation=None, sector_half_width=1.0, source="class_average")
        with pytest.raises(ValueError):
            SemanticPrior(dims=(1, 1, 1), orientation=None, sector_half_width=0.0, source="class_average")
        with pytest.raises(ValueError):
            SemanticPrior(dims=(1, 1, 1), orientation=None, sector_half_width=4.0, source="class_average")
