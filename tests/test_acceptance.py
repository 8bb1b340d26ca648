"""Acceptance suite: one test per criterion, each printing a PASS line.

The synthetic round-trip scenes are the frozen family from
conftest.criterion_scene_spec; thresholds were confirmed by oracle runs
before being frozen here (see the numbers inline).
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from cuboidlift.cli import main as cli_main
from cuboidlift.codecs import decode_dim_offsets, encode_dim_offsets, encode_point_features
from cuboidlift.frustum import extract_frustum, project_view
from cuboidlift.geom import Box2D, Cuboid3D, wrap_angle, yaw_diff
from cuboidlift.ingest import Detection2D, ScoredAnnotation
from cuboidlift.metrics import match_predictions, nds, adapted_nds
from cuboidlift.pipeline import annotate_scene
from cuboidlift.prior import SemanticPrior
from cuboidlift.score import occupancy_rate
from cuboidlift.search import (
    SearchConfig,
    enumerate_hypotheses,
    init_hypothesis,
    select_best,
)
from cuboidlift.synth import (
    DEFAULT_LIDAR_EXTRINSICS,
    SceneObject,
    SceneSpec,
    Wall,
    default_cameras,
    generate_scene,
    oracle_prior_provider,
    random_scene_spec,
    sample_visible_surface,
    straight_ego_trajectory,
    verify_roundtrip,
)
from conftest import (
    criterion_scene_spec,
    kernel_coverage,
    naive_coverage,
    naive_frustum_mask,
    naive_match,
    naive_occupancy,
    random_cuboid,
)

TRANS_TOL = 0.5  # meters, one default translation step
YAW_TOL = math.pi / 10  # one default rotation step
NOISE_RECALL_FLOOR = 0.9  # at the 1.0 m threshold; oracle run measured 1.000
RUNTIME_BUDGET_S = 5.0


def ok(msg):
    print(f"PASS {msg}")


class TestCriterion1SyntheticRoundtrip:
    def test_1a_zero_noise_oracle_priors(self, taxonomy, fine_config):
        violations = []
        n_objects = 0
        for seed in range(50):
            spec = criterion_scene_spec(seed, taxonomy, sigma=0.0, points=(500, 700), inset=1e-2)
            rep = verify_roundtrip(spec, fine_config, priors="oracle")
            n_objects += len(rep.objects)
            for o in rep.objects:
                if o.center_error > TRANS_TOL + 1e-12 or o.yaw_error > YAW_TOL + 1e-12:
                    violations.append((seed, o.class_label, o.center_error, o.yaw_error))
        assert not violations, f"objects outside tolerance: {violations}"
        ok(
            f"criterion 1a: 50 scenes, {n_objects} objects recovered within "
            f"{TRANS_TOL} m / pi/10 (0 violations)"
        )

    def test_1b_noise_class_average_recall(self, taxonomy, default_config):
        recalls = []
        for seed in range(50):
            spec = criterion_scene_spec(seed, taxonomy, sigma=0.05, points=(200, 300), inset=0.0)
            rep = verify_roundtrip(spec, default_config, priors="class_average")
            recalls.append(rep.recall[1.0])
        worst = min(recalls)
        assert worst >= NOISE_RECALL_FLOOR
        ok(f"criterion 1b: noise sigma=0.05 full-sector recall@1.0m >= {NOISE_RECALL_FLOOR} (min {worst:.3f})")

    def test_1c_runtime_target(self, taxonomy, default_config):
        spec = random_scene_spec(
            seed=4242, taxonomy=taxonomy, n_objects=20, classes=["car"], n_sweeps=1,
            noise_sigma=0.0, points_per_object=(4800, 5200), surface_inset=1e-2,
            range_m=(14.0, 48.0), angular_margin=0.015, min_objects=20,
        )
        built = generate_scene(spec)
        assert len(spec.objects) == 20
        provider = oracle_prior_provider(built, default_config)
        t0 = time.perf_counter()
        frames, summary = annotate_scene(
            built.scene, built.detections, default_config, prior_provider=provider, threads=1
        )
        elapsed = time.perf_counter() - t0
        assert summary["annotations"] > 0
        assert elapsed < RUNTIME_BUDGET_S
        ok(
            f"criterion 1c: 20-object/{len(built.detections)}-detection scene, ~5k points each, "
            f"annotate single-threaded in {elapsed:.2f}s < {RUNTIME_BUDGET_S}s"
        )


class TestCriterion2BruteForceEquivalence:
    def test_coverage_ratio(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            c = random_cuboid(rng, span=4.0)
            pts = rng.uniform(-8, 8, size=(20, 3))
            assert kernel_coverage(pts, c) == naive_coverage(pts, c)
        ok("criterion 2: coverage kernel (one-entry grids) == naive reference on 1000 instances")

    def test_occupancy_rate(self):
        rng = np.random.default_rng(103)
        for i in range(1000):
            c = random_cuboid(rng, span=4.0)
            pts = rng.uniform(-7, 7, size=(30, 3))
            k = (1, 3, 7)[i % 3]
            assert occupancy_rate(c, pts, k) == naive_occupancy(c, pts, k)
        ok("criterion 2: occupancy_rate == naive reference on 1000 instances")

    def test_frustum_membership(self, taxonomy):
        from cuboidlift.ingest import SensorRig

        cams = default_cameras()
        rig = SensorRig(cameras={c.camera_id: c for c in cams}, lidar_extrinsics=DEFAULT_LIDAR_EXTRINSICS)
        rng = np.random.default_rng(105)
        for i in range(1000):
            pts = rng.uniform(-25, 25, size=(40, 3))
            x1, x2 = sorted(rng.uniform(0, 800, 2))
            y1, y2 = sorted(rng.uniform(0, 450, 2))
            det = Detection2D("f", f"cam_{i % 6}", "car", Box2D(x1, y1, x2, y2), 0.5)
            fp = extract_frustum(project_view(pts, rig, det.camera_id, [det.box]), det)
            want = naive_frustum_mask(pts, det, rig)
            assert np.array_equal(fp.points, pts[want])
        ok("criterion 2: frustum membership == per-point reference on 1000 instances")

    def test_match_predictions(self):
        rng = np.random.default_rng(107)
        for _ in range(1000):
            frames = ["a", "b"]
            mk = lambda score: ScoredAnnotation(
                frame_id=str(rng.choice(frames)),
                cuboid=Cuboid3D(
                    np.array([rng.uniform(-10, 10), rng.uniform(-10, 10), 0.8]),
                    (4.0, 2.0, 1.6),
                    0.0,
                ),
                class_label=str(rng.choice(["car", "adult"])),
                score=score,
            )
            gts = [mk(1.0) for _ in range(int(rng.integers(0, 6)))]
            preds = [mk(float(rng.uniform(0, 1))) for _ in range(int(rng.integers(0, 7)))]
            for cls in ("car", "adult"):
                t = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
                got = match_predictions(preds, gts, cls, t)
                rows, npos = naive_match(preds, gts, cls, t)
                assert list(got.rows) == rows and got.gt_count == npos
        ok("criterion 2: match_predictions == naive reference on 1000 instances")


class TestCriterion3Determinism:
    @staticmethod
    @pytest.fixture(scope="class")
    def scene_dir(tmp_path_factory):
        out = tmp_path_factory.mktemp("det_scene")
        spec = {
            "seed": 77,
            "n_objects": 8,
            "n_sweeps": 3,
            "classes": ["car", "adult", "bicycle", "traffic-cone"],
            "noise_sigma": 0.03,
            "points_per_object": [200, 300],
            "ego_speed": 1.5,
        }
        (out / "spec.json").write_text(json.dumps(spec))
        res = CliRunner().invoke(
            cli_main, ["synth", "--spec", str(out / "spec.json"), "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        return out

    def test_annotate_byte_identical(self, scene_dir, tmp_path):
        runner = CliRunner()
        outputs = {}
        for tag, threads, seed in [
            ("t1", 1, 7), ("t4", 4, 7), ("t8", 8, 7), ("t4_again", 4, 7),
        ]:
            out = tmp_path / f"pred_{tag}.ndjson"
            res = runner.invoke(
                cli_main,
                [
                    "annotate",
                    "--scene", str(scene_dir / "scene.json"),
                    "--detections", str(scene_dir / "detections.ndjson"),
                    "--expert", str(scene_dir / "expert.ndjson"),
                    "--out", str(out),
                    "--threads", str(threads),
                    "--seed", str(seed),
                ],
            )
            assert res.exit_code == 0, res.output
            outputs[tag] = out.read_bytes()
        assert outputs["t1"] == outputs["t4"] == outputs["t8"]
        assert outputs["t4"] == outputs["t4_again"]
        assert len(outputs["t1"]) > 0
        ok("criterion 3: annotate byte-identical across threads {1,4,8} and repeat runs")


class TestCriterion4MetricFormulas:
    def test_headline_nds(self):
        v = nds(0.254, [0.552, 0.534, 1.133, 0.927, 0.536])
        assert abs(v - 0.272) <= 0.0005
        ok(f"criterion 4: nds(0.254, ...) = {v:.4f} within 0.272 +/- 0.0005")

    def test_adapted_nds_formula_is_normative(self):
        # the stated formula gives 0.228 for the reported components; the
        # reported 0.255 is not reproducible from them and the formula wins
        v = adapted_nds(0.183, 0.75, 0.34, 1.51)
        assert math.isclose(v, 0.228125, rel_tol=1e-12)
        assert abs(v - 0.255) > 0.02
        ok("criterion 4: adapted NDS follows the stated formula (documented discrepancy)")


class TestCriterion5NestedGridMonotonicity:
    def test_halved_steps_never_decrease_objective(self, taxonomy):
        from cuboidlift.frustum import FrustumPoints
        from cuboidlift.ingest import SensorRig
        from cuboidlift.geom import project_cuboid_to_box

        cams = default_cameras()
        rig = SensorRig(cameras={c.camera_id: c for c in cams}, lidar_extrinsics=DEFAULT_LIDAR_EXTRINSICS)
        rng = np.random.default_rng(55)
        coarse = SearchConfig(trans_step=0.5, rot_step=math.pi / 10, xy_range=1.0, z_range=0.5)
        fine = SearchConfig(trans_step=0.25, rot_step=math.pi / 20, xy_range=1.0, z_range=0.5)
        checked = 0
        for _ in range(100):
            dims = tuple(rng.uniform(0.5, 4.5, 3))
            bearing = rng.uniform(-0.35, 0.35)
            dist = rng.uniform(8, 25)
            center = np.array(
                [dist * math.cos(bearing), dist * math.sin(bearing), dims[2] / 2 - 1.8]
            )
            cub = Cuboid3D(center, dims, rng.uniform(-math.pi, math.pi))
            pts = sample_visible_surface(cub, np.zeros(3), 150, rng, inset=0.01)
            box = project_cuboid_to_box(
                cub, rig.camera_from_lidar("cam_0"), rig.camera("cam_0").intrinsics
            )
            det = Detection2D("f", "cam_0", "car", box, 0.9)
            prior = SemanticPrior(
                dims=dims,
                orientation=wrap_angle(cub.yaw + rng.uniform(-0.2, 0.2)),
                sector_half_width=math.pi / 6,
                source="per_instance",
            )
            fp = FrustumPoints(pts, np.ones(len(pts), bool), np.zeros((len(pts), 2)))
            init = init_hypothesis(fp, prior)
            a = select_best(enumerate_hypotheses(init, prior, coarse), fp, det, rig)
            b = select_best(enumerate_hypotheses(init, prior, fine), fp, det, rig)
            assert b.objective >= a.objective - 1e-12
            checked += 1
        ok(f"criterion 5: nested-grid monotonicity on {checked} random detections")


class TestCriterion6SectorConstraint:
    def test_selected_yaw_never_leaves_sector(self, taxonomy):
        # module invariants live in the per-module suites; this runs the
        # 10,000-selection sector check end to end
        from cuboidlift.frustum import FrustumPoints
        from cuboidlift.ingest import SensorRig

        cams = default_cameras()
        rig = SensorRig(cameras={c.camera_id: c for c in cams}, lidar_extrinsics=DEFAULT_LIDAR_EXTRINSICS)
        rng = np.random.default_rng(66)
        cfg = SearchConfig(trans_step=0.5, rot_step=math.pi / 10, xy_range=0.5, z_range=0.5)
        outside = 0
        total = 10_000
        for _ in range(total):
            anchor = float(rng.uniform(-math.pi, math.pi))
            sector = float(rng.uniform(math.pi / 10, math.pi / 4))
            dims = tuple(rng.uniform(0.5, 4.0, 3))
            center = np.array([rng.uniform(6, 20), rng.uniform(-6, 6), rng.uniform(-1.5, 0.5)])
            pts = center + rng.normal(scale=0.8, size=(25, 3))
            x1, x2 = sorted(rng.uniform(0, 800, 2))
            y1, y2 = sorted(rng.uniform(0, 450, 2))
            det = Detection2D("f", "cam_0", "car", Box2D(x1, y1, x2, y2), 0.9)
            prior = SemanticPrior(
                dims=dims, orientation=anchor, sector_half_width=sector, source="per_instance"
            )
            fp = FrustumPoints(pts, np.ones(len(pts), bool), np.zeros((len(pts), 2)))
            best = select_best(enumerate_hypotheses(init_hypothesis(fp, prior), prior, cfg), fp, det, rig)
            if yaw_diff(best.cuboid.yaw, anchor) > sector + 1e-9:
                outside += 1
        assert outside == 0
        ok(f"criterion 6: 0 of {total} selected hypotheses outside the yaw sector")


class TestCriterion7CodecRoundtrips:
    def test_dim_offsets_identity(self):
        rng = np.random.default_rng(71)
        for _ in range(1000):
            gt = tuple(rng.uniform(0.05, 40, 3))
            init = tuple(rng.uniform(0.05, 40, 3))
            back = decode_dim_offsets(init, encode_dim_offsets(gt, init))
            for a, b in zip(back, gt):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
        ok("criterion 7: dimension-offset encode/decode identity within 1e-12")

    def test_ingest_roundtrip(self, tmp_path, taxonomy):
        from cuboidlift import ingest

        built = generate_scene(criterion_scene_spec(9, taxonomy, 0.02, (80, 120), 0.0))
        manifest = ingest.write_scene(built.scene, tmp_path)
        back = ingest.load_scene(manifest)
        for a, b in zip(built.scene.sweeps, back.sweeps):
            assert np.array_equal(a.points, b.points)
        det_path = tmp_path / "d.ndjson"
        ingest.write_detections(built.detections, det_path)
        dets = ingest.load_detections(det_path, taxonomy)
        for a, b in zip(built.detections, dets):
            assert a.box == b.box and a.score == b.score
            assert np.array_equal(a.mask, b.mask)
        ann_path = tmp_path / "a.ndjson"
        ingest.write_annotations(built.gt_flat, ann_path)
        anns = ingest.load_annotations(ann_path)
        for a, b in zip(built.gt_flat, anns):
            assert np.array_equal(a.cuboid.center, b.cuboid.center)
            assert a.cuboid.yaw == b.cuboid.yaw and a.score == b.score
        ok("criterion 7: sweep/detection/annotation write-read identity")

    def test_point_feature_identities(self):
        rng = np.random.default_rng(73)
        for m in (17, 512, 801):
            pts = rng.normal(size=(m, 3))
            d = tuple(rng.uniform(0.3, 5, 3))
            f = encode_point_features(pts, d, seed=5)
            assert f.shape == (512, 9)
            assert np.allclose(f[:, 3:6] + f[:, 0:3], d, atol=0)
            assert np.allclose(f[:, 6:9] - f[:, 0:3], d, atol=0)
        ok("criterion 7: 9-dim feature identities hold for all rows")


class TestCriterion8OccluderFixture:
    def test_wall_biases_without_mask_and_mask_reduces(self, default_config):
        car = SceneObject("car", Cuboid3D(np.array([14.0, 0.0, 0.85]), (4.6, 1.95, 1.7), 0.7))
        wall = Wall(center=np.array([9.0, 0.0, 1.0]), normal_yaw=math.pi, width=6.0, height=2.0, n_points=500)
        ts, poses = straight_ego_trajectory(1)
        spec = SceneSpec(
            seed=5, objects=[car], cameras=default_cameras(), timestamps=ts,
            ego_poses=poses, lidar_extrinsics=DEFAULT_LIDAR_EXTRINSICS,
            points_per_object=(400, 500), noise_sigma=0.0, walls=[wall], surface_inset=0.01,
        )
        built = generate_scene(spec)
        provider = oracle_prior_provider(built, default_config)
        truth = car.cuboid.center
        to_sensor = -truth / np.linalg.norm(truth)

        def run(with_masks):
            if with_masks:
                dets, prov = built.detections, provider
            else:
                dets = [replace(d, mask=None) for d in built.detections]
                by_id = {id(d): provider_det for d, provider_det in zip(dets, built.detections)}
                prov = lambda d: provider(by_id[id(d)])
            frames, _ = annotate_scene(built.scene, dets, default_config, prior_provider=prov, threads=1)
            preds = [a for f in frames for a in f]
            best = min(preds, key=lambda a: float(np.linalg.norm(a.cuboid.center - truth)))
            err = float(np.linalg.norm(best.cuboid.center - truth))
            shift = float(np.dot(best.cuboid.center - truth, to_sensor))
            return err, shift

        err_nomask, shift_nomask = run(with_masks=False)
        err_mask, shift_mask = run(with_masks=True)
        # the documented failure mode: occluder points drag the box toward
        # the sensor when no mask filters them
        assert shift_nomask > 0.2
        # oracle masks remove the off-silhouette share of the wall: strictly
        # smaller error, though points on the mask itself still leak through
        assert err_mask < err_nomask
        ok(
            f"criterion 8: occluder pulls cuboid {shift_nomask:+.2f} m toward sensor without mask; "
            f"mask shrinks center error {err_nomask:.2f} -> {err_mask:.2f} m"
        )
