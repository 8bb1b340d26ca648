import math

import numpy as np
import pytest

from cuboidlift.geom import Box2D, Cuboid3D
from cuboidlift.ingest import Detection2D, ScoredAnnotation
from cuboidlift.metrics import (
    DIST_THRESHOLDS,
    MatchResult,
    adapted_nds,
    average_precision,
    evaluate_detections,
    map2d,
    map3d,
    match_predictions,
    nds,
    tp_errors,
)
from conftest import naive_map2d, naive_match


def ann(frame, x, y, cls="car", score=0.5, dims=(4.0, 2.0, 1.6), yaw=0.0, vel=None):
    return ScoredAnnotation(
        frame_id=frame,
        cuboid=Cuboid3D(np.array([x, y, 0.8]), dims, yaw),
        class_label=cls,
        score=score,
        velocity=vel,
    )


class TestMatchPredictions:
    def test_exact_hit_all_thresholds(self):
        gts = [ann("f", 0, 0)]
        preds = [ann("f", 0, 0, score=0.9)]
        for t in DIST_THRESHOLDS:
            m = match_predictions(preds, gts, "car", t)
            assert [r[1] for r in m.rows] == [True]

    def test_three_meters_only_matches_at_four(self):
        gts = [ann("f", 0, 0)]
        preds = [ann("f", 3.0, 0, score=0.9)]
        for t, want in [(0.5, False), (1.0, False), (2.0, False), (4.0, True)]:
            m = match_predictions(preds, gts, "car", t)
            assert m.rows[0][1] is want

    def test_frames_do_not_cross(self):
        gts = [ann("a", 0, 0)]
        preds = [ann("b", 0, 0, score=0.9)]
        m = match_predictions(preds, gts, "car", 4.0)
        assert m.rows[0][1] is False

    def test_each_gt_matched_once(self):
        gts = [ann("f", 0, 0)]
        preds = [ann("f", 0.1, 0, score=0.9), ann("f", 0.2, 0, score=0.8)]
        m = match_predictions(preds, gts, "car", 2.0)
        assert [r[1] for r in m.rows] == [True, False]

    def test_consumes_nearest_gt(self):
        gts = [ann("f", 0, 0), ann("f", 1.0, 0)]
        preds = [ann("f", 0.8, 0, score=0.9)]
        m = match_predictions(preds, gts, "car", 2.0)
        assert m.rows[0][3] == 1  # nearer GT index

    def test_score_ties_keep_input_order(self):
        gts = [ann("f", 0, 0)]
        preds = [ann("f", 1.5, 0, score=0.5), ann("f", 0.1, 0, score=0.5)]
        m = match_predictions(preds, gts, "car", 2.0)
        # first input wins the only GT despite being farther
        assert m.rows[0][2] == 0 and m.rows[0][1] is True
        assert m.rows[1][1] is False

    def test_against_naive_oracle_random(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            frames = [str(i) for i in range(3)]
            gts = [
                ann(rng.choice(frames), rng.uniform(-12, 12), rng.uniform(-12, 12),
                    cls=rng.choice(["car", "adult"]))
                for _ in range(int(rng.integers(0, 8)))
            ]
            preds = [
                ann(rng.choice(frames), rng.uniform(-12, 12), rng.uniform(-12, 12),
                    cls=rng.choice(["car", "adult"]), score=float(rng.uniform(0, 1)))
                for _ in range(int(rng.integers(0, 10)))
            ]
            for cls in ("car", "adult"):
                for t in (0.5, 2.0):
                    got = match_predictions(preds, gts, cls, t)
                    rows, npos = naive_match(preds, gts, cls, t)
                    assert got.gt_count == npos
                    assert list(got.rows) == rows

    def test_against_naive_oracle_with_ties(self):
        # centres on a 0.5 m lattice give equal distances, and some exactly
        # at a threshold; quarter-step scores give equal scores
        rng = np.random.default_rng(17)

        def lattice_ann(score=0.5):
            x, y = rng.integers(-4, 5, 2) * 0.5
            return ann(str(rng.integers(2)), x, y, cls=["car", "adult"][rng.integers(2)], score=score)

        for _ in range(100):
            gts = [lattice_ann() for _ in range(int(rng.integers(0, 8)))]
            preds = [lattice_ann(float(rng.integers(0, 5)) / 4) for _ in range(int(rng.integers(0, 10)))]
            for cls in ("car", "adult"):
                for t in DIST_THRESHOLDS:
                    got = match_predictions(preds, gts, cls, t)
                    rows, npos = naive_match(preds, gts, cls, t)
                    assert got.gt_count == npos
                    assert list(got.rows) == rows


class TestAveragePrecision:
    def test_perfect_single_detection(self):
        gts = [ann("f", 0, 0)]
        preds = [ann("f", 0, 0, score=0.9)]
        ap = average_precision(match_predictions(preds, gts, "car", 2.0))
        assert ap == 1.0

    def test_zero_tp_is_zero(self):
        gts = [ann("f", 0, 0)]
        preds = [ann("f", 40, 0, score=0.9)]
        assert average_precision(match_predictions(preds, gts, "car", 2.0)) == 0.0

    def test_no_gt_excluded(self):
        assert average_precision(MatchResult(rows=(), gt_count=0)) is None

    def test_no_predictions(self):
        assert average_precision(MatchResult(rows=(), gt_count=3)) == 0.0

    def test_hand_built_fixture(self):
        # 2 GT; descending-score outcomes TP, FP, TP (frozen via the
        # 101-point interpolation arithmetic)
        gts = [ann("f", 0, 0), ann("f", 10, 0)]
        preds = [
            ann("f", 0.1, 0, score=0.9),
            ann("f", 50, 0, score=0.8),
            ann("f", 10.2, 0, score=0.7),
        ]
        ap = average_precision(match_predictions(preds, gts, "car", 2.0))
        assert math.isclose(ap, 0.7376543209876544, rel_tol=1e-12)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            gts = [ann("f", rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(5)]
            preds = [
                ann("f", rng.uniform(-10, 10), rng.uniform(-10, 10), score=float(rng.uniform(0, 1)))
                for _ in range(8)
            ]
            aps = [average_precision(match_predictions(preds, gts, "car", t)) for t in DIST_THRESHOLDS]
            assert all(a <= b + 1e-12 for a, b in zip(aps, aps[1:]))

    def test_trailing_zero_score_fp_never_increases(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            gts = [ann("f", rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(4)]
            preds = [
                ann("f", rng.uniform(-6, 6), rng.uniform(-6, 6), score=float(rng.uniform(0.1, 1)))
                for _ in range(6)
            ]
            base = average_precision(match_predictions(preds, gts, "car", 2.0))
            extra = preds + [ann("f", 100, 100, score=0.0)]
            worse = average_precision(match_predictions(extra, gts, "car", 2.0))
            assert worse <= base + 1e-12

    def test_top_score_tp_never_decreases(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            gts = [ann("f", rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(4)]
            gts.append(ann("f", 50, 50))
            preds = [
                ann("f", rng.uniform(-6, 6), rng.uniform(-6, 6), score=float(rng.uniform(0.1, 0.9)))
                for _ in range(6)
            ]
            base = average_precision(match_predictions(preds, gts, "car", 2.0))
            extra = preds + [ann("f", 50, 50, score=1.0)]
            better = average_precision(match_predictions(extra, gts, "car", 2.0))
            assert better >= base - 1e-12


class TestTpErrors:
    def run(self, preds, gts):
        m = match_predictions(preds, gts, "car", 2.0)
        return tp_errors(m, preds, gts)

    def test_identical_pair(self):
        gts = [ann("f", 0, 0)]
        e = self.run([ann("f", 0, 0, score=0.9)], gts)
        assert e["ate"] == 0.0 and e["ase"] == 0.0 and e["aoe"] == 0.0

    def test_nested_dims_scale_error(self):
        gts = [ann("f", 0, 0, dims=(1, 1, 1))]
        e = self.run([ann("f", 0, 0, dims=(2, 2, 2), score=0.9)], gts)
        assert math.isclose(e["ase"], 0.875, rel_tol=1e-12)

    def test_opposite_yaw(self):
        gts = [ann("f", 0, 0, yaw=0.0)]
        e = self.run([ann("f", 0, 0, yaw=math.pi, score=0.9)], gts)
        assert math.isclose(e["aoe"], math.pi, rel_tol=1e-12)

    def test_no_tp_placeholder(self):
        gts = [ann("f", 0, 0)]
        e = self.run([ann("f", 50, 0, score=0.9)], gts)
        assert e == {"ate": 1.0, "ase": 1.0, "aoe": 1.0, "ave": None, "tp_count": 0}

    def test_velocity_error_only_when_both_sides_carry(self):
        gts = [ann("f", 0, 0, vel=(1.0, 0.0)), ann("f", 10, 0)]
        preds = [ann("f", 0, 0, score=0.9, vel=(2.0, 0.0)), ann("f", 10, 0, score=0.8)]
        e = self.run(preds, gts)
        assert math.isclose(e["ave"], 1.0)
        assert e["tp_count"] == 2

    def test_translation_is_bev(self):
        gts = [ann("f", 0, 0)]
        preds = [ann("f", 1.0, 0, score=0.9)]
        e = self.run(preds, gts)
        assert math.isclose(e["ate"], 1.0, rel_tol=1e-12)


class TestNds:
    def test_perfect(self):
        assert nds(1.0, [0, 0, 0, 0, 0]) == 1.0

    def test_floor(self):
        assert nds(0.0, [1.2, 1.0, 3.0, 1.0, 1.0]) == 0.0

    def test_headline_reproduction(self):
        v = nds(0.254, [0.552, 0.534, 1.133, 0.927, 0.536])
        assert abs(v - 0.272) <= 0.0005

    def test_monotone(self):
        base = nds(0.5, [0.5, 0.5, 0.5, 0.5, 0.5])
        assert nds(0.6, [0.5] * 5) > base
        assert nds(0.5, [0.6, 0.5, 0.5, 0.5, 0.5]) < base

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            nds(0.5, [0.5, 0.5])


class TestAdaptedNds:
    def test_perfect(self):
        assert adapted_nds(1.0, 0, 0, 0) == 1.0

    def test_formula_value(self):
        # the stated formula is normative; reported tables round differently
        v = adapted_nds(0.183, 0.75, 0.34, 1.51)
        assert math.isclose(v, 0.228125, rel_tol=1e-12)

    def test_saturated_errors(self):
        assert adapted_nds(0.4, 1.0, 2.0, 1.5) == 5 * 0.4 / 8

    def test_monotone(self):
        assert adapted_nds(0.5, 0.4, 0.4, 0.4) < adapted_nds(0.6, 0.4, 0.4, 0.4)
        assert adapted_nds(0.5, 0.5, 0.4, 0.4) < adapted_nds(0.5, 0.4, 0.4, 0.4)


def det2d(frame, cam, box, cls="car", score=0.5):
    return Detection2D(frame, cam, cls, Box2D(*box), score)


class TestMap2D:
    def test_perfect(self):
        gts = [det2d("f", "c", (0, 0, 10, 10)), det2d("f", "c", (20, 20, 40, 40))]
        preds = [
            det2d("f", "c", (0, 0, 10, 10), score=0.9),
            det2d("f", "c", (20, 20, 40, 40), score=0.8),
        ]
        assert map2d(preds, gts) == 1.0

    def test_no_overlap(self):
        gts = [det2d("f", "c", (0, 0, 10, 10))]
        preds = [det2d("f", "c", (50, 50, 60, 60), score=0.9)]
        assert map2d(preds, gts) == 0.0

    def test_hand_built_two_image_fixture(self):
        gts = [det2d("i1", "c", (0, 0, 10, 10)), det2d("i2", "c", (0, 0, 10, 10))]
        preds = [
            det2d("i1", "c", (0, 0, 10, 10), score=0.9),  # TP
            det2d("i2", "c", (30, 30, 40, 40), score=0.8),  # FP
            det2d("i2", "c", (1, 0, 11, 10), score=0.6),  # TP (IoU 9/11 > 0.5)
        ]
        assert math.isclose(map2d(preds, gts), 0.8349834983498359, rel_tol=1e-12)

    def test_images_do_not_cross(self):
        gts = [det2d("i1", "c", (0, 0, 10, 10))]
        preds = [det2d("i2", "c", (0, 0, 10, 10), score=0.9)]
        assert map2d(preds, gts) == 0.0

    def test_mean_over_gt_classes_only(self):
        gts = [det2d("f", "c", (0, 0, 10, 10), cls="car")]
        preds = [
            det2d("f", "c", (0, 0, 10, 10), cls="car", score=0.9),
            det2d("f", "c", (50, 50, 60, 60), cls="adult", score=0.9),
        ]
        assert map2d(preds, gts) == 1.0


    @pytest.mark.parametrize("iou_threshold", [0.5, 0.6, 1 / 3])
    def test_against_naive_matcher_with_ties(self, iou_threshold):
        # 10 px boxes on a 2.5 px lattice: a box between two GT boxes has
        # the same IoU with both, lattice repeats give duplicate GTs, and
        # 0.6 and 1/3 are the exact IoUs of 2.5 and 5 px shifts
        rng = np.random.default_rng(29)
        for _ in range(60):
            gts, preds = [], []
            for image in ("a", "b"):
                for dets, n, scored in ((gts, rng.integers(0, 6), False), (preds, rng.integers(0, 9), True)):
                    for _ in range(n):
                        x, y = rng.integers(0, 5, 2) * 2.5
                        dets.append(
                            det2d(image, "c", (x, y, x + 10, y + 10), cls=["car", "adult"][rng.integers(2)],
                                  score=round(float(rng.uniform()), 1) if scored else 1.0)
                        )
            assert map2d(preds, gts, iou_threshold) == naive_map2d(preds, gts, iou_threshold)


class TestEvaluateDetections:
    def test_self_evaluation_is_perfect(self):
        rng = np.random.default_rng(13)
        gts = []
        for f in range(3):
            for o in range(6):
                gts.append(
                    ann(str(f), o * 8.0 + rng.uniform(-1, 1), rng.uniform(-10, 10),
                        cls=["car", "adult"][o % 2], score=0.9,
                        yaw=float(rng.uniform(-math.pi, math.pi)))
                )
        report = evaluate_detections(gts, gts)
        assert report.map3d == 1.0
        assert report.mate == 0.0 and report.mase == 0.0 and report.maoe == 0.0
        assert report.nds == nds(1.0, [0, 0, 0, 1.0, 1.0])
        assert report.adapted_nds == 1.0

    def test_report_serializes(self):
        gts = [ann("f", 0, 0)]
        preds = [ann("f", 0.3, 0, score=0.9)]
        report = evaluate_detections(preds, gts, stratify=True)
        doc = report.to_json()
        assert "per_class" in doc and "car" in doc["per_class"]
        assert set(doc["stratified"]) == {"0-10", "10-20", "20-30", "0-50"}
        assert isinstance(report.format_table(), str)

    def test_stratified_bands_from_ego_origins(self):
        # frame b's ego sits 15 m along x, so its car at x = 20 is 5 m away
        gts = [ann("a", 5, 0), ann("b", 20, 0)]
        preds = [ann("a", 5, 0, score=0.9)]
        world = evaluate_detections(preds, gts, stratify=True).stratified
        ego = evaluate_detections(
            preds, gts, stratify=True, origins={"a": (0.0, 0.0), "b": (15.0, 0.0)}
        ).stratified
        assert world["0-10"] == 1.0 and world["20-30"] == 0.0
        assert ego["0-10"] == map3d(preds, gts) < 1.0
        assert ego["20-30"] == 0.0
        assert ego["0-50"] == world["0-50"]

    def test_each_threshold_matched_once_per_class(self, monkeypatch):
        from cuboidlift import metrics

        calls = []

        def counting_match(preds, gts, cls, t):
            calls.append((cls, t))
            return match_predictions(preds, gts, cls, t)

        monkeypatch.setattr(metrics, "match_predictions", counting_match)
        gts = [ann("f", 0, 0, cls="car"), ann("f", 9, 0, cls="adult")]
        preds = [ann("f", 0.3, 0, cls="car", score=0.9), ann("f", 9, 1.5, cls="adult", score=0.8)]
        report = evaluate_detections(preds, gts)
        assert sorted(calls) == sorted((c, t) for c in ("adult", "car") for t in DIST_THRESHOLDS)
        # the 2 m TP errors reuse the 2 m match
        assert report.class_tp_errors["adult"]["tp_count"] == 1
        assert report.class_ap["adult"][1.0] == 0.0

    def test_map3d_excludes_zero_gt_classes(self):
        gts = [ann("f", 0, 0, cls="car")]
        preds = [
            ann("f", 0, 0, cls="car", score=0.9),
            ann("f", 5, 5, cls="adult", score=0.9),  # no adult GT anywhere
        ]
        assert map3d(preds, gts) == 1.0
