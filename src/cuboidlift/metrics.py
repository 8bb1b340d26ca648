"""Detection evaluation: distance-threshold AP, TP error terms, NDS, 2D mAP.

3D matching follows the nuScenes protocol: greedy by descending score,
ground-plane center distance thresholds [0.5, 1.0, 2.0, 4.0] m, AP from
101-point interpolated precision with the low-recall/low-precision corner
(< 0.1 each) clipped off. TP errors are plain means over the matched pairs
at the 2 m threshold. Classes without ground truth are excluded from all
means; classes with ground truth but no true positives contribute error
1.0.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geom import bev_distance, iou_2d, yaw_diff

DIST_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)
TP_ERROR_THRESHOLD = 2.0
MIN_RECALL = 0.1
MIN_PRECISION = 0.1
DISTANCE_BANDS = ((0.0, 10.0), (10.0, 20.0), (20.0, 30.0), (0.0, 50.0))


@dataclass(frozen=True)
class MatchResult:
    """Per (class, threshold) matching: rows sorted by descending score."""

    rows: tuple  # (score, is_tp, pred_index, gt_index or None)
    gt_count: int


def match_predictions(preds: list, gts: list, class_label: str, threshold_m: float) -> MatchResult:
    """Greedy same-frame matching by descending score.

    A prediction is a TP iff an unmatched same-class GT in its frame lies
    within threshold_m ground-plane distance; it consumes the nearest such
    GT. Score ties keep input order; equal distances take the lower GT
    index.
    """
    cls_preds = [(i, p) for i, p in enumerate(preds) if p.class_label == class_label]
    cls_gts = [(j, g) for j, g in enumerate(gts) if g.class_label == class_label]

    gts_by_frame = defaultdict(list)
    for j, g in cls_gts:
        gts_by_frame[g.frame_id].append(j)

    order = sorted(range(len(cls_preds)), key=lambda k: -cls_preds[k][1].score)
    taken = set()
    rows = []
    for k in order:
        pi, p = cls_preds[k]
        best_j = None
        best_d = math.inf
        for j in gts_by_frame.get(p.frame_id, ()):
            if j in taken:
                continue
            d = bev_distance(p.cuboid, gts[j].cuboid)
            if d <= threshold_m and d < best_d:
                best_d = d
                best_j = j
        if best_j is not None:
            taken.add(best_j)
            rows.append((p.score, True, pi, best_j))
        else:
            rows.append((p.score, False, pi, None))
    return MatchResult(rows=tuple(rows), gt_count=len(cls_gts))


def average_precision(match: MatchResult) -> Optional[float]:
    """nuScenes-style clipped 101-point AP; None when the class has no GT."""
    if match.gt_count == 0:
        return None
    if not match.rows:
        return 0.0
    is_tp = np.array([r[1] for r in match.rows], dtype=float)
    tp = np.cumsum(is_tp)
    fp = np.cumsum(1.0 - is_tp)
    prec = tp / (tp + fp)
    rec = tp / float(match.gt_count)
    rec_interp = np.linspace(0.0, 1.0, 101)
    prec_interp = np.interp(rec_interp, rec, prec, right=0.0)
    clipped = prec_interp[round(100 * MIN_RECALL) + 1 :] - MIN_PRECISION
    clipped[clipped < 0.0] = 0.0
    # summation error can push a perfect curve a few ulps past 1
    return min(1.0, float(np.mean(clipped)) / (1.0 - MIN_PRECISION))


def _aligned_scale_iou(dims_a, dims_b) -> float:
    inter = 1.0
    va = 1.0
    vb = 1.0
    for a, b in zip(dims_a, dims_b):
        inter *= min(a, b)
        va *= a
        vb *= b
    union = va + vb - inter
    return inter / union


def tp_errors(match: MatchResult, preds: list, gts: list) -> dict:
    """Mean translation/scale/orientation (and velocity) errors over TP pairs.

    Velocity error is computed only over pairs where both sides carry a
    velocity; `ave` is None when no such pair exists. With no TPs at all,
    every error is the 1.0 placeholder.
    """
    pairs = [(r[2], r[3]) for r in match.rows if r[1]]
    if not pairs:
        return {"ate": 1.0, "ase": 1.0, "aoe": 1.0, "ave": None, "tp_count": 0}
    trans, scale, orient, vel = [], [], [], []
    for pi, gi in pairs:
        p, g = preds[pi], gts[gi]
        trans.append(bev_distance(p.cuboid, g.cuboid))
        scale.append(1.0 - _aligned_scale_iou(p.cuboid.dims, g.cuboid.dims))
        orient.append(yaw_diff(p.cuboid.yaw, g.cuboid.yaw))
        if p.velocity is not None and g.velocity is not None:
            dv = np.array(p.velocity) - np.array(g.velocity)
            vel.append(float(np.hypot(dv[0], dv[1])))
    return {
        "ate": float(np.mean(trans)),
        "ase": float(np.mean(scale)),
        "aoe": float(np.mean(orient)),
        "ave": float(np.mean(vel)) if vel else None,
        "tp_count": len(pairs),
    }


def nds(mean_ap: float, tp_means) -> float:
    """Composite score: (5 * mAP + sum of five clipped error complements) / 10."""
    tp_means = list(tp_means)
    if len(tp_means) != 5:
        raise ValueError("expected 5 TP error means")
    total = 5.0 * mean_ap + sum(1.0 - min(1.0, e) for e in tp_means)
    return total / 10.0


def adapted_nds(mean_ap: float, ate: float, ase: float, aoe: float) -> float:
    """Variant without velocity/attribute terms: (5 * mAP + 3 complements) / 8."""
    total = 5.0 * mean_ap + sum(1.0 - min(1.0, e) for e in (ate, ase, aoe))
    return total / 8.0


# ---------------------------------------------------------------------------
# Full report


@dataclass
class MetricsReport:
    class_ap: dict  # class -> {threshold: ap}
    class_tp_errors: dict  # class -> {ate, ase, aoe, ave, tp_count}
    map3d: float
    mate: float
    mase: float
    maoe: float
    mave: Optional[float]
    maae: Optional[float]
    nds: float
    adapted_nds: float
    map2d: Optional[float] = None
    stratified: Optional[dict] = None  # "lo-hi" -> map3d

    def to_json(self) -> dict:
        doc = {
            "per_class": {
                cls: {
                    "ap": {str(t): ap for t, ap in aps.items()},
                    **{
                        k: self.class_tp_errors[cls][k]
                        for k in ("ate", "ase", "aoe", "ave", "tp_count")
                    },
                }
                for cls, aps in self.class_ap.items()
            },
            "map3d": self.map3d,
            "mate": self.mate,
            "mase": self.mase,
            "maoe": self.maoe,
            "mave": self.mave,
            "maae": self.maae,
            "nds": self.nds,
            "adapted_nds": self.adapted_nds,
        }
        if self.map2d is not None:
            doc["map2d"] = self.map2d
        if self.stratified is not None:
            doc["stratified"] = self.stratified
        return doc

    def format_table(self) -> str:
        lines = []
        lines.append(f"{'class':<24}{'AP@0.5':>8}{'AP@1.0':>8}{'AP@2.0':>8}{'AP@4.0':>8}{'ATE':>8}{'ASE':>8}{'AOE':>8}")
        for cls in sorted(self.class_ap):
            aps = self.class_ap[cls]
            err = self.class_tp_errors[cls]
            lines.append(
                f"{cls:<24}"
                + "".join(f"{aps[t]:>8.3f}" for t in DIST_THRESHOLDS)
                + f"{err['ate']:>8.3f}{err['ase']:>8.3f}{err['aoe']:>8.3f}"
            )
        lines.append("-" * 80)
        lines.append(
            f"mAP3D {self.map3d:.4f}  mATE {self.mate:.4f}  mASE {self.mase:.4f}  "
            f"mAOE {self.maoe:.4f}  NDS {self.nds:.4f}  adapted NDS {self.adapted_nds:.4f}"
        )
        if self.map2d is not None:
            lines.append(f"mAP2D {self.map2d:.4f}")
        if self.stratified:
            for band, v in self.stratified.items():
                lines.append(f"mAP3D[{band} m] {v:.4f}")
        return "\n".join(lines)


def _gt_classes(gts: list) -> list:
    seen = []
    for g in gts:
        if g.class_label not in seen:
            seen.append(g.class_label)
    return sorted(seen)


def map3d(preds: list, gts: list, thresholds=DIST_THRESHOLDS) -> float:
    """Mean over GT classes and thresholds of the clipped AP."""
    classes = _gt_classes(gts)
    if not classes:
        return 0.0
    aps = []
    for cls in classes:
        for t in thresholds:
            aps.append(average_precision(match_predictions(preds, gts, cls, t)))
    return float(np.mean([a for a in aps if a is not None]))


def evaluate_detections(
    preds: list,
    gts: list,
    thresholds=DIST_THRESHOLDS,
    tp_threshold: float = TP_ERROR_THRESHOLD,
    stratify: bool = False,
    origins: Optional[dict] = None,
) -> MetricsReport:
    """Full nuScenes-style report over annotation lists.

    `stratify` adds mAP3D per distance band. Bands are measured in the
    ground plane from `origins[frame_id]`, the (x, y) world position of
    each frame's lidar, or from the world origin when `origins` is None.
    """
    classes = _gt_classes(gts)
    class_ap = {}
    class_err = {}
    for cls in classes:
        # tp_threshold is usually one of the AP thresholds: match it once
        matches = {
            t: match_predictions(preds, gts, cls, t) for t in dict.fromkeys((*thresholds, tp_threshold))
        }
        class_ap[cls] = {t: average_precision(matches[t]) for t in thresholds}
        class_err[cls] = tp_errors(matches[tp_threshold], preds, gts)

    if classes:
        mean_ap = float(np.mean([class_ap[c][t] for c in classes for t in thresholds]))
        mate = float(np.mean([class_err[c]["ate"] for c in classes]))
        mase = float(np.mean([class_err[c]["ase"] for c in classes]))
        maoe = float(np.mean([class_err[c]["aoe"] for c in classes]))
        has_vel = any(class_err[c]["ave"] is not None for c in classes)
        mave = (
            float(np.mean([class_err[c]["ave"] if class_err[c]["ave"] is not None else 1.0 for c in classes]))
            if has_vel
            else None
        )
    else:
        mean_ap, mate, mase, maoe, mave = 0.0, 1.0, 1.0, 1.0, None

    # attributes are never predicted; the full NDS uses the 1.0 placeholder
    maae = None
    full = nds(mean_ap, [mate, mase, maoe, mave if mave is not None else 1.0, 1.0])
    adapted = adapted_nds(mean_ap, mate, mase, maoe)

    stratified = None
    if stratify:
        stratified = {}
        for lo, hi in DISTANCE_BANDS:
            sub_gts = [g for g in gts if lo <= _band_dist(g, origins) < hi]
            sub_preds = [p for p in preds if lo <= _band_dist(p, origins) < hi]
            stratified[f"{lo:g}-{hi:g}"] = map3d(sub_preds, sub_gts, thresholds)

    return MetricsReport(
        class_ap=class_ap,
        class_tp_errors=class_err,
        map3d=mean_ap,
        mate=mate,
        mase=mase,
        maoe=maoe,
        mave=mave,
        maae=maae,
        nds=full,
        adapted_nds=adapted,
        stratified=stratified,
    )


def _band_dist(a, origins: Optional[dict]) -> float:
    x, y = a.cuboid.center[0], a.cuboid.center[1]
    if origins is not None:
        ox, oy = origins[a.frame_id]
        x, y = x - ox, y - oy
    return float(np.hypot(x, y))


# ---------------------------------------------------------------------------
# 2D mAP


def _ap_coco_101(rows: list, gt_count: int) -> Optional[float]:
    """COCO-style 101-point AP with the precision envelope, no clipping."""
    if gt_count == 0:
        return None
    if not rows:
        return 0.0
    is_tp = np.array([r[1] for r in rows], dtype=float)
    tp = np.cumsum(is_tp)
    fp = np.cumsum(1.0 - is_tp)
    prec = tp / (tp + fp)
    rec = tp / float(gt_count)
    # monotone non-increasing precision envelope
    env = np.maximum.accumulate(prec[::-1])[::-1]
    out = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        idx = np.searchsorted(rec, r, side="left")
        out += env[idx] if idx < len(env) else 0.0
    return out / 101.0


def map2d(pred_dets: list, gt_dets: list, iou_threshold: float = 0.5) -> float:
    """Mean over GT classes of greedy-IoU-matched 101-point AP."""
    classes = sorted({g.class_label for g in gt_dets})
    aps = []
    for cls in classes:
        cls_preds = [p for p in pred_dets if p.class_label == cls]
        cls_gts = [(j, g) for j, g in enumerate(gt_dets) if g.class_label == cls]
        gt_by_image = defaultdict(list)
        for j, g in cls_gts:
            gt_by_image[(g.frame_id, g.camera_id)].append(j)
        order = sorted(range(len(cls_preds)), key=lambda k: -cls_preds[k].score)
        taken = set()
        rows = []
        for k in order:
            p = cls_preds[k]
            best_j, best_v = None, -1.0
            for j in gt_by_image.get((p.frame_id, p.camera_id), ()):
                if j in taken:
                    continue
                v = iou_2d(p.box, gt_dets[j].box)
                if v >= iou_threshold and v > best_v:
                    best_v = v
                    best_j = j
            if best_j is not None:
                taken.add(best_j)
                rows.append((p.score, True))
            else:
                rows.append((p.score, False))
        ap = _ap_coco_101(rows, len(cls_gts))
        if ap is not None:
            aps.append(ap)
    if not aps:
        return 0.0
    return float(np.mean(aps))
