"""Cuboid confidence: BEV occupancy rate fused with 2D detection confidence.

The occupancy rate discretizes the cuboid footprint into a k x k grid in
the cuboid's own yaw-aligned frame (so the rate is rotation invariant) and
counts cells reached by at least one point that lies inside the cuboid in
3D. Cell binning is floor-based with the upper edge of the last cell
inclusive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import Cuboid3D, cuboid_local, inside_local


@dataclass(frozen=True)
class ScoringConfig:
    grid_k: int = 7
    alpha: float = 0.5

    def __post_init__(self):
        if self.grid_k < 1:
            raise ValueError("grid_k must be >= 1")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must be in [0, 1]")


def occupancy_rate(c: Cuboid3D, points: np.ndarray, k: int) -> float:
    """Fraction of occupied footprint cells, in [0, 1].

    Only points inside the cuboid in 3D count; they are binned by their
    local (x, y) into the k x k footprint grid.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(p) == 0:
        return 0.0
    local = cuboid_local(p, c)
    inside = inside_local(local, c.dims)
    if not inside.any():
        return 0.0
    l, w, _ = c.dims
    ix = np.floor((local[inside, 0] + l / 2.0) / l * k).astype(int)
    iy = np.floor((local[inside, 1] + w / 2.0) / w * k).astype(int)
    ix = np.minimum(ix, k - 1)
    iy = np.minimum(iy, k - 1)
    # cell indices are >= 0: an inside point has local x >= -l/2 and y >= -w/2
    n = np.count_nonzero(np.bincount(ix * k + iy))
    return n / float(k * k)


def fuse_score(s2d: float, s3d: float, alpha: float) -> float:
    """Affine combination alpha * s2d + (1 - alpha) * s3d."""
    for name, v in (("s2d", s2d), ("s3d", s3d), ("alpha", alpha)):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name}={v} outside [0, 1]")
    return alpha * s2d + (1.0 - alpha) * s3d


def default_alpha_grid() -> list:
    return [i * 0.05 for i in range(21)]


def tune_alpha(
    val_predictions: list,
    val_ground_truth: list,
    candidates=None,
) -> float:
    """Pick the fusion weight maximizing validation mAP3D; ties favor smaller.

    `val_predictions` are ScoredAnnotation items carrying their s2d/s3d
    components; each candidate re-fuses the scores and the full 3D mAP is
    evaluated against the ground truth.
    """
    from dataclasses import replace

    from .metrics import map3d

    if candidates is None:
        candidates = default_alpha_grid()
    candidates = list(candidates)
    if not candidates:
        raise ValueError("no candidate alphas")
    if not val_ground_truth:
        raise ValueError("empty validation set")
    for p in val_predictions:
        if p.s2d is None or p.s3d is None:
            raise ValueError("predictions must carry s2d and s3d components")

    best_alpha = None
    best_map = -1.0
    for alpha in candidates:
        rescored = [
            replace(p, score=fuse_score(p.s2d, p.s3d, alpha)) for p in val_predictions
        ]
        m = map3d(rescored, val_ground_truth)
        if m > best_map or (m == best_map and best_alpha is not None and alpha < best_alpha):
            best_map = m
            best_alpha = alpha
    return float(best_alpha)
