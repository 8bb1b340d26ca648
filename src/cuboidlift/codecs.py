"""Codecs for an (external) learned dimension refiner.

The annotation pipeline does not call them: they encode a cuboid's points
and dimensions for a refiner that runs outside this package.
"""

from __future__ import annotations

import math

import numpy as np

from .geom import cuboid_local

# Express points in the cuboid's yaw-aligned local frame.
canonicalize_points = cuboid_local


def encode_point_features(
    local_points: np.ndarray, dims, n_points: int = 512, seed: int = 0
) -> np.ndarray:
    """Per-point 9-dim features resampled to a fixed count.

    Each row is [p, d - p, d + p] with d the cuboid dimensions. Short sets
    are padded by random oversampling with replacement, long ones reduced
    by uniform random downsampling; both draw from the caller's seed.
    """
    p = np.asarray(local_points, dtype=float).reshape(-1, 3)
    m = len(p)
    if m == 0:
        raise ValueError("empty point set")
    rng = np.random.default_rng(seed)
    if m < n_points:
        extra = rng.integers(0, m, size=n_points - m)
        idx = np.concatenate([np.arange(m), extra])
    elif m > n_points:
        idx = np.sort(rng.choice(m, size=n_points, replace=False))
    else:
        idx = np.arange(m)
    p = p[idx]
    d = np.asarray(dims, dtype=float)
    return np.concatenate([p, d - p, d + p], axis=1)


def encode_dim_offsets(gt_dims, init_dims) -> tuple:
    """Log-scale dimension offsets between a target and an initial cuboid."""
    out = []
    for g, i in zip(gt_dims, init_dims):
        if g <= 0 or i <= 0:
            raise ValueError("dims must be positive")
        out.append(math.log(g / i))
    return tuple(out)


def decode_dim_offsets(init_dims, offsets) -> tuple:
    """Exact inverse of encode_dim_offsets."""
    out = []
    for i, o in zip(init_dims, offsets):
        if i <= 0:
            raise ValueError("dims must be positive")
        out.append(i * math.exp(o))
    return tuple(out)
