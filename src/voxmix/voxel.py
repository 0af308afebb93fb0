"""Voxel occupancy grids: class priors and shape-similarity metrics.

A grid is a cubic (D, D, D) bool array, indexed ``grid[x, y, z]``: the
ground-truth volumes, the class priors and the binarized predictions.
`iou` is the package's one IoU, of two grids or of two stacks that
broadcast, so scoring a whole stack is one call.  `proximity` is the
per-class best IoU of novel shapes against a stack of base shapes, the
value every IoU report carries beside its class's score.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def iou(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Intersection-over-union of occupied voxel sets: a float for two
    grids, an array of floats for two stacks (..., D, D, D) that broadcast.

    Raises on a grid-shape mismatch and if a union is empty (both grids
    empty), so degenerate shapes are never silently scored.
    """
    if a.shape[-3:] != b.shape[-3:]:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    union = np.logical_or(a, b).sum(axis=(-3, -2, -1))
    if not union.all():
        raise ValueError("IoU undefined: both grids are empty")
    values = np.logical_and(a, b).sum(axis=(-3, -2, -1)) / union
    return float(values) if values.ndim == 0 else values


def build_prior(volumes: Sequence[np.ndarray], threshold: float) -> np.ndarray:
    """Average grids and binarize: occupied iff mean occupancy is strictly
    greater than `threshold`."""
    return np.mean(np.stack(volumes), axis=0, dtype=np.float64) > threshold


def proximity(novel: Sequence[tuple[str, np.ndarray]],
              base: Sequence[np.ndarray]) -> dict[str, float]:
    """Per class of the (class_id, grid) pairs in `novel`, the mean over
    its grids of the best IoU any grid of `base` achieves against each."""
    base_stack = np.stack(base)
    by_class: dict[str, list[float]] = {}
    for class_id, grid in novel:
        best = float(iou(grid, base_stack).max())
        by_class.setdefault(class_id, []).append(best)
    return {c: float(np.mean(values)) for c, values in by_class.items()}
