"""Voxel occupancy grids: class priors and shape-similarity metrics.

A grid is a cubic (D, D, D) bool array, indexed ``grid[x, y, z]``: the
ground-truth volumes and the class priors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ProximityReport:
    """Best-IoU-against-base statistics for a set of novel-class shapes.

    per_novel_class maps class id -> mean over the class's shapes of the
    best IoU any base shape achieves against that shape.  per_shape keeps
    the underlying (novel object, best base object, iou) triples.
    """

    per_novel_class: dict[str, float]
    per_shape: list[tuple[str, str, float]] = field(default_factory=list)


def iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection-over-union of two grids' occupied voxel sets.

    Raises if the union is empty (both grids empty), so degenerate shapes
    are never silently scored.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    union = int(np.logical_or(a, b).sum())
    if union == 0:
        raise ValueError("IoU undefined: both grids are empty")
    inter = int(np.logical_and(a, b).sum())
    return inter / union


def build_prior(volumes: Sequence[np.ndarray], threshold: float) -> np.ndarray:
    """Average grids and binarize: occupied iff mean occupancy is strictly
    greater than `threshold`."""
    if not volumes:
        raise ValueError("cannot build a prior from an empty volume list")
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"prior threshold must be in [0, 1), got {threshold}")
    return np.mean(np.stack(volumes), axis=0, dtype=np.float64) > threshold


def proximity(novel: Sequence[tuple[str, str, np.ndarray]],
              base: Sequence[tuple[str, np.ndarray]]) -> ProximityReport:
    """For each (object_id, class_id, grid) in `novel`, find the best IoU
    against every (object_id, grid) in `base`; average the maxima per class.
    """
    if not novel:
        raise ValueError("novel volume set is empty")
    if not base:
        raise ValueError("base volume set is empty")
    per_shape: list[tuple[str, str, float]] = []
    by_class: dict[str, list[float]] = {}
    for obj_id, class_id, grid in novel:
        best_val = -1.0
        best_base = ""
        for base_id, base_grid in base:
            val = iou(grid, base_grid)
            if val > best_val:
                best_val = val
                best_base = base_id
        per_shape.append((obj_id, best_base, best_val))
        by_class.setdefault(class_id, []).append(best_val)
    per_class = {c: float(np.mean(vals)) for c, vals in by_class.items()}
    return ProximityReport(per_class, per_shape)
