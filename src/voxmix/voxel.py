"""Voxel occupancy grids: value type, class priors, and shape-similarity
metrics.

Grids are cubic, indexed ``values[x, y, z]``, with values in [0, 1].
Binary grids (ground truth, priors) hold exactly {0, 1}; predictions and
mixed targets are real-valued.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Binarization threshold applied to real-valued grids before IoU.  The
# conventional value for voxel-reconstruction evaluation.
DEFAULT_IOU_THRESHOLD = 0.3

# Mean-occupancy threshold for class priors.
DEFAULT_PRIOR_THRESHOLD = 0.5


@dataclass(frozen=True)
class VoxelGrid:
    """A dim^3 occupancy field. Immutable after construction."""

    dim: int
    values: np.ndarray
    binary: bool = False

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        vals = np.asarray(self.values)
        if vals.dtype.kind in "biu":
            vals = vals.astype(np.float32)
        elif vals.dtype.kind != "f":
            raise ValueError(f"unsupported voxel dtype {vals.dtype}")
        if vals.shape != (self.dim,) * 3:
            raise ValueError(
                f"values shape {vals.shape} does not match dim {self.dim}")
        if vals.size and (vals.min() < 0.0 or vals.max() > 1.0):
            raise ValueError("voxel values must lie in [0, 1]")
        if self.binary and not np.all((vals == 0.0) | (vals == 1.0)):
            raise ValueError("binary grid contains values other than 0 and 1")
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def occupied(self, threshold: float = DEFAULT_IOU_THRESHOLD) -> np.ndarray:
        """Boolean occupancy mask; real-valued grids are thresholded first."""
        if self.binary:
            return self.values == 1.0
        return self.values > threshold


@dataclass(frozen=True)
class ProximityReport:
    """Best-IoU-against-base statistics for a set of novel-class shapes.

    per_novel_class maps class id -> mean over the class's shapes of the
    best IoU any base shape achieves against that shape.  per_shape keeps
    the underlying (novel object, best base object, iou) triples.
    """

    per_novel_class: dict[str, float]
    per_shape: list[tuple[str, str, float]] = field(default_factory=list)


def iou(a: VoxelGrid, b: VoxelGrid,
        threshold: float = DEFAULT_IOU_THRESHOLD) -> float:
    """Intersection-over-union of occupied voxel sets.

    Real-valued inputs are binarized at `threshold` first.  Raises if the
    union is empty (both grids empty), so degenerate shapes are never
    silently scored.
    """
    if a.dim != b.dim:
        raise ValueError(f"dim mismatch: {a.dim} vs {b.dim}")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    occ_a = a.occupied(threshold)
    occ_b = b.occupied(threshold)
    union = int(np.logical_or(occ_a, occ_b).sum())
    if union == 0:
        raise ValueError("IoU undefined: both grids are empty")
    inter = int(np.logical_and(occ_a, occ_b).sum())
    return inter / union


def build_prior(volumes: Sequence[VoxelGrid],
                threshold: float = DEFAULT_PRIOR_THRESHOLD) -> VoxelGrid:
    """Average binary volumes and binarize: occupied iff mean occupancy is
    strictly greater than `threshold`."""
    if not volumes:
        raise ValueError("cannot build a prior from an empty volume list")
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"prior threshold must be in [0, 1), got {threshold}")
    dim = volumes[0].dim
    for v in volumes:
        if v.dim != dim:
            raise ValueError(f"dim mismatch: {v.dim} vs {dim}")
        if not v.binary:
            raise ValueError("priors are built from binary volumes")
    mean = np.mean([v.values for v in volumes], axis=0, dtype=np.float64)
    return VoxelGrid(dim, mean > threshold, binary=True)


def proximity(novel: Sequence[tuple[str, str, VoxelGrid]],
              base: Sequence[tuple[str, VoxelGrid]]) -> ProximityReport:
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
