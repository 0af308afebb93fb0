"""Voxel occupancy grids: value type, binvox file I/O, class priors, and
shape-similarity metrics.

Grids are cubic, indexed ``values[x, y, z]``, with values in [0, 1].
Binary grids (ground truth, priors) hold exactly {0, 1}; predictions and
mixed targets are real-valued.
"""

from __future__ import annotations

import io
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


# ---------------------------------------------------------------------------
# binvox I/O
#
# Layout: ASCII header then run-length-encoded payload of (value, count)
# byte pairs, count in 1..255, voxels ordered y fastest, then z, then x.
# ---------------------------------------------------------------------------

_BINVOX_MAGIC = b"#binvox 1"


def parse_binvox(data: bytes) -> VoxelGrid:
    """Decode a binvox byte string into a binary VoxelGrid."""
    stream = io.BytesIO(data)
    magic = stream.readline().rstrip(b"\r\n")
    if magic != _BINVOX_MAGIC:
        raise ValueError(f"bad binvox magic line: {magic!r}")
    dim = None
    while True:
        line = stream.readline()
        if not line:
            raise ValueError("binvox header ended before a 'data' line")
        fields = line.split()
        if not fields:
            continue
        key = fields[0]
        if key == b"dim":
            if len(fields) != 4:
                raise ValueError(f"malformed dim line: {line!r}")
            dims = [int(f) for f in fields[1:]]
            if len(set(dims)) != 1:
                raise ValueError(f"only cubic grids are supported: {dims}")
            dim = dims[0]
        elif key in (b"translate", b"scale"):
            continue  # accepted and ignored; grids are unit-cube aligned
        elif key == b"data":
            break
        else:
            raise ValueError(f"unknown binvox header line: {line!r}")
    if dim is None:
        raise ValueError("binvox header has no dim line")

    payload = stream.read()
    if len(payload) % 2 != 0:
        raise ValueError("truncated binvox payload (odd byte count)")
    raw = np.frombuffer(payload, dtype=np.uint8)
    values, counts = raw[::2], raw[1::2]
    if np.any(counts == 0):
        raise ValueError("binvox run with count 0")
    if not np.all((values == 0) | (values == 1)):
        raise ValueError("binvox run value outside {0, 1}")
    total = int(counts.sum())
    if total != dim ** 3:
        raise ValueError(
            f"binvox payload decodes {total} voxels, expected {dim ** 3}")
    flat = np.repeat(values, counts)
    # File order is y fastest, then z, then x: flat index (x, z, y).
    grid = flat.reshape(dim, dim, dim).transpose(0, 2, 1)
    return VoxelGrid(dim, grid, binary=True)


def write_binvox(grid: VoxelGrid) -> bytes:
    """Encode a binary VoxelGrid as binvox bytes with greedy maximal runs."""
    if not grid.binary:
        raise ValueError("only binary grids can be written as binvox")
    header = (f"#binvox 1\ndim {grid.dim} {grid.dim} {grid.dim}\n"
              f"translate 0 0 0\nscale 1\ndata\n").encode("ascii")
    flat = grid.values.transpose(0, 2, 1).reshape(-1).astype(np.uint8)
    out = bytearray(header)
    # Split the flat stream into maximal runs of equal value.
    boundaries = np.flatnonzero(np.diff(flat)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [flat.size]))
    for start, end in zip(starts, ends):
        value = int(flat[start])
        run = int(end - start)
        while run > 255:
            out.append(value)
            out.append(255)
            run -= 255
        out.append(value)
        out.append(run)
    return bytes(out)


def load_binvox(path) -> VoxelGrid:
    with open(path, "rb") as fh:
        return parse_binvox(fh.read())


def save_binvox(grid: VoxelGrid, path) -> None:
    from .runs import write_atomic
    write_atomic(path, write_binvox(grid))
