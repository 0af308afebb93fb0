"""Procedural shape archetypes voxelized onto cubic grids.

Each archetype maps a small vector of ratios in [0, 1] to a deterministic
binary occupancy grid with a one-voxel empty margin on every side.  The z
axis is "up"; cylindrical archetypes are centred on the grid centre so
they are rotationally symmetric about z.

`voxelize` allocates every grid and clears its margin; a builder fills
`grid` in place from `dim` and the interior side `full = dim - 2`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _lerp_int(ratio: float, lo: int, hi: int) -> int:
    """Round-half-up interpolation from [0,1] onto the integers [lo, hi]."""
    return lo + int(ratio * (hi - lo) + 0.5)


def _centered_span(size: int, dim: int) -> tuple[int, int]:
    start = 1 + (dim - 2 - size) // 2
    return start, start + size


def _disc_mask(dim: int, radius: float) -> np.ndarray:
    """Boolean (x, y) mask of a disc centred on the grid centre."""
    c = (dim - 1) / 2.0
    xs = np.arange(dim) - c
    return xs[:, None] ** 2 + xs[None, :] ** 2 <= radius ** 2


def _box(p: np.ndarray, grid: np.ndarray, dim: int, full: int) -> None:
    spans = []
    for axis in range(3):
        size = _lerp_int(p[axis], max(1, full // 4), full)
        spans.append(_centered_span(size, dim))
    grid[spans[0][0]:spans[0][1],
         spans[1][0]:spans[1][1],
         spans[2][0]:spans[2][1]] = True


def _table(p: np.ndarray, grid: np.ndarray, dim: int, full: int) -> None:
    quarter = max(1, full // 4)
    top_thick = _lerp_int(p[0], 1, quarter)
    leg_w = _lerp_int(p[1], 1, quarter)
    height = _lerp_int(p[2], full // 2, full)
    top_lo = 1 + height - top_thick
    # Top slab spans the full interior.
    grid[1:dim - 1, 1:dim - 1, top_lo:1 + height] = True
    # Four corner legs up to the underside of the top.
    for x0 in (1, dim - 1 - leg_w):
        for y0 in (1, dim - 1 - leg_w):
            grid[x0:x0 + leg_w, y0:y0 + leg_w, 1:top_lo] = True


def _chair(p: np.ndarray, grid: np.ndarray, dim: int, full: int) -> None:
    quarter = max(1, full // 4)
    seat_h = _lerp_int(p[0], full // 3, full // 2)
    seat_thick = _lerp_int(p[1], 1, max(1, full // 6))
    leg_w = _lerp_int(p[2], 1, quarter)
    back_h = _lerp_int(p[3], full // 4, full - seat_h)
    grid[1:dim - 1, 1:dim - 1, 1 + seat_h - seat_thick:1 + seat_h] = True
    for x0 in (1, dim - 1 - leg_w):
        for y0 in (1, dim - 1 - leg_w):
            grid[x0:x0 + leg_w, y0:y0 + leg_w, 1:1 + seat_h - seat_thick] = True
    # Back rest on the high-y side makes the shape azimuth-asymmetric.
    grid[1:dim - 1, dim - 1 - leg_w:dim - 1, 1 + seat_h:1 + seat_h + back_h] = True


def _lamp(p: np.ndarray, grid: np.ndarray, dim: int, full: int) -> None:
    base_r = p[0] * (0.20 * full) + 0.15 * full
    base_th = _lerp_int(p[1], 1, max(1, full // 6))
    shade_r = p[2] * (0.20 * full) + 0.12 * full
    shade_th = _lerp_int(p[3], 1, max(1, full // 4))
    base = _disc_mask(dim, base_r)
    shade = _disc_mask(dim, shade_r)
    pole = _disc_mask(dim, max(0.8, 0.06 * full))
    grid[:, :, 1:1 + base_th] = base[:, :, None]
    grid[:, :, 1 + base_th:dim - 1 - shade_th] = pole[:, :, None]
    grid[:, :, dim - 1 - shade_th:dim - 1] = shade[:, :, None]


def _lbeam(p: np.ndarray, grid: np.ndarray, dim: int, full: int) -> None:
    quarter = max(1, full // 4)
    vert_t = _lerp_int(p[0], 1, quarter)
    horiz_t = _lerp_int(p[1], 1, quarter)
    vert_h = _lerp_int(p[2], full // 2, full)
    horiz_w = _lerp_int(p[3], full // 2, full)
    # L cross-section in (x, z), extruded along the full y interior.
    grid[1:1 + vert_t, 1:dim - 1, 1:1 + vert_h] = True
    grid[1:1 + horiz_w, 1:dim - 1, 1:1 + horiz_t] = True


def _cylstack(p: np.ndarray, grid: np.ndarray, dim: int, full: int) -> None:
    radii = [p[i] * (0.25 * full) + 0.12 * full for i in range(3)]
    # Three stacked coaxial cylinders of equal height.
    seg = full // 3
    bounds = [(1, 1 + seg), (1 + seg, 1 + 2 * seg), (1 + 2 * seg, 1 + full)]
    for (z0, z1), r in zip(bounds, radii):
        disc = _disc_mask(dim, r)
        grid[:, :, z0:z1] = np.logical_or(grid[:, :, z0:z1],
                                          disc[:, :, None])


_ARCHETYPES = {
    "box": (3, _box),
    "table": (3, _table),
    "chair": (4, _chair),
    "lamp": (4, _lamp),
    "lbeam": (4, _lbeam),
    "cylstack": (3, _cylstack),
}

ARCHETYPE_NAMES = tuple(sorted(_ARCHETYPES))


def param_count(archetype: str) -> int:
    if archetype not in _ARCHETYPES:
        raise ValueError(f"unknown archetype {archetype!r}")
    return _ARCHETYPES[archetype][0]


@dataclass(frozen=True)
class ShapeSpec:
    """One shape instance: an archetype plus its ratio parameters."""

    archetype: str
    params: tuple[float, ...]

    def __post_init__(self):
        arity = param_count(self.archetype)
        if len(self.params) != arity:
            raise ValueError(
                f"{self.archetype} takes {arity} params, got {len(self.params)}")
        if any(not 0.0 <= q <= 1.0 for q in self.params):
            raise ValueError(f"params outside [0, 1]: {self.params}")


def voxelize(spec: ShapeSpec, dim: int) -> np.ndarray:
    """Deterministically voxelize a shape spec onto a (dim, dim, dim) bool
    grid."""
    if dim < 8:
        raise ValueError(f"dim must be at least 8, got {dim}")
    _, builder = _ARCHETYPES[spec.archetype]
    grid = np.zeros((dim,) * 3, bool)
    builder(np.asarray(spec.params, dtype=np.float64), grid, dim, dim - 2)
    for face in (0, -1):
        grid[face] = grid[:, face] = grid[:, :, face] = False
    frac = grid.mean()
    if not 0.0 < frac < 0.9:
        raise ValueError(
            f"degenerate {spec.archetype} occupancy {frac:.3f} for {spec.params}")
    return grid
