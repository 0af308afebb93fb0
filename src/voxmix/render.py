"""Orthographic silhouette+depth rendering of voxel grids.

View convention: the grid is rotated about its centre by `-azimuth` around
z (up) and then `-elevation` around y, and projected along +x.  Image rows
run top-to-bottom with +z up, columns left-to-right with +y right.  Channel
0 is the binary silhouette; channel 1 is depth, mapped so the nearest
possible surface is 1.0 and empty pixels are 0.  Resampling is nearest
neighbour, so rendering is exactly deterministic.
"""

from __future__ import annotations

import numpy as np


def _rotation(azimuth_deg: float, elevation_deg: float) -> np.ndarray:
    az = np.deg2rad(azimuth_deg)
    el = np.deg2rad(elevation_deg)
    ca, sa = np.cos(az), np.sin(az)
    ce, se = np.cos(el), np.sin(el)
    rot_z = np.array([[ca, sa, 0.0], [-sa, ca, 0.0], [0.0, 0.0, 1.0]])
    rot_y = np.array([[ce, 0.0, -se], [0.0, 1.0, 0.0], [se, 0.0, ce]])
    return rot_y @ rot_z


def rotate_grid(volume: np.ndarray, azimuth: float,
                elevation: float) -> np.ndarray:
    """Nearest-neighbour resampled occupancy of a (D, D, D) bool grid after
    the view rotation."""
    dim = len(volume)
    rot = _rotation(azimuth, elevation)
    c = (dim - 1) / 2.0
    coords = np.indices((dim, dim, dim), dtype=np.float64).reshape(3, -1)
    src = rot.T @ (coords - c) + c
    idx = np.rint(src).astype(np.int64)
    inside = np.all((idx >= 0) & (idx < dim), axis=0)
    out = np.zeros(dim ** 3, dtype=bool)
    sel = idx[:, inside]
    out[inside] = volume[sel[0], sel[1], sel[2]]
    return out.reshape(dim, dim, dim)


def render(volume: np.ndarray, azimuth: float, elevation: float,
           out_size: tuple[int, int] = (32, 32)) -> np.ndarray:
    """Render a (2, H, W) float32 silhouette+depth image of the (D, D, D)
    bool grid `volume`."""
    h, w = out_size
    dim = len(volume)
    occ = rotate_grid(volume, azimuth, elevation)

    hits = occ.any(axis=0)                      # (y, z)
    first = np.argmax(occ, axis=0)              # first occupied voxel along +x
    depth = np.where(hits, (dim - first) / dim, 0.0)

    # (y, z) -> image with +z up, +y right.
    sil_img = hits.T[::-1, :]
    dep_img = depth.T[::-1, :]

    rows = (np.arange(h) * dim) // h
    cols = (np.arange(w) * dim) // w
    sil = sil_img[np.ix_(rows, cols)].astype(np.float32)
    dep = dep_img[np.ix_(rows, cols)].astype(np.float32)
    return np.stack([sil, dep])
