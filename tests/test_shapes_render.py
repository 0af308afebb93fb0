import numpy as np
import pytest

from voxmix import corpus, render, runs
from voxmix.shapes import ARCHETYPE_NAMES, ShapeSpec, param_count, voxelize


# ---------------------------------------------------------------------------
# archetypes
# ---------------------------------------------------------------------------

def test_full_box_is_solid_block_with_margin():
    grid = voxelize(ShapeSpec("box", (1.0, 1.0, 1.0)), 16)
    assert grid.dtype == bool and grid.shape == (16, 16, 16)
    inner = grid[1:15, 1:15, 1:15]
    assert inner.all()
    assert grid.sum() == inner.size
    assert not grid[0].any() and not grid[-1].any()


def test_voxelize_is_deterministic():
    spec = ShapeSpec("chair", (0.3, 0.7, 0.2, 0.9))
    a = voxelize(spec, 16)
    b = voxelize(spec, 16)
    assert np.array_equal(a, b)


def test_table_matches_constructive_oracle():
    # Loop-based re-derivation of the table archetype at dim 16.
    p = (0.4, 0.8, 0.6)
    dim = 16
    grid = voxelize(ShapeSpec("table", p), dim)

    full = dim - 2
    quarter = full // 4
    top_thick = 1 + int(p[0] * (quarter - 1) + 0.5)
    leg_w = 1 + int(p[1] * (quarter - 1) + 0.5)
    height = full // 2 + int(p[2] * (full - full // 2) + 0.5)
    top_lo = 1 + height - top_thick
    expected = np.zeros((dim, dim, dim), dtype=bool)
    for x in range(dim):
        for y in range(dim):
            for z in range(dim):
                in_top = (1 <= x < dim - 1 and 1 <= y < dim - 1
                          and top_lo <= z < 1 + height)
                leg_x = 1 <= x < 1 + leg_w or dim - 1 - leg_w <= x < dim - 1
                leg_y = 1 <= y < 1 + leg_w or dim - 1 - leg_w <= y < dim - 1
                in_leg = leg_x and leg_y and 1 <= z < top_lo
                expected[x, y, z] = in_top or in_leg
    assert np.array_equal(grid, expected)


def _faces_are_empty(grid):
    return not any(grid[face].any() or grid[:, face].any() or grid[:, :, face].any()
                   for face in (0, -1))


@pytest.mark.parametrize("archetype", ARCHETYPE_NAMES)
@pytest.mark.parametrize("dim", [8, 16, 32])
def test_occupancy_bounds_across_parameter_space(archetype, dim):
    rng = np.random.default_rng(hash(archetype) % 2 ** 32)
    arity = param_count(archetype)
    for corner in ([0.0] * arity, [1.0] * arity):
        grid = voxelize(ShapeSpec(archetype, tuple(corner)), dim)
        assert 0.0 < grid.mean() < 0.9
        assert _faces_are_empty(grid)
    for _ in range(10):
        params = tuple(rng.uniform(0, 1, arity))
        grid = voxelize(ShapeSpec(archetype, params), dim)
        assert 0.0 < grid.mean() < 0.9
        assert _faces_are_empty(grid)


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        ShapeSpec("box", (0.5, 0.5))
    with pytest.raises(ValueError):
        ShapeSpec("box", (0.5, 0.5, 1.5))


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def test_empty_volume_renders_black():
    empty = np.zeros((16, 16, 16), dtype=bool)
    image = render.render(empty, 30.0, 10.0, (32, 32))
    assert image.shape == (2, 32, 32)
    assert not image.any()


def test_asymmetric_shape_depends_on_azimuth():
    grid = voxelize(ShapeSpec("chair", (0.5, 0.5, 0.5, 0.8)), 16)
    front = render.render(grid, 0.0, 15.0)
    back = render.render(grid, 180.0, 15.0)
    assert not np.array_equal(front, back)


def test_single_voxel_rotates_as_computed_by_hand():
    # Voxel at (12, 7, 7) with the centre at 7.5: offset (+4.5, -0.5, -0.5).
    dim = 16
    grid = np.zeros((dim, dim, dim), dtype=bool)
    grid[12, 7, 7] = True

    # azimuth 90, elevation 0: the grid is rotated by -90 degrees about z,
    # mapping offset (dx, dy) -> (dy, -dx): (4.5, -0.5) -> (-0.5, -4.5),
    # so the voxel lands at (7, 3, 7): image column y=3, row 15-7=8.
    image = render.render(grid, 90.0, 0.0, (16, 16))
    assert image[0].sum() == 1.0
    assert image[0][8, 3] == 1.0

    # azimuth 0: voxel stays at (12, 7, 7) -> column 7, row 8; the ray
    # along +x first hits x=12, depth (16-12)/16.
    image0 = render.render(grid, 0.0, 0.0, (16, 16))
    assert image0[0][8, 7] == 1.0
    assert image0[1][8, 7] == pytest.approx((dim - 12) / dim)


def test_cylinder_nearly_azimuth_invariant_at_zero_elevation():
    grid = voxelize(ShapeSpec("cylstack", (0.6, 0.6, 0.6)), 16)
    reference = render.render(grid, 0.0, 0.0)
    for azimuth in (45.0, 90.0, 135.0, 215.0):
        other = render.render(grid, azimuth, 0.0)
        agreement = np.mean(reference[0] == other[0])
        assert agreement >= 0.97, f"azimuth {azimuth}: agreement {agreement}"
    # Quarter turns are exact permutations of the grid.
    assert np.array_equal(reference, render.render(grid, 90.0, 0.0))


def test_silhouette_is_binary_and_depth_bounded():
    grid = voxelize(ShapeSpec("lamp", (0.5, 0.5, 0.5, 0.5)), 16)
    image = render.render(grid, 135.0, -30.0, (48, 48))
    assert set(np.unique(image[0])) <= {0.0, 1.0}
    assert image[1].min() >= 0.0 and image[1].max() <= 1.0
    assert np.array_equal(image[0] > 0, image[1] > 0)


# ---------------------------------------------------------------------------
# 8-bit gray views, as the PGM files held them, through the dataset archive
# ---------------------------------------------------------------------------

def _stored_and_loaded(image, tmp_path):
    """`image` as silhouette and depth of one view, saved in an archive and
    loaded back as training sees it.  (`runs.load_manifest` refuses views
    that are not square, so this goes through the archive layer.)"""
    views = corpus.quantize_views(np.stack([image, image]))[None]
    record = corpus.Record("box_000", "box", 0, 0.0, 0.0)
    runs.save_archive(tmp_path / "dataset.npz", {}, {"views": views})
    _, arrays = runs.read_archive(tmp_path / "dataset.npz", "dataset",
                                  lambda meta: ("views",))
    again = corpus.DatasetManifest(
        (record,), arrays["views"], {"box_000": np.ones((2, 2, 2), dtype=bool)})
    return corpus.load_samples(again, again.records).images[0]


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    image = np.round(rng.random((24, 32)) * 255) / 255
    again = _stored_and_loaded(image, tmp_path)
    assert again.shape == (2, 24, 32) and again.dtype == np.float32
    assert np.allclose(again, image, atol=1 / 510)


def test_pgm_preserves_binary_silhouette(tmp_path):
    sil = (np.arange(64).reshape(8, 8) % 3 == 0).astype(np.float64)
    assert np.array_equal(_stored_and_loaded(sil, tmp_path)[0], sil)
