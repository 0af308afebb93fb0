import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxmix.voxel import build_prior, iou, proximity


def grid_from_coords(dim, coords):
    grid = np.zeros((dim, dim, dim), dtype=bool)
    for x, y, z in coords:
        grid[x, y, z] = True
    return grid


def random_binary_grid(rng, dim=8, p=0.3):
    return rng.random((dim, dim, dim)) < p


# ---------------------------------------------------------------------------
# iou
# ---------------------------------------------------------------------------

def test_iou_identity_is_one():
    g = grid_from_coords(4, [(0, 0, 0), (1, 2, 3), (3, 3, 3)])
    assert iou(g, g) == 1.0


def test_iou_disjoint_is_zero():
    a = grid_from_coords(4, [(0, 0, 0)])
    b = grid_from_coords(4, [(3, 3, 3)])
    assert iou(a, b) == 0.0


def test_iou_partial_overlap():
    # 8 occupied each, 4 shared: |intersection| = 4, |union| = 12.
    shared = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
    only_a = [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
    only_b = [(2, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 1)]
    a = grid_from_coords(4, shared + only_a)
    b = grid_from_coords(4, shared + only_b)
    assert iou(a, b) == pytest.approx(4 / 12)


def test_iou_dim_mismatch():
    with pytest.raises(ValueError):
        iou(grid_from_coords(2, [(0, 0, 0)]), grid_from_coords(4, [(0, 0, 0)]))
    with pytest.raises(ValueError, match="shape mismatch"):
        iou(np.ones((3, 2, 2, 2), bool), np.ones((3, 2, 2, 3), bool))


def test_iou_both_empty_is_an_error():
    empty = np.zeros((3, 3, 3), dtype=bool)
    with pytest.raises(ValueError, match="empty"):
        iou(empty, empty)
    # One empty union in a stack fails the whole stack.
    stack = np.ones((3, 3, 3, 3), dtype=bool)
    stack[2] = False
    with pytest.raises(ValueError, match="empty"):
        iou(stack, stack)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_iou_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    a = random_binary_grid(rng)
    b = random_binary_grid(rng)
    if not (a.any() or b.any()):
        return
    ab = iou(a, b)
    assert ab == iou(b, a)
    assert 0.0 <= ab <= 1.0
    same_sets = np.array_equal(a, b) and a.any()
    assert (ab == 1.0) == same_sets


def occupied_stack(rng, shape, dim):
    """Random grids of `shape` (..., dim, dim, dim), none of them empty."""
    grids = rng.random(shape + (dim,) * 3) < rng.uniform(0.0, 0.6)
    flat = grids.reshape(-1, dim ** 3)
    flat[np.arange(len(flat)), rng.integers(0, dim ** 3, len(flat))] = True
    return grids


def pair_iou(x, y):
    """One pair's IoU, its two counts taken as Python integers."""
    return int((x & y).sum()) / int((x | y).sum())


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_batched_iou_matches_the_scalar_iou_of_every_pair(seed, n, m, dim):
    rng = np.random.default_rng(seed)
    a = occupied_stack(rng, (n,), dim)
    b = occupied_stack(rng, (n,), dim)
    assert iou(a, b).tolist() == [pair_iou(x, y) for x, y in zip(a, b)]
    others = occupied_stack(rng, (m,), dim)
    table = iou(a[:, None], others[None, :])
    assert table.shape == (n, m)
    assert table.tolist() == [[pair_iou(x, y) for y in others] for x in a]
    assert [[iou(x, y) for y in others] for x in a] == table.tolist()
    assert iou(a[0], others).tolist() == table[0].tolist()
    assert isinstance(iou(a[0], others[0]), float)


# ---------------------------------------------------------------------------
# build_prior
# ---------------------------------------------------------------------------

def test_prior_single_volume_is_that_volume():
    rng = np.random.default_rng(0)
    g = random_binary_grid(rng)
    prior = build_prior([g], 0.5)
    assert prior.dtype == bool and np.array_equal(prior, g)


def test_prior_strict_inequality_drops_ties():
    ones = np.ones((2, 2, 2), dtype=bool)
    zeros = np.zeros((2, 2, 2), dtype=bool)
    prior = build_prior([ones, zeros], 0.5)  # mean 0.5 is not > 0.5
    assert not prior.any()


def test_prior_two_of_three():
    ones = np.ones((2, 2, 2), dtype=bool)
    zeros = np.zeros((2, 2, 2), dtype=bool)
    prior = build_prior([ones, ones, zeros], 0.5)  # 2/3 > 0.5
    assert prior.all()


def test_prior_empty_list_errors():
    with pytest.raises(ValueError):
        build_prior([], 0.5)


def test_prior_dim_mismatch_errors():
    a = np.zeros((2, 2, 2), dtype=bool)
    b = np.zeros((4, 4, 4), dtype=bool)
    with pytest.raises(ValueError):
        build_prior([a, b], 0.5)


@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.9))
@settings(max_examples=30, deadline=None)
def test_prior_matches_count_oracle(seed, t):
    rng = np.random.default_rng(seed)
    volumes = [random_binary_grid(rng, dim=4) for _ in range(rng.integers(1, 6))]
    prior = build_prior(volumes, t)
    counts = np.sum(volumes, axis=0)
    expected = counts > t * len(volumes)
    assert np.array_equal(prior, expected)


# ---------------------------------------------------------------------------
# proximity
# ---------------------------------------------------------------------------

def test_proximity_self_match_is_one():
    rng = np.random.default_rng(1)
    grids = [random_binary_grid(rng) for _ in range(3)]
    novel = [(f"n{i}", "c", g) for i, g in enumerate(grids)]
    base = [(f"b{i}", g) for i, g in enumerate(grids)]
    report = proximity(novel, base)
    assert report.per_novel_class == {"c": 1.0}


def test_proximity_empty_base_errors():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        proximity([("n0", "c", random_binary_grid(rng))], [])


def test_proximity_matches_brute_force():
    rng = np.random.default_rng(3)
    novel = [(f"n{i}", f"cls{i % 2}", random_binary_grid(rng))
             for i in range(3)]
    base = [(f"b{j}", random_binary_grid(rng)) for j in range(5)]
    report = proximity(novel, base)
    best = {}
    for obj, cls, grid in novel:
        values = [iou(grid, bg) for _, bg in base]
        best.setdefault(cls, []).append(max(values))
    for cls, values in best.items():
        assert report.per_novel_class[cls] == pytest.approx(np.mean(values))
    for (obj, base_id, value), (_, cls, grid) in zip(report.per_shape, novel):
        assert value == pytest.approx(max(iou(grid, bg) for _, bg in base))


def test_proximity_ties_pick_the_first_base_shape_listed():
    rng = np.random.default_rng(4)
    grid, other = random_binary_grid(rng), random_binary_grid(rng)
    base = [("b0", other), ("b1", grid.copy()), ("b2", grid.copy())]
    report = proximity([("n0", "c", grid)], base)
    assert report.per_shape == [("n0", "b1", 1.0)]
