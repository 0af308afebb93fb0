import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from voxmix import nn, runs


def fresh_store(*pairs):
    return nn.ParamStore.pack(pairs)


# ---------------------------------------------------------------------------
# ParamStore
# ---------------------------------------------------------------------------

def test_store_rejects_duplicate_names():
    with pytest.raises(ValueError):
        fresh_store(("w", np.zeros(3, dtype=np.float32)),
                    ("w", np.zeros(3, dtype=np.float32)))


def _buffers(store):
    return [store.flat, store.flat_grads, *store.flat_slots.values()]


def test_store_copy_is_deep():
    rng = np.random.default_rng(0)
    store = fresh_store(("a.w", rng.standard_normal((3, 4)).astype(np.float32)),
                        ("a.b", rng.standard_normal(4).astype(np.float32)))
    opt = nn.Adam(store, nn.OptimizerConfig(lr=0.1))
    for _ in range(2):
        store.flat_grads[...] = rng.standard_normal(store.flat.size)
        opt.step()
    store.flat_grads[...] = rng.standard_normal(store.flat.size)
    dup = store.copy()
    assert list(dup.flat_slots) == list(store.flat_slots) == ["m", "v"]
    assert dup.step == store.step == 2
    for got, want in zip(_buffers(dup), _buffers(store)):
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, want)
    for kind, views in store.slots.items():
        assert dup.slots[kind]["a.b"].tobytes() == views["a.b"].tobytes()
    nn.Adam(dup, opt.config).step()
    opt.step()
    for got, want in zip(_buffers(dup), _buffers(store)):
        assert got.tobytes() == want.tobytes()
    assert dup.step == store.step == 3
    dup.params["a.w"][0] = 5.0
    assert store.params["a.w"][0, 0] != 5.0


def test_store_rejects_mixed_dtypes():
    with pytest.raises(ValueError, match="dtype"):
        fresh_store(("w", np.zeros(2, dtype=np.float32)),
                    ("b", np.zeros(2, dtype=np.float64)))


def test_a_view_writes_through_to_the_flat_buffer():
    store = fresh_store(("a.w", np.zeros((2, 3), dtype=np.float32)),
                        ("a.b", np.zeros(3, dtype=np.float32)))
    store.params["a.b"][1] = 7.0
    store.grads["a.w"][...] += 2.0
    store.slot("m")
    store.slots["m"]["a.b"][...] = 3.0
    assert store.flat.tolist() == [0.0] * 7 + [7.0, 0.0]
    assert store.flat_grads.tolist() == [2.0] * 6 + [0.0] * 3
    assert store.flat_slots["m"].tolist() == [0.0] * 6 + [3.0] * 3
    store.zero_grads()
    assert not store.grads["a.w"].any()


def test_rebinding_a_name_raises():
    store = fresh_store(("a.w", np.zeros(2, dtype=np.float32)))
    store.slot("v")
    for views in (store.params, store.grads, store.slots["v"]):
        with pytest.raises(TypeError):
            views["a.w"] = np.ones(2, dtype=np.float32)
    store.params["a.w"][...] = 1.0
    assert store.flat.tolist() == [1.0, 1.0]


# ---------------------------------------------------------------------------
# layer identities
# ---------------------------------------------------------------------------

def test_dense_identity():
    layer = nn.Dense("d", 4, 4)
    store = fresh_store(*layer.init_params(np.random.default_rng(0), np.float64))
    store.params["d.w"][...] = np.eye(4)
    store.params["d.b"][...] = 0.0
    x = np.random.default_rng(1).standard_normal((3, 4))
    assert np.allclose(layer.forward(x, store), x)


def test_one_by_one_conv_identity():
    layer = nn.Conv2d("c", 1, 1, kernel=1, stride=1, pad=0)
    store = fresh_store(*layer.init_params(np.random.default_rng(0), np.float64))
    store.params["c.w"][...] = 1.0
    store.params["c.b"][...] = 0.0
    x = np.random.default_rng(2).standard_normal((2, 1, 5, 5))
    assert np.allclose(layer.forward(x, store), x)


def test_conv_transpose_doubles_spatial_extent():
    layer = nn.ConvTranspose3d("t", 3, 2, kernel=4, stride=2, pad=1)
    store = fresh_store(*layer.init_params(np.random.default_rng(0), np.float64))
    y = layer.forward(np.zeros((2, 3, 4, 4, 4)), store)
    assert y.shape == (2, 2, 8, 8, 8)


# ---------------------------------------------------------------------------
# convolution kernels against per-offset loop references
# ---------------------------------------------------------------------------

def _windows(offset, stride, out_shape):
    sl = tuple(slice(i, i + o * stride, stride) for i, o in zip(offset, out_shape))
    return (slice(None), slice(None)) + sl


def _reference_gather(x, w, stride, pad):
    """Convolution without bias, one tensordot per kernel offset:
    x (N, C, *S), w (Cout, C, *K)."""
    rank = x.ndim - 2
    xp = np.pad(x, [(0, 0), (0, 0)] + [(pad, pad)] * rank)
    out_shape = tuple((s - k) // stride + 1
                      for s, k in zip(xp.shape[2:], w.shape[2:]))
    y = np.zeros((x.shape[0], w.shape[0]) + out_shape, dtype=x.dtype)
    for idx in np.ndindex(*w.shape[2:]):
        part = np.tensordot(xp[_windows(idx, stride, out_shape)],
                            w[(slice(None), slice(None)) + idx], axes=([1], [1]))
        y += np.moveaxis(part, -1, 1)
    return y


def _reference_scatter(x, w, stride, pad, full):
    """The scatter with one tensordot per kernel offset: x (N, C, *S),
    w (C, Cout, *K), into a (N, Cout, *full) grid cropped by `pad`."""
    grid = np.zeros((x.shape[0], w.shape[1]) + tuple(full), dtype=x.dtype)
    for idx in np.ndindex(*w.shape[2:]):
        contrib = np.tensordot(x, w[(slice(None), slice(None)) + idx],
                               axes=([1], [0]))
        grid[_windows(idx, stride, x.shape[2:])] += np.moveaxis(contrib, -1, 1)
    inner = tuple(slice(pad, f - pad) for f in full)
    return grid[(slice(None), slice(None)) + inner]


def _reference_kernel_grad(a, bp, stride, kernel):
    """d/dw of sum(a * gather(bp, w)) per kernel offset: contracts a
    (N, Ca, *So) with the windows of the padded bp (N, Cb, *Sp)."""
    spatial = list(range(2, a.ndim))
    dw = np.zeros((a.shape[1], bp.shape[1]) + tuple(kernel), dtype=a.dtype)
    for idx in np.ndindex(*kernel):
        dw[(slice(None), slice(None)) + idx] = np.tensordot(
            a, bp[_windows(idx, stride, a.shape[2:])],
            axes=([0] + spatial, [0] + spatial))
    return dw


def _assert_close(got, want, dtype):
    tol = 1e-5 if dtype == np.float32 else 1e-12
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


# (rank, stride, kernel, pad): every geometry the network and the tests build.
KERNEL_CASES = [(2, 2, 3, 1), (3, 2, 3, 1), (3, 2, 4, 1), (2, 1, 3, 0),
                (2, 1, 1, 0)]


def _layouts(a):
    """a itself, a copy in batch-last memory order (what a conv's `y + b`
    hands to the next layer) and a strided view, all equal to a."""
    batch_last = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)
    return [a, batch_last, np.repeat(a, 2, axis=-1)[..., ::2]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", [5, 6])
@pytest.mark.parametrize("rank,stride,kernel,pad", KERNEL_CASES)
def test_conv_kernels_match_the_per_offset_loops(rank, stride, kernel, pad,
                                                 size, dtype):
    rng = np.random.default_rng(size)
    spatial = tuple(range(2, 2 + rank))

    def draw(*shape):
        return rng.standard_normal(shape).astype(dtype)

    w = draw(4, 2, *(kernel,) * rank)
    wt = draw(2, 4, *(kernel,) * rank)
    b = draw(4)
    full = tuple((size - 1) * stride + kernel for _ in range(rank))
    for n in (3, 1):
        x = draw(n, 2, *(size,) * rank)
        xp = np.pad(x, [(0, 0), (0, 0)] + [(pad, pad)] * rank)
        want = _reference_gather(x, w, stride, pad)
        dy = draw(*want.shape)
        for x_in in _layouts(x):
            y, cache = nn.conv_forward(x_in, w, b, stride, pad)
            _assert_close(y, want + b.reshape((1, -1) + (1,) * rank), dtype)
            for dy_in in _layouts(dy):
                dx, dw, db = nn.conv_backward(dy_in, cache, w, stride, pad)
                _assert_close(dx, _reference_scatter(dy, w, stride, pad,
                                                     xp.shape[2:]), dtype)
                _assert_close(dw, _reference_kernel_grad(dy, xp, stride,
                                                         w.shape[2:]), dtype)
                _assert_close(db, dy.sum(axis=(0,) + spatial), dtype)

        want = _reference_scatter(x, wt, stride, pad, full)
        dy = draw(*want.shape)
        dyp = np.pad(dy, [(0, 0), (0, 0)] + [(pad, pad)] * rank)
        for x_in in _layouts(x):
            y, cache = nn.conv_transpose_forward(x_in, wt, b, stride, pad)
            _assert_close(y, want + b.reshape((1, -1) + (1,) * rank), dtype)
            for dy_in in _layouts(dy):
                dx, dw, db = nn.conv_transpose_backward(dy_in, cache, wt,
                                                        stride, pad)
                _assert_close(dx, _reference_gather(dy, wt, stride, pad), dtype)
                _assert_close(dw, _reference_kernel_grad(x, dyp, stride,
                                                         wt.shape[2:]), dtype)
                _assert_close(db, dy.sum(axis=(0,) + spatial), dtype)


def _per_offset_scatter(x, w, stride, pad, full=None):
    """The scatter nn ran before the phase-major grid: the same single
    tensordot, then one strided add per kernel offset into a batch-last
    (Cout, *full, N) grid cropped by `pad`."""
    kernel, in_shape = w.shape[2:], x.shape[2:]
    if full is None:
        full = tuple((s - 1) * stride + k for s, k in zip(in_shape, kernel))
    cols = np.tensordot(w, np.moveaxis(x, 0, -1), axes=([0], [0]))
    grid = np.zeros((w.shape[1],) + full + (x.shape[0],), dtype=cols.dtype)
    for idx in np.ndindex(*kernel):
        sl = tuple(slice(i, i + s * stride, stride)
                   for i, s in zip(idx, in_shape))
        grid[(slice(None),) + sl] += cols[(slice(None),) + idx]
    inner = tuple(slice(pad, f - pad) for f in full)
    return np.moveaxis(grid[(slice(None),) + inner], -1, 0)


@settings(max_examples=150, deadline=None)
@given(rank=st.integers(2, 3), stride=st.integers(1, 3),
       kernel=st.integers(1, 4), pad=st.integers(0, 1),
       sizes=st.lists(st.integers(1, 7), min_size=3, max_size=3),
       n=st.integers(1, 4), dtype=st.sampled_from([np.float32, np.float64]),
       conv_dx=st.booleans(), seed=st.integers(0, 2 ** 16))
# conv dx at pad 0 on an input the stride does not divide: the grid must
# reach full - pad = 6, beyond (S - 1) * stride + K = 5.
@example(rank=2, stride=2, kernel=3, pad=0, sizes=[6, 6, 1], n=2,
         dtype=np.float32, conv_dx=True, seed=0)
def test_the_scatter_equals_the_per_offset_loop_bit_for_bit(
        rank, stride, kernel, pad, sizes, n, dtype, conv_dx, seed):
    sizes = tuple(sizes[:rank])
    if conv_dx:
        # dx of a conv over inputs of extent `sizes`: `full` is explicit.
        full = tuple(s + 2 * pad for s in sizes)
        assume(min(full) >= kernel)
        in_shape = tuple((f - kernel) // stride + 1 for f in full)
    else:
        # a transposed conv: `full` is the default.
        full, in_shape = None, sizes
        assume(min((s - 1) * stride + kernel for s in sizes) > 2 * pad)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3) + in_shape).astype(dtype)
    w = rng.standard_normal((3, 2) + (kernel,) * rank).astype(dtype)
    got = nn._scatter(x, w, stride, pad, full)
    want = _per_offset_scatter(x, w, stride, pad, full)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _sliding_im2col(xb, kernel, stride):
    """The columns nn built before its one window view: numpy's sliding
    windows (C, *So, N, *K) of xb, strided, transposed and copied."""
    rank = len(kernel)
    win = sliding_window_view(xb, kernel, axis=tuple(range(1, 1 + rank)))
    win = win[(slice(None),) + (slice(None, None, stride),) * rank]
    return np.ascontiguousarray(win.transpose(
        (0,) + tuple(range(rank + 2, 2 * rank + 2))
        + tuple(range(1, rank + 2))))


@settings(max_examples=150, deadline=None)
@given(rank=st.integers(2, 3), stride=st.integers(1, 3),
       kernel=st.integers(1, 4), pad=st.integers(0, 1),
       sizes=st.lists(st.integers(1, 7), min_size=3, max_size=3),
       n=st.integers(1, 4), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2 ** 16))
def test_the_columns_and_the_dot_equal_numpys_forms_bit_for_bit(
        rank, stride, kernel, pad, sizes, n, dtype, seed):
    sizes, k = tuple(sizes[:rank]), (kernel,) * rank
    assume(min(sizes) + 2 * pad >= kernel)
    rng = np.random.default_rng(seed)
    xb = nn._batch_last(rng.standard_normal((n, 3) + sizes).astype(dtype), pad)
    cols = nn._im2col(xb, k, stride)                    # (C, *K, *So, N)
    want = _sliding_im2col(xb, k, stride)
    assert cols.dtype == want.dtype and cols.flags.c_contiguous
    assert np.array_equal(cols, want)
    w = rng.standard_normal((2, 3) + k).astype(dtype)   # (Cout, C, *K)
    dy = rng.standard_normal((n, 2) + cols.shape[1 + rank:-1]).astype(dtype)
    dy_last = np.moveaxis(dy, 0, -1)
    # The kernels' four products: gather, scatter, and the weight gradients
    # of conv_backward and conv_transpose_backward (dy's columns there).
    dy_cols = nn._im2col(nn._batch_last(dy, 0), (1,) * rank, 1)
    x_last = np.moveaxis(rng.standard_normal((n, 4) + cols.shape[1 + rank:-1])
                         .astype(dtype), 0, -1)
    for a, b, axes_a, axes_b in [
            (w, cols, range(1, w.ndim), range(w.ndim - 1)),
            (w, dy_last, [0], [0]),
            (dy_last, cols, range(1, rank + 2), range(rank + 1, 2 * rank + 2)),
            (x_last, dy_cols, range(1, rank + 2),
             range(rank + 1, 2 * rank + 2))]:
        got = nn._dot(a, b, axes_a, axes_b)
        want = np.tensordot(a, b, axes=(list(axes_a), list(axes_b)))
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_the_scatter_plan_is_cached_per_layer_shape_and_holds_no_arrays(
        monkeypatch):
    cached, plans = nn._scatter_plan, {}

    def recording(*key):
        plans[key] = cached(*key)
        return plans[key]

    monkeypatch.setattr(nn, "_scatter_plan", recording)
    cached.cache_clear()
    rng = np.random.default_rng(0)
    up = nn.ConvTranspose3d("up", 3, 2, 4, stride=2, pad=1)
    conv = nn.Conv3d("conv", 2, 3, 3, stride=2, pad=1)
    store = fresh_store(*up.init_params(rng), *conv.init_params(rng))
    sizes = []
    for n in range(1, 6):
        x = rng.standard_normal((n, 3, 4, 4, 4)).astype(np.float32)
        z = conv.forward(up.forward(x, store), store)   # (n, 3, 4, 4, 4)
        up.backward(conv.backward(np.ones_like(z), store), store)
        sizes.append(cached.cache_info().currsize)
    # One plan for the transposed conv's forward, one for the conv's dx.
    assert sizes == [2] * 5 and len(plans) == 2

    def leaves(value):
        if isinstance(value, tuple):
            for item in value:
                yield from leaves(item)
        elif isinstance(value, slice):
            yield from (value.start, value.stop, value.step)
        else:
            yield value

    for key, plan in plans.items():
        assert all(type(v) is int for v in leaves((key, plan)) if v is not None)


@pytest.mark.parametrize("rank,stride,kernel,pad", KERNEL_CASES)
def test_conv_outputs_are_views_of_contiguous_batch_last_arrays(rank, stride,
                                                                kernel, pad):
    # What the module docstring promises the next kernel's batch-last copy.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 2) + (5,) * rank).astype(np.float32)
    w = rng.standard_normal((4, 2) + (kernel,) * rank).astype(np.float32)
    b = np.zeros(4, np.float32)
    y, cache = nn.conv_forward(x, w, b, stride, pad)
    dx, _, _ = nn.conv_backward(np.ones_like(y), cache, w, stride, pad)
    yt, _ = nn.conv_transpose_forward(x, np.moveaxis(w, 0, 1), b, stride, pad)
    for out in (y, dx, yt):
        assert np.moveaxis(out, 0, -1).flags.c_contiguous


def _owner(a):
    """The array that owns a's memory, also through as_strided's wrapper."""
    while getattr(a, "base", None) is not None:
        a = a.base
    return a


@pytest.mark.parametrize("rank,stride,kernel,pad", KERNEL_CASES)
def test_conv_forward_caches_no_more_than_the_padded_input(rank, stride,
                                                           kernel, pad):
    # The columns are K^rank times the input; backward rebuilds them.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 2) + (6,) * rank).astype(np.float32)
    w = rng.standard_normal((4, 2) + (kernel,) * rank).astype(np.float32)
    _, cache = nn.conv_forward(x, w, np.zeros(4, np.float32), stride, pad)
    owners = {id(o): o for o in (_owner(a) for a in cache
                                    if isinstance(a, np.ndarray))}
    padded = x.itemsize * 3 * 2 * (6 + 2 * pad) ** rank
    assert sum(o.nbytes for o in owners.values()) <= padded


# ---------------------------------------------------------------------------
# finite differences per layer (float64)
# ---------------------------------------------------------------------------

def _layer_check(layer, x_shape, seed=0):
    rng = np.random.default_rng(seed)
    store = fresh_store(*layer.init_params(rng, np.float64))
    x = rng.uniform(0.1, 1.0, x_shape) * np.where(
        rng.random(x_shape) < 0.5, -1.0, 1.0)
    # The layer gets fresh copies of x and probe, which ReLU overwrites.
    probe = rng.standard_normal(layer.forward(x.copy(), store).shape)
    arrays = {"input": x, **store.params}

    def fn(arrs):
        y = layer.forward(arrs["input"].copy(), store)

        def pullback():
            store.zero_grads()
            dx = layer.backward(probe.copy(), store)
            grads = {"input": dx}
            grads.update({k: store.grads[k].copy() for k in store.params})
            return grads

        return float(np.sum(y * probe)), pullback

    return nn.grad_check(fn, arrays, tolerance=1e-4, probes=20)


@pytest.mark.parametrize("layer,shape", [
    (nn.Dense("f", 6, 5), (4, 6)),
    (nn.Conv2d("f", 2, 3, 3, stride=2, pad=1), (2, 2, 8, 8)),
    (nn.Conv2d("f", 2, 2, 3, stride=1, pad=0), (2, 2, 6, 6)),
    (nn.Conv3d("f", 1, 2, 3, stride=2, pad=1), (2, 1, 6, 6, 6)),
    (nn.ConvTranspose3d("f", 2, 2, 4, stride=2, pad=1), (2, 2, 3, 3, 3)),
    (nn.ReLU(), (3, 7)),
    (nn.GlobalAvgPool2d(), (2, 3, 4, 4)),
], ids=["dense", "conv2d_s2", "conv2d_s1", "conv3d", "convt3d", "relu",
        "gap2d"])
def test_layer_gradients_match_finite_differences(layer, shape):
    report = _layer_check(layer, shape)
    assert report.passed, f"{report.max_rel_error:.3e} at {report.worst_name}"


def test_relu_keeps_nan_forward_and_backward():
    # np.where(mask, x, 0) turned a NaN input and a NaN gradient at a
    # negative input into 0, hiding them from the step's non-finite check.
    relu = nn.ReLU()
    y = relu.forward(np.array([[np.nan, -1.0, 2.0, -3.0]]), None)
    assert np.isnan(y[0, 0]) and y[0, 1:].tolist() == [0.0, 2.0, 0.0]
    dy = relu.backward(np.array([[1.0, np.nan, np.nan, 4.0]]), None)
    assert np.isnan(dy[0, 1:3]).all() and dy[0, [0, 3]].tolist() == [0.0, 0.0]


def test_relu_masks_in_place():
    relu = nn.ReLU()
    x = np.array([[-1.0, 2.0]])
    dy = np.array([[5.0, 6.0]])
    assert relu.forward(x, None) is x and x.tolist() == [[0.0, 2.0]]
    assert relu.backward(dy, None) is dy and dy.tolist() == [[0.0, 6.0]]


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adam_zero_gradients_leave_params_unchanged():
    store = fresh_store(("w", np.ones(4, dtype=np.float32)))
    opt = nn.Adam(store, nn.OptimizerConfig())
    opt.step()
    assert np.array_equal(store.params["w"], np.ones(4, dtype=np.float32))
    assert store.step == 1


def test_adam_matches_scalar_reference():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    assert (nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS) == (b1, b2, eps)
    store = fresh_store(("w", np.array([1.0], dtype=np.float32)))
    opt = nn.Adam(store, nn.OptimizerConfig(lr=lr))
    grads = [1.0, 0.5, -0.25, 2.0, 1.0, -1.0]

    # Independent scalar re-derivation of the update rule.
    w_ref, m, v = 1.0, 0.0, 0.0
    trajectory = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        w_ref -= lr * m_hat / (np.sqrt(v_hat) + eps)
        trajectory.append(w_ref)

    for g, expected in zip(grads, trajectory):
        store.grads["w"][...] = g
        opt.step()
        assert store.params["w"][0] == pytest.approx(expected, rel=1e-5)


def test_adam_gradients_are_zeroed_and_step_counted():
    store = fresh_store(("w", np.ones(2, dtype=np.float32)))
    store.grads["w"][...] = 1.0
    opt = nn.Adam(store, nn.OptimizerConfig())
    opt.step()
    assert np.array_equal(store.grads["w"], np.zeros(2, dtype=np.float32))
    assert store.step == 1


def test_parameter_groups_scale_updates():
    store = fresh_store(("net.w", np.zeros(1, dtype=np.float32)),
                        ("gt_encoder.w", np.zeros(1, dtype=np.float32)))
    config = nn.OptimizerConfig(lr=1e-3, groups=(("gt_encoder.", 1e-4),))
    opt = nn.Adam(store, config)
    store.grads["net.w"][...] = 1.0
    store.grads["gt_encoder.w"][...] = 1.0
    opt.step()
    fast = abs(float(store.params["net.w"][0]))
    slow = abs(float(store.params["gt_encoder.w"][0]))
    assert fast == pytest.approx(10 * slow, rel=1e-4)
    assert fast == pytest.approx(1e-3, rel=1e-3)


def test_non_finite_gradient_names_the_parameter():
    store = fresh_store(("enc.w", np.zeros(2, dtype=np.float32)))
    store.grads["enc.w"][0] = np.nan
    opt = nn.Adam(store, nn.OptimizerConfig())
    with pytest.raises(nn.NumericError, match="enc.w"):
        opt.step()


def test_optimizer_deterministic():
    def run():
        store = fresh_store(("w", np.ones(3, dtype=np.float32)))
        opt = nn.Adam(store, nn.OptimizerConfig())
        for k in range(5):
            store.grads["w"][...] = k + 0.5
            opt.step()
        return store.params["w"].copy()

    assert np.array_equal(run(), run())


class _PerTensorAdam:
    """The per-tensor Adam that the flat-buffer one replaced: one pass over
    the names per step, each rate looked up by prefix."""

    def __init__(self, pairs, config):
        self.config = config
        self.params = {name: value.copy() for name, value in pairs}
        self.grads = {name: np.zeros_like(v) for name, v in self.params.items()}
        self.m = {name: np.zeros_like(v) for name, v in self.params.items()}
        self.v = {name: np.zeros_like(v) for name, v in self.params.items()}
        self.t = 0

    def lr_for(self, name):
        for prefix, lr in self.config.groups:
            if name.startswith(prefix):
                return lr
        return self.config.lr

    def step(self):
        b1, b2 = 0.9, 0.999
        self.t += 1
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = self.grads[name]
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            update = (m / c1) / (np.sqrt(v / c2) + 1e-8)
            p -= p.dtype.type(self.lr_for(name)) * update
            g[...] = 0


# Two rates, with the second group's names in two runs.
_GROUPED_SHAPES = {"enc.w": (3, 4), "enc.b": (4,), "gt_encoder.w": (2, 3, 3),
                   "gt_encoder.b": (2,), "head.w": (5,)}
_GROUPS = (("gt_encoder.", 1e-4),)


def _grouped_pairs(dtype, rng):
    # Small enough that a last-bit change in an update reaches the params.
    return [(name, (1e-4 * rng.standard_normal(shape)).astype(dtype))
            for name, shape in _GROUPED_SHAPES.items()]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["adam"])   # the one optimizer
def test_flat_optimizers_match_the_per_tensor_oracle(kind, dtype):
    rng = np.random.default_rng(3)
    pairs = _grouped_pairs(dtype, rng)
    config = nn.OptimizerConfig(lr=1e-3, groups=_GROUPS)
    store = fresh_store(*pairs)
    opt = nn.Adam(store, config)
    assert len(opt.rates) == 3
    opt.lr_for = None   # the rates are worked out once, not per step
    oracle = _PerTensorAdam(pairs, config)
    for _ in range(6):
        # Magnitudes from 1e-4 to 10, either sign.
        for name, shape in _GROUPED_SHAPES.items():
            g = 10.0 ** rng.uniform(-4, 1, shape) * rng.choice([-1.0, 1.0], shape)
            store.grads[name][...] = g
            oracle.grads[name][...] = g
        opt.step()
        oracle.step()
    assert store.step == 6
    assert not store.flat_grads.any()
    for name in _GROUPED_SHAPES:
        assert store.params[name].tobytes() == oracle.params[name].tobytes()
        assert store.slots["m"][name].tobytes() == oracle.m[name].tobytes()
        assert store.slots["v"][name].tobytes() == oracle.v[name].tobytes()


@pytest.mark.parametrize("kind", ["adam"])   # the one optimizer
def test_a_non_finite_gradient_in_a_grouped_store_names_its_parameter(kind):
    store = fresh_store(*_grouped_pairs(np.float32, np.random.default_rng(0)))
    before = store.flat.copy()
    opt = nn.Adam(store, nn.OptimizerConfig(groups=_GROUPS))
    store.grads["enc.b"][...] = 1.0
    store.grads["gt_encoder.b"][1] = np.inf
    with pytest.raises(nn.NumericError, match="'gt_encoder.b'"):
        opt.step()
    assert store.flat.tobytes() == before.tobytes() and store.step == 0


# ---------------------------------------------------------------------------
# grad_check harness behaviour
# ---------------------------------------------------------------------------

def test_grad_check_passes_constant_fragment():
    arrays = {"x": np.ones(5)}

    def fn(arrs):
        return 3.0, lambda: {"x": np.zeros(5)}

    report = nn.grad_check(fn, arrays)
    assert report.passed
    assert report.max_rel_error == 0.0


def test_grad_check_locates_corrupted_backward():
    rng = np.random.default_rng(0)
    w = rng.standard_normal(4)
    arrays = {"good": rng.standard_normal(4), "bad": rng.standard_normal(4)}

    def fn(arrs):
        loss = float(np.sum(w * arrs["good"]) + np.sum(arrs["bad"] ** 2))
        bad = 3.0 * arrs["bad"]  # wrong: 2x
        return loss, lambda: {"good": w.copy(), "bad": bad}

    report = nn.grad_check(fn, arrays)
    assert not report.passed
    assert report.worst_name == "bad"


def test_grad_check_floors_the_error_at_the_losss_rounding():
    # At loss 1000 a central difference over 2e-5 moves in steps of one
    # ulp of the loss over 2e-5, about 6e-9: a 1e-9 gradient reads 0 or
    # 6e-9, a relative error near 1e-3 against a floor of 1e-6 alone.
    arrays = {"x": np.linspace(0.1, 0.9, 5)}

    def tiny(arrs):
        return 1000.0 + 1e-9 * float(np.sum(arrs["x"])), \
            lambda: {"x": np.full(5, 1e-9)}

    report = nn.grad_check(tiny, arrays)
    assert report.passed, f"{report.max_rel_error:.3e}"

    # The floor there is 4 * eps * 1000 / 1e-5 / 1e-4, about 8.9e-4, so a
    # gradient of 1e-3 is resolved: 0.1% off reads 5e-4 and fails.
    def wrong(arrs):
        return 1000.0 + 1e-3 * float(np.sum(arrs["x"])), \
            lambda: {"x": np.full(5, 1.001e-3)}

    assert nn.grad_check(wrong, arrays).max_rel_error > 4e-4


# ---------------------------------------------------------------------------
# checkpoint format (written and read by runs)
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    store = fresh_store(("a.w", rng.standard_normal((3, 4)).astype(np.float32)),
                        ("a.b", rng.standard_normal(4).astype(np.float32)))
    store.slot("m")
    store.slots["m"]["a.w"][...] = rng.standard_normal((3, 4)).astype(np.float32)
    store.step = 17
    path = tmp_path / "model.ckpt"
    runs.save_checkpoint(path, store, {"variant": "prior", "note": 1})
    loaded, meta = runs.load_checkpoint(path)
    assert meta == {"variant": "prior", "note": 1}
    # The optimizer state stays in memory; no reader of a checkpoint needs it.
    assert loaded.step == 0 and not loaded.slots and not loaded.flat_slots
    assert set(loaded.params) == {"a.w", "a.b"}
    for name in store.params:
        assert loaded.params[name].tobytes() == store.params[name].tobytes()
    # Re-saving the loaded store reproduces the file byte for byte.
    path2 = tmp_path / "again.ckpt"
    runs.save_checkpoint(path2, loaded, {"variant": "prior", "note": 1})
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(runs.MissingArtifactError, match="not a checkpoint"):
        runs.load_checkpoint(path)


def test_checkpoint_rejects_float64(tmp_path):
    store = fresh_store(("w", np.zeros(2, dtype=np.float64)))
    with pytest.raises(ValueError, match="float32"):
        runs.save_checkpoint(tmp_path / "bad.ckpt", store, {})
