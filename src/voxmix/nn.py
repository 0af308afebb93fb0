"""Minimal differentiable-kernel stack on dense numpy arrays.

Every layer implements an explicit analytic backward pass; there is no
tape: the network is small and fixed, and explicit backwards keep the
gradient-check surface enumerable.  Training runs in float32, verification
in float64.  The decoder outputs logits; `sigmoid` maps them to [0, 1].

The four convolution kernels are two adjoint pairs on one `_gather`
(one copy of a strided window view, one `np.dot`: `conv_forward`, dx of
`conv_transpose_backward`) and one `_scatter` (one `np.dot`, one add per
block shift of a phase-major grid, 8 for a 4^3 stride-2 kernel where a
per-offset loop makes 64: `conv_transpose_forward`, dx of `conv_backward`).
`_dot` is `np.tensordot` without its checks, bit for bit; `_scatter`'s
slices come from a plan cached per layer shape, which holds no arrays.  The
first conv of each encoder skips its dx (`input_grad=False`): its input is
data, so nothing reads that gradient.

A layer may overwrite only an array that no caller reads again: `ReLU`
masks in place the fresh output, or gradient, of the layer next to it.
Two branches of one backward pass may run at once only on disjoint layers
that add into disjoint slices of the store's gradients, as the volume
encoder's branch of `trainer.stage_step` does beside the rest.

`Dense`, `Conv2d` (so `Conv3d`) and `ConvTranspose3d` share one `_Affine`
base: their weight and bias, init draws and gradient adds.  Each keeps its
own `forward` and `backward`, the only methods of those three classes that
the benchmark's tracer (voxbench/tracing.py) names after the instance.

Layers take and return (N, C, *S), but inside the kernels the batch axis
is last, (C, *S, N) (the CHWN layout of cuDNN, arXiv:1410.0759).  The
spatial extents here are 2-16, so with N first every strided window copy
and every scatter add moves runs of 2-4 floats; with N last each run
is N contiguous floats or more.  Outputs are transposed views of batch-last
arrays, so the next kernel's batch-last copy reads them in order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

TRAIN_DTYPE = np.float32


class NumericError(RuntimeError):
    """A non-finite value surfaced where the math requires finite ones."""


class ParamStore:
    """Named parameters packed into one contiguous array per role (the
    `FlatParameter` of PyTorch FSDP, arXiv:2304.11277): `flat`, in `names`
    order, `flat_grads` and one `flat_slots[kind]` per optimizer slot.
    `params`, `grads` and `slots[kind]` map each name to its view into
    those, `spans[name]` to its slice.  The mappings are read-only, since a
    rebound name would silently drop out of training: write into the views,
    as in `grads[name][...] += g`.  `step` counts optimizer steps."""

    def __init__(self, names: Sequence[str], shapes: Sequence[Sequence[int]],
                 flat: np.ndarray):
        self.names = tuple(names)
        self.shapes = tuple(tuple(int(d) for d in shape) for shape in shapes)
        if len(set(self.names)) < len(self.names):
            raise ValueError(f"duplicate parameter names in {self.names}")
        sizes = [math.prod(shape) for shape in self.shapes]
        if flat.ndim != 1 or flat.size != sum(sizes):
            raise ValueError(f"the shapes hold {sum(sizes)} values, the "
                             f"parameter buffer has shape {flat.shape}")
        self.flat, self.flat_grads = flat, np.zeros_like(flat)
        self.flat_slots = {}
        ends = np.cumsum([0] + sizes).tolist()
        self.spans = {name: slice(start, stop)
                      for name, start, stop in zip(self.names, ends, ends[1:])}
        self.params = self._views(flat)
        self.grads = self._views(self.flat_grads)
        self.slots = {}
        self.step = 0

    @classmethod
    def pack(cls, named: Iterable[tuple[str, np.ndarray]]) -> "ParamStore":
        """A store holding copies of the (name, array) pairs, in order."""
        pairs = list(named)
        dtypes = sorted({str(value.dtype) for _, value in pairs})
        if len(dtypes) > 1:
            raise ValueError(f"one store holds one dtype, not {dtypes}")
        flat = np.concatenate([value.ravel() for _, value in pairs]) if pairs \
            else np.zeros(0, TRAIN_DTYPE)
        return cls([name for name, _ in pairs],
                   [value.shape for _, value in pairs], flat)

    def _views(self, buf: np.ndarray) -> MappingProxyType:
        return MappingProxyType({name: buf[span].reshape(shape) for (name, span),
                                 shape in zip(self.spans.items(), self.shapes)})

    def zero_grads(self) -> None:
        self.flat_grads.fill(0)

    def slot(self, kind: str) -> np.ndarray:
        """The flat buffer of optimizer slot `kind`, zero-filled at first use."""
        if kind not in self.flat_slots:
            self.flat_slots[kind] = np.zeros_like(self.flat)
            self.slots[kind] = self._views(self.flat_slots[kind])
        return self.flat_slots[kind]

    def copy(self) -> "ParamStore":
        dup = ParamStore(self.names, self.shapes, self.flat.copy())
        dup.flat_grads[...] = self.flat_grads
        for kind, buf in self.flat_slots.items():
            dup.slot(kind)[...] = buf
        dup.step = self.step
        return dup


# ---------------------------------------------------------------------------
# Convolution kernels, generic over spatial rank
# ---------------------------------------------------------------------------

def _batch_last(x: np.ndarray, pad: int) -> np.ndarray:
    """(N, C, *S) -> a contiguous (C, *(S + 2 * pad), N), zero-padded."""
    n, c, *spatial = x.shape
    xb = np.zeros((c, *(s + 2 * pad for s in spatial), n), x.dtype)
    xb[(slice(None), *(slice(pad, pad + s) for s in spatial))] = _to_batch_last(x)
    return xb


def _to_batch_last(x: np.ndarray) -> np.ndarray:
    """(N, C, *S) -> its (C, *S, N) view; `_to_batch_first` is the inverse."""
    return x.transpose((*range(1, x.ndim), 0))


def _to_batch_first(y: np.ndarray) -> np.ndarray:
    return y.transpose((y.ndim - 1, *range(y.ndim - 1)))


def _im2col(xb: np.ndarray, kernel: tuple[int, ...], stride: int) -> np.ndarray:
    """The columns (C, *K, *So, N) of a C-contiguous batch-last xb: one copy
    of a window view, which np.ndarray, unlike as_strided, bounds-checks."""
    (c, *sp, n), (sc, *ss, sn) = xb.shape, xb.strides
    return np.ascontiguousarray(np.ndarray(
        (c, *kernel, *((s - k) // stride + 1 for s, k in zip(sp, kernel)), n),
        xb.dtype, xb, 0, (sc, *ss, *(stride * s for s in ss), sn)))


def _dot(a: np.ndarray, b: np.ndarray, axes_a, axes_b) -> np.ndarray:
    """np.tensordot(a, b, (axes_a, axes_b)) without its checks: the same
    transposes, reshapes and np.dot of the same 2-D operands, bit for bit."""
    keep_a = [k for k in range(a.ndim) if k not in axes_a]
    keep_b = [k for k in range(b.ndim) if k not in axes_b]
    inner = math.prod(a.shape[k] for k in axes_a)
    y = np.dot(a.transpose(keep_a + list(axes_a)).reshape(-1, inner),
               b.transpose(list(axes_b) + keep_b).reshape(inner, -1))
    return y.reshape([a.shape[k] for k in keep_a] + [b.shape[k] for k in keep_b])


def _gather(xb: np.ndarray, w: np.ndarray, stride: int):
    """Strided convolution without bias of a batch-last, padded xb
    (C, *Sp, N) with w (Cout, C, *K).  Returns (y, cols): y (N, Cout, *So)
    is a view of a batch-last array, cols the (C, *K, *So, N) columns."""
    cols = _im2col(xb, w.shape[2:], stride)
    y = _dot(w, cols, range(1, w.ndim), range(w.ndim - 1))  # (Cout, *So, N)
    return _to_batch_first(y), cols


@functools.lru_cache(maxsize=256)
def _scatter_plan(kernel, in_shape, stride, pad, full):
    """`_scatter`'s shape-only part, of ints, slices and tuples: the grid's
    (*phases, *blocks), a (source, destination) index pair per block shift,
    the cropped extent and an (output, grid) index pair per phase."""
    if full is None:
        full = tuple((s - 1) * stride + k for s, k in zip(in_shape, kernel))
    out = tuple(f - 2 * pad for f in full)
    adds = tuple((
        (slice(None), *(slice(stride * a, stride * (a + 1)) for a in shift)),
        (slice(None), *(slice(min(stride, k - stride * a))
                        for a, k in zip(shift, kernel)),
         *(slice(a, a + s) for a, s in zip(shift, in_shape))))
        for shift in np.ndindex(*(-(-k // stride) for k in kernel)))
    # Output voxel i is phase (i + pad) % stride of block (i + pad) // stride.
    copies = tuple((
        (slice(None), *(slice((p - pad) % stride, None, stride) for p in phase)),
        (slice(None), *phase, *(slice(-(-(pad - p) // stride),
                                      -(-(o + pad - p) // stride))
                                for p, o in zip(phase, out))))
        for phase in np.ndindex(*(stride,) * len(kernel)))
    return ((stride,) * len(kernel) + tuple(-(-f // stride) for f in full),
            adds, out, copies)


def _scatter(x: np.ndarray, w: np.ndarray, stride: int, pad: int,
             full: tuple[int, ...] | None = None) -> np.ndarray:
    """Adjoint of `_gather`: x (N, C, *S), w (C, Cout, *K).  Each input
    voxel adds w times itself into the K-window at stride * its position
    in a (N, Cout, *full) grid, which is returned with `pad` cropped from
    every side.  `full` defaults to (S - 1) * stride + K.

    Offset k = stride * a + p sends input j to phase p of block j + a
    (arXiv:1609.05158), so on a phase-major grid, (Cout, *(stride,) * rank,
    *blocks, N), one add per block shift a (8, not 64, for K 4, stride 2 in
    3-D) sums each voxel in a per-offset loop's order, bit for bit.  One
    copy per phase then interleaves and crops the grid into the output."""
    grid_shape, adds, out, copies = _scatter_plan(
        w.shape[2:], x.shape[2:], stride, pad, full)
    cols = _dot(w, _to_batch_last(x), [0], [0])     # (Cout, *K, *S, N)
    grid = np.zeros((w.shape[1], *grid_shape, x.shape[0]), cols.dtype)
    for src, dst in adds:
        grid[dst] += cols[src]
    del cols            # freed before the output allocates
    y = np.empty((w.shape[1], *out, x.shape[0]), grid.dtype)
    for dst, src in copies:
        y[dst] = grid[src]
    return _to_batch_first(y)


def conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                 stride: int, pad: int):
    """x: (N, Cin, *S); w: (Cout, Cin, *K). Returns (y, cache)."""
    xb = _batch_last(x, pad)
    y, _ = _gather(xb, w, stride)
    y += b.reshape((1, -1) + (1,) * (x.ndim - 2))
    return y, (x.shape[2:], xb)


def conv_backward(dy: np.ndarray, cache, w: np.ndarray, stride: int, pad: int,
                  input_grad: bool = True):
    """Returns (dx, dw, db); dx is None unless `input_grad`."""
    in_shape, xb = cache
    dw = _dot(_to_batch_last(dy), _im2col(xb, w.shape[2:], stride),
              range(1, dy.ndim), range(dy.ndim - 1, 2 * dy.ndim - 2))
    db = dy.sum(axis=(0,) + tuple(range(2, dy.ndim)))
    dx = _scatter(dy, w, stride, pad, tuple(s + 2 * pad for s in in_shape)) \
        if input_grad else None
    return dx, dw, db


def conv_transpose_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                           stride: int, pad: int):
    """x: (N, Cin, *S); w: (Cin, Cout, *K). Output spatial extent is
    (S - 1) * stride + K - 2 * pad."""
    y = _scatter(x, w, stride, pad)
    y += b.reshape((1, -1) + (1,) * (x.ndim - 2))
    return y, (x,)


def conv_transpose_backward(dy: np.ndarray, cache, w: np.ndarray,
                            stride: int, pad: int):
    (x,) = cache
    dx, cols = _gather(_batch_last(dy, pad), w, stride)   # (Cout, *K, *S, N)
    dw = _dot(_to_batch_last(x), cols, range(1, x.ndim),  # *S and N
              range(x.ndim - 1, cols.ndim))
    db = dy.sum(axis=(0,) + tuple(range(2, dy.ndim)))
    return dx, dw, db


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

class Layer:
    """Base: layers cache what their backward pass needs on `self`.
    `param_shapes[k]` is the shape of parameter `param_names[k]`."""

    param_names: tuple[str, ...] = ()
    param_shapes: tuple[tuple[int, ...], ...] = ()

    def init_params(self, rng: np.random.Generator,
                    dtype=TRAIN_DTYPE) -> list[tuple[str, np.ndarray]]:
        """The (name, initial value) pairs that `ParamStore.pack` takes."""
        return []

    def forward(self, x: np.ndarray, store: ParamStore) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray, store: ParamStore) -> np.ndarray:
        raise NotImplementedError


class _Affine(Layer):
    """A layer with a weight `<name>.w` of `w_shape`, He-initialised for
    `fan_in`, and a bias `<name>.b` of `n_out`, drawn in that order."""

    def __init__(self, name: str, w_shape: tuple[int, ...], n_out: int,
                 fan_in: int):
        self.name = name
        self.param_names = (f"{name}.w", f"{name}.b")
        self.param_shapes = (w_shape, (n_out,))
        self.fan_in = fan_in

    def init_params(self, rng, dtype=TRAIN_DTYPE):
        w = rng.standard_normal(self.param_shapes[0]) * np.sqrt(2.0 / self.fan_in)
        # Small positive bias keeps narrow ReLU chains from dying at init.
        return list(zip(self.param_names, (
            w.astype(dtype), np.full(self.param_shapes[1], 0.01, dtype=dtype))))

    def _params(self, store: ParamStore) -> tuple[np.ndarray, np.ndarray]:
        return store.params[self.param_names[0]], store.params[self.param_names[1]]

    def _add_grads(self, store: ParamStore, dw: np.ndarray, db: np.ndarray):
        store.grads[self.param_names[0]][...] += dw
        store.grads[self.param_names[1]][...] += db


class Dense(_Affine):
    def __init__(self, name: str, n_in: int, n_out: int):
        super().__init__(name, (n_in, n_out), n_out, n_in)

    def forward(self, x, store):
        w, b = self._params(store)
        self._x = x
        return x @ w + b

    def backward(self, dy, store):
        self._add_grads(store, self._x.T @ dy, dy.sum(axis=0))
        return dy @ self._params(store)[0].T


class Conv2d(_Affine):
    rank = 2

    def __init__(self, name: str, c_in: int, c_out: int, kernel: int,
                 stride: int = 1, pad: int = 0, *, input_grad: bool = True):
        super().__init__(name, (c_out, c_in) + (kernel,) * self.rank, c_out,
                         c_in * kernel ** self.rank)
        self.stride, self.pad = stride, pad
        # False for a first layer whose input is data: backward skips dx.
        self.input_grad = input_grad

    def forward(self, x, store):
        y, self._cache = conv_forward(x, *self._params(store), self.stride,
                                      self.pad)
        return y

    def backward(self, dy, store):
        dx, dw, db = conv_backward(dy, self._cache, self._params(store)[0],
                                   self.stride, self.pad, self.input_grad)
        self._add_grads(store, dw, db)
        return dx


class Conv3d(Conv2d):
    rank = 3


class ConvTranspose3d(_Affine):
    def __init__(self, name: str, c_in: int, c_out: int, kernel: int,
                 stride: int = 1, pad: int = 0):
        # Fan-in of the equivalent gather: every output voxel reads
        # c_in * k^3 / stride^3 inputs.
        super().__init__(name, (c_in, c_out) + (kernel,) * 3, c_out,
                         max(1, c_in * kernel ** 3 // stride ** 3))
        self.stride, self.pad = stride, pad

    def forward(self, x, store):
        y, self._cache = conv_transpose_forward(x, *self._params(store),
                                                self.stride, self.pad)
        return y

    def backward(self, dy, store):
        dx, dw, db = conv_transpose_backward(dy, self._cache,
                                             self._params(store)[0],
                                             self.stride, self.pad)
        self._add_grads(store, dw, db)
        return dx


class ReLU(Layer):
    # When set (by the verification harness), forward records how close the
    # pre-activations come to the kink at zero.
    record_margins = False

    def forward(self, x, store):
        self._mask = x > 0
        if ReLU.record_margins:
            self.last_min_abs = float(np.min(np.abs(x))) if x.size else np.inf
        # In place; the product keeps NaN for the step's non-finite check.
        return np.multiply(x, self._mask, out=x)

    def backward(self, dy, store):
        return np.multiply(dy, self._mask, out=dy)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) in z's dtype; exactly 0 where exp(-z) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


class Reshape(Layer):
    """Reshape each sample to a fixed per-sample shape."""

    def __init__(self, sample_shape: tuple[int, ...]):
        self.sample_shape = sample_shape

    def forward(self, x, store):
        self._shape = x.shape
        return x.reshape((x.shape[0],) + self.sample_shape)

    def backward(self, dy, store):
        return dy.reshape(self._shape)


class GlobalAvgPool2d(Layer):
    """(N, C, H, W) -> (N, C); the adaptive pooling used by the no-prior
    network variant."""

    def forward(self, x, store):
        self._hw = x.shape[2] * x.shape[3]
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, dy, store):
        scale = dy / self._hw
        return np.broadcast_to(scale[:, :, None, None], self._shape).copy()


class Sequential(Layer):
    def __init__(self, layers: Sequence[Layer]):
        self.layers = list(layers)
        self.param_names = tuple(name for layer in self.layers
                                 for name in layer.param_names)
        self.param_shapes = tuple(shape for layer in self.layers
                                  for shape in layer.param_shapes)

    def init_params(self, rng, dtype=TRAIN_DTYPE):
        return [pair for layer in self.layers
                for pair in layer.init_params(rng, dtype)]

    def forward(self, x, store):
        for layer in self.layers:
            x = layer.forward(x, store)
        return x

    def backward(self, dy, store):
        for layer in reversed(self.layers):
            dy = layer.backward(dy, store)
        return dy


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 1e-3
    # (prefix, lr) overrides; first matching prefix wins.
    groups: tuple[tuple[str, float], ...] = ()


class Adam:
    """Adaptive-moment update with bias correction and per-group rates on
    the flat buffers, in place: a full-size temporary costs more than the
    arithmetic, so it writes into the gradient buffer (zeroed afterwards
    anyway) and its own `_update` buffer."""

    def __init__(self, store: ParamStore, config: OptimizerConfig):
        self.store = store
        self.config = config
        # (slice, lr) per run of names with one rate: two on the main store,
        # where `gt_encoder.*` comes last, one on the pretraining store.
        self.rates = []
        for lr, run in itertools.groupby(store.names, key=self.lr_for):
            run = list(run)
            self.rates.append((slice(store.spans[run[0]].start,
                                     store.spans[run[-1]].stop),
                               store.flat.dtype.type(lr)))
        self._update = np.empty_like(store.flat)

    def lr_for(self, name: str) -> float:
        for prefix, lr in self.config.groups:
            if name.startswith(prefix):
                return lr
        return self.config.lr

    def step(self) -> None:
        """One update from `store.flat_grads`, which it then zeroes; a
        non-finite gradient raises NumericError naming its parameter and
        changes nothing."""
        store, g, u = self.store, self.store.flat_grads, self._update
        if not np.isfinite(g).all():
            name = next(name for name, grad in store.grads.items()
                        if not np.isfinite(grad).all())
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        m, v = store.slot("m"), store.slot("v")
        store.step += 1
        c1 = 1.0 - ADAM_BETA1 ** store.step
        c2 = 1.0 - ADAM_BETA2 ** store.step
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=u)
        v *= ADAM_BETA2
        v += np.multiply(np.square(g, out=g), 1.0 - ADAM_BETA2, out=g)
        # update = (m / c1) / (sqrt(v / c2) + eps), rounded as written
        np.sqrt(np.divide(v, c2, out=g), out=g)
        g += ADAM_EPS
        np.divide(m, c1, out=u)
        u /= g
        for span, lr in self.rates:
            u[span] *= lr
        store.flat -= u
        g.fill(0)


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    tolerance: float
    max_rel_error: float
    worst_name: str
    loss_calls: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def grad_check(fn: Callable[[dict[str, np.ndarray]],
                            tuple[float, Callable[[], Mapping[str, np.ndarray]]]],
               arrays: dict[str, np.ndarray],
               tolerance: float = 1e-4, probes: int = 20,
               step: float = 1e-5, seed: int = 0) -> GradCheckReport:
    """Compare fn's analytic gradients with central finite differences.

    `fn(arrays)` returns (loss, pullback); `pullback()` returns one gradient
    per entry of `arrays`, and only the first call's runs, before the next
    `fn` call (layers cache forward state for it).  Arrays should be
    float64 for the comparison to be meaningful at the default tolerance.
    Each tensor gets at least min(size, probes) randomly probed coordinates.
    Each float64 loss value may carry four units of eps * |loss| of
    rounding, so the central difference may be off by up to 4 * eps *
    |loss| / step: the relative error's denominator is floored at that over
    `tolerance` (and at 1e-6), below which no gradient is resolved.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    grads = fn(arrays)[1]()
    max_rel = 0.0
    worst = ""
    for name in arrays:
        arr = arrays[name]
        analytic = grads[name]
        if analytic.shape != arr.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        flat = arr.reshape(-1)
        count = min(probes, flat.size)
        picks = rng.choice(flat.size, size=count, replace=False)
        worst_here = 0.0
        for k in picks:
            original = flat[k]
            flat[k] = original + step
            loss_plus = fn(arrays)[0]
            flat[k] = original - step
            loss_minus = fn(arrays)[0]
            flat[k] = original
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            a = float(analytic.reshape(-1)[k])
            rounding = 4 * np.finfo(np.float64).eps * max(
                abs(loss_plus), abs(loss_minus)) / step
            rel = abs(a - numeric) / max(1e-6, rounding / tolerance,
                                         abs(a) + abs(numeric))
            worst_here = max(worst_here, rel)
        if worst_here >= max_rel:
            max_rel = worst_here
            worst = name
    return GradCheckReport(tolerance, max_rel, worst, 1 + 2 * sum(
        min(probes, arr.size) for arr in arrays.values()))
