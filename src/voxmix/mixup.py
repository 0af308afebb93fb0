"""Beta-distributed convex interpolation of sample pairs.

A mixing plan is two arrays, `(partners, ratios)`: row k of a mixed batch
is `(1 - ratios[k]) * x[k] + ratios[k] * x[partners[k]]`.  Input-space
mixing applies one plan to the (image, prior, target volume) stacks;
latent-space mixing applies one to the (fused latent, volume latent, target
volume) stacks.  Every component of a row shares its ratio, which is what
keeps the virtual example self-consistent.
"""

from __future__ import annotations

import numpy as np


def random_derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random permutation without fixed points.

    Rejection sampling keeps the partner distribution uniform over the
    other n-1 indices (a positional repair would bias partners toward
    neighbouring slots).  Each draw is accepted with probability near 1/e.
    """
    if n < 2:
        raise ValueError("derangements need at least two elements")
    while True:
        perm = rng.permutation(n)
        if not np.any(perm == np.arange(n)):
            return perm


def pair_batch(batch_size: int, alpha: float,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The mixing plan of a batch: a distinct random partner for every row,
    then one Beta(alpha, alpha) ratio per row.

    A batch of one is its own partner at ratio 0, so mixing is a no-op
    instead of an error, and draws nothing from `rng`.
    """
    if batch_size < 1:
        raise ValueError("batch must contain at least one sample")
    if batch_size == 1:
        return np.zeros(1, dtype=np.int64), np.zeros(1)
    return (random_derangement(batch_size, rng),
            rng.beta(alpha, alpha, batch_size))


def apply_pairs(stack: np.ndarray, plan) -> np.ndarray:
    """The mixed batch of `stack` under the plan `(partners, ratios)`."""
    partners, ratios = plan
    lams = ratios.astype(stack.dtype).reshape((-1,) + (1,) * (stack.ndim - 1))
    return (1 - lams) * stack + lams * stack[partners]


def apply_pairs_backward(d_mixed: np.ndarray, plan) -> np.ndarray:
    """Adjoint of `apply_pairs`: each mixed row's gradient spreads back over
    its two sources, weighted by the ratio."""
    partners, ratios = plan
    lams = ratios.astype(d_mixed.dtype).reshape(
        (-1,) + (1,) * (d_mixed.ndim - 1))
    d_stack = np.zeros_like(d_mixed)
    d_stack += (1 - lams) * d_mixed
    np.add.at(d_stack, partners, lams * d_mixed)
    return d_stack


# ---------------------------------------------------------------------------
# Raw real-valued grid dump (for the mix-preview command)
#
# Layout: ASCII line "vgrid <dim>\n" then dim^3 little-endian float32
# values ordered y fastest, then z, then x (binvox order).
# ---------------------------------------------------------------------------

def write_vgrid(values: np.ndarray, path) -> None:
    values = np.asarray(values)
    if values.ndim != 3 or len(set(values.shape)) != 1:
        raise ValueError(f"expected a cubic grid, got shape {values.shape}")
    dim = values.shape[0]
    flat = values.transpose(0, 2, 1).astype("<f4").tobytes()
    from .runs import write_atomic
    write_atomic(path, f"vgrid {dim}\n".encode("ascii") + flat)


def read_vgrid(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != b"vgrid":
            raise ValueError(f"{path}: not a vgrid file")
        dim = int(header[1])
        raw = np.frombuffer(fh.read(), dtype="<f4")
    if raw.size != dim ** 3:
        raise ValueError(f"{path}: expected {dim ** 3} values, got {raw.size}")
    return raw.reshape(dim, dim, dim).transpose(0, 2, 1).astype(np.float32)
