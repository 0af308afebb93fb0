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
