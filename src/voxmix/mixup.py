"""Beta-distributed convex interpolation of sample pairs.

Input-space mixing interpolates (image, prior, target volume) triples;
latent-space mixing interpolates (fused latent, volume latent, target
volume) triples.  One ratio per pair is shared across all components of
that pair, which is what keeps the virtual example self-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MixPair:
    """Indices of the two source samples and their shared mixing ratio."""

    i: int
    j: int
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must be in [0, 1], got {self.lam}")
        if self.i < 0 or self.j < 0:
            raise ValueError("pair indices must be non-negative")


def sample_lambda(alpha: float, rng: np.random.Generator) -> float:
    """One draw from Beta(alpha, alpha)."""
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return float(rng.beta(alpha, alpha))


def random_derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random permutation without fixed points.

    Rejection sampling keeps the partner distribution uniform over the
    other n-1 indices (a positional repair would bias partners toward
    neighbouring slots).  Acceptance probability tends to 1/e, so the
    fallback repair is effectively unreachable.
    """
    if n < 2:
        raise ValueError("derangements need at least two elements")
    for _ in range(100):
        perm = rng.permutation(n)
        if not np.any(perm == np.arange(n)):
            return perm
    for i in range(n):
        if perm[i] == i:
            j = (i + 1) % n
            perm[i], perm[j] = perm[j], perm[i]
    return perm


def pair_batch(batch_size: int, alpha: float,
               rng: np.random.Generator) -> list[MixPair]:
    """Pair every batch index with a distinct random partner and draw one
    Beta(alpha, alpha) ratio per pair.

    A batch of one degenerates to a single identity pair with lam=0, so
    mixing becomes a no-op instead of an error.
    """
    if batch_size < 1:
        raise ValueError("batch must contain at least one sample")
    if batch_size == 1:
        return [MixPair(0, 0, 0.0)]
    perm = random_derangement(batch_size, rng)
    return [MixPair(i, int(perm[i]), sample_lambda(alpha, rng))
            for i in range(batch_size)]


def apply_pairs(stack: np.ndarray, pairs: list[MixPair]) -> np.ndarray:
    """Build the mixed batch stack[k] = mix(stack[p.i], stack[p.j], p.lam)."""
    if len(stack) == 0:
        raise ValueError("empty batch")
    lams = np.asarray([p.lam for p in pairs], dtype=stack.dtype)
    left = stack[[p.i for p in pairs]]
    right = stack[[p.j for p in pairs]]
    shape = (len(pairs),) + (1,) * (stack.ndim - 1)
    lams = lams.reshape(shape)
    return (1 - lams) * left + lams * right


def apply_pairs_backward(d_mixed: np.ndarray, pairs: list[MixPair],
                         n: int) -> np.ndarray:
    """Adjoint of `apply_pairs` on a batch of `n`: each mixed row's
    gradient spreads back over its two sources, weighted by the ratio."""
    lams = np.asarray([p.lam for p in pairs], dtype=d_mixed.dtype)
    lams = lams.reshape((len(pairs),) + (1,) * (d_mixed.ndim - 1))
    d_stack = np.zeros((n,) + d_mixed.shape[1:], dtype=d_mixed.dtype)
    np.add.at(d_stack, [p.i for p in pairs], (1 - lams) * d_mixed)
    np.add.at(d_stack, [p.j for p in pairs], lams * d_mixed)
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
