"""Reconstruction and embedding-alignment losses.

Reconstruction compares a real-valued predicted occupancy grid against a
(possibly soft) target grid with voxel-mean binary cross-entropy, or with
a balanced focal variant for heavily imbalanced shapes.  The alignment
loss pulls a fused image+prior latent toward the embedding of its own
ground-truth volume (cosine term) while keeping it further from a
different object's embedding than a margin (triplet term).

Value functions return plain floats; each has a paired `_grad` companion
returning analytic derivatives, checked against finite differences in the
test suite.  All functions accept numpy arrays or objects exposing a
`.values` array (voxel grids).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_CLAMP_EPS = 1e-7

# How close the hinge of an unmasked row came to its kink at zero in the
# last align_loss call; the verification harness reads it.
last_hinge_margin = np.inf


@dataclass(frozen=True)
class LossConfig:
    """Weights and knobs for the combined training loss."""

    w_recon: float = 10.0
    w_align: float = 0.5
    margin: float = 0.1
    kind: str = "bce"              # bce | focal
    focal_gamma: float = 2.0
    focal_balance: float = 0.5
    clamp_eps: float = DEFAULT_CLAMP_EPS

    def __post_init__(self):
        if self.w_recon < 0 or self.w_align < 0:
            raise ValueError("loss weights must be non-negative")
        if not 0.0 <= self.margin <= 1.0:
            raise ValueError(f"margin must be in [0, 1], got {self.margin}")
        if self.kind not in ("bce", "focal"):
            raise ValueError(f"unknown reconstruction kind {self.kind!r}")
        if self.focal_gamma < 0:
            raise ValueError("focal gamma must be >= 0")
        if not 0.0 < self.focal_balance < 1.0:
            raise ValueError("focal balance must be in (0, 1)")
        if self.clamp_eps <= 0:
            raise ValueError("clamp eps must be positive")


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    recon: float
    align: float
    sim_pos: float
    sim_neg: float


def _values(x) -> np.ndarray:
    return np.asarray(getattr(x, "values", x))


def _as_pair(pred, target) -> tuple[np.ndarray, np.ndarray]:
    p = _values(pred)
    t = _values(target)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    return p, t


# ---------------------------------------------------------------------------
# Reconstruction losses
# ---------------------------------------------------------------------------

def bce_loss(pred, target, eps: float = DEFAULT_CLAMP_EPS) -> float:
    """Voxel-mean binary cross-entropy; accepts soft targets in [0, 1]."""
    p, t = _as_pair(pred, target)
    p = np.clip(p, eps, 1.0 - eps)
    return float(-np.mean(t * np.log(p) + (1.0 - t) * np.log1p(-p)))


def bce_loss_grad(pred, target, eps: float = DEFAULT_CLAMP_EPS) -> np.ndarray:
    """d bce_loss / d pred. Zero where the clamp is active, matching the
    computed function exactly."""
    p, t = _as_pair(pred, target)
    pc = np.clip(p, eps, 1.0 - eps)
    grad = (pc - t) / (pc * (1.0 - pc)) / p.size
    return np.where((p > eps) & (p < 1.0 - eps), grad, 0.0)


def focal_loss(pred, target, gamma: float = 2.0, balance: float = 0.5,
               eps: float = DEFAULT_CLAMP_EPS) -> float:
    """Balanced focal loss, voxel-mean.  `balance` weights the occupied
    term, (1 - balance) the empty term; gamma=0 with balance=0.5 reduces
    to 0.5 * bce_loss exactly."""
    p, t = _as_pair(pred, target)
    p = np.clip(p, eps, 1.0 - eps)
    pos = balance * t * (1.0 - p) ** gamma * np.log(p)
    neg = (1.0 - balance) * (1.0 - t) * p ** gamma * np.log1p(-p)
    return float(-np.mean(pos + neg))


def focal_loss_grad(pred, target, gamma: float = 2.0, balance: float = 0.5,
                    eps: float = DEFAULT_CLAMP_EPS) -> np.ndarray:
    p, t = _as_pair(pred, target)
    pc = np.clip(p, eps, 1.0 - eps)
    q = 1.0 - pc
    if gamma == 0.0:
        dpos = balance * t / pc
        dneg = (1.0 - balance) * (1.0 - t) / q
        grad = -(dpos - dneg) / p.size
    else:
        dpos = balance * t * (q ** gamma / pc - gamma * q ** (gamma - 1.0) * np.log(pc))
        dneg = (1.0 - balance) * (1.0 - t) * (
            gamma * pc ** (gamma - 1.0) * np.log1p(-pc) - pc ** gamma / q)
        grad = -(dpos + dneg) / p.size
    return np.where((p > eps) & (p < 1.0 - eps), grad, 0.0)


def reconstruction_loss(pred, target, config: LossConfig) -> float:
    if config.kind == "focal":
        return focal_loss(pred, target, config.focal_gamma,
                          config.focal_balance, config.clamp_eps)
    return bce_loss(pred, target, config.clamp_eps)


def reconstruction_loss_grad(pred, target, config: LossConfig) -> np.ndarray:
    if config.kind == "focal":
        return focal_loss_grad(pred, target, config.focal_gamma,
                               config.focal_balance, config.clamp_eps)
    return bce_loss_grad(pred, target, config.clamp_eps)


# ---------------------------------------------------------------------------
# Latent alignment losses
# ---------------------------------------------------------------------------

def _as_batch(v) -> np.ndarray:
    arr = _values(v)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"latent batch must be 1-D or 2-D, got {arr.shape}")
    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm latent vector")
    return arr


def cosine_similarity(a, b) -> np.ndarray:
    """Row-wise cosine similarity of two equally shaped latent batches."""
    va, vb = _as_batch(a), _as_batch(b)
    if va.shape != vb.shape:
        raise ValueError(f"width mismatch: {va.shape} vs {vb.shape}")
    num = np.sum(va * vb, axis=1)
    return num / (np.linalg.norm(va, axis=1) * np.linalg.norm(vb, axis=1))


def _cosine_grads(a: np.ndarray, b: np.ndarray):
    """Returns (sim, d sim/d a, d sim/d b), all row-wise."""
    na = np.linalg.norm(a, axis=1, keepdims=True)
    nb = np.linalg.norm(b, axis=1, keepdims=True)
    sim = np.sum(a * b, axis=1, keepdims=True) / (na * nb)
    da = b / (na * nb) - sim * a / na ** 2
    db = a / (na * nb) - sim * b / nb ** 2
    return sim[:, 0], da, db


def align_loss(fused, pos, neg, margin: float = 0.1,
               triplet_mask=None) -> tuple[float, float, float]:
    """Triplet-plus-cosine alignment; returns (loss, mean sim to positive,
    mean sim to negative).

    Per row: max(sim_neg - sim_pos + margin, 0) + 1 - sim_pos, averaged
    over the batch.  `triplet_mask` (bool per row) disables the triplet
    term where no valid negative exists.
    """
    global last_hinge_margin
    f, p, n = _as_batch(fused), _as_batch(pos), _as_batch(neg)
    if not (f.shape == p.shape == n.shape):
        raise ValueError("latent width mismatch between fused/pos/neg")
    sim_pos = cosine_similarity(f, p)
    sim_neg = cosine_similarity(f, n)
    mask = np.ones_like(sim_pos) if triplet_mask is None else \
        np.asarray(triplet_mask, dtype=f.dtype)
    hinge = sim_neg - sim_pos + margin
    last_hinge_margin = float(np.min(np.abs(hinge[mask != 0]),
                                     initial=np.inf))
    triplet = np.maximum(hinge, 0.0) * mask
    loss = float(np.mean(triplet + 1.0 - sim_pos))
    return loss, float(np.mean(sim_pos)), float(np.mean(sim_neg))


def align_loss_grads(fused, pos, neg, margin: float = 0.1, triplet_mask=None):
    """Analytic gradients of align_loss w.r.t. (fused, pos, neg)."""
    f, p, n = _as_batch(fused), _as_batch(pos), _as_batch(neg)
    rows = f.shape[0]
    sim_pos, dp_f, dp_p = _cosine_grads(f, p)
    sim_neg, dn_f, dn_n = _cosine_grads(f, n)
    mask = np.ones(rows) if triplet_mask is None else \
        np.asarray(triplet_mask, dtype=np.float64)
    active = ((sim_neg - sim_pos + margin > 0.0) * mask)[:, None]
    # d/d sim_pos = -(active + 1); d/d sim_neg = active; mean over rows.
    coeff_pos = -(active + 1.0) / rows
    coeff_neg = active / rows
    d_fused = coeff_pos * dp_f + coeff_neg * dn_f
    d_pos = coeff_pos * dp_p
    d_neg = coeff_neg * dn_n
    return (d_fused.astype(f.dtype), d_pos.astype(f.dtype),
            d_neg.astype(f.dtype))


def align_loss_no_triplet(fused, pos) -> float:
    """Cosine-only alignment used once pairing identities get ambiguous:
    mean of 1 - cos(fused, pos)."""
    return float(np.mean(1.0 - cosine_similarity(fused, pos)))


def align_loss_no_triplet_grads(fused, pos):
    f, p = _as_batch(fused), _as_batch(pos)
    rows = f.shape[0]
    _, d_f, d_p = _cosine_grads(f, p)
    return ((-d_f / rows).astype(f.dtype), (-d_p / rows).astype(f.dtype))


def combined_loss(recon: float, align: float, sim_pos: float, sim_neg: float,
                  config: LossConfig) -> LossBreakdown:
    total = config.w_recon * recon + config.w_align * align
    return LossBreakdown(float(total), float(recon), float(align),
                         float(sim_pos), float(sim_neg))
