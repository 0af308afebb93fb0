"""Reconstruction and embedding-alignment losses.

Reconstruction compares the decoder's logits against a (possibly soft)
target occupancy grid with voxel-mean binary cross-entropy, computed from
the logits themselves, so no prediction is clamped.  The alignment loss
pulls a fused image+prior latent toward the embedding of its own
ground-truth volume (cosine term) while keeping it further from a
different object's embedding than a margin (triplet term).  A row whose
triplet is masked off keeps only the cosine term: rows with no valid
negative, and every row of a latent-mixed batch.

Each loss is one function that returns its value together with its
analytic gradient, computed from the same logits and cosines; the test
suite and `voxmix grad-check` check the gradients against finite
differences.  Inputs are numpy arrays.  `_cosine_grads` is the one
validation of a latent batch: 1-D or 2-D, of one shape with its partner,
and no zero-norm row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import sigmoid

# How close the hinge of an unmasked row came to its kink at zero in the
# last align_loss call; the verification harness reads it.
last_hinge_margin = np.inf


@dataclass(frozen=True)
class LossConfig:
    """Weights and knobs for the combined training loss."""

    w_recon: float = 10.0
    w_align: float = 0.5
    margin: float = 0.1

    def __post_init__(self):
        for name in ("w_recon", "w_align"):
            if not 0.0 <= getattr(self, name) < float("inf"):
                raise ValueError(f"{name} must be in [0, inf), got "
                                 f"{getattr(self, name)}")
        if not 0.0 <= self.margin <= 1.0:
            raise ValueError(f"margin must be in [0, 1], got {self.margin}")


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    recon: float
    align: float
    sim_pos: float
    sim_neg: float


# ---------------------------------------------------------------------------
# Reconstruction loss: (voxel-mean value, d value / d logits)
# ---------------------------------------------------------------------------

def bce_loss(logits, target) -> tuple[float, np.ndarray]:
    """Voxel-mean binary cross-entropy of sigmoid(z) against soft or hard
    targets t, from logits z: mean(softplus(z) - t * z), with gradient
    (sigmoid(z) - t) / n in z's dtype.  softplus(z) is max(z, 0) +
    log1p(exp(-|z|)): it never overflows, and is faster than np.logaddexp."""
    z, t = np.asarray(logits), np.asarray(target)
    if z.shape != t.shape:
        raise ValueError(f"shape mismatch: {z.shape} vs {t.shape}")
    softplus = np.maximum(z, 0) + np.log1p(np.exp(-np.abs(z)))
    return float(np.mean(softplus - t * z)), \
        ((sigmoid(z) - t) / z.size).astype(z.dtype, copy=False)


# ---------------------------------------------------------------------------
# Latent alignment loss
# ---------------------------------------------------------------------------

def _cosine_grads(a, b):
    """Returns (sim, d sim/d a, d sim/d b), all row-wise, for two equally
    shaped latent batches (a 1-D latent is a batch of one)."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"unequal or non-2-D latents: {a.shape}, {b.shape}")
    na = np.linalg.norm(a, axis=1, keepdims=True)
    nb = np.linalg.norm(b, axis=1, keepdims=True)
    if not (na.all() and nb.all()):
        raise ValueError("zero-norm latent vector")
    sim = np.sum(a * b, axis=1, keepdims=True) / (na * nb)
    da = b / (na * nb) - sim * a / na ** 2
    db = a / (na * nb) - sim * b / nb ** 2
    return sim[:, 0], da, db


def align_loss(fused, pos, neg, margin: float, triplet_mask=None):
    """Triplet-plus-cosine alignment; returns (loss, mean sim to positive,
    mean sim to negative, (d loss/d fused, d loss/d pos, d loss/d neg)).

    Per row: max(sim_neg - sim_pos + margin, 0) + 1 - sim_pos, averaged
    over the batch.  `triplet_mask` (one value per row, default all on)
    switches the triplet term off where it is zero: such a row adds only
    1 - sim_pos, and zero gradient to `neg`.  The reported sim to negative
    is the mean over the rows whose triplet is on, 0.0 if there are none.
    """
    global last_hinge_margin
    f = np.atleast_2d(fused)
    sim_pos, dp_f, dp_p = _cosine_grads(f, pos)
    sim_neg, dn_f, dn_n = _cosine_grads(f, neg)
    rows = f.shape[0]
    mask = np.ones(rows) if triplet_mask is None else \
        np.asarray(triplet_mask, dtype=np.float64)
    on = mask != 0
    hinge = sim_neg - sim_pos + margin
    last_hinge_margin = float(np.min(np.abs(hinge[on]), initial=np.inf))
    triplet = np.maximum(hinge, 0.0) * mask.astype(f.dtype)
    loss = float(np.mean(triplet + 1.0 - sim_pos))
    active = ((hinge > 0.0) * mask)[:, None]
    # d/d sim_pos = -(active + 1); d/d sim_neg = active; mean over rows.
    coeff_pos = -(active + 1.0) / rows
    coeff_neg = active / rows
    d_fused = coeff_pos * dp_f + coeff_neg * dn_f
    grads = (d_fused.astype(f.dtype), (coeff_pos * dp_p).astype(f.dtype),
             (coeff_neg * dn_n).astype(f.dtype))
    mean_neg = float(np.mean(sim_neg[on])) if on.any() else 0.0
    return loss, float(np.mean(sim_pos)), mean_neg, grads


def combined_loss(recon: float, align: float, sim_pos: float, sim_neg: float,
                  config: LossConfig) -> LossBreakdown:
    total = config.w_recon * recon + config.w_align * align
    return LossBreakdown(float(total), float(recon), float(align),
                         float(sim_pos), float(sim_neg))
