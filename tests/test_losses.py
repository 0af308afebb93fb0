import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxmix import losses


def unit_vectors_with_cosine(target):
    """Two unit vectors whose cosine similarity is exactly `target`."""
    a = np.zeros(8)
    a[0] = 1.0
    b = np.zeros(8)
    b[0] = target
    b[1] = math.sqrt(1.0 - target * target)
    return a, b


# ---------------------------------------------------------------------------
# bce
# ---------------------------------------------------------------------------

def logit(p):
    return math.log(p / (1.0 - p))


def test_bce_half_prediction_is_ln2():
    logits = np.zeros((4, 4, 4))
    target = (np.arange(64).reshape(4, 4, 4) % 2).astype(np.float64)
    assert losses.bce_loss(logits, target)[0] \
        == pytest.approx(math.log(2), abs=1e-9)


def test_bce_soft_target_binary_entropy():
    logits = np.full((4, 4, 4), logit(0.3))
    target = np.full((4, 4, 4), 0.3)
    expected = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
    assert losses.bce_loss(logits, target)[0] == pytest.approx(expected, abs=1e-9)


def test_bce_at_binary_target_is_near_zero():
    target = (np.random.default_rng(0).random((4, 4, 4)) < 0.4).astype(float)
    value = losses.bce_loss(np.where(target > 0, 20.0, -20.0), target)[0]
    assert 0.0 <= value <= 1e-6


def test_bce_shape_mismatch():
    with pytest.raises(ValueError):
        losses.bce_loss(np.zeros((2, 2)), np.zeros((3, 3)))


@given(st.floats(0.05, 0.95))
@settings(max_examples=20, deadline=None)
def test_bce_minimised_at_target(y):
    # Grid search over the logit: the per-voxel loss is smallest at logit(y).
    grid = np.linspace(-4.0, 4.0, 801)
    values = [losses.bce_loss(np.full(1, z), np.full(1, y))[0] for z in grid]
    best = grid[int(np.argmin(values))]
    assert abs(best - logit(y)) <= 0.006


def test_bce_saturated_wrong_voxel_keeps_its_gradient():
    # Voxel 0 is saturated on the wrong side: it keeps the full pull -1/n.
    logits = np.array([-100.0, 0.0, 3.0, -3.0], dtype=np.float32)
    target = np.array([1.0, 0.0, 1.0, 0.0], dtype=np.float32)
    value, grad = losses.bce_loss(logits, target)
    assert math.isfinite(value) and value > 100.0 / 4
    assert grad.dtype == np.float32
    assert grad[0] == np.float32(-1.0 / 4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bce_extreme_logits_stay_finite(dtype):
    logits = np.array([1e4, -1e4, 1e4, -1e4], dtype=dtype)
    target = np.array([1.0, 0.0, 0.0, 1.0], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, grad = losses.bce_loss(logits, target)
    assert value == pytest.approx(2e4 / 4)
    assert np.array_equal(grad, [0.0, 0.0, 0.25, -0.25])


# ---------------------------------------------------------------------------
# alignment losses
# ---------------------------------------------------------------------------

def test_align_perfect_positive_is_zero():
    fused = np.zeros(8)
    fused[0] = 2.0  # parallel to the positive, orthogonal to the negative
    pos = np.zeros(8)
    pos[0] = 1.0
    neg = np.zeros(8)
    neg[1] = 1.0
    value, sim_pos, sim_neg, _ = losses.align_loss(fused, pos, neg, margin=0.1)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert sim_pos == pytest.approx(1.0)
    assert sim_neg == pytest.approx(0.0)


def test_align_equal_similarities():
    # sim_pos = sim_neg = 0.5 with margin 0.1: 0.1 + 0.5 = 0.6.
    fused = np.array([1.0, 0.0, 0.0])
    pos = np.array([0.5, math.sqrt(0.75), 0.0])
    neg = np.array([0.5, 0.0, math.sqrt(0.75)])
    value, _, _, _ = losses.align_loss(fused, pos, neg, margin=0.1)
    assert value == pytest.approx(0.6, abs=1e-9)


def test_align_reference_point_nine_eighty_five():
    fused, pos = unit_vectors_with_cosine(0.9)
    _, neg = unit_vectors_with_cosine(0.85)
    value, sim_pos, sim_neg, _ = losses.align_loss(fused, pos, neg, margin=0.1)
    assert sim_pos == pytest.approx(0.9, abs=1e-12)
    assert sim_neg == pytest.approx(0.85, abs=1e-12)
    assert value == pytest.approx(0.15, abs=1e-9)


def test_align_zero_norm_rejected():
    with pytest.raises(ValueError, match="zero-norm"):
        losses.align_loss(np.zeros(4), np.ones(4), np.ones(4),
                          losses.LossConfig().margin)


def _latent_batches():
    return {name: np.ones((2, 4)) for name in ("fused", "pos", "neg")}


@pytest.mark.parametrize("which", ["pos", "neg"])
def test_align_zero_norm_pos_or_neg_row_rejected(which):
    latents = _latent_batches()
    latents[which][1] = 0.0
    with pytest.raises(ValueError, match="zero-norm"):
        losses.align_loss(*latents.values(), 0.1)


@pytest.mark.parametrize("shape", [(2, 3), (3, 4), (2, 2, 4)],
                         ids=["width", "rows", "3d"])
@pytest.mark.parametrize("which", ["fused", "pos", "neg"])
def test_align_rejects_latents_of_another_shape(which, shape):
    latents = _latent_batches()
    latents[which] = np.ones(shape)
    with pytest.raises(ValueError):
        losses.align_loss(*latents.values(), 0.1)


def _no_triplet(fused, pos, neg):
    """align_loss with every row's triplet masked off."""
    return losses.align_loss(fused, pos, neg, 0.1,
                             triplet_mask=np.zeros(np.atleast_2d(fused).shape[0]))


def test_align_no_triplet_cases():
    v = np.array([0.3, -0.7, 2.0])
    assert _no_triplet(v, 2.5 * v, -v)[0] == pytest.approx(0.0, abs=1e-12)
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert _no_triplet(a, b, a)[0] == pytest.approx(1.0)
    assert _no_triplet(a, -a, a)[0] == pytest.approx(2.0)
    rng = np.random.default_rng(4)
    fused, pos, neg = (rng.standard_normal((5, 6)) for _ in range(3))
    value, _, sim_neg, (_, _, d_neg) = _no_triplet(fused, pos, neg)
    # Exactly the cosine term: mean(1 - cos), no triplet, no negative.
    assert value == float(np.mean(1.0 - losses._cosine_grads(fused, pos)[0]))
    assert sim_neg == 0.0
    assert not d_neg.any()


def test_align_sim_neg_averages_the_unmasked_rows_only():
    fused = np.eye(3)
    pos = np.ones((3, 3))
    neg = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    # Row cosines to the negative: 1/sqrt(2), 1 and 1.
    sims = [1.0 / math.sqrt(2.0), 1.0, 1.0]
    full = losses.align_loss(fused, pos, neg, 0.1)[2]
    assert full == pytest.approx(np.mean(sims))
    partial = losses.align_loss(fused, pos, neg, 0.1, [1.0, 0.0, 0.0])[2]
    assert partial == pytest.approx(sims[0])
    assert losses.align_loss(fused, pos, neg, 0.1, [0.0, 1.0, 1.0])[2] \
        == pytest.approx(1.0)
    assert losses.align_loss(fused, pos, neg, 0.1, np.zeros(3))[2] == 0.0


def test_align_batch_reduction_is_mean():
    fused = np.stack([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    pos = np.stack([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
    neg = np.stack([np.array([0.0, 1.0]), np.array([0.0, 1.0])])
    value, sim_pos, sim_neg, _ = losses.align_loss(fused, pos, neg, margin=0.0)
    # Row 0: aligned, loss 0; row 1: sim_pos 0, sim_neg 1 -> 1 + 1 = 2.
    assert value == pytest.approx(1.0)
    assert sim_pos == pytest.approx(0.5)
    assert sim_neg == pytest.approx(0.5)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_align_nonnegative_and_zero_condition(seed):
    rng = np.random.default_rng(seed)
    fused = rng.standard_normal((3, 6))
    pos = rng.standard_normal((3, 6))
    neg = rng.standard_normal((3, 6))
    margin = float(rng.uniform(0, 1))
    value, sim_pos, sim_neg, _ = losses.align_loss(fused, pos, neg, margin)
    assert value >= -1e-12


def test_align_triplet_mask_disables_hinge():
    fused = np.array([1.0, 0.0])
    pos = np.array([1.0, 0.0])
    neg = np.array([1.0, 0.0])  # worst-case negative
    with_hinge, _, _, _ = losses.align_loss(fused, pos, neg, margin=0.2)
    masked, _, _, _ = losses.align_loss(fused, pos, neg, margin=0.2,
                                        triplet_mask=[0.0])
    assert with_hinge == pytest.approx(0.2)
    assert masked == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# combined
# ---------------------------------------------------------------------------

def test_combined_reference_value():
    cfg = losses.LossConfig(w_recon=10.0, w_align=0.5)
    out = losses.combined_loss(0.6931, 0.6, 0.5, 0.5, cfg)
    assert out.total == pytest.approx(7.231, abs=1e-12)


def test_combined_align_ablation_switch():
    cfg = losses.LossConfig(w_recon=10.0, w_align=0.0)
    out = losses.combined_loss(0.25, 123.0, 0.0, 0.0, cfg)
    assert out.total == pytest.approx(2.5)


def test_default_hyperparameters():
    cfg = losses.LossConfig()
    assert cfg.w_recon == 10.0
    assert cfg.w_align == 0.5
    assert cfg.margin == 0.1


def test_loss_config_validation():
    with pytest.raises(ValueError):
        losses.LossConfig(w_recon=-1.0)
    with pytest.raises(ValueError):
        losses.LossConfig(margin=1.5)


# ---------------------------------------------------------------------------
# analytic gradients vs finite differences
# ---------------------------------------------------------------------------

def _central_diff(f, x, step=1e-6):
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + step
        hi = f()
        flat[k] = orig - step
        lo = f()
        flat[k] = orig
        out[k] = (hi - lo) / (2 * step)
    return grad


def test_bce_grad_matches_fd():
    rng = np.random.default_rng(3)
    logits = rng.uniform(-3.0, 3.0, (3, 3))
    target = rng.uniform(0, 1, (3, 3))
    fd = _central_diff(lambda: losses.bce_loss(logits, target)[0], logits)
    assert np.allclose(losses.bce_loss(logits, target)[1], fd, atol=1e-7)


def test_align_grads_match_fd():
    rng = np.random.default_rng(5)
    fused = rng.standard_normal((2, 5))
    pos = rng.standard_normal((2, 5))
    neg = rng.standard_normal((2, 5))
    d_f, d_p, d_n = losses.align_loss(fused, pos, neg, 0.3)[3]
    for arr, grad in ((fused, d_f), (pos, d_p), (neg, d_n)):
        fd = _central_diff(
            lambda: losses.align_loss(fused, pos, neg, 0.3)[0], arr)
        assert np.allclose(grad, fd, atol=1e-7)


def test_align_no_triplet_grads_match_fd():
    rng = np.random.default_rng(6)
    fused = rng.standard_normal((2, 5))
    pos = rng.standard_normal((2, 5))
    neg = rng.standard_normal((2, 5))
    d_f, d_p, d_n = _no_triplet(fused, pos, neg)[3]
    for arr, grad in ((fused, d_f), (pos, d_p), (neg, d_n)):
        fd = _central_diff(lambda: _no_triplet(fused, pos, neg)[0], arr)
        assert np.allclose(grad, fd, atol=1e-7)
    assert not d_n.any()
