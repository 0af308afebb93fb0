import hashlib
from dataclasses import replace

import numpy as np
import pytest

from voxmix import evaluate, losses, trainer
from voxmix.config import ExperimentConfig
from voxmix.model import GridBatch, Network, NetworkConfig
from voxmix.nn import Conv2d, Conv3d, ParamStore

CFG = NetworkConfig(vox_dim=16, image_size=32, image_channels=(4, 4, 8, 8),
                    prior_channels=(4, 4, 8), decoder_channels=(8, 8, 4),
                    latent_width=32, variant="prior")
CFG_NO_PRIOR = replace(CFG, variant="no_prior")


def make(cfg=CFG, seed=0):
    net = Network(cfg)
    store = net.init_params(np.random.Generator(np.random.PCG64(seed)))
    return net, store


def batch(n=3, seed=1, cfg=CFG):
    """Images, and priors and volumes in the per-sample layout (one grid per
    sample)."""
    rng = np.random.default_rng(seed)
    images = rng.random((n, 2, cfg.image_size, cfg.image_size)).astype(np.float32)
    grids = (rng.random((n, 1) + (cfg.vox_dim,) * 3) < 0.4).astype(np.float32)
    volumes = (rng.random((n, 1) + (cfg.vox_dim,) * 3) < 0.4).astype(np.float32)
    return images, GridBatch(grids, np.arange(n)), GridBatch(volumes, np.arange(n))


def test_forward_shapes_and_closed_interval():
    net, store = make()
    images, priors, _ = batch()
    prediction = net.forward(images, priors, store)
    assert prediction.shape == (3, 16, 16, 16)
    assert prediction.min() >= 0.0 and prediction.max() <= 1.0
    assert net.encode(images, priors, store).shape == (3, 32)


def test_forward_is_pure():
    net, store = make()
    images, priors, _ = batch()
    a = net.forward(images, priors, store)
    b = net.forward(images, priors, store)
    assert a.tobytes() == b.tobytes()
    assert net.encode(images, priors, store).tobytes() \
        == net.encode(images, priors, store).tobytes()


def test_prior_sensitivity_of_fused_latent():
    # Central-difference sensitivity of the fused latent to the prior
    # input, probed over a handful of voxels with the image fixed.
    net, store = make()
    images, priors, _ = batch(n=1)
    rng = np.random.default_rng(8)
    step = 1e-2
    best = 0.0
    for _ in range(10):
        x, y, z = rng.integers(2, 14, size=3)
        hi = GridBatch(priors.grids.copy(), priors.rows)
        hi.grids[0, 0, x, y, z] += step
        lo = GridBatch(priors.grids.copy(), priors.rows)
        lo.grids[0, 0, x, y, z] -= step
        delta = net.encode(images, hi, store) - net.encode(images, lo, store)
        best = max(best, float(np.abs(delta).max() / (2 * step)))
    assert best > 0.0


def test_resolution_mismatch_rejected():
    net, store = make()
    images, priors, _ = batch()
    with pytest.raises(ValueError):
        net.forward(images[:, :, :16, :16], priors, store)
    with pytest.raises(ValueError):
        net.forward(images, GridBatch(priors.grids[:, :, :8, :8, :8],
                                      priors.rows), store)


def test_encode_gt_deterministic_and_distinct():
    net, store = make()
    rng = np.random.default_rng(3)
    volumes = GridBatch((rng.random((2, 1, 16, 16, 16)) < 0.4).astype(np.float32),
                        np.arange(2))
    a = net.encode_gt(volumes, store)
    b = net.encode_gt(volumes, store)
    assert a.tobytes() == b.tobytes()
    cosine = a[0] @ a[1] / (np.linalg.norm(a[0]) * np.linalg.norm(a[1]))
    assert cosine < 1.0


def test_no_prior_variant_contract():
    net, store = make(CFG_NO_PRIOR)
    images, priors, _ = batch(cfg=CFG_NO_PRIOR)
    prediction = net.forward(images, None, store)
    assert prediction.shape == (3, 16, 16, 16)
    assert prediction.min() >= 0.0 and prediction.max() <= 1.0
    # No prior-encoder tensors exist; the pooled projection replaces them.
    assert not any(name.startswith("prior_encoder.") for name in store.params)
    assert any(name.startswith("pool_proj.") for name in store.params)
    with pytest.raises(ValueError):
        net.forward(images, priors, store)


def test_prior_network_rejects_a_missing_prior_batch():
    net, store = make()
    images, _, _ = batch()
    with pytest.raises(ValueError, match="requires a prior batch"):
        net.forward(images, None, store)


def test_variant_store_mismatch_detected():
    net_prior, store_prior = make()
    net_np = Network(CFG_NO_PRIOR)
    with pytest.raises(ValueError, match="variant"):
        net_np.check_store(store_prior)


@pytest.mark.parametrize("cfg", [CFG, CFG_NO_PRIOR], ids=["prior", "no_prior"])
def test_centring_zeroes_the_pool_mean_of_every_latent(cfg):
    net, store = make(cfg, seed=4)
    images, priors, volumes = batch(n=70, seed=9, cfg=cfg)
    if cfg.variant == "no_prior":
        priors = None
    # 9 volumes read by 7 or 8 samples each: the mean is over samples.
    volumes = volumes.take(np.arange(70) % 9)
    # 70 samples in batches of 32: two full batches and a partial one.
    net.center_latent_biases(store, images, priors, volumes, batch_size=32)
    e_fused = net.encode(images, priors, store)
    fc0 = net.merger.layers[0]._x @ store.params["merger.fc0.w"] \
        + store.params["merger.fc0.b"]
    feat, aux_in = net._features(images, priors, store)
    e_image = net.image_head.forward(feat, store)
    e_aux = net.aux_head.forward(aux_in, store)
    gt = net.encode_gt(volumes, store)
    for name, value in [("e_image", e_image), ("e_aux", e_aux),
                        ("merger.fc0", fc0), ("e_fused", e_fused), ("gt", gt)]:
        mean = np.abs(value.mean(axis=0)).max()
        assert mean <= 1e-5 * np.abs(value).max(), name


def test_gradient_reaches_every_parameter():
    net, store = make(seed=5)
    images, priors, volumes = batch(seed=6)
    step = trainer.Batch(images, priors, volumes)
    for stage in trainer.PIPELINES["dual_mix"]:
        _, backward = trainer.stage_step(net, store, step, stage,
                                         losses.LossConfig(), 0.2,
                                         np.random.default_rng(7))
        backward()
        for name, grad in store.grads.items():
            assert np.any(grad != 0.0), f"stage {stage}: no gradient reached {name}"


def test_skipping_the_first_convs_input_gradient_keeps_every_gradient():
    net, store = make(seed=2)
    images, priors, volumes = batch(seed=3)
    first_convs = [net.image_conv.layers[0], net.prior_conv.layers[0],
                   net.gt_conv.layers[0]]
    assert [conv.input_grad for conv in first_convs] == [False] * 3
    rng = np.random.default_rng(4)
    d_logits = rng.standard_normal((3, 16, 16, 16)).astype(np.float32)
    d_fused = rng.standard_normal((3, 32)).astype(np.float32)
    d_latent = rng.standard_normal((3, 32)).astype(np.float32)
    grads = []
    for input_grad in (False, True):
        for conv in first_convs:
            conv.input_grad = input_grad
        store.zero_grads()
        net.forward(images, priors, store)
        net.encode_backward(net.decode_backward(d_logits, store) + d_fused,
                            store)
        net.encode_gt(volumes, store)
        net.encode_gt_backward(d_latent, store)
        grads.append({name: g.tobytes() for name, g in store.grads.items()})
    assert grads[0] == grads[1]


@pytest.mark.parametrize("layer,shape", [
    (Conv2d("c", 2, 3, 3, stride=2, pad=1), (2, 2, 6, 6)),
    (Conv3d("c", 1, 2, 3, stride=2, pad=1), (2, 1, 4, 4, 4))])
def test_a_default_conv_returns_its_input_gradient(layer, shape):
    store = ParamStore.pack(layer.init_params(np.random.default_rng(0), np.float64))
    x = np.random.default_rng(1).standard_normal(shape)
    dx = layer.backward(np.ones_like(layer.forward(x, store)), store)
    assert dx.shape == x.shape and np.any(dx != 0.0)


def test_corrupted_prior_is_pure_input_substitution():
    net, store = make()
    images, priors, _ = batch()
    wrong = GridBatch(priors.grids, np.roll(priors.rows, 1))
    assert net.forward(images, wrong, store).shape \
        == net.forward(images, priors, store).shape
    assert not np.array_equal(net.encode(images, wrong, store),
                              net.encode(images, priors, store))


def shared_and_per_sample(n, seed):
    """One prior input with repeated rows, and the same priors in the
    per-sample layout."""
    rng = np.random.default_rng(seed)
    grids = (rng.random((3, 1) + (CFG.vox_dim,) * 3) < 0.4).astype(np.float32)
    rows = rng.integers(0, 3, n)
    return GridBatch(grids, rows), GridBatch(grids[rows], np.arange(n))


@pytest.mark.parametrize("n", [1, 7, 32])
def test_a_shared_prior_matches_the_per_sample_layout(n):
    net, store = make(seed=6)
    images, _, _ = batch(n=n, seed=n)
    shared, per_sample = shared_and_per_sample(n, seed=n + 1)
    # The conv stack's GEMMs may block a batch of 3 grids and one of n
    # grids differently, so the two agree to float32 rounding, not bitwise.
    for run in (net.encode, net.forward):
        want = run(images, per_sample, store)
        np.testing.assert_allclose(run(images, shared, store), want, rtol=1e-5,
                                   atol=1e-6 * np.abs(want).max())


def test_prior_encoder_gradients_of_a_shared_prior_match_the_per_sample_layout():
    net, store = make(seed=7)
    n = 7
    images, _, _ = batch(n=n, seed=8)
    d_logits = np.random.default_rng(9).standard_normal(
        (n,) + (CFG.vox_dim,) * 3).astype(np.float32)
    grads = []
    for priors in shared_and_per_sample(n, seed=10):
        store.zero_grads()
        net.forward(images, priors, store)
        net.encode_backward(net.decode_backward(d_logits, store), store)
        grads.append({name: grad.copy() for name, grad in store.grads.items()
                      if name.startswith("prior_encoder.")})
    shared, per_sample = grads
    assert len(per_sample) == 8   # three convs and the head, w and b each
    for name, want in per_sample.items():
        assert np.linalg.norm(shared[name] - want) \
            <= 1e-5 * np.linalg.norm(want), name


def test_a_batch_of_one_class_encodes_one_prior_grid(monkeypatch):
    net, store = make()
    images, _, _ = batch(n=5)
    conv = net.prior_conv.layers[0]
    sizes = []
    forward = conv.forward

    def counted(x, store):
        sizes.append(len(x))
        return forward(x, store)

    monkeypatch.setattr(conv, "forward", counted)
    grid = np.full((1,) + (CFG.vox_dim,) * 3, 0.5, np.float32)
    priors_by_class = {"box": grid, "lamp": grid * 0.5}
    one_class = evaluate.prior_batch(["lamp"] * 5, priors_by_class, "correct",
                                     ("box", "lamp"))
    net.forward(images, one_class, store)
    # A batch taken from a pool of several classes encodes only its own.
    pool = evaluate.prior_batch(["box", "lamp", "lamp", "box", "lamp", "lamp"],
                                priors_by_class, "correct", ("box", "lamp"))
    net.forward(images, pool.take([1, 2, 4, 5, 1]), store)
    assert sizes == [1, 1]


def test_network_config_validation():
    with pytest.raises(ValueError):
        replace(CFG, variant="maybe_prior")


def _wb(part, *layers):
    return [f"{part}.{layer}.{kind}" for layer in layers for kind in "wb"]


_GT_ENCODER = _wb("gt_encoder", "conv0", "conv1", "conv2", "fc")
_HEAD = _wb("merger", "fc0", "fc1") + _wb("decoder", "fc", "up1", "up2", "up3")
# (names, sha256 of the flat float32 bytes) of the default config's networks
# from stream seed 0: `Network.parts` fixes both the order and the draws.
_INIT = {
    "correct": (_wb("image_encoder", "conv0", "conv1", "conv2", "conv3", "fc")
                + _wb("prior_encoder", "conv0", "conv1", "conv2", "fc")
                + _HEAD + _GT_ENCODER,
                "a0918fd857968cf2f122bcd4fed1ac472d6ea45c1d1e840a9fbbbfa8f655b918"),
    "none": (_wb("image_encoder", "conv0", "conv1", "conv2", "conv3", "fc")
             + _wb("pool_proj", "fc") + _HEAD + _GT_ENCODER,
             "428d613bf12c8c9abe83be72966a1fe1373fa7a44f63f9f9c10052a587a80e9e"),
}
_PRETRAIN_INIT = (_GT_ENCODER + _wb("gt_decoder", "fc", "up1", "up2", "up3"),
                  "3b74d134179d35b1ca1d51ab4db9b28a7283e0901d2c38d7a587a4d4bcb62a18")


def _default_network(mode):
    config = ExperimentConfig()
    return Network(trainer.network_config(
        replace(config, prior=replace(config.prior, mode=mode))))


def _names_and_digest(store):
    return list(store.names), hashlib.sha256(store.flat.tobytes()).hexdigest()


@pytest.mark.parametrize("mode", ["correct", "none"])
def test_init_params_keep_their_order_and_draws(mode):
    store = _default_network(mode).init_params(trainer.stream_rng(0, "init"))
    assert store.flat.dtype == np.float32
    assert _names_and_digest(store) == _INIT[mode]


@pytest.mark.parametrize("mode", ["correct", "none"])
def test_init_pretrain_params_keep_their_order_and_draws(mode):
    store = _default_network(mode).init_pretrain_params(
        trainer.stream_rng(0, "pretrain_init"))
    assert store.flat.dtype == np.float32
    assert _names_and_digest(store) == _PRETRAIN_INIT
