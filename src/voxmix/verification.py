"""Finite-difference verification harness.

Builds a named fragment for every layer type, every loss, and the training
step of each stage through a whole tiny network (both network variants; the
steps run the code that trains, `trainer.stage_step` and `pretrain_step`),
then checks analytic gradients against central differences at float64.  A
fragment returns its loss and a pullback to its gradients, so the probes
run no backward pass, nor does the pipelines' kink-safe seed search (ReLU
margins are recorded in the forward pass, the hinge margin in the loss).
Inputs are sampled away from the kinks so the comparison is well defined.
The pretraining fragment is checked in tier-1 only: it is not one of
`standard_fragments`, so `voxmix grad-check` does not run it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import losses, nn, trainer
from .config import MixupSection
from .model import GridBatch, Network, NetworkConfig

TINY_NET = NetworkConfig(vox_dim=8, image_size=16,
                         image_channels=(2, 3, 3, 4),
                         prior_channels=(2, 3, 3),
                         decoder_channels=(4, 3, 2),
                         latent_width=6, variant="prior")

TINY_NET_NO_PRIOR = replace(TINY_NET, variant="no_prior")


# Central differences use step 1e-5.  Layer and loss fragments sample
# their inputs well away from the ReLU and hinge kinks; the composed
# pipelines have thousands of pre-activations, so their seeds are chosen
# so that every kink stays at least _KINK_MARGIN (ten probe steps) away.
_FD_STEP = 1e-5
_KINK_MARGIN = 1e-4


def _signed_uniform(rng, shape, lo=0.1, hi=1.0):
    mag = rng.uniform(lo, hi, shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mag * sign


def _net_relu_margin(net: Network) -> float:
    margins = [layer.last_min_abs
               for part in (*net.parts, net.gt_decoder) for layer in part.layers
               if isinstance(layer, nn.ReLU) and hasattr(layer, "last_min_abs")]
    return min(margins) if margins else np.inf


def _layer_fragment(layer, x, seed):
    """Scalar loss sum(forward(x) * probe); differentiates params and input.
    The layer gets fresh copies of x and probe, which `ReLU` overwrites."""
    rng = np.random.default_rng(seed)
    store = nn.ParamStore.pack(layer.init_params(rng, np.float64))
    y = layer.forward(x.copy(), store)
    probe = rng.standard_normal(y.shape)
    arrays = {"input": x, **store.params}

    def fn(arrs):
        out = layer.forward(arrs["input"].copy(), store)

        def pullback():
            store.zero_grads()
            return {"input": layer.backward(probe.copy(), store),
                    **store.grads}

        return float(np.sum(out * probe)), pullback

    return fn, arrays


def layer_fragments(seed: int = 0):
    rng = np.random.default_rng(seed)
    fragments = []

    def add(name, layer, x):
        fragments.append((name, *_layer_fragment(layer, x, seed)))

    add("dense", nn.Dense("f", 5, 4), _signed_uniform(rng, (3, 5)))
    add("conv2d", nn.Conv2d("f", 2, 3, 3, stride=2, pad=1),
        _signed_uniform(rng, (2, 2, 6, 6)))
    add("conv3d", nn.Conv3d("f", 2, 3, 3, stride=2, pad=1),
        _signed_uniform(rng, (2, 2, 6, 6, 6)))
    add("conv_transpose3d", nn.ConvTranspose3d("f", 3, 2, 4, stride=2, pad=1),
        _signed_uniform(rng, (2, 3, 3, 3, 3)))
    add("relu", nn.ReLU(), _signed_uniform(rng, (4, 7)))
    add("reshape", nn.Reshape((2, 2)), _signed_uniform(rng, (3, 4)))
    add("global_avg_pool2d", nn.GlobalAvgPool2d(),
        _signed_uniform(rng, (3, 2, 4, 4)))
    return fragments


def loss_fragments(seed: int = 0):
    rng = np.random.default_rng(seed)
    fragments = []

    logits = _signed_uniform(rng, (2, 5, 5, 5), 0.1, 3.0)
    target = rng.uniform(0.0, 1.0, (2, 5, 5, 5))

    def bce_fn(arrs):
        value, d_logits = losses.bce_loss(arrs["logits"], target)
        return value, lambda: {"logits": d_logits}

    fragments.append(("bce_loss", bce_fn, {"logits": logits}))

    fused = _signed_uniform(rng, (4, 6))
    pos = _signed_uniform(rng, (4, 6))
    neg = _signed_uniform(rng, (4, 6))

    def align_fn(arrs):
        value, _, _, (d_f, d_p, d_n) = losses.align_loss(
            arrs["fused"], arrs["pos"], arrs["neg"], 0.3)
        return value, lambda: {"fused": d_f, "pos": d_p, "neg": d_n}

    fragments.append(("align_loss", align_fn,
                      {"fused": fused, "pos": pos, "neg": neg}))
    return fragments


def _pipeline_data(cfg: NetworkConfig, seed: int):
    rng = np.random.default_rng(seed)
    net = Network(cfg)
    store = net.init_params(
        np.random.Generator(np.random.PCG64(seed)), np.float64)
    images = rng.uniform(0.0, 1.0, (3, 2, cfg.image_size, cfg.image_size))
    # The first two samples are views of one object: they share one prior
    # row and one volume row, so each encoder's backward sums two samples'
    # gradients into one grid, and the triplet must pick the other object.
    rows = np.array([0, 0, 1])
    priors = GridBatch(rng.uniform(0.0, 1.0, (2, 1) + (cfg.vox_dim,) * 3),
                       rows) if cfg.variant == "prior" else None
    volumes = (rng.uniform(0.0, 1.0, (2, 1) + (cfg.vox_dim,) * 3) > 0.5) \
        .astype(np.float64)
    return net, store, trainer.Batch(images, priors, GridBatch(volumes, rows))


def _kink_safe(build, seed: int):
    """(fn, arrays) of `build(candidate) -> (net, fn, arrays)` for the
    first candidate seed whose loss call keeps clear of every kink."""
    for attempt in range(50):
        net, fn, arrays = build(seed + 1000 * attempt)
        nn.ReLU.record_margins = True
        losses.last_hinge_margin = np.inf
        try:
            fn(arrays)
        finally:
            nn.ReLU.record_margins = False
        if min(_net_relu_margin(net), losses.last_hinge_margin) > _KINK_MARGIN:
            return fn, arrays
    raise RuntimeError("no kink-safe seed found for a verification fragment")


def _pipeline_fragment(cfg: NetworkConfig, lcfg: losses.LossConfig,
                       stage: int, seed: int):
    """One training step of `stage`: the loss and backward pass of
    `trainer.stage_step`, with its random stream reseeded on every call."""
    alpha = MixupSection().alpha

    def build(candidate):
        net, store, batch = _pipeline_data(cfg, candidate)

        def fn(arrs):
            breakdown, backward = trainer.stage_step(
                net, store, batch, stage, lcfg, alpha,
                trainer.stream_rng(candidate, stage))
            return breakdown.total, backward

        return net, fn, store.params

    return _kink_safe(build, seed)


def _pretrain_fragment(seed: int):
    """`trainer.pretrain_step` on three volumes in permuted rows, `TINY_NET`.
    Not yet one of `standard_fragments`."""
    def build(candidate):
        net = Network(TINY_NET)
        store = net.init_pretrain_params(
            np.random.Generator(np.random.PCG64(candidate)), np.float64)
        grids = np.random.default_rng(candidate).uniform(
            0.0, 1.0, (3, 1) + (TINY_NET.vox_dim,) * 3) > 0.5
        volumes = GridBatch(grids.astype(np.float64), np.array([2, 0, 1]))

        return (net, lambda arrs: trainer.pretrain_step(net, store, volumes),
                store.params)

    return _kink_safe(build, seed)


def pipeline_fragments(seed: int = 0):
    lcfg = losses.LossConfig()
    return [
        ("pipeline_prior_bce",
         *_pipeline_fragment(TINY_NET, lcfg, trainer.STAGE_BASE, seed)),
        ("pipeline_no_prior_bce",
         *_pipeline_fragment(TINY_NET_NO_PRIOR, lcfg, trainer.STAGE_BASE,
                             seed + 1)),
        ("pipeline_input_mix",
         *_pipeline_fragment(TINY_NET, lcfg, trainer.STAGE_INPUT_MIX,
                             seed + 2)),
        ("pipeline_latent_mix",
         *_pipeline_fragment(TINY_NET, lcfg, trainer.STAGE_LATENT_MIX,
                             seed + 3)),
    ]


def standard_fragments(seed: int = 0):
    """(name, fn, arrays, fd_step) for every layer, loss, and pipeline."""
    return [(name, fn, arrays, _FD_STEP) for name, fn, arrays
            in (*layer_fragments(seed), *loss_fragments(seed),
                *pipeline_fragments(seed))]


def run_standard_checks(tolerance: float = 1e-4, probes: int = 20,
                        seed: int = 0) -> list[tuple[str, nn.GradCheckReport]]:
    return [(name, nn.grad_check(fn, arrays, tolerance, probes, step=fd_step))
            for name, fn, arrays, fd_step in standard_fragments(seed)]
