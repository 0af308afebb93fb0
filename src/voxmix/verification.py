"""Finite-difference verification harness.

Builds a named fragment for every layer type, every loss, and the training
step of each stage through a whole tiny network (both network variants; the
steps run `trainer.stage_step`, the code that trains), then checks analytic
gradients against central differences at float64.  A fragment returns its
loss and a pullback to its gradients, so the probes run no backward pass,
nor does the pipelines' kink-safe seed search: ReLU margins are recorded in
the forward pass, the hinge margin in the loss.  Inputs are sampled away
from the ReLU and hinge kinks so the comparison is well defined.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import losses, nn, trainer
from .config import MixupSection
from .model import Network, NetworkConfig, PriorBatch

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
               for part in net.parts for layer in part.layers
               if isinstance(layer, nn.ReLU) and hasattr(layer, "last_min_abs")]
    return min(margins) if margins else np.inf


def _layer_fragment(layer, x, seed):
    """Scalar loss sum(forward(x) * probe); differentiates params and input."""
    rng = np.random.default_rng(seed)
    store = nn.ParamStore.pack(layer.init_params(rng, np.float64))
    y = layer.forward(x, store)
    probe = rng.standard_normal(y.shape)
    arrays = {"input": x, **store.params}

    def fn(arrs):
        out = layer.forward(arrs["input"], store)

        def pullback():
            store.zero_grads()
            return {"input": layer.backward(probe, store), **store.grads}

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
    n = 3
    images = rng.uniform(0.0, 1.0, (n, 2, cfg.image_size, cfg.image_size))
    # The two views of object "a" share one prior row, so the prior
    # encoder's backward sums two samples' gradients into one grid.
    priors = PriorBatch(rng.uniform(0.0, 1.0, (2, 1) + (cfg.vox_dim,) * 3),
                        np.array([0, 0, 1])) if cfg.variant == "prior" else None
    volumes = (rng.uniform(0.0, 1.0, (n, 1) + (cfg.vox_dim,) * 3) > 0.5) \
        .astype(np.float64)
    # Two views of one object: the triplet must pick the other object.
    batch = trainer.Batch(images, priors, volumes, ["a", "a", "b"])
    return net, store, batch


def _pipeline_fragment(cfg: NetworkConfig, lcfg: losses.LossConfig,
                       stage: int, seed: int):
    """One training step of `stage`: the loss and backward pass of
    `trainer.stage_step`, with its random stream reseeded on every call.
    The seed is the first one whose step keeps clear of every kink."""
    alpha = MixupSection().alpha

    def step(net, store, batch, candidate):
        return trainer.stage_step(net, store, batch, stage, lcfg, alpha,
                                  trainer.stream_rng(candidate, stage))

    for attempt in range(50):
        candidate = seed + 1000 * attempt
        net, store, batch = _pipeline_data(cfg, candidate)
        nn.ReLU.record_margins = True
        losses.last_hinge_margin = np.inf
        try:
            step(net, store, batch, candidate)
        finally:
            nn.ReLU.record_margins = False
        if min(_net_relu_margin(net), losses.last_hinge_margin) > _KINK_MARGIN:
            break
    else:
        raise RuntimeError("no kink-safe seed found for a verification fragment")

    def fn(arrs):
        breakdown, backward = step(net, store, batch, candidate)
        return breakdown.total, backward

    return fn, store.params


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
