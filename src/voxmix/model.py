"""Network assembly: image and prior encoders, merger, volume decoder, and
the auxiliary ground-truth volume encoder used by the alignment loss.

Every encoder is a (conv stack, head) pair from `_encoder`; every decoder
ends in a Reshape to (D, D, D).  The variants differ only in the aux head,
whose latent the merger fuses with the image latent: the "prior" variant
encodes a class shape prior with a 3-D encoder, the "no_prior" variant
global-average-pools the image features and projects them (`pool_proj.fc`)
to the same width.  The prior variant's prior input is a `PriorBatch`: the
distinct prior grids and each sample's row into them.  Its conv stack runs
once per grid a sample reads, and the aux head reads each sample's row of
the conv features, so samples of one class share one prior encoding.
`trainer.network_config` builds the "no_prior" variant for prior mode
"none" and the "prior" variant otherwise.  The order of
`Network.parts` fixes the parameter names' order, the init draw order and
the checkpoint layout, so it must not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .nn import (Conv2d, Conv3d, ConvTranspose3d, Dense, Flatten,
                 GlobalAvgPool2d, ParamStore, ReLU, Reshape, Sequential,
                 Sigmoid, TRAIN_DTYPE)

VARIANTS = ("prior", "no_prior")


@dataclass(frozen=True)
class NetworkConfig:
    """`trainer.network_config` reads `vox_dim` and `image_size` from the
    config's `data` section, `variant` from `prior.mode` ("no_prior" for
    mode "none") and the other fields from `model`, which holds the
    defaults; a size error names the config key."""

    vox_dim: int
    image_size: int
    image_channels: tuple[int, ...]
    prior_channels: tuple[int, ...]
    decoder_channels: tuple[int, ...]
    latent_width: int
    variant: str

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown network variant {self.variant!r}")
        # Every conv and every transposed conv has stride 2.
        for size, layers in (("image_size", "image_channels"),
                             ("vox_dim", "prior_channels"),
                             ("vox_dim", "decoder_channels")):
            value, down = getattr(self, size), 2 ** len(getattr(self, layers))
            if value < down or value % down:
                raise ValueError(f"data.{size}: {value} is not a multiple of "
                                 f"{down}, the stride of model.{layers}")


class PriorBatch(NamedTuple):
    """The prior input of a batch of n samples: the prior grids
    (k, 1, D, D, D) and each sample's row index into them, `rows` (n,).
    `evaluate.prior_batch` builds one per class set; the per-sample layout
    is the case rows = arange(n)."""

    grids: np.ndarray
    rows: np.ndarray

    def take(self, index) -> "PriorBatch":
        """The prior input of the samples `index` selects."""
        return PriorBatch(self.grids, self.rows[index])


def _encoder(prefix: str, rank: int, c_in: int, side: int,
             channels: tuple[int, ...], width: int
             ) -> tuple[Sequential, Sequential]:
    """(conv stack, head) for a `rank`-D input of `c_in` channels and
    extent `side`: one stride-2 conv and ReLU per entry of `channels`,
    then a Dense `{prefix}.fc` from the flattened features to `width`."""
    conv = Conv2d if rank == 2 else Conv3d
    layers = []
    for k, c_out in enumerate(channels):
        # conv0 reads the data itself, whose gradient nothing uses.
        layers += [conv(f"{prefix}.conv{k}", c_in, c_out, 3, stride=2, pad=1,
                        input_grad=k > 0), ReLU()]
        c_in = c_out
    side //= 2 ** len(channels)
    head = Sequential([Flatten(), Dense(f"{prefix}.fc", c_in * side ** rank,
                                        width)])
    return Sequential(layers), head


def _decoder(prefix: str, channels: tuple[int, ...], vox_dim: int,
             width: int) -> Sequential:
    """A Dense `{prefix}.fc` from `width` to a (channels[0], base^3) grid, one
    stride-2 transposed conv per channel count (the last to one channel,
    then a sigmoid), and a Reshape to (D, D, D)."""
    base = vox_dim // 2 ** len(channels)
    layers: list = [Dense(f"{prefix}.fc", width, channels[0] * base ** 3),
                    ReLU(), Reshape((channels[0], base, base, base))]
    for k, (c_in, c_out) in enumerate(zip(channels, channels[1:] + (1,)),
                                      start=1):
        layers += [ConvTranspose3d(f"{prefix}.up{k}", c_in, c_out, 4, stride=2,
                                   pad=1),
                   ReLU() if k < len(channels) else Sigmoid()]
    return Sequential(layers + [Reshape((vox_dim,) * 3)])


def _input(batch: np.ndarray, sample_shape: tuple[int, ...], what: str,
           store: ParamStore) -> np.ndarray:
    """A data batch in the store's dtype, mapped from [0, 1] to [-1, 1] so
    that first-layer features are sign-balanced."""
    batch = np.ascontiguousarray(batch, dtype=store.flat.dtype)
    if batch.shape[1:] != sample_shape:
        raise ValueError(f"bad {what} batch shape {batch.shape}")
    return batch * batch.dtype.type(2.0) - batch.dtype.type(1.0)


class Network:
    """Owns the layer graph for one variant; parameters live in a
    ParamStore so snapshots and checkpoints stay plain data.

    `parts` is the main network in its fixed order: image conv stack and
    head, prior conv stack (prior variant only), aux head, merger, decoder,
    volume-encoder conv stack and head.  Parameter names, the init draw
    order and the checkpoint layout all follow it, so it must not change.
    The volume decoder `gt_decoder` is not a part: only pretraining uses
    it, and its parameters never enter the main store."""

    def __init__(self, config: NetworkConfig):
        self.config = cfg = config
        width = cfg.latent_width
        self.image_conv, self.image_head = _encoder(
            "image_encoder", 2, 2, cfg.image_size, cfg.image_channels, width)
        if cfg.variant == "prior":
            self.prior_conv, self.aux_head = _encoder(
                "prior_encoder", 3, 1, cfg.vox_dim, cfg.prior_channels, width)
        else:
            self.prior_conv = None
            self.aux_head = Sequential([
                GlobalAvgPool2d(),
                Dense("pool_proj.fc", cfg.image_channels[-1], width)])
        self.merger = Sequential([Dense("merger.fc0", 2 * width, width), ReLU(),
                                  Dense("merger.fc1", width, width)])
        self.decoder = _decoder("decoder", cfg.decoder_channels, cfg.vox_dim,
                                width)
        self.gt_conv, self.gt_head = _encoder(
            "gt_encoder", 3, 1, cfg.vox_dim, cfg.prior_channels, width)
        self.gt_decoder = _decoder("gt_decoder", cfg.decoder_channels,
                                   cfg.vox_dim, width)
        self.parts = [part for part in (
            self.image_conv, self.image_head, self.prior_conv, self.aux_head,
            self.merger, self.decoder, self.gt_conv, self.gt_head)
            if part is not None]

    # -- parameter management ------------------------------------------------

    def init_params(self, rng: np.random.Generator,
                    dtype=TRAIN_DTYPE) -> ParamStore:
        return ParamStore.pack(Sequential(self.parts).init_params(rng, dtype))

    def init_pretrain_params(self, rng: np.random.Generator,
                             dtype=TRAIN_DTYPE) -> ParamStore:
        """Parameters for the volume autoencoder (encoder + throwaway
        decoder) used during pretraining."""
        return ParamStore.pack(Sequential(
            [self.gt_conv, self.gt_head, self.gt_decoder]).init_params(rng, dtype))

    def _param_shapes(self) -> dict[str, tuple[int, ...]]:
        whole = Sequential(self.parts)
        return dict(zip(whole.param_names, whole.param_shapes))

    def check_store(self, store: ParamStore) -> None:
        """Raise ValueError unless the store holds exactly this network's
        parameters, each in the shape its layer gives it."""
        expected = self._param_shapes()
        have = dict(zip(store.names, store.shapes))
        diffs = [f"{name} is {have.get(name, 'missing')}, not {shape}"
                 for name, shape in expected.items() if have.get(name) != shape]
        diffs += [f"{name} is unexpected" for name in have if name not in expected]
        if diffs:
            raise ValueError(f"parameters do not fit the {self.config.variant!r} "
                             f"variant network of this config: "
                             f"{'; '.join(diffs[:4])}")

    def center_latent_biases(self, store: ParamStore, images: np.ndarray,
                             priors: PriorBatch | None, volumes: np.ndarray,
                             batch_size: int = 64) -> None:
        """Mean-only data-dependent initialization of the latent layers.

        A freshly drawn deep ReLU network maps every input near one random
        direction (the per-layer offsets w . E[h]), which collapses cosine
        geometry between embeddings.  Folding the training-pool mean of
        each latent-producing dense layer into its bias, upstream layers
        first, removes that shared direction exactly.  The latent layers
        are every Dense of `parts` outside the decoder, in `parts` order.
        `priors` is the prior input of the whole pool; the aux head reads one
        row per sample, so every mean is a mean over samples, not over prior
        grids.  One-time, at initialization; deterministic given the pool.
        """
        if len(images) < 2:
            return  # a single sample would center its own embedding to zero
        # Only dense layers move below, so the conv stacks run once.
        feats = []
        for start in range(0, len(images), batch_size):
            sl = slice(start, min(start + batch_size, len(images)))
            feats.append((*self._features(
                images[sl], None if priors is None else priors.take(sl), store),
                self._gt_features(volumes[sl], store)))
        for dense in [layer for part in self.parts if part is not self.decoder
                      for layer in part.layers if isinstance(layer, Dense)]:
            w, b = (store.params[name] for name in dense.param_names)
            total = 0.0
            count = 0
            for feat, aux_in, gt_feat in feats:
                self._heads(feat, aux_in, store)
                self.gt_head.forward(gt_feat, store)
                value = dense._x @ w + b
                total = total + value.sum(axis=0)
                count += value.shape[0]
            b[...] -= (total / count).astype(b.dtype)

    # -- forward / backward --------------------------------------------------

    def _features(self, images: np.ndarray, priors: PriorBatch | None,
                  store: ParamStore) -> tuple[np.ndarray, np.ndarray]:
        """The conv stacks of `encode`: the image features, and what the aux
        head reads (each sample's row of the prior features, or the image
        features again).  The prior conv stack runs on the grids the rows
        name, each once, so a batch never encodes more grids than it has
        samples."""
        if priors is None and self.prior_conv is not None:
            raise ValueError("the prior variant requires a prior batch")
        if priors is not None and self.prior_conv is None:
            raise ValueError("the no-prior variant takes no prior batch")
        side, dim = self.config.image_size, self.config.vox_dim
        feat = self.image_conv.forward(
            _input(images, (2, side, side), "image", store), store)
        if priors is None:
            return feat, feat
        grids, rows = priors
        if np.shape(rows) != (len(feat),):
            raise ValueError(f"bad prior rows shape {np.shape(rows)} for "
                             f"{len(feat)} samples")
        used, self._prior_rows = np.unique(rows, return_inverse=True)
        prior_feat = self.prior_conv.forward(
            _input(grids[used], (1, dim, dim, dim), "prior", store), store)
        return feat, prior_feat[self._prior_rows]

    def _heads(self, feat: np.ndarray, aux_in: np.ndarray,
               store: ParamStore) -> np.ndarray:
        """The fused latent: the merger over the image and aux latents."""
        return self.merger.forward(np.concatenate(
            [self.image_head.forward(feat, store),
             self.aux_head.forward(aux_in, store)], axis=1), store)

    def encode(self, images: np.ndarray, priors: PriorBatch | None,
               store: ParamStore) -> np.ndarray:
        """(n, width): the fused latent of each sample of `images` (n, 2, H, W)
        under its row of `priors`, a PriorBatch or a (grids, rows) pair, which
        the no-prior variant does not take."""
        return self._heads(*self._features(images, priors, store), store)

    def decode(self, e_fused: np.ndarray, store: ParamStore) -> np.ndarray:
        return self.decoder.forward(e_fused, store)

    def forward(self, images: np.ndarray, priors: PriorBatch | None,
                store: ParamStore) -> np.ndarray:
        """(n, D, D, D): the predicted occupancy of each sample, strictly
        inside (0, 1); `images` and `priors` as in `encode`."""
        return self.decode(self.encode(images, priors, store), store)

    def decode_backward(self, d_pred: np.ndarray, store: ParamStore) -> np.ndarray:
        return self.decoder.backward(d_pred, store)

    def encode_backward(self, d_fused: np.ndarray, store: ParamStore) -> None:
        width = self.config.latent_width
        d_cat = self.merger.backward(d_fused, store)
        d_aux_in = self.aux_head.backward(d_cat[:, width:], store)
        d_feat = self.image_head.backward(d_cat[:, :width], store)
        if self.prior_conv is None:
            d_feat = d_aux_in + d_feat   # the aux head reads the image features
        else:
            # Each grid's gradient sums those of the samples that read it,
            # as a one-hot matmul (np.add.at took 40x as long at batch 64).
            rows = self._prior_rows
            onehot = (np.arange(rows.max() + 1)[:, None] == rows).astype(
                d_aux_in.dtype)
            d_grids = onehot @ d_aux_in.reshape(len(rows), -1)
            self.prior_conv.backward(
                d_grids.reshape((len(onehot),) + d_aux_in.shape[1:]), store)
        self.image_conv.backward(d_feat, store)

    # -- ground-truth volume encoder ------------------------------------------

    def _gt_features(self, volumes: np.ndarray, store: ParamStore) -> np.ndarray:
        dim = self.config.vox_dim
        return self.gt_conv.forward(
            _input(volumes, (1, dim, dim, dim), "volume", store), store)

    def encode_gt(self, volumes: np.ndarray, store: ParamStore) -> np.ndarray:
        return self.gt_head.forward(self._gt_features(volumes, store), store)

    def encode_gt_backward(self, d_latent: np.ndarray, store: ParamStore) -> None:
        self.gt_conv.backward(self.gt_head.backward(d_latent, store), store)

    # -- pretraining autoencoder ----------------------------------------------

    def gt_autoencode(self, volumes: np.ndarray, store: ParamStore) -> np.ndarray:
        return self.gt_decoder.forward(self.encode_gt(volumes, store), store)

    def gt_autoencode_backward(self, d_pred: np.ndarray, store: ParamStore) -> None:
        self.encode_gt_backward(self.gt_decoder.backward(d_pred, store), store)
