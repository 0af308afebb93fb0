"""Network assembly: image and prior encoders, merger, volume decoder, and
the auxiliary ground-truth volume encoder used by the alignment loss.

Every encoder is a (conv stack, head) pair from `_encoder`; every decoder
outputs (D, D, D) logits.  The variants differ only in the aux head,
whose latent the merger fuses with the image latent: the "prior" variant
encodes a class shape prior with a 3-D encoder, the "no_prior" variant
global-average-pools the image features and projects them (`pool_proj.fc`)
to the same width.  The prior variant's prior input is a `GridBatch`: the
distinct prior grids and each sample's row into them.  Its conv stack runs
once per grid a sample reads, and the aux head reads each sample's row of
the conv features, so samples of one class share one prior encoding.  The
volume encoder runs once per distinct grid of its `GridBatch`, and its
latents are gathered by row; `_sum_rows` is the adjoint of both gathers.
`trainer.network_config` builds the "no_prior" variant for prior mode
"none" and the "prior" variant otherwise.  The order of
`Network.parts` fixes the parameter names' order, the init draw order and
the checkpoint layout, so it must not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .nn import (Conv2d, Conv3d, ConvTranspose3d, Dense, GlobalAvgPool2d,
                 ParamStore, ReLU, Reshape, Sequential, TRAIN_DTYPE, sigmoid)

VARIANTS = ("prior", "no_prior")


@dataclass(frozen=True)
class NetworkConfig:
    """`trainer.network_config` reads `vox_dim` and `image_size` from the
    config's `data` section, `variant` from `prior.mode` ("no_prior" for
    mode "none") and the other fields from `model`, which holds the
    defaults; `ExperimentConfig` checks the sizes its strides divide."""

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


class GridBatch(NamedTuple):
    """The prior or volume input of n samples: the grids (k, 1, D, D, D) and
    each sample's row index into them, `rows` (n,).  `evaluate.prior_batch`
    builds one per class set, `corpus.load_samples` one per object; the
    per-sample layout is the case rows = arange(n)."""

    grids: np.ndarray
    rows: np.ndarray

    def take(self, index) -> "GridBatch":
        """The input of the samples `index` selects."""
        return GridBatch(self.grids, self.rows[index])


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
    head = Sequential([Reshape((-1,)), Dense(f"{prefix}.fc",
                                             c_in * side ** rank, width)])
    return Sequential(layers), head


def _decoder(prefix: str, channels: tuple[int, ...], vox_dim: int,
             width: int) -> Sequential:
    """A Dense `{prefix}.fc` from `width` to a (channels[0], base^3) grid, one
    stride-2 transposed conv per channel count, each but the last followed by
    a ReLU, the last to one channel of logits, and a Reshape to (D, D, D)."""
    base = vox_dim // 2 ** len(channels)
    layers: list = [Dense(f"{prefix}.fc", width, channels[0] * base ** 3),
                    ReLU(), Reshape((channels[0], base, base, base))]
    for k, (c_in, c_out) in enumerate(zip(channels, channels[1:] + (1,)),
                                      start=1):
        layers += [ConvTranspose3d(f"{prefix}.up{k}", c_in, c_out, 4, stride=2,
                                   pad=1), ReLU()]
    return Sequential(layers[:-1] + [Reshape((vox_dim,) * 3)])


def _input(batch: np.ndarray, sample_shape: tuple[int, ...], what: str,
           store: ParamStore) -> np.ndarray:
    """A data batch in the store's dtype, mapped from [0, 1] to [-1, 1] so
    that first-layer features are sign-balanced."""
    batch = np.ascontiguousarray(batch, dtype=store.flat.dtype)
    if batch.shape[1:] != sample_shape:
        raise ValueError(f"bad {what} batch shape {batch.shape}")
    return batch * batch.dtype.type(2.0) - batch.dtype.type(1.0)


def _sum_rows(d_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Adjoint of the gather `x[rows]`: row k sums the rows that read it, by
    a one-hot matmul (np.add.at took 40x as long at batch 64)."""
    onehot = (np.arange(rows.max() + 1)[:, None] == rows).astype(d_rows.dtype)
    return (onehot @ d_rows.reshape(len(rows), -1)).reshape(
        (len(onehot),) + d_rows.shape[1:])


def _centered(seq: Sequential, batches: Sequence[np.ndarray],
              store: ParamStore) -> list[np.ndarray]:
    """`seq`'s output on each batch, each Dense's bias first lowered by the
    mean of its output over every row of `batches`."""
    for layer in seq.layers:
        if isinstance(layer, Dense):
            w, b = (store.params[name] for name in layer.param_names)
            b[...] -= (sum((x @ w + b).sum(axis=0) for x in batches)
                       / sum(map(len, batches))).astype(b.dtype)
        batches = [layer.forward(x, store) for x in batches]
    return batches


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
                             priors: GridBatch | None, volumes: GridBatch,
                             batch_size: int = 64) -> None:
        """Mean-only data-dependent initialization of the latent layers.

        A freshly drawn deep ReLU network maps every input near one random
        direction (the per-layer offsets w . E[h]), which collapses cosine
        geometry between embeddings.  Folding the training-pool mean of
        each latent-producing dense layer into its bias, upstream layers
        first, removes that shared direction exactly.  The latent layers
        are every Dense of the heads and the merger; `_centered` walks each
        once, the merger after the image and aux heads it reads.
        `priors` and `volumes` are the pool's prior and volume inputs; the
        heads read one row per sample, so every mean is over samples, not
        grids.  One-time, at initialization; deterministic given the pool.
        """
        if len(images) < 2:
            return  # a single sample would center its own embedding to zero
        # Only dense layers move below, so the conv stacks run once.
        grids, rows = self._distinct(volumes, "volume", store)
        gt_feat = self.gt_conv.forward(grids, store)
        slices = [slice(start, start + batch_size)
                  for start in range(0, len(images), batch_size)]
        feats, aux_ins = zip(*(self._features(
            images[sl], None if priors is None else priors.take(sl), store)
            for sl in slices))
        latents = zip(_centered(self.image_head, feats, store),
                      _centered(self.aux_head, aux_ins, store))
        _centered(self.merger, [np.concatenate(pair, axis=1)
                                for pair in latents], store)
        _centered(self.gt_head, [gt_feat[rows[sl]] for sl in slices], store)

    # -- forward / backward --------------------------------------------------

    def _distinct(self, batch: GridBatch, what: str,
                  store: ParamStore) -> tuple[np.ndarray, np.ndarray]:
        """The grids `batch`'s rows name, once each, and each row's index."""
        dim = self.config.vox_dim
        used, rows = np.unique(batch.rows, return_inverse=True)
        return _input(batch.grids[used], (1, dim, dim, dim), what, store), rows

    def _features(self, images: np.ndarray, priors: GridBatch | None,
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
        side = self.config.image_size
        feat = self.image_conv.forward(
            _input(images, (2, side, side), "image", store), store)
        if priors is None:
            return feat, feat
        if np.shape(priors.rows) != (len(feat),):
            raise ValueError(f"bad prior rows shape {np.shape(priors.rows)} "
                             f"for {len(feat)} samples")
        grids, self._prior_rows = self._distinct(priors, "prior", store)
        return feat, self.prior_conv.forward(grids, store)[self._prior_rows]

    def _heads(self, feat: np.ndarray, aux_in: np.ndarray,
               store: ParamStore) -> np.ndarray:
        """The fused latent: the merger over the image and aux latents."""
        return self.merger.forward(np.concatenate(
            [self.image_head.forward(feat, store),
             self.aux_head.forward(aux_in, store)], axis=1), store)

    def encode(self, images: np.ndarray, priors: GridBatch | None,
               store: ParamStore) -> np.ndarray:
        """(n, width): the fused latent of each sample of `images` (n, 2, H, W)
        under its row of `priors`, a GridBatch, which the no-prior variant
        does not take."""
        return self._heads(*self._features(images, priors, store), store)

    def decode(self, e_fused: np.ndarray, store: ParamStore) -> np.ndarray:
        return self.decoder.forward(e_fused, store)

    def forward(self, images: np.ndarray, priors: GridBatch | None,
                store: ParamStore) -> np.ndarray:
        """(n, D, D, D): each sample's predicted occupancy in [0, 1], the
        sigmoid of the decoder's logits; `images`, `priors` as in `encode`."""
        return sigmoid(self.decode(self.encode(images, priors, store), store))

    def decode_backward(self, d_logits: np.ndarray, store: ParamStore) -> np.ndarray:
        return self.decoder.backward(d_logits, store)

    def encode_backward(self, d_fused: np.ndarray, store: ParamStore) -> None:
        width = self.config.latent_width
        d_cat = self.merger.backward(d_fused, store)
        d_aux_in = self.aux_head.backward(d_cat[:, width:], store)
        d_feat = self.image_head.backward(d_cat[:, :width], store)
        if self.prior_conv is None:
            d_feat = d_aux_in + d_feat   # the aux head reads the image features
        else:
            self.prior_conv.backward(_sum_rows(d_aux_in, self._prior_rows),
                                     store)
        self.image_conv.backward(d_feat, store)

    # -- ground-truth volume encoder ------------------------------------------

    def encode_gt(self, volumes: GridBatch, store: ParamStore) -> np.ndarray:
        """(len(volumes.rows), width): the latent of each row's volume."""
        grids, self._gt_rows = self._distinct(volumes, "volume", store)
        return self.gt_head.forward(self.gt_conv.forward(grids, store),
                                    store)[self._gt_rows]

    def encode_gt_backward(self, d_latent: np.ndarray, store: ParamStore) -> None:
        self.gt_conv.backward(self.gt_head.backward(
            _sum_rows(d_latent, self._gt_rows), store), store)

    # -- pretraining autoencoder ----------------------------------------------

    def gt_autoencode(self, volumes: GridBatch, store: ParamStore) -> np.ndarray:
        return self.gt_decoder.forward(self.encode_gt(volumes, store), store)

    def gt_autoencode_backward(self, d_logits: np.ndarray, store: ParamStore) -> None:
        self.encode_gt_backward(self.gt_decoder.backward(d_logits, store), store)
