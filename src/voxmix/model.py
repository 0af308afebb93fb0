"""Network assembly: image and prior encoders, merger, volume decoder, and
the auxiliary ground-truth volume encoder used by the alignment loss.

Two variants exist.  The "prior" variant encodes a class shape prior with
a 3-D conv branch and fuses it with the image latent.  The "no_prior"
variant drops that branch and instead global-average-pools the final 2-D
feature map, projecting it to the same latent width, so everything
downstream is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import (Conv2d, Conv3d, ConvTranspose3d, Dense, Flatten,
                 GlobalAvgPool2d, ParamStore, ReLU, Reshape, Sequential,
                 Sigmoid, TRAIN_DTYPE)

VARIANTS = ("prior", "no_prior")


@dataclass(frozen=True)
class NetworkConfig:
    vox_dim: int = 16
    image_size: int = 32
    image_channels: tuple[int, ...] = (8, 16, 32, 32)
    prior_channels: tuple[int, ...] = (8, 16, 32)
    decoder_channels: tuple[int, ...] = (32, 16, 8)
    latent_width: int = 128
    variant: str = "prior"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        down_img = 2 ** len(self.image_channels)
        if self.image_size % down_img or self.image_size < down_img:
            raise ValueError(
                f"image_size {self.image_size} not divisible by {down_img}")
        down_pri = 2 ** len(self.prior_channels)
        if self.vox_dim % down_pri:
            raise ValueError(
                f"vox_dim {self.vox_dim} not divisible by {down_pri}")
        down_dec = 2 ** len(self.decoder_channels)
        if self.vox_dim % down_dec:
            raise ValueError(
                f"vox_dim {self.vox_dim} not divisible by {down_dec}")
        if self.latent_width < 1:
            raise ValueError("latent_width must be positive")


@dataclass(frozen=True)
class ForwardTrace:
    """Batched intermediate embeddings plus the decoded prediction."""

    e_image: np.ndarray    # (n, width)
    e_aux: np.ndarray      # (n, width): prior latent, or pooled projection
    e_fused: np.ndarray    # (n, width)
    prediction: np.ndarray  # (n, D, D, D), strictly inside (0, 1)


def _conv_encoder_3d(prefix: str, channels: tuple[int, ...], vox_dim: int,
                     width: int) -> Sequential:
    layers = []
    c_in = 1
    for k, c_out in enumerate(channels):
        # conv0 reads the volume itself, whose gradient nothing uses.
        layers.append(Conv3d(f"{prefix}.conv{k}", c_in, c_out, 3, stride=2,
                             pad=1, input_grad=k > 0))
        layers.append(ReLU())
        c_in = c_out
    side = vox_dim // 2 ** len(channels)
    layers.append(Flatten())
    layers.append(Dense(f"{prefix}.fc", c_in * side ** 3, width))
    return Sequential(layers)


def _volume_decoder(prefix: str, channels: tuple[int, ...], vox_dim: int,
                    width: int) -> Sequential:
    base = vox_dim // 2 ** len(channels)
    layers: list = [
        Dense(f"{prefix}.fc", width, channels[0] * base ** 3),
        ReLU(),
        Reshape((channels[0], base, base, base)),
    ]
    c_in = channels[0]
    for k, c_out in enumerate(channels[1:], start=1):
        layers.append(ConvTranspose3d(f"{prefix}.up{k}", c_in, c_out, 4,
                                      stride=2, pad=1))
        layers.append(ReLU())
        c_in = c_out
    layers.append(ConvTranspose3d(f"{prefix}.up{len(channels)}", c_in, 1, 4,
                                  stride=2, pad=1))
    layers.append(Sigmoid())
    return Sequential(layers)


class Network:
    """Owns the layer graph for one variant; parameters live in a
    ParamStore so snapshots and checkpoints stay plain data."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        cfg = config
        conv_layers = []
        c_in = 2
        for k, c_out in enumerate(cfg.image_channels):
            # conv0 reads the images, whose gradient nothing uses.
            conv_layers.append(Conv2d(f"image_encoder.conv{k}", c_in, c_out, 3,
                                      stride=2, pad=1, input_grad=k > 0))
            conv_layers.append(ReLU())
            c_in = c_out
        self.image_conv = Sequential(conv_layers)
        side = cfg.image_size // 2 ** len(cfg.image_channels)
        self.image_head = Sequential([
            Flatten(),
            Dense("image_encoder.fc", c_in * side ** 2, cfg.latent_width),
        ])
        if cfg.variant == "prior":
            self.prior_encoder = _conv_encoder_3d(
                "prior_encoder", cfg.prior_channels, cfg.vox_dim, cfg.latent_width)
            self.pool_proj = None
        else:
            self.prior_encoder = None
            self.pool_proj = Sequential([
                GlobalAvgPool2d(),
                Dense("pool_proj.fc", c_in, cfg.latent_width),
            ])
        self.merger = Sequential([
            Dense("merger.fc0", 2 * cfg.latent_width, cfg.latent_width),
            ReLU(),
            Dense("merger.fc1", cfg.latent_width, cfg.latent_width),
        ])
        self.decoder = _volume_decoder("decoder", cfg.decoder_channels,
                                       cfg.vox_dim, cfg.latent_width)
        self.gt_encoder = _conv_encoder_3d(
            "gt_encoder", cfg.prior_channels, cfg.vox_dim, cfg.latent_width)
        # Throwaway decoder, only materialized for volume-autoencoder
        # pretraining; its parameters never enter the main store.
        self.gt_decoder = _volume_decoder("gt_decoder", cfg.decoder_channels,
                                          cfg.vox_dim, cfg.latent_width)

    # -- parameter management ------------------------------------------------

    def _main_parts(self):
        parts = [self.image_conv, self.image_head]
        if self.prior_encoder is not None:
            parts.append(self.prior_encoder)
        if self.pool_proj is not None:
            parts.append(self.pool_proj)
        parts.extend([self.merger, self.decoder, self.gt_encoder])
        return parts

    def init_params(self, rng: np.random.Generator,
                    dtype=TRAIN_DTYPE) -> ParamStore:
        return ParamStore.pack(pair for part in self._main_parts()
                               for pair in part.init_params(rng, dtype))

    def init_pretrain_params(self, rng: np.random.Generator,
                             dtype=TRAIN_DTYPE) -> ParamStore:
        """Parameters for the volume autoencoder (encoder + throwaway
        decoder) used during pretraining."""
        return ParamStore.pack(self.gt_encoder.init_params(rng, dtype)
                               + self.gt_decoder.init_params(rng, dtype))

    def param_names(self) -> tuple[str, ...]:
        names: list[str] = []
        for part in self._main_parts():
            names.extend(part.param_names)
        return tuple(names)

    def center_latent_biases(self, store: ParamStore, images: np.ndarray,
                             priors: np.ndarray | None, volumes: np.ndarray,
                             batch_size: int = 64) -> None:
        """Mean-only data-dependent initialization of the latent layers.

        A freshly drawn deep ReLU network maps every input near one random
        direction (the per-layer offsets w . E[h]), which collapses cosine
        geometry between embeddings.  Folding the training-pool mean of
        each latent-producing dense layer into its bias, upstream layers
        first, removes that shared direction exactly.  One-time, at
        initialization; deterministic given the pool.
        """
        if len(images) < 2:
            return  # a single sample would center its own embedding to zero
        aux_bias = "prior_encoder.fc.b" if self.config.variant == "prior" \
            else "pool_proj.fc.b"
        # Only dense layers move below, so the conv stacks run once.
        slices = [slice(start, min(start + batch_size, len(images)))
                  for start in range(0, len(images), batch_size)]
        feats = [self._conv_features(
            images[sl], None if priors is None else priors[sl], store)
            for sl in slices]
        for bias_name in ("image_encoder.fc.b", aux_bias, "merger.fc0.b",
                          "merger.fc1.b", "gt_encoder.fc.b"):
            total = 0.0
            count = 0
            for sl, feat in zip(slices, feats):
                if bias_name == "gt_encoder.fc.b":
                    value = self.encode_gt(volumes[sl], store)
                else:
                    e_image, e_aux, e_fused = self._heads(*feat, store)
                    if bias_name == "image_encoder.fc.b":
                        value = e_image
                    elif bias_name == aux_bias:
                        value = e_aux
                    elif bias_name == "merger.fc0.b":
                        # pre-activation of the merger's hidden layer
                        value = self.merger.layers[0]._x \
                            @ store.params["merger.fc0.w"] \
                            + store.params["merger.fc0.b"]
                    else:
                        value = e_fused
                total = total + value.sum(axis=0)
                count += value.shape[0]
            store.params[bias_name][...] -= (total / count).astype(
                store.flat.dtype)

    def check_store(self, store: ParamStore) -> None:
        expected = set(self.param_names())
        have = set(store.params)
        if expected != have:
            missing = sorted(expected - have)
            extra = sorted(have - expected)
            raise ValueError(
                f"parameter set does not match the {self.config.variant!r} "
                f"variant (missing {missing[:4]}, unexpected {extra[:4]})")

    # -- forward / backward --------------------------------------------------

    def _prep(self, arr: np.ndarray, dtype) -> np.ndarray:
        return np.ascontiguousarray(arr, dtype=dtype)

    def _centered(self, arr: np.ndarray) -> np.ndarray:
        # Occupancy-style inputs live in [0, 1]; encoders consume them
        # mapped to [-1, 1] so first-layer features are sign-balanced.
        return arr * arr.dtype.type(2.0) - arr.dtype.type(1.0)

    def _conv_features(self, images: np.ndarray, priors: np.ndarray | None,
                       store: ParamStore):
        """The conv stacks of `encode`: the image features, and for the
        prior variant the prior features that enter the prior's Dense."""
        dtype = store.flat.dtype
        images = self._prep(images, dtype)
        if images.ndim != 4 or images.shape[1] != 2 \
                or images.shape[2] != self.config.image_size:
            raise ValueError(f"bad image batch shape {images.shape}")
        feat = self.image_conv.forward(self._centered(images), store)
        if self.config.variant != "prior":
            if priors is not None:
                raise ValueError("the no-prior variant takes no prior batch")
            return feat, None
        if priors is None:
            raise ValueError("the prior variant requires a prior batch")
        priors = self._prep(priors, dtype)
        if priors.shape != (images.shape[0], 1) + (self.config.vox_dim,) * 3:
            raise ValueError(f"bad prior batch shape {priors.shape}")
        aux = self._centered(priors)
        for layer in self.prior_encoder.layers[:-1]:
            aux = layer.forward(aux, store)
        return feat, aux

    def _heads(self, feat: np.ndarray, aux: np.ndarray | None,
               store: ParamStore) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        e_image = self.image_head.forward(feat, store)
        e_aux = self.pool_proj.forward(feat, store) if aux is None \
            else self.prior_encoder.layers[-1].forward(aux, store)
        fused_in = np.concatenate([e_image, e_aux], axis=1)
        e_fused = self.merger.forward(fused_in, store)
        return e_image, e_aux, e_fused

    def encode(self, images: np.ndarray, priors: np.ndarray | None,
               store: ParamStore) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._heads(*self._conv_features(images, priors, store), store)

    def decode(self, e_fused: np.ndarray, store: ParamStore) -> np.ndarray:
        out = self.decoder.forward(e_fused, store)
        return out.reshape(out.shape[0], *out.shape[2:])

    def forward(self, images: np.ndarray, priors: np.ndarray | None,
                store: ParamStore) -> ForwardTrace:
        e_image, e_aux, e_fused = self.encode(images, priors, store)
        prediction = self.decode(e_fused, store)
        return ForwardTrace(e_image, e_aux, e_fused, prediction)

    def decode_backward(self, d_pred: np.ndarray, store: ParamStore) -> np.ndarray:
        d_pred = d_pred.reshape(d_pred.shape[0], 1, *d_pred.shape[1:])
        return self.decoder.backward(d_pred, store)

    def encode_backward(self, d_fused: np.ndarray, store: ParamStore) -> None:
        width = self.config.latent_width
        d_cat = self.merger.backward(d_fused, store)
        d_image = d_cat[:, :width]
        d_aux = d_cat[:, width:]
        if self.config.variant == "prior":
            self.prior_encoder.backward(d_aux, store)
            d_feat = self.image_head.backward(d_image, store)
        else:
            d_feat = self.pool_proj.backward(d_aux, store)
            d_feat = d_feat + self.image_head.backward(d_image, store)
        self.image_conv.backward(d_feat, store)

    # -- ground-truth volume encoder ------------------------------------------

    def encode_gt(self, volumes: np.ndarray, store: ParamStore) -> np.ndarray:
        volumes = self._prep(volumes, store.flat.dtype)
        if volumes.ndim == 4:
            volumes = volumes[:, None]
        if volumes.shape[1:] != (1,) + (self.config.vox_dim,) * 3:
            raise ValueError(f"bad volume batch shape {volumes.shape}")
        return self.gt_encoder.forward(self._centered(volumes), store)

    def encode_gt_backward(self, d_latent: np.ndarray, store: ParamStore) -> None:
        self.gt_encoder.backward(d_latent, store)

    # -- pretraining autoencoder ----------------------------------------------

    def gt_autoencode(self, volumes: np.ndarray, store: ParamStore) -> np.ndarray:
        latent = self.encode_gt(volumes, store)
        out = self.gt_decoder.forward(latent, store)
        return out.reshape(out.shape[0], *out.shape[2:])

    def gt_autoencode_backward(self, d_pred: np.ndarray, store: ParamStore) -> None:
        d_pred = d_pred.reshape(d_pred.shape[0], 1, *d_pred.shape[1:])
        d_latent = self.gt_decoder.backward(d_pred, store)
        self.gt_encoder.backward(d_latent, store)
