"""Staged training: volume-encoder pretraining, the base stage, the
input-mixing stage, and the latent-mixing stage, with strict determinism.

`pretrain_step` and `stage_step` run a step's forward pass and loss and
return its backward pass as a closure; `pretrain_gt` and `train_stage` run
both per batch, and the finite-difference verifier checks those functions.
Pretraining and every stage walk one epoch schedule, `_steps`: a fresh
permutation of the pool per epoch, cut into batches.  `train_stage`
returns the rows of the train log (`TRAIN_LOG`) that `run_ablation` writes.

`PIPELINES` is the one statement of stage order: the base stage always
runs first, and the latent stage follows either the base stage or the
input-mixing stage.  The four selectable pipelines are
    base        stage 1 only
    input_mix   stages 1-2
    latent_mix  stages 1+3
    dual_mix    stages 1-2-3
An experiment is a tree of (stage, alpha) nodes, and each arm, keyed
(pipeline, alpha, variant) by `arm_name`, is a path of one network variant
from the root.  Only the mixing stages read alpha, so the base stage node
has alpha None and an alpha sweep shares it.  Each stage draws from its own
seeded random stream, so arms sharing a prefix of nodes are bit-identical
up to the branch point; each node trains once.  Training runs under prior
mode "correct" or "none"; "corrupted" is an evaluation mode only.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from . import evaluate, losses, mixup, runs, voxel
from .config import (ConfigError, EvalSection, ExperimentConfig, ModelSection,
                     PriorConfig, TrainSection, config_hash)
from .corpus import (DatasetManifest, FewShotSplit, SampleArrays,
                     class_priors, load_samples, make_split)
from .model import GridBatch, Network, NetworkConfig
from .nn import Adam, NumericError, OptimizerConfig, ParamStore

STAGE_BASE = 1
STAGE_INPUT_MIX = 2
STAGE_LATENT_MIX = 3

PIPELINES: dict[str, tuple[int, ...]] = {
    "base": (STAGE_BASE,),
    "input_mix": (STAGE_BASE, STAGE_INPUT_MIX),
    "latent_mix": (STAGE_BASE, STAGE_LATENT_MIX),
    "dual_mix": (STAGE_BASE, STAGE_INPUT_MIX, STAGE_LATENT_MIX),
}

# Nonces separating the independent random streams of one experiment seed.
_STREAM = {"init": 101, "pretrain_init": 102, "pretrain": 103,
           STAGE_BASE: 111, STAGE_INPUT_MIX: 112, STAGE_LATENT_MIX: 113}


def stream_rng(seed: int, stream) -> np.random.Generator:
    """The random stream `stream`, a key of `_STREAM`, of experiment `seed`."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, _STREAM[stream]])))


def network_config(config: ExperimentConfig) -> NetworkConfig:
    """Every `model` field, and the `data` sizes; prior mode "none", and
    only it, builds the no-prior variant."""
    return NetworkConfig(**asdict(config.model), vox_dim=config.data.vox_dim,
                         image_size=config.data.image_size,
                         variant="no_prior" if config.prior.mode == "none"
                         else "prior")


def optimizer_config(config: ExperimentConfig) -> OptimizerConfig:
    # The volume encoder learns on its own, slower rate in every stage.
    return OptimizerConfig(lr=config.train.lr,
                           groups=(("gt_encoder.", config.train.gt_lr),))


# ---------------------------------------------------------------------------
# Training pool
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    """One step's samples and their prior and volume inputs, `GridBatch`es
    (`priors` None for a network that takes no prior batch).  The volume
    rows name each sample's object."""

    images: np.ndarray
    priors: GridBatch | None
    volumes: GridBatch


@dataclass
class TrainingPool:
    """Preloaded training views with their volume input, and the prior
    input of the whole pool as `evaluate.prior_batch` builds it: one grid
    per class and each sample's row, or None for no-prior runs."""

    samples: SampleArrays
    priors: GridBatch | None

    def __len__(self) -> int:
        return len(self.samples)

    def take(self, rows) -> Batch:
        return Batch(self.samples.images[rows],
                     None if self.priors is None else self.priors.take(rows),
                     self.samples.volumes.take(rows))


def unique_volumes(samples: SampleArrays) -> np.ndarray:
    """One (1, D, D, D) volume per distinct object, in first-seen order."""
    return samples.volumes.grids


def _steps(n: int, batch_size: int, epochs: int, rng: np.random.Generator):
    """(epoch, step, rows) of every optimizer step of `epochs` passes over
    `n` samples.  Each epoch draws one `rng.permutation(n)`, after the last
    step of the one before, and cuts it into batches of min(batch_size, n)."""
    batch_size = min(batch_size, n)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for step, start in enumerate(range(0, n, batch_size)):
            yield epoch, step, order[start:start + batch_size]


# ---------------------------------------------------------------------------
# Volume-encoder pretraining
# ---------------------------------------------------------------------------

def pretrain_gt(net: Network, volumes: np.ndarray, epochs: int, lr: float,
                batch_size: int, seed: int) -> tuple[ParamStore, list[float]]:
    """Train the volume encoder plus a throwaway decoder as a plain
    autoencoder; returns (parameters, per-epoch mean losses).  The caller
    keeps only the encoder half."""
    if len(volumes) == 0:
        raise ValueError("no volumes to pretrain on")
    store = net.init_pretrain_params(stream_rng(seed, "pretrain_init"))
    opt = Adam(store, OptimizerConfig(lr=lr))
    epoch_losses: list[list[float]] = [[] for _ in range(epochs)]
    for epoch, _, rows in _steps(len(volumes), batch_size, epochs,
                                 stream_rng(seed, "pretrain")):
        value, backward = pretrain_step(net, store, GridBatch(volumes, rows))
        backward()
        opt.step()
        epoch_losses[epoch].append(value)
    return store, [float(np.mean(values)) for values in epoch_losses]


def pretrain_step(net: Network, store: ParamStore, volumes: GridBatch
                  ) -> tuple[float, Callable[[], Mapping]]:
    """Forward pass and `bce_loss` of one volume-autoencoder step on the
    samples of `volumes`, and backward, with `stage_step`'s contract."""
    value, d_logits = losses.bce_loss(net.gt_autoencode(volumes, store),
                                      volumes.grids[volumes.rows, 0])

    def backward() -> Mapping:
        store.zero_grads()
        net.gt_autoencode_backward(d_logits, store)
        return store.grads

    return value, backward


# ---------------------------------------------------------------------------
# Stage training
# ---------------------------------------------------------------------------

def _negative_indices(objects: np.ndarray, n: int, rng: np.random.Generator):
    """Partner index per sample for the triplet negative, plus a mask that
    zeroes the triplet where the batch holds no different object.  The
    partner is the first sample of a different object met walking
    cyclically from a random derangement's pick; `objects` (n,) gives each
    sample's object as an integer."""
    if n < 2:
        return np.zeros(n, dtype=np.int64), np.zeros(n)
    walk = (mixup.random_derangement(n, rng)[:, None] + np.arange(n)) % n
    other = objects[walk] != objects[:, None]
    return (walk[np.arange(n), other.argmax(axis=1)],
            other.any(axis=1).astype(float))


def mix_inputs(batch: Batch, plan) -> Batch:
    """Stage 2's input mix of `batch` under `plan`: the images and each
    sample's prior and volume grid, so the mixed batch has one prior and
    one volume grid per sample, and each sample is its own object."""
    priors, volumes = (None if grid is None else GridBatch(mixup.apply_pairs(
        grid.grids[grid.rows], plan), np.arange(len(grid.rows)))
        for grid in (batch.priors, batch.volumes))
    return Batch(mixup.apply_pairs(batch.images, plan), priors, volumes)


def stage_step(net: Network, store: ParamStore, batch: Batch, stage: int,
               lcfg: losses.LossConfig, alpha: float, rng: np.random.Generator
               ) -> tuple[losses.LossBreakdown, Callable[[], Mapping]]:
    """Forward pass and loss of one training step of `stage`, and backward.

    The stages differ only in where the batch is mixed: nowhere (stage 1),
    in the inputs (stage 2, `mix_inputs`), or in the fused and volume
    latents (stage 3), where the triplet is masked off (mixed rows have no
    one identity to contrast) and `mixup.apply_pairs_backward` unmixes the
    latent gradients.  A triplet negative reads its partner's volume row.
    Returns the loss breakdown and `backward`, which replaces `store.grads`
    with the gradient of that loss and returns them; run it before the
    network's next forward pass, which overwrites the layer caches it reads,
    and then apply the update.  Every draw from `rng` comes first, in a
    fixed order: the input-mixing plan (stage 2: partners, then ratios),
    then the latent-mixing plan (stage 3: partners, then ratios) or the
    triplet negatives (stages 1-2: one derangement).
    """
    if stage not in (STAGE_BASE, STAGE_INPUT_MIX, STAGE_LATENT_MIX):
        raise ValueError(f"unknown stage {stage}")
    n = len(batch.images)
    if stage == STAGE_INPUT_MIX:
        batch = mix_inputs(batch, mixup.pair_batch(n, alpha, rng))
    images, priors, volumes = batch.images, batch.priors, batch.volumes

    e_fused = net.encode(images, priors, store)
    targets = volumes.grids[volumes.rows, 0]
    latent_plan = None
    if stage == STAGE_LATENT_MIX:
        latent_plan = mixup.pair_batch(n, alpha, rng)
        vol_latent = net.encode_gt(volumes, store)
        e_fused, vol_latent, targets = (mixup.apply_pairs(x, latent_plan)
                                        for x in (e_fused, vol_latent, targets))
        neg_latent, mask = vol_latent, np.zeros(n)
    else:
        neg_idx, mask = _negative_indices(volumes.rows, n, rng)
        latents = net.encode_gt(volumes.take(np.concatenate(
            [np.arange(n), neg_idx])), store)
        vol_latent, neg_latent = latents[:n], latents[n:]
    logits = net.decode(e_fused, store)

    recon, d_logits = losses.bce_loss(logits, targets)
    align, sim_pos, sim_neg, (d_fused, d_pos, d_neg) = losses.align_loss(
        e_fused, vol_latent, neg_latent, lcfg.margin, mask)
    w_align = lcfg.w_align
    d_vol_latent = w_align * np.concatenate([d_pos, d_neg]) if latent_plan \
        is None else mixup.apply_pairs_backward(w_align * d_pos, latent_plan)

    def backward() -> Mapping:
        store.zero_grads()
        d_mixed = w_align * d_fused + net.decode_backward(
            lcfg.w_recon * d_logits, store)
        if latent_plan is not None:
            d_mixed = mixup.apply_pairs_backward(d_mixed, latent_plan)
        net.encode_backward(d_mixed, store)
        net.encode_gt_backward(d_vol_latent, store)
        return store.grads

    return losses.combined_loss(recon, align, sim_pos, sim_neg, lcfg), backward


TRAIN_LOG = ("stage", "epoch", "step", "total", "recon", "align", "sim_pos",
             "sim_neg")


def train_stage(net: Network, store: ParamStore, stage: int,
                pool: TrainingPool, config: ExperimentConfig,
                rng: np.random.Generator) -> list[tuple]:
    """Run one stage in place; returns one `TRAIN_LOG` row per step."""
    net.check_store(store)
    opt = Adam(store, optimizer_config(config))
    log = []
    for epoch, step, idx in _steps(len(pool), config.train.batch_size,
                                   config.train.stage_epochs[stage - 1], rng):
        breakdown, backward = stage_step(net, store, pool.take(idx), stage,
                                         config.loss, config.mixup.alpha, rng)
        if not np.isfinite(breakdown.total):
            raise NumericError(
                f"non-finite loss at stage {stage} epoch {epoch} step {step}")
        backward()
        opt.step()
        log.append((stage, epoch, step, *astuple(breakdown)))
    return log


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def trained_hash(config: ExperimentConfig) -> str:
    """Hash of the config with the fields evaluation may change (`eval`,
    `prior.mode`, `train.pipeline`) at their defaults: a stage checkpoint
    serves every config of the same hash."""
    return config_hash(replace(
        config, eval=EvalSection(),
        prior=replace(config.prior, mode=PriorConfig.mode),
        train=replace(config.train, pipeline=TrainSection.pipeline)))


def save_stage_checkpoint(path, store: ParamStore, config: ExperimentConfig,
                          stage: int) -> None:
    net_cfg = network_config(config)
    metadata = {
        "variant": net_cfg.variant,
        "stage": stage,
        "epoch": config.train.stage_epochs[stage - 1],
        "config_hash": trained_hash(config),
        "prior_mode": config.prior.mode,
        "latent_width": net_cfg.latent_width,
        "vox_dim": net_cfg.vox_dim,
    }
    runs.save_checkpoint(path, store, metadata)


def load_stage_checkpoint(path, config: ExperimentConfig):
    """(parameters, metadata); ValueError, naming `path`, unless the
    parameters fit the configured network and were trained under the same
    `trained_hash` and the prior mode training uses for that network."""
    store, metadata = runs.load_checkpoint(path)
    try:
        Network(network_config(config)).check_store(store)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}; train again under this config") \
            from None
    if metadata.get("config_hash") != trained_hash(config):
        raise ValueError(f"{path} was trained under another config; "
                         "train again under this one")
    recorded = metadata.get("prior_mode")
    mode = "none" if config.prior.mode == "none" else "correct"
    if recorded != mode:
        raise ValueError(f"{path} was trained under prior mode {recorded!r}, "
                         f"not {mode!r}; train again under this config")
    return store, metadata


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    """One arm's pipeline, config, IoU table and final checkpoint."""

    pipeline: str
    config: ExperimentConfig
    final_table: evaluate.IouTable
    checkpoint_path: Path


@dataclass
class ExperimentContext:
    """The configured network and everything derived from artifacts; the
    training pool and the query views load on first read."""

    config: ExperimentConfig
    paths: runs.RunPaths
    manifest: DatasetManifest
    split: FewShotSplit
    priors_by_class: dict[str, np.ndarray]
    net: Network

    @classmethod
    def load(cls, config: ExperimentConfig,
             paths: runs.RunPaths) -> "ExperimentContext":
        manifest = runs.load_manifest(paths, config)
        data = config.data
        split = make_split(manifest, data.base_classes, data.novel_classes,
                           data.shots, config.seed)
        priors = {class_id: grid.astype(np.float32)[None] for class_id, grid
                  in class_priors(manifest, split, config.prior.threshold).items()}
        return cls(config, paths, manifest, split, priors,
                   Network(network_config(config)))

    @cached_property
    def train_pool(self) -> TrainingPool:
        """The training views and their inputs; ConfigError under prior
        mode "corrupted", an evaluation mode that no training reads."""
        mode = self.config.prior.mode
        if mode == "corrupted":
            raise ConfigError(f"prior.mode: {mode!r} is an evaluation mode; "
                              "train under 'correct' or 'none'")
        samples = load_samples(self.manifest, self.manifest.records_for_objects(
            self.split.all_train_objects()))
        return TrainingPool(samples, evaluate.prior_batch(
            samples.class_ids, self.priors_by_class, mode,
            self.config.data.classes))

    @cached_property
    def query_samples(self) -> SampleArrays:
        return load_samples(self.manifest, self.manifest.records_for_objects(
            self.split.all_query_objects()))

    def eval_table(self, store: ParamStore) -> evaluate.IouTable:
        return evaluate.eval_iou(self.net, store, self.query_samples,
                                 self.priors_by_class, self.config.prior.mode,
                                 self.config.data.classes,
                                 self.config.eval.iou_threshold,
                                 self.config.eval.batch_size)

    def proximity(self) -> dict[str, float]:
        """`voxel.proximity` of every novel class's volumes, its shots and
        its query objects, against the base classes' training volumes."""
        split, volumes = self.split, self.manifest.volumes
        by_class = self.manifest.objects_by_class()
        return voxel.proximity(
            [(c, volumes[obj]) for c in split.novel_classes
             for obj in by_class[c]],
            [volumes[obj] for c in split.base_classes
             for obj in split.train_objects[c]])


GT_ENCODER_CHECKPOINT = "gt_encoder.ckpt"


def pretrain_hash(config: ExperimentConfig) -> str:
    """Hash of the config fields volume-encoder pretraining reads, and no
    others: a run that changes only alpha must not pretrain again."""
    model, train = config.model, config.train
    return config_hash(ExperimentConfig(
        seed=config.seed, data=config.data,
        model=ModelSection(prior_channels=model.prior_channels,
                           decoder_channels=model.decoder_channels,
                           latent_width=model.latent_width),
        train=TrainSection(pretrain_epochs=train.pretrain_epochs,
                           gt_lr=train.gt_lr, pretrain_batch=train.pretrain_batch)))


def pretrain_gt_encoder(ctx: ExperimentContext
                        ) -> tuple[ParamStore, list[float]]:
    """Pretrain the volume encoder on the training volumes and save it,
    replacing any earlier checkpoint, with its per-epoch mean losses in
    `logs/pretrain_gt.csv`; returns (parameters, those losses)."""
    config = ctx.config
    store, history = pretrain_gt(ctx.net, ctx.train_pool.samples.volumes.grids,
                                 config.train.pretrain_epochs,
                                 lr=config.train.gt_lr,
                                 batch_size=config.train.pretrain_batch,
                                 seed=config.seed)
    ctx.paths.ensure_dirs()
    runs.save_checkpoint(ctx.paths.checkpoints_dir / GT_ENCODER_CHECKPOINT,
                         store, {"role": "gt_autoencoder",
                                 "pretrain_hash": pretrain_hash(config)})
    runs.write_csv(ctx.paths.logs_dir / "pretrain_gt.csv", ("epoch", "loss"),
                   enumerate(history))
    return store, history


def prepare_gt_encoder(ctx: ExperimentContext) -> ParamStore:
    """Load the pretrained volume encoder, pretraining it on the training
    volumes first if no checkpoint exists yet, the one there cannot be
    read, or it was pretrained under other settings."""
    try:
        store, metadata = runs.load_checkpoint(
            ctx.paths.checkpoints_dir / GT_ENCODER_CHECKPOINT)
    except runs.MissingArtifactError:
        metadata = {}
    if metadata.get("pretrain_hash") == pretrain_hash(ctx.config):
        return store
    store, _ = pretrain_gt_encoder(ctx)
    return store


def init_main_store(ctx: ExperimentContext) -> ParamStore:
    """Fresh parameters holding the pretrained volume encoder, with the
    latent biases centred on the training pool."""
    pretrained = prepare_gt_encoder(ctx)
    store = ctx.net.init_params(stream_rng(ctx.config.seed, "init"))
    for name, value in pretrained.params.items():
        if name.startswith("gt_encoder.") and name in store.params:
            store.params[name][...] = value
    pool = ctx.train_pool
    ctx.net.center_latent_biases(store, pool.samples.images, pool.priors,
                                 pool.samples.volumes)
    return store


def write_iou_reports(paths: runs.RunPaths, pipeline: str,
                      table: evaluate.IouTable,
                      proximity: dict[str, float]) -> None:
    """`<pipeline>_iou.csv`, one row per class with its `proximity` value
    (`ExperimentContext.proximity`) last, then the `__average__` row of
    the class values; and the per-sample `<pipeline>_iou_samples.csv`."""
    values = [proximity[class_id] for class_id, _, _ in table.rows]
    average = ("__average__", table.overall, sum(r[2] for r in table.rows))
    runs.write_csv(paths.iou_path(pipeline),
                   ("class", "mean_iou", "n_samples", "threshold", "prior_mode",
                    "proximity"),
                   [(*row, table.threshold, table.prior_mode, value)
                    for row, value in zip((*table.rows, average),
                                          (*values, float(np.mean(values))))])
    runs.write_csv(paths.reports_dir / f"{pipeline}_iou_samples.csv",
                   ("object_id", "pose_id", "class", "iou"), table.per_sample)


def arm_name(pipeline: str, alpha: float | None = None,
             variant: str = "prior") -> str:
    """The name of the arm keyed (pipeline, alpha, variant): `pipeline`,
    then `_alpha<alpha:g>` in an alpha sweep (alpha None outside one), then
    `_noprior` on the no-prior network.  Two alphas that print alike under
    `%g` name one arm."""
    return (pipeline + ("" if alpha is None else f"_alpha{alpha:g}")
            + ("_noprior" if variant == "no_prior" else ""))


def arm_configs(config: ExperimentConfig, pipelines: tuple[str, ...],
                alphas: tuple[float, ...] = ()) -> dict[str, tuple]:
    """(pipeline, config) by arm name: `pipelines` on `config`'s network,
    under `config`, or with `alphas` each pipeline at each, under that
    `mixup.alpha`."""
    variant = network_config(config).variant
    return {arm_name(name, alpha, variant):
            (name, config if alpha is None else
             replace(config, mixup=replace(config.mixup, alpha=alpha)))
            for name in pipelines for alpha in alphas or (None,)}


def run_ablation(config: ExperimentConfig, paths: runs.RunPaths,
                 pipelines: tuple[str, ...] = tuple(PIPELINES),
                 alphas: tuple[float, ...] = ()) -> dict[str, PipelineResult]:
    """Train every node of the experiment tree once, after pretraining the
    volume encoder or loading it, and leave the train log, IoU reports and
    final checkpoint of each arm of `arm_configs(config, pipelines,
    alphas)`, under its name, in the run directory.  Sharing a prefix of
    nodes is bit-identical to training each arm from scratch, because
    every stage draws from its own seeded stream.  Prior mode "corrupted"
    is a ConfigError, before any file is written."""
    unknown = [p for p in pipelines if p not in PIPELINES]
    if unknown:
        raise ValueError(f"unknown pipeline {unknown[0]!r}")
    arms = arm_configs(config, pipelines, alphas)
    ctx = ExperimentContext.load(config, paths)
    pool = ctx.train_pool
    paths.ensure_dirs()
    paths.write_resolved_config(config)
    proximity = ctx.proximity()

    # An arm is the path of (stage, alpha) nodes its pipeline runs; a node
    # trains under the config of any arm through it.
    leaves: dict[tuple, list[str]] = {}
    node_config: dict[tuple, ExperimentConfig] = {}
    for name, (pipeline, arm_config) in arms.items():
        path = tuple((stage, None if stage == STAGE_BASE
                      else arm_config.mixup.alpha) for stage in PIPELINES[pipeline])
        leaves.setdefault(path, []).append(name)
        for k in range(1, len(path) + 1):
            node_config.setdefault(path[:k], arm_config)
    results: dict[str, PipelineResult] = {}
    # Depth first.  A node's first child trains the node's store in place,
    # so it is stacked first: its siblings copy the store before it changes.
    stack = [(((STAGE_BASE, None),), init_main_store(ctx), [], True)]
    while stack:
        prefix, store, log, in_place = stack.pop()
        store = store if in_place else store.copy()
        stage = prefix[-1][0]
        log = log + train_stage(ctx.net, store, stage, pool,
                                node_config[prefix],
                                stream_rng(config.seed, stage))
        names = leaves.get(prefix, [])
        table = ctx.eval_table(store) if names else None
        for name in names:
            pipeline, arm_config = arms[name]
            ckpt = paths.checkpoint_path(name, stage)
            save_stage_checkpoint(ckpt, store, arm_config, stage)
            write_iou_reports(paths, name, table, proximity)
            runs.write_csv(paths.logs_dir / f"{name}_train.csv", TRAIN_LOG, log)
            results[name] = PipelineResult(pipeline, arm_config, table, ckpt)
        stack.extend((child, store, log, k == 0) for k, child in
                     enumerate(c for c in node_config if c[:-1] == prefix))
    return {name: results[name] for name in arms}
