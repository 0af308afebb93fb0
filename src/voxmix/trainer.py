"""Staged training: volume-encoder pretraining, the base stage, the
input-mixing stage, and the latent-mixing stage, with strict determinism.

`stage_step` is the one place that runs a stage's forward pass, loss and
backward pass; `train_stage` loops it over epochs and batches, and the
finite-difference verifier checks that same function.

Stage order is fixed: the base stage always runs first; the latent stage
may follow either the base stage or the input-mixing stage.  The four
selectable pipelines are
    base        stage 1 only
    input_mix   stages 1-2
    latent_mix  stages 1+3
    dual_mix    stages 1-2-3
An experiment is a tree of (stage, alpha) nodes, and each arm, a pipeline
at one alpha, is a path from the root.  Only the mixing stages read alpha,
so the base stage node has alpha None and an alpha sweep shares it.  Each
stage draws from its own seeded random stream, so arms sharing a prefix of
nodes are bit-identical up to the branch point; each node trains once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import evaluate, losses, mixup, runs
from .config import ExperimentConfig, ModelSection, TrainSection, config_hash
from .corpus import DatasetManifest, FewShotSplit, SampleArrays, load_samples
from .model import Network, NetworkConfig
from .nn import NumericError, OptimizerConfig, ParamStore, make_optimizer

STAGE_BASE = 1
STAGE_INPUT_MIX = 2
STAGE_LATENT_MIX = 3

PIPELINES: dict[str, tuple[int, ...]] = {
    "base": (STAGE_BASE,),
    "input_mix": (STAGE_BASE, STAGE_INPUT_MIX),
    "latent_mix": (STAGE_BASE, STAGE_LATENT_MIX),
    "dual_mix": (STAGE_BASE, STAGE_INPUT_MIX, STAGE_LATENT_MIX),
}

_ALLOWED_PREVIOUS = {
    STAGE_BASE: {0},
    STAGE_INPUT_MIX: {STAGE_BASE},
    STAGE_LATENT_MIX: {STAGE_BASE, STAGE_INPUT_MIX},
}

# Nonces separating the independent random streams of one experiment seed.
_STREAM = {"init": 101, "pretrain_init": 102, "pretrain": 103,
           STAGE_BASE: 111, STAGE_INPUT_MIX: 112, STAGE_LATENT_MIX: 113}


class StageOrderError(RuntimeError):
    """A stage was requested from an incompatible predecessor."""


def stream_rng(seed: int, stream) -> np.random.Generator:
    nonce = _STREAM[stream] if stream in _STREAM else int(stream)
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, nonce])))


def network_config(config: ExperimentConfig) -> NetworkConfig:
    """Every `model` field, and the `data` sizes; a run without priors
    builds the no-prior variant."""
    variant = "no_prior" if config.prior.mode == "none" else config.model.variant
    return NetworkConfig(**{**asdict(config.model), "variant": variant},
                         vox_dim=config.data.vox_dim,
                         image_size=config.data.image_size)


def effective_prior_mode(config: ExperimentConfig) -> str:
    """The prior mode the configured network sees: "none" when it takes no
    prior batch."""
    if network_config(config).variant == "no_prior":
        return "none"
    return config.prior.mode


def optimizer_config(config: ExperimentConfig) -> OptimizerConfig:
    # The volume encoder learns on its own, slower rate in every stage.
    return OptimizerConfig(kind=config.train.optimizer, lr=config.train.lr,
                           groups=(("gt_encoder.", config.train.gt_lr),))


# ---------------------------------------------------------------------------
# Training pool
# ---------------------------------------------------------------------------

@dataclass
class TrainingPool:
    """Preloaded training views plus per-sample prior assignment."""

    samples: SampleArrays
    priors: np.ndarray | None     # (n, 1, D, D, D) or None for no-prior runs

    def __len__(self) -> int:
        return len(self.samples)


def unique_volumes(samples: SampleArrays) -> np.ndarray:
    """One (1, D, D, D) volume per distinct object, in first-seen order."""
    seen: dict[str, int] = {}
    for i, obj in enumerate(samples.object_ids):
        seen.setdefault(obj, i)
    return samples.volumes[sorted(seen.values())]


# ---------------------------------------------------------------------------
# Volume-encoder pretraining
# ---------------------------------------------------------------------------

def pretrain_gt(net: Network, volumes: np.ndarray, epochs: int,
                lr: float = 1e-4, batch_size: int = 4,
                seed: int = 0) -> tuple[ParamStore, list[float]]:
    """Train the volume encoder plus a throwaway decoder as a plain
    autoencoder; returns (parameters, per-epoch mean losses).  The caller
    keeps only the encoder half."""
    if len(volumes) == 0:
        raise ValueError("no volumes to pretrain on")
    store = net.init_pretrain_params(stream_rng(seed, "pretrain_init"))
    opt = make_optimizer(store, OptimizerConfig(kind="adam", lr=lr))
    rng = stream_rng(seed, "pretrain")
    history: list[float] = []
    n = len(volumes)
    batch_size = min(batch_size, n)
    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, batch_size):
            batch = volumes[order[start:start + batch_size]]
            recon = net.gt_autoencode(batch, store)
            value, d_recon = losses.bce_loss(recon, batch[:, 0])
            net.gt_autoencode_backward(d_recon, store)
            opt.step()
            epoch_losses.append(value)
        history.append(float(np.mean(epoch_losses)))
    return store, history


# ---------------------------------------------------------------------------
# Stage training
# ---------------------------------------------------------------------------

def _negative_indices(object_ids, n: int, rng: np.random.Generator):
    """Partner index per sample for the triplet negative, plus a mask that
    zeroes the triplet where the batch holds no different object.  A None
    `object_ids` means every sample counts as its own object."""
    if n < 2:
        return np.zeros(n, dtype=np.int64), np.zeros(n)
    neg = mixup.random_derangement(n, rng)
    mask = np.ones(n)
    if object_ids is None:
        return neg, mask
    for i in range(n):
        if object_ids[neg[i]] != object_ids[i]:
            continue
        for off in range(1, n):
            j = (neg[i] + off) % n
            if object_ids[j] != object_ids[i]:
                neg[i] = j
                break
        else:
            mask[i] = 0.0
    return neg, mask


@dataclass
class Batch:
    """One step's samples.  `priors` is None for a network that takes no
    prior batch; `object_ids` None counts every sample as its own object."""

    images: np.ndarray
    priors: np.ndarray | None
    volumes: np.ndarray
    object_ids: list[str] | None


@dataclass
class StepStats:
    stage: int
    epoch: int
    step: int
    breakdown: losses.LossBreakdown


def stage_step(net: Network, store: ParamStore, batch: Batch, stage: int,
               lcfg: losses.LossConfig, alpha: float,
               rng: np.random.Generator) -> losses.LossBreakdown:
    """Forward pass, loss and backward pass of one training step of `stage`.

    The stages differ only in where the batch is mixed: nowhere (stage 1),
    in the inputs (stage 2), or in the fused and volume latents (stage 3),
    where the alignment is cosine-only (mixed rows have no one identity to
    contrast) and `mixup.apply_pairs_backward` unmixes the latent gradients.
    Replaces `store.grads` with the gradient of the batch loss and returns
    its breakdown; the caller applies the update.  Draws from `rng` in a
    fixed order: the input-mixing pairs (stage 2), then the latent-mixing
    pairs (stage 3) or the triplet negatives (stages 1-2).
    """
    if stage not in _ALLOWED_PREVIOUS:
        raise ValueError(f"unknown stage {stage}")
    store.zero_grads()
    images, priors, volumes = batch.images, batch.priors, batch.volumes
    object_ids = batch.object_ids
    n = len(images)

    if stage == STAGE_INPUT_MIX:
        pairs = mixup.pair_batch(n, alpha, rng)
        images = mixup.apply_pairs(images, pairs)
        volumes = mixup.apply_pairs(volumes, pairs)
        if priors is not None:
            priors = mixup.apply_pairs(priors, pairs)
        object_ids = None  # every mixed sample is its own object

    _, _, e_fused = net.encode(images, priors, store)
    vol_latent = net.encode_gt(volumes, store)
    latent_pairs = None
    if stage == STAGE_LATENT_MIX:
        latent_pairs = mixup.pair_batch(n, alpha, rng)
        e_fused, vol_latent, volumes = (mixup.apply_pairs(x, latent_pairs)
                                        for x in (e_fused, vol_latent, volumes))
    pred = net.decode(e_fused, store)

    recon, d_pred = losses.reconstruction_loss(pred, volumes[:, 0], lcfg)
    w_align = lcfg.w_align
    if latent_pairs is not None:
        align, (d_fused, d_vol_latent) = losses.align_loss_no_triplet(
            e_fused, vol_latent)
        sim_pos, sim_neg = 1.0 - align, 0.0
        d_vol_latent = w_align * d_vol_latent
    else:
        neg_idx, mask = _negative_indices(object_ids, n, rng)
        align, sim_pos, sim_neg, (d_fused, d_pos, d_neg) = losses.align_loss(
            e_fused, vol_latent, vol_latent[neg_idx], lcfg.margin, mask)
        d_vol_latent = w_align * d_pos
        np.add.at(d_vol_latent, neg_idx, w_align * d_neg)

    d_fused = w_align * d_fused + net.decode_backward(lcfg.w_recon * d_pred,
                                                      store)
    if latent_pairs is not None:
        d_fused = mixup.apply_pairs_backward(d_fused, latent_pairs, n)
        d_vol_latent = mixup.apply_pairs_backward(d_vol_latent, latent_pairs, n)
    net.encode_backward(d_fused, store)
    net.encode_gt_backward(d_vol_latent, store)
    return losses.combined_loss(recon, align, sim_pos, sim_neg, lcfg)


def train_stage(net: Network, store: ParamStore, stage: int,
                previous_stage: int, pool: TrainingPool,
                config: ExperimentConfig,
                rng: np.random.Generator) -> list[StepStats]:
    """Run one stage in place and return per-step loss statistics."""
    if previous_stage not in _ALLOWED_PREVIOUS.get(stage, ()):
        raise StageOrderError(
            f"stage {stage} cannot start from stage {previous_stage}")
    net.check_store(store)
    opt = make_optimizer(store, optimizer_config(config))
    samples = pool.samples
    batch_size = min(config.train.batch_size, len(pool))
    stats: list[StepStats] = []
    n = len(pool)
    for epoch in range(config.train.stage_epochs[stage - 1]):
        order = rng.permutation(n)
        for step, start in enumerate(range(0, n, batch_size)):
            idx = order[start:start + batch_size]
            batch = Batch(samples.images[idx],
                          None if pool.priors is None else pool.priors[idx],
                          samples.volumes[idx],
                          [samples.object_ids[i] for i in idx])
            breakdown = stage_step(net, store, batch, stage, config.loss,
                                   config.mixup.alpha, rng)
            if not np.isfinite(breakdown.total):
                raise NumericError(
                    f"non-finite loss at stage {stage} epoch {epoch} step {step}")
            opt.step()
            stats.append(StepStats(stage, epoch, step, breakdown))
    return stats


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_stage_checkpoint(path, store: ParamStore, config: ExperimentConfig,
                          stage: int) -> None:
    net_cfg = network_config(config)
    metadata = {
        "variant": net_cfg.variant,
        "stage": stage,
        "epoch": config.train.stage_epochs[stage - 1],
        "config_hash": config_hash(config),
        "latent_width": net_cfg.latent_width,
        "vox_dim": net_cfg.vox_dim,
    }
    runs.save_checkpoint(path, store, metadata)


def load_stage_checkpoint(path, config: ExperimentConfig,
                          expect_hash: bool = True):
    """(parameters, metadata); ValueError unless the parameters fit the
    configured network and, with `expect_hash`, the config is the same."""
    store, metadata = runs.load_checkpoint(path)
    Network(network_config(config)).check_store(store)
    if expect_hash and metadata.get("config_hash") != config_hash(config):
        raise ValueError("checkpoint was written under a different config")
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


def _write_train_log(path: Path, stats: list[StepStats]) -> None:
    runs.write_csv(path, ("stage", "epoch", "step", "total", "recon", "align",
                          "sim_pos", "sim_neg"),
                   [(s.stage, s.epoch, s.step, s.breakdown.total,
                     s.breakdown.recon, s.breakdown.align, s.breakdown.sim_pos,
                     s.breakdown.sim_neg) for s in stats])


@dataclass
class ExperimentContext:
    """The configured network and everything derived from artifacts."""

    config: ExperimentConfig
    paths: runs.RunPaths
    manifest: DatasetManifest
    split: FewShotSplit
    priors_by_class: dict[str, np.ndarray]
    train_pool: TrainingPool
    query_samples: SampleArrays
    net: Network

    @classmethod
    def load(cls, config: ExperimentConfig,
             paths: runs.RunPaths) -> "ExperimentContext":
        # Built before the sample arrays: after them, it raised infer_b64's
        # peak RSS by 7 MB (heap layout).
        net = Network(network_config(config))
        manifest = runs.load_manifest(paths)
        split = runs.load_split(paths)
        priors = runs.load_priors(paths, config.data.classes)
        records = manifest.records_for_objects(split.all_train_objects())
        if not records:
            raise ValueError("training pool is empty")
        samples = load_samples(manifest, records)
        pool = TrainingPool(samples, evaluate.prior_batch(
            samples.class_ids, priors, effective_prior_mode(config),
            config.data.classes))
        query_records = manifest.records_for_objects(split.all_query_objects())
        query = load_samples(manifest, query_records)
        return cls(config, paths, manifest, split, priors, pool, query, net)

    def eval_table(self, store: ParamStore) -> evaluate.IouTable:
        return evaluate.eval_iou(self.net, store, self.query_samples,
                                 self.priors_by_class,
                                 effective_prior_mode(self.config),
                                 self.config.data.classes,
                                 self.config.eval.iou_threshold,
                                 self.config.eval.batch_size)


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
    replacing any earlier checkpoint; returns (parameters, per-epoch mean
    losses)."""
    config = ctx.config
    volumes = unique_volumes(ctx.train_pool.samples)
    store, history = pretrain_gt(ctx.net, volumes, config.train.pretrain_epochs,
                                 lr=config.train.gt_lr,
                                 batch_size=config.train.pretrain_batch,
                                 seed=config.seed)
    ctx.paths.checkpoints_dir.mkdir(parents=True, exist_ok=True)
    runs.save_checkpoint(ctx.paths.checkpoints_dir / GT_ENCODER_CHECKPOINT,
                         store, {"role": "gt_autoencoder",
                                 "pretrain_hash": pretrain_hash(config)})
    return store, history


def prepare_gt_encoder(ctx: ExperimentContext) -> ParamStore:
    """Load the pretrained volume encoder, pretraining it on the training
    volumes first if no checkpoint exists yet, the one there cannot be
    read, or it was pretrained under other settings."""
    path = ctx.paths.checkpoints_dir / GT_ENCODER_CHECKPOINT
    if path.exists():
        try:
            store, metadata = runs.load_checkpoint(path)
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
                      table: evaluate.IouTable) -> None:
    average = ("__average__", table.overall, sum(r[2] for r in table.rows))
    runs.write_csv(paths.reports_dir / f"{pipeline}_iou.csv",
                   ("class", "mean_iou", "n_samples", "threshold", "prior_mode"),
                   [(*row, table.threshold, table.prior_mode)
                    for row in (*table.rows, average)])
    runs.write_csv(paths.reports_dir / f"{pipeline}_iou_samples.csv",
                   ("object_id", "pose_id", "class", "iou"), table.per_sample)


def run_ablation(config: ExperimentConfig, paths: runs.RunPaths,
                 pipelines: tuple[str, ...] = tuple(PIPELINES),
                 alphas: tuple[float, ...] = ()) -> dict[str, PipelineResult]:
    """Train every node of the experiment tree once, after pretraining the
    volume encoder or loading it, and leave each arm's train log, IoU
    reports and final checkpoint, under the arm's name, in the run
    directory.  Without `alphas` the arms are `pipelines` under `config`;
    with them there is one arm `<pipeline>_alpha<alpha>` per pipeline and
    alpha, under `config` with that `mixup.alpha`.  Sharing a prefix of
    nodes is bit-identical to training each arm from scratch, because
    every stage draws from its own seeded stream."""
    unknown = [p for p in pipelines if p not in PIPELINES]
    if unknown:
        raise ValueError(f"unknown pipeline {unknown[0]!r}")
    arms = {name: (name, config) for name in pipelines}
    if alphas:
        arms = {f"{name}_alpha{alpha:g}":
                (name, replace(config, mixup=replace(config.mixup, alpha=alpha)))
                for name in pipelines for alpha in alphas}
    paths.ensure_dirs()
    paths.write_resolved_config(config)
    ctx = ExperimentContext.load(config, paths)

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
    stack = [(prefix, init_main_store(ctx), [], True)
             for prefix in node_config if len(prefix) == 1]
    while stack:
        prefix, store, log, in_place = stack.pop()
        store = store if in_place else store.copy()
        stage = prefix[-1][0]
        log = log + train_stage(ctx.net, store, stage,
                                prefix[-2][0] if len(prefix) > 1 else 0,
                                ctx.train_pool, node_config[prefix],
                                stream_rng(config.seed, stage))
        names = leaves.get(prefix, [])
        table = ctx.eval_table(store) if names else None
        for name in names:
            pipeline, arm_config = arms[name]
            ckpt = paths.checkpoints_dir / f"{name}_stage{stage}.ckpt"
            save_stage_checkpoint(ckpt, store, arm_config, stage)
            write_iou_reports(paths, name, table)
            _write_train_log(paths.logs_dir / f"{name}_train.csv", log)
            results[name] = PipelineResult(pipeline, arm_config, table, ckpt)
        stack.extend((child, store, log, k == 0) for k, child in
                     enumerate(c for c in node_config if c[:-1] == prefix))
    return {name: results[name] for name in arms}
