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
Each stage draws from its own seeded random stream, so pipelines sharing
a prefix of stages produce bit-identical parameters up to the branch
point, and `run_ablation` trains each shared prefix once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
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


def build_pool(manifest: DatasetManifest, object_ids, priors_by_class,
               prior_mode: str, all_classes: tuple[str, ...]) -> TrainingPool:
    records = manifest.records_for_objects(object_ids)
    if not records:
        raise ValueError("training pool is empty")
    samples = load_samples(manifest, records)
    priors = evaluate.prior_batch(samples.class_ids, priors_by_class,
                                  prior_mode, all_classes)
    return TrainingPool(samples, priors)


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


def adopt_pretrained_encoder(store: ParamStore, pretrain_store: ParamStore) -> None:
    for name, value in pretrain_store.params.items():
        if name.startswith("gt_encoder.") and name in store.params:
            store.params[name][...] = value


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
                          stage: int, epoch: int) -> None:
    net_cfg = network_config(config)
    metadata = {
        "variant": net_cfg.variant,
        "stage": stage,
        "epoch": epoch,
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
    pipeline: str
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
    """Everything run_ablation needs that is derived from artifacts."""

    config: ExperimentConfig
    paths: runs.RunPaths
    manifest: DatasetManifest
    split: FewShotSplit
    priors_by_class: dict[str, np.ndarray]
    train_pool: TrainingPool
    query_samples: SampleArrays

    @classmethod
    def load(cls, config: ExperimentConfig,
             paths: runs.RunPaths) -> "ExperimentContext":
        manifest = runs.load_manifest(paths)
        split = runs.load_split(paths)
        priors = runs.load_priors(paths, config.data.classes)
        pool = build_pool(manifest, split.all_train_objects(), priors,
                          effective_prior_mode(config), config.data.classes)
        query_records = manifest.records_for_objects(split.all_query_objects())
        query = load_samples(manifest, query_records)
        return cls(config, paths, manifest, split, priors, pool, query)

    def eval_table(self, net: Network, store: ParamStore) -> evaluate.IouTable:
        return evaluate.eval_iou(net, store, self.query_samples,
                                 self.priors_by_class,
                                 effective_prior_mode(self.config),
                                 self.config.data.classes,
                                 self.config.eval.iou_threshold,
                                 self.config.eval.batch_size)


GT_ENCODER_CHECKPOINT = "gt_encoder.ckpt"


def pretrain_hash(config: ExperimentConfig) -> str:
    """Hash of the config fields volume-encoder pretraining reads, and no
    others: an alpha sweep must not pretrain again for every alpha."""
    model, train = config.model, config.train
    return config_hash(ExperimentConfig(
        seed=config.seed, data=config.data,
        model=ModelSection(prior_channels=model.prior_channels,
                           decoder_channels=model.decoder_channels,
                           latent_width=model.latent_width),
        train=TrainSection(pretrain_epochs=train.pretrain_epochs,
                           gt_lr=train.gt_lr, pretrain_batch=train.pretrain_batch)))


def pretrain_gt_encoder(net: Network, ctx: ExperimentContext
                        ) -> tuple[ParamStore, list[float]]:
    """Pretrain the volume encoder on the training volumes and save it,
    replacing any earlier checkpoint; returns (parameters, per-epoch mean
    losses)."""
    config = ctx.config
    volumes = unique_volumes(ctx.train_pool.samples)
    store, history = pretrain_gt(net, volumes, config.train.pretrain_epochs,
                                 lr=config.train.gt_lr,
                                 batch_size=config.train.pretrain_batch,
                                 seed=config.seed)
    ctx.paths.checkpoints_dir.mkdir(parents=True, exist_ok=True)
    runs.save_checkpoint(ctx.paths.checkpoints_dir / GT_ENCODER_CHECKPOINT,
                         store, {"role": "gt_autoencoder",
                                 "pretrain_hash": pretrain_hash(config)})
    return store, history


def prepare_gt_encoder(net: Network, ctx: ExperimentContext) -> ParamStore:
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
    store, _ = pretrain_gt_encoder(net, ctx)
    return store


def init_main_store(net: Network, config: ExperimentConfig,
                    pretrain_store: ParamStore,
                    pool: TrainingPool | None = None) -> ParamStore:
    store = net.init_params(stream_rng(config.seed, "init"))
    adopt_pretrained_encoder(store, pretrain_store)
    if pool is not None:
        net.center_latent_biases(store, pool.samples.images, pool.priors,
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


def run_ablation(config: ExperimentConfig,
                 run_dir: Path | str | None = None,
                 pipelines: tuple[str, ...] = tuple(PIPELINES),
                 ) -> dict[str, PipelineResult]:
    """Full experiment for the requested pipelines: pretrain the volume
    encoder (or load it), train every stage prefix the pipelines need once,
    evaluate each pipeline's final stage, and leave its CSV log, IoU
    reports and final checkpoint in the run directory.  Because every
    stage uses its own seeded stream, sharing a prefix is bit-identical to
    running each pipeline from scratch."""
    unknown = [p for p in pipelines if p not in PIPELINES]
    if unknown:
        raise ValueError(f"unknown pipeline {unknown[0]!r}")
    paths = runs.RunPaths.for_config(config, run_dir) \
        if not isinstance(run_dir, runs.RunPaths) else run_dir
    paths.ensure_dirs()
    paths.write_resolved_config(config)
    ctx = ExperimentContext.load(config, paths)
    net = Network(network_config(config))
    pretrain_store = prepare_gt_encoder(net, ctx)

    final = {PIPELINES[name]: name for name in pipelines}
    # Sorted, every prefix comes before its extensions.
    prefixes = sorted({stages[:k] for stages in final
                       for k in range(1, len(stages) + 1)})
    stores: dict[tuple[int, ...], ParamStore] = {}
    stats: dict[tuple[int, ...], list[StepStats]] = {}
    results: dict[str, PipelineResult] = {}
    for prefix in prefixes:
        parent, stage = prefix[:-1], prefix[-1]
        if not parent:
            store = init_main_store(net, config, pretrain_store, ctx.train_pool)
        elif any(p[:-1] == parent for p in prefixes if p > prefix):
            # Copy only for a later branch: keeping every prefix's store
            # alive adds about 6 MB of peak RSS at the default size.
            store = stores[parent].copy()
        else:
            store = stores.pop(parent)
        stats[prefix] = train_stage(net, store, stage,
                                    parent[-1] if parent else 0,
                                    ctx.train_pool, config,
                                    stream_rng(config.seed, stage))
        stores[prefix] = store
        if prefix not in final:
            continue
        name = final[prefix]
        table = ctx.eval_table(net, store)
        ckpt = paths.checkpoints_dir / f"{name}_stage{stage}.ckpt"
        save_stage_checkpoint(ckpt, store, config, stage,
                              config.train.stage_epochs[stage - 1])
        write_iou_reports(paths, name, table)
        _write_train_log(paths.logs_dir / f"{name}_train.csv",
                         [s for k in range(1, len(prefix) + 1)
                          for s in stats[prefix[:k]]])
        results[name] = PipelineResult(name, table, ckpt)
    return {name: results[name] for name in pipelines}


def alpha_sweep(config: ExperimentConfig, run_dir: Path | str | None = None,
                alphas: tuple[float, ...] = (0.2, 0.4, 1.0)
                ) -> list[tuple[float, float, float]]:
    """Novel-class average IoU of the two mixing stages for each mixing
    ratio distribution; rows of (alpha, input-mix IoU, latent-mix IoU).
    Each alpha runs `run_ablation` afresh, so the base stage trains again
    for every alpha; only the pretrained volume encoder is reused."""
    from dataclasses import replace
    if any(a <= 0 for a in alphas):
        raise ValueError("alphas must be positive")
    rows = []
    for alpha in alphas:
        swept = replace(config, mixup=replace(config.mixup, alpha=alpha))
        results = run_ablation(swept, run_dir,
                               pipelines=("input_mix", "latent_mix"))
        rows.append((alpha,
                     results["input_mix"].final_table.overall,
                     results["latent_mix"].final_table.overall))
    return rows
