import ast
import importlib
import inspect
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import TINY_OVERRIDES

from voxmix import losses, mixup, nn, runs, trainer, verification
from voxmix.config import ExperimentConfig, MixupSection, config_hash, dump_config
from voxmix.model import GridBatch, Network

VOXBENCH = Path(__file__).resolve().parent.parent / "voxbench"

# Model methods the benchmark traces that no longer exist, with the reason.
GONE_MODEL_METHODS = {
    "backward": "each loss returns its own gradient and stage_step runs the "
                "part backwards, so Network.backward was deleted; "
                "voxbench/layers.py still traces it and model.backward.ms "
                "reads 0 on working code"}


def _assignments(source: Path) -> dict[str, ast.expr]:
    return {node.targets[0].id: node.value
            for node in ast.parse(source.read_text()).body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)}


def test_tiny_config_is_the_benchmark_smoke_profile():
    smoke = _assignments(VOXBENCH / "workloads.py")["SMOKE_OVERRIDES"]
    assert ast.literal_eval(smoke) == TINY_OVERRIDES


def test_every_name_the_benchmark_traces_exists_in_src():
    # The values are built from literals and builtins alone.
    bench = {name: eval(compile(ast.Expression(value), "layers.py", "eval"), {})
             for name, value in _assignments(VOXBENCH / "layers.py").items()
             if name in ("MODEL_METHODS", "CONV_LAYERS", "SETUP_SPANS",
                         "PASS_SPANS", "STEP_LOOPS")}
    assert {m for m in bench["MODEL_METHODS"]
            if not inspect.isfunction(vars(Network).get(m))} \
        <= set(GONE_MODEL_METHODS)

    net = Network(trainer.network_config(ExperimentConfig()))
    layers = {getattr(layer, "name", None) for part in net.parts + [net.gt_decoder]
              for layer in part.layers}
    assert set(bench["CONV_LAYERS"]) <= layers

    for target in (*bench["SETUP_SPANS"].values(), *bench["PASS_SPANS"].values(),
                   *bench["STEP_LOOPS"]):
        module, *path = target.split(".")
        assert not any(part.startswith("_") for part in path), target
        obj = importlib.import_module(f"voxmix.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        assert callable(obj), target
        assert f"{obj.__module__}.{obj.__qualname__}" == f"voxmix.{target}"


def test_shared_prefix_ablation_matches_a_single_pipeline(tiny_run):
    config = tiny_run.config
    every = trainer.run_ablation(config, tiny_run.paths)
    every_ckpt = every["dual_mix"].checkpoint_path.read_bytes()
    for ckpt in tiny_run.paths.checkpoints_dir.glob("*.ckpt"):
        ckpt.unlink()   # the second run pretrains and trains from scratch
    single = trainer.run_ablation(config, tiny_run.paths, ("dual_mix",))

    assert set(single) == {"dual_mix"}
    # Parameters, optimizer slots and metadata all match byte for byte.
    assert single["dual_mix"].checkpoint_path.read_bytes() == every_ckpt
    assert single["dual_mix"].final_table.per_sample \
        == every["dual_mix"].final_table.per_sample
    # Only each pipeline's final checkpoint is written.
    assert sorted(p.name for p in tiny_run.paths.checkpoints_dir.glob("*.ckpt")) \
        == ["dual_mix_stage3.ckpt", "gt_encoder.ckpt"]


def test_an_alpha_sweep_trains_the_base_stage_once(tiny_run, monkeypatch):
    config = tiny_run.config
    plain = trainer.run_ablation(config, tiny_run.paths, ("input_mix",))
    plain_ckpt = plain["input_mix"].checkpoint_path.read_bytes()
    stages = []
    train_stage = trainer.train_stage

    def counted(net, store, stage, *rest):
        stages.append(stage)
        return train_stage(net, store, stage, *rest)

    monkeypatch.setattr(trainer, "train_stage", counted)
    alphas = (0.2, 0.4, 1.0)
    swept = trainer.run_ablation(config, tiny_run.paths,
                                 ("input_mix", "latent_mix"), alphas)

    assert sorted(stages) == [1, 2, 2, 2, 3, 3, 3]
    assert list(swept) == [f"{pipeline}_alpha{alpha:g}" for pipeline
                           in ("input_mix", "latent_mix") for alpha in alphas]
    # The configured alpha is 0.2: that arm is the configured pipeline.
    assert swept["input_mix_alpha0.2"].checkpoint_path.read_bytes() == plain_ckpt
    for pipeline in ("input_mix", "latent_mix"):
        for alpha in alphas:
            result = swept[f"{pipeline}_alpha{alpha:g}"]
            assert result.pipeline == pipeline
            assert result.config == replace(config, mixup=MixupSection(alpha))
            _, metadata = runs.load_checkpoint(result.checkpoint_path)
            assert metadata["config_hash"] == config_hash(result.config)
    assert tiny_run.paths.resolved_config_path.read_text() == dump_config(config)


def test_run_ablation_rejects_an_unknown_pipeline(tiny_run):
    with pytest.raises(ValueError, match="triple_mix"):
        trainer.run_ablation(tiny_run.config, tiny_run.paths, ("triple_mix",))


@pytest.mark.parametrize("stage", [0, 4])
def test_stage_step_rejects_an_unknown_stage(stage):
    cfg = verification.TINY_NET
    net = Network(cfg)
    store = net.init_params(np.random.default_rng(0))
    grids = GridBatch(np.zeros((1, 1) + (cfg.vox_dim,) * 3),
                      np.zeros(2, dtype=np.intp))
    batch = trainer.Batch(np.zeros((2, 2, cfg.image_size, cfg.image_size)),
                          grids, grids)
    with pytest.raises(ValueError, match=f"unknown stage {stage}"):
        trainer.stage_step(net, store, batch, stage, losses.LossConfig(), 0.2,
                           trainer.stream_rng(0, 1))


@pytest.mark.parametrize("seed", range(11))
def test_pipeline_fragments_check_the_training_step(seed):
    # The benchmark's grad_check pairs run seeds 0-10, each at the workload's
    # probe count and tolerance; any fragment failing there fails the pair.
    bench = {name: ast.literal_eval(value)
             for name, value in _assignments(VOXBENCH / "workloads.py").items()
             if name in ("GRAD_CHECK_PROBES", "GRAD_CHECK_TOLERANCE")}
    fragments = verification.standard_fragments(seed)
    assert [name for name, *_ in fragments if name.startswith("pipeline_")] \
        == ["pipeline_prior_bce", "pipeline_no_prior_bce", "pipeline_input_mix",
            "pipeline_latent_mix"]
    for name, fn, arrays, step in fragments:
        report = nn.grad_check(fn, arrays, bench["GRAD_CHECK_TOLERANCE"],
                               bench["GRAD_CHECK_PROBES"], step=step)
        assert report.passed, \
            f"{name}: {report.max_rel_error:.3e} at {report.worst_name}"


def _two_branch_stage_step(net, store, batch, stage, lcfg, alpha, rng):
    """The training step as two branches, each with its own decode, loss and
    backward sequence, and the latent-mixing adjoint written inline: the
    reference the one-path `trainer.stage_step` must match bit for bit.
    Both encode each distinct volume once: a sample and its negative read
    their object's latent."""
    store.zero_grads()
    images, priors, volumes = batch.images, batch.priors, batch.volumes
    n = len(images)
    if stage == trainer.STAGE_INPUT_MIX:
        plan = mixup.pair_batch(n, alpha, rng)
        images = mixup.apply_pairs(images, plan)
        volumes = GridBatch(mixup.apply_pairs(
            volumes.grids[volumes.rows], plan), np.arange(n))
        if priors is not None:
            grids, rows = priors
            priors = GridBatch(mixup.apply_pairs(grids[rows], plan),
                               np.arange(n))
    e_fused = net.encode(images, priors, store)
    if stage == trainer.STAGE_LATENT_MIX:
        vol_latent = net.encode_gt(volumes, store)
        plan = partners, ratios = mixup.pair_batch(n, alpha, rng)
        e_mix = mixup.apply_pairs(e_fused, plan)
        lat_mix = mixup.apply_pairs(vol_latent, plan)
        targets = mixup.apply_pairs(volumes.grids[volumes.rows], plan)[:, 0]
        logits = net.decode(e_mix, store)
        recon, d_logits = losses.bce_loss(logits, targets)
        align, sim_pos, sim_neg, (d_mix, d_latmix, _) = losses.align_loss(
            e_mix, lat_mix, lat_mix, lcfg.margin, np.zeros(n))
        d_mix = lcfg.w_align * d_mix + net.decode_backward(
            lcfg.w_recon * d_logits, store)
        d_latmix = lcfg.w_align * d_latmix
        d_fused = np.zeros_like(e_fused)
        d_vol_latent = np.zeros_like(vol_latent)
        left = np.arange(n)
        lams = ratios.astype(e_fused.dtype)[:, None]
        np.add.at(d_fused, left, (1 - lams) * d_mix)
        np.add.at(d_fused, partners, lams * d_mix)
        np.add.at(d_vol_latent, left, (1 - lams) * d_latmix)
        np.add.at(d_vol_latent, partners, lams * d_latmix)
        net.encode_backward(d_fused, store)
        net.encode_gt_backward(d_vol_latent, store)
    else:
        logits = net.decode(e_fused, store)
        recon, d_logits = losses.bce_loss(logits,
                                          volumes.grids[volumes.rows][:, 0])
        neg_idx, mask = trainer._negative_indices(volumes.rows, n, rng)
        rows = np.concatenate([volumes.rows, volumes.rows[neg_idx]])
        latents = net.encode_gt(GridBatch(volumes.grids, rows), store)
        align, sim_pos, sim_neg, (d_fused, d_pos, d_neg) = losses.align_loss(
            e_fused, latents[:n], latents[n:], lcfg.margin, mask)
        net.encode_backward(net.decode_backward(lcfg.w_recon * d_logits, store)
                            + lcfg.w_align * d_fused, store)
        net.encode_gt_backward(np.concatenate([lcfg.w_align * d_pos,
                                               lcfg.w_align * d_neg]), store)
    return losses.combined_loss(recon, align, sim_pos, sim_neg, lcfg)


def _stage_step_with_backward(*args):
    """`trainer.stage_step` with its backward pass run: the breakdown, and
    the gradients in `store.grads`."""
    breakdown, backward = trainer.stage_step(*args)
    backward()
    return breakdown


def _looped_negative_indices(objects, n, rng):
    """The triplet negatives as a per-sample loop: the reference the array
    form in `trainer._negative_indices` must match, draws included."""
    if n < 2:
        return np.zeros(n, dtype=np.int64), np.zeros(n)
    neg = mixup.random_derangement(n, rng)
    mask = np.ones(n)
    for i in range(n):
        if objects[neg[i]] != objects[i]:
            continue
        for off in range(1, n):
            j = (neg[i] + off) % n
            if objects[j] != objects[i]:
                neg[i] = j
                break
        else:
            mask[i] = 0.0
    return neg, mask


@pytest.mark.parametrize("seed", range(40))
def test_negative_indices_match_the_per_sample_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    kinds = int(rng.integers(1, 4))
    # Objects drawn at random, every sample its own (stage 2), one object.
    cases = [rng.integers(0, kinds, n), np.arange(n), np.zeros(n, dtype=int)]
    for objects in cases:
        got_rng, want_rng = (trainer.stream_rng(seed, 1) for _ in range(2))
        got = trainer._negative_indices(objects, n, got_rng)
        want = _looped_negative_indices(objects, n, want_rng)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tobytes() == want[1].tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    if n > 1:
        assert not got[1].any()   # a batch of one object has no negative


def test_negative_indices_of_a_single_sample():
    rng = trainer.stream_rng(0, 1)
    neg, mask = trainer._negative_indices(np.zeros(1, dtype=int), 1, rng)
    assert neg.tolist() == [0] and mask.tolist() == [0.0]
    assert rng.bit_generator.state == trainer.stream_rng(0, 1).bit_generator.state


@pytest.mark.parametrize("n,batch_size,epochs", [(10, 4, 3), (3, 8, 2), (5, 5, 0)])
def test_steps_cut_one_permutation_per_epoch_into_batches(n, batch_size, epochs):
    rng, reference = trainer.stream_rng(0, 1), trainer.stream_rng(0, 1)
    steps = list(trainer._steps(n, batch_size, epochs, rng))
    per_epoch = -(-n // min(batch_size, n))
    assert len(steps) == epochs * per_epoch
    for epoch in range(epochs):
        mine = steps[epoch * per_epoch:(epoch + 1) * per_epoch]
        assert [(e, step) for e, step, _ in mine] == \
            [(epoch, step) for step in range(per_epoch)]
        rows = np.concatenate([rows for _, _, rows in mine])
        assert sorted(rows.tolist()) == list(range(n))
        assert rows.tolist() == reference.permutation(n).tolist()
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("n", [1, 3, 4])
@pytest.mark.parametrize("kind", ["bce"])   # the one reconstruction loss
@pytest.mark.parametrize("variant", ["prior", "no_prior"])
@pytest.mark.parametrize("stage", [1, 2, 3])
def test_stage_step_matches_the_two_branch_reference(stage, variant, kind, n):
    cfg = verification.TINY_NET if variant == "prior" \
        else verification.TINY_NET_NO_PRIOR
    # An alignment weight that is not a power of two rounds, so scaling
    # before or after a sum shows.
    lcfg = losses.LossConfig(w_align=0.3)
    net = Network(cfg)
    store = net.init_params(np.random.default_rng(1))
    rng = np.random.default_rng(2)
    images = rng.uniform(0.0, 1.0, (n, 2, cfg.image_size, cfg.image_size))
    grids = rng.uniform(0.0, 1.0, (n, 1) + (cfg.vox_dim,) * 3) \
        if variant == "prior" else None
    volumes = (rng.uniform(0.0, 1.0, (n, 1) + (cfg.vox_dim,) * 3) > 0.5)
    # Two views of one object, so the triplet must look past a partner; they
    # share one prior grid and one volume, and beyond one sample the last
    # grid is one no sample reads.
    rows = np.array([0, 0, 1, 2][:n])
    priors = None if grids is None else GridBatch(grids.astype(np.float32), rows)
    batch = trainer.Batch(images.astype(np.float32), priors,
                          GridBatch(volumes.astype(np.float32), rows))

    runs = []
    for step in (_two_branch_stage_step, _stage_step_with_backward):
        # Both must draw the same numbers from the stream, no more.
        rng = trainer.stream_rng(3, stage)
        breakdown = step(net, store, batch, stage, lcfg, 0.2, rng)
        runs.append((breakdown, store.flat_grads.tobytes(),
                     rng.bit_generator.state))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_only_the_input_mixing_step_mixes_through_mix_inputs(stage,
                                                              monkeypatch):
    cfg = verification.TINY_NET
    net = Network(cfg)
    store = net.init_params(np.random.default_rng(0))
    rng = np.random.default_rng(1)
    volumes = GridBatch((rng.uniform(0.0, 1.0, (2, 1) + (cfg.vox_dim,) * 3)
                         > 0.5).astype(np.float32), np.array([0, 1, 1]))
    images = rng.uniform(0.0, 1.0, (3, 2, cfg.image_size, cfg.image_size))
    batch = trainer.Batch(images.astype(np.float32), volumes, volumes)
    mixed = []
    mix = trainer.mix_inputs
    monkeypatch.setattr(trainer, "mix_inputs",
                        lambda *args: mixed.append(args) or mix(*args))
    trainer.stage_step(net, store, batch, stage, losses.LossConfig(), 0.2,
                       trainer.stream_rng(0, stage))
    assert len(mixed) == (stage == trainer.STAGE_INPUT_MIX)
    if mixed:
        plan = mixup.pair_batch(3, 0.2, trainer.stream_rng(0, stage))
        assert mixed[0][0] is batch
        assert [x.tolist() for x in mixed[0][1]] == [x.tolist() for x in plan]


def test_pretrain_gt_is_a_loop_of_pretrain_step_bit_for_bit(tiny_run):
    ctx = trainer.ExperimentContext.load(tiny_run.config, tiny_run.paths)
    volumes = trainer.unique_volumes(ctx.train_pool.samples)
    lr, batch_size, seed = 1e-3, 4, 5
    store, history = trainer.pretrain_gt(ctx.net, volumes, 2, lr=lr,
                                         batch_size=batch_size, seed=seed)
    want = ctx.net.init_pretrain_params(trainer.stream_rng(seed, "pretrain_init"))
    opt = nn.Adam(want, nn.OptimizerConfig(lr=lr))
    values = [[], []]
    for epoch, _, rows in trainer._steps(len(volumes), batch_size, 2,
                                         trainer.stream_rng(seed, "pretrain")):
        value, backward = trainer.pretrain_step(ctx.net, want,
                                                GridBatch(volumes, rows))
        want.flat_grads[...] = np.nan   # backward replaces the gradients
        assert backward() is want.grads
        opt.step()
        values[epoch].append(value)
    assert len(volumes) > batch_size and want.step == store.step
    for kind in ("m", "v"):
        assert want.slot(kind).tobytes() == store.slot(kind).tobytes()
    assert want.flat.tobytes() == store.flat.tobytes()
    assert history == [float(np.mean(epoch)) for epoch in values]


def test_pretraining_and_its_check_both_run_pretrain_step(monkeypatch):
    calls = []
    step = trainer.pretrain_step

    def counted(net, store, volumes):
        calls.append(len(volumes.rows))
        return step(net, store, volumes)

    monkeypatch.setattr(trainer, "pretrain_step", counted)
    verification._pretrain_fragment(0)
    assert calls and set(calls) == {3}
    grids = (np.random.default_rng(0).uniform(
        0.0, 1.0, (3, 1) + (verification.TINY_NET.vox_dim,) * 3) > 0.5)
    calls.clear()
    trainer.pretrain_gt(Network(verification.TINY_NET),
                        grids.astype(np.float32), 2, lr=1e-3, batch_size=2,
                        seed=0)
    assert calls == [2, 1, 2, 1]


def _count_volume_encodes(net, monkeypatch):
    """The number of grids of each call of the volume encoder's conv stack."""
    sizes = []
    forward = net.gt_conv.forward

    def counted(x, store):
        sizes.append(len(x))
        return forward(x, store)

    monkeypatch.setattr(net.gt_conv, "forward", counted)
    return sizes


@pytest.mark.parametrize("stage,encoded", [(1, 3), (2, 6), (3, 3)])
def test_a_step_encodes_each_distinct_volume_once(stage, encoded, monkeypatch):
    cfg = verification.TINY_NET
    net = Network(cfg)
    store = net.init_params(np.random.default_rng(0))
    rng = np.random.default_rng(1)
    # Six views of three objects; the pool's fourth volume is not in the batch.
    rows = np.array([0, 2, 0, 3, 2, 2])
    volumes = GridBatch((rng.uniform(0.0, 1.0, (4, 1) + (cfg.vox_dim,) * 3)
                         > 0.5).astype(np.float32), rows)
    images = rng.uniform(0.0, 1.0, (6, 2, cfg.image_size, cfg.image_size))
    batch = trainer.Batch(images.astype(np.float32), volumes, volumes)
    sizes = _count_volume_encodes(net, monkeypatch)
    _, backward = trainer.stage_step(net, store, batch, stage,
                                     losses.LossConfig(), 0.2,
                                     trainer.stream_rng(0, stage))
    backward()
    # Stage 2 mixes volumes, so each sample has its own.
    assert sizes == [encoded]
    assert np.all(store.grads["gt_encoder.conv0.w"] != 0.0)


def test_latent_centring_encodes_each_pool_object_once(tiny_run, monkeypatch):
    ctx = trainer.ExperimentContext.load(tiny_run.config, tiny_run.paths)
    pool = ctx.train_pool
    objects = len(set(pool.samples.object_ids))
    volumes = pool.samples.volumes
    assert volumes.grids.tobytes() \
        == trainer.unique_volumes(pool.samples).tobytes()
    assert volumes.grids[volumes.rows, 0].tobytes() == np.stack(
        [ctx.manifest.volumes[obj] for obj in pool.samples.object_ids]
    ).astype(np.float32).tobytes()
    store = ctx.net.init_params(np.random.default_rng(0))
    sizes = _count_volume_encodes(ctx.net, monkeypatch)
    ctx.net.center_latent_biases(store, pool.samples.images, pool.priors,
                                 volumes)
    assert sizes == [objects] and objects < len(pool)
