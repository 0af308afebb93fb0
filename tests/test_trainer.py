import ast
from pathlib import Path

import pytest
from conftest import TINY_OVERRIDES

from voxmix import nn, trainer, verification
from voxmix.model import Network


def test_tiny_config_is_the_benchmark_smoke_profile():
    source = Path(__file__).resolve().parent.parent / "voxbench" / "workloads.py"
    smoke = next(node.value for node in ast.parse(source.read_text()).body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "SMOKE_OVERRIDES")
    assert ast.literal_eval(smoke) == TINY_OVERRIDES


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


def test_run_ablation_rejects_an_unknown_pipeline(tiny_run):
    with pytest.raises(ValueError, match="triple_mix"):
        trainer.run_ablation(tiny_run.config, tiny_run.paths, ("triple_mix",))


@pytest.mark.parametrize("stage, previous", [(1, 1), (2, 0), (2, 3), (3, 0),
                                             (3, 3), (4, 3)])
def test_train_stage_rejects_a_bad_predecessor(tiny_prepared, stage, previous):
    config = tiny_prepared.config
    ctx = trainer.ExperimentContext.load(config, tiny_prepared.paths)
    net = Network(trainer.network_config(config))
    store = net.init_params(trainer.stream_rng(0, "init"))
    with pytest.raises(trainer.StageOrderError):
        trainer.train_stage(net, store, stage, previous, ctx.train_pool, config,
                            trainer.stream_rng(0, 1))


def test_pipeline_fragments_check_the_training_step():
    fragments = verification.pipeline_fragments(0)
    assert [name for name, *_ in fragments] == [
        "pipeline_prior_bce", "pipeline_no_prior_bce", "pipeline_prior_focal",
        "pipeline_latent_mix"]
    for name, fn, arrays in fragments:
        report = nn.grad_check(fn, arrays, 1e-4, probes=1)
        assert report.passed, f"{name}: {report.summary()}"
