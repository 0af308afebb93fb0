import csv

import numpy as np
import pytest

from voxmix import cli, mixup, runs, trainer
from voxmix.config import ExperimentConfig, apply_assignments


def test_no_prior_variant_trains_and_evaluates(tiny_run):
    override = ("-o", "model.variant=no_prior")
    assert tiny_run.voxmix("train", *override, "--pipeline", "base") == cli.EXIT_OK
    assert tiny_run.voxmix("eval", *override, "--pipeline", "base") == cli.EXIT_OK
    with open(tiny_run.paths.reports_dir / "base_iou.csv", newline="") as fh:
        assert {row["prior_mode"] for row in csv.DictReader(fh)} == {"none"}


def test_proximity_names_a_class_missing_from_the_iou_table(tiny_run, capsys):
    novel = tiny_run.config.data.novel_classes
    tiny_run.paths.reports_dir.mkdir(parents=True, exist_ok=True)
    with open(tiny_run.paths.reports_dir / "dual_mix_iou.csv", "w",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "mean_iou", "n_samples", "threshold",
                         "prior_mode"])
        for class_id in novel[1:]:
            writer.writerow([class_id, "0.5", "4", "0.3", "correct"])
    assert tiny_run.voxmix("proximity", "--pipeline", "dual_mix") == cli.EXIT_USAGE
    assert novel[0] in capsys.readouterr().err


@pytest.mark.parametrize("rows", [[["class", "iou"], ["lamp", "0.5"]],
                                  [["class", "mean_iou"], ["lamp", "high"]]],
                         ids=["missing_column", "unparsable_value"])
def test_proximity_on_a_damaged_iou_table_exits_3_and_names_it(tiny_run,
                                                                capsys, rows):
    table = tiny_run.paths.reports_dir / "dual_mix_iou.csv"
    table.parent.mkdir(parents=True, exist_ok=True)
    with open(table, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert tiny_run.voxmix("proximity", "--pipeline", "dual_mix") == cli.EXIT_MISSING
    assert f"{table}: unreadable IoU table" in capsys.readouterr().err


@pytest.mark.parametrize("relpath,keep", [
    ("dataset/manifest.jsonl", 500), ("split.json", 30),
    ("priors/prior_lamp.binvox", 30),
    ("dataset/images/box_000_p0_dep.pgm", 20),
    ("dataset/volumes/box_000.binvox", 30)],
    ids=["manifest", "split", "prior", "view", "volume"])
def test_a_damaged_input_artifact_exits_3_and_names_the_file(tiny_run, capsys,
                                                             relpath, keep):
    damaged = tiny_run.paths.root / relpath
    damaged.write_bytes(damaged.read_bytes()[:keep])
    capsys.readouterr()
    assert tiny_run.voxmix("pretrain-gt") == cli.EXIT_MISSING
    assert f"missing artifact: {damaged}: " in capsys.readouterr().err


def test_pretrain_gt_reports_its_history_and_replaces_the_checkpoint(tiny_run,
                                                                     capsys):
    ckpt = tiny_run.paths.checkpoints_dir / trainer.GT_ENCODER_CHECKPOINT
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    ckpt.write_bytes(b"stale")
    assert tiny_run.voxmix("pretrain-gt") == cli.EXIT_OK
    assert "for 3 epochs" in capsys.readouterr().out
    assert ckpt.read_bytes() != b"stale"


def test_mix_preview_writes_the_stage_two_mix(tiny_run):
    assert tiny_run.voxmix("mix-preview", "--pairs", "3") == cli.EXIT_OK
    config = tiny_run.config
    pool = trainer.ExperimentContext.load(config, tiny_run.paths).train_pool
    pairs = mixup.pair_batch(3, config.mixup.alpha,
                             trainer.stream_rng(config.seed,
                                                trainer.STAGE_INPUT_MIX))
    volumes = mixup.apply_pairs(pool.samples.volumes[:3], pairs)
    out_dir = tiny_run.paths.reports_dir / "mix_preview"
    for k in range(3):
        got = mixup.read_vgrid(out_dir / f"pair{k}_volume.vgrid")
        assert np.array_equal(got, volumes[k, 0])


def test_train_pretrains_again_when_the_encoder_checkpoint_is_stale(tiny_run):
    ckpt = tiny_run.paths.checkpoints_dir / trainer.GT_ENCODER_CHECKPOINT
    assert tiny_run.voxmix("pretrain-gt") == cli.EXIT_OK
    three_epochs = ckpt.read_bytes()
    one_epoch = ("-o", "train.pretrain_epochs=1")
    assert tiny_run.voxmix("train", *one_epoch, "--pipeline", "base") \
        == cli.EXIT_OK
    trained_with = ckpt.read_bytes()
    assert trained_with != three_epochs
    # Training used the encoder that a 1-epoch pretraining writes.
    assert tiny_run.voxmix("pretrain-gt", *one_epoch) == cli.EXIT_OK
    assert ckpt.read_bytes() == trained_with
    # Narrower encoder channels no longer meet the old encoder's shapes.
    assert tiny_run.voxmix("train", "-o", "model.prior_channels=2,2,2",
                           "--pipeline", "base") == cli.EXIT_OK


def test_the_pretrain_hash_ignores_what_pretraining_does_not_read():
    config = ExperimentConfig()
    assert trainer.pretrain_hash(config) == trainer.pretrain_hash(
        apply_assignments(config, {"mixup.alpha": "0.4",
                                   "train.stage_epochs": "1,1,1",
                                   "model.image_channels": "2,2,2,2"}))
    assert trainer.pretrain_hash(config) != trainer.pretrain_hash(
        apply_assignments(config, {"train.pretrain_epochs": "1"}))


@pytest.mark.parametrize("damage", [lambda data: data[:200],
                                    lambda data: b"garbage"],
                         ids=["truncated", "garbage"])
def test_an_unreadable_encoder_checkpoint_is_pretrained_again(tiny_run, damage):
    ckpt = tiny_run.paths.checkpoints_dir / trainer.GT_ENCODER_CHECKPOINT
    assert tiny_run.voxmix("pretrain-gt") == cli.EXIT_OK
    ckpt.write_bytes(damage(ckpt.read_bytes()))
    assert tiny_run.voxmix("train", "--pipeline", "base") == cli.EXIT_OK
    _, metadata = runs.load_checkpoint(ckpt)
    assert metadata["pretrain_hash"] == trainer.pretrain_hash(tiny_run.config)


@pytest.mark.parametrize("key,value", [
    ("loss.margin", "5"), ("train.stage_epochs", "1,1"),
    ("train.batch_size", "0"), ("train.pretrain_batch", "0"),
    ("eval.batch_size", "0"), ("mixup.alpha", "-1"),
    ("eval.iou_threshold", "1.5"), ("data.vox_dim", "12"),
    ("data.image_size", "0"), ("data.shots", "0"), ("data.elevations", ""),
    ("prior.threshold", "1.5"), ("prior.mode", "wrong"), ("model.variant", "x"),
    ("model.latent_width", "0"), ("model.decoder_channels", ""),
    ("train.optimizer", "foo"), ("train.pipeline", "foo")])
def test_an_out_of_range_value_exits_2_before_any_work(tiny_run, capsys,
                                                       key, value):
    capsys.readouterr()
    assert tiny_run.voxmix("train", "-o", f"{key}={value}", "--pipeline",
                           "dual_mix") == cli.EXIT_CONFIG
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not list(tiny_run.paths.checkpoints_dir.glob("*.ckpt"))


def test_eval_refuses_a_checkpoint_of_other_parameter_shapes(tiny_run,
                                                            capsys):
    assert tiny_run.voxmix("train", "--pipeline", "base") == cli.EXIT_OK
    report = tiny_run.paths.reports_dir / "base_iou.csv"
    written = report.read_bytes()
    capsys.readouterr()
    # The same parameter names as at latent_width 16, in other shapes.
    assert tiny_run.voxmix("eval", "-o", "model.latent_width=8",
                           "--pipeline", "base") == cli.EXIT_USAGE
    assert "image_encoder.fc.w is (4, 16), not (4, 8)" \
        in capsys.readouterr().err
    assert report.read_bytes() == written


def test_a_garbage_stage_checkpoint_exits_3_and_says_what_it_is(tiny_run,
                                                                capsys):
    ckpt = tiny_run.paths.checkpoints_dir / "dual_mix_stage3.ckpt"
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    ckpt.write_bytes(b"garbage" * 30)
    assert tiny_run.voxmix("eval", "--pipeline", "dual_mix") == cli.EXIT_MISSING
    err = capsys.readouterr().err
    assert f"{ckpt}: not a checkpoint file" in err
    assert "allow_pickle" not in err


def test_every_subcommand_runs_and_eval_reproduces_the_iou_reports(tiny_run):
    assert tiny_run.voxmix("gen-data") == cli.EXIT_OK
    assert tiny_run.voxmix("build-priors") == cli.EXIT_OK
    assert tiny_run.voxmix("pretrain-gt") == cli.EXIT_OK
    assert tiny_run.voxmix("train", "--all") == cli.EXIT_OK
    reports = tiny_run.paths.reports_dir
    names = ("dual_mix_iou.csv", "dual_mix_iou_samples.csv")
    written = {name: (reports / name).read_bytes() for name in names}
    assert tiny_run.voxmix("eval", "--pipeline", "dual_mix") == cli.EXIT_OK
    assert {name: (reports / name).read_bytes() for name in names} == written
    assert tiny_run.voxmix("analyze-latent") == cli.EXIT_OK
    assert tiny_run.voxmix("proximity") == cli.EXIT_OK
    assert tiny_run.voxmix("alpha-sweep", "--alphas", "1.0") == cli.EXIT_OK
    assert tiny_run.voxmix("mix-preview", "--pairs", "2") == cli.EXIT_OK
    assert cli.main(["grad-check", "--probes", "1"]) == cli.EXIT_OK
    assert not list(tiny_run.root.rglob("*.tmp"))
