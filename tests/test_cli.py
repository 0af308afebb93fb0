import csv

import numpy as np
import pytest

from voxmix import cli, mixup, runs, trainer, voxel
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
    ("train.optimizer", "foo"), ("train.pipeline", "foo"),
    # The split's rules across `data` fields; the tiny config has 3 objects
    # per class.
    ("data.base_classes", "box,foo"), ("data.novel_classes", "foo"),
    ("data.novel_classes", "lamp,box"), ("data.shots", "3"),
    # An option, not a config key: `alpha-sweep --alphas=<value>`.
    ("--alphas", "x"), ("--alphas", "-1"), ("--alphas", "0"),
    ("--alphas", "inf"), ("--alphas", "0.2,0.2"), ("--alphas", "1,1.0")])
def test_an_out_of_range_value_exits_2_before_any_work(tiny_run, capsys,
                                                       key, value):
    capsys.readouterr()
    argv = ("alpha-sweep", f"{key}={value}") if key.startswith("--") \
        else ("train", "-o", f"{key}={value}", "--pipeline", "dual_mix")
    assert tiny_run.voxmix(*argv) == cli.EXIT_CONFIG
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not list(tiny_run.paths.checkpoints_dir.glob("*.ckpt"))


def test_the_split_rules_hold_once_every_override_is_applied(tiny_run):
    # Each of these overrides alone breaks a rule; together they make a
    # valid split.
    overrides = [item for pair in (
        ("data.shots", "3"), ("data.classes", "box,lamp"),
        ("data.base_classes", "box"), ("data.novel_classes", "lamp"),
        ("data.objects_per_class", "4")) for item in ("-o", "=".join(pair))]
    assert tiny_run.voxmix("gen-data", *overrides) == cli.EXIT_OK
    assert tiny_run.voxmix("build-priors", *overrides) == cli.EXIT_OK
    split = runs.load_split(tiny_run.paths)
    assert (len(split.train_objects["lamp"]), len(split.query_objects["lamp"])) \
        == (3, 1)


def test_alpha_sweep_leaves_the_configured_pipelines_files_alone(tiny_run):
    assert tiny_run.voxmix("train", "--all") == cli.EXIT_OK
    assert tiny_run.voxmix("eval", "--pipeline", "dual_mix") == cli.EXIT_OK
    before = {path: path.read_bytes() for path in tiny_run.root.rglob("*")
              if path.is_file()}
    assert tiny_run.voxmix("alpha-sweep", "--alphas", "0.4,1.0") == cli.EXIT_OK
    assert {path: path.read_bytes() for path in before} == before

    paths = tiny_run.paths
    with open(paths.reports_dir / "alpha_sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["alpha"] for row in rows] == ["0.4", "1.0"]
    for row, alpha in zip(rows, ("0.4", "1")):
        for pipeline, stage in (("input_mix", 2), ("latent_mix", 3)):
            arm = f"{pipeline}_alpha{alpha}"
            assert (paths.checkpoints_dir / f"{arm}_stage{stage}.ckpt").exists()
            assert (paths.logs_dir / f"{arm}_train.csv").exists()
            assert (paths.reports_dir / f"{arm}_iou_samples.csv").exists()
            average = _read_average(paths.reports_dir / f"{arm}_iou.csv")
            assert row[f"{pipeline}_iou"] == average


def _read_average(path):
    with open(path, newline="") as fh:
        return next(row["mean_iou"] for row in csv.DictReader(fh)
                    if row["class"] == "__average__")


def test_dumped_predictions_reproduce_the_per_sample_ious(tiny_run):
    assert tiny_run.voxmix("train", "--pipeline", "base") == cli.EXIT_OK
    assert tiny_run.voxmix("eval", "--pipeline", "base",
                           "--dump-predictions") == cli.EXIT_OK
    query = trainer.ExperimentContext.load(tiny_run.config,
                                           tiny_run.paths).query_samples
    truth = {(obj, pose): volume[0] > 0.5 for obj, pose, volume
             in zip(query.object_ids, query.pose_ids, query.volumes)}
    reports = tiny_run.paths.reports_dir
    with open(reports / "base_iou_samples.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    dumped = sorted((reports / "base_predictions").glob("*.binvox"))
    assert len(rows) == len(truth) == len(dumped)
    for row in rows:
        grid = voxel.load_binvox(reports / "base_predictions"
                                 / f"{row['object_id']}_p{row['pose_id']}.binvox")
        pred, gt = grid.values == 1.0, truth[row["object_id"], int(row["pose_id"])]
        assert float(row["iou"]) == (pred & gt).sum() / (pred | gt).sum()


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
