import csv
import re

import numpy as np
import pytest

from conftest import TinyRun, flip_last_byte, rewrite_without
from voxmix import cli, mixup, runs, trainer, verification
from voxmix.config import ExperimentConfig, apply_assignments, dump_config
from voxmix.model import Network


def test_no_prior_variant_trains_and_evaluates(tiny_run):
    override = ("-o", "prior.mode=none")
    assert tiny_run.voxmix("train", *override, "--pipeline", "base") == cli.EXIT_OK
    assert tiny_run.voxmix("eval", *override, "--pipeline", "base") == cli.EXIT_OK
    with open(tiny_run.paths.reports_dir / "base_iou.csv", newline="") as fh:
        assert {row["prior_mode"] for row in csv.DictReader(fh)} == {"none"}
    store, _ = runs.load_checkpoint(tiny_run.paths.checkpoints_dir
                                    / "base_stage1.ckpt")
    assert {"pool_proj.fc.w", "pool_proj.fc.b"} <= set(store.names)
    assert not [name for name in store.names
                if name.startswith("prior_encoder.")]


def test_eval_of_a_no_prior_checkpoint_under_a_prior_mode_exits_1(tiny_run,
                                                                   capsys):
    assert tiny_run.voxmix("train", "-o", "prior.mode=none",
                           "--pipeline", "base") == cli.EXIT_OK
    report = tiny_run.paths.reports_dir / "base_iou.csv"
    written = report.read_bytes()
    capsys.readouterr()
    assert tiny_run.voxmix("eval", "-o", "prior.mode=correct",
                           "--pipeline", "base") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "do not fit the 'prior' variant network" in err
    assert "prior_encoder.conv0.w is missing" in err
    assert report.read_bytes() == written


def test_a_config_that_sets_model_variant_exits_2_naming_the_key(tiny_run,
                                                                capsys):
    config = tiny_run.root / "tiny.cfg"
    config.write_text(config.read_text() + "model.variant = prior\n")
    capsys.readouterr()
    assert tiny_run.voxmix("train", "--pipeline", "base") == cli.EXIT_CONFIG
    assert "unknown config key 'model.variant'" in capsys.readouterr().err
    assert not list(tiny_run.paths.checkpoints_dir.glob("*.ckpt"))


@pytest.mark.parametrize("key,value", [
    ("train.optimizer", "adam"), ("loss.kind", "bce"),
    ("loss.focal_gamma", "2.0"), ("loss.focal_balance", "0.5"),
    ("loss.clamp_eps", "1e-07")])
@pytest.mark.parametrize("where", ["file", "override"])
def test_a_config_that_sets_a_removed_key_exits_2_naming_the_key(
        tiny_run, capsys, where, key, value):
    extra = ()
    if where == "file":
        config = tiny_run.root / "tiny.cfg"
        config.write_text(config.read_text() + f"{key} = {value}\n")
    else:
        extra = ("-o", f"{key}={value}")
    capsys.readouterr()
    assert tiny_run.voxmix("train", "--pipeline", "base", *extra) \
        == cli.EXIT_CONFIG
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not list(tiny_run.paths.checkpoints_dir.glob("*.ckpt"))


@pytest.mark.parametrize("overrides", [
    ("data.classes=box,box,table,cylstack,chair,lamp,lbeam",),
    ("data.elevations=60",),
    ("data.vox_dim=4", "model.prior_channels=4,4",
     "model.decoder_channels=4,4")],
    ids=["repeated_class", "elevation", "vox_dim"])
def test_a_data_value_gen_data_cannot_honour_exits_2_naming_the_key(
        tmp_path, capsys, overrides):
    run = TinyRun(tmp_path)
    (tmp_path / "tiny.cfg").write_text(dump_config(run.config), encoding="utf-8")
    capsys.readouterr()
    assert run.voxmix("gen-data", *(item for override in overrides
                                    for item in ("-o", override))) \
        == cli.EXIT_CONFIG
    key = overrides[0].split("=")[0]
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not run.paths.root.exists()


@pytest.mark.parametrize("argv,flag", [
    (("grad-check", "--probes", "0"), "--probes"),
    (("grad-check", "--tolerance", "inf"), "--tolerance"),
    (("grad-check", "--tolerance", "0"), "--tolerance"),
    (("mix-preview", "--pairs", "0"), "--pairs"),
    (("train", "--all", "--pipeline", "base"), "--pipeline")],
    ids=["probes_0", "tolerance_inf", "tolerance_0", "pairs_0",
         "all_and_pipeline"])
def test_a_flag_value_no_run_can_honour_exits_1_naming_the_flag(
        tiny_run, capsys, argv, flag):
    command, *extra = argv
    capsys.readouterr()
    code = cli.main([command, *extra]) if command == "grad-check" \
        else tiny_run.voxmix(command, *extra)
    assert code == cli.EXIT_USAGE
    assert f"error: argument {flag}: " in capsys.readouterr().err
    assert not list(tiny_run.paths.checkpoints_dir.glob("*.ckpt"))
    assert not (tiny_run.paths.reports_dir / "mix_preview").exists()


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


@pytest.mark.parametrize("content,says", [
    (b"class,iou\r\nlamp,0.5\r\n", "{table}: unreadable IoU table"),
    (b"class,mean_iou\r\nlamp,high\r\n", "{table}: unreadable IoU table"),
    (b"\xff\xfeclass,mean_iou\r\n", "{table}: 'utf-8' codec can't decode"),
    (None, "no {table}; run eval first")],
    ids=["missing_column", "unparsable_value", "undecodable", "absent"])
def test_proximity_on_a_damaged_iou_table_exits_3_and_names_it(tiny_run,
                                                                capsys, content,
                                                                says):
    table = tiny_run.paths.iou_path("dual_mix")
    table.parent.mkdir(parents=True, exist_ok=True)
    if content is not None:
        table.write_bytes(content)
    assert tiny_run.voxmix("proximity", "--pipeline", "dual_mix") == cli.EXIT_MISSING
    assert says.format(table=table) in capsys.readouterr().err


# damage None deletes the file, whose message then names the command that
# writes it; an int truncates it to that many bytes; ("drop", entry) drops
# an entry from the archive's zip directory, and ("flip", entry) flips the
# last byte of its data, which fails the zip CRC.
@pytest.mark.parametrize("relpath,damage,command", [
    ("dataset.npz", 500, "pretrain-gt"),
    ("split.json", 30, "pretrain-gt"),
    ("priors.npz", 30, "pretrain-gt"),
    ("dataset.npz", ("flip", "views.npy"), "pretrain-gt"),
    ("dataset.npz", ("flip", "volumes.npy"), "build-priors"),
    ("dataset.npz", None, "pretrain-gt"),
    ("split.json", None, "pretrain-gt"),
    ("priors.npz", None, "pretrain-gt"),
    ("dataset.npz", ("drop", "views.npy"), "pretrain-gt"),
    ("dataset.npz", ("drop", "volumes.npy"), "build-priors"),
    ("priors.npz", ("drop", "priors.npy"), "pretrain-gt")],
    ids=["manifest", "split", "prior", "view", "volume", "manifest_deleted",
         "split_deleted", "prior_deleted", "view_deleted", "volume_deleted",
         "prior_entry_deleted"])
def test_a_damaged_input_artifact_exits_3_and_names_the_file(tiny_run, capsys,
                                                             relpath, damage,
                                                             command):
    damaged = tiny_run.paths.root / relpath
    says, also = f"{damaged}: ", ""
    if damage is None:
        damaged.unlink()
        made_by = "gen-data" if relpath == "dataset.npz" else "build-priors"
        says = f"no {damaged}; run {made_by} first"
    elif isinstance(damage, int):
        damaged.write_bytes(damaged.read_bytes()[:damage])
    elif damage[0] == "flip":
        flip_last_byte(damaged, damage[1])
        also = f"Bad CRC-32 for file '{damage[1]}'"
    else:
        rewrite_without(damaged, damage[1])
        also = f"missing entries ['{damage[1].removesuffix('.npy')}']"
    capsys.readouterr()
    assert tiny_run.voxmix(command) == cli.EXIT_MISSING
    err = capsys.readouterr().err
    assert f"missing artifact: {says}" in err
    assert also in err


def _empty_second_volume(volumes):
    volumes = volumes.copy()
    volumes[1] = False
    return volumes


# The archive keeps the metadata of the tiny config (vox_dim 8, image_size
# 16), so only its arrays tell it from the one gen-data writes.
@pytest.mark.parametrize("entry,convert,says", [
    ("volumes", lambda a: a.astype(np.float32),
     "volumes are float32 (18, 8, 8, 8), not bool (objects, D, D, D)"),
    ("volumes", lambda a: a[..., :4],
     "volumes are bool (18, 8, 8, 4), not bool (objects, D, D, D)"),
    ("views", lambda a: a.astype(np.float32), "views are float32, not uint8"),
    ("volumes", lambda a: a.repeat(2, 1).repeat(2, 2).repeat(2, 3),
     "volumes are bool (18, 16, 16, 16), not bool (18, 8, 8, 8); "
     "run gen-data again"),
    ("views", lambda a: a[:, :, ::2, ::2],
     "views are uint8 (72, 2, 8, 8), not uint8 (72, 2, 16, 16); "
     "run gen-data again"),
    ("volumes", _empty_second_volume,
     "no occupied voxel in 1 of 18 volumes (first: box_001); "
     "run gen-data again")],
    ids=["float_volumes", "non_cubic_volumes", "float_views",
         "volumes_of_another_vox_dim", "views_of_another_image_size",
         "empty_volume"])
def test_a_dataset_entry_of_another_type_exits_3_and_names_the_file(
        tiny_run, capsys, entry, convert, says):
    dataset = tiny_run.paths.dataset_path
    meta, arrays = runs.read_archive(dataset, "dataset",
                                     lambda meta: ("views", "volumes"))
    arrays[entry] = convert(arrays[entry])
    runs.save_archive(dataset, meta, arrays)
    capsys.readouterr()
    assert tiny_run.voxmix("pretrain-gt") == cli.EXIT_MISSING
    assert f"missing artifact: {dataset}: {says}" in capsys.readouterr().err
    assert not list(tiny_run.paths.checkpoints_dir.glob("*.ckpt"))


@pytest.mark.parametrize("command", [("pretrain-gt",),
                                     ("train", "--pipeline", "base")],
                         ids=["pretrain_gt", "train"])
@pytest.mark.parametrize("convert,says", [
    (lambda a: np.full(a.shape, 7.5, np.float32),
     "priors are float32 (6, 8, 8, 8), not bool (6, 8, 8, 8)"),
    (lambda a: a[..., :4], "priors are bool (6, 8, 8, 4), not bool (6, 8, 8, 8)")],
    ids=["float_priors", "non_cubic_priors"])
def test_a_priors_entry_of_another_type_exits_3_and_names_the_file(
        tiny_run, capsys, command, convert, says):
    priors = tiny_run.paths.priors_path
    meta, arrays = runs.read_archive(priors, "priors", lambda meta: ("priors",))
    runs.save_archive(priors, meta, {"priors": convert(arrays["priors"])})
    capsys.readouterr()
    assert tiny_run.voxmix(*command) == cli.EXIT_MISSING
    assert (f"missing artifact: {priors}: {says}; run build-priors again"
            in capsys.readouterr().err)
    assert not list(tiny_run.paths.checkpoints_dir.glob("*.ckpt"))


@pytest.mark.parametrize("override,relpath,made_by", [
    ("seed=5", "dataset.npz", "gen-data"),
    ("data.vox_dim=16", "dataset.npz", "gen-data"),
    ("data.shots=2", "split.json", "build-priors")],
    ids=["seed", "vox_dim", "shots"])
def test_an_input_written_under_other_settings_exits_3_and_names_it(
        tiny_run, capsys, override, relpath, made_by):
    capsys.readouterr()
    assert tiny_run.voxmix("pretrain-gt", "-o", override) == cli.EXIT_MISSING
    assert (f"missing artifact: {tiny_run.paths.root / relpath}: written under "
            f"other config settings; run {made_by} again"
            in capsys.readouterr().err)
    assert not list(tiny_run.paths.checkpoints_dir.glob("*.ckpt"))


def test_set_up_writes_one_archive_for_the_dataset_and_one_for_the_priors(
        tmp_path):
    run = TinyRun(tmp_path)
    (tmp_path / "tiny.cfg").write_text(dump_config(run.config), encoding="utf-8")
    assert run.voxmix("gen-data") == cli.EXIT_OK
    assert run.voxmix("build-priors") == cli.EXIT_OK
    assert sorted(str(path.relative_to(tmp_path))
                  for path in tmp_path.rglob("*")) == [
        "tiny", "tiny.cfg", "tiny/checkpoints", "tiny/config.resolved.txt",
        "tiny/dataset.npz", "tiny/logs", "tiny/priors.npz", "tiny/reports",
        "tiny/split.json"]


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
    images = mixup.apply_pairs(pool.samples.images[:3], pairs)
    priors = mixup.apply_pairs(pool.priors.grids[pool.priors.rows[:3]], pairs)
    _, got = runs.read_archive(tiny_run.paths.reports_dir / "mix_preview"
                               / "pairs.npz", "mix preview",
                               lambda meta: ("images", "priors", "volumes"))
    assert np.array_equal(got["images"], images)
    assert np.array_equal(got["priors"], priors[:, 0])
    assert np.array_equal(got["volumes"], volumes[:, 0])


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
    ("prior.threshold", "1.5"), ("prior.mode", "wrong"),
    ("model.latent_width", "0"), ("model.decoder_channels", ""),
    ("train.pipeline", "foo"),
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
    split = runs.load_split(tiny_run.paths, apply_assignments(
        tiny_run.config, dict(pair.split("=") for pair in overrides[1::2])))
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
    meta, arrays = runs.read_archive(reports / "base_predictions.npz",
                                     "predictions", lambda meta: ("predictions",))
    dumped = dict(zip(zip(meta["object_ids"], meta["pose_ids"]),
                      arrays["predictions"]))
    assert len(rows) == len(truth) == len(dumped) == len(arrays["predictions"])
    for row in rows:
        key = row["object_id"], int(row["pose_id"])
        pred, gt = dumped[key], truth[key]
        assert float(row["iou"]) == (pred & gt).sum() / (pred | gt).sum()


def test_eval_runs_the_network_once_per_query_batch(tiny_run, monkeypatch):
    assert tiny_run.voxmix("train", "--pipeline", "base") == cli.EXIT_OK
    query = trainer.ExperimentContext.load(tiny_run.config,
                                           tiny_run.paths).query_samples
    batches = -(-len(query) // tiny_run.config.eval.batch_size)
    calls = []
    forward = Network.forward

    def counted(self, *args, **kwargs):
        calls.append(len(args[0]))
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(Network, "forward", counted)
    assert tiny_run.voxmix("eval", "--pipeline", "base",
                           "--dump-predictions") == cli.EXIT_OK
    assert len(calls) == batches and sum(calls) == len(query)


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


def test_eval_refuses_a_checkpoint_trained_under_another_config(tiny_run,
                                                               capsys):
    assert tiny_run.voxmix("train", "--pipeline", "input_mix") == cli.EXIT_OK
    report = tiny_run.paths.reports_dir / "input_mix_iou.csv"
    written = report.read_bytes()
    capsys.readouterr()
    assert tiny_run.voxmix("eval", "--pipeline", "input_mix",
                           "-o", "mixup.alpha=0.4",
                           "-o", "train.stage_epochs=1,1,1") == cli.EXIT_USAGE
    ckpt = tiny_run.paths.checkpoints_dir / "input_mix_stage2.ckpt"
    assert f"{ckpt} was trained under another config" in capsys.readouterr().err
    assert report.read_bytes() == written
    # Evaluation may change the prior mode, its own settings and which
    # pipeline it reads.
    for args in (("--pipeline", "input_mix", "-o", "prior.mode=corrupted"),
                 ("--pipeline", "input_mix", "-o", "eval.iou_threshold=0.5"),
                 ("-o", "train.pipeline=input_mix")):
        assert tiny_run.voxmix("eval", *args) == cli.EXIT_OK


def test_a_garbage_stage_checkpoint_exits_3_and_says_what_it_is(tiny_run,
                                                                capsys):
    ckpt = tiny_run.paths.checkpoints_dir / "dual_mix_stage3.ckpt"
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    ckpt.write_bytes(b"garbage" * 30)
    assert tiny_run.voxmix("eval", "--pipeline", "dual_mix") == cli.EXIT_MISSING
    err = capsys.readouterr().err
    assert f"{ckpt}: not a checkpoint file" in err
    assert "allow_pickle" not in err


@pytest.mark.parametrize("directory,says", [
    (False, "no {ckpt}; run train first"), (True, "{ckpt}: ")],
    ids=["absent", "directory"])
def test_eval_without_a_readable_stage_checkpoint_exits_3_and_names_it(
        tiny_run, capsys, directory, says):
    ckpt = tiny_run.paths.checkpoint_path("dual_mix", 3)
    if directory:
        ckpt.mkdir(parents=True)
    assert tiny_run.voxmix("eval", "--pipeline", "dual_mix") == cli.EXIT_MISSING
    assert f"missing artifact: {says.format(ckpt=ckpt)}" in capsys.readouterr().err


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


def test_grad_check_reports_its_loss_calls_and_seconds(capsys):
    assert cli.main(["grad-check", "--probes", "1"]) == cli.EXIT_OK
    calls = sum(1 + 2 * len(arrays)
                for _, _, arrays, _ in verification.standard_fragments(0))
    last = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(rf"PASS: max relative error \S+ \(\w+\) at tolerance "
                        rf"1\.0e-04; {calls} loss calls in \d+\.\d s", last)
