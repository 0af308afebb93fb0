import csv
import re

import numpy as np
import pytest

from conftest import TinyRun, flip_last_byte, rewrite_without
from voxmix import cli, corpus, evaluate, mixup, runs, trainer, verification
from voxmix.config import ExperimentConfig, apply_assignments
from voxmix.model import Network


def test_no_prior_variant_trains_and_evaluates(tiny_run):
    override = ("-o", "prior.mode=none")
    assert tiny_run.voxmix("train", *override, "--pipeline", "base") == cli.EXIT_OK
    assert tiny_run.voxmix("eval", *override, "--pipeline", "base") == cli.EXIT_OK
    paths = tiny_run.paths
    with open(paths.iou_path("base_noprior"), newline="") as fh:
        assert {row["prior_mode"] for row in csv.DictReader(fh)} == {"none"}
    for name in ("base_noprior_iou_samples.csv", "base_noprior_cosine.csv"):
        assert (paths.reports_dir / name).exists()
    assert (paths.logs_dir / "base_noprior_train.csv").exists()
    store, _ = runs.load_checkpoint(paths.checkpoint_path("base_noprior", 1))
    assert {"pool_proj.fc.w", "pool_proj.fc.b"} <= set(store.names)
    assert not [name for name in store.names
                if name.startswith("prior_encoder.")]
    assert not list(paths.root.rglob("base_[!n]*"))


def test_eval_of_a_no_prior_checkpoint_under_a_prior_mode_exits_1(tiny_run,
                                                                   capsys):
    assert tiny_run.voxmix("train", "-o", "prior.mode=none",
                           "--pipeline", "base") == cli.EXIT_OK
    # The no-prior checkpoint under the prior network's name.
    ckpt = tiny_run.paths.checkpoint_path("base", 1)
    ckpt.write_bytes(tiny_run.paths.checkpoint_path("base_noprior", 1)
                     .read_bytes())
    report = tiny_run.paths.iou_path("base_noprior")
    written = report.read_bytes()
    capsys.readouterr()
    assert tiny_run.voxmix("eval", "-o", "prior.mode=correct",
                           "--pipeline", "base") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "do not fit the 'prior' variant network" in err
    assert "prior_encoder.conv0.w is missing" in err
    assert f"error: {ckpt}: " in err
    assert err.rstrip().endswith("; train again under this config")
    assert report.read_bytes() == written
    assert not tiny_run.paths.iou_path("base").exists()


def _files(root):
    return {path: path.read_bytes() for path in root.rglob("*")
            if path.is_file()}


def test_the_two_networks_train_and_evaluate_side_by_side(tiny_run, capsys):
    paths, arms = tiny_run.paths, {"base": "correct", "base_noprior": "none"}
    written = {}
    for arm, mode in arms.items():
        assert tiny_run.voxmix("train", "-o", f"prior.mode={mode}",
                               "--pipeline", "base") == cli.EXIT_OK
        written[arm] = {path: path.read_bytes() for path in (
            paths.checkpoint_path(arm, 1), paths.iou_path(arm),
            paths.logs_dir / f"{arm}_train.csv")}
    # Training the no-prior network left the prior network's files alone.
    for files in written.values():
        assert {path: path.read_bytes() for path in files} == files
    # Each eval reads its own network's checkpoint and rewrites its report.
    for arm, mode in arms.items():
        paths.iou_path(arm).unlink()
        capsys.readouterr()
        assert tiny_run.voxmix("eval", "-o", f"prior.mode={mode}",
                               "--pipeline", "base") == cli.EXIT_OK
        assert f"  [prior mode: {mode}]\n" in capsys.readouterr().out
        assert paths.iou_path(arm).read_bytes() \
            == written[arm][paths.iou_path(arm)]


@pytest.mark.parametrize("extra", [("--pipeline", "base"), ("--all",),
                                   ("--pipeline", "input_mix", "--alphas", "0.4")])
def test_train_under_the_corrupted_prior_exits_2_before_any_work(
        tiny_run, capsys, extra):
    before = _files(tiny_run.root)
    assert tiny_run.voxmix("train", "-o", "prior.mode=corrupted",
                           *extra) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: prior.mode: 'corrupted' is an "
                          "evaluation mode")
    assert _files(tiny_run.root) == before


@pytest.mark.parametrize("command", ["mix_preview", "pretrain-gt"])
def test_every_reader_of_the_training_pool_refuses_the_corrupted_prior(
        tiny_run, capsys, command):
    before = _files(tiny_run.root)
    override = ("-o", "prior.mode=corrupted")
    assert (tiny_run.mix_preview(*override) if command == "mix_preview"
            else tiny_run.voxmix(command, *override)) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: prior.mode: 'corrupted' is an evaluation mode")
    assert _files(tiny_run.root) == before


def test_eval_loads_the_query_views_and_all_views_but_no_training_pool(
        tiny_run, monkeypatch):
    assert tiny_run.voxmix("train", "--pipeline", "base") == cli.EXIT_OK
    loaded = []
    load = corpus.load_samples

    def counted(manifest, records):
        loaded.append({record.object_id for record in records})
        return load(manifest, records)

    for module in (corpus, trainer):
        monkeypatch.setattr(module, "load_samples", counted)
    assert tiny_run.voxmix("eval", "--pipeline", "base") == cli.EXIT_OK
    ctx = trainer.ExperimentContext.load(tiny_run.config, tiny_run.paths)
    assert loaded == [set(ctx.split.all_query_objects()),
                      set(ctx.manifest.volumes)]


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
    run.write_config()
    capsys.readouterr()
    assert run.voxmix("gen-data", *(item for override in overrides
                                    for item in ("-o", override))) \
        == cli.EXIT_CONFIG
    key = overrides[0].split("=")[0]
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not run.paths.root.exists()


@pytest.mark.parametrize("command", [
    ("gen-data",), ("pretrain-gt",), ("train", "--pipeline", "base"),
    ("eval", "--pipeline", "base")], ids=lambda command: command[0])
def test_one_pose_per_object_exits_2_naming_the_key(tmp_path, capsys, command):
    # The cosine report needs two views of an object; eval used to find
    # that out after every other command had exited 0.
    run = TinyRun(tmp_path)
    run.write_config()
    capsys.readouterr()
    assert run.voxmix(*command, "-o", "data.poses_per_object=1") \
        == cli.EXIT_CONFIG
    assert "config error: data.poses_per_object: " in capsys.readouterr().err
    assert not run.paths.root.exists()


@pytest.mark.parametrize("argv,flag", [
    (("grad-check", "--probes", "0"), "--probes"),
    (("grad-check", "--tolerance", "inf"), "--tolerance"),
    (("grad-check", "--tolerance", "0"), "--tolerance"),
    (("mix_preview", "--pairs", "0"), "--pairs"),
    (("train", "--all", "--pipeline", "base"), "--pipeline")],
    ids=["probes_0", "tolerance_inf", "tolerance_0", "pairs_0",
         "all_and_pipeline"])
def test_a_flag_value_no_run_can_honour_exits_1_naming_the_flag(
        tiny_run, capsys, argv, flag):
    command, *extra = argv
    capsys.readouterr()
    if command == "grad-check":
        code = cli.main([command, *extra])
    elif command == "mix_preview":
        code = tiny_run.mix_preview(*extra)
    else:
        code = tiny_run.voxmix(command, *extra)
    assert code == cli.EXIT_USAGE
    assert f"error: argument {flag}: " in capsys.readouterr().err
    assert not list(tiny_run.paths.checkpoints_dir.glob("*.ckpt"))
    assert not (tiny_run.paths.reports_dir / "mix_preview").exists()


# damage None deletes the dataset, whose message then names the command
# that writes it; an int truncates it to that many bytes; ("drop", entry)
# drops an entry from the archive's zip directory, and ("flip", entry) flips
# the last byte of its data, which fails the zip CRC.
@pytest.mark.parametrize("damage,command", [
    (500, "pretrain-gt"),
    (("flip", "views.npy"), "pretrain-gt"),
    (("flip", "volumes.npy"), "build-priors"),
    (None, "pretrain-gt"),
    (("drop", "views.npy"), "pretrain-gt"),
    (("drop", "volumes.npy"), "build-priors")],
    ids=["manifest", "view", "volume", "manifest_deleted", "view_deleted",
         "volume_deleted"])
def test_a_damaged_input_artifact_exits_3_and_names_the_file(tiny_run, capsys,
                                                             damage, command):
    damaged = tiny_run.paths.dataset_path
    says, also = f"{damaged}: ", ""
    if damage is None:
        damaged.unlink()
        says = f"no {damaged}; run gen-data first"
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
     "volumes are float32 (18, 8, 8, 8), not bool (18, 8, 8, 8); "
     "run gen-data again"),
    ("volumes", lambda a: a[..., :4],
     "volumes are bool (18, 8, 8, 4), not bool (18, 8, 8, 8); "
     "run gen-data again"),
    ("views", lambda a: a.astype(np.float32),
     "views are float32 (72, 2, 16, 16), not uint8 (72, 2, 16, 16); "
     "run gen-data again"),
    ("volumes", lambda a: a[1:],
     "volumes are bool (17, 8, 8, 8), not bool (18, 8, 8, 8); "
     "run gen-data again"),
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
         "one_object_dropped", "volumes_of_another_vox_dim", "views_of_another_image_size",
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


def test_a_split_json_left_in_the_run_directory_is_ignored(tiny_run):
    # Nor is the priors.npz that build-priors writes ever read back.
    (tiny_run.paths.root / "split.json").write_bytes(b"\x00 not a split")
    tiny_run.paths.priors_path.write_bytes(b"\x00 not priors")
    assert tiny_run.voxmix("pretrain-gt") == cli.EXIT_OK


@pytest.mark.parametrize("override", ["seed=5", "data.vox_dim=16"],
                         ids=["seed", "vox_dim"])
def test_an_input_written_under_other_settings_exits_3_and_names_it(
        tiny_run, capsys, override):
    capsys.readouterr()
    assert tiny_run.voxmix("pretrain-gt", "-o", override) == cli.EXIT_MISSING
    assert (f"missing artifact: {tiny_run.paths.dataset_path}: written under "
            "other config settings; run gen-data again"
            in capsys.readouterr().err)
    assert not list(tiny_run.paths.checkpoints_dir.glob("*.ckpt"))


def test_set_up_writes_one_archive_for_the_dataset_and_one_for_the_priors(
        tmp_path):
    run = TinyRun(tmp_path)
    run.write_config()
    assert run.voxmix("gen-data") == cli.EXIT_OK
    assert run.voxmix("build-priors") == cli.EXIT_OK
    assert sorted(str(path.relative_to(tmp_path))
                  for path in tmp_path.rglob("*")) == [
        "tiny", "tiny.cfg", "tiny/checkpoints", "tiny/config.resolved.txt",
        "tiny/dataset.npz", "tiny/logs", "tiny/priors.npz", "tiny/reports"]


def test_training_needs_only_the_dataset_and_writes_no_priors(tmp_path):
    run = TinyRun(tmp_path)
    run.write_config()
    assert run.voxmix("gen-data") == cli.EXIT_OK
    assert run.voxmix("pretrain-gt") == cli.EXIT_OK
    assert run.voxmix("train", "--pipeline", "base") == cli.EXIT_OK
    assert not run.paths.priors_path.exists()


def test_build_priors_writes_the_priors_every_command_derives(tiny_run):
    config = tiny_run.config
    ctx = trainer.ExperimentContext.load(config, tiny_run.paths)
    meta, arrays = runs.read_archive(tiny_run.paths.priors_path, "priors",
                                     lambda meta: ("priors",))
    classes = list(config.data.classes)
    assert meta == {"classes": classes, "objects": [
        list(ctx.split.train_objects[c]) for c in classes]}
    assert arrays["priors"].dtype == bool
    assert list(ctx.priors_by_class) == classes
    derived = np.stack(list(ctx.priors_by_class.values()))
    assert derived.dtype == np.float32
    assert np.array_equal(derived, arrays["priors"][:, None])


def test_pretrain_gt_reports_its_history_and_replaces_the_checkpoint(tiny_run,
                                                                     capsys):
    ckpt = tiny_run.paths.checkpoints_dir / trainer.GT_ENCODER_CHECKPOINT
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    ckpt.write_bytes(b"stale")
    assert tiny_run.voxmix("pretrain-gt") == cli.EXIT_OK
    assert "for 3 epochs" in capsys.readouterr().out
    assert ckpt.read_bytes() != b"stale"


def test_pretrain_gt_with_no_epochs_says_no_pretraining_ran(tiny_run, capsys):
    ckpt = tiny_run.paths.checkpoints_dir / trainer.GT_ENCODER_CHECKPOINT
    capsys.readouterr()
    assert tiny_run.voxmix("pretrain-gt", "-o", "train.pretrain_epochs=0") \
        == cli.EXIT_OK
    assert capsys.readouterr().out == \
        f"no pretraining ran (train.pretrain_epochs = 0) -> {ckpt}\n"


@pytest.mark.parametrize("epochs", [3, 0])
def test_pretrain_gt_keeps_its_loss_history(tiny_run, capsys, epochs):
    capsys.readouterr()
    assert tiny_run.voxmix("pretrain-gt", "-o",
                           f"train.pretrain_epochs={epochs}") == cli.EXIT_OK
    with open(tiny_run.paths.logs_dir / "pretrain_gt.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["epoch", "loss"]
    assert [int(epoch) for epoch, _ in rows] == list(range(epochs))
    if epochs:
        assert f"(final loss {float(rows[-1][1]):.4f})" \
            in capsys.readouterr().out


def test_mix_preview_writes_the_stage_two_mix(tiny_run):
    assert tiny_run.mix_preview("--pairs", "3") == cli.EXIT_OK
    config = tiny_run.config
    ctx = trainer.ExperimentContext.load(config, tiny_run.paths)
    pool = ctx.train_pool
    pairs = mixup.pair_batch(3, config.mixup.alpha,
                             trainer.stream_rng(config.seed,
                                                trainer.STAGE_INPUT_MIX))
    volumes = mixup.apply_pairs(np.stack([
        ctx.manifest.volumes[obj][None] for obj in pool.samples.object_ids[:3]
    ]).astype(np.float32), pairs)
    images = mixup.apply_pairs(pool.samples.images[:3], pairs)
    priors = mixup.apply_pairs(pool.priors.grids[pool.priors.rows[:3]], pairs)
    _, got = runs.read_archive(tiny_run.paths.reports_dir / "mix_preview"
                               / "pairs.npz", "mix preview",
                               lambda meta: ("images", "priors", "volumes"))
    assert np.array_equal(got["images"], images)
    assert np.array_equal(got["priors"], priors[:, 0])
    assert np.array_equal(got["volumes"], volumes[:, 0])


def test_mix_preview_mixes_through_mix_inputs_once(tiny_run, monkeypatch):
    calls = []
    mix = trainer.mix_inputs
    monkeypatch.setattr(trainer, "mix_inputs",
                        lambda *args: calls.append(args) or mix(*args))
    assert tiny_run.mix_preview("--pairs", "3") == cli.EXIT_OK
    assert len(calls) == 1 and len(calls[0][0].images) == 3


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


def _set_nan(ckpt, name):
    """Rewrite the checkpoint at `ckpt` with parameter `name` all NaN."""
    store, metadata = runs.load_checkpoint(ckpt)
    store.params[name][...] = np.nan
    runs.save_checkpoint(ckpt, store, metadata)


def test_an_encoder_checkpoint_holding_nan_is_pretrained_again(tiny_run):
    ckpt = tiny_run.paths.checkpoints_dir / trainer.GT_ENCODER_CHECKPOINT
    assert tiny_run.voxmix("pretrain-gt") == cli.EXIT_OK
    pretrained = ckpt.read_bytes()
    _set_nan(ckpt, "gt_encoder.conv0.w")
    assert tiny_run.voxmix("train", "--pipeline", "base") == cli.EXIT_OK
    assert ckpt.read_bytes() == pretrained


def test_eval_of_a_checkpoint_holding_nan_exits_3_and_names_the_parameter(
        tiny_run, capsys):
    assert tiny_run.voxmix("train", "--pipeline", "dual_mix") == cli.EXIT_OK
    reports = sorted(tiny_run.paths.reports_dir.iterdir())
    written = [path.read_bytes() for path in reports]
    ckpt = tiny_run.paths.checkpoint_path("dual_mix", 3)
    _set_nan(ckpt, "image_encoder.conv1.w")
    capsys.readouterr()
    assert tiny_run.voxmix("eval", "--pipeline", "dual_mix") == cli.EXIT_MISSING
    assert (f"missing artifact: {ckpt}: image_encoder.conv1.w holds a "
            "non-finite value" in capsys.readouterr().err)
    assert sorted(tiny_run.paths.reports_dir.iterdir()) == reports
    assert [path.read_bytes() for path in reports] == written


@pytest.mark.parametrize("key,value", [
    ("loss.margin", "5"), ("train.stage_epochs", "1,1"),
    ("train.batch_size", "0"), ("train.pretrain_batch", "0"),
    ("train.pretrain_epochs", "-1"),
    pytest.param("train.lr", "nan", id="lr-nan"),
    pytest.param("train.lr", "0", id="lr-0"),
    pytest.param("train.gt_lr", "inf", id="gt_lr-inf"),
    pytest.param("train.gt_lr", "-1e-4", id="gt_lr-neg"),
    ("eval.batch_size", "0"), ("mixup.alpha", "-1"),
    ("eval.iou_threshold", "1.5"), ("data.vox_dim", "12"),
    ("data.image_size", "0"), ("data.shots", "0"), ("data.elevations", ""),
    ("prior.threshold", "1.5"), ("prior.mode", "wrong"),
    ("model.latent_width", "0"), ("model.decoder_channels", ""),
    ("train.pipeline", "foo"),
    # The split's rules across `data` fields; the tiny config has 3 objects
    # per class.
    ("data.base_classes", "box,foo"), ("data.novel_classes", "foo"),
    ("data.base_classes", ""), ("data.novel_classes", ""),
    ("data.novel_classes", "lamp,box"), ("data.shots", "3"),
    # A run directory other than one directory under the run root.
    ("run_name", ""), ("run_name", "."), ("run_name", ".."),
    ("run_name", "a/b"), ("run_name", "a\0b"),
    # An option, not a config key: `train --alphas=<value>`.  The last two
    # alphas differ but name one arm.
    ("--alphas", "x"), ("--alphas", "-1"), ("--alphas", "0"),
    ("--alphas", "inf"), ("--alphas", "0.2,0.2"), ("--alphas", "1,1.0"),
    ("--alphas", "0.4,0.4000001")])
def test_an_out_of_range_value_exits_2_before_any_work(tiny_run, capsys,
                                                       key, value):
    capsys.readouterr()
    setting = (f"{key}={value}",) if key.startswith("--") \
        else ("-o", f"{key}={value}")
    assert tiny_run.voxmix("train", *setting, "--pipeline", "dual_mix") \
        == cli.EXIT_CONFIG
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
    split = trainer.ExperimentContext.load(apply_assignments(
        tiny_run.config, dict(pair.split("=") for pair in overrides[1::2])),
        tiny_run.paths).split
    assert (len(split.train_objects["lamp"]), len(split.query_objects["lamp"])) \
        == (3, 1)


def test_a_class_in_neither_class_list_exits_2_before_build_priors_works(
        tiny_run, capsys):
    written = tiny_run.paths.priors_path.read_bytes()
    capsys.readouterr()
    assert tiny_run.voxmix("build-priors", "-o",
                           "data.base_classes=box,table,cylstack") \
        == cli.EXIT_CONFIG
    assert ("config error: data.classes: ['chair'] in neither "
            "data.base_classes nor data.novel_classes"
            in capsys.readouterr().err)
    assert tiny_run.paths.priors_path.read_bytes() == written


def test_alpha_sweep_leaves_the_configured_pipelines_files_alone(tiny_run,
                                                                 capsys):
    assert tiny_run.voxmix("train", "--all") == cli.EXIT_OK
    assert tiny_run.voxmix("eval", "--pipeline", "dual_mix") == cli.EXIT_OK
    before = {path: path.read_bytes() for path in tiny_run.root.rglob("*")
              if path.is_file()}
    capsys.readouterr()
    for pipeline in ("input_mix", "latent_mix"):
        assert tiny_run.voxmix("train", "--pipeline", pipeline,
                               "--alphas", "0.4,1.0") == cli.EXIT_OK
    assert {path: path.read_bytes() for path in before} == before

    paths, out = tiny_run.paths, capsys.readouterr().out.splitlines()
    arms = [f"{pipeline}_alpha{alpha}" for pipeline in ("input_mix", "latent_mix")
            for alpha in ("0.4", "1")]
    assert [line.split(":")[0] for line in out] == arms
    for arm, line in zip(arms, out):
        stage = 2 if arm.startswith("input_mix") else 3
        assert (paths.checkpoints_dir / f"{arm}_stage{stage}.ckpt").exists()
        assert (paths.logs_dir / f"{arm}_train.csv").exists()
        assert (paths.reports_dir / f"{arm}_iou_samples.csv").exists()
        average = _read_average(paths.reports_dir / f"{arm}_iou.csv")
        assert line == f"{arm}: novel average IoU {float(average):.4f}"


def test_eval_reads_a_sweep_arm_and_rewrites_its_report(tiny_run, capsys):
    assert tiny_run.voxmix("train", "--pipeline", "input_mix",
                           "--alphas", "0.4,1.0") == cli.EXIT_OK
    report = tiny_run.paths.iou_path("input_mix_alpha0.4")
    written = report.read_bytes()
    report.unlink()
    capsys.readouterr()
    assert tiny_run.voxmix("eval", "--pipeline", "input_mix",
                           "--alphas", "0.4") == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("input_mix_alpha0.4:\n")
    assert report.read_bytes() == written
    assert not tiny_run.paths.iou_path("input_mix_alpha1").with_name(
        "input_mix_alpha1_cosine.csv").exists()
    # The same parse, and its exit 2, as train's.
    assert tiny_run.voxmix("eval", "--pipeline", "input_mix",
                           "--alphas", "1,1.0") == cli.EXIT_CONFIG
    assert ("config error: --alphas: '1,1.0' names two alphas of one arm name"
            in capsys.readouterr().err)


def test_eval_writes_and_prints_the_cosine_report(tiny_run, capsys):
    assert tiny_run.voxmix("train", "--pipeline", "base") == cli.EXIT_OK
    capsys.readouterr()
    assert tiny_run.voxmix("eval", "--pipeline", "base") == cli.EXIT_OK
    out = capsys.readouterr().out
    config = tiny_run.config
    ctx = trainer.ExperimentContext.load(config, tiny_run.paths)
    store, _ = runs.load_checkpoint(tiny_run.paths.checkpoint_path("base", 1))
    expected = evaluate.cosine_report(
        ctx.net, store, corpus.load_samples(ctx.manifest,
                                            list(ctx.manifest.records)),
        ctx.priors_by_class, config.prior.mode, config.data.classes,
        config.eval.batch_size).rows
    with open(tiny_run.paths.reports_dir / "base_cosine.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["class", "same_obj_mean", "diff_obj_mean", "same_pairs",
                      "diff_pairs"]
    assert rows == [[str(value) for value in row] for row in expected]
    assert [row[0] for row in expected] == sorted(config.data.classes)
    for class_id, same, diff, n_same, n_diff in expected:
        assert (f"{class_id:10s} same-object {same:.4f} ({n_same} pairs)  "
                f"different-object {diff:.4f} ({n_diff} pairs)") in out


def _read_average(path):
    with open(path, newline="") as fh:
        return next(row["mean_iou"] for row in csv.DictReader(fh)
                    if row["class"] == "__average__")


def test_the_iou_report_carries_each_class_proximity_to_the_base_shapes(
        tiny_run, capsys):
    assert tiny_run.voxmix("train", "--pipeline", "base") == cli.EXIT_OK
    capsys.readouterr()
    assert tiny_run.voxmix("eval", "--pipeline", "base") == cli.EXIT_OK
    out = capsys.readouterr().out
    # Brute force over the dataset and the split: per novel class, the mean
    # over its shot and query objects of the best IoU of any base object.
    manifest = runs.load_manifest(tiny_run.paths, tiny_run.config)
    split = trainer.ExperimentContext.load(tiny_run.config, tiny_run.paths).split
    base = [manifest.volumes[obj] for c in split.base_classes
            for obj in split.train_objects[c]]
    expected = {c: np.mean([max((manifest.volumes[obj] & b).sum()
                                / (manifest.volumes[obj] | b).sum()
                                for b in base)
                            for obj in split.train_objects[c]
                            + split.query_objects[c]])
                for c in split.novel_classes}
    with open(tiny_run.paths.iou_path("base"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["class", "mean_iou", "n_samples", "threshold",
                             "prior_mode", "proximity"]
    got = {row["class"]: float(row["proximity"]) for row in rows}
    assert got.pop("__average__") == pytest.approx(
        np.mean(list(expected.values())), rel=1e-12)
    assert got == pytest.approx(expected, rel=1e-12)
    for class_id, value in expected.items():
        assert re.search(rf"^{class_id} .*  proximity {value:.4f}$", out,
                         re.MULTILINE)


def test_dumped_predictions_reproduce_the_per_sample_ious(tiny_run):
    assert tiny_run.voxmix("train", "--pipeline", "base") == cli.EXIT_OK
    assert tiny_run.voxmix("eval", "--pipeline", "base",
                           "--dump-predictions") == cli.EXIT_OK
    query = trainer.ExperimentContext.load(tiny_run.config,
                                           tiny_run.paths).query_samples
    volumes = query.volumes.grids[query.volumes.rows]
    truth = {(obj, pose): volume[0] > 0.5 for obj, pose, volume
             in zip(query.object_ids, query.pose_ids, volumes)}
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
    err = capsys.readouterr().err
    assert "image_encoder.fc.w is (4, 16), not (4, 8)" in err
    ckpt = tiny_run.paths.checkpoints_dir / "base_stage1.ckpt"
    assert f"error: {ckpt}: " in err
    assert err.rstrip().endswith("; train again under this config")
    assert report.read_bytes() == written


def test_eval_refuses_a_checkpoint_trained_under_another_config(tiny_run,
                                                               capsys):
    assert tiny_run.voxmix("train", "--pipeline", "input_mix") == cli.EXIT_OK
    report = tiny_run.paths.reports_dir / "input_mix_iou.csv"
    written = report.read_bytes()
    ckpt = tiny_run.paths.checkpoints_dir / "input_mix_stage2.ckpt"
    for overrides in (("mixup.alpha=0.4", "train.stage_epochs=1,1,1"),
                      ("prior.threshold=0.2",), ("data.shots=2",)):
        capsys.readouterr()
        assert tiny_run.voxmix("eval", "--pipeline", "input_mix", *(
            item for value in overrides for item in ("-o", value))) \
            == cli.EXIT_USAGE
        assert (f"{ckpt} was trained under another config"
                in capsys.readouterr().err), overrides
    assert report.read_bytes() == written
    # Evaluation may change the prior mode, its own settings and which
    # pipeline it reads.
    for args in (("--pipeline", "input_mix", "-o", "prior.mode=corrupted"),
                 ("--pipeline", "input_mix", "-o", "eval.iou_threshold=0.5"),
                 ("-o", "train.pipeline=input_mix")):
        assert tiny_run.voxmix("eval", *args) == cli.EXIT_OK


@pytest.mark.parametrize("recorded", ["corrupted", None],
                         ids=["corrupted", "not_recorded"])
def test_eval_refuses_a_checkpoint_not_trained_under_its_networks_mode(
        tiny_run, capsys, recorded):
    assert tiny_run.voxmix("train", "--pipeline", "base") == cli.EXIT_OK
    # As a corrupted-prior run, or one that predates the record, left it.
    ckpt = tiny_run.paths.checkpoint_path("base", 1)
    store, metadata = runs.load_checkpoint(ckpt)
    metadata["prior_mode"] = recorded
    if recorded is None:
        del metadata["prior_mode"]
    runs.save_checkpoint(ckpt, store, metadata)
    before = _files(tiny_run.paths.reports_dir)
    for mode in ("correct", "corrupted"):
        assert tiny_run.voxmix("eval", "-o", f"prior.mode={mode}",
                               "--pipeline", "base",
                               "--dump-predictions") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == (f"error: {ckpt} was trained under prior mode "
                       f"{recorded!r}, not 'correct'; train again under this "
                       "config\n")
    assert _files(tiny_run.paths.reports_dir) == before


def test_eval_writes_no_report_until_every_arm_has_all_of_its_reports(
        tiny_run, monkeypatch):
    assert tiny_run.voxmix("train", "--pipeline", "input_mix",
                           "--alphas", "0.4,1.0") == cli.EXIT_OK
    before = _files(tiny_run.paths.reports_dir)
    cosine_report, calls = evaluate.cosine_report, []

    def fails_on_the_second_arm(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise ValueError("cosine report failed")
        return cosine_report(*args, **kwargs)

    monkeypatch.setattr(evaluate, "cosine_report", fails_on_the_second_arm)
    # Another threshold, so every report eval would write differs.
    assert tiny_run.voxmix("eval", "--pipeline", "input_mix",
                           "--alphas", "0.4,1.0", "--dump-predictions",
                           "-o", "eval.iou_threshold=0.5") == cli.EXIT_USAGE
    assert len(calls) == 2
    assert _files(tiny_run.paths.reports_dir) == before


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
    assert cli.main(["grad-check", "--probes", "1"]) == cli.EXIT_OK
    assert not list(tiny_run.root.rglob("*.tmp"))


def test_voxmix_has_six_commands(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    listed = re.search(r"^  COMMAND\n(.*?)\n\n", capsys.readouterr().out,
                       re.MULTILINE | re.DOTALL).group(1)
    assert re.findall(r"^    (\S+)", listed, re.MULTILINE) == [
        "gen-data", "build-priors", "pretrain-gt", "train", "eval",
        "grad-check"]


def test_grad_check_reports_its_loss_calls_and_seconds(capsys):
    assert cli.main(["grad-check", "--probes", "1"]) == cli.EXIT_OK
    calls = sum(1 + 2 * len(arrays)
                for _, _, arrays, _ in verification.standard_fragments(0))
    last = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(rf"PASS: max relative error \S+ \(\w+\) at tolerance "
                        rf"1\.0e-04; {calls} loss calls in \d+\.\d s", last)
