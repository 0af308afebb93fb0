import json
from pathlib import Path

import numpy as np
import pytest

from conftest import rewrite_without, with_adam_slots
from voxmix import cli, config as config_module, nn, runs
from voxmix.config import ExperimentConfig, apply_assignments


def _store():
    rng = np.random.default_rng(0)
    store = nn.ParamStore.pack([
        ("a.w", rng.standard_normal((3, 4)).astype(np.float32)),
        ("a.b", rng.standard_normal(4).astype(np.float32))])
    store.slot("m")[...] = 1.0
    store.slot("v")[...] = 2.0
    store.step = 5
    return store


class _NotBytes:
    """Data whose write fails after the temporary file exists."""


def _fail_replace(exc):
    def replace(src, dst):
        raise exc
    return replace


@pytest.mark.parametrize("fault", ["write", "replace", "interrupt"])
def test_an_interrupted_write_leaves_the_old_file(tmp_path, monkeypatch, fault):
    path = tmp_path / "report.csv"
    path.write_bytes(b"old bytes\n")
    data = b"new bytes\n"
    if fault == "write":
        data, expected = _NotBytes(), TypeError
    elif fault == "replace":
        monkeypatch.setattr(runs.os, "replace", _fail_replace(OSError("disk")))
        expected = OSError
    else:
        monkeypatch.setattr(runs.os, "replace",
                            _fail_replace(KeyboardInterrupt()))
        expected = KeyboardInterrupt
    with pytest.raises(expected):
        runs.write_atomic(path, data)
    assert path.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


@pytest.mark.parametrize("fault", ["replace", "interrupt"])
def test_an_interrupted_binvox_save_leaves_the_old_file(tmp_path, monkeypatch,
                                                         fault):
    """The priors, once one binvox file per class, are now one archive; an
    interrupted save of it leaves the old one whole."""
    config = ExperimentConfig()
    classes = config.data.classes
    objects = {c: (f"{c}_000",) for c in classes}
    paths = runs.RunPaths(tmp_path)
    shape = (config.data.vox_dim,) * 3
    old = np.ones(shape, dtype=bool)
    runs.save_priors(paths, dict.fromkeys(classes, old), objects)
    written = paths.priors_path.read_bytes()
    exc = OSError("disk") if fault == "replace" else KeyboardInterrupt()
    monkeypatch.setattr(runs.os, "replace", _fail_replace(exc))
    new = np.zeros(shape, dtype=bool)
    with pytest.raises(type(exc)):
        runs.save_priors(paths, dict.fromkeys(classes, new), objects)
    monkeypatch.undo()
    assert paths.priors_path.read_bytes() == written
    assert [p.name for p in tmp_path.iterdir()] == ["priors.npz"]
    _, arrays = runs.read_archive(paths.priors_path, "priors",
                                  lambda meta: ("priors",))
    assert np.array_equal(arrays["priors"][classes.index("lamp")][None],
                          np.ones((1, *shape), dtype=np.float32))


@pytest.mark.parametrize("fault", ["replace", "interrupt"])
def test_an_interrupted_gen_data_leaves_the_old_dataset(tiny_run, monkeypatch,
                                                        fault):
    dataset = tiny_run.paths.dataset_path
    written = dataset.read_bytes()
    exc = OSError("disk") if fault == "replace" else KeyboardInterrupt()
    replace = runs.os.replace

    def fail_on_the_dataset(src, dst):
        if Path(dst) == dataset:
            raise exc
        replace(src, dst)
    monkeypatch.setattr(runs.os, "replace", fail_on_the_dataset)
    if fault == "replace":
        assert tiny_run.voxmix("gen-data", "-o", "seed=5") == cli.EXIT_USAGE
    else:
        with pytest.raises(KeyboardInterrupt):
            tiny_run.voxmix("gen-data", "-o", "seed=5")
    monkeypatch.undo()
    assert dataset.read_bytes() == written
    assert not list(tiny_run.root.rglob("*.tmp"))
    assert tiny_run.voxmix("pretrain-gt") == cli.EXIT_OK


def test_write_atomic_replaces_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "config.resolved.txt"
    path.write_text("old\n")
    runs.write_atomic(path, "seed = 1\n")
    assert path.read_bytes() == b"seed = 1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.resolved.txt"]


def test_write_csv_writes_floats_at_full_precision(tmp_path):
    path = tmp_path / "t.csv"
    runs.write_csv(path, ("class", "iou", "n"), [("lamp", 0.1 + 0.2, 3)])
    assert path.read_bytes() == b"class,iou,n\r\nlamp,0.30000000000000004,3\r\n"


def test_a_checkpoint_holds_the_parameters_their_layout_and_the_metadata(
        tmp_path):
    path = tmp_path / "model.ckpt"
    store = _store()
    runs.save_checkpoint(path, store, {"config_hash": "abc", "note": 1})
    with np.load(path, allow_pickle=False) as archive:
        assert sorted(archive.files) == ["meta", "params"]
        meta = json.loads(archive["meta"].item())
        assert archive["params"].tobytes() == store.flat.tobytes()
    assert meta == {"config_hash": "abc", "note": 1, "layout": {
        "names": ["a.w", "a.b"], "shapes": [[3, 4], [4]]}}


def test_checkpoint_keeps_its_file_name(tmp_path):
    runs.save_checkpoint(tmp_path / "dual_mix_stage3.ckpt", _store(), {})
    assert [p.name for p in tmp_path.iterdir()] == ["dual_mix_stage3.ckpt"]


def test_every_truncated_checkpoint_is_a_missing_artifact(tmp_path):
    path = tmp_path / "model.ckpt"
    runs.save_checkpoint(path, _store(), {"variant": "prior"})
    full = path.read_bytes()
    for size in range(len(full)):
        path.write_bytes(full[:size])
        with pytest.raises(runs.MissingArtifactError, match="model.ckpt"):
            runs.load_checkpoint(path)


def test_a_checkpoint_with_a_foreign_entry_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    with path.open("wb") as fh:
        np.savez(fh, meta=np.array('{"step": 0}'), other=np.zeros(2, np.float32))
    with pytest.raises(runs.MissingArtifactError, match="'other'"):
        runs.load_checkpoint(path)


def test_a_checkpoint_missing_its_params_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    runs.save_checkpoint(path, _store(), {})
    rewrite_without(path, "params.npy")
    with pytest.raises(runs.MissingArtifactError,
                       match=r"model.ckpt: .*missing entries \['params'\]"):
        runs.load_checkpoint(path)


def _write_archive(path, layout, **arrays):
    meta = json.dumps({"layout": layout})
    with path.open("wb") as fh:
        np.savez(fh, meta=np.array(meta), **arrays)


def test_a_layout_whose_shapes_miss_the_buffer_size_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _write_archive(path, {"names": ["a.w", "a.b"], "shapes": [[3, 4], [5]]},
                   params=np.zeros(16, np.float32))
    with pytest.raises(runs.MissingArtifactError, match="model.ckpt: .*17 values"):
        runs.load_checkpoint(path)


def test_a_checkpoint_holding_adam_slots_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    runs.save_checkpoint(path, _store(), {})
    with_adam_slots(path)
    with pytest.raises(runs.MissingArtifactError,
                       match=r"model.ckpt: .*unexpected entries \['slot/m', "):
        runs.load_checkpoint(path)


@pytest.mark.parametrize("where,says", [
    (lambda store: store.params["a.b"], "a.b holds a non-finite value")],
    ids=["params"])
def test_a_checkpoint_holding_a_non_finite_value_is_rejected(tmp_path, where,
                                                             says):
    path = tmp_path / "model.ckpt"
    store = _store()
    where(store)[1] = np.inf
    runs.save_checkpoint(path, store, {})
    with pytest.raises(runs.MissingArtifactError, match=f"model.ckpt: {says}"):
        runs.load_checkpoint(path)


def test_a_per_tensor_checkpoint_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    with path.open("wb") as fh:
        np.savez(fh, meta=np.array('{"step": 3}'),
                 **{"param/a.w": np.zeros(2, np.float32),
                    "slot/m/a.w": np.zeros(2, np.float32)})
    with pytest.raises(runs.MissingArtifactError, match="model.ckpt: .*param/a.w"):
        runs.load_checkpoint(path)


def test_the_input_hashes_cover_what_their_commands_read_and_no_more():
    config = ExperimentConfig()
    ignored = {"data.shots": "2", "data.novel_classes": "lamp",
               "data.base_classes": "box,table,cylstack,chair,lbeam",
               "prior.threshold": "0.2", "model.latent_width": "8",
               "train.stage_epochs": "1,1,1", "eval.iou_threshold": "0.5",
               "run_name": "other"}
    assert runs.dataset_hash(apply_assignments(config, ignored)) \
        == runs.dataset_hash(config)
    read = {"seed": "5", "data.classes": "box,lamp",
            "data.objects_per_class": "4", "data.poses_per_object": "2",
            "data.elevations": "10", "data.vox_dim": "8",
            "data.image_size": "16"}
    # The split's fields complete a valid config; the hash reads none.
    split = {"data.base_classes": "box", "data.novel_classes": "lamp"}
    for key, value in read.items():
        items = {key: value, **(split if key == "data.classes" else {})}
        assert runs.dataset_hash(apply_assignments(config, items)) \
            != runs.dataset_hash(config), key


def test_the_dataset_hash_ignores_a_field_gen_data_does_not_read(monkeypatch):
    config = ExperimentConfig()
    before = runs.dataset_hash(config)
    dump = config_module.dump_config
    monkeypatch.setattr(config_module, "dump_config",
                        lambda cfg: dump(cfg) + "train.new_field = 1\n")
    assert runs.dataset_hash(config) == before
