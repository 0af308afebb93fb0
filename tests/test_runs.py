import json
import zipfile

import numpy as np
import pytest

from voxmix import nn, runs, voxel


def _store():
    rng = np.random.default_rng(0)
    store = nn.ParamStore.pack([
        ("a.w", rng.standard_normal((3, 4)).astype(np.float32)),
        ("a.b", rng.standard_normal(4).astype(np.float32))])
    store.slot("m")
    store.slots["m"]["a.w"][...] = 1.0
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
    path = tmp_path / "prior_lamp.binvox"
    path.write_bytes(b"old bytes\n")
    exc = OSError("disk") if fault == "replace" else KeyboardInterrupt()
    monkeypatch.setattr(runs.os, "replace", _fail_replace(exc))
    grid = voxel.VoxelGrid(2, np.ones((2, 2, 2), dtype=np.uint8), binary=True)
    with pytest.raises(type(exc)):
        voxel.save_binvox(grid, path)
    assert path.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["prior_lamp.binvox"]


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


def _rewrite_without(path, entry):
    """Copy the archive at `path` without one member, as a damaged zip
    directory would drop it."""
    with zipfile.ZipFile(path) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            if name != entry:
                zf.writestr(name, data)


def test_a_checkpoint_missing_a_declared_slot_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    runs.save_checkpoint(path, _store(), {})
    _rewrite_without(path, "slot/m.npy")
    with pytest.raises(runs.MissingArtifactError,
                       match=r"model.ckpt: .*missing entries \['slot/m'\]"):
        runs.load_checkpoint(path)


def _write_archive(path, layout, **arrays):
    meta = json.dumps({"step": 0, "layout": layout})
    with path.open("wb") as fh:
        np.savez(fh, meta=np.array(meta), **arrays)


def test_a_layout_whose_shapes_miss_the_buffer_size_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _write_archive(path, {"names": ["a.w", "a.b"], "shapes": [[3, 4], [5]],
                          "slots": []}, params=np.zeros(16, np.float32))
    with pytest.raises(runs.MissingArtifactError, match="model.ckpt: .*17 values"):
        runs.load_checkpoint(path)


def test_a_slot_of_another_size_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _write_archive(path, {"names": ["a.w"], "shapes": [[4]], "slots": ["m"]},
                   params=np.zeros(4, np.float32),
                   **{"slot/m": np.zeros(3, np.float32)})
    with pytest.raises(runs.MissingArtifactError, match="model.ckpt: .*'m'"):
        runs.load_checkpoint(path)


def test_a_per_tensor_checkpoint_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    with path.open("wb") as fh:
        np.savez(fh, meta=np.array('{"step": 3}'),
                 **{"param/a.w": np.zeros(2, np.float32),
                    "slot/m/a.w": np.zeros(2, np.float32)})
    with pytest.raises(runs.MissingArtifactError, match="model.ckpt: .*param/a.w"):
        runs.load_checkpoint(path)
