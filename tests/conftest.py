"""A tiny experiment shared by the trainer and CLI tests: the whole
pipeline runs in seconds on it."""

import importlib.util
import shutil
import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest

from voxmix import cli, runs
from voxmix.config import ExperimentConfig, apply_assignments, dump_config

# The benchmark's smoke profile (voxbench/workloads.py SMOKE_OVERRIDES); a
# test keeps the two equal.
TINY_OVERRIDES = {
    "data.objects_per_class": "3", "data.poses_per_object": "4",
    "data.vox_dim": "8", "data.image_size": "16",
    "model.image_channels": "4,4,4,4", "model.prior_channels": "4,4,4",
    "model.decoder_channels": "4,4,4", "model.latent_width": "16",
    "train.stage_epochs": "2,2,2", "train.pretrain_epochs": "3"}
# A config that learns in about a second: the tiny corpus, the default model
# widths and no pretraining (`tests/test_learning.py`).
LEARN_OVERRIDES = {
    **{key: value for key, value in TINY_OVERRIDES.items()
       if key.startswith("data.")},
    "train.stage_epochs": "30,15,15", "train.pretrain_epochs": "0"}
TOOLS = Path(__file__).resolve().parents[1] / "tools"


class TinyRun:
    """A run root holding the tiny config, its dataset and the priors.npz
    that build-priors writes for inspection; every command derives the
    split and the priors from the dataset and the config instead."""

    def __init__(self, root, overrides=TINY_OVERRIDES):
        self.root = root
        self.config = apply_assignments(ExperimentConfig(run_name="tiny"),
                                        overrides)
        self.paths = runs.RunPaths.for_config(self.config, str(root))
        self.config_file = root / "tiny.cfg"

    def write_config(self):
        """Write the tiny config to `config_file`, making the root."""
        self.root.mkdir(parents=True, exist_ok=True)
        self.config_file.write_text(dump_config(self.config), encoding="utf-8")

    def args(self, *extra):
        return ["--config", str(self.config_file),
                "--run-root", str(self.root), *extra]

    def voxmix(self, command, *extra):
        return cli.main([command, *self.args(*extra)])

    def mix_preview(self, *extra):
        """`tools/mix_preview.py`, run in-process."""
        spec = importlib.util.spec_from_file_location(
            "mix_preview", TOOLS / "mix_preview.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        return tool.main(self.args(*extra))


@pytest.fixture(scope="session")
def tiny_prepared(tmp_path_factory):
    run = TinyRun(tmp_path_factory.mktemp("tiny"))
    run.write_config()
    assert run.voxmix("gen-data") == cli.EXIT_OK
    assert run.voxmix("build-priors") == cli.EXIT_OK
    return run


@pytest.fixture
def tiny_run(tiny_prepared, tmp_path):
    """A private copy of the prepared run root."""
    root = tmp_path / "root"
    shutil.copytree(tiny_prepared.root, root)
    return TinyRun(root)


def rewrite_without(path, entry):
    """Copy the archive at `path` without one member, as a damaged zip
    directory would drop it."""
    with zipfile.ZipFile(path) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            if name != entry:
                zf.writestr(name, data)


def flip_last_byte(path, entry):
    """Invert the last data byte of one member of the uncompressed archive
    at `path`, which its zip CRC then fails."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(entry)
    data = bytearray(path.read_bytes())
    # A local file header is 30 bytes, then the name and the extra field.
    name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len
    data[start + info.compress_size - 1] ^= 0xFF
    path.write_bytes(bytes(data))


def with_adam_slots(path):
    """Rewrite the checkpoint at `path` in the older layout that also held
    Adam's moments: `slot/m` and `slot/v` beside `params`, with the step
    count and the slot kinds in `meta`."""
    meta, arrays = runs.read_archive(path, "checkpoint", lambda meta: ("params",))
    params = arrays["params"]
    meta["step"], meta["layout"]["slots"] = 5, ["m", "v"]
    runs.save_archive(path, meta, {"params": params,
                                   "slot/m": np.zeros_like(params),
                                   "slot/v": np.ones_like(params)})
