"""Run-directory layout, and the one module that puts run artifacts on disk.

Every experiment lives under one run directory:
    config.resolved.txt    full config after file + overrides
    dataset/               manifest, binvox volumes, PGM views
    split.json             the base/novel few-shot split
    priors/prior_<class>.binvox
    checkpoints/           gt_encoder.ckpt, <arm>_stage<final stage>.ckpt
    logs/                  <arm>_train.csv
    reports/               <arm>_iou.csv, <arm>_iou_samples.csv, and cosine,
                           proximity and alpha_sweep CSVs
where an arm is a pipeline or, in an alpha sweep, <pipeline>_alpha<alpha>.

Every artifact file is written through `write_atomic`: checkpoints, CSVs,
the split, the manifest, the resolved config, binvox volumes and priors,
PGM views and vgrid previews.  The bytes go to a `.<name>.<pid>.tmp`
sibling, which no glob for an artifact's suffix matches, and `os.replace`
then puts it in place.  A write interrupted before the rename leaves the
earlier file as it was.  (There is no fsync: this guards against a
process dying mid-write, not against losing power.)

Every input artifact is read through `read_artifact`: the manifest, the
split, priors, dataset views and volumes, checkpoints and the IoU table.
Each failure raises `MissingArtifactError` naming the file: a missing
file's message also names the command that writes it, and any other error
its loader raises is passed on in the message.  The command line exits 3
on either.

A checkpoint is an npz archive, written uncompressed under the name it is
given, holding one array per role of a `ParamStore`:
    meta          the metadata, "step" and "layout" (the parameter names,
                  their shapes and the slot kinds), as a JSON string array
    params        every parameter, flat float32, in the layout's name order
    slot/<kind>   one optimizer slot kind, in the same layout
It is read with `allow_pickle=False`.  A file that is not such an archive,
whose zip CRC fails, whose entries are not exactly the ones its layout
declares (a damaged zip directory can drop entries silently), or whose
arrays do not fit the layout's shapes raises `MissingArtifactError`
naming the path.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import corpus, voxel
from .config import ExperimentConfig, dump_config
from .nn import ParamStore

RUN_ROOT_ENV = "VOXMIX_RUN_ROOT"


class MissingArtifactError(FileNotFoundError):
    """A required input artifact has not been generated yet, or cannot be
    read."""


def read_artifact(path, load, made_by: str):
    """`load(path)`, raising every failure as a MissingArtifactError: a
    missing file names `made_by`, the command that writes it, and any other
    error names the path."""
    try:
        return load(path)
    except FileNotFoundError as exc:
        raise MissingArtifactError(f"no {path}; run {made_by} first") from exc
    # Loaders raise a dozen error types on a damaged file (zipfile and
    # numpy's .npy reader alone do); every one means it cannot be used.
    except Exception as exc:
        raise MissingArtifactError(f"{path}: {exc}") from exc


def write_atomic(path, data: bytes | str) -> None:
    """Replace `path` with `data` (str is written as UTF-8), whole or not
    at all."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """One CSV file, written atomically; csv writes a float as its repr."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buf.getvalue())


def save_checkpoint(path, store: ParamStore, metadata: dict | None = None) -> None:
    if store.flat.dtype != np.float32:
        raise ValueError(f"checkpoints hold float32 tensors, not {store.flat.dtype}")
    kinds = sorted(store.flat_slots)
    meta = dict(metadata or {}, step=store.step, layout={
        "names": store.names, "shapes": store.shapes, "slots": kinds})
    arrays = {"meta": np.array(json.dumps(meta, sort_keys=True)),
              "params": store.flat}
    arrays.update((f"slot/{kind}", store.flat_slots[kind]) for kind in kinds)
    # np.savez appends ".npz" to a path that lacks it; a buffer keeps the name.
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    write_atomic(path, buf.getvalue())


def load_checkpoint(path) -> tuple[ParamStore, dict]:
    return read_artifact(path, _read_checkpoint, "train")


def _read_checkpoint(path) -> tuple[ParamStore, dict]:
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            # np.load would try pickle here and name allow_pickle as the cause.
            raise ValueError("not a checkpoint file")
    with np.load(path, allow_pickle=False) as archive:
        metadata = json.loads(archive["meta"].item())
        layout = metadata.pop("layout", {})
        kinds = layout.get("slots", [])
        declared = {"meta", "params", *(f"slot/{kind}" for kind in kinds)}
        found = set(archive.files)
        if found != declared:   # the first three of each, in name order
            raise KeyError(f"unexpected entries {sorted(found - declared)[:3]}"
                           f", missing entries {sorted(declared - found)[:3]}")
        store = ParamStore(layout["names"], layout["shapes"], archive["params"],
                           slots={kind: archive[f"slot/{kind}"] for kind in kinds})
        store.step = int(metadata["step"])
    return store, metadata


def run_root(explicit: str | None = None) -> Path:
    if explicit:
        return Path(explicit)
    return Path(os.environ.get(RUN_ROOT_ENV, "runs"))


@dataclass(frozen=True)
class RunPaths:
    root: Path

    @classmethod
    def for_config(cls, config: ExperimentConfig,
                   root: str | None = None) -> "RunPaths":
        return cls(run_root(root) / config.run_name)

    @property
    def dataset_dir(self) -> Path:
        return self.root / "dataset"

    @property
    def split_path(self) -> Path:
        return self.root / "split.json"

    @property
    def priors_dir(self) -> Path:
        return self.root / "priors"

    @property
    def checkpoints_dir(self) -> Path:
        return self.root / "checkpoints"

    @property
    def logs_dir(self) -> Path:
        return self.root / "logs"

    @property
    def reports_dir(self) -> Path:
        return self.root / "reports"

    @property
    def resolved_config_path(self) -> Path:
        return self.root / "config.resolved.txt"

    def prior_path(self, class_id: str) -> Path:
        return self.priors_dir / f"prior_{class_id}.binvox"

    def checkpoint_path(self, arm: str, stage: int) -> Path:
        return self.checkpoints_dir / f"{arm}_stage{stage}.ckpt"

    def iou_path(self, arm: str) -> Path:
        return self.reports_dir / f"{arm}_iou.csv"

    def ensure_dirs(self) -> None:
        for d in (self.root, self.checkpoints_dir, self.logs_dir,
                  self.reports_dir):
            d.mkdir(parents=True, exist_ok=True)

    def write_resolved_config(self, config: ExperimentConfig) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        write_atomic(self.resolved_config_path, dump_config(config))


def load_manifest(paths: RunPaths) -> corpus.DatasetManifest:
    return read_artifact(paths.dataset_dir / "manifest.jsonl",
                         lambda path: corpus.DatasetManifest.load(path.parent),
                         "gen-data")


def load_split(paths: RunPaths) -> corpus.FewShotSplit:
    return read_artifact(paths.split_path, corpus.FewShotSplit.load,
                         "build-priors")


def load_priors(paths: RunPaths, classes) -> dict[str, np.ndarray]:
    """Per-class prior grids as (1, D, D, D) float32 arrays."""
    def load(path):
        return voxel.load_binvox(path).values.astype(np.float32)[None]
    return {class_id: read_artifact(paths.prior_path(class_id), load,
                                    "build-priors")
            for class_id in classes}
