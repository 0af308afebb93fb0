"""Run-directory layout, and the one module that puts run artifacts on disk.

Every experiment lives under one run directory:
    config.resolved.txt    full config after file + overrides
    dataset.npz            the views, volumes and manifest (gen-data)
    split.json             the base/novel few-shot split (build-priors)
    priors.npz             one binary prior per class (build-priors)
    checkpoints/           gt_encoder.ckpt, <arm>_stage<final stage>.ckpt
    logs/                  <arm>_train.csv
    reports/               <arm>_iou.csv, <arm>_iou_samples.csv, and cosine,
                           proximity and alpha_sweep CSVs;
                           <pipeline>_predictions.npz (eval --dump-predictions);
                           mix_preview/pairs.csv and pairs.npz (mix-preview)
where an arm is a pipeline or, in an alpha sweep, <pipeline>_alpha<alpha>.

Every artifact file is written through `write_atomic`: archives, CSVs, the
split and the resolved config.  The bytes go to a `.<name>.<pid>.tmp`
sibling, which no glob for an artifact's suffix matches, and `os.replace`
then puts it in place.  A write interrupted before the rename leaves the
earlier file as it was.  (There is no fsync: this guards against a
process dying mid-write, not against losing power.)

Every input artifact is read through `read_artifact`: the dataset, the
split, the priors, checkpoints and the IoU table.  Each failure raises
`MissingArtifactError` naming the file: a missing file's message also
names the command that writes it, and any other error its loader raises is
passed on in the message.  The command line exits 3 on either.  The
dataset stores `dataset_hash` and the split and priors `priors_hash`, each
a hash of the config fields its command reads; one that does not match
the config of the reading command is refused the same way, and the
message names the command to run again.

Every array artifact is one npz archive, written by `save_archive`
uncompressed under the name it is given and read by `read_archive`.  Its
`meta` entry holds a JSON object; the other entries are arrays:
    dataset      meta: dataset_hash, records (the manifest rows, see
                 corpus.Record); views (N, 2, H, W) uint8, row i the
                 silhouette and depth of record i; volumes (objects, D, D, D)
                 bool, one per object in order of first record, none
                 empty (H = W = data.image_size, D = data.vox_dim)
    priors       meta: priors_hash, classes; priors (classes, D, D, D) bool
    checkpoint   meta: the metadata, "step" and "layout" (the parameter
                 names, their shapes and the slot kinds); params, every
                 parameter, flat float32, in the layout's name order;
                 slot/<kind>, one optimizer slot kind, in the same layout
    predictions  meta: object_ids, pose_ids, threshold; predictions
                 (N, D, D, D) bool, the binarized query predictions
    mix preview  meta: {}; images (pairs, 2, H, W), priors and volumes
                 (pairs, D, D, D), the mixed float32 stacks
It is read with `allow_pickle=False`.  A file that is not such an archive,
whose zip CRC fails, whose entries are not exactly the ones its kind
declares (a damaged zip directory can drop entries silently), or whose
arrays do not fit its metadata (or, in the dataset and the priors, the
dtype and shape above) raises `MissingArtifactError` naming the path.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import corpus
from .config import (DataConfig, ExperimentConfig, PriorConfig, config_hash,
                     dump_config)
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


def save_archive(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write `meta` and `arrays` as one uncompressed npz archive, atomically,
    under exactly the name `path`."""
    entries = {"meta": np.array(json.dumps(meta, sort_keys=True)), **arrays}
    # np.savez appends ".npz" to a path that lacks it; a buffer keeps the name.
    buf = io.BytesIO()
    np.savez(buf, **entries)
    write_atomic(path, buf.getvalue())


def read_archive(path, kind: str, entries: Callable[[dict], Iterable[str]]
                 ) -> tuple[dict, dict[str, np.ndarray]]:
    """(meta, arrays) of the archive `save_archive` wrote at `path`, whose
    entries must be exactly "meta" and `entries(meta)`; `kind` names the
    file in the error for one that is not an archive."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            # np.load would try pickle here and name allow_pickle as the cause.
            raise ValueError(f"not a {kind} file")
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(archive["meta"].item())
        declared = {"meta", *entries(meta)}
        found = set(archive.files)
        if found != declared:   # the first three of each, in name order
            raise KeyError(f"unexpected entries {sorted(found - declared)[:3]}"
                           f", missing entries {sorted(declared - found)[:3]}")
        return meta, {name: archive[name] for name in sorted(declared - {"meta"})}


def save_checkpoint(path, store: ParamStore, metadata: dict | None = None) -> None:
    if store.flat.dtype != np.float32:
        raise ValueError(f"checkpoints hold float32 tensors, not {store.flat.dtype}")
    kinds = sorted(store.flat_slots)
    meta = dict(metadata or {}, step=store.step, layout={
        "names": store.names, "shapes": store.shapes, "slots": kinds})
    save_archive(path, meta, {"params": store.flat, **{
        f"slot/{kind}": store.flat_slots[kind] for kind in kinds}})


def _checkpoint_entries(meta: dict) -> list[str]:
    return ["params", *(f"slot/{kind}" for kind
                        in meta.get("layout", {}).get("slots", []))]


def load_checkpoint(path) -> tuple[ParamStore, dict]:
    return read_artifact(path, _read_checkpoint, "train")


def _read_checkpoint(path) -> tuple[ParamStore, dict]:
    metadata, arrays = read_archive(path, "checkpoint", _checkpoint_entries)
    layout = metadata.pop("layout")
    store = ParamStore(layout["names"], layout["shapes"], arrays["params"],
                       slots={kind: arrays[f"slot/{kind}"]
                              for kind in layout["slots"]})
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
    def dataset_path(self) -> Path:
        return self.root / "dataset.npz"

    @property
    def split_path(self) -> Path:
        return self.root / "split.json"

    @property
    def priors_path(self) -> Path:
        return self.root / "priors.npz"

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


def dataset_hash(config: ExperimentConfig) -> str:
    """Hash of the config fields `gen-data` reads, and no others."""
    data = config.data
    return config_hash(ExperimentConfig(seed=config.seed, data=DataConfig(
        classes=data.classes, objects_per_class=data.objects_per_class,
        poses_per_object=data.poses_per_object, elevations=data.elevations,
        vox_dim=data.vox_dim, image_size=data.image_size)))


def priors_hash(config: ExperimentConfig) -> str:
    """Hash of the config fields `build-priors` reads, and no others: the
    dataset's, the class split, the shots and the prior threshold."""
    return config_hash(ExperimentConfig(
        seed=config.seed, data=config.data,
        prior=PriorConfig(threshold=config.prior.threshold)))


def _check_inputs(meta: dict, key: str, expected: str, made_by: str) -> None:
    if meta.get(key) != expected:
        raise ValueError(f"written under other config settings; "
                         f"run {made_by} again")


def save_dataset(paths: RunPaths, manifest: corpus.DatasetManifest,
                 config: ExperimentConfig) -> None:
    manifest.save(paths.dataset_path, {"dataset_hash": dataset_hash(config)})


def load_manifest(paths: RunPaths,
                  config: ExperimentConfig) -> corpus.DatasetManifest:
    """The dataset; one whose views are not uint8 (records, 2, S, S) or
    whose volumes are not bool (objects, D, D, D), S and D the config's
    `data.image_size` and `data.vox_dim`, or that holds an empty volume,
    is refused."""
    def load(path):
        manifest, meta = corpus.DatasetManifest.load(path)
        _check_inputs(meta, "dataset_hash", dataset_hash(config), "gen-data")
        side, cube = config.data.image_size, (config.data.vox_dim,) * 3
        views, volumes = manifest.views, manifest.volumes
        # DatasetManifest.load checked their dtype and count.
        if views.shape[1:] != (2, side, side):
            raise ValueError(f"views are uint8 {views.shape}, not uint8 "
                             f"{(len(views), 2, side, side)}; run gen-data again")
        # One stacked array in the file: every volume has the same shape.
        wrong = [grid.shape for grid in volumes.values() if grid.shape != cube]
        if wrong:
            raise ValueError(f"volumes are bool {(len(volumes), *wrong[0])}, "
                             f"not bool {(len(volumes), *cube)}; "
                             "run gen-data again")
        empty = [obj for obj, grid in volumes.items() if not grid.any()]
        if empty:
            raise ValueError(f"no occupied voxel in {len(empty)} of "
                             f"{len(volumes)} volumes (first: {empty[0]}); "
                             "run gen-data again")
        return manifest
    return read_artifact(paths.dataset_path, load, "gen-data")


def save_split(paths: RunPaths, split: corpus.FewShotSplit,
               config: ExperimentConfig) -> None:
    split.save(paths.split_path, {"priors_hash": priors_hash(config)})


def load_split(paths: RunPaths, config: ExperimentConfig) -> corpus.FewShotSplit:
    def load(path):
        split, meta = corpus.FewShotSplit.load(path)
        _check_inputs(meta, "priors_hash", priors_hash(config), "build-priors")
        return split
    return read_artifact(paths.split_path, load, "build-priors")


def save_priors(paths: RunPaths, priors: dict[str, np.ndarray],
                config: ExperimentConfig) -> None:
    """Save one (D, D, D) bool prior per class."""
    save_archive(paths.priors_path, {"priors_hash": priors_hash(config),
                                     "classes": list(priors)},
                 {"priors": np.stack(list(priors.values()))})


def load_priors(paths: RunPaths,
                config: ExperimentConfig) -> dict[str, np.ndarray]:
    """Per-class prior grids as (1, D, D, D) float32 arrays; a `priors`
    entry that is not bool (classes, D, D, D), D the config's `data.vox_dim`,
    is refused."""
    def load(path):
        meta, arrays = read_archive(path, "priors", lambda meta: ("priors",))
        _check_inputs(meta, "priors_hash", priors_hash(config), "build-priors")
        grids = arrays["priors"]
        shape = (len(meta["classes"]),) + (config.data.vox_dim,) * 3
        if grids.dtype != bool or grids.shape != shape:
            raise ValueError(f"priors are {grids.dtype} {grids.shape}, not bool "
                             f"{shape}; run build-priors again")
        return dict(zip(meta["classes"], grids.astype(np.float32)[:, None]))
    return read_artifact(paths.priors_path, load, "build-priors")
