"""Run-directory layout, and the one module that puts run artifacts on disk.

Every experiment lives under one run directory:
    config.resolved.txt    gen-data's full config after file + overrides:
                           the config the dataset was made under
    dataset.npz            the views, volumes and manifest (gen-data)
    priors.npz             one binary prior per class (build-priors), an
                           inspection output that no command reads
    checkpoints/           gt_encoder.ckpt (the volume encoder alone),
                           <arm>_stage<final stage>.ckpt
    logs/                  <arm>_train.csv, <arm>_config.txt (the full
                           config the arm trained under, its alpha
                           included), pretrain_gt.csv
    reports/               from train and eval: <arm>_iou.csv (each
                           class's IoU and its proximity to the base
                           shapes) and <arm>_iou_samples.csv; from eval:
                           <arm>_cosine.csv and, with --dump-predictions,
                           <arm>_predictions.npz; mix_preview/pairs.csv
                           and pairs.npz (tools/mix_preview.py)
where `trainer.arm_name` names an arm: its pipeline, then `_alpha<a>` with
`--alphas`, then `_noprior` on the no-prior network (`base_stage1.ckpt`,
`input_mix_alpha0.4_noprior_iou.csv`).
No file that a command reads holds the base/novel few-shot split or the
class priors: `corpus.make_split` and `corpus.class_priors` derive them
from the dataset and the config wherever they are needed.

Every artifact file is written through `write_atomic`: archives, CSVs and
the config files.  The bytes go to a `.<name>.<pid>.tmp` sibling, which
no glob for an artifact's suffix matches, and `os.replace` then puts it in
place.  A write interrupted before the rename leaves the earlier file as
it was.  (There is no fsync: this guards against a process dying
mid-write, not against losing power.)

Every input artifact is read through `read_artifact`: the dataset and
checkpoints.  Each failure raises `MissingArtifactError` naming
the file: a missing file's message also names the command that writes it,
and any other error its loader raises is passed on in the message.  The
command line exits 3 on either.

Every array artifact is one npz archive, written by `save_archive`
uncompressed under the name it is given and read by `read_archive`.  Its
`meta` entry holds a JSON object; the other entries are arrays:
    dataset      meta: dataset_hash, records (the manifest rows, see
                 corpus.Record); views, row i the silhouette and depth of
                 record i; volumes, one per object in order of first record
    priors       meta: classes, objects (per class, the training objects
                 its prior averages); priors, one per class
    checkpoint   meta: the metadata (a stage checkpoint's config_hash,
                 the volume encoder's pretrain_hash) and "layout" (the
                 parameter names and their shapes); params, every
                 parameter, flat float32, in the layout's name order, every
                 value finite, or the error names a parameter.  Optimizer
                 state is not saved: each stage continues the one before
                 it in memory, and every reader reads parameters alone
    predictions  meta: object_ids, pose_ids, threshold, prior_mode;
                 predictions (N, D, D, D) bool, the binarized query predictions
It is read with `allow_pickle=False`.  A file that is not such an archive,
whose zip CRC fails, whose entries are not exactly the ones its kind
declares (a damaged zip directory can drop entries silently), or whose
arrays do not fit its metadata raises `MissingArtifactError` naming the
path.

The dataset is checked where it is read (`load_manifest`), against the
config of the reading command (S = data.image_size, D = data.vox_dim):
dataset_hash, a hash of the config fields gen-data reads; views uint8
(records, 2, S, S); volumes bool (objects, D, D, D); no volume empty.  A
file that fails one of these checks is refused like a damaged one, and the
message names gen-data as the command to run again.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import corpus
from .config import ExperimentConfig, config_hash, dump_config
from .nn import ParamStore

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
    meta = dict(metadata or {},
                layout={"names": store.names, "shapes": store.shapes})
    save_archive(path, meta, {"params": store.flat})


def load_checkpoint(path) -> tuple[ParamStore, dict]:
    return read_artifact(path, _read_checkpoint, "train")


def _read_checkpoint(path) -> tuple[ParamStore, dict]:
    metadata, arrays = read_archive(path, "checkpoint", lambda meta: ("params",))
    layout = metadata.pop("layout")
    store = ParamStore(layout["names"], layout["shapes"], arrays["params"])
    bad = [name for name, value in store.params.items()
           if not np.isfinite(value).all()]
    if bad:
        raise ValueError(f"{bad[0]} holds a non-finite value")
    return store, metadata


@dataclass(frozen=True)
class RunPaths:
    root: Path

    @classmethod
    def for_config(cls, config: ExperimentConfig,
                   root: str | None = None) -> "RunPaths":
        return cls(Path(root or "runs") / config.run_name)

    @property
    def dataset_path(self) -> Path:
        return self.root / "dataset.npz"

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
    return config_hash(config, ("seed", "data.classes", "data.objects_per_class",
                                "data.poses_per_object", "data.elevations",
                                "data.vox_dim", "data.image_size"))


def _checked(name: str, array: np.ndarray, dtype, shape: tuple) -> np.ndarray:
    """`array`, unless it is not `dtype` `shape`."""
    if array.dtype != dtype or array.shape != shape:
        raise ValueError(f"{name} are {array.dtype} {array.shape}, not "
                         f"{np.dtype(dtype)} {shape}; run gen-data again")
    return array


def save_dataset(paths: RunPaths, manifest: corpus.DatasetManifest,
                 config: ExperimentConfig) -> None:
    save_archive(paths.dataset_path,
                 {"dataset_hash": dataset_hash(config),
                  "records": [asdict(rec) for rec in manifest.records]},
                 {"views": manifest.views,
                  "volumes": np.stack(list(manifest.volumes.values()))})


def load_manifest(paths: RunPaths,
                  config: ExperimentConfig) -> corpus.DatasetManifest:
    """The dataset, checked as the module docstring lists."""
    def load(path):
        meta, arrays = read_archive(path, "dataset",
                                    lambda meta: ("views", "volumes"))
        if meta.get("dataset_hash") != dataset_hash(config):
            raise ValueError("written under other config settings; "
                             "run gen-data again")
        records = tuple(corpus.Record(**row) for row in meta["records"])
        objects = list(dict.fromkeys(rec.object_id for rec in records))
        side, dim = config.data.image_size, config.data.vox_dim
        views = _checked("views", arrays["views"], np.uint8,
                         (len(records), 2, side, side))
        volumes = _checked("volumes", arrays["volumes"], bool,
                           (len(objects), dim, dim, dim))
        empty = np.flatnonzero(~volumes.any(axis=(1, 2, 3)))
        if len(empty):
            raise ValueError(f"no occupied voxel in {len(empty)} of "
                             f"{len(objects)} volumes (first: "
                             f"{objects[empty[0]]}); run gen-data again")
        return corpus.DatasetManifest(records, views,
                                      dict(zip(objects, volumes)))
    return read_artifact(paths.dataset_path, load, "gen-data")


def save_priors(paths: RunPaths, priors: dict[str, np.ndarray],
                objects: dict[str, tuple[str, ...]]) -> None:
    """Save one (D, D, D) bool prior per class and `objects[class]`, the
    training objects it averages, for inspection: no command reads them."""
    save_archive(paths.priors_path, {
        "classes": list(priors), "objects": [list(objects[c]) for c in priors]},
        {"priors": np.stack(list(priors.values()))})
