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
from contextlib import contextmanager
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
    with open(path, "rb") as fh:
        is_zip = fh.read(4) == b"PK\x03\x04"
    if not is_zip:
        # np.load would try pickle here and name allow_pickle as the cause.
        raise MissingArtifactError(f"{path}: not a checkpoint file")
    try:
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
    # zipfile and numpy's .npy reader raise a dozen error types on a damaged
    # archive; every one of them means the file cannot be used.
    except Exception as exc:
        raise MissingArtifactError(
            f"{path}: unreadable checkpoint ({exc})") from exc
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

    def ensure_dirs(self) -> None:
        for d in (self.root, self.checkpoints_dir, self.logs_dir,
                  self.reports_dir):
            d.mkdir(parents=True, exist_ok=True)

    def write_resolved_config(self, config: ExperimentConfig) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        write_atomic(self.resolved_config_path, dump_config(config))


@contextmanager
def _parsing(path):
    """Raise a parse error inside as a MissingArtifactError naming `path`."""
    try:
        yield
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise MissingArtifactError(f"{path}: {exc}") from exc


def load_manifest(paths: RunPaths) -> corpus.DatasetManifest:
    path = paths.dataset_dir / "manifest.jsonl"
    if not path.exists():
        raise MissingArtifactError(
            f"no dataset under {paths.dataset_dir}; run gen-data first")
    with _parsing(path):
        return corpus.DatasetManifest.load(paths.dataset_dir)


def load_split(paths: RunPaths) -> corpus.FewShotSplit:
    if not paths.split_path.exists():
        raise MissingArtifactError(
            f"no split at {paths.split_path}; run build-priors first")
    with _parsing(paths.split_path):
        return corpus.FewShotSplit.load(paths.split_path)


def load_priors(paths: RunPaths, classes) -> dict[str, np.ndarray]:
    """Per-class prior grids as (1, D, D, D) float32 arrays."""
    priors: dict[str, np.ndarray] = {}
    for class_id in classes:
        path = paths.prior_path(class_id)
        if not path.exists():
            raise MissingArtifactError(
                f"no prior for class {class_id!r} at {path}; run build-priors")
        with _parsing(path):
            priors[class_id] = voxel.load_binvox(path).values.astype(np.float32)[None]
    return priors
