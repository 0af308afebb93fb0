"""Synthetic labelled corpus: generation, the base/novel few-shot split,
the class priors, and sample loading.

`build_dataset` renders every view's silhouette and depth, quantized to
uint8, and voxelizes one boolean volume per object; `make_split` picks the
novel classes' shots; `class_priors` builds each class's prior from its
training volumes; `load_samples` scales the views back to [0, 1] float32.
The split and the priors are pure functions of the dataset and the config
and are never read from a file: every command that needs them calls
`make_split` and `class_priors`.  Reading, writing and checking the
dataset file is `runs`'s work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import render, shapes, voxel
from .model import GridBatch


@dataclass(frozen=True)
class Record:
    """One rendered view of one object, as stored in the manifest."""

    object_id: str
    class_id: str
    pose_id: int
    azimuth: float
    elevation: float


@dataclass(frozen=True, eq=False)
class DatasetManifest:
    """The manifest and the arrays it indexes: one record per view, each
    view's silhouette and depth quantized to uint8 (value * 255, rounded),
    and one binary volume per object."""

    records: tuple[Record, ...]
    views: np.ndarray                  # (n_records, 2, H, W) uint8
    volumes: dict[str, np.ndarray]     # object id -> (D, D, D) bool

    def objects_by_class(self) -> dict[str, list[str]]:
        seen: dict[str, dict[str, None]] = {}
        for rec in self.records:
            seen.setdefault(rec.class_id, {})[rec.object_id] = None
        return {class_id: list(objects) for class_id, objects in seen.items()}

    def records_for_objects(self, object_ids: Iterable[str]) -> list[Record]:
        wanted = set(object_ids)
        return [r for r in self.records if r.object_id in wanted]


@dataclass(frozen=True)
class FewShotSplit:
    """Base classes train on everything; each novel class contributes its
    shots as training objects, and the rest form the query set."""

    base_classes: tuple[str, ...]
    novel_classes: tuple[str, ...]
    train_objects: dict[str, tuple[str, ...]]
    query_objects: dict[str, tuple[str, ...]]

    def all_train_objects(self) -> list[str]:
        return [obj for cls in self.base_classes + self.novel_classes
                for obj in self.train_objects[cls]]

    def all_query_objects(self) -> list[str]:
        return [obj for cls in self.novel_classes
                for obj in self.query_objects[cls]]


def _object_params(seed: int, class_id: str, index: int, arity: int) -> tuple[float, ...]:
    # Each object derives its own stream from (seed, class, index), so the
    # corpus is identical however generation is scheduled.
    entropy = [seed, _stable_class_code(class_id), index]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    return tuple(float(q) for q in rng.uniform(0.0, 1.0, arity))


def _stable_class_code(class_id: str) -> int:
    code = 0
    for ch in class_id:
        code = (code * 131 + ord(ch)) % (2 ** 31)
    return code


def quantize_views(images: np.ndarray) -> np.ndarray:
    """[0, 1] images as the dataset stores them: 8-bit gray, value * 255
    rounded.  `load_samples` divides by 255 again."""
    return np.rint(np.clip(images, 0.0, 1.0) * 255).astype(np.uint8)


def build_dataset(classes: Sequence[str], objects_per_class: int,
                  poses_per_object: int = 8, vox_dim: int = 16,
                  image_size: int = 32,
                  elevations: Sequence[float] = (-30.0, -10.0, 15.0, 35.0),
                  seed: int = 0) -> DatasetManifest:
    """Generate volumes, rendered views, and the manifest. Deterministic
    in `seed`.

    Pose k looks from azimuth 360*k/P and cycles through `elevations`, so
    views of one object differ substantially, which is what the
    pose-alignment loss is meant to absorb."""
    records: list[Record] = []
    views: list[np.ndarray] = []
    volumes: dict[str, np.ndarray] = {}
    azimuths = [360.0 * k / poses_per_object for k in range(poses_per_object)]
    for class_id in classes:
        arity = shapes.param_count(class_id)
        for index in range(objects_per_class):
            object_id = f"{class_id}_{index:03d}"
            params = _object_params(seed, class_id, index, arity)
            spec = shapes.ShapeSpec(class_id, params)
            grid = volumes[object_id] = shapes.voxelize(spec, vox_dim)
            for pose_id, azimuth in enumerate(azimuths):
                elevation = elevations[pose_id % len(elevations)]
                image = render.render(grid, azimuth, elevation,
                                      (image_size, image_size))
                views.append(quantize_views(image))
                records.append(Record(object_id, class_id, pose_id,
                                      azimuth, elevation))
    return DatasetManifest(tuple(records), np.stack(views), volumes)


def make_split(manifest: DatasetManifest, base_classes: Sequence[str],
               novel_classes: Sequence[str], shots: int,
               seed: int = 0) -> FewShotSplit:
    """Pick `shots` training objects per novel class; the rest become the
    query set. Base classes train on all their objects."""
    base, nov = tuple(base_classes), tuple(novel_classes)
    overlap = set(base) & set(nov)
    if overlap:
        raise ValueError(f"base and novel classes overlap: {sorted(overlap)}")
    by_class = manifest.objects_by_class()
    for cls in base + nov:
        if cls not in by_class:
            raise ValueError(f"class {cls!r} not present in the manifest")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 7])))
    train: dict[str, tuple[str, ...]] = {}
    query: dict[str, tuple[str, ...]] = {}
    for cls in base:
        train[cls] = tuple(sorted(by_class[cls]))
        query[cls] = ()
    for cls in nov:
        objs = sorted(by_class[cls])
        if shots > len(objs):
            raise ValueError(
                f"{shots} shots requested but class {cls!r} has {len(objs)} objects")
        chosen = rng.choice(len(objs), size=shots, replace=False)
        picked = tuple(objs[i] for i in sorted(chosen))
        train[cls] = picked
        query[cls] = tuple(o for o in objs if o not in picked)
    return FewShotSplit(base, nov, train, query)


def class_priors(manifest: DatasetManifest, split: FewShotSplit,
                 threshold: float) -> dict[str, np.ndarray]:
    """Each class's (D, D, D) bool prior, in the dataset's class order: the
    `voxel.build_prior` of the volumes of its training objects."""
    return {class_id: voxel.build_prior(
                [manifest.volumes[obj] for obj in split.train_objects[class_id]],
                threshold)
            for class_id in manifest.objects_by_class()}


# ---------------------------------------------------------------------------
# Array loading for training / evaluation
# ---------------------------------------------------------------------------

@dataclass
class SampleArrays:
    """A stack of views loaded into memory, one row per manifest record,
    and their volumes: one float32 (1, D, D, D) grid per distinct object,
    in first-record order, and each view's row into them."""

    object_ids: list[str]
    class_ids: list[str]
    pose_ids: list[int]
    images: np.ndarray    # (n, 2, H, W) float32
    volumes: GridBatch

    def __len__(self) -> int:
        return len(self.object_ids)

    def take(self, rows: Sequence[int]) -> "SampleArrays":
        """The samples `rows` selects, in that order, with every volume grid."""
        return SampleArrays([self.object_ids[i] for i in rows],
                            [self.class_ids[i] for i in rows],
                            [self.pose_ids[i] for i in rows], self.images[rows],
                            self.volumes.take(rows))


def load_samples(manifest: DatasetManifest, records: Sequence[Record]) -> SampleArrays:
    row = {rec: i for i, rec in enumerate(manifest.records)}
    images = manifest.views[[row[rec] for rec in records]].astype(np.float32)
    images /= 255.0
    objects: dict[str, int] = {}
    rows = np.array([objects.setdefault(rec.object_id, len(objects))
                     for rec in records], dtype=np.intp)
    grids = np.stack([manifest.volumes[obj] for obj in objects])
    return SampleArrays([rec.object_id for rec in records],
                        [rec.class_id for rec in records],
                        [rec.pose_id for rec in records], images,
                        GridBatch(grids[:, None].astype(np.float32), rows))
