"""Synthetic labelled corpus: generation, on-disk manifest, and the
base/novel few-shot split.

Layout under a dataset root:
    manifest.jsonl           one JSON record per view (see Record)
    volumes/<object>.binvox  ground-truth occupancy per object
    images/<object>_p<k>_sil.pgm / _dep.pgm   rendered view channels
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import render, shapes, voxel


@dataclass(frozen=True)
class Record:
    """One rendered view of one object, as stored in the manifest."""

    object_id: str
    class_id: str
    pose_id: int
    azimuth: float
    elevation: float
    sil: str          # image paths relative to the dataset root
    dep: str
    volume: str       # binvox path relative to the dataset root


@dataclass(frozen=True)
class DatasetManifest:
    root: Path
    records: tuple[Record, ...]

    def objects_by_class(self) -> dict[str, list[str]]:
        seen: dict[str, list[str]] = {}
        for rec in self.records:
            bucket = seen.setdefault(rec.class_id, [])
            if rec.object_id not in bucket:
                bucket.append(rec.object_id)
        return seen

    def records_for_objects(self, object_ids: Iterable[str]) -> list[Record]:
        wanted = set(object_ids)
        return [r for r in self.records if r.object_id in wanted]

    def save(self) -> None:
        from .runs import write_atomic
        write_atomic(self.root / "manifest.jsonl",
                     "".join(json.dumps(asdict(rec)) + "\n"
                             for rec in self.records))

    @classmethod
    def load(cls, root) -> "DatasetManifest":
        root = Path(root)
        path = root / "manifest.jsonl"
        records = []
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                records.append(Record(**json.loads(line)))
        return cls(root, tuple(records))


@dataclass(frozen=True)
class FewShotSplit:
    """Base classes train on everything; novel classes contribute exactly
    `shots` training objects, the rest form the query set."""

    base_classes: tuple[str, ...]
    novel_classes: tuple[str, ...]
    shots: int
    train_objects: dict[str, tuple[str, ...]]
    query_objects: dict[str, tuple[str, ...]]

    def all_train_objects(self) -> list[str]:
        out: list[str] = []
        for cls in self.base_classes + self.novel_classes:
            out.extend(self.train_objects[cls])
        return out

    def all_query_objects(self) -> list[str]:
        out: list[str] = []
        for cls in self.novel_classes:
            out.extend(self.query_objects[cls])
        return out

    def save(self, path) -> None:
        payload = {
            "base_classes": list(self.base_classes),
            "novel_classes": list(self.novel_classes),
            "shots": self.shots,
            "train_objects": {c: list(v) for c, v in self.train_objects.items()},
            "query_objects": {c: list(v) for c, v in self.query_objects.items()},
        }
        from .runs import write_atomic
        write_atomic(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "FewShotSplit":
        with open(path, "r", encoding="ascii") as fh:
            payload = json.load(fh)
        return cls(
            base_classes=tuple(payload["base_classes"]),
            novel_classes=tuple(payload["novel_classes"]),
            shots=int(payload["shots"]),
            train_objects={c: tuple(v) for c, v in payload["train_objects"].items()},
            query_objects={c: tuple(v) for c, v in payload["query_objects"].items()},
        )


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


def build_dataset(root, classes: Sequence[str], objects_per_class: int,
                  poses_per_object: int = 8, vox_dim: int = 16,
                  image_size: int = 32,
                  elevations: Sequence[float] = (-30.0, -10.0, 15.0, 35.0),
                  seed: int = 0) -> DatasetManifest:
    """Generate volumes, rendered views, and the manifest. Deterministic
    in `seed`; re-running with the same arguments is byte-identical.

    Pose k looks from azimuth 360*k/P and cycles through `elevations`, so
    views of one object differ substantially, which is what the
    pose-alignment loss is meant to absorb."""
    root = Path(root)
    (root / "volumes").mkdir(parents=True, exist_ok=True)
    (root / "images").mkdir(parents=True, exist_ok=True)
    records: list[Record] = []
    azimuths = [360.0 * k / poses_per_object for k in range(poses_per_object)]
    for class_id in classes:
        arity = shapes.param_count(class_id)
        for index in range(objects_per_class):
            object_id = f"{class_id}_{index:03d}"
            params = _object_params(seed, class_id, index, arity)
            spec = shapes.ShapeSpec(class_id, class_id, params)
            grid = shapes.voxelize(spec, vox_dim)
            vol_rel = f"volumes/{object_id}.binvox"
            voxel.save_binvox(grid, root / vol_rel)
            for pose_id, azimuth in enumerate(azimuths):
                elevation = elevations[pose_id % len(elevations)]
                image = render.render(grid, azimuth, elevation,
                                      (image_size, image_size))
                sil_rel = f"images/{object_id}_p{pose_id}_sil.pgm"
                dep_rel = f"images/{object_id}_p{pose_id}_dep.pgm"
                render.write_pgm(image[0], root / sil_rel)
                render.write_pgm(image[1], root / dep_rel)
                records.append(Record(object_id, class_id, pose_id,
                                      azimuth, elevation,
                                      sil_rel, dep_rel, vol_rel))
    manifest = DatasetManifest(root, tuple(records))
    manifest.save()
    return manifest


def make_split(manifest: DatasetManifest, base_classes: Sequence[str],
               novel_classes: Sequence[str], shots: int,
               seed: int = 0) -> FewShotSplit:
    """Pick `shots` training objects per novel class; the rest become the
    query set. Base classes train on all their objects."""
    base = tuple(base_classes)
    nov = tuple(novel_classes)
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
    return FewShotSplit(base, nov, shots, train, query)


# ---------------------------------------------------------------------------
# Array loading for training / evaluation
# ---------------------------------------------------------------------------

@dataclass
class SampleArrays:
    """A stack of views loaded into memory, one row per manifest record."""

    object_ids: list[str]
    class_ids: list[str]
    pose_ids: list[int]
    images: np.ndarray    # (n, 2, H, W) float32
    volumes: np.ndarray   # (n, 1, D, D, D) float32

    def __len__(self) -> int:
        return len(self.object_ids)


def load_samples(manifest: DatasetManifest, records: Sequence[Record]) -> SampleArrays:
    from .runs import read_artifact
    volume_cache: dict[str, np.ndarray] = {}
    images = []
    volumes = []
    object_ids, class_ids, pose_ids = [], [], []
    for rec in records:
        sil = read_artifact(manifest.root / rec.sil, render.read_pgm, "gen-data")
        dep = read_artifact(manifest.root / rec.dep, render.read_pgm, "gen-data")
        images.append(np.stack([sil, dep]))
        if rec.volume not in volume_cache:
            grid = read_artifact(manifest.root / rec.volume, voxel.load_binvox,
                                 "gen-data")
            volume_cache[rec.volume] = grid.values.astype(np.float32)
        volumes.append(volume_cache[rec.volume][None])
        object_ids.append(rec.object_id)
        class_ids.append(rec.class_id)
        pose_ids.append(rec.pose_id)
    return SampleArrays(object_ids, class_ids, pose_ids,
                        np.asarray(images, dtype=np.float32),
                        np.asarray(volumes, dtype=np.float32))


def load_object_volumes(manifest: DatasetManifest,
                        object_ids: Sequence[str]) -> dict[str, voxel.VoxelGrid]:
    from .runs import read_artifact
    by_object = {}
    for rec in manifest.records:
        if rec.object_id in object_ids and rec.object_id not in by_object:
            by_object[rec.object_id] = read_artifact(
                manifest.root / rec.volume, voxel.load_binvox, "gen-data")
    missing = set(object_ids) - set(by_object)
    if missing:
        raise ValueError(f"volumes missing for objects: {sorted(missing)}")
    return by_object
