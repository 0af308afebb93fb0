import numpy as np
import pytest

from voxmix import corpus, render, runs, shapes
from voxmix.config import DataConfig, ExperimentConfig

CLASSES = ("box", "table", "lamp")
BUILD = dict(objects_per_class=3, poses_per_object=4, vox_dim=16,
             image_size=32, seed=7)
# The config whose gen-data would build `BUILD`.
CONFIG = ExperimentConfig(seed=BUILD["seed"], data=DataConfig(
    classes=CLASSES, base_classes=("box", "table"), novel_classes=("lamp",),
    **{k: v for k, v in BUILD.items() if k != "seed"}))


@pytest.fixture(scope="module")
def small_dataset():
    return corpus.build_dataset(CLASSES, **BUILD)


@pytest.fixture(scope="module")
def reloaded(small_dataset, tmp_path_factory):
    """`small_dataset` saved as its archive and loaded again."""
    paths = runs.RunPaths(tmp_path_factory.mktemp("data"))
    runs.save_dataset(paths, small_dataset, CONFIG)
    return runs.load_manifest(paths, CONFIG)


def test_manifest_row_count(small_dataset):
    assert len(small_dataset.records) == 3 * 3 * 4


def test_regeneration_is_byte_identical(small_dataset, tmp_path):
    written = []
    for name, dataset in (("first", small_dataset),
                          ("second", corpus.build_dataset(CLASSES, **BUILD))):
        paths = runs.RunPaths(tmp_path / name)
        paths.root.mkdir()
        runs.save_dataset(paths, dataset, CONFIG)
        written.append(paths.dataset_path.read_bytes())
    assert written[0] == written[1]


def test_different_seed_changes_volumes(small_dataset):
    other = corpus.build_dataset(CLASSES, **dict(BUILD, seed=8))
    assert any(not np.array_equal(small_dataset.volumes[obj], volume)
               for obj, volume in other.volumes.items())


def test_per_class_counts_recounted_from_disk(reloaded):
    by_class = reloaded.objects_by_class()
    assert set(by_class) == set(CLASSES)
    for class_id, objects in by_class.items():
        assert len(objects) == 3
        for obj in objects:
            assert reloaded.volumes[obj].shape == (16, 16, 16)


def test_views_of_one_object_share_volume_ref(reloaded):
    assert list(reloaded.volumes) == list(dict.fromkeys(
        rec.object_id for rec in reloaded.records))
    samples = corpus.load_samples(reloaded, reloaded.records)
    # One grid per object, in first-record order, and each view's row.
    grids, rows = samples.volumes
    assert len(grids) == len(reloaded.volumes)
    assert rows.tolist() == [list(reloaded.volumes).index(obj)
                             for obj in samples.object_ids]
    for k, obj in enumerate(samples.object_ids):
        assert np.array_equal(grids[rows[k], 0], reloaded.volumes[obj])


def test_manifest_round_trip(small_dataset, tmp_path):
    paths = runs.RunPaths(tmp_path)
    runs.save_dataset(paths, small_dataset, CONFIG)
    meta, _ = runs.read_archive(paths.dataset_path, "dataset",
                                lambda meta: ("views", "volumes"))
    assert meta.keys() == {"dataset_hash", "records"}
    assert meta["dataset_hash"] == runs.dataset_hash(CONFIG)
    again = runs.load_manifest(paths, CONFIG)
    assert again.records == small_dataset.records
    assert again.views.dtype == np.uint8
    assert np.array_equal(again.views, small_dataset.views)
    assert list(again.volumes) == list(small_dataset.volumes)
    for obj, volume in again.volumes.items():
        assert volume.dtype == bool
        assert np.array_equal(volume, small_dataset.volumes[obj])


def _grid(rec):
    params = corpus._object_params(BUILD["seed"], rec.class_id,
                                   int(rec.object_id.rsplit("_", 1)[1]),
                                   shapes.param_count(rec.class_id))
    return shapes.voxelize(shapes.ShapeSpec(rec.class_id, params),
                           BUILD["vox_dim"])


def test_a_loaded_view_is_its_rendering_quantized_to_eight_bits(reloaded):
    records = reloaded.records[::5]
    samples = corpus.load_samples(reloaded, records)
    assert samples.images.dtype == np.float32
    for image, rec in zip(samples.images, records):
        size = (BUILD["image_size"],) * 2
        rendered = render.render(_grid(rec), rec.azimuth, rec.elevation, size)
        expected = (np.rint(np.clip(rendered, 0, 1) * 255) / 255).astype(np.float32)
        assert np.array_equal(image, expected)


def test_a_loaded_volume_is_the_voxelized_object(reloaded):
    samples = corpus.load_samples(reloaded, reloaded.records)
    grids, rows = samples.volumes
    assert grids.dtype == np.float32
    for row, rec in zip(rows, reloaded.records):
        assert np.array_equal(grids[row, 0], _grid(rec))


def test_load_samples_shapes(small_dataset):
    records = small_dataset.records[:5]
    samples = corpus.load_samples(small_dataset, records)
    assert samples.images.shape == (5, 2, 32, 32)
    # Five views of two objects, four poses each.
    assert samples.volumes.grids.shape == (2, 1, 16, 16, 16)
    assert samples.volumes.rows.tolist() == [0, 0, 0, 0, 1]
    assert samples.images.min() >= 0.0 and samples.images.max() <= 1.0
    assert set(np.unique(samples.volumes.grids)) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# make_split
# ---------------------------------------------------------------------------

def test_split_exact_shot_counts(small_dataset):
    split = corpus.make_split(small_dataset, ("box", "table"), ("lamp",),
                              shots=1, seed=0)
    assert len(split.train_objects["lamp"]) == 1
    assert len(split.query_objects["lamp"]) == 2
    assert len(split.train_objects["box"]) == 3
    assert split.query_objects["box"] == ()


def test_split_query_disjoint_from_train(small_dataset):
    split = corpus.make_split(small_dataset, ("box", "table"), ("lamp",),
                              shots=2, seed=3)
    overlap = set(split.train_objects["lamp"]) & set(split.query_objects["lamp"])
    assert not overlap
    assert len(split.train_objects["lamp"]) == 2


def test_split_deterministic(small_dataset):
    a = corpus.make_split(small_dataset, ("box",), ("lamp", "table"), 1, seed=5)
    b = corpus.make_split(small_dataset, ("box",), ("lamp", "table"), 1, seed=5)
    assert a == b
