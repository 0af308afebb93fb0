"""The measurement surfaces of `evaluate`, on a tiny random network."""

import numpy as np
import pytest

from voxmix import evaluate
from voxmix.corpus import SampleArrays
from voxmix.model import Network
from voxmix.verification import TINY_NET
from voxmix.voxel import ProximityReport

CLASSES = ("a", "b", "c")
PRIORS = {c: np.full((1,) + (TINY_NET.vox_dim,) * 3, (k + 1) / 4, np.float32)
          for k, c in enumerate(CLASSES)}


def _samples(object_ids, class_ids, seed=0):
    rng = np.random.default_rng(seed)
    n = len(object_ids)
    side, dim = TINY_NET.image_size, TINY_NET.vox_dim
    images = rng.uniform(0.0, 1.0, (n, 2, side, side)).astype(np.float32)
    volumes = (rng.uniform(0.0, 1.0, (n, 1, dim, dim, dim)) < 0.4)
    return SampleArrays(list(object_ids), list(class_ids), list(range(n)),
                        images, volumes.astype(np.float32))


@pytest.fixture(scope="module")
def net_store():
    net = Network(TINY_NET)
    return net, net.init_params(np.random.default_rng(0))


def test_overall_is_the_mean_of_class_means_and_rows_rederive(net_store):
    # Uneven class sizes, so the mean of class means is not the sample mean.
    samples = _samples(["a0", "a0", "a1", "b0", "c0"], ["a", "a", "a", "b", "c"])
    table = evaluate.eval_iou(*net_store, samples, PRIORS, "correct", CLASSES,
                              batch_size=2)
    assert [row[:3] for row in table.per_sample] == list(zip(
        samples.object_ids, samples.pose_ids, samples.class_ids))
    by_class: dict[str, list[float]] = {}
    for _, _, class_id, iou in table.per_sample:
        by_class.setdefault(class_id, []).append(iou)
    assert table.rows == tuple((c, float(np.mean(v)), len(v))
                               for c, v in sorted(by_class.items()))
    assert table.overall == float(np.mean([row[1] for row in table.rows]))


def test_the_corrupted_prior_walks_cyclically_from_the_last_class_to_the_first():
    assert [evaluate.assigned_prior_class(c, "corrupted", CLASSES)
            for c in CLASSES] == ["b", "c", "a"]
    batch = evaluate.prior_batch(["c", "a"], PRIORS, "corrupted", CLASSES)
    assert np.array_equal(batch, np.stack([PRIORS["a"], PRIORS["b"]]))


def test_prior_batch_is_none_in_mode_none():
    assert evaluate.prior_batch(["a", "b"], PRIORS, "none", CLASSES) is None


@pytest.mark.parametrize("object_ids", [["a0", "a0"], ["a0", "a1"]],
                         ids=["no_different_object_pair",
                              "no_same_object_pair"])
def test_cosine_report_raises_on_a_class_lacking_a_kind_of_pair(net_store,
                                                               object_ids):
    samples = _samples(object_ids + ["b0", "b0", "b1"], ["a", "a", "b", "b", "b"])
    with pytest.raises(ValueError, match="'a' lacks same- or different-object"):
        evaluate.cosine_report(*net_store, samples, PRIORS, "correct", CLASSES)


def test_cosine_report_counts_the_pairs_of_each_kind(net_store):
    samples = _samples(["a0", "a0", "a1"], ["a", "a", "a"])
    report = evaluate.cosine_report(*net_store, samples, PRIORS, "correct",
                                    CLASSES)
    assert [(row[0], *row[3:]) for row in report.rows] == [("a", 1, 2)]


def test_proximity_join_names_the_missing_classes():
    prox = ProximityReport({"lamp": 0.5, "lbeam": 0.4, "mug": 0.1})
    with pytest.raises(ValueError, match=r"\['lbeam', 'mug'\]"):
        evaluate.proximity_join(prox, {"lamp": 0.3, "box": 0.9})
    assert evaluate.proximity_join(
        prox, {"mug": 0.1, "lamp": 0.3, "lbeam": 0.2, "box": 0.9}) \
        == [("lamp", 0.5, 0.3), ("lbeam", 0.4, 0.2), ("mug", 0.1, 0.1)]
