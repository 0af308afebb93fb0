"""The measurement surfaces of `evaluate`, on a tiny random network."""

import numpy as np
import pytest

from voxmix import evaluate
from voxmix.config import EvalSection
from voxmix.corpus import SampleArrays
from voxmix.model import Network
from voxmix.verification import TINY_NET

CLASSES = ("a", "b", "c")
PRIORS = {c: np.full((1,) + (TINY_NET.vox_dim,) * 3, (k + 1) / 4, np.float32)
          for k, c in enumerate(CLASSES)}
EVAL = EvalSection()


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
                              EVAL.iou_threshold, batch_size=2)
    assert [row[:3] for row in table.per_sample] == list(zip(
        samples.object_ids, samples.pose_ids, samples.class_ids))
    by_class: dict[str, list[float]] = {}
    for _, _, class_id, iou in table.per_sample:
        by_class.setdefault(class_id, []).append(iou)
    assert table.rows == tuple((c, float(np.mean(v)), len(v))
                               for c, v in sorted(by_class.items()))
    assert table.overall == float(np.mean([row[1] for row in table.rows]))


def per_sample(batch):
    """Each sample's prior grid."""
    return batch.grids[batch.rows]


def test_the_corrupted_prior_walks_cyclically_from_the_last_class_to_the_first():
    batch = evaluate.prior_batch(list(CLASSES), PRIORS, "corrupted", CLASSES)
    assert np.array_equal(per_sample(batch), np.stack([PRIORS[c] for c in "bca"]))
    batch = evaluate.prior_batch(["c", "a"], PRIORS, "correct", CLASSES)
    assert np.array_equal(per_sample(batch), np.stack([PRIORS["c"], PRIORS["a"]]))
    with pytest.raises(ValueError, match="unknown prior mode 'wrong'"):
        evaluate.prior_batch(["a"], PRIORS, "wrong", CLASSES)


def test_a_prior_batch_holds_each_class_it_gives_once():
    batch = evaluate.prior_batch(["c", "a", "c", "c"], PRIORS, "correct",
                                 CLASSES)
    assert np.array_equal(batch.grids, np.stack([PRIORS["a"], PRIORS["c"]]))
    assert batch.rows.tolist() == [1, 0, 1, 1]
    # The corrupted mode gives "b" to the samples of "a", and "a" to "c".
    batch = evaluate.prior_batch(["c", "a", "c"], PRIORS, "corrupted", CLASSES)
    assert np.array_equal(batch.grids, np.stack([PRIORS["a"], PRIORS["b"]]))
    assert batch.rows.tolist() == [0, 1, 0]


def test_prior_batch_is_none_in_mode_none():
    assert evaluate.prior_batch(["a", "b"], PRIORS, "none", CLASSES) is None


@pytest.mark.parametrize("object_ids", [["a0", "a0"], ["a0", "a1"]],
                         ids=["no_different_object_pair",
                              "no_same_object_pair"])
def test_cosine_report_raises_on_a_class_lacking_a_kind_of_pair(net_store,
                                                               object_ids):
    samples = _samples(object_ids + ["b0", "b0", "b1"], ["a", "a", "b", "b", "b"])
    with pytest.raises(ValueError, match="'a' lacks same- or different-object"):
        evaluate.cosine_report(*net_store, samples, PRIORS, "correct", CLASSES,
                               EVAL.batch_size)


def test_cosine_report_counts_the_pairs_of_each_kind(net_store):
    samples = _samples(["a0", "a0", "a1"], ["a", "a", "a"])
    report = evaluate.cosine_report(*net_store, samples, PRIORS, "correct",
                                    CLASSES, EVAL.batch_size)
    assert [(row[0], *row[3:]) for row in report.rows] == [("a", 1, 2)]
