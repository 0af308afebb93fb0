"""Measurement surfaces: per-class IoU tables and same/different-object
cosine-similarity reports.

Scoring is separate from the forward pass: `binarized_predictions` is the
one loop that runs the network and thresholds its output, and `iou_table`
scores any bool prediction stack, the network's or one it did not produce
(the binarized prior, say), with one `voxel.iou` call.  `train` and `eval`
both score an arm through `trainer.ExperimentContext.eval_table`, which runs
the two, and `cosine_report` in `eval`; `eval_iou`, the two in sequence,
stays for `Infer` in `voxbench/workloads.py`.  The reports put each class's
`voxel.proximity` beside its score (`trainer.write_iou_reports`).

Every forward pass here gets the prior batch that `prior_mode` assigns,
or none in mode "none", the mode of the no-prior network.  `prior_batch`
builds every prior batch of a run, here and in training: one grid per
class the batch's samples receive, and each sample's row into them.

Evaluation is read-only over parameter snapshots and fully deterministic;
aggregates are always accompanied by their per-sample rows so every table
can be re-derived externally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import SampleArrays
from .model import GridBatch, Network
from .nn import ParamStore
from .voxel import iou

def prior_batch(class_ids, priors_by_class: dict[str, np.ndarray],
                mode: str, all_classes: tuple[str, ...]) -> GridBatch | None:
    """The prior input of the samples of `class_ids`: the (1, D, D, D) grid
    of each class they receive, once, in class-name order, and each
    sample's row.  A sample receives its own class's prior in mode
    "correct"; in mode "corrupted" the next class's, walking `all_classes`
    cyclically so runs are reproducible; none in mode "none"."""
    if mode == "none":
        return None
    if mode == "corrupted":
        class_ids = [all_classes[(all_classes.index(c) + 1) % len(all_classes)]
                     for c in class_ids]
    names, rows = np.unique(np.asarray(class_ids), return_inverse=True)
    return GridBatch(np.asarray([priors_by_class[c] for c in names],
                                dtype=np.float32), rows)


@dataclass(frozen=True)
class IouTable:
    threshold: float
    prior_mode: str
    rows: tuple[tuple[str, float, int], ...]       # (class, mean iou, count)
    overall: float                                  # mean of class means
    per_sample: tuple[tuple[str, int, str, float], ...]


@dataclass(frozen=True)
class CosineReport:
    # (class, same-object mean, diff-object mean, same pairs, diff pairs)
    rows: tuple[tuple[str, float, float, int, int], ...]


def _batched(net: Network, run, store: ParamStore, samples: SampleArrays,
             priors_by_class, prior_mode: str, all_classes: tuple[str, ...],
             batch_size: int):
    """Yield (slice, run(images, priors, store)) over the sample stack in
    fixed-size batches, once the store is checked against `net`."""
    net.check_store(store)
    n = len(samples)
    for start in range(0, n, batch_size):
        sl = slice(start, min(start + batch_size, n))
        priors = prior_batch(samples.class_ids[sl], priors_by_class,
                             prior_mode, all_classes)
        yield sl, run(samples.images[sl], priors, store)


def binarized_predictions(net: Network, store: ParamStore,
                          samples: SampleArrays, priors_by_class,
                          prior_mode: str, all_classes: tuple[str, ...],
                          threshold: float, batch_size: int) -> np.ndarray:
    """(n, D, D, D) bool: each sample's prediction above `threshold`."""
    return np.concatenate([prediction > threshold for _, prediction in _batched(
        net, net.forward, store, samples, priors_by_class, prior_mode,
        all_classes, batch_size)])


def iou_table(occupied: np.ndarray, samples: SampleArrays, threshold: float,
              prior_mode: str) -> IouTable:
    """Per-sample IoU of the (n, D, D, D) bool stack `occupied` against the
    samples' ground truth, aggregated per class; the overall score is the
    mean of class means.  The table records `threshold` and `prior_mode`."""
    truth = samples.volumes.grids[:, 0] > 0.5
    values = iou(occupied, truth[samples.volumes.rows]).tolist()
    per_sample = tuple(zip(samples.object_ids, samples.pose_ids,
                           samples.class_ids, values))
    by_class: dict[str, list[float]] = {}
    for class_id, value in zip(samples.class_ids, values):
        by_class.setdefault(class_id, []).append(value)
    rows = tuple((c, float(np.mean(v)), len(v))
                 for c, v in sorted(by_class.items()))
    overall = float(np.mean([r[1] for r in rows]))
    return IouTable(threshold, prior_mode, rows, overall, per_sample)


def eval_iou(net: Network, store: ParamStore, samples: SampleArrays,
             priors_by_class: dict[str, np.ndarray], prior_mode: str,
             all_classes: tuple[str, ...], threshold: float,
             batch_size: int) -> IouTable:
    """The IoU table of the network's binarized predictions."""
    return iou_table(binarized_predictions(
        net, store, samples, priors_by_class, prior_mode, all_classes,
        threshold, batch_size), samples, threshold, prior_mode)


def cosine_report(net: Network, store: ParamStore, samples: SampleArrays,
                  priors_by_class: dict[str, np.ndarray], prior_mode: str,
                  all_classes: tuple[str, ...],
                  batch_size: int) -> CosineReport:
    """Exhaustive intra-class cosine similarities of fused latents:
    same-object pairs are views of one object, different-object pairs
    cross objects within a class."""
    latents = [e_fused for _, e_fused in _batched(
        net, net.encode, store, samples, priors_by_class, prior_mode,
        all_classes, batch_size)]
    fused = np.concatenate(latents, axis=0).astype(np.float64)
    norms = np.linalg.norm(fused, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm latent; cosine report undefined")
    unit = fused / norms

    rows = []
    obj_arr = np.asarray(samples.object_ids)
    cls_arr = np.asarray(samples.class_ids)
    for class_id in sorted(set(samples.class_ids)):
        members = np.flatnonzero(cls_arr == class_id)
        gram = unit[members] @ unit[members].T
        same_mask = obj_arr[members][:, None] == obj_arr[members][None, :]
        upper = np.triu(np.ones_like(gram, dtype=bool), k=1)
        same_pairs = upper & same_mask
        diff_pairs = upper & ~same_mask
        rows.append((class_id,
                     float(gram[same_pairs].mean()),
                     float(gram[diff_pairs].mean()),
                     int(same_pairs.sum()), int(diff_pairs.sum())))
    return CosineReport(tuple(rows))
