"""Training that learns: on the learn config every pipeline's novel IoU
clears the all-occupied floor by a margin, and every stage's loss falls.

No other check can tell a network that learns from one that does not: the
tiny config's IoUs sit at the floor, and `voxmix grad-check` checks
gradients, not the data a step sees.  A floor test cannot see whether the
network uses its image, though: pairing each image with another sample's
prior and volume still passes it.
"""

import csv

import numpy as np
import pytest
from conftest import LEARN_OVERRIDES, TinyRun

from voxmix import cli, evaluate, trainer

# Fixed, with the seeds, from seeds 0-4 before any change was tested against
# them: the floor read 0.066-0.084 and an arm's lead over it 0.069-0.676, at
# least 0.232 at seeds 0, 1, 3 and 4.  Seeds 0 and 1 fit the time budget.
SEEDS = (0, 1)
MARGIN = 0.1


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("seed", SEEDS)
def test_every_pipeline_beats_the_floor_and_every_stage_loss_falls(
        tmp_path, seed):
    run = TinyRun(tmp_path, {**LEARN_OVERRIDES, "seed": str(seed)})
    run.write_config()
    assert run.voxmix("gen-data") == cli.EXIT_OK
    assert run.voxmix("train", "--all") == cli.EXIT_OK

    ctx = trainer.ExperimentContext.load(run.config, run.paths)
    query = ctx.query_samples
    floor = evaluate.iou_table(
        np.ones((len(query),) + (run.config.data.vox_dim,) * 3, bool), query,
        run.config.eval.iou_threshold, run.config.prior.mode).overall
    for arm in trainer.PIPELINES:
        average = _rows(run.paths.iou_path(arm))[-1]
        assert average["class"] == "__average__"
        assert float(average["mean_iou"]) > floor + MARGIN, (arm, floor)
        log = _rows(run.paths.logs_dir / f"{arm}_train.csv")
        for stage in trainer.PIPELINES[arm]:
            epochs = {}
            for row in log:
                if int(row["stage"]) == stage:
                    epochs.setdefault(int(row["epoch"]), []).append(
                        float(row["total"]))
            first, last = epochs[min(epochs)], epochs[max(epochs)]
            assert np.mean(last) < np.mean(first), (arm, stage)
