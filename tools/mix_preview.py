"""Write the first N training samples, mixed by `trainer.mix_inputs` under
one fresh stage-2 plan, to reports/mix_preview/: pairs.npz, the float32
images (N, 2, H, W), priors and volumes (N, D, D, D), and pairs.csv.
Prior mode "corrupted" exits 2, as `train` does.

    PYTHONPATH=src python tools/mix_preview.py --config FILE [--pairs N]
"""

import sys

import numpy as np

from voxmix import cli, mixup, runs, trainer


def preview(args) -> int:
    config, paths = cli.load(args)
    pool = trainer.ExperimentContext.load(config, paths).train_pool
    rng = trainer.stream_rng(config.seed, trainer.STAGE_INPUT_MIX)
    count = min(args.pairs, len(pool))
    plan = partners, ratios = mixup.pair_batch(count, config.mixup.alpha, rng)
    mixed = trainer.mix_inputs(pool.take(np.arange(count)), plan)
    volumes = mixed.volumes.grids[:, 0]
    priors = np.zeros_like(volumes) if mixed.priors is None \
        else mixed.priors.grids[:, 0]
    out_dir = paths.reports_dir / "mix_preview"
    out_dir.mkdir(parents=True, exist_ok=True)
    runs.save_archive(out_dir / "pairs.npz", {}, {
        "images": mixed.images, "priors": priors, "volumes": volumes})
    ids = pool.samples.object_ids
    runs.write_csv(out_dir / "pairs.csv",
                   ("pair", "i", "j", "lam", "object_i", "object_j"),
                   [(k, k, j, lam, ids[k], ids[j]) for k, (j, lam)
                    in enumerate(zip(partners.tolist(), ratios.tolist()))])
    print(f"wrote {count} mixed pairs under {out_dir}")
    return cli.EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = cli.Parser(prog="mix_preview.py", description=__doc__)
    cli.add_run_options(parser)
    parser.add_argument("--pairs", type=cli.COUNT, default=4)
    parser.set_defaults(handler=preview)
    return cli.run(parser, argv)


if __name__ == "__main__":
    sys.exit(main())
