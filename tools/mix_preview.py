"""Write the first N training samples, mixed as the input-mixing stage
mixes its first batch, to reports/mix_preview/: pairs.npz, the float32
images (N, 2, H, W), priors and volumes (N, D, D, D), and pairs.csv.

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
    out_dir = paths.reports_dir / "mix_preview"
    out_dir.mkdir(parents=True, exist_ok=True)
    volumes = pool.samples.volumes
    volumes = volumes.grids[volumes.rows[:count]]
    priors = np.zeros_like(volumes) if pool.priors is None \
        else pool.priors.grids[pool.priors.rows[:count]]
    runs.save_archive(out_dir / "pairs.npz", {}, {
        "images": mixup.apply_pairs(pool.samples.images[:count], plan),
        "priors": mixup.apply_pairs(priors, plan)[:, 0],
        "volumes": mixup.apply_pairs(volumes, plan)[:, 0]})
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
