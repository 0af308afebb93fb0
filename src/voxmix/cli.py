"""Command-line entry point.

Every experiment is a config file plus a subcommand; outputs land only
under the run directory (``$VOXMIX_RUN_ROOT/<run_name>``, default root
``./runs``).  Exit codes: 0 ok, 1 usage error, 2 config error, 3 missing
or unreadable input artifact, 4 numeric failure.  Every bad config value
exits 2 when the config is loaded, before any work, and the message names
its key: an unknown key, a value its section rejects, a size the network's
strides do not divide, an unknown pipeline, or a split that breaks the
rules across `data` fields (class lists, shots per class).  A bad
`--alphas` exits 2 as well.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import corpus, evaluate, mixup, runs, trainer, verification, voxel
from .config import ConfigError, ExperimentConfig, MixupSection, load_config
from .nn import NumericError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="voxmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name, help_text, needs_config=True, pipeline=None):
        p = sub.add_parser(name, help=help_text)
        if pipeline:
            p.add_argument("--pipeline", default=None,
                           choices=sorted(trainer.PIPELINES), help=pipeline)
        if needs_config:
            p.add_argument("--config", required=True,
                           help="path to the experiment config file")
            p.add_argument("-o", "--override", action="append", default=[],
                           metavar="KEY=VALUE",
                           help="config override, applied after the file")
        p.add_argument("--run-root", default=None,
                       help=f"run root directory (default ${runs.RUN_ROOT_ENV} "
                            "or ./runs)")
        return p

    add("gen-data", "generate the synthetic dataset")
    add("build-priors", "write the few-shot split and per-class priors")
    add("pretrain-gt", "pretrain the volume encoder, replacing its checkpoint")
    p = add("train", "run the configured training pipeline",
            pipeline="override the configured pipeline")
    p.add_argument("--all", action="store_true",
                   help="train all four pipelines, sharing stage prefixes")
    trained = "the trained pipeline (default: the configured one)"
    p = add("eval", "evaluate a trained checkpoint on the query set",
            pipeline=trained)
    p.add_argument("--dump-predictions", action="store_true",
                   help="also write binarized predictions as binvox files")
    add("analyze-latent", "same/different-object cosine report",
        pipeline=trained)
    add("proximity", "join class proximity with the evaluated IoU table",
        pipeline=trained)
    p = add("alpha-sweep", "IoU of both mixing stages across mixing ratios; "
            "the base stage trains once for all of them")
    p.add_argument("--alphas", default="0.2,0.4,1.0",
                   help="comma-separated Beta-distribution parameters")
    p = add("mix-preview", "dump mixed images and volumes for inspection")
    p.add_argument("--pairs", type=int, default=4)
    p = add("grad-check", "finite-difference check of all layers and losses",
            needs_config=False)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--probes", type=int, default=20)
    return parser


def _load(args) -> tuple[ExperimentConfig, runs.RunPaths]:
    config = load_config(args.config, args.override)
    # Each section checked its own values; these rules span sections or
    # fields (network strides, pipelines, the split), so they run last.
    try:
        trainer.network_config(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if config.train.pipeline not in trainer.PIPELINES:
        raise ConfigError(f"train.pipeline: unknown pipeline "
                          f"{config.train.pipeline!r}, not one of "
                          f"{tuple(trainer.PIPELINES)}")
    data = config.data
    known, base, novel = (set(c) for c in (data.classes, data.base_classes,
                                           data.novel_classes))
    for key, bad, why in (
            ("data.base_classes", base - known, "not in data.classes"),
            ("data.novel_classes", novel - known, "not in data.classes"),
            ("data.novel_classes", novel & base, "also in data.base_classes")):
        if bad:
            raise ConfigError(f"{key}: {sorted(bad)} {why}")
    if data.shots >= data.objects_per_class:
        raise ConfigError(f"data.shots: {data.shots} shots leave no query "
                          f"object of {data.objects_per_class} per class")
    paths = runs.RunPaths.for_config(config, args.run_root)
    return config, paths


def _trained(args):
    """(config, paths, pipeline, context, parameters) of the trained
    pipeline that `args` names."""
    config, paths = _load(args)
    pipeline = args.pipeline or config.train.pipeline
    stage = trainer.PIPELINES[pipeline][-1]
    ckpt = paths.checkpoints_dir / f"{pipeline}_stage{stage}.ckpt"
    if not ckpt.exists():
        raise runs.MissingArtifactError(
            f"no checkpoint at {ckpt}; run train first")
    store, _ = trainer.load_stage_checkpoint(ckpt, config, expect_hash=False)
    ctx = trainer.ExperimentContext.load(config, paths)
    return config, paths, pipeline, ctx, store


def cmd_gen_data(args) -> int:
    config, paths = _load(args)
    paths.ensure_dirs()
    paths.write_resolved_config(config)
    manifest = corpus.build_dataset(
        paths.dataset_dir, config.data.classes, config.data.objects_per_class,
        config.data.poses_per_object, config.data.vox_dim,
        config.data.image_size, config.data.elevations, config.seed)
    print(f"wrote {len(manifest.records)} records under {paths.dataset_dir}")
    return EXIT_OK


def cmd_build_priors(args) -> int:
    config, paths = _load(args)
    manifest = runs.load_manifest(paths)
    split = corpus.make_split(manifest, config.data.base_classes,
                              config.data.novel_classes, config.data.shots,
                              config.seed)
    split.save(paths.split_path)
    paths.priors_dir.mkdir(parents=True, exist_ok=True)
    for class_id in config.data.classes:
        object_ids = split.train_objects[class_id]
        volumes = corpus.load_object_volumes(manifest, object_ids)
        prior = voxel.build_prior([volumes[o] for o in object_ids],
                                  config.prior.threshold)
        voxel.save_binvox(prior, paths.prior_path(class_id))
    print(f"wrote split and {len(config.data.classes)} priors under {paths.root}")
    return EXIT_OK


def cmd_pretrain_gt(args) -> int:
    config, paths = _load(args)
    ctx = trainer.ExperimentContext.load(config, paths)
    _, history = trainer.pretrain_gt_encoder(ctx)
    last = history[-1] if history else float("nan")
    print(f"pretrained volume encoder for {len(history)} epochs "
          f"(final loss {last:.4f}) -> "
          f"{paths.checkpoints_dir / trainer.GT_ENCODER_CHECKPOINT}")
    return EXIT_OK


def cmd_train(args) -> int:
    config, paths = _load(args)
    pipelines = tuple(trainer.PIPELINES) if args.all \
        else (args.pipeline or config.train.pipeline,)
    for name, result in trainer.run_ablation(config, paths, pipelines).items():
        print(f"{name}: novel average IoU {result.final_table.overall:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config, paths, pipeline, ctx, store = _trained(args)
    table = ctx.eval_table(store)
    trainer.write_iou_reports(paths, pipeline, table)
    if args.dump_predictions:
        dump_dir = paths.reports_dir / f"{pipeline}_predictions"
        dump_dir.mkdir(parents=True, exist_ok=True)
        grids = evaluate.predictions_as_grids(
            ctx.net, store, ctx.query_samples, ctx.priors_by_class,
            trainer.effective_prior_mode(config), config.data.classes,
            config.eval.iou_threshold, config.eval.batch_size)
        for object_id, pose_id, grid in grids:
            voxel.save_binvox(grid, dump_dir / f"{object_id}_p{pose_id}.binvox")
    for class_id, mean_iou, count in table.rows:
        print(f"{class_id:10s} {mean_iou:.4f}  (n={count})")
    print(f"{'average':10s} {table.overall:.4f}  [prior mode: {table.prior_mode}]")
    return EXIT_OK


def cmd_analyze_latent(args) -> int:
    config, paths, pipeline, ctx, store = _trained(args)
    samples = corpus.load_samples(ctx.manifest, list(ctx.manifest.records))
    report = evaluate.cosine_report(ctx.net, store, samples, ctx.priors_by_class,
                                    trainer.effective_prior_mode(config),
                                    config.data.classes, config.eval.batch_size)
    runs.write_csv(paths.reports_dir / f"{pipeline}_cosine.csv",
                   ("class", "same_obj_mean", "diff_obj_mean", "same_pairs",
                    "diff_pairs"), report.rows)
    for class_id, same, diff, n_same, n_diff in report.rows:
        print(f"{class_id:10s} same-object {same:.4f} ({n_same} pairs)  "
              f"different-object {diff:.4f} ({n_diff} pairs)")
    return EXIT_OK


def cmd_proximity(args) -> int:
    config, paths = _load(args)
    pipeline = args.pipeline or config.train.pipeline
    table_path = paths.reports_dir / f"{pipeline}_iou.csv"
    if not table_path.exists():
        raise runs.MissingArtifactError(
            f"no IoU table at {table_path}; run eval first")
    manifest = runs.load_manifest(paths)
    split = runs.load_split(paths)
    novel, base = [], []
    for class_id in split.novel_classes:
        objs = split.train_objects[class_id] + split.query_objects[class_id]
        for obj, grid in corpus.load_object_volumes(manifest, objs).items():
            novel.append((obj, class_id, grid))
    for class_id in split.base_classes:
        vols = corpus.load_object_volumes(manifest, split.train_objects[class_id])
        base.extend(vols.items())
    rows = evaluate.proximity_join(voxel.proximity(novel, base),
                                   _read_iou_csv(table_path))
    runs.write_csv(paths.reports_dir / f"{pipeline}_proximity.csv",
                   ("class", "proximity", "iou"), rows)
    for class_id, prox_value, iou_value in rows:
        print(f"{class_id:10s} proximity {prox_value:.4f}  iou {iou_value:.4f}")
    return EXIT_OK


def _read_iou_csv(path: Path) -> dict[str, float]:
    import csv
    values: dict[str, float] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            try:
                if row["class"] != "__average__":
                    values[row["class"]] = float(row["mean_iou"])
            except (KeyError, TypeError, ValueError) as exc:
                raise runs.MissingArtifactError(
                    f"{path}: unreadable IoU table ({exc!r})") from exc
    return values


def cmd_alpha_sweep(args) -> int:
    config, paths = _load(args)
    try:
        alphas = tuple(MixupSection(float(a)).alpha
                       for a in args.alphas.split(","))
    except ValueError as exc:
        raise ConfigError(f"--alphas: {exc}") from None
    if len(set(alphas)) < len(alphas):
        raise ConfigError(f"--alphas: {args.alphas!r} names an alpha twice")
    results = trainer.run_ablation(config, paths, ("input_mix", "latent_mix"),
                                   alphas)
    iou = {(r.pipeline, r.config.mixup.alpha): r.final_table.overall
           for r in results.values()}
    rows = [(a, iou["input_mix", a], iou["latent_mix", a]) for a in alphas]
    runs.write_csv(paths.reports_dir / "alpha_sweep.csv",
                   ("alpha", "input_mix_iou", "latent_mix_iou"), rows)
    for alpha, in_iou, lat_iou in rows:
        print(f"alpha={alpha:<4g} input-mix {in_iou:.4f}  latent-mix {lat_iou:.4f}")
    return EXIT_OK


def cmd_mix_preview(args) -> int:
    config, paths = _load(args)
    ctx = trainer.ExperimentContext.load(config, paths)
    pool = ctx.train_pool
    rng = trainer.stream_rng(config.seed, trainer.STAGE_INPUT_MIX)
    count = min(args.pairs, len(pool))
    pairs = mixup.pair_batch(count, config.mixup.alpha, rng)
    out_dir = paths.reports_dir / "mix_preview"
    out_dir.mkdir(parents=True, exist_ok=True)
    from .render import write_pgm
    volumes = pool.samples.volumes[:count]
    priors = np.zeros_like(volumes) if pool.priors is None \
        else pool.priors[:count]
    images = mixup.apply_pairs(pool.samples.images[:count], pairs)
    priors = mixup.apply_pairs(priors, pairs)
    volumes = mixup.apply_pairs(volumes, pairs)
    for k in range(len(pairs)):
        write_pgm(images[k, 0], out_dir / f"pair{k}_sil.pgm")
        write_pgm(images[k, 1], out_dir / f"pair{k}_dep.pgm")
        mixup.write_vgrid(priors[k, 0], out_dir / f"pair{k}_prior.vgrid")
        mixup.write_vgrid(volumes[k, 0], out_dir / f"pair{k}_volume.vgrid")
    ids = pool.samples.object_ids
    runs.write_csv(out_dir / "pairs.csv",
                   ("pair", "i", "j", "lam", "object_i", "object_j"),
                   [(k, p.i, p.j, p.lam, ids[p.i], ids[p.j])
                    for k, p in enumerate(pairs)])
    print(f"wrote {count} mixed pairs under {out_dir}")
    return EXIT_OK


def cmd_grad_check(args) -> int:
    reports = verification.run_standard_checks(args.tolerance, args.probes)
    worst = max(reports, key=lambda item: item[1].max_rel_error)
    for name, report in reports:
        print(f"{name:28s} max rel error {report.max_rel_error:.3e}")
    overall = worst[1].max_rel_error
    ok = all(report.passed for _, report in reports)
    print(f"{'PASS' if ok else 'FAIL'}: max relative error {overall:.3e} "
          f"({worst[0]}) at tolerance {args.tolerance:.1e}")
    if not ok:
        raise NumericError("gradient check failed")
    return EXIT_OK


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "build-priors": cmd_build_priors,
    "pretrain-gt": cmd_pretrain_gt,
    "train": cmd_train,
    "eval": cmd_eval,
    "analyze-latent": cmd_analyze_latent,
    "proximity": cmd_proximity,
    "alpha-sweep": cmd_alpha_sweep,
    "mix-preview": cmd_mix_preview,
    "grad-check": cmd_grad_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except runs.MissingArtifactError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
