"""Command-line entry point.

Every experiment is a config file plus a subcommand; outputs land only
under the run directory (``$VOXMIX_RUN_ROOT/<run_name>``, default root
``./runs``).  Exit codes: 0 ok, 1 usage error, 2 config error, 3 missing,
unreadable or stale input artifact, 4 numeric failure.  The dataset is the
one input file that can be stale: written under other values of the config
fields `gen-data` reads.  The split and the priors are derived from it and
the config on every run, so no file of theirs is read.  On exit 3 the
message names the file and, for a missing or stale one, the command that
writes it.  Every bad config value exits 2 when the config is loaded,
before any work, and the message names its key: an unknown key, a value
its section rejects, a `run_name` that is not one directory name, a size
the network's strides do not divide, an unknown pipeline, or a split that
breaks the rules across `data` fields (an empty class list, a class in
both lists or in neither, shots per class).  A bad `--alphas` exits 2 as
well, and so do two alphas that name one arm.  A flag value no run can honour
(a count below one, a tolerance that is not a finite positive number,
`train --all` with `--pipeline`) exits 1 before any work, and the message
names the flag.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import corpus, evaluate, mixup, runs, trainer, verification
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


def _checked(kind, accept, what: str):
    """An argparse `type=` that parses with `kind` and refuses, naming the
    flag, a value that fails to parse or that `accept` rejects."""
    def parse(text: str):
        try:
            if accept(value := kind(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_COUNT = _checked(int, lambda value: value >= 1, "an integer >= 1")
_TOLERANCE = _checked(float, lambda value: 0.0 < value < float("inf"),
                      "a finite number > 0")


def _build_parser() -> _Parser:
    parser = _Parser(prog="voxmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add_pipeline(p, help_text):
        p.add_argument("--pipeline", default=None,
                       choices=sorted(trainer.PIPELINES), help=help_text)

    def add(name, help_text, needs_config=True, pipeline=None):
        p = sub.add_parser(name, help=help_text)
        if pipeline:
            add_pipeline(p, pipeline)
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
    add("build-priors", "write the per-class priors of the few-shot split "
        "to priors.npz for inspection; every command derives them itself")
    add("pretrain-gt", "pretrain the volume encoder, replacing its checkpoint")
    which = add("train", "run the configured training pipeline") \
        .add_mutually_exclusive_group()
    add_pipeline(which, "override the configured pipeline")
    which.add_argument("--all", action="store_true",
                       help="train all four pipelines, sharing stage prefixes")
    trained = "the trained pipeline (default: the configured one)"
    p = add("eval", "evaluate a trained checkpoint on the query set",
            pipeline=trained)
    p.add_argument("--dump-predictions", action="store_true",
                   help="also write the binarized predictions to "
                        "reports/<pipeline>_predictions.npz")
    add("analyze-latent", "same/different-object cosine report",
        pipeline=trained)
    p = add("alpha-sweep", "IoU of both mixing stages across mixing ratios; "
            "the base stage trains once for all of them")
    p.add_argument("--alphas", default="0.2,0.4,1.0",
                   help="comma-separated Beta-distribution parameters")
    p = add("mix-preview", "dump mixed images and volumes for inspection")
    p.add_argument("--pairs", type=_COUNT, default=4)
    p = add("grad-check", "finite-difference check of all layers and losses",
            needs_config=False)
    p.add_argument("--tolerance", type=_TOLERANCE, default=1e-4)
    p.add_argument("--probes", type=_COUNT, default=20)
    return parser


def _load(args) -> tuple[ExperimentConfig, runs.RunPaths]:
    config = load_config(args.config, args.override)
    if config.run_name in ("", ".", "..") or any(c in config.run_name
                                                  for c in "/\0"):
        raise ConfigError(f"run_name: {config.run_name!r} is not one "
                          "directory name under the run root")
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
    for key, names in (("data.base_classes", data.base_classes),
                       ("data.novel_classes", data.novel_classes)):
        if not names:
            raise ConfigError(f"{key}: names no class")
    known, base, novel = (set(c) for c in (data.classes, data.base_classes,
                                           data.novel_classes))
    for key, bad, why in (
            ("data.base_classes", base - known, "not in data.classes"),
            ("data.novel_classes", novel - known, "not in data.classes"),
            ("data.novel_classes", novel & base, "also in data.base_classes"),
            ("data.classes", known - base - novel,
             "in neither data.base_classes nor data.novel_classes")):
        if bad:
            raise ConfigError(f"{key}: {sorted(bad)} {why}")
    if data.shots >= data.objects_per_class:
        raise ConfigError(f"data.shots: {data.shots} shots leave no query "
                          f"object of {data.objects_per_class} per class")
    paths = runs.RunPaths.for_config(config, args.run_root)
    return config, paths


def _trained(args):
    """(config, paths, pipeline, context, parameters, checkpoint metadata)
    of the trained pipeline that `args` names."""
    config, paths = _load(args)
    pipeline = args.pipeline or config.train.pipeline
    store, metadata = trainer.load_stage_checkpoint(
        paths.checkpoint_path(pipeline, trainer.PIPELINES[pipeline][-1]), config)
    ctx = trainer.ExperimentContext.load(config, paths)
    return config, paths, pipeline, ctx, store, metadata


def cmd_gen_data(args) -> int:
    config, paths = _load(args)
    paths.ensure_dirs()
    paths.write_resolved_config(config)
    data = config.data
    manifest = corpus.build_dataset(
        data.classes, data.objects_per_class, data.poses_per_object,
        data.vox_dim, data.image_size, data.elevations, config.seed)
    runs.save_dataset(paths, manifest, config)
    print(f"wrote {len(manifest.records)} records to {paths.dataset_path}")
    return EXIT_OK


def cmd_build_priors(args) -> int:
    config, paths = _load(args)
    manifest = runs.load_manifest(paths, config)
    split = corpus.make_split(manifest, config.data.base_classes,
                              config.data.novel_classes, config.data.shots,
                              config.seed)
    priors = corpus.class_priors(manifest, split, config.prior.threshold)
    runs.save_priors(paths, priors, split.train_objects)
    print(f"wrote {len(priors)} priors under {paths.root}")
    return EXIT_OK


def cmd_pretrain_gt(args) -> int:
    config, paths = _load(args)
    ctx = trainer.ExperimentContext.load(config, paths)
    _, history = trainer.pretrain_gt_encoder(ctx)
    done = (f"pretrained volume encoder for {len(history)} epochs "
            f"(final loss {history[-1]:.4f})" if history else
            "no pretraining ran (train.pretrain_epochs = 0)")
    print(f"{done} -> {paths.checkpoints_dir / trainer.GT_ENCODER_CHECKPOINT}")
    return EXIT_OK


def cmd_train(args) -> int:
    config, paths = _load(args)
    pipelines = tuple(trainer.PIPELINES) if args.all \
        else (args.pipeline or config.train.pipeline,)
    for name, result in trainer.run_ablation(config, paths, pipelines).items():
        print(f"{name}: novel average IoU {result.final_table.overall:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config, paths, pipeline, ctx, store, metadata = _trained(args)
    query = ctx.query_samples
    predictions = evaluate.binarized_predictions(
        ctx.net, store, query, ctx.priors_by_class, config.prior.mode,
        config.data.classes, config.eval.iou_threshold, config.eval.batch_size)
    table = evaluate.iou_table(predictions, query, config.eval.iou_threshold,
                               config.prior.mode)
    proximity = ctx.proximity()
    trainer.write_iou_reports(paths, pipeline, table, proximity)
    if args.dump_predictions:
        runs.save_archive(paths.reports_dir / f"{pipeline}_predictions.npz",
                          {"object_ids": query.object_ids,
                           "pose_ids": query.pose_ids,
                           "threshold": config.eval.iou_threshold},
                          {"predictions": predictions})
    for class_id, mean_iou, count in table.rows:
        print(f"{class_id:10s} {mean_iou:.4f}  (n={count})  "
              f"proximity {proximity[class_id]:.4f}")
    # Checkpoints written before the training prior mode was recorded lack it.
    trained_under = metadata.get("prior_mode", "not recorded")
    print(f"{'average':10s} {table.overall:.4f}  [prior mode: "
          f"{table.prior_mode}; trained under: {trained_under}]")
    return EXIT_OK


def cmd_analyze_latent(args) -> int:
    config, paths, pipeline, ctx, store, _ = _trained(args)
    samples = corpus.load_samples(ctx.manifest, list(ctx.manifest.records))
    report = evaluate.cosine_report(ctx.net, store, samples, ctx.priors_by_class,
                                    config.prior.mode, config.data.classes,
                                    config.eval.batch_size)
    runs.write_csv(paths.reports_dir / f"{pipeline}_cosine.csv",
                   ("class", "same_obj_mean", "diff_obj_mean", "same_pairs",
                    "diff_pairs"), report.rows)
    for class_id, same, diff, n_same, n_diff in report.rows:
        print(f"{class_id:10s} same-object {same:.4f} ({n_same} pairs)  "
              f"different-object {diff:.4f} ({n_diff} pairs)")
    return EXIT_OK


def cmd_alpha_sweep(args) -> int:
    config, paths = _load(args)
    try:
        alphas = tuple(MixupSection(float(a)).alpha
                       for a in args.alphas.split(","))
    except ValueError as exc:
        raise ConfigError(f"--alphas: {exc}") from None
    pipelines = ("input_mix", "latent_mix")
    arms = [trainer.arm_name(pipelines[0], alpha) for alpha in alphas]
    if len(set(arms)) < len(arms):
        raise ConfigError(f"--alphas: {args.alphas!r} names two alphas of "
                          "one arm name")
    results = trainer.run_ablation(config, paths, pipelines, alphas)
    rows = [(alpha, *(results[trainer.arm_name(p, alpha)].final_table.overall
                      for p in pipelines)) for alpha in alphas]
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
    plan = partners, ratios = mixup.pair_batch(count, config.mixup.alpha, rng)
    out_dir = paths.reports_dir / "mix_preview"
    out_dir.mkdir(parents=True, exist_ok=True)
    volumes = pool.samples.volumes[:count]
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
    return EXIT_OK


def cmd_grad_check(args) -> int:
    start = time.perf_counter()
    reports = verification.run_standard_checks(args.tolerance, args.probes)
    worst = max(reports, key=lambda item: item[1].max_rel_error)
    for name, report in reports:
        print(f"{name:28s} max rel error {report.max_rel_error:.3e}")
    overall, calls = worst[1].max_rel_error, sum(r.loss_calls for _, r in reports)
    ok = all(report.passed for _, report in reports)
    print(f"{'PASS' if ok else 'FAIL'}: max relative error {overall:.3e} "
          f"({worst[0]}) at tolerance {args.tolerance:.1e}; {calls} loss calls "
          f"in {time.perf_counter() - start:.1f} s")
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
