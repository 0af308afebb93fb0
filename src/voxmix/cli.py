"""Command-line entry point: gen-data, build-priors, pretrain-gt, train,
eval and grad-check.

Every experiment is a config file plus a subcommand; outputs land only
under the run directory ``<--run-root or ./runs>/<run_name>``.  Each arm
`train` writes is named by `trainer.arm_name`: the pipeline, `_alpha<a>`
per value of `mixup.alpha` with `--alphas A,B`, and `_noprior` on the
no-prior network (`base`, `input_mix_alpha0.4`, `base_noprior`).  `eval`
reads the arms of its own network and writes their IoU and cosine reports
once it has computed them all.  `train` and `pretrain-gt` refuse
`prior.mode=corrupted` (exit 2), an `eval` mode.

Exit codes: 0 ok, 1 usage error, 2 config error, 3 missing, unreadable or
stale input artifact, 4 numeric failure.  The dataset is the one input
file that can be stale: written under other values of the config fields
`gen-data` reads.  The split and the priors are derived from it and the
config on every run, so no file of theirs is read.  On exit 3 the message
names the file and, for a missing or stale one, the command that writes
it.  Every bad config value exits 2 when the config is built, before any
work, and the message names its key: an unknown key, a value its section
rejects, a negative `seed`, a class that is no shape archetype, a
`run_name` that is not one directory name, a size the network's strides
do not divide, or a split that breaks the rules across `data` fields (an
empty class list, a class in both lists or in neither, shots per class).
A bad `--alphas` value exits 2 as well, and so do two alphas that name one
arm.  A flag value no run can honour (a count below one, a tolerance that
is not a finite positive number, `train --all` with `--pipeline`) exits 1
before any work, and the message names the flag.  `eval` also exits 1,
naming the file, when a stage checkpoint was trained under another config
or its parameters do not fit the configured network.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import corpus, runs, trainer, verification
from .config import ConfigError, ExperimentConfig, MixupSection, load_config
from .nn import NumericError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4


class Parser(argparse.ArgumentParser):
    """An argument parser whose errors `run` turns into exit 1."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


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


COUNT = _checked(int, lambda value: value >= 1, "an integer >= 1")
_TOLERANCE = _checked(float, lambda value: 0.0 < value < float("inf"),
                      "a finite number > 0")


def add_run_options(p: argparse.ArgumentParser) -> None:
    """The config file, its overrides and the run root, which `load` reads."""
    p.add_argument("--config", required=True,
                   help="path to the experiment config file")
    p.add_argument("-o", "--override", action="append", default=[],
                   metavar="KEY=VALUE", help="config override, after the file")
    p.add_argument("--run-root", help="run root directory (default ./runs)")


def _build_parser() -> Parser:
    parser = Parser(prog="voxmix", description=__doc__)
    sub = parser.add_subparsers(metavar="COMMAND")

    def add(name, handler, help_text, needs_config=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if needs_config:
            add_run_options(p)
        return p

    def add_arms(p, group, help_text):
        group.add_argument("--pipeline", choices=sorted(trainer.PIPELINES),
                           default="dual_mix",
                           help=f"{help_text} (default: %(default)s)")
        p.add_argument("--alphas", metavar="A,B", help="comma-separated "
                       "values of mixup.alpha: one arm per pipeline and alpha")

    add("gen-data", cmd_gen_data, "generate the synthetic dataset")
    add("build-priors", cmd_build_priors, "write the class priors, which "
        "every command derives itself, to priors.npz for inspection")
    add("pretrain-gt", cmd_pretrain_gt,
        "pretrain the volume encoder, replacing its checkpoint")
    p = add("train", cmd_train, "train one pipeline, or all four")
    which = p.add_mutually_exclusive_group()
    add_arms(p, which, "the pipeline to train")
    which.add_argument("--all", action="store_true",
                       help="train all four pipelines, sharing stage prefixes")
    p = add("eval", cmd_eval, "IoU and cosine reports of trained arms")
    add_arms(p, p, "the trained pipeline")
    p.add_argument("--dump-predictions", action="store_true", help="also "
                   "write the binarized predictions to <arm>_predictions.npz")
    p = add("grad-check", cmd_grad_check, "finite-difference check of all "
            "layers and losses", needs_config=False)
    p.add_argument("--tolerance", type=_TOLERANCE, default=1e-4)
    p.add_argument("--probes", type=COUNT, default=20)
    return parser


def load(args) -> tuple[ExperimentConfig, runs.RunPaths]:
    """The config and run directory that `add_run_options`' flags name."""
    config = load_config(args.config, args.override)
    return config, runs.RunPaths.for_config(config, args.run_root)


def _alphas(args) -> tuple[float, ...]:
    """The `--alphas` values, none without the flag."""
    texts = () if args.alphas is None else args.alphas.split(",")
    try:
        alphas = tuple(MixupSection(float(text)).alpha for text in texts)
    except ValueError as exc:
        raise ConfigError(f"--alphas: {exc}") from None
    if len({trainer.arm_name("", alpha) for alpha in alphas}) < len(alphas):
        raise ConfigError(f"--alphas: {args.alphas!r} names two alphas of "
                          "one arm name")
    return alphas


def cmd_gen_data(args) -> int:
    config, paths = load(args)
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
    config, paths = load(args)
    manifest, data = runs.load_manifest(paths, config), config.data
    split = corpus.make_split(manifest, data.base_classes, data.novel_classes,
                              data.shots, config.seed)
    priors = corpus.class_priors(manifest, split, config.prior.threshold)
    runs.save_priors(paths, priors, split.train_objects)
    print(f"wrote {len(priors)} priors under {paths.root}")
    return EXIT_OK


def cmd_pretrain_gt(args) -> int:
    config, paths = load(args)
    ctx = trainer.ExperimentContext.load(config, paths)
    _, history = trainer.pretrain_gt_encoder(ctx)
    done = (f"pretrained volume encoder for {len(history)} epochs "
            f"(final loss {history[-1]:.4f})" if history else
            "no pretraining ran (train.pretrain_epochs = 0)")
    print(f"{done} -> {paths.checkpoints_dir / trainer.GT_ENCODER_CHECKPOINT}")
    return EXIT_OK


def cmd_train(args) -> int:
    config, paths = load(args)
    pipelines = tuple(trainer.PIPELINES) if args.all else (args.pipeline,)
    for name, result in trainer.run_ablation(config, paths, pipelines,
                                             _alphas(args)).items():
        print(f"{name}: novel average IoU {result.final_table.overall:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config, paths = load(args)
    stage = trainer.PIPELINES[args.pipeline][-1]
    arms = trainer.arm_configs(config, (args.pipeline,), _alphas(args))
    ctx = trainer.ExperimentContext.load(config, paths)
    views = corpus.load_samples(ctx.manifest, list(ctx.manifest.records))
    queried = set(ctx.split.all_query_objects())
    query = views.take([row for row, obj in enumerate(views.object_ids)
                        if obj in queried])
    reports = {}   # every arm's, before any is written
    for arm, (_, arm_config) in arms.items():
        store, _ = trainer.load_stage_checkpoint(
            paths.checkpoint_path(arm, stage), arm_config)
        reports[arm] = ctx.eval_table(store, query, views)
    for arm, (predictions, table, cosine) in reports.items():
        trainer.write_iou_reports(ctx, arm, table)
        if args.dump_predictions:
            runs.save_archive(paths.reports_dir / f"{arm}_predictions.npz", {
                "object_ids": query.object_ids, "pose_ids": query.pose_ids,
                "threshold": table.threshold, "prior_mode": table.prior_mode},
                {"predictions": predictions})
        runs.write_csv(paths.reports_dir / f"{arm}_cosine.csv",
                       ("class", "same_obj_mean", "diff_obj_mean",
                        "same_pairs", "diff_pairs", "prior_mode"),
                       [(*row, table.prior_mode) for row in cosine.rows])
        print(f"{arm}:")
        for class_id, mean_iou, count in table.rows:
            print(f"{class_id:10s} {mean_iou:.4f}  (n={count})  "
                  f"proximity {ctx.proximity[class_id]:.4f}")
        print(f"{'average':10s} {table.overall:.4f}  "
              f"[prior mode: {table.prior_mode}]")
        for class_id, same, diff, n_same, n_diff in cosine.rows:
            print(f"{class_id:10s} same-object {same:.4f} ({n_same} pairs)  "
                  f"different-object {diff:.4f} ({n_diff} pairs)")
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


_FAILURES = ((argparse.ArgumentError, "error", EXIT_USAGE),
             (ConfigError, "config error", EXIT_CONFIG),
             (runs.MissingArtifactError, "missing artifact", EXIT_MISSING),
             (NumericError, "numeric failure", EXIT_NUMERIC),
             ((ValueError, OSError), "error", EXIT_USAGE))


def run(parser: Parser, argv: list[str] | None) -> int:
    """Parse `argv` and run its handler; the first kind in `_FAILURES` that
    an error is names it and gives the exit code."""
    try:
        args = parser.parse_args(argv)
        if "handler" not in args:
            parser.error("a subcommand is required")
        return args.handler(args)
    except Exception as exc:
        for kind, prefix, code in _FAILURES:
            if isinstance(exc, kind):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


def main(argv: list[str] | None = None) -> int:
    return run(_build_parser(), argv)


if __name__ == "__main__":
    sys.exit(main())
