"""The four workloads: set-up, one measured pass, and the pass's checks.

Each workload drives the public API that a `voxmix` command calls.  A pass
is one complete unit of the workload, repeated until the run's time is up;
every pass of a run must return the same outcome, because the program is
deterministic in its config seed.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import sys
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibration import Calibration
from voxmix import cli, corpus, evaluate, nn, runs, trainer, verification
from voxmix.config import ExperimentConfig, apply_assignments, dump_config
from voxmix.model import Network

# The paper-sized default network with shortened stages, so that one
# `train --all` pass fits several times into a run.
FULL_OVERRIDES = {"train.stage_epochs": "1,1,1", "train.pretrain_epochs": "3"}
# The tiny config: the whole pipeline in about a second.
SMOKE_OVERRIDES = {
    "data.objects_per_class": "3", "data.poses_per_object": "4",
    "data.vox_dim": "8", "data.image_size": "16",
    "model.image_channels": "4,4,4,4", "model.prior_channels": "4,4,4",
    "model.decoder_channels": "4,4,4", "model.latent_width": "16",
    "train.stage_epochs": "2,2,2", "train.pretrain_epochs": "3"}
PROFILES = {"full": FULL_OVERRIDES, "smoke": SMOKE_OVERRIDES}

GRAD_CHECK_PROBES = 1
GRAD_CHECK_TOLERANCE = 1e-4   # the `voxmix grad-check` default
# grad_check times the loss calls of one fragment, the network variant and
# loss that training uses.  Calls of the other fragments cost from 0.02 ms
# to 20 ms, and a percentile over that mixture jumps between its modes.
GRAD_CHECK_STEP_FRAGMENT = "pipeline_prior_bce"


def bench_config(profile: str, seed: int) -> ExperimentConfig:
    return apply_assignments(ExperimentConfig(seed=seed, run_name="bench"),
                             PROFILES[profile])


class SetupError(RuntimeError):
    """A set-up command exited nonzero."""


@dataclass
class PassResult:
    items: int                 # training samples, volumes, views or loss calls
    attempted: int
    failed: int
    outcome: object = None     # must repeat exactly on every pass
    quality: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)   # failed output checks
    counters: dict = field(default_factory=dict)


class StepClock:
    """Step timings from the one call that bounds a step; nothing else in
    the program is wrapped on an untraced run.  At a step boundary, in
    set-up too, the clock may also time the calibration kernel, outside
    every step.  A step is kept as (start, end, milliseconds)."""

    def __init__(self, calibration: Calibration | None = None):
        self.recording = False
        self.steps: list[tuple[float, float, float]] = []
        self.calibration = calibration
        self._last_end = weakref.WeakKeyDictionary()

    def calibrate_if_due(self) -> None:
        if self.calibration is not None and self.calibration.due():
            self.calibration.measure()

    def _record(self, start: float, end: float) -> None:
        self.steps.append((start, end, (end - start) * 1e3))

    @contextlib.contextmanager
    def interval(self, cls, attr: str):
        """A step is the time between consecutive calls of `cls.attr` on one
        object, so the first call on each object only opens a step."""
        original = cls.__dict__[attr]
        clock = self

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            result = original(obj, *args, **kwargs)
            if clock.recording:
                now = time.perf_counter()
                last = clock._last_end.get(obj)
                if last is not None:
                    clock._record(last, now)
                clock.calibrate_if_due()
                clock._last_end[obj] = time.perf_counter()
            else:
                clock.calibrate_if_due()
            return result

        setattr(cls, attr, wrapper)
        try:
            yield
        finally:
            setattr(cls, attr, original)

    @contextlib.contextmanager
    def duration(self, cls, attr: str):
        """A step is one call of `cls.attr`."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.timed(original))
        try:
            yield
        finally:
            setattr(cls, attr, original)

    def timed(self, fn):
        clock = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            if clock.recording:
                clock._record(start, time.perf_counter())
            clock.calibrate_if_due()
            return result
        return wrapper

    def take(self) -> list[tuple[float, float, float]]:
        steps, self.steps = self.steps, []
        return steps


# ---------------------------------------------------------------------------
# Set-up shared by every workload: gen-data, build-priors, context load
# ---------------------------------------------------------------------------

@dataclass
class Prepared:
    config: ExperimentConfig
    paths: runs.RunPaths
    ctx: trainer.ExperimentContext
    cli_args: tuple[str, ...]


def _voxmix(*argv: str) -> None:
    # The commands' own progress lines go to stderr; stdout carries the
    # benchmark's report.
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(list(argv))
    if code != cli.EXIT_OK:
        raise SetupError(f"voxmix {argv[0]} exited with code {code}")


def prepare(config: ExperimentConfig, root: Path) -> Prepared:
    root.mkdir(parents=True)
    config_path = root / "bench.cfg"
    config_path.write_text(dump_config(config), encoding="utf-8")
    cli_args = ("--config", str(config_path), "--run-root", str(root))
    _voxmix("gen-data", *cli_args)
    _voxmix("build-priors", *cli_args)
    paths = runs.RunPaths.for_config(config, str(root))
    return Prepared(config, paths, trainer.ExperimentContext.load(config, paths),
                    cli_args)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class TrainAll:
    """`voxmix train --all`: all four pipelines through run_ablation."""

    name = "train_all_b32"

    def boundary(self, clock: StepClock):
        return clock.interval(nn.Adam, "step")

    def setup(self, config, root):
        prep = prepare(config, root)
        _voxmix("pretrain-gt", *prep.cli_args)
        # Every stage prefix is trained once and shared between pipelines.
        prefixes = {stages[:k] for stages in trainer.PIPELINES.values()
                    for k in range(1, len(stages) + 1)}
        epochs = sum(config.train.stage_epochs[p[-1] - 1] for p in prefixes)
        return prep, epochs * len(prep.ctx.train_pool)

    def run_pass(self, state, clock, tracer) -> PassResult:
        prep, samples = state
        pipelines = tuple(trainer.PIPELINES)
        try:
            results = trainer.run_ablation(prep.config, prep.paths)
        except (nn.NumericError, ValueError) as exc:
            return PassResult(0, len(pipelines), len(pipelines),
                              problems=[f"run_ablation: {exc}"])
        failed = 0
        problems = []
        quality = {}
        for name in pipelines:
            overall = results[name].final_table.overall
            quality[f"novel_iou_{name}"] = overall
            try:
                trainer.load_stage_checkpoint(results[name].checkpoint_path,
                                              prep.config)
            except (OSError, ValueError) as exc:
                failed += 1
                problems.append(f"{name} checkpoint: {exc}")
                continue
            if not 0.0 < overall <= 1.0:
                failed += 1
                problems.append(f"{name}: novel IoU {overall} outside (0, 1]")
        quality["final_loss"] = last_epoch_loss(
            prep.paths.logs_dir / "dual_mix_train.csv")
        if not math.isfinite(quality["final_loss"]):
            failed += 1
            problems.append("dual_mix: non-finite final loss")
        outcome = tuple((name, results[name].final_table.per_sample)
                        for name in pipelines) + (quality["final_loss"],)
        return PassResult(samples, len(pipelines), failed, outcome, quality,
                          problems)


def last_epoch_loss(log_path: Path) -> float:
    """Mean total loss over the last epoch of the last stage in a train log."""
    with open(log_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    last = (rows[-1]["stage"], rows[-1]["epoch"])
    return float(np.mean([float(r["total"]) for r in rows
                          if (r["stage"], r["epoch"]) == last]))


class Pretrain:
    """`voxmix pretrain-gt`: the volume autoencoder at its default batch."""

    name = "pretrain_b4"

    def boundary(self, clock: StepClock):
        return clock.interval(nn.Adam, "step")

    def setup(self, config, root):
        prep = prepare(config, root)
        net = Network(trainer.network_config(config))
        return prep, net, trainer.unique_volumes(prep.ctx.train_pool.samples)

    def run_pass(self, state, clock, tracer) -> PassResult:
        prep, net, volumes = state
        cfg = prep.config.train
        epochs = cfg.pretrain_epochs
        try:
            _, history = trainer.pretrain_gt(
                net, volumes, epochs, lr=cfg.gt_lr, batch_size=cfg.pretrain_batch,
                seed=prep.config.seed)
        except nn.NumericError as exc:
            return PassResult(0, epochs, epochs, problems=[f"pretrain_gt: {exc}"])
        failed = sum(1 for value in history if not math.isfinite(value))
        problems = []
        if not history[-1] < history[0]:
            problems.append(f"pretraining loss did not fall: {history}")
        return PassResult(epochs * len(volumes), epochs, failed, tuple(history),
                          {"final_loss": history[-1]}, problems)


class Infer:
    """`voxmix eval` then `voxmix analyze-latent` on every view, forward only."""

    name = "infer_b64"

    def boundary(self, clock: StepClock):
        return clock.duration(Network, "forward")

    def setup(self, config, root):
        prep = prepare(config, root)
        _voxmix("train", *prep.cli_args, "--pipeline", "dual_mix")
        stage = trainer.PIPELINES["dual_mix"][-1]
        store, _ = trainer.load_stage_checkpoint(
            prep.paths.checkpoints_dir / f"dual_mix_stage{stage}.ckpt", config)
        samples = corpus.load_samples(prep.ctx.manifest,
                                      list(prep.ctx.manifest.records))
        return prep, Network(trainer.network_config(config)), store, samples

    def run_pass(self, state, clock, tracer) -> PassResult:
        prep, net, store, samples = state
        cfg = prep.config
        args = (net, store, samples, prep.ctx.priors_by_class, cfg.prior.mode,
                cfg.data.classes)
        failed = 0
        problems = []
        try:
            table = evaluate.eval_iou(*args, cfg.eval.iou_threshold,
                                      cfg.eval.batch_size)
        except ValueError as exc:
            table = None
            failed += 1
            problems.append(f"eval_iou: {exc}")
        try:
            report = evaluate.cosine_report(*args, cfg.eval.batch_size)
        except ValueError as exc:
            report = None
            failed += 1
            problems.append(f"cosine_report: {exc}")
        quality = {}
        if table is not None:
            quality["novel_iou_dual_mix"] = novel_query_iou(table, prep.ctx.split)
        outcome = (table and table.per_sample, report and report.rows)
        return PassResult(2 * len(samples), 2, failed, outcome, quality, problems)


def novel_query_iou(table: evaluate.IouTable, split: corpus.FewShotSplit) -> float:
    """Mean over novel classes of the mean IoU of their query views, the
    figure `voxmix eval` reports for a pipeline."""
    query = set(split.all_query_objects())
    by_class: dict[str, list[float]] = {}
    for object_id, _, class_id, value in table.per_sample:
        if class_id in split.novel_classes and object_id in query:
            by_class.setdefault(class_id, []).append(value)
    return float(np.mean([np.mean(v) for v in by_class.values()]))


class GradCheck:
    """`voxmix grad-check`: every standard fragment, float64, tiny networks."""

    name = "grad_check"

    def boundary(self, clock: StepClock):
        return contextlib.nullcontext()   # the pass times each loss call

    def setup(self, config, root):
        return prepare(config, root)

    def run_pass(self, state, clock, tracer) -> PassResult:
        seed = state.config.seed
        try:
            fragments = verification.standard_fragments(seed)
        except RuntimeError as exc:    # no kink-safe seed was found
            return PassResult(0, 1, 1, problems=[f"standard_fragments: {exc}"])
        calls = 0
        failed = 0
        problems = []
        errors = []
        for name, fn, arrays, fd_step in fragments:
            call = LossCalls(clock.timed(fn) if name == GRAD_CHECK_STEP_FRAGMENT
                             else fn, clock, tracer)
            try:
                report = nn.grad_check(call, arrays, GRAD_CHECK_TOLERANCE,
                                       GRAD_CHECK_PROBES, step=fd_step)
            except (nn.NumericError, ValueError) as exc:
                failed += 1
                problems.append(f"{name}: {exc}")
                continue
            finally:
                calls += call.calls
            errors.append((name, report.max_rel_error))
            if not report.passed:
                failed += 1
                problems.append(f"{name}: relative error {report.max_rel_error:.3e}"
                                f" at tolerance {GRAD_CHECK_TOLERANCE:.0e}")
        quality = {"max_rel_error": max(e for _, e in errors)} if errors else {}
        pipelines = sum(1 for name, *_ in fragments if name.startswith("pipeline_"))
        return PassResult(calls, len(fragments), failed, tuple(errors), quality,
                          problems, {"pipeline_fragments": pipelines})


class LossCalls:
    """A fragment's loss function, counting its calls.  The first call is
    the analytic one whose gradients grad_check keeps; the rest are
    finite-difference probes, which discard theirs.  Between calls of every
    fragment the clock may run its calibration kernel, so that the kernel
    keeps sampling the machine while untimed fragments run."""

    def __init__(self, fn, clock, tracer):
        self.fn = fn
        self.clock = clock
        self.tracer = tracer
        self.calls = 0

    def __call__(self, arrays):
        self.calls += 1
        self.clock.calibrate_if_due()
        if self.tracer is None:
            return self.fn(arrays)
        kind = "analytic" if self.calls == 1 else "probe"
        with self.tracer.span(f"verification.fn.{kind}"):
            return self.fn(arrays)


WORKLOADS = {w.name: w for w in (TrainAll(), Pretrain(), Infer(), GradCheck())}
