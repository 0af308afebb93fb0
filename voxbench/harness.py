"""Run one workload: set-up rounds, measured passes, metrics, record."""

from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from calibration import REFERENCE_FILE_S, REFERENCE_S, Calibration
from layers import SpanTree, layer_metrics, step_accounting
from tracing import Tracer
from workloads import PassResult, StepClock, bench_config

SETUP_ROUNDS = 3
MIN_STEPS = 100          # so that at least 10 step samples lie beyond p90
MAX_MEASURE_S = 120.0    # hard stop, whatever MIN_STEPS asks
QUALITY = ("novel_iou_base", "novel_iou_input_mix", "novel_iou_latent_mix",
           "novel_iou_dual_mix", "final_loss", "max_rel_error")


@dataclass
class SetupRound:
    seconds: float        # raw, less the calibration kernel's time
    start: float
    end: float
    files: int            # files and directories the round created
    user_s: float         # process CPU time in user space
    system_s: float       # and in the kernel


@dataclass
class PassRecord:
    index: int
    traced: bool
    start: float
    end: float
    seconds: float        # raw, less the calibration kernel's time
    steps: list           # (start, end, ms) per step
    result: PassResult


def run(workload, args, spec: dict, repo: Path, out: Path) -> dict:
    config = bench_config(args.profile, args.seed)
    scratch = repo / ".voxbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    # A traced run reports raw per-layer times and runs no calibration.
    tracer = Tracer() if args.trace else None
    calibration = None if args.trace else Calibration()
    clock = StepClock(calibration)
    try:
        with workload.boundary(clock):
            setup, state = _set_up(workload, config, tmp, tracer, clock)
            memory = {"setup_peak_rss_mb": peak_rss_mb(),
                      "peak_reset": reset_peak_rss()}
            passes = _measure(workload, state, clock, tracer, args.seconds)
            memory["pass_peak_rss_mb"] = peak_rss_mb()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    untraced = [p for p in passes if not p.traced]
    raw = _timings(setup, untraced, None)
    metrics = _timings(setup, untraced, calibration) if calibration else dict(raw)
    # The passes' own peak, unless the kernel did not let the set-up peak be
    # reset; then the whole process's.
    metrics["peak_rss_mb"] = memory["pass_peak_rss_mb"]
    attempted = sum(p.result.attempted for p in passes)
    failed = sum(p.result.failed for p in passes)
    first = passes[0].result
    for name in QUALITY:
        metrics[name] = float(first.quality.get(name, 0.0))
    metrics["error_rate"] = failed / attempted

    problems = [msg for p in passes for msg in p.result.problems]
    problems += [f"pass {p.index} returned a different outcome from pass 0"
                 for p in passes[1:] if p.result.outcome != first.outcome]

    record = {
        "workload": workload.name, "profile": args.profile, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(repo, args.seed),
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": problems[:20],
        "samples": {"setup_rounds": len(setup), "passes": len(passes),
                    "untraced_passes": len(untraced),
                    "steps": sum(len(p.steps) for p in untraced)},
        "raw": raw,
        "memory": memory,
        "setup_rounds": [{"raw_s": r.seconds, "files": r.files,
                          "user_s": r.user_s, "system_s": r.system_s,
                          "scale": calibration.scale(r.start, r.end) if calibration
                          else 1.0} for r in setup],
        "pass_s": [[p.seconds, p.traced] for p in passes],
    }
    if calibration:
        record["calibration"] = {
            "reference_s": REFERENCE_S, "reference_file_s": REFERENCE_FILE_S,
            "samples": len(calibration.samples),
            "median_s": statistics.median(calibration.samples)}
    if tracer is not None:
        traced = [p for p in passes if p.traced]
        traced_ids = {p.index for p in traced}
        tree = SpanTree(tracer.spans)
        metrics.update(layer_metrics(
            tree, traced_ids, {-1 - k for k in range(len(setup))},
            tracer.dense_spans,
            statistics.median(p.result.counters.get("pipeline_fragments", 0)
                              for p in traced)))
        untraced_s = statistics.median(p.seconds for p in untraced)
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(p.seconds for p in traced) - untraced_s) / untraced_s
        accounting = step_accounting(tree, traced_ids)
        steps = [ms for p in untraced for _, _, ms in p.steps]
        if accounting["steps"] and steps:
            # The layers' self times sum to the traced step by construction;
            # what is checked is how far that sum lies from the untraced
            # step, against the overhead that tracing adds to a pass.
            untraced_ms = statistics.fmean(steps)
            accounting["untraced_step_ms_mean"] = untraced_ms
            accounting["gap_pct"] = 100.0 * (
                accounting["layer_self_sum_ms"] - untraced_ms) / untraced_ms
            accounting["overhead_pct"] = metrics["trace.overhead_pct"]
        record["step_accounting"] = accounting
        spans_path = out.with_name(out.stem + "-spans.jsonl")
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(repo)) \
            if spans_path.is_relative_to(repo) else str(spans_path)
        record["samples"]["traced_passes"] = len(traced)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in metrics.items() if name in units}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def _timings(setup: list[SetupRound], passes: list[PassRecord],
             calibration: Calibration | None) -> dict:
    """End-to-end times, raw or, with a calibration, each round, pass and
    step in reference terms by the kernel runs around it."""
    if calibration is None:
        rounds = [r.seconds for r in setup]
        seconds = [p.seconds for p in passes]
        steps = [ms for p in passes for _, _, ms in p.steps]
    else:
        rounds = [calibration.setup_seconds(r.seconds, r.start, r.end, r.files,
                                            r.system_s) for r in setup]
        seconds = [p.seconds * calibration.scale(p.start, p.end) for p in passes]
        steps = [ms * calibration.scale(start, end)
                 for p in passes for start, end, ms in p.steps]
    return {
        "setup_s": statistics.median(rounds),
        "wall_s": statistics.median(seconds),
        "throughput_per_s": statistics.median(
            p.result.items / s for p, s in zip(passes, seconds)),
        "step_ms_p50": float(np.percentile(steps, 50)) if steps else 0.0,
        "step_ms_p90": float(np.percentile(steps, 90)) if steps else 0.0,
    }


def _set_up(workload, config, tmp: Path, tracer, clock: StepClock):
    """Each set-up round, and the last round's state."""
    calibration = clock.calibration
    rounds = []
    state = None
    for k in range(SETUP_ROUNDS):
        root = tmp / f"setup{k}"
        # Flush the file system first, so that writes and deletions still
        # pending from earlier rounds or the previous run are not committed
        # inside the timed round: set-up is dominated by creating files.
        os.sync()
        if calibration:
            calibration.measure()
        spent = calibration.spent_s if calibration else 0.0
        with tracer.active(-1 - k) if tracer else contextlib.nullcontext():
            cpu = os.times()
            start = time.perf_counter()
            state = workload.setup(config, root)
            end = time.perf_counter()
            cpu_end = os.times()
        seconds = end - start - ((calibration.spent_s - spent) if calibration else 0.0)
        if calibration:
            calibration.measure()
        files = sum(len(dirs) + len(names) for _, dirs, names in os.walk(root))
        rounds.append(SetupRound(seconds, start, end, files,
                                 cpu_end.user - cpu.user, cpu_end.system - cpu.system))
    return rounds, state


def _measure(workload, state, clock: StepClock, tracer, seconds: float):
    """Whole passes until `seconds` and MIN_STEPS are reached; a traced run
    alternates untraced and traced passes so that both see the same machine."""
    passes: list[PassRecord] = []
    min_passes = 2 if tracer else 1
    clock.recording = True
    start = time.perf_counter()
    try:
        while True:
            index = len(passes)
            traced = tracer is not None and index % 2 == 1
            clock.calibrate_if_due()
            spent = clock.calibration.spent_s if clock.calibration else 0.0
            with tracer.active(index) if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                result = workload.run_pass(state, clock, tracer if traced else None)
                t1 = time.perf_counter()
            elapsed = t1 - t0
            if clock.calibration:
                elapsed -= clock.calibration.spent_s - spent
            passes.append(PassRecord(index, traced, t0, t1, elapsed, clock.take(),
                                     result))
            spent_total = time.perf_counter() - start
            timed_steps = sum(len(p.steps) for p in passes)
            if spent_total >= MAX_MEASURE_S or (
                    spent_total >= seconds and timed_steps >= MIN_STEPS
                    and len(passes) >= min_passes):
                return passes
    finally:
        clock.recording = False


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """The process's resident high-water mark since it started or since the
    last `reset_peak_rss`."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reset_peak_rss() -> bool:
    """Return set-up's freed memory to the system and restart the
    high-water mark from the current resident size, so that the passes'
    peak is measured rather than set-up's.  False where Linux does not
    allow it; the peak then covers the whole process."""
    gc.collect()
    libc = ctypes.util.find_library("c")
    if libc:
        trim = getattr(ctypes.CDLL(libc), "malloc_trim", None)
        if trim is not None:
            trim(0)
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def print_report(record: dict, spec: dict, trace: int) -> None:
    for name, metric in record["metrics"].items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    section = spec["per_layer"] if trace else spec["end_to_end"]
    line = {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {m["name"]: record["metrics"][m["name"]] for m in section}}
    print(json.dumps(line), flush=True)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def provenance(repo: Path, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "seed": seed,
        "git_commit": git_commit(repo),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted((repo / "src").rglob("*.py"))),
    }


def git_commit(repo: Path) -> str:
    """HEAD's commit, read from the files git keeps, or "unknown" outside a
    git checkout."""
    git = repo / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Threads OpenBLAS reports it will use, or None where it cannot be asked."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None
