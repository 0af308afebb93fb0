"""voxmix benchmark: one workload per process, closed loop, one BLAS thread.

    python3 voxbench/run.py --workload train_all_b32 --seed 1 --seconds 15 --trace 0

Run from the repository root.  Set-up (corpus generation, split, priors,
context load and the workload's own preparatory training) runs three times,
each in a fresh temporary run root; then whole passes of the workload repeat
until `--seconds` have passed and at least 100 steps were timed.  The last
line of stdout is one JSON object: the end-to-end metrics of BENCHMARK.json
(times calibrated against a fixed kernel) with `--trace 0`, its per-layer
metrics with `--trace 1`.  A fuller record, with provenance, goes to `--out`,
and the spans of a traced run go next to it.  The exit code is 0 only when
every operation succeeded and every output check held.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Fixed before numpy loads.  One thread: on a 2-core machine a second BLAS
# thread made no pass faster, and a single one keeps run-to-run spread low.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

REPO = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, default=None,
                        help="result record path (default .voxbench/results/"
                             "<workload>-seed<seed>-trace<trace>.json)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (REPO / "src" / "voxmix").is_dir():
        print(f"voxbench: no voxmix sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    import harness   # imports numpy, after the thread pin above
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"voxbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = args.out or (REPO / ".voxbench" / "results"
                       / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record = harness.run(WORKLOADS[args.workload], args, spec, REPO, out)
    harness.print_report(record, spec, args.trace)
    ok = record["correct"] and record["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
