"""Compare two benchmark result records of one workload.

    python3 voxbench/compare.py OLD.json NEW.json

Prints every metric the two records share, with the change as a share of
the old value.  End-to-end metrics that worsen by more than their bound in
BENCHMARK.json are marked REGRESSED, and the exit code is then 1.  When
both records ran the same seed, the quality figures must hold
too: a novel-class IoU that falls, or a final loss that rises, by more than
QUALITY_TOLERANCE of its old value is also REGRESSED.  These figures repeat
exactly on one seed, so the tolerance only admits the rounding changes that
a reordered computation makes.  One pair of records is one sample: a
performance claim needs the repeated pairs that README.md describes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# Facts that must match for two records to be comparable.
SETTINGS = ("workload", "profile", "seconds", "trace")
MACHINE = ("nproc", "python", "numpy", "blas", "blas_threads")
QUALITY = ("novel_iou_base", "novel_iou_input_mix", "novel_iou_latent_mix",
           "novel_iou_dual_mix", "final_loss")
QUALITY_TOLERANCE = 0.01


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    for key in SETTINGS:
        if old[key] != new[key]:
            print(f"error: {key} differs ({old[key]} vs {new[key]})", file=sys.stderr)
            return 2
    for key in MACHINE:
        if old["provenance"][key] != new["provenance"][key]:
            print(f"warning: {key} differs: {old['provenance'][key]} vs "
                  f"{new['provenance'][key]}")
    print(f"{old['workload']}: {old['provenance']['git_commit'][:12]} seed "
          f"{old['seed']} -> {new['provenance']['git_commit'][:12]} seed {new['seed']}")

    same_inputs = old["seed"] == new["seed"]
    if not same_inputs:
        print("note: seeds differ, so quality figures are shown, not checked")
    regressed = False
    for name, m in metrics.items():
        if name not in old["metrics"] or name not in new["metrics"]:
            continue
        a = old["metrics"][name]["value"]
        b = new["metrics"][name]["value"]
        change = (b - a) / abs(a) if a else 0.0
        worse = change > 0 if m["better"] == "lower" else change < 0
        verdict = ""
        bound = m.get("bound")
        if bound is None and same_inputs and name in QUALITY:
            bound = QUALITY_TOLERANCE
        if bound is not None and worse and abs(change) > bound:
            verdict = "REGRESSED"
            regressed = True
        print(f"{name:40s} {a:14.6g} {b:14.6g} {m['unit']:6s} "
              f"{100 * change:+8.2f}% {verdict}")
    for label, record in (("old", old), ("new", new)):
        if not record["correct"] or record["failed"]:
            print(f"{label}: correct={record['correct']} failed={record['failed']}")
            regressed = True
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
