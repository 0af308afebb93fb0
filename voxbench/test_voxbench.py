"""Self-test of the benchmark on the smoke profile.

    python3 -m pytest voxbench/test_voxbench.py -q

Every workload runs untraced and traced, each in its own process, as the
benchmark is meant to be run.  The test checks the result schema, the
metric names against BENCHMARK.json, and that the traced run recorded
spans in every layer; it never gates on a time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

SETUP_LAYERS = {"cli", "corpus", "shapes", "render", "voxel", "runs", "trainer"}
LAYERS = {
    "train_all_b32": SETUP_LAYERS | {"nn", "model", "losses", "mixup", "evaluate"},
    "pretrain_b4": SETUP_LAYERS | {"nn", "model", "losses"},
    "infer_b64": SETUP_LAYERS | {"nn", "model", "evaluate"},
    "grad_check": SETUP_LAYERS | {"nn", "model", "losses", "mixup", "verification"},
}


def _run(workload: str, trace: int, out: Path, cwd: Path = REPO):
    return subprocess.run(
        [sys.executable, str(cwd / "voxbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--profile", "smoke", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    root = tmp_path_factory.mktemp("results")
    done = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = root / f"{workload}-{trace}.json"
            proc = _run(workload, trace, out)
            done[workload, trace] = (proc, out)
    return done


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_names_every_metric(results, workload, trace):
    proc, _ = results[workload, trace]
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in section]
    for m in section:
        value = line["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_has_spans_in_every_layer(results, workload):
    _, out = results[workload, 1]
    record = json.loads(out.read_text(encoding="utf-8"))
    spans = [json.loads(line) for line in
             (REPO / record["spans"] if not Path(record["spans"]).is_absolute()
              else Path(record["spans"])).read_text(encoding="utf-8").splitlines()]
    for span in spans:
        assert span["start_ns"] <= span["end_ns"]
        assert -1 <= span["parent"] < span["id"]
    layers = {s["name"].split(".", 1)[0] for s in spans}
    assert LAYERS[workload] <= layers
    traced = {s["pass"] for s in spans if s["pass"] >= 0}
    assert traced and {s["pass"] for s in spans if s["pass"] < 0} == {-1, -2, -3}
    provenance = record["provenance"]
    for key in ("seed", "git_commit", "nproc", "python", "numpy", "blas",
                "blas_threads", "src_lines"):
        assert key in provenance


def test_traced_record_accounts_the_step(results):
    """The record holds what the step criterion is read from: the layers'
    self times per traced step, the untraced step beside them and the
    tracing overhead.  Whether the gap lies within the overhead is a timing
    question, so it is read from full-profile runs, not asserted here."""
    _, out = results["train_all_b32", 1]
    record = json.loads(out.read_text(encoding="utf-8"))
    accounting = record["step_accounting"]
    assert accounting["steps"] > 0
    assert {"trainer", "nn", "model"} <= set(accounting["layer_self_ms_per_step"])
    for key in ("untraced_step_ms_mean", "gap_pct", "overhead_pct"):
        assert key in accounting


def test_untraced_record_splits_set_up_from_pass_memory(results):
    _, out = results["infer_b64", 0]
    record = json.loads(out.read_text(encoding="utf-8"))
    memory = record["memory"]
    assert memory["pass_peak_rss_mb"] > 0 and memory["setup_peak_rss_mb"] > 0
    assert record["metrics"]["peak_rss_mb"]["value"] == memory["pass_peak_rss_mb"]
    assert all(r["files"] > 0 for r in record["setup_rounds"])


def _compare(old: dict, new: dict, tmp_path: Path):
    paths = []
    for name, record in (("old", old), ("new", new)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        paths.append(str(path))
    return subprocess.run([sys.executable, str(REPO / "voxbench" / "compare.py"),
                           *paths], capture_output=True, text=True, timeout=60)


def test_compare_flags_a_quality_loss_on_the_same_seed(results, tmp_path):
    _, out = results["train_all_b32", 0]
    old = json.loads(out.read_text(encoding="utf-8"))
    assert _compare(old, old, tmp_path).returncode == 0
    new = json.loads(json.dumps(old))
    new["metrics"]["novel_iou_latent_mix"]["value"] *= 0.95
    proc = _compare(old, new, tmp_path)
    assert proc.returncode == 1 and "REGRESSED" in proc.stdout
    new["seed"] += 1    # another seed: quality is shown, not checked
    assert _compare(old, new, tmp_path).returncode == 0


def test_fails_without_the_program(tmp_path):
    (tmp_path / "voxbench").mkdir()
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    for path in (REPO / "voxbench").glob("*.py"):
        shutil.copy(path, tmp_path / "voxbench")
    proc = _run(WORKLOADS[0], 0, tmp_path / "out.json", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
