"""Per-layer metrics computed from the spans of a traced run.

Conventions, also listed in README.md:
  `<name>.ms` and `<layer>.<fn>_ms`  total milliseconds per traced pass,
                                     inclusive of nested calls (setup
                                     metrics: median per set-up round);
  `nn.<layer>.fwd_ms` / `.bwd_ms`    median milliseconds per call;
  `.calls`, `seed_attempts`           counts per traced pass;
  `losses.ms`, `mixup.ms`, `evaluate.self_ms`
                                     self time of every span of that layer,
                                     per traced pass;
  `trainer.step_self_ms`             median over optimizer steps of the
                                     step interval minus its child spans.
A metric whose layer does not run on a workload reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

KERNELS = ("conv_forward", "conv_backward", "conv_transpose_forward",
           "conv_transpose_backward")
CONV_LAYERS = tuple(
    [f"image_encoder.conv{k}" for k in range(4)]
    + [f"{enc}.conv{k}" for enc in ("prior_encoder", "gt_encoder") for k in range(3)]
    + [f"{dec}.up{k}" for dec in ("decoder", "gt_decoder") for k in range(1, 4)])
MODEL_METHODS = ("encode", "decode", "forward", "encode_gt", "backward",
                 "decode_backward", "encode_backward", "encode_gt_backward",
                 "gt_autoencode", "gt_autoencode_backward")
SETUP_SPANS = {"corpus.build_dataset_ms": "corpus.build_dataset",
               "corpus.make_split_ms": "corpus.make_split",
               "voxel.build_prior_ms": "voxel.build_prior",
               "corpus.load_samples_ms": "corpus.load_samples"}
PASS_SPANS = {"trainer.center_latent_biases_ms": "model.Network.center_latent_biases",
              "trainer.eval_table_ms": "trainer.ExperimentContext.eval_table",
              "trainer.checkpoint_ms": "trainer.save_stage_checkpoint",
              "evaluate.eval_iou_ms": "evaluate.eval_iou",
              "evaluate.cosine_report_ms": "evaluate.cosine_report",
              "evaluate.prior_batch_ms": "evaluate.prior_batch",
              "verification.fragments_ms": "verification.standard_fragments",
              "nn.adam_step.ms": "nn.Adam.step"}
STEP_LOOPS = ("trainer.train_stage", "trainer.pretrain_gt")
FN_SPANS = ("verification.fn.analytic", "verification.fn.probe")
_BACKWARD_SUFFIXES = ("backward", ".bwd", "_grad", "_grads")


class SpanTree:
    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for index, span in enumerate(spans):
            if span[3] >= 0:
                self.children[span[3]].append(index)
        self.dur = [(span[2] - span[1]) / 1e6 for span in spans]
        self.self_ms = [self.dur[i] - sum(self.dur[c] for c in self.children[i])
                        for i in range(len(spans))]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for index, span in enumerate(spans):
            self.by_name[span[0]].append(index)

    def name(self, index: int) -> str:
        return self.spans[index][0]

    def layer(self, index: int) -> str:
        return self.spans[index][0].split(".", 1)[0]

    def pass_id(self, index: int) -> int:
        return self.spans[index][4]

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def outermost(self, name: str) -> list[int]:
        """Spans called `name` that are not nested inside another one."""
        return [i for i in self.by_name.get(name, ())
                if not self.has_ancestor(i, name)]

    def descendants(self, index: int):
        stack = list(self.children[index])
        while stack:
            node = stack.pop()
            yield node
            stack.extend(self.children[node])


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def step_intervals(tree: SpanTree, passes: set[int]):
    """(interval ms, [top-level child spans]) per optimizer step inside a
    training loop.  A step runs from the end of one `nn.Adam.step` to the
    end of the next; the first step of a loop is dropped, as in the
    untraced step timing."""
    for loop_name in STEP_LOOPS:
        for loop in tree.by_name.get(loop_name, ()):
            if tree.pass_id(loop) not in passes:
                continue
            kids = sorted(tree.children[loop], key=lambda i: tree.spans[i][1])
            boundary = None
            members: list[int] = []
            for kid in kids:
                members.append(kid)
                if tree.name(kid) != "nn.Adam.step":
                    continue
                end = tree.spans[kid][2]
                if boundary is not None:
                    inside = [m for m in members if tree.spans[m][1] >= boundary]
                    yield (end - boundary) / 1e6, inside
                boundary = end
                members = []


def step_accounting(tree: SpanTree, passes: set[int]) -> dict:
    """Mean self time per step by layer; the layers sum to the step."""
    per_layer: dict[str, float] = defaultdict(float)
    steps = 0
    total = 0.0
    for interval, inside in step_intervals(tree, passes):
        steps += 1
        total += interval
        per_layer["trainer"] += interval - sum(tree.dur[m] for m in inside)
        for member in inside:
            for node in (member, *tree.descendants(member)):
                per_layer[tree.layer(node)] += tree.self_ms[node]
    if not steps:
        return {"steps": 0}
    layers = {k: v / steps for k, v in sorted(per_layer.items())}
    return {"steps": steps, "traced_step_ms_mean": total / steps,
            "layer_self_ms_per_step": layers,
            "layer_self_sum_ms": sum(layers.values())}


def layer_metrics(tree: SpanTree, traced_passes: set[int],
                  setup_rounds: set[int], dense_spans: set[str],
                  pipeline_fragments: float) -> dict[str, float]:
    n_pass = max(1, len(traced_passes))
    metrics: dict[str, float] = {}

    def per_pass_total(name: str) -> float:
        return sum(tree.dur[i] for i in tree.outermost(name)
                   if tree.pass_id(i) in traced_passes) / n_pass

    def per_pass_count(indices) -> float:
        return sum(1 for i in indices if tree.pass_id(i) in traced_passes) / n_pass

    def per_pass_self(layer: str) -> float:
        return sum(tree.self_ms[i] for i, span in enumerate(tree.spans)
                   if span[4] in traced_passes and tree.layer(i) == layer) / n_pass

    for metric, name in SETUP_SPANS.items():
        rounds = defaultdict(float)
        for i in tree.outermost(name):
            if tree.pass_id(i) in setup_rounds:
                rounds[tree.pass_id(i)] += tree.dur[i]
        metrics[metric] = _median([rounds[r] for r in setup_rounds])

    for kernel in KERNELS:
        metrics[f"nn.{kernel}.ms"] = per_pass_total(f"nn.{kernel}")
        metrics[f"nn.{kernel}.calls"] = per_pass_count(tree.by_name.get(f"nn.{kernel}", ()))
    for layer in CONV_LAYERS:
        for suffix in ("fwd", "bwd"):
            metrics[f"nn.{layer}.{suffix}_ms"] = _median(
                [tree.dur[i] for i in tree.by_name.get(f"nn.{layer}.{suffix}", ())
                 if tree.pass_id(i) in traced_passes])
    metrics["nn.dense.ms"] = sum(
        tree.dur[i] for name in dense_spans for i in tree.by_name.get(name, ())
        if tree.pass_id(i) in traced_passes) / n_pass
    for method in MODEL_METHODS:
        metrics[f"model.{method}.ms"] = per_pass_total(f"model.Network.{method}")
    metrics["losses.ms"] = per_pass_self("losses")
    metrics["mixup.ms"] = per_pass_self("mixup")
    metrics["trainer.step_self_ms"] = _median(
        [interval - sum(tree.dur[m] for m in inside)
         for interval, inside in step_intervals(tree, traced_passes)])
    for metric, name in PASS_SPANS.items():
        metrics[metric] = per_pass_total(name)
    metrics["evaluate.self_ms"] = per_pass_self("evaluate")

    attempts = per_pass_count(
        i for i in tree.outermost("model.Network.encode")
        if tree.has_ancestor(i, "verification.pipeline_fragments"))
    metrics["verification.seed_attempts"] = attempts
    metrics["verification.seed_accept_ratio"] = \
        pipeline_fragments / attempts if attempts else 0.0
    fn_spans = [i for name in FN_SPANS for i in tree.by_name.get(name, ())
                if tree.pass_id(i) in traced_passes]
    fn_total = sum(tree.dur[i] for i in fn_spans)
    metrics["verification.fn_calls"] = len(fn_spans) / n_pass
    metrics["verification.fn_ms"] = fn_total / n_pass
    discarded = sum(_backward_ms(tree, i) for i in fn_spans
                    if tree.name(i) == "verification.fn.probe")
    metrics["verification.fd_backward_share"] = discarded / fn_total if fn_total else 0.0
    return metrics


def _backward_ms(tree: SpanTree, index: int) -> float:
    """Time in the outermost backward-pass spans under span `index`."""
    total = 0.0
    stack = list(tree.children[index])
    while stack:
        node = stack.pop()
        if tree.name(node).endswith(_BACKWARD_SUFFIXES):
            total += tree.dur[node]
        else:
            stack.extend(tree.children[node])
    return total
