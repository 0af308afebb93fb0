"""In-memory span tracing of the voxmix package, installed from outside it.

A `Tracer` wraps every public function and every public method of the
classes defined in each voxmix module, for as long as it is active, and
records one span per call: name, start, end, the index of the enclosing
span, and the measured pass it belongs to (negative for set-up rounds).
Nothing under `src/` changes; the wrappers are removed when the tracer is
deactivated, so untraced passes run the unmodified code.

Span names are `<module>.<qualname>` (for example `model.Network.encode`),
except for the forward and backward of parameterised layers, which are
named after the layer instance: `nn.decoder.up1.fwd`, `nn.merger.fc0.bwd`.
The first name component is the span's layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path

MODULES = ("cli", "config", "corpus", "evaluate", "losses", "mixup", "model",
           "nn", "render", "runs", "shapes", "trainer", "verification",
           "voxel")

# Parameterised layers whose spans carry the instance name.
_NAMED_LAYERS = ("Dense", "Conv2d", "ConvTranspose3d")


class Tracer:
    def __init__(self):
        # Each span is [name, start_ns, end_ns, parent_index, pass_id].
        self.spans: list[list] = []
        self.dense_spans: set[str] = set()
        self._stack: list[int] = []
        self._pass_id = 0
        self._plan_cache: list | None = None

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self._pass_id])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)
        return wrapper

    def _wrap_layer_method(self, fn, suffix: str, dense: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(layer, *args, **kwargs):
            name = f"nn.{layer.name}.{suffix}"
            if dense:
                tracer.dense_spans.add(name)
            index = tracer._open(name)
            try:
                return fn(layer, *args, **kwargs)
            finally:
                tracer._close(index)
        return wrapper

    # -- installing ----------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every traced callable."""
        modules = {short: importlib.import_module(f"voxmix.{short}")
                   for short in MODULES}
        plan = []
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{short}.{obj.__qualname__}")
                    # `from .x import f` binds f in other modules too.
                    for other in modules.values():
                        plan.extend((other, other_attr, obj, wrapped)
                                    for other_attr, other_obj in vars(other).items()
                                    if other_obj is obj)
                elif inspect.isclass(obj):
                    plan.extend(self._plan_class(short, obj))
        return plan

    def _plan_class(self, short: str, cls):
        for attr, member in vars(cls).items():
            if attr.startswith("_"):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                fn = member.__func__
                wrapped = type(member)(self._wrap(fn, f"{short}.{fn.__qualname__}"))
            elif not inspect.isfunction(member):
                continue
            elif cls.__name__ in _NAMED_LAYERS and attr in ("forward", "backward"):
                wrapped = self._wrap_layer_method(
                    member, "fwd" if attr == "forward" else "bwd",
                    cls.__name__ == "Dense")
            else:
                wrapped = self._wrap(member, f"{short}.{member.__qualname__}")
            yield cls, attr, member, wrapped

    @contextmanager
    def active(self, pass_id: int):
        """Trace every voxmix call made inside the block as pass `pass_id`."""
        if self._plan_cache is None:
            self._plan_cache = self._plan()
        self._pass_id = pass_id
        for owner, attr, _, wrapped in self._plan_cache:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._plan_cache:
                setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, pass_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent, "pass": pass_id}))
                fh.write("\n")
