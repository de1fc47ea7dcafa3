"""Span tracing for the per-layer run, installed from outside the library.

The tracer replaces public functions, by name, in every pdce.* module
namespace that holds them, so a call from one library module to another goes
through a wrapper that records a span (layer, start, end, parent). Self time
of a span is its duration minus the durations of its direct children; the
benchmark's own "op" span around each call collects whatever no wrapped
function covers. A target that no longer exists is reported as absent and
its layer measures zero, so deleting a public name does not break the run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# Layer name -> public functions ("module.name") whose calls it times.
LAYERS = {
    "geometry.validate": ("geometry.validate",),
    "geometry.classify": ("geometry.classify",),
    "geometry.split_by_bt_line": ("geometry.split_by_bt_line",),
    "paths.set_ops": ("paths.rotate_set", "paths.mirror_set"),
    "paths.embedding_ops": (
        "paths.rotate_embedding",
        "paths.mirror_embedding",
        "paths.reverse_embedding",
    ),
    "embedder.plan_udr_case": ("embedder.plan_udr_case",),
    "embedder.execute_plan": ("embedder.execute_plan",),
    "embedder.primitives": (
        "embedder.embed_udr_left_sided",
        "embedder.embed_udr_right_sided",
        "embedder.embed_ur_strip",
    ),
    "embedder.backward_embedding": ("embedder.backward_embedding",),
    "validator.direction": ("validator.check_direction_consistency",),
    # validate_embedding calls the prefix scan directly, not through the
    # public check; a nested span of the same layer is not a second call.
    "validator.prefix": ("validator.check_planarity_prefix", "validator._first_prefix_failure"),
    "validator.segments": ("validator.check_planarity_segments",),
    "decider.dp_table": ("decider.dp_table",),
    # decide_pdce's self time is the witness walk and its final checks.
    "decider.witness": ("decider.decide_pdce",),
}

OP = "op"
_ROOT = -1


class Tracer:
    def __init__(self, layers: dict = LAYERS):
        self.layers = layers
        self.spans: list = []  # (layer, start, end, parent span index)
        self.case_tags: set = set()
        self.absent: list = []
        self._stack = [_ROOT]
        self._patched: list = []  # (module, attribute, original)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "pdce" or name.startswith("pdce."))]
        for layer, targets in self.layers.items():
            for target in targets:
                mod_name, _, fn_name = target.rpartition(".")
                original = getattr(sys.modules.get(f"pdce.{mod_name}"), fn_name, None)
                if original is None:
                    self.absent.append(target)
                    continue
                wrapper = self._wrap(layer, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def begin(self, layer: str) -> int:
        sid = len(self.spans)
        self.spans.append((layer, time.perf_counter(), None, self._stack[-1]))
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        layer, t0, _, parent = self.spans[sid]
        self.spans[sid] = (layer, t0, t1, parent)

    def _wrap(self, layer: str, fn):
        tracer = self
        planner = layer == "embedder.plan_udr_case"

        def wrapper(*args, **kwargs):
            if tracer._stack[-1] == _ROOT:  # outside any op, e.g. in an output check
                return fn(*args, **kwargs)
            sid = tracer.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if planner and getattr(result, "case_tag", None) is not None:
                tracer.case_tags.add(result.case_tag)
            return result

        return wrapper

    def totals(self) -> tuple[Counter, Counter]:
        """Per-layer call counts and self seconds over all recorded spans."""
        child = [0.0] * len(self.spans)
        for layer, t0, t1, parent in self.spans:
            if parent != _ROOT:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for sid, (layer, t0, t1, parent) in enumerate(self.spans):
            if parent == _ROOT or self.spans[parent][0] != layer:
                calls[layer] += 1
            self_s[layer] += (t1 - t0) - child[sid]
        return calls, self_s
