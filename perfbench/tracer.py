"""Per-layer tracing from outside the package.

`Tracer.install()` wraps every public function of each layer (the names in
the layer module's `__all__`) and rebinds the wrapper wherever a conset
module namespace binds the original, so from-imports and intra-module calls
go through it too.  Nothing under the package's source is edited.

Non-kernel calls open a span.  A function's self time is its span's
duration minus the time of the spans it opened.  Kernel calls are hot, so
they are aggregated in place instead: each is counted and timed, but opens
no span, so its time also stays in the self time of the non-kernel function
that made it.  `kernel.self_s` is the time inside outermost kernel calls.

The wrappers read only `uid` from results, never `.text`, so they force no
lazy work.  They keep time in float seconds: an integer difference of
nanoseconds would come from the interpreter's small-int cache or be
allocated depending on its value, and the heap layout, which steers the
iteration order of sets of handles and so some call counts, would follow
the clock.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

LAYERS = ("kernel", "algebra", "structure", "numerals", "tuples", "fusion", "expr", "cli")

# Functions reported one by one (calls and self time): the ones an open
# ROADMAP item should move.
FUNCTIONS = (
    "kernel.make_set",
    "kernel.parse",
    "kernel.constituent_set",
    "algebra.replace",
    "algebra.is_top",
    "numerals.zermelo",
    "tuples.position",
    "fusion.top_structure",
    "fusion.has_top_structure",
    "fusion.has_bottom_structure",
    "structure.structure_of",
    "structure.canonical_cert",
    "structure.isomorphic",
    "structure.simplest_set",
    "expr.evaluate",
    "cli.main",
)


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.budget_exhausted = 0
        self.new_handles = 0
        self.high_water = -1
        self._spans = [0.0]  # child time of each open span, outermost first
        self._kernel = [0.0]  # same, for nested kernel calls
        self._budget_error: type | None = None

    def reset(self) -> None:
        """Zero all counts; the uid high-water mark is kept."""
        self.calls.clear()
        self.self_s.clear()
        self.errors.clear()
        self.budget_exhausted = 0
        self.new_handles = 0

    def _error(self, layer: str, exc: BaseException) -> None:
        self.errors[layer] += 1
        if self._budget_error is not None and isinstance(exc, self._budget_error):
            self.budget_exhausted += 1

    def _span(self, layer: str, key: str, fn):
        spans = self._spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._error(layer, exc)
                raise
            finally:
                elapsed = clock() - t0
                self.self_s[key] += elapsed - spans.pop()
                spans[-1] += elapsed
                self.calls[key] += 1

        return wrapper

    def _in_place(self, key: str, fn, is_make_set: bool):
        nested = self._kernel
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            nested.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._error("kernel", exc)
                raise
            finally:
                elapsed = clock() - t0
                self.self_s[key] += elapsed - nested.pop()
                nested[-1] += elapsed
                if len(nested) == 1:
                    self.self_s["kernel"] += elapsed
                self.calls[key] += 1
            if is_make_set and result.uid > self.high_water:
                self.new_handles += 1
                self.high_water = result.uid
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions in every conset namespace."""
        import conset

        modules = {layer: importlib.import_module(f"conset.{layer}") for layer in LAYERS}
        self._budget_error = conset.SearchBudgetExceeded
        self.high_water = conset.EMPTY.uid
        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if isinstance(fn, type) or not callable(fn):
                    continue
                key = f"{layer}.{name}"
                if layer == "kernel":
                    replacements[id(fn)] = self._in_place(key, fn, name == "make_set")
                else:
                    replacements[id(fn)] = self._span(layer, key, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "conset" and not modname.startswith("conset."):
                continue
            for name, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    def layer_self_s(self, layer: str) -> float:
        if layer == "kernel":
            return float(self.self_s["kernel"])
        prefix = layer + "."
        return float(sum(v for k, v in self.self_s.items() if k.startswith(prefix)))

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))

    def report(self, busy_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced queries, which took busy_s."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.layer_calls(layer)
            out[f"{layer}.self_s"] = self.layer_self_s(layer)
            out[f"{layer}.errors"] = self.errors[layer]
        for key in FUNCTIONS:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = float(self.self_s[key])
        made = self.calls["kernel.make_set"]
        out["kernel.new_handles"] = self.new_handles
        out["kernel.intern_hit_ratio"] = 1 - self.new_handles / made if made else 0.0
        out["fusion.budget_exhausted"] = self.budget_exhausted
        out["trace.busy_s"] = busy_s
        return out

    def counts(self) -> dict[str, int]:
        """Every count the trace keeps; two runs of one seed must agree."""
        out = {f"calls.{k}": v for k, v in self.calls.items()}
        out.update({f"errors.{k}": v for k, v in self.errors.items()})
        out["budget_exhausted"] = self.budget_exhausted
        out["new_handles"] = self.new_handles
        return out
