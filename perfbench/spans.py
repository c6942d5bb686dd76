"""Span tracer for the benchmark's traced run.

The tracer wraps every public function of each kannanlab module from the
outside, so the package itself carries no tracing code.  A wrapped call
records one span (name, start, end, parent span, operation id) and, at a
few boundaries, adds to named counters computed from the call's arguments
or result.  Spans stay in memory until :meth:`Tracer.write` is called.

Direct recursion (``report.round_floats`` walks a document by calling
itself) is folded into the outermost span, so a layer's call count is the
number of times another function called into it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "cli",
    "scenario",
    "metric",
    "conditions",
    "sigma",
    "picard",
    "theorems",
    "builtins",
    "report",
)

_DECIDED = ("certified-holds", "falsified")


def _count_find_violations(counters, args, kwargs, result):
    dist = args[0] if args else kwargs["dist"]
    n = len(dist)
    # Computed, not counted: one full scan tests every (i, j, k) triple.
    counters["metric.triangle_checks"] += n**3
    counters["metric.violations_found"] += len(result)


def _count_check_condition(counters, args, kwargs, result):
    counters["conditions.pairs_checked"] += result.pairs_checked
    counters["conditions.pairs_skipped"] += result.pairs_skipped


def _count_classify(counters, args, kwargs, result):
    for _, verdict in result.axiom_verdicts:
        counters["sigma.budget_used"] += verdict.budget_used
        counters["sigma.verdicts"] += 1
        if verdict.outcome.value in _DECIDED:
            counters["sigma.verdicts_decided"] += 1


def _count_picard(counters, args, kwargs, result):
    counters["picard.chain_steps"] += len(result.points)


def _count_render(counters, args, kwargs, result):
    counters["report.bytes_out"] += len(result.encode())


HOOKS = {
    "metric.find_violations": _count_find_violations,
    "conditions.check_condition": _count_check_condition,
    "sigma.classify": _count_classify,
    "picard.run_picard_pair": _count_picard,
    "report.render_json": _count_render,
    "report.render_text": _count_render,
}


class Tracer:
    """Records spans around the public functions of the kannanlab modules."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.enabled = False
        self.op: int | None = None
        self._stack: list[int] = []
        self._names: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap each layer's public functions wherever the package refers to them."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "kannanlab" or name.startswith("kannanlab.")
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"kannanlab.{layer}"]
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not name.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    key = f"{layer}.{name}"
                    wrappers[id(fn)] = (fn, self._wrap(key, fn, HOOKS.get(key)))
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, entry[1])

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def _wrap(self, key: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or (tracer._names and tracer._names[-1] == key):
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(span_id)
            tracer._names.append(key)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer._names.pop()
                tracer.spans[span_id] = (span_id, parent, tracer.op, key, start, end)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )

    def layer_times(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Self time and call count per layer, plus inclusive time per function.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        calls: dict[str, int] = dict.fromkeys(LAYERS, 0)
        inclusive: dict[str, float] = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            layer = name.split(".", 1)[0]
            self_s[layer] += (end - start) - child_time[span_id]
            calls[layer] += 1
            inclusive[name] += end - start
        return self_s, calls, inclusive

    def function_calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[3] == name)
