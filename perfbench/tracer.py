"""Layer tracing from outside the program, by rebinding module globals.

A layer is a `dpswd` module. Wherever one `dpswd` module holds a global that
names a function defined in another (say `dpswd.cli.load_csv`, defined in
`dpswd.measures`), the binding is replaced by a wrapper that records a span
named `<layer>.<function>`. The bindings are discovered, not listed, so a
refactor that moves calls between modules stays traced. Work counts are taken
from outside too: file sizes, the sizes of returned arrays, call arguments.

Spans are kept in memory as [name, start, end, parent] and handed back when
the caller asks; a layer's self time is its spans' time minus their children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "dpswd"
LAYERS = ("cli", "measures", "randomness", "sliced_distance", "wasserstein1d",
          "accountant", "sensitivity", "flow")

# Functions whose every evaluation is counted, including calls from inside
# their own module (calibrate_sigma's bisection calls account directly).
COUNT_INTERNAL_CALLS = ("accountant.account",)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _observe(qual: str, fn, args, kwargs, result, work: Counter) -> None:
    """Exact work counts for one returned call, read from its arguments and result."""
    if qual == "measures.load_csv":
        work["measures.bytes_read"] += os.path.getsize(_bound(fn, args, kwargs)["path"])
    elif qual == "measures.save_csv":
        work["measures.bytes_written"] += os.path.getsize(_bound(fn, args, kwargs)["path"])
    elif qual in ("randomness.sample_sphere", "randomness.sample_gaussian_matrix"):
        work["randomness.values_drawn"] += result.size
    elif qual == "wasserstein1d.sorted_profile":
        work["wasserstein1d.support_points"] += result.values.size
    elif qual == "sensitivity.simulate_sensitivity":
        work["sensitivity.trials"] += result.size
    elif qual == "flow.run_flow":
        work["flow.steps"] += _bound(fn, args, kwargs)["cfg"].iterations


class Tracer:
    """Install with `install()`, run traced code, then `uninstall()`.

    Between the two every cross-module function binding in `dpswd` records a
    span; `uninstall` puts back every original object.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.work: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- rebinding ------------------------------------------------------

    def _span_wrapper(self, fn, qual: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.work[qual + ".evals"] += 1
            result = tracer.call(qual, fn, *args, **kwargs)
            _observe(qual, fn, args, kwargs, result, tracer.work)
            return result

        return traced

    def _count_wrapper(self, fn, qual: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.work[qual + ".evals"] += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, module, name: str, wrapper) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        plan = []
        for module in modules:
            for name, obj in vars(module).items():
                if not inspect.isfunction(obj) or not obj.__module__.startswith(PACKAGE + "."):
                    continue
                qual = obj.__module__.split(".", 1)[1] + "." + obj.__qualname__
                if obj.__module__ != module.__name__:
                    plan.append((module, name, self._span_wrapper(obj, qual)))
                elif qual in COUNT_INTERNAL_CALLS:
                    plan.append((module, name, self._count_wrapper(obj, qual)))
        for module, name, wrapper in plan:
            self._rebind(module, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    # -- results --------------------------------------------------------

    def drain(self) -> tuple[list[list], dict]:
        """Hand back and forget the spans and counts recorded so far."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans, work = self.spans, dict(self.work)
        self.spans, self.work = [], Counter()
        return spans, work


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per layer spent in its own code: span time minus child spans."""
    child_time = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        totals[layer_of(name)] += end - start - child_time[index]
    return dict(totals)


def call_counts(spans: list[list]) -> Counter:
    """Spans opened per layer, each one a call into that layer from another."""
    return Counter(layer_of(name) for name, *_ in spans)
