"""Span tracing of clutterlab's public functions, installed from outside.

`Tracer.install` wraps every public function that a layer module defines and
rebinds the wrapper under every name that binds the original anywhere in the
package, so calls through ``from .core import minor`` in ``covering``, ``cm``
and ``harness`` are traced as well as calls through the module itself.  The
package source is left untouched.

Each call records one span (function, start, end, parent span); a generator
function records one span per resumption.  Spans stay in memory in flat
arrays and are written out once, by `write_spans`, when the round ends.  A
span's self time is its duration minus the durations of its direct children,
which nest inside it.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from functools import wraps
from time import perf_counter

LAYERS = ("core", "covering", "polyhedra", "rees", "cm", "harness")


def public_functions(module):
    """(name, function) for each public function the module itself defines."""
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.originals: dict[str, object] = {}

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        calls, open_span, close_span = self.calls, self._open, self._close

        if inspect.isgeneratorfunction(fn):

            @wraps(fn)
            def traced_generator(*args, **kwargs):
                calls[name_id] += 1
                gen = fn(*args, **kwargs)
                while True:
                    idx = open_span(name_id)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    yield item

            return traced_generator

        @wraps(fn)
        def traced(*args, **kwargs):
            calls[name_id] += 1
            idx = open_span(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(idx)

        return traced

    def install(self, package) -> None:
        """Wrap each layer's public functions wherever the package binds them."""
        prefix = package.__name__ + "."
        modules = [package] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)
        ]
        for layer in LAYERS:
            module = sys.modules[prefix + layer]
            for name, fn in public_functions(module):
                qualname = f"{layer}.{name}"
                traced = self._wrap(qualname, fn)
                self.originals[qualname] = fn
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, traced)

    def self_times(self) -> list[float]:
        """Self time per function name id, summed over all spans."""
        n = len(self.span_start)
        covered = array("d", bytes(8 * n))
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        totals = [0.0] * len(self.names)
        for i, name_id in enumerate(self.span_name):
            totals[name_id] += ends[i] - starts[i] - covered[i]
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer; calls and self time per wrapped function; and
        hits and misses of each wrapped function that is an lru_cache."""
        totals = self.self_times()
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, calls, self_s in zip(self.names, self.calls, totals):
            out[name.split(".")[0] + ".self_s"] += self_s
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            cache_info = getattr(self.originals[name], "cache_info", None)
            if cache_info is not None:
                info = cache_info()
                out[f"{name}.cache_hits"] = info.hits
                out[f"{name}.cache_misses"] = info.misses
        return out

    def overhead_s(self, probes: int = 200_000) -> float:
        """Estimated traced time minus untraced time of everything recorded:
        the spans recorded times the extra cost of one traced call, timed on
        a no-op function."""

        def noop():
            return None

        traced = Tracer()._wrap("noop", noop)
        start = perf_counter()
        for _ in range(probes):
            noop()
        direct = perf_counter() - start
        start = perf_counter()
        for _ in range(probes):
            traced()
        per_span = (perf_counter() - start - direct) / probes
        return len(self.span_start) * per_span

    def write_spans(self, path) -> None:
        """A JSON header line, then the span arrays in native binary layout.

        The header gives the function names and, for each array in file
        order, its field name and `array` typecode; every array has one entry
        per span.  Parent -1 marks a span with no traced caller.
        """
        arrays = (
            ("name", self.span_name),
            ("parent", self.span_parent),
            ("start_s", self.span_start),
            ("end_s", self.span_end),
        )
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": [[field, a.typecode] for field, a in arrays],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, a in arrays:
                a.tofile(fh)
