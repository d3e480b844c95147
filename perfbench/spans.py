"""Spans and counters recorded around the benchmark's calls into bscoal.

Spans are taken in the benchmark's own code, at the boundary between a
job and the library: the library itself is not instrumented, so a call
that one public function makes to another inside bscoal is part of the
outer span.  The nesting is run -> job -> layer call.  A job's self time
(its span minus its layer calls) is the benchmark's own checking work,
plus the part of each wrapper's cost that falls outside its span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from contextlib import contextmanager

clock = time.perf_counter

# Layer calls whose span name carries the method or formula argument.
_METHOD_ARG = {
    "analytics.hitting_probability": (2, "method", "convolution"),
    "analytics.fixation_transition": (3, "formula", "stirling"),
}


class Tracer:
    """In-memory span list plus per-name call statistics and counters."""

    def __init__(self, workload: str, run: int):
        self.workload = workload
        self.run = run
        self.spans: list[tuple] = []  # (name, start, end, parent, job)
        self.calls: dict[str, list] = {}  # name -> [calls, busy_s, failed]
        self.counters: dict[str, float] = {}
        self.job: str | None = None
        self._job_span = -1

    # -- spans ------------------------------------------------------------
    def _record(self, name, t0, t1, failed):
        self.spans.append((name, t0, t1, self._job_span, self.job))
        st = self.calls.get(name)
        if st is None:
            st = self.calls[name] = [0, 0.0, 0]
        st[0] += 1
        st[1] += t1 - t0
        st[2] += failed

    @contextmanager
    def job_span(self, name: str):
        self.job = name
        self._job_span = len(self.spans)
        self.spans.append(("job:" + name, clock(), None, -1, name))
        try:
            yield
        finally:
            s = self.spans[self._job_span]
            self.spans[self._job_span] = (s[0], s[1], clock(), s[3], s[4])
            self.job = None
            self._job_span = -1

    @contextmanager
    def layer_span(self, name: str):
        """A layer span around a block of library calls made directly."""
        t0 = clock()
        failed = 1
        try:
            yield
            failed = 0
        finally:
            self._record(name, t0, clock(), failed)

    def wrap(self, name: str, fn):
        spec = _METHOD_ARG.get(name)

        def traced(*args, **kwargs):
            span = name
            if spec is not None:
                pos, key, default = spec
                m = args[pos] if len(args) > pos else kwargs.get(key, default)
                span = f"{name}.{getattr(m, 'value', m)}"
            t0 = clock()
            failed = 1
            try:
                out = fn(*args, **kwargs)
                failed = 0
                return out
            finally:
                self._record(span, t0, clock(), failed)

        return traced

    # -- counters ---------------------------------------------------------
    def add(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    # -- output -----------------------------------------------------------
    def job_self_time(self) -> float:
        """Sum over jobs of job span minus the layer spans inside it."""
        total = 0.0
        for name, t0, t1, parent, _ in self.spans:
            if parent == -1 and name.startswith("job:"):
                total += t1 - t0
            elif parent != -1:
                total -= t1 - t0
        return total

    def dump(self, path: str) -> None:
        """Write the spans; `parent` indexes the span list (-1: the run)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "workload": self.workload,
                    "run": self.run,
                    "fields": ["name", "start", "end", "parent", "job"],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


class _TracedModule:
    """Module stand-in whose public functions record a span per call."""

    def __init__(self, layer: str, module, tracer: Tracer):
        self._layer = layer
        self._module = module
        self._tracer = tracer

    def __getattr__(self, attr):
        obj = getattr(self._module, attr)
        if callable(obj) and not inspect.isclass(obj) and not attr.startswith("_"):
            obj = self._tracer.wrap(f"{self._layer}.{attr}", obj)
        setattr(self, attr, obj)
        return obj


class Layers:
    """The bscoal modules a job calls into: plain modules when untraced."""

    NAMES = ("combinatorics", "spectral", "analytics", "limits", "simulate")

    def __init__(self, tracer: Tracer | None):
        for layer in self.NAMES:
            module = importlib.import_module(f"bscoal.{layer}")
            setattr(self, layer, module if tracer is None else _TracedModule(layer, module, tracer))
