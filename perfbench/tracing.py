"""Spans, counts and op boundaries recorded from outside the dtnfem package.

The benchmark wraps the public functions of each layer at the module
attribute its caller resolves (``harness.solve``, not ``dtnfem.solve``), so
the library itself is unchanged.  With tracing off only the few wrappers the
benchmark needs for op boundaries and correctness checks are installed, and
they record no spans.

Work the benchmark does for itself inside a pass (residual checks, LU fill,
numerical rank) runs in ``Recorder.excluded()``: its time is subtracted from
the pass and, when tracing, kept out of every layer's self time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

MEASURE = "measure"   # span name of the benchmark's own excluded work
ROOT = "pass"         # span name of one workload pass


class Recorder:
    def __init__(self, tracing: bool):
        self.tracing = tracing
        self._undo = []
        self.reset()

    def reset(self):
        """Start a new pass: forget spans, counts and op events."""
        self.spans = []          # [name, start, end, parent index]
        self._stack = []
        self.excluded_s = 0.0
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.events = []         # (kind, time, excluded_s so far)
        self.residuals = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name) if self.tracing else None
        try:
            yield
        finally:
            if idx is not None:
                self.close(idx)

    @contextmanager
    def excluded(self):
        """Time the block and take it out of the pass; when tracing, exactly
        the MEASURE span's duration, so self times still add up."""
        t0 = time.perf_counter()
        idx = self.open(MEASURE) if self.tracing else None
        try:
            yield
        finally:
            if idx is None:
                self.excluded_s += time.perf_counter() - t0
            else:
                self.close(idx)
                self.excluded_s += self.spans[idx][2] - self.spans[idx][1]

    def self_times(self) -> dict:
        """Per-name self time: duration minus the time direct children cover.
        Single-threaded calls nest, so children never overlap."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    # -- op boundaries -------------------------------------------------------
    def mark(self, kind: str):
        self.events.append((kind, time.perf_counter(), self.excluded_s))

    def op_latencies(self, end_time: float, end_excluded: float) -> list:
        """Each 'start' event opens an op that runs until the next event (or
        the end of the pass), less the excluded time inside it."""
        events = self.events + [("end", end_time, end_excluded)]
        return [(t1 - t0) - (x1 - x0)
                for (kind, t0, x0), (_, t1, x1) in zip(events, events[1:])
                if kind == "start"]

    # -- wrapping ------------------------------------------------------------
    def wrap(self, owner, attr: str, span: str | None = None,
             before=None, after=None):
        """Replace ``owner.attr`` by a wrapper that calls ``before``, records
        a span named ``span`` if given, then runs ``after(result, args)``
        excluded."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            idx = self.open(span) if span is not None else None
            try:
                result = original(*args, **kwargs)
            finally:
                if idx is not None:
                    self.close(idx)
            if after is not None:
                with self.excluded():
                    after(result, args)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def unwrap_all(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
