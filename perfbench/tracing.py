"""Spans around the benchmark's calls into the library, kept in memory.

A span is (name, start, end, parent, operation id).  Layer spans are named
``<module>.<function>`` after the library module they call into.  Each
operation gets a parent span ``op.<kind>``, which is not a layer; spans of
the build phase and of constructors between operations have operation id
None.  With tracing off, ``call`` is a plain call, so traced and untraced
runs issue the same library calls.
"""

from __future__ import annotations

import contextlib
import json
import time

LAYERS = ("grid", "coefficients", "operators", "calculus", "tent", "bvp", "io")


def layer_of(name: str) -> str | None:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []
        self.op_id = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def call(self, fn, *args, **kwargs):
        """Call a library function, named after its module and qualified name."""
        if not self.enabled:
            return fn(*args, **kwargs)
        module = fn.__module__.rsplit(".", 1)[-1]
        return self.call_as(f"{module}.{fn.__qualname__}", fn, *args, **kwargs)

    def call_as(self, name: str, fn, *args, **kwargs):
        """Call under an explicit span name (methods, path-qualified calls)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def scope(self, name: str, op_id):
        """Parent span for one operation."""
        if not self.enabled:
            yield
            return
        previous, self.op_id = self.op_id, op_id
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self.op_id = previous

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def self_times(spans: list, start: int = 0, stop: int | None = None):
    """Per-name self time and call count for the layer spans in a slice.

    Self time is a span's duration minus the durations of its direct
    children; parents are indices into the same list.
    """
    window = spans[start:stop]
    child_time = {}
    for name, t0, t1, parent, _ in window:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    seconds, calls = {}, {}
    for offset, (name, t0, t1, _, _) in enumerate(window):
        if layer_of(name) is None:
            continue
        own = (t1 - t0) - child_time.get(start + offset, 0.0)
        seconds[name] = seconds.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
    return seconds, calls
