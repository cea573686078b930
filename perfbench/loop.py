"""One job of a workload: its build phase and its closed operation loop.

The loop has one client: each operation is issued only after the previous
one has returned and been checked.  An operation that raises or fails a
check counts as failed, and its latency still counts.

A job is cut into segments: each build-phase call made through ``step``,
each operation, and the glue between them.  Every job of a run cuts the same
segments in the same order, so a run can take each segment's median over its
jobs (see ``typical``).
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time
import traceback


class Job:
    def __init__(self, tracer, scale: float):
        self.tracer = tracer
        self.scale = scale  # host-speed factor applied to this job's times
        self.start = time.perf_counter()
        self.end = None
        self.latencies: list = []
        self.failed = 0
        self.extremes: dict = {}  # check name -> [lowest, highest]
        self.counts: dict = {}  # per-layer counters a workload records
        self.aborted = False
        self._op_ok = True
        self.segments: list = []  # (label, seconds), in order
        self._last = self.start

    def _cut(self, label: str) -> float:
        now = time.perf_counter()
        self.segments.append((label, now - self._last))
        self._last = now
        return now

    def step(self, fn, *args, **kwargs):
        """One build-phase library call, timed as its own segment."""
        out = self.tracer.call(fn, *args, **kwargs)
        self._cut("build")
        return out

    def step_as(self, name: str, fn, *args, **kwargs):
        out = self.tracer.call_as(name, fn, *args, **kwargs)
        self._cut("build")
        return out

    @contextlib.contextmanager
    def op(self, kind: str):
        index = len(self.latencies)
        self._op_ok = True
        t0 = self._cut("glue")
        try:
            with self.tracer.scope(f"op.{kind}", index):
                yield
        except Exception:
            self._op_ok = False
            print(f"operation {index} ({kind}) raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
        t1 = self._cut("op")
        self.latencies.append(t1 - t0)
        if not self._op_ok:
            self.failed += 1

    def finish(self) -> None:
        self.end = self._cut("glue")

    def _record(self, name: str, value: float) -> None:
        lo_hi = self.extremes.setdefault(name, [value, value])
        lo_hi[0] = min(lo_hi[0], value)
        lo_hi[1] = max(lo_hi[1], value)

    def _fail(self, message: str) -> None:
        self._op_ok = False
        print(f"check failed in operation {len(self.latencies)}: {message}", file=sys.stderr)

    def upper(self, name: str, value, bound: float) -> None:
        value = float(value)
        self._record(name, value)
        if not value <= bound:  # NaN fails too
            self._fail(f"{name} = {value:.3e} above {bound:.1e}")

    def window(self, name: str, value, lo: float, hi: float) -> None:
        value = float(value)
        self._record(name, value)
        if not lo <= value <= hi:
            self._fail(f"{name} = {value:.3e} outside [{lo:.3e}, {hi:.3e}]")

    def finite(self, name: str, *values) -> None:
        if not all(math.isfinite(float(v)) and float(v) > 0 for v in values):
            self._fail(f"{name} not finite and positive: {values}")

    # -- per-job figures ---------------------------------------------------

    def attempted(self) -> int:
        return len(self.latencies)

    def figures(self) -> dict:
        return figures(self.segments)


def typical(jobs: list) -> list:
    """Each segment's median over jobs that cut the same segments, every
    job's times multiplied by its host-speed factor first."""
    labels = [label for label, _ in jobs[0].segments]
    for job in jobs:
        if [label for label, _ in job.segments] != labels:
            raise ValueError("jobs of one run cut different segments")
    return [(label, statistics.median(job.segments[i][1] * job.scale for job in jobs))
            for i, label in enumerate(labels)]


def figures(segments: list) -> dict:
    """wall, cold latency, warm throughput, median and tail latency."""
    ends, total = [], 0.0
    for _, seconds in segments:
        total += seconds
        ends.append(total)
    ops = [i for i, (label, _) in enumerate(segments) if label == "op"]
    latencies = sorted(segments[i][1] for i in ops)
    n = len(ops)
    warm = ends[ops[-1]] - ends[ops[0]]
    beyond = 10 if n > 10 else 0  # samples beyond the tail; the maximum when too few
    return {
        "wall_s": total,
        "first_result_s": ends[ops[0]],
        "ops_per_s": (n - 1) / warm if n > 1 and warm > 0 else float("nan"),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": latencies[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_beyond": beyond,
        "ops": n,
    }
