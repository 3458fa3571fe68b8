"""Spans around the benchmark's calls into each layer, and the statistics
the benchmark reports.

A span is ``[name, start, end, parent, op]``: ``name`` is ``layer.function``,
``parent`` the index of the enclosing span (None at the top), ``op`` the id
of the op it belongs to (None for the probes that run after the timed loop).
Spans stay in memory until the run ends.  ``record`` keeps a value measured
at the same boundary (a size, a verdict, an error) with the op it belongs to.
"""

from __future__ import annotations

import math
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.records = []
        self.op = None
        self._open = []

    def call(self, name, fn, *args, **kw):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(idx)
        try:
            return fn(*args, **kw)
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def record(self, name, value):
        self.records.append((name, value, self.op))


class Untraced:
    """Same interface as Tracer; calls straight through."""

    def call(self, name, fn, *args, **kw):
        return fn(*args, **kw)

    def record(self, name, value):
        pass


UNTRACED = Untraced()


def self_times(spans):
    """Each span's duration minus the time its child spans cover.  Calls are
    sequential, so children never overlap and their durations add up."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(end - start) - c
            for (_, start, end, _, _), c in zip(spans, covered)]


def tail(values):
    """(value, percentile) at the highest percentile that leaves at least ten
    values beyond it; the maximum when there are ten values or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def median(values):
    return statistics.median(values)


def growth(sizes, times):
    """Least-squares slope of log2(time) against log2(size): 1 for linear
    cost, 2 for quadratic."""
    xs = [math.log2(s) for s in sizes]
    ys = [math.log2(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))
