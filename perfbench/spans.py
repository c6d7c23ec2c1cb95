"""In-memory spans and counters for the benchmark's traced runs.

A span records one call into a package layer: name, start, end, the
span that caused it, and the op it belongs to.  Spans stay in memory
and are written out when the run ends.  Self time is a span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext

ROOT_SPAN = "op"


class Tracer:
    """Collects spans and per-op counts; one op is traced at a time."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.spans = []   # [name, start, end, parent index or None, op id]
        self.counts = {}  # (op id, counter name) -> value
        self._stack = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self._clock(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = self._clock()

    def count(self, name: str, value: float = 1) -> None:
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        children = [[] for _ in self.spans]
        for index, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                children[parent].append(index)
        out = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            intervals = sorted((max(self.spans[c][1], start), min(self.spans[c][2], end))
                               for c in children[index])
            covered = 0.0
            reach = start
            for lo, hi in intervals:
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def per_op_self(self) -> dict:
        """{op id: {span name: summed self time in s}} over completed spans."""
        table = {}
        for (name, _, _, _, op), self_s in zip(self.spans, self.self_times()):
            row = table.setdefault(op, {})
            row[name] = row.get(name, 0.0) + self_s
        return table

    def per_op_counts(self) -> dict:
        """{op id: {counter name: value}}."""
        table = {}
        for (op, name), value in self.counts.items():
            table.setdefault(op, {})[name] = value
        return table

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [
                {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                for name, start, end, parent, op in self.spans]}, fh)


class NullTracer:
    """Stand-in for untraced runs: spans and counts cost one call each."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float = 1) -> None:
        pass


def tail_latency(values) -> tuple:
    """Highest percentile with at least ten ops beyond it.

    Returns (value, percentile, n).  With n sorted latencies the answer
    is the (n - 10)-th smallest, i.e. the nearest-rank percentile
    100 * (n - 10) / n, which has exactly ten strictly larger ranks.
    With ten ops or fewer no percentile qualifies; the minimum is
    returned with percentile 0 so the shortfall shows in the record.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no latencies")
    rank = max(n - 10, 1)
    return ordered[rank - 1], (100.0 * (n - 10) / n if n > 10 else 0.0), n


def median_of(values) -> float:
    """Median, or 0 for a layer no op reached."""
    values = list(values)
    return statistics.median(values) if values else 0.0
