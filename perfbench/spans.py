"""Span recording for the traced benchmark run.

The tracer wraps public functions of the program from outside, at the name
each caller looks up, and records one span per call: name, start, end,
parent span and solve id, plus an optional tag taken from the arguments.
Spans stay in memory; the worker reduces them to per-layer numbers and hands
them to the parent, which writes them out when the run ends.
"""
from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

# Span fields, in order.
NAME, START, END, PARENT, SOLVE, TAG = range(6)


class Tracer:
    """Call spans and counters for one worker process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.solve_id = None
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, tag=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.solve_id, tag])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][END] = time.perf_counter()

    def wrap(self, name: str, fn, tag=None):
        """``fn`` recording a span per call; ``tag(*args)`` labels the span."""

        def traced(*args, **kwargs):
            with self.span(name, tag(*args) if tag else None):
                return fn(*args, **kwargs)

        return traced

    def count(self, name: str, fn):
        """``fn`` counting its calls without a span."""

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``; absent names are noted."""
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make(getattr(owner, attr)))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(spans: list[list], scales=None) -> dict[str, dict]:
    """Per span name: calls, total and self milliseconds, and the tags seen.

    ``scales[solve_id]``, when given, multiplies the times of that solve's spans.
    """
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        scale = scales[span[SOLVE]] if scales is not None else 1.0
        entry = out.setdefault(span[NAME], {"calls": 0, "ms": 0.0, "self_ms": 0.0, "tags": []})
        entry["calls"] += 1
        entry["ms"] += 1e3 * (span[END] - span[START]) * scale
        entry["self_ms"] += 1e3 * own * scale
        if span[TAG] is not None:
            entry["tags"].append(span[TAG])
    return out
