"""In-memory span recording and the arithmetic the benchmark does on spans.

A span is [name, op, parent, start, end]: `op` is the id of the benchmark
op it belongs to and `parent` the index of the span that was open on the
same thread when it started (-1 for a root).  Each thread appends to its
own list, so recording takes no lock; lists are merged only when read.
"""
from __future__ import annotations

import functools
import math
import threading
from collections import Counter
from time import perf_counter

OP = "op"
TAIL = "op.tail"


class _ThreadLog:
    __slots__ = ("thread", "spans", "stack", "op", "counts")

    def __init__(self, thread: str):
        self.thread = thread
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()


class Tracer:
    """Records spans opened by `wrap`-ed functions and by begin_op/end_op."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def _open(self, log: _ThreadLog, name: str) -> list:
        rec = [name, log.op, log.stack[-1] if log.stack else -1,
               perf_counter(), 0.0]
        log.stack.append(len(log.spans))
        log.spans.append(rec)
        return rec

    def wrap(self, name: str, fn, observe=None):
        """`fn` timed as a span called `name`; `observe(counts, result)`
        may count something about each result on the calling thread."""
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            log = self._log()
            rec = self._open(log, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                log.stack.pop()
            if observe is not None:
                observe(log.counts, result)
            return result
        return timed

    def set_op(self, op: int) -> None:
        """Spans the calling thread opens from now on belong to `op`."""
        self._log().op = op

    def begin_op(self, op: int) -> None:
        log = self._log()
        log.op = op
        self._open(log, OP)

    def end_op(self) -> None:
        log = self._log()
        log.spans[log.stack.pop()][4] = perf_counter()

    def discard_op(self) -> None:
        """Close the op opened after the last completed one.  Work the
        workload did after that completion (the TCP workload serialises
        a chunk's transcripts once its sessions end) stays recorded, under
        a span named `TAIL` that does not count as an op."""
        log = self._log()
        idx = log.stack.pop()
        if idx == len(log.spans) - 1:
            log.spans.pop()
        else:
            log.spans[idx][0] = TAIL
            log.spans[idx][4] = perf_counter()

    def threads(self) -> list[_ThreadLog]:
        with self._lock:
            return list(self._logs)

    def counts(self) -> Counter:
        total: Counter = Counter()
        for log in self.threads():
            total.update(log.counts)
        return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span never overlap and
    their durations add up to the part of its interval they cover."""
    out = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[2] >= 0:
            out[s[2]] -= s[4] - s[3]
    return out


def aggregate(span_lists) -> dict[str, list]:
    """name -> [calls, self seconds, inclusive seconds] over all threads."""
    table: dict[str, list] = {}
    for spans in span_lists:
        for s, own in zip(spans, self_times(spans)):
            row = table.setdefault(s[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += own
            row[2] += s[4] - s[3]
    return table


def percentile(values, p: float) -> float:
    """The p-th percentile with linear interpolation between closest ranks
    (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= p <= 100:
        raise ValueError("p must lie in [0, 100]")
    xs = sorted(values)
    h = (len(xs) - 1) * p / 100
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])
