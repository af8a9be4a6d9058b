"""Host speed, gauged by a fixed reference kernel timed between ops.

The benchmark runs on a few cores of a shared host.  Other tenants' load
changes how fast the same code runs by up to about 1.7x, for seconds to
minutes at a time, and process CPU time rises with wall time, so neither
is steady from one run to the next.  A fixed kernel timed at short
intervals between ops slows down with the host, so an op's time divided
by the kernel's time at that moment is steady where the op's time alone
is not.  The benchmark reports its time metrics scaled that way (and the
raw ones beside them).

The kernel does what the program spends its time on: interpreter loops
over Python ints, modular exponentiation, and numpy int64 products of
small matrices reduced mod q.  It never calls the program, so a change to
the program moves the scaled times and leaves the kernel's alone.
"""
from __future__ import annotations

import bisect
import statistics
from time import perf_counter, process_time

import numpy as np

# Scaled times are the times on a host where the kernel takes REF_MS
# between ops.  On the machine of baseline.md it took about 1.1 ms between
# ops in quiet periods and up to 1.8 ms in busy ones.
REF_MS = 1.0
# Run the kernel at most once per this many seconds of ops.
EVERY_S = 0.01
# An op's host speed is the median kernel time of this many samples
# nearest to the op's end.
NEAREST = 5

_Q = (1 << 42) + 15     # the desk preset's modulus


def kernel() -> int:
    """A fixed amount of work of the program's kind; returns a checksum."""
    rng = np.random.default_rng(12345)
    acc = 1
    for _ in range(48):
        a = rng.integers(0, 1 << 20, size=(8, 8), dtype=np.int64)
        v = rng.integers(0, 1 << 20, size=8, dtype=np.int64)
        y = (a @ v) % _Q
        acc = (acc + int(np.minimum(y, _Q - y).max())) % _Q
        table = {j: (j * acc) % 97 for j in range(16)}
        acc = pow(acc + sum(table.values()), 5, _Q)
    return acc


CHECKSUM = kernel()


class Gauge:
    """Kernel samples taken between the ops of one timed window."""

    def __init__(self):
        self.every = EVERY_S
        self.ends: list[float] = []      # perf_counter() at each sample's end
        self.times: list[float] = []     # each sample's wall seconds
        self.wall = 0.0
        self.cpu = 0.0
        self._due = 0.0

    def poll(self) -> None:
        """Run the kernel if a sample is due; call only between ops."""
        start = perf_counter()
        if start < self._due:
            return
        cpu0 = process_time()
        if kernel() != CHECKSUM:
            raise AssertionError("reference kernel gave a wrong checksum")
        end = perf_counter()
        self.cpu += process_time() - cpu0
        self.ends.append(end)
        self.times.append(end - start)
        self.wall += end - start
        self._due = end + self.every

    def median_ms(self) -> float:
        return statistics.median(self.times) * 1e3

    def local_ms(self, when: float) -> float:
        """Median kernel time, in ms, of the NEAREST samples around `when`."""
        i = bisect.bisect_left(self.ends, when)
        lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
        return statistics.median(self.times[lo:lo + NEAREST]) * 1e3
