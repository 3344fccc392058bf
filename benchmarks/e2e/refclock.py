"""Host speed, sampled while a pass does its timed work.

The benchmark runs on shared virtual machines whose CPU speed wanders:
a fixed pure-Python loop takes anywhere from 1x to 2x its fastest
time, flipping within seconds and drifting over minutes, so the same
code's wall time moved by 15-40% between runs minutes apart.  A
:class:`ReferenceClock` measures that speed *during* the work: every
:data:`INTERVAL_S` of wall time a ``SIGALRM`` handler runs
:func:`reference_loop` in the main thread, between two bytecodes of
whatever the pass is doing (or while it waits on a pipe or socket),
and records the loop's CPU time.

The mean of those samples is the pass's *reference unit* ("ref").  The
work's own time is the timed wall (or CPU) minus the time spent in the
samples, and the gated metrics are that time in refs: a count of
reference-loop durations, which stays put when the host slows
everything down alike.

The loop has two halves because the slow phases do not slow all code
alike.  Interpreter-bound code (the first half) slowed by ~1.25x as
much as the enumerator, and a dependent walk through a 512 KiB table
(the second half) by ~0.75x as much; with equal halves the
coefficient of variation of pass times, over ~80 corpus-flat passes in
fresh processes, was 15% in seconds and 3% in refs (4.5% with the
first half alone).
"""

from __future__ import annotations

import signal
import time
from array import array
from statistics import fmean
from typing import List

#: seconds of wall time between two samples
INTERVAL_S = 0.05
#: iterations of the interpreter-bound half, about 1.4 ms
ITERATIONS = 3000
#: steps of the table walk, about 0.5 ms
STEPS = 4000
#: entries of the walked table (4 bytes each)
TABLE_BITS = 17


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int):
        self.key = key
        self.value = 0

    def bump(self, amount: int) -> int:
        self.value = (self.value + amount) & 0xFFFFFFFF
        return self.value


def walk_table() -> array:
    """``table[i]`` is the successor of ``i`` on one cycle through every
    entry: a full-period linear congruential step, so each hop lands far
    from the last and no prefetcher can follow."""
    mask = (1 << TABLE_BITS) - 1
    return array("i", ((1103515245 * i + 12345) & mask for i in range(1 << TABLE_BITS)))


def reference_loop(cells: List[_Cell], table: array) -> int:
    """A fixed mix of what the enumerator's time goes to: dict reads and
    writes, tuple hashing, slotted attribute updates and method calls,
    then dependent loads that miss the first-level caches.  Its code is
    the benchmark's, never the program's."""
    counts = {}
    acc = 0
    for i in range(ITERATIONS):
        key = (i * 2654435761) & 1023
        counts[key] = counts.get(key, 0) + 1
        acc ^= cells[i & 63].bump(key) & 0xFFFF
        acc ^= hash((key, i & 7)) & 0xFFFF
    at = acc & (len(table) - 1)
    for _ in range(STEPS):
        at = table[at]
    return acc ^ at


class ReferenceClock:
    """Context manager that samples :func:`reference_loop` around and
    throughout the enclosed block (main thread, POSIX ``SIGALRM``)."""

    def __init__(self) -> None:
        #: CPU seconds of each sample
        self.samples: List[float] = []
        #: wall and CPU seconds spent sampling, to take out of the work
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._cells = [_Cell(i) for i in range(64)]
        self._table = walk_table()

    def sample(self, _signum=None, _frame=None) -> None:
        wall, cpu = time.perf_counter(), time.thread_time()
        reference_loop(self._cells, self._table)
        cpu = time.thread_time() - cpu
        self.samples.append(cpu)
        self.cpu_s += cpu
        self.wall_s += time.perf_counter() - wall

    def __enter__(self) -> "ReferenceClock":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    @property
    def unit_s(self) -> float:
        """The reference unit: mean CPU seconds of one sample."""
        return fmean(self.samples)
