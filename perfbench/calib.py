"""Host-speed calibration.

On a shared virtual machine the speed of one vCPU changes from one tenth of
a second to the next and from minute to minute (by up to half, most likely
from work on sibling hyperthreads), which moves every raw timing by far more than the
benchmark's bounds. The benchmark therefore times a fixed pure-Python loop,
owned by the benchmark and independent of aeslab, on the CPU that does the
work, and divides each timing by the slowdown: the loop's mean time divided
by its time at reference speed. The result is the timing the host would
give at its reference speed.

``Sampler`` takes those samples during a timed operation, from a SIGALRM
handler, so the slowdown is averaged over the operation itself; it serves
operations that keep to the one CPU the process is pinned to. ``Bracket``
takes them on every CPU before and after an operation, while none of the
operation's processes runs; it serves the process-pool workload, whose
workers and parent would otherwise slow the loop down and be divided out.
``slowdown`` takes one reading on given CPUs.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from typing import Iterable, List

ITERATIONS = 6_000
REF_S = 0.0005  # the loop's time at reference speed
SAMPLES = 16  # loops per slowdown() reading
INTERVAL_S = 0.025  # time between samples inside an operation
_TABLE = tuple(range(255, -1, -1))


def _loop_s() -> float:
    table = _TABLE
    x = 0
    start = time.perf_counter()
    for i in range(ITERATIONS):
        x = table[(x ^ i) & 0xFF] ^ (i & 0x7F)
    return time.perf_counter() - start


def slowdown(cpus: Iterable[int]) -> float:
    """Mean loop time over the given CPUs, as a multiple of REF_S."""
    saved = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times += [_loop_s() for _ in range(SAMPLES)]
    finally:
        os.sched_setaffinity(0, saved)
    return statistics.fmean(times) / REF_S


class Sampler:
    """Samples the slowdown of this process's CPU while an operation runs.

    One sample is taken on entry and one on exit, outside the caller's timed
    window, and one every INTERVAL_S in between. ``spent`` is the wall time
    the in-between samples took and ``spent_cpu`` the CPU time they used,
    which the caller subtracts from its wall and CPU timings.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        self.spent_cpu = 0.0

    def _sample(self, *_) -> None:
        start, start_cpu = time.perf_counter(), time.process_time()
        self.samples.append(_loop_s())
        self.spent += time.perf_counter() - start
        self.spent_cpu += time.process_time() - start_cpu

    def __enter__(self) -> "Sampler":
        self.samples.append(_loop_s())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_loop_s())

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / REF_S


class Bracket:
    """Slowdown of the given CPUs, read before and after an operation.

    Both readings are outside the caller's timed window and take nothing
    from the operation, so ``spent`` and ``spent_cpu`` are 0.
    """

    spent = 0.0
    spent_cpu = 0.0

    def __init__(self, cpus: Iterable[int]) -> None:
        self.cpus = sorted(cpus)

    def __enter__(self) -> "Bracket":
        self.before = slowdown(self.cpus)
        return self

    def __exit__(self, *exc) -> None:
        self.after = slowdown(self.cpus)

    @property
    def slowdown(self) -> float:
        return (self.before + self.after) / 2
