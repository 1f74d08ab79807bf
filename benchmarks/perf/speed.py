"""Machine speed index: CPU-bound timings are reported at a reference speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes as neighbours come and go, longer than a run lasts, so a
median over the run cannot remove it.  A pure-Python loop timed beside the
analysis slows down with it.  So a run times a fixed pure-Python kernel
(dict and integer work, like the interpreter and profiler) between
measured operations, no more often than every :data:`INTERVAL_S` seconds,
and scales each raw time by ``REFERENCE_S / median(kernel times)`` of the
samples nearest to it.  A time reported this way is what the operation would
have taken on a machine that runs the kernel in :data:`REFERENCE_S`.  Both
sides of a comparison are scaled alike; the raw times and the factors are
printed too.  The kernel must never run concurrently with the measured
work, or it would measure that work's own load.
"""

from __future__ import annotations

import gc
import os
import time

from perfstats import median

#: Kernel time at the reference speed: about its median on a quiet CPU of
#: the 2-CPU container the first numbers were measured on (3.7-3.9 ms).
REFERENCE_S = 0.004

#: Minimum spacing of kernel samples during a measured phase.
INTERVAL_S = 0.1

#: Samples that scale one operation of an in-process pass: about half a
#: second of the host around it.
LOCAL_SAMPLES = 5

KERNEL_ITERATIONS = 15_000


def kernel(n: int = KERNEL_ITERATIONS) -> int:
    # Integers only: the kernel allocates no object the cyclic collector
    # tracks, so its time does not depend on the heap around it.
    table: dict[int, int] = {}
    acc = 0
    keys = []
    for i in range(n):
        key = (i & 255) << 8 | (i >> 8)
        acc += table.get(key, i) ^ (i * 7)
        table[key] = acc & 0xFFFF
        if not i & 31:
            keys.append(key)
    return acc + len(keys)


def cpus() -> list[int]:
    """The CPUs this process may run on, lowest first."""
    return sorted(os.sched_getaffinity(0))


def pin(cpu: int) -> None:
    """Run this process, and every process it starts later, on *cpu*.

    The CPUs of a shared host slow down independently of each other, so the
    kernel only tracks the measured work when both run on the same CPU.
    """
    os.sched_setaffinity(0, {cpu})


class SpeedIndex:
    """Kernel samples of one phase; :meth:`factor` scales its raw times.

    With *cpu* set, each sample moves this thread to that CPU and back, to
    time the CPU another process's measured work runs on.

    *sensitivity* is how strongly the measured work follows the kernel: a
    factor is ``(REFERENCE_S / kernel time) ** sensitivity``.  A slow host
    slows the kernel and the in-process analyses alike (1.0): both are
    tight interpreter loops.  It slows work that spends part of its time in
    system calls and thread hand-offs less.
    """

    def __init__(self, cpu: int | None = None, sensitivity: float = 1.0) -> None:
        self.cpu = cpu
        self.sensitivity = sensitivity
        self.samples: list[float] = []
        #: wall-clock end of each sample, to match samples to work that
        #: another process timestamps
        self.stamps: list[float] = []
        self.spent = 0.0
        self._last = -INTERVAL_S

    def sample(self) -> None:
        home = os.sched_getaffinity(0)
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        if self.cpu is not None:
            os.sched_setaffinity(0, home)
        self.samples.append(t1 - t0)
        self.stamps.append(time.time())
        self.spent += t1 - t0
        self._last = t1

    def sample_n(self, n: int) -> None:
        for _ in range(n):
            self.sample()

    def maybe_sample(self) -> None:
        """Sample when the last sample is at least ``INTERVAL_S`` old."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def _scale(self, samples: list[float]) -> float:
        return (REFERENCE_S / median(samples)) ** self.sensitivity

    def factor(self) -> float:
        return self._scale(self.samples)

    def local_factors(self, marks: list[int], n: int = LOCAL_SAMPLES) -> list[float]:
        """One factor per operation, from the *n* samples around it.

        ``marks[i]`` is how many samples had been taken when operation *i*
        started, so it ran between samples ``marks[i] - 1`` and
        ``marks[i]``.  A host's speed can change within a pass; scaling
        each operation by the samples next to it follows the change, where
        the pass's median would scale the slow and the fast part alike.
        """
        count = len(self.samples)
        factors = []
        for mark in marks:
            lo = max(0, min(mark - (n + 1) // 2, count - n))
            factors.append(self._scale(self.samples[lo:lo + n]))
        return factors

    def recent_factor(self, n: int) -> float:
        """The factor from the *n* latest samples."""
        return self._scale(self.samples[-n:])

    def factor_near(self, when: float, window: float, at_least: int) -> float:
        """The factor from the samples within *window* seconds of the
        wall-clock time *when*, or from the *at_least* nearest samples."""
        near = [d for t, d in zip(self.stamps, self.samples) if abs(t - when) <= window]
        if len(near) < at_least:
            by_distance = sorted(zip(self.stamps, self.samples), key=lambda s: abs(s[0] - when))
            near = [d for _, d in by_distance[:at_least]]
        return self._scale(near)
