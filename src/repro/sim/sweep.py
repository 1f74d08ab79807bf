"""Thread sweeps — the paper tests every benchmark at up to 32 threads and
reports the thread count at which the highest speedup occurred."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

DEFAULT_THREAD_COUNTS = (1, 2, 3, 4, 8, 16, 32)


@dataclass(frozen=True)
class ThreadSweep:
    """Speedup at each thread count, plus the best configuration."""

    speedups: dict[int, float]

    @property
    def best_threads(self) -> int:
        return max(self.speedups, key=lambda p: (self.speedups[p], -p))

    @property
    def best_speedup(self) -> float:
        return self.speedups[self.best_threads]

    def as_rows(self) -> list[tuple[int, float]]:
        return sorted(self.speedups.items())


def sweep_threads(
    speedup_at: Callable[[int], float],
    thread_counts: Sequence[int] = DEFAULT_THREAD_COUNTS,
) -> ThreadSweep:
    """Evaluate *speedup_at* at each of *thread_counts*."""
    return ThreadSweep(speedups={p: float(speedup_at(p)) for p in thread_counts})
