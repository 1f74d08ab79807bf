"""Geometric-decomposition schedule simulation.

Each invocation of the candidate function becomes one data chunk handed to a
worker (Listing 7's ``new_thread(localSearch(points[i*chunk_size], ...))``).
Chunks are LPT-scheduled on P workers; the final barrier joins them.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from repro.errors import SimulationError
from repro.sim.machine import Machine
from repro.sim.result import SimOutcome


def simulate_geometric(
    chunk_costs: Sequence[float],
    machine: Machine,
    streaming: float = 0.0,
) -> SimOutcome:
    """Schedule one function call per chunk across the thread pool."""
    p = machine.threads
    if p < 1:
        raise SimulationError("thread count must be >= 1")
    serial = float(sum(chunk_costs))
    if p == 1 or len(chunk_costs) <= 1:
        return SimOutcome(threads=p, serial_time=serial, parallel_time=serial)
    # longest-processing-time greedy onto p workers
    heap = [0.0] * p
    heapq.heapify(heap)
    for cost in sorted(chunk_costs, reverse=True):
        soonest = heapq.heappop(heap)
        heapq.heappush(heap, soonest + cost + machine.spawn_cost)
    makespan = max(heap) + machine.barrier_cost(p)
    contended = machine.parallel_time(serial, p, streaming)
    return SimOutcome(
        threads=p, serial_time=serial, parallel_time=float(max(makespan, contended))
    )
