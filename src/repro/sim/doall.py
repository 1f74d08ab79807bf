"""Do-all and reduction schedule simulation."""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import SimulationError
from repro.sim.machine import Machine
from repro.sim.result import SimOutcome


def _split_blocks(costs: Sequence[float], parts: int) -> list[float]:
    """Static block scheduling: contiguous blocks, near-equal iteration counts."""
    n = len(costs)
    parts = min(parts, n) if n else 1
    out: list[float] = []
    base = n // parts
    extra = n % parts
    start = 0
    for t in range(parts):
        size = base + (1 if t < extra else 0)
        out.append(float(sum(costs[start : start + size])))
        start += size
    return out


def _invocation_time(
    costs: Sequence[float], machine: Machine, threads: int, streaming: float
) -> float:
    if not costs:
        return 0.0
    if threads <= 1:
        return float(sum(costs))
    blocks = _split_blocks(costs, threads)
    longest = max(blocks)
    work = sum(blocks)
    # roofline-adjusted lower bound cannot beat the longest block
    contended = machine.parallel_time(work, threads, streaming)
    return max(longest, contended) + machine.barrier_cost(threads) + machine.spawn_cost


def simulate_doall(
    invocations: Sequence[Sequence[float]],
    machine: Machine,
    streaming: float = 0.0,
) -> SimOutcome:
    """Simulate a do-all loop.

    *invocations* holds one per-iteration cost list per dynamic loop
    invocation; every invocation forks, block-schedules its iterations, and
    joins at a barrier — overheads therefore scale with invocation count,
    which is what penalizes fine-grained inner loops at high thread counts.
    """
    p = machine.threads
    if p < 1:
        raise SimulationError("thread count must be >= 1")
    serial = float(sum(sum(inv) for inv in invocations))
    if p == 1:
        return SimOutcome(threads=1, serial_time=serial, parallel_time=serial)
    parallel = sum(_invocation_time(inv, machine, p, streaming) for inv in invocations)
    return SimOutcome(threads=p, serial_time=serial, parallel_time=float(parallel))


def simulate_reduction(
    invocations: Sequence[Sequence[float]],
    machine: Machine,
    n_reduction_vars: int = 1,
    streaming: float = 0.0,
) -> SimOutcome:
    """Simulate a reduction loop: do-all with privatized accumulators plus a
    tree combine of depth ``ceil(log2 P)`` per invocation."""
    p = machine.threads
    base = simulate_doall(invocations, machine, streaming=streaming)
    if p == 1:
        return base
    combine = (
        math.ceil(math.log2(p))
        * machine.reduction_combine
        * max(1, n_reduction_vars)
        * len(invocations)
    )
    return SimOutcome(
        threads=p,
        serial_time=base.serial_time,
        parallel_time=base.parallel_time + combine,
    )
