"""The two-stage pipeline simulator the n-stage chain replaced: the oracle
for :func:`repro.sim.pipeline.simulate_pipeline_chain`.

``simulate_pipeline`` is the library's former two-stage schedule, verbatim
apart from its ``detail`` string and from clamping a dependence past x's
last iteration before rounding it (the old ``min(int(math.ceil(need)), ...)``
raised OverflowError when a subnormal slope made ``need`` infinite; on every
finite ``need`` both forms agree).  A two-stage chain with one ``(a, b)``
fit must return the same threads, serial time and parallel time.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import SimulationError
from repro.sim.machine import Machine
from repro.sim.result import SimOutcome


def _producer_finish_times(
    costs: Sequence[float], threads: int, machine: Machine
) -> list[float]:
    """Finish time of each iteration under cyclic scheduling on *threads*."""
    clocks = [machine.spawn_cost] * threads
    finish: list[float] = []
    for i, c in enumerate(costs):
        t = i % threads
        clocks[t] += c
        finish.append(clocks[t])
    return finish


def simulate_pipeline(
    costs_x: Sequence[float],
    costs_y: Sequence[float],
    a: float,
    b: float,
    machine: Machine,
    threads: int | None = None,
    stage_x_parallel: bool = True,
    streaming: float = 0.0,
) -> SimOutcome:
    """Simulate one co-invocation of a two-stage multi-loop pipeline."""
    p = machine.threads if threads is None else threads
    if p < 1:
        raise SimulationError("thread count must be >= 1")
    serial = float(sum(costs_x) + sum(costs_y))
    if p == 1 or not costs_x or not costs_y:
        return SimOutcome(threads=p, serial_time=serial, parallel_time=serial)

    p_x = max(1, p - 1) if stage_x_parallel else 1
    finish_x = _producer_finish_times(costs_x, p_x, machine)
    n_x = len(costs_x)

    def x_req(j: int) -> int | None:
        """Last x iteration that y's iteration j must wait for."""
        if a == 0.0:
            # all of y depends on the single dependence frontier at b
            return n_x - 1
        need = (j - b) / a
        if need < 0:
            return None
        return n_x - 1 if need >= n_x - 1 else math.ceil(need)

    clock = machine.spawn_cost
    for j, c in enumerate(costs_y):
        req = x_req(j)
        ready = 0.0 if req is None else finish_x[req] + machine.pipeline_sync
        clock = max(clock, ready) + c
    t_par = max(clock, finish_x[-1]) + machine.barrier_cost(p)
    # the memory roofline binds the whole pipeline region too
    t_par = max(t_par, machine.parallel_time(serial, p, streaming))
    return SimOutcome(threads=p, serial_time=serial, parallel_time=float(t_par))
