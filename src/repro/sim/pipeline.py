"""Multi-loop pipeline schedule simulation.

Each fitted dependence ``Y = aX + b`` between consecutive stages
(iteration *j* of a stage needs the previous stage up to iteration
``(j - b)/a``) is replayed over the measured per-iteration costs:

* stage 0 runs on the threads left after one per downstream stage when it
  is do-all (cyclically scheduled so early iterations finish early — what
  a pipelined producer wants), or on one thread otherwise;
* every later stage consumes sequentially (a do-all consumer would have
  been fused instead): iteration *j* starts when its own previous
  iteration is done *and* the previous stage has retired the iteration
  it needs, plus a handoff cost.

The simulated region time is when every stage has drained.  A two-stage
pipeline is the chain of two stages and one fit.
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


def simulate_pipeline_chain(
    stage_costs: Sequence[Sequence[float]],
    fits: Sequence[tuple[float, float]],
    machine: Machine,
    stage0_parallel: bool = True,
    streaming: float = 0.0,
) -> SimOutcome:
    """Simulate an n-stage multi-loop pipeline.

    *stage_costs* holds per-iteration costs for each of the n loops;
    *fits* holds the fitted ``(a, b)`` between consecutive stages (n-1
    entries) — Section III-A: "If there is a chain dependence of n loops,
    it gives n pairs of relationships.  A pipeline of n stages can be
    easily implemented by merging the information provided by the tool."

    Stage 0 may be do-all (spread over the threads left after dedicating
    one to each downstream stage); stages 1..n-1 consume sequentially, each
    iteration waiting for its fitted dependence in the previous stage.
    """
    p = machine.threads
    if p < 1:
        raise SimulationError("thread count must be >= 1")
    if len(stage_costs) < 2 or len(fits) != len(stage_costs) - 1:
        raise SimulationError(
            "need n >= 2 stages and exactly n-1 (a, b) fits between them"
        )
    serial = float(sum(sum(c) for c in stage_costs))
    if p == 1 or any(not c for c in stage_costs):
        return SimOutcome(threads=p, serial_time=serial, parallel_time=serial)

    downstream = len(stage_costs) - 1
    p0 = max(1, p - downstream) if stage0_parallel else 1
    finish = _producer_finish_times(stage_costs[0], p0, machine)
    drain = finish[-1]  # every stage must fully retire, consumed or not

    for stage_i in range(1, len(stage_costs)):
        a, b = fits[stage_i - 1]
        costs = stage_costs[stage_i]
        n_prev = len(finish)
        clock = machine.spawn_cost
        new_finish: list[float] = []
        for j, c in enumerate(costs):
            if a == 0.0:
                # the whole stage depends on the single frontier at b
                req: int | None = n_prev - 1
            else:
                need = (j - b) / a
                if need < 0:
                    req = None
                else:
                    # clamp before rounding: a subnormal slope makes need inf
                    req = n_prev - 1 if need >= n_prev - 1 else math.ceil(need)
            ready = 0.0 if req is None else finish[req] + machine.pipeline_sync
            clock = max(clock, ready) + c
            new_finish.append(clock)
        finish = new_finish
        drain = max(drain, finish[-1])

    t_par = drain + machine.barrier_cost(p)
    # the memory roofline binds the whole pipeline region too
    t_par = max(t_par, machine.parallel_time(serial, p, streaming))
    return SimOutcome(threads=p, serial_time=serial, parallel_time=float(t_par))


def simulate_pipeline_invocations(
    invocations: Sequence[tuple[Sequence[float], Sequence[float]]],
    a: float,
    b: float,
    machine: Machine,
    stage_x_parallel: bool = True,
    streaming: float = 0.0,
) -> SimOutcome:
    """Sum the pipeline simulation over repeated co-invocations (e.g. the
    per-frame loop pairs of fluidanimate)."""
    p = machine.threads
    total = SimOutcome(threads=p, serial_time=0.0, parallel_time=0.0)
    for cx, cy in invocations:
        total = total + simulate_pipeline_chain(
            [cx, cy],
            [(a, b)],
            machine,
            stage0_parallel=stage_x_parallel,
            streaming=streaming,
        )
    return total
