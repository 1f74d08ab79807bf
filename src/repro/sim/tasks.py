"""Task-graph and recursive-task schedule simulation."""

from __future__ import annotations

from typing import Hashable

from repro.errors import SimulationError
from repro.graphs.digraph import DiGraph
from repro.sim.machine import Machine
from repro.sim.result import SimOutcome


def simulate_task_graph(
    graph: DiGraph,
    weights: dict[Hashable, float],
    machine: Machine,
) -> SimOutcome:
    """Event-driven greedy list scheduling of a task DAG on P workers.

    Each node of *graph* is one task with cost ``weights[node]``; an edge
    ``a -> b`` means b waits for a.  Ready tasks are assigned to idle
    workers in serial order, paying ``spawn_cost`` each; the makespan plus
    one final barrier is the parallel time.
    """
    p = machine.threads
    if p < 1:
        raise SimulationError("thread count must be >= 1")
    nodes = graph.nodes()
    serial = float(sum(weights.get(n, 0.0) for n in nodes))
    if p == 1 or len(nodes) <= 1:
        return SimOutcome(threads=p, serial_time=serial, parallel_time=serial)

    remaining = {n: graph.in_degree(n) for n in nodes}
    ready = sorted((n for n, d in remaining.items() if d == 0), key=str)
    workers = [0.0] * p  # next-free time per worker
    finish: dict[Hashable, float] = {}
    earliest: dict[Hashable, float] = {n: 0.0 for n in nodes}
    done = 0
    while ready or done < len(nodes):
        if not ready:  # pragma: no cover - cycle guard
            raise SimulationError("task graph contains a cycle")
        task = ready.pop(0)
        w = min(range(p), key=lambda i: workers[i])
        start = max(workers[w], earliest[task]) + machine.spawn_cost
        end = start + weights.get(task, 0.0)
        workers[w] = end
        finish[task] = end
        done += 1
        for succ in graph.successors(task):
            earliest[succ] = max(earliest[succ], end)
            remaining[succ] -= 1
            if remaining[succ] == 0:
                ready.append(succ)
        ready.sort(key=str)
    makespan = max(finish.values()) + machine.barrier_cost(p)
    return SimOutcome(threads=p, serial_time=serial, parallel_time=float(makespan))


def simulate_recursive_tasks(
    work: float,
    span: float,
    n_tasks: int,
    machine: Machine,
    streaming: float = 0.0,
) -> SimOutcome:
    """Greedy-scheduler model for recursive task trees (fib/sort/strassen).

    ``T_P = (W + c·n)/P + D`` — the classic greedy bound where each of the
    *n_tasks* tasks pays a small work-first bookkeeping cost ``c`` (a
    work-stealing runtime only pays a full spawn on the steal path, whose
    count is O(P·D) and folded into the barrier/span terms).
    """
    p = machine.threads
    if p < 1:
        raise SimulationError("thread count must be >= 1")
    if p == 1:
        return SimOutcome(threads=1, serial_time=work, parallel_time=work)
    inflated = work + machine.task_overhead * n_tasks
    t_par = (
        machine.parallel_time(inflated, p, streaming)
        + span
        + machine.barrier_cost(p)
    )
    return SimOutcome(threads=p, serial_time=float(work), parallel_time=float(t_par))
