"""Parallel-execution simulation.

The paper reports wall-clock speedups of hand-parallelized benchmarks on a
2×8-core Xeon.  A pure-Python reproduction cannot obtain such numbers, so
this package *simulates* the execution schedule each detected pattern
implies, over the per-iteration/per-activation costs the profiler actually
measured (DESIGN.md §2):

* do-all — static block scheduling across threads, barrier per invocation;
* reduction — do-all plus a tree combine;
* task graphs — event-driven greedy list scheduling;
* recursive task trees — the greedy-scheduler bound ``W/P + D`` plus
  per-task spawn overhead;
* multi-loop pipelines — stage y's iteration *j* starts once stage x has
  finished iteration ``(j - b)/a`` (the fitted dependence), with the thread
  budget split across the stages;
* geometric decomposition — chunk (function invocation) scheduling.

Each simulator reads its thread count from ``machine.threads``
(:meth:`Machine.with_threads`).  Overall program speedups compose the
simulated region times with the unparallelized remainder (Amdahl).  :func:`sweep_pattern` reproduces the
paper's 1–32 thread sweeps: it plans a pattern once, at the regions its
rung of the precedence ladder found, and replays the schedule at each
thread count.
"""

from repro.sim.machine import Machine
from repro.sim.result import SimOutcome
from repro.sim.doall import simulate_doall, simulate_reduction
from repro.sim.tasks import simulate_recursive_tasks, simulate_task_graph
from repro.sim.pipeline import simulate_pipeline_chain, simulate_pipeline_invocations
from repro.sim.geometric import simulate_geometric
from repro.sim.amdahl import compose_speedup
from repro.sim.sweep import ThreadSweep, sweep_threads
from repro.sim.planner import plan_and_simulate, sweep_pattern

__all__ = [
    "Machine",
    "SimOutcome",
    "simulate_doall",
    "simulate_reduction",
    "simulate_task_graph",
    "simulate_recursive_tasks",
    "simulate_pipeline_chain",
    "simulate_pipeline_invocations",
    "simulate_geometric",
    "compose_speedup",
    "ThreadSweep",
    "sweep_threads",
    "plan_and_simulate",
    "sweep_pattern",
]
