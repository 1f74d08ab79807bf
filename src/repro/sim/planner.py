"""Planner: turn an AnalysisResult into simulated program speedups.

This is the bridge Table III's harness uses.  Each pattern has a *plan*
that reads the analysis and its profile once, at the region(s) the
pattern's rung of the precedence ladder found
(:data:`repro.patterns.engine.RUNGS`): the measured per-iteration loop
costs, the activation costs, work and span.  It returns the pattern's
region *schedule*, a function of the machine at one thread count.
:func:`sweep_pattern` plans once and replays the schedule at every thread
count, composing each result with the serial remainder (Amdahl);
:func:`plan_and_simulate` does so for the primary pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.cu.model import CU
from repro.lang.analysis import array_names, enclosing_loops
from repro.patterns.engine import primary_pattern, region_share
from repro.patterns.framework import AnalysisResult
from repro.patterns.result import TaskParallelism
from repro.profiling.model import Profile
from repro.sim.amdahl import compose_speedup
from repro.sim.doall import simulate_doall, simulate_reduction
from repro.sim.geometric import simulate_geometric
from repro.sim.machine import DEFAULT_MACHINE, Machine
from repro.sim.pipeline import simulate_pipeline_invocations
from repro.sim.result import SimOutcome
from repro.sim.sweep import DEFAULT_THREAD_COUNTS, ThreadSweep, sweep_threads
from repro.sim.tasks import simulate_recursive_tasks, simulate_task_graph


# ---------------------------------------------------------------------------
# profile extraction helpers
# ---------------------------------------------------------------------------


def loop_invocation_costs(profile: Profile, loop_region: int) -> list[list[float]]:
    """Per-iteration (inclusive) costs for each invocation of a loop."""
    out: list[list[float]] = []
    for node in profile.activations(loop_region):
        if node.per_iter_cost:
            out.append([float(c) for c in node.per_iter_cost])
        elif node.inclusive_cost:
            out.append([float(node.inclusive_cost)])
    return out


def pipeline_co_invocations(
    profile: Profile, loop_x: int, loop_y: int
) -> list[tuple[list[float], list[float]]]:
    """Pair up x/y loop invocations that occur under the same parent
    activation (e.g. one pair per fluidanimate frame)."""
    if profile.calltree is None:
        return []
    pairs: list[tuple[list[float], list[float]]] = []
    for node in profile.calltree.walk():
        xs = [c for c in node.children if c.region == loop_x]
        ys = [c for c in node.children if c.region == loop_y]
        for x_node, y_node in zip(xs, ys):
            pairs.append(
                (
                    [float(c) for c in x_node.per_iter_cost],
                    [float(c) for c in y_node.per_iter_cost],
                )
            )
    return pairs


def _max_depth(profile: Profile, region: int) -> int:
    """Deepest nesting of activations of *region* within themselves.

    Activations come in execution order, so each one's nearest enclosing
    activation of *region* (found up its parent pointers) is already
    measured.
    """
    depth: dict[int, int] = {}  # id(activation) -> its nesting depth
    for act in profile.activations(region):
        up = act.parent
        while up is not None and up.region != region:
            up = up.parent
        depth[id(act)] = 1 + (depth[id(up)] if up is not None else 0)
    return max(1, max(depth.values(), default=0))


# ---------------------------------------------------------------------------
# per-pattern plans
# ---------------------------------------------------------------------------

#: A pattern's region schedule: the simulated regions on a machine whose
#: ``threads`` is the thread count.
Schedule = Callable[[Machine], list[SimOutcome]]


def _plan_fusion(result: AnalysisResult, chain: Sequence[int]) -> Schedule:
    # The fused loop's iteration i runs iteration i of every loop in the
    # chain; a longer loop's ragged tail runs on alone.
    fused: list[list[float]] = []
    for invs in zip(*(loop_invocation_costs(result.profile, r) for r in chain)):
        n = max(len(costs) for costs in invs)
        fused.append(
            [sum(costs[i] for costs in invs if i < len(costs)) for i in range(n)]
        )
    sf = result.profile.streaming_fraction
    return lambda m: [simulate_doall(fused, m, streaming=sf)]


def _plan_pipeline(result: AnalysisResult, loops: Sequence[int]) -> Schedule:
    p = next(p for p in result.pipelines if [p.loop_x, p.loop_y] == list(loops))
    invocations = pipeline_co_invocations(result.profile, p.loop_x, p.loop_y)
    stage_x_parallel = p.stage_x is not None and p.stage_x.parallelizable
    sf = result.profile.streaming_fraction
    return lambda m: [
        simulate_pipeline_invocations(
            invocations, p.a, p.b, m, stage_x_parallel=stage_x_parallel, streaming=sf
        )
    ]


def _worker_barrier_loops(
    result: AnalysisResult, tp: TaskParallelism
) -> tuple[list[int], list[int]] | None:
    """(concurrent-task loop regions, barrier loop regions) when every
    concurrent task is a parallelizable loop CU; None otherwise."""
    cu_by_id = {cu.cu_id: cu for cu in tp.cus}

    def loop_region_of(cu: CU) -> int | None:
        if cu.kind != "loop" or not cu.stmts:
            return None
        return getattr(cu.stmts[0], "region_id", None)

    workers: list[int] = []
    for cu_id in tp.concurrent_tasks:
        region = loop_region_of(cu_by_id[cu_id])
        if region is None:
            return None
        lc = result.loop_classes.get(region)
        if lc is None or not lc.parallelizable:
            return None
        workers.append(region)
    if not workers:
        return None
    barriers: list[int] = []
    task_set = set(tp.concurrent_tasks)
    for cu in tp.cus:
        if cu.cu_id in task_set:
            continue
        region = loop_region_of(cu)
        if region is None:
            continue
        preds = set(tp.graph.predecessors(cu.cu_id)) if cu.cu_id in tp.graph else set()
        if preds & task_set or tp.marks.get(cu.cu_id) == "barrier":
            barriers.append(region)
    return workers, barriers


def _fullest_lane(times: list[float], lanes: int) -> float:
    """The fullest of *lanes* lanes after packing *times*, longest first,
    each onto the least-loaded lane (the longest time when each has one)."""
    loads = [0.0] * lanes
    for t in sorted(times, reverse=True):
        loads[loads.index(min(loads))] += t
    return max(loads)


def _plan_tasks(result: AnalysisResult, regions: Sequence[int]) -> Schedule:
    tp = result.tasks[regions[0]]
    profile = result.profile
    sf = profile.streaming_fraction
    reg = result.program.regions.get(tp.region)

    split = _worker_barrier_loops(result, tp)
    if split is not None:
        # Each round runs the workers' next invocations side by side, as
        # many at once as there are threads (reduction loops pay their
        # combine), then the barrier loops'.
        workers = []
        for r in split[0]:
            lc = result.loop_classes.get(r)
            reduces = lc is not None and lc.is_reduction
            workers.append(
                (
                    loop_invocation_costs(profile, r),
                    simulate_reduction if reduces else simulate_doall,
                )
            )
        barriers = [loop_invocation_costs(profile, r) for r in split[1]]
        n_rounds = max(
            [len(invs) for invs, _ in workers] + [len(invs) for invs in barriers] + [0]
        )

        def rounds(m: Machine) -> list[SimOutcome]:
            threads = m.threads
            per_worker = m.with_threads(max(1, threads // len(workers)))
            serial = 0.0
            parallel = 0.0
            for t in range(n_rounds):
                times = []
                for invs, simulate in workers:
                    if t < len(invs):
                        sim = simulate([invs[t]], per_worker, streaming=sf)
                        serial += sim.serial_time
                        times.append(sim.parallel_time)
                phase1 = _fullest_lane(times, threads)
                phase2 = 0.0
                for invs in barriers:
                    if t < len(invs):
                        sim = simulate_doall([invs[t]], m, streaming=sf)
                        serial += sim.serial_time
                        phase2 += sim.parallel_time
                parallel += phase1 + phase2
                if threads > 1:
                    parallel += m.barrier_cost(threads)
            return [SimOutcome(threads=threads, serial_time=serial, parallel_time=parallel)]

        return rounds

    recursive = (
        reg is not None
        and reg.kind == "function"
        and result.program.has_function(reg.function)
    )
    n_tasks = len(profile.activations(tp.region))
    if recursive and n_tasks > 1:
        work = float(tp.total_instructions)
        span = float(tp.critical_path_instructions)
        return lambda m: [
            simulate_recursive_tasks(work, span, n_tasks, m, streaming=sf)
        ]
    weights = {
        cu.cu_id: float(
            sum(profile.site_costs.get((tp.region, line), 0) for line in cu.lines)
        )
        for cu in tp.cus
    }
    return lambda m: [simulate_task_graph(tp.graph, weights, m)]


def _plan_geometric(result: AnalysisResult, regions: Sequence[int]) -> Schedule:
    chunks = [float(n.inclusive_cost) for n in result.profile.activations(regions[0])]
    sf = result.profile.streaming_fraction
    return lambda m: [simulate_geometric(chunks, m, streaming=sf)]


def _plan_reduction(result: AnalysisResult, regions: Sequence[int]) -> Schedule:
    sf = result.profile.streaming_fraction
    hot = result.hotspot_regions
    reducing = [r for r, lc in result.loop_classes.items() if lc.is_reduction and r in hot]
    if reducing:
        loop = max(reducing, key=result.profile.region_cost)
    else:
        # The reduction lives in a loop that is not cleanly classified as a
        # reduction loop (nqueens: the column loop also re-writes the board,
        # which the parallel implementation privatizes per task): run the
        # rung's loop, the costliest with reduction *candidates*.
        loop = regions[0]
        n_tasks = len(result.profile.activations(loop))
        if n_tasks > 8:
            # Recursive search: model as a task tree with per-call tasks
            # (the BOTS nqueens implementation) plus the reduction combine.
            work = float(result.profile.region_cost(loop))
            depth = _max_depth(result.profile, loop)
            span = work / max(1, n_tasks) * max(1, depth)
            return lambda m: [
                simulate_recursive_tasks(work, span, n_tasks, m, streaming=sf)
            ]
    lc = result.loop_classes[loop]

    # How would the reduction actually be implemented?
    # 1. If the reduction loop sits inside hotspot do-all ancestors
    #    (gesummv: inner accumulation, outer rows independent), the natural
    #    implementation is a parallel-for on the *outermost* such ancestor
    #    with the accumulators private per iteration.
    target: int | None = None
    for outer in enclosing_loops(result.program, loop):
        lc_outer = result.loop_classes.get(outer)
        if lc_outer is None or not lc_outer.is_doall:
            break
        if outer not in hot:
            break
        target = outer
    if target is not None:
        invs = loop_invocation_costs(result.profile, target)
        return lambda m: [simulate_doall(invs, m, streaming=sf)]

    # 2. Otherwise simulate the reduction loop itself.  Array reduction
    #    variables (bicg's s[]) are privatized per thread and combined
    #    element-wise, so the combine cost scales with the array extent.
    arrays = array_names(result.program)
    combine_units = 0
    for cand in lc.reductions:
        if cand.var in arrays:
            combine_units += max(1, result.profile.max_trip(loop))
        else:
            combine_units += 1
    invs = loop_invocation_costs(result.profile, loop)
    n_vars = max(1, combine_units)
    return lambda m: [
        simulate_reduction(invs, m, n_reduction_vars=n_vars, streaming=sf)
    ]


def _plan_doall(result: AnalysisResult, regions: Sequence[int]) -> Schedule:
    invs = loop_invocation_costs(result.profile, regions[0])
    sf = result.profile.streaming_fraction
    return lambda m: [simulate_doall(invs, m, streaming=sf)]


#: The plan of each pattern, keyed by its label up to any " + " suffix.
_PLANS = {
    "Fusion": _plan_fusion,
    "Multi-loop pipeline": _plan_pipeline,
    "Task parallelism": _plan_tasks,
    "Geometric decomposition": _plan_geometric,
    "Reduction": _plan_reduction,
    "Do-all": _plan_doall,
}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanOutcome:
    """Detected pattern, its hotspot share and its simulated thread sweep."""

    label: str
    #: Table III's "Exec Inst % in Hotspot" (as a fraction): the share of
    #: executed instructions in the region(s) the pattern was found in
    share: float
    sweep: ThreadSweep

    @property
    def best_threads(self) -> int:
        return self.sweep.best_threads

    @property
    def best_speedup(self) -> float:
        return self.sweep.best_speedup


def sweep_pattern(
    result: AnalysisResult,
    label: str,
    regions: Sequence[int],
    thread_counts: Sequence[int] = DEFAULT_THREAD_COUNTS,
    machine: Machine = DEFAULT_MACHINE,
) -> ThreadSweep:
    """Overall program speedup of pattern *label*, found in *regions* by its
    rung of the ladder, at each thread count.

    The pattern is planned once; each thread count replays its schedule.
    A label without a plan is 1.0.
    """
    plan = _PLANS.get(label.split(" + ")[0])
    schedule = plan(result, regions) if plan else None
    total = float(result.profile.total_cost)

    def speedup_at(threads: int) -> float:
        if schedule is None:
            return 1.0
        return compose_speedup(total, schedule(machine.with_threads(threads)))

    return sweep_threads(speedup_at, thread_counts)


def plan_and_simulate(
    result: AnalysisResult,
    thread_counts: Sequence[int] = DEFAULT_THREAD_COUNTS,
    machine: Machine = DEFAULT_MACHINE,
) -> PlanOutcome:
    """Detect the primary pattern and sweep the thread counts."""
    label, regions = primary_pattern(result)
    return PlanOutcome(
        label=label,
        share=region_share(result.profile, regions),
        sweep=sweep_pattern(result, label, regions, thread_counts, machine),
    )
