"""Planner: turn an AnalysisResult into simulated program speedups.

This is the bridge Table III's harness uses: given the detected pattern of a
program, extract the measured cost structure from the profile (per-iteration
loop costs, activation costs, work/span) and simulate the pattern's schedule
at each thread count, composing with the serial remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cu.model import CU
from repro.patterns.engine import summarize_patterns
from repro.patterns.framework import AnalysisResult
from repro.patterns.result import MultiLoopPipeline, TaskParallelism
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


def _coverage(profile: Profile, regions: Sequence[int]) -> float:
    return sum(profile.region_cost(r) for r in set(regions))


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
# per-pattern region simulation
# ---------------------------------------------------------------------------


def _sim_fusion(result: AnalysisResult, machine: Machine, threads: int) -> list[SimOutcome]:
    sf = result.profile.streaming_fraction
    outcomes = []
    for fusion in result.fusions:
        xs = loop_invocation_costs(result.profile, fusion.loop_x)
        ys = loop_invocation_costs(result.profile, fusion.loop_y)
        combined: list[list[float]] = []
        for cx, cy in zip(xs, ys):
            n = min(len(cx), len(cy))
            inv = [cx[i] + cy[i] for i in range(n)]
            inv.extend(cx[n:])
            inv.extend(cy[n:])
            combined.append(inv)
        outcomes.append(simulate_doall(combined, machine, threads=threads, streaming=sf))
    return outcomes


def _best_pipeline(result: AnalysisResult) -> MultiLoopPipeline:
    candidates = result.clean_pipelines() or result.pipelines
    return max(
        candidates,
        key=lambda p: (
            _coverage(result.profile, [p.loop_x, p.loop_y]),
            p.efficiency,
            -p.loop_x,
        ),
    )


def _sim_pipeline(result: AnalysisResult, machine: Machine, threads: int) -> list[SimOutcome]:
    p = _best_pipeline(result)
    invocations = pipeline_co_invocations(result.profile, p.loop_x, p.loop_y)
    stage_x_parallel = p.stage_x is not None and p.stage_x.parallelizable
    return [
        simulate_pipeline_invocations(
            invocations,
            p.a,
            p.b,
            machine,
            threads=threads,
            stage_x_parallel=stage_x_parallel,
            streaming=result.profile.streaming_fraction,
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


def _sim_tasks(result: AnalysisResult, machine: Machine, threads: int) -> list[SimOutcome]:
    tp = result.best_task_parallelism()
    assert tp is not None
    profile = result.profile
    sf = profile.streaming_fraction
    reg = result.program.regions.get(tp.region)

    split = _worker_barrier_loops(result, tp)
    if split is not None:
        workers, barriers = split
        worker_invs = {r: loop_invocation_costs(profile, r) for r in workers}
        barrier_invs = {r: loop_invocation_costs(profile, r) for r in barriers}
        n_rounds = max(
            [len(v) for v in worker_invs.values()]
            + [len(v) for v in barrier_invs.values()]
            + [0]
        )
        per_worker_threads = max(1, threads // max(1, len(workers)))
        serial = 0.0
        parallel = 0.0
        for t in range(n_rounds):
            phase1 = 0.0
            for r in workers:
                invs = worker_invs[r]
                if t >= len(invs):
                    continue
                lc = result.loop_classes.get(r)
                sim = (
                    simulate_reduction(
                        [invs[t]], machine, threads=per_worker_threads, streaming=sf
                    )
                    if lc is not None and lc.is_reduction
                    else simulate_doall(
                        [invs[t]], machine, threads=per_worker_threads, streaming=sf
                    )
                )
                serial += sim.serial_time
                phase1 = max(phase1, sim.parallel_time)
            phase2 = 0.0
            for r in barriers:
                invs = barrier_invs[r]
                if t >= len(invs):
                    continue
                sim = simulate_doall([invs[t]], machine, threads=threads, streaming=sf)
                serial += sim.serial_time
                phase2 += sim.parallel_time
            parallel += phase1 + phase2
            if threads > 1:
                parallel += machine.barrier_cost(threads)
        return [SimOutcome(threads=threads, serial_time=serial, parallel_time=parallel)]

    recursive = (
        reg is not None
        and reg.kind == "function"
        and result.program.has_function(reg.function)
    )
    activations = profile.activations(tp.region)
    if recursive and len(activations) > 1:
        return [
            simulate_recursive_tasks(
                work=float(tp.total_instructions),
                span=float(tp.critical_path_instructions),
                n_tasks=len(activations),
                machine=machine,
                threads=threads,
                streaming=sf,
            )
        ]
    weights = {
        cu.cu_id: float(
            sum(profile.site_costs.get((tp.region, line), 0) for line in cu.lines)
        )
        for cu in tp.cus
    }
    return [simulate_task_graph(tp.graph, weights, machine, threads=threads)]


def _sim_geometric(result: AnalysisResult, machine: Machine, threads: int) -> list[SimOutcome]:
    gd = result.geometric[0]
    chunks = [float(n.inclusive_cost) for n in result.profile.activations(gd.region)]
    return [
        simulate_geometric(
            chunks, machine, threads=threads, streaming=result.profile.streaming_fraction
        )
    ]


def _best_loop(result: AnalysisResult, want_reduction: bool) -> int | None:
    best: tuple[float, int] | None = None
    for region, lc in result.loop_classes.items():
        if region not in result.hotspot_regions:
            continue
        if want_reduction and not lc.is_reduction:
            continue
        if not want_reduction and not lc.is_doall:
            continue
        cost = result.profile.region_cost(region)
        if best is None or cost > best[0]:
            best = (cost, region)
    return None if best is None else best[1]


def _sim_reduction(result: AnalysisResult, machine: Machine, threads: int) -> list[SimOutcome]:
    loop = _best_loop(result, want_reduction=True)
    if loop is None:
        # The reduction lives in a loop that is not cleanly classified as a
        # reduction loop (nqueens: the column loop also re-writes the board,
        # which the parallel implementation privatizes per task).  Fall back
        # to the hottest hotspot loop with reduction *candidates*.
        candidates = [
            r for r in result.reductions if r in result.hotspot_regions
        ]
        if not candidates:
            return []
        loop = max(candidates, key=lambda r: result.profile.region_cost(r))
        activations = result.profile.activations(loop)
        if len(activations) > 8:
            # Recursive search: model as a task tree with per-call tasks
            # (the BOTS nqueens implementation) plus the reduction combine.
            work = float(result.profile.region_cost(loop))
            depth = _max_depth(result.profile, loop)
            span = work / max(1, len(activations)) * max(1, depth)
            return [
                simulate_recursive_tasks(
                    work=work,
                    span=span,
                    n_tasks=len(activations),
                    machine=machine,
                    threads=threads,
                    streaming=result.profile.streaming_fraction,
                )
            ]
    lc = result.loop_classes[loop]
    sf = result.profile.streaming_fraction

    # How would the reduction actually be implemented?
    # 1. If the reduction loop sits inside hotspot do-all ancestors
    #    (gesummv: inner accumulation, outer rows independent), the natural
    #    implementation is a parallel-for on the *outermost* such ancestor
    #    with the accumulators private per iteration.
    regions = result.program.regions
    target: int | None = None
    cursor = regions[loop].parent if loop in regions else None
    while cursor is not None:
        lc_cursor = result.loop_classes.get(cursor)
        if (
            lc_cursor is not None
            and lc_cursor.is_doall
            and cursor in result.hotspot_regions
        ):
            target = cursor
            cursor = regions[cursor].parent if cursor in regions else None
        else:
            break
    if target is not None:
        invs = loop_invocation_costs(result.profile, target)
        return [simulate_doall(invs, machine, threads=threads, streaming=sf)]

    # 2. Otherwise simulate the reduction loop itself.  Array reduction
    #    variables (bicg's s[]) are privatized per thread and combined
    #    element-wise, so the combine cost scales with the array extent.
    from repro.lang.analysis import array_names

    arrays = array_names(result.program)
    combine_units = 0
    for cand in lc.reductions:
        if cand.var in arrays:
            combine_units += max(1, result.profile.max_trip(loop))
        else:
            combine_units += 1
    invs = loop_invocation_costs(result.profile, loop)
    return [
        simulate_reduction(
            invs,
            machine,
            threads=threads,
            n_reduction_vars=max(1, combine_units),
            streaming=sf,
        )
    ]


def _sim_doall(result: AnalysisResult, machine: Machine, threads: int) -> list[SimOutcome]:
    loop = _best_loop(result, want_reduction=False)
    if loop is None:
        return []
    invs = loop_invocation_costs(result.profile, loop)
    return [
        simulate_doall(
            invs, machine, threads=threads, streaming=result.profile.streaming_fraction
        )
    ]


#: The simulator of each pattern, keyed by its label up to any " + " suffix.
_SIMULATORS = {
    "Fusion": _sim_fusion,
    "Multi-loop pipeline": _sim_pipeline,
    "Task parallelism": _sim_tasks,
    "Geometric decomposition": _sim_geometric,
    "Reduction": _sim_reduction,
    "Do-all": _sim_doall,
}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanOutcome:
    """Detected pattern plus simulated thread sweep."""

    label: str
    sweep: ThreadSweep

    @property
    def best_threads(self) -> int:
        return self.sweep.best_threads

    @property
    def best_speedup(self) -> float:
        return self.sweep.best_speedup


def simulate_analysis(
    result: AnalysisResult,
    threads: int,
    machine: Machine = DEFAULT_MACHINE,
    label: str | None = None,
) -> float:
    """Overall program speedup at one thread count."""
    label = label or summarize_patterns(result)
    simulate = _SIMULATORS.get(label.split(" + ")[0])
    regions = simulate(result, machine.with_threads(threads), threads) if simulate else []
    if not regions:
        return 1.0
    return compose_speedup(float(result.profile.total_cost), regions)


def plan_and_simulate(
    result: AnalysisResult,
    thread_counts: Sequence[int] = DEFAULT_THREAD_COUNTS,
    machine: Machine = DEFAULT_MACHINE,
) -> PlanOutcome:
    """Detect the primary pattern and sweep the thread counts."""
    label = summarize_patterns(result)
    sweep = sweep_threads(
        lambda p: simulate_analysis(result, p, machine=machine, label=label),
        thread_counts,
    )
    return PlanOutcome(label=label, sweep=sweep)
