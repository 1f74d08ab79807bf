"""Task-parallelism detection (Section III-B, Algorithm 1, Table V).

The BFS classification marks every CU of a region's CU graph:

* the first unmarked CU in serial order becomes a **fork**,
* unmarked dependents become **workers**,
* a dependent that was already marked becomes a **barrier** (it waits on
  more than one CU).

Two barriers may run in parallel iff there is no directed path between them
(``checkParallelBarriers``).

The *estimated speedup* of Table V is total instructions divided by
critical-path instructions.  For non-recursive regions we take the weighted
critical path through the CU graph directly.  For recursive hotspots
(fib/sort/strassen) the meaningful critical path is the *span* of the
dynamic task tree: we go bottom-up over the recorded call tree, replacing
each recursive call CU's weight by the span of the child activation, and
take the CU-graph critical path per activation (per distinct activation
shape; the CU graph's topological order is computed once).
"""

from __future__ import annotations

from collections import deque

from repro.cu.detect import detect_cus
from repro.cu.graph import build_cu_graph, cu_weight
from repro.cu.model import CU
from repro.graphs.algorithms import PathOrder, has_path, longest_path, path_order
from repro.graphs.digraph import DiGraph
from repro.lang.analysis import is_recursive
from repro.lang.ast_nodes import Program
from repro.patterns.framework import (
    AnalysisContext,
    AnalysisResult,
    Detector,
    Evidence,
    StageTrace,
    evaluate_task_candidates,
)
from repro.patterns.result import TaskParallelism
from repro.profiling.model import CallNode, Profile


def classify_cus(graph: DiGraph, cus: list[CU]) -> dict[int, str]:
    """Algorithm 1: BFS fork/worker/barrier classification."""
    marks: dict[int, str] = {}
    serial = [cu.cu_id for cu in sorted(cus, key=lambda c: (c.first_line, c.cu_id))]
    processed_edges: set[tuple[int, int]] = set()
    while len(marks) < len(serial):
        start = next(cu for cu in serial if cu not in marks)
        marks[start] = "fork"
        queue: deque[int] = deque([start])
        while queue:
            node = queue.popleft()
            for dep in sorted(graph.successors(node)):
                if (node, dep) in processed_edges:
                    continue
                processed_edges.add((node, dep))
                if dep not in marks:
                    marks[dep] = "worker"
                else:
                    marks[dep] = "barrier"
                queue.append(dep)
    return marks


def parallel_barrier_pairs(graph: DiGraph, marks: dict[int, str]) -> list[tuple[int, int]]:
    """Barrier pairs with no directed path between them (either way)."""
    barriers = sorted(cu for cu, m in marks.items() if m == "barrier")
    out: list[tuple[int, int]] = []
    for i, b1 in enumerate(barriers):
        for b2 in barriers[i + 1 :]:
            if not has_path(graph, b1, b2) and not has_path(graph, b2, b1):
                out.append((b1, b2))
    return out


def concurrent_task_set(
    graph: DiGraph, cus: list[CU], weights: dict[int, float]
) -> list[int]:
    """A heavy antichain of the CU graph: pairwise path-free CUs.

    This is the set of tasks a master/worker implementation would run
    concurrently.  A single greedy pass seeded by the heaviest CU can get
    stuck on a barrier (fdtd-2d's hz update is the heaviest CU but depends
    on everything), so we grow one greedy antichain per seed and keep the
    heaviest.
    """
    ordered = sorted(cus, key=lambda c: (-weights.get(c.cu_id, 0.0), c.first_line))
    candidates = [cu for cu in ordered if weights.get(cu.cu_id, 0.0) > 0.0]

    def independent(a: int, b: int) -> bool:
        return not has_path(graph, a, b) and not has_path(graph, b, a)

    best: list[int] = []
    best_weight = -1.0
    for seed in candidates:
        chosen = [seed.cu_id]
        for cu in candidates:
            if cu.cu_id == seed.cu_id:
                continue
            if all(independent(cu.cu_id, other) for other in chosen):
                chosen.append(cu.cu_id)
        total = sum(weights.get(c, 0.0) for c in chosen)
        if total > best_weight or (
            total == best_weight and len(chosen) > len(best)
        ):
            best = chosen
            best_weight = total
    return sorted(best)


def _barrier_inputs(graph: DiGraph, marks: dict[int, str]) -> dict[int, list[int]]:
    return {
        cu: sorted(graph.predecessors(cu))
        for cu, m in marks.items()
        if m == "barrier"
    }


def _cu_cost_shares(
    profile: Profile, cus: list[CU]
) -> tuple[dict[int, int], dict[int, int], int]:
    """(site line -> CU, CU -> aggregate direct line cost, their total).

    An activation's exclusive cost is distributed across CUs in proportion
    to their aggregate direct line costs.
    """
    line_to_cu: dict[int, int] = {}
    for cu in cus:
        for line in cu.lines:
            line_to_cu.setdefault(line, cu.cu_id)
    agg_excl = {
        cu.cu_id: sum(profile.line_costs.get(line, 0) for line in cu.lines)
        for cu in cus
    }
    return line_to_cu, agg_excl, sum(agg_excl.values()) or 1


def _cu_span(
    order: PathOrder,
    cus: list[CU],
    agg_excl: dict[int, int],
    total_excl: int,
    exclusive_cost: int,
    child_span: dict[int, float],
) -> float:
    """Critical path of one activation: each CU weighs its share of the
    activation's exclusive cost plus the spans of the children its call
    sites started."""

    def weight(cu_id: int) -> float:
        local = exclusive_cost * agg_excl.get(cu_id, 0) / total_excl
        return local + child_span.get(cu_id, 0.0)

    value, _ = longest_path(order, weight)
    # CUs not on any path still execute; ensure span >= heaviest CU.
    return max(value, max((weight(c.cu_id) for c in cus), default=0.0))


def _recursive_span(
    profile: Profile,
    region: int,
    cus: list[CU],
    order: PathOrder,
) -> tuple[float, float] | None:
    """(work, span) over the dynamic task tree of a recursive hotspot.

    An activation's span is the critical path through the CU graph with
    each CU weighted by its share of the activation's exclusive cost plus
    the spans of the child activations its call sites started (a child of
    another region is a sequential black box: its inclusive cost).  That
    is a pure function of the activation's *shape* — exclusive cost,
    inclusive cost and the per-CU child spans — and recursion repeats
    shapes (every ``fib(k)`` for one ``k``), so spans are memoized on it.
    The tree is traversed post-order with an explicit stack, because it is
    as deep as the program's recursion.
    """
    activations = profile.activations(region)
    if not activations:
        return None
    # Top-most activation of the region:
    root = activations[0]
    if not order.order:
        return float(root.inclusive_cost), float(root.inclusive_cost)
    line_to_cu, agg_excl, total_excl = _cu_cost_shares(profile, cus)

    memo: dict[tuple, float] = {}
    spans: dict[int, float] = {}  # id(activation) -> span, until its parent reads it
    stack: list[tuple[CallNode, bool]] = [(root, False)]
    while stack:
        act, children_done = stack.pop()
        if not children_done:
            stack.append((act, True))
            stack.extend(
                (child, False)
                for child in act.children
                if child.region == region and child.site_line in line_to_cu
            )
            continue
        child_span: dict[int, float] = {}
        for child in act.children:
            cu_id = line_to_cu.get(child.site_line)
            if cu_id is None:
                continue
            span = (
                spans.pop(id(child))
                if child.region == region
                else float(child.inclusive_cost)
            )
            child_span[cu_id] = child_span.get(cu_id, 0.0) + span
        shape = (act.exclusive_cost, act.inclusive_cost, tuple(child_span.items()))
        value = memo.get(shape)
        if value is None:
            value = memo[shape] = _cu_span(
                order, cus, agg_excl, total_excl, act.exclusive_cost, child_span
            )
        spans[id(act)] = value
    return float(root.inclusive_cost), spans[id(root)]


def _single_step(
    profile: Profile,
    region: int,
    cus: list[CU],
    order: PathOrder,
) -> tuple[int, int] | None:
    """(total, critical path) for the top activation, recursion unexpanded.

    Child activations contribute their full inclusive cost as an opaque
    block assigned to the call-site CU — the paper's "only one recursive
    step" semantics.
    """
    activations = profile.activations(region)
    if not activations:
        return None
    root = activations[0]
    total = root.inclusive_cost
    if not order.order:
        return int(total), int(total)
    line_to_cu, agg_excl, total_excl = _cu_cost_shares(profile, cus)
    child_cost: dict[int, float] = {}
    for child in root.children:
        cu_id = line_to_cu.get(child.site_line)
        if cu_id is None:
            continue
        child_cost[cu_id] = child_cost.get(cu_id, 0.0) + child.inclusive_cost
    cp = _cu_span(order, cus, agg_excl, total_excl, root.exclusive_cost, child_cost)
    return int(total), int(round(cp))


def detect_task_parallelism(
    program: Program,
    profile: Profile,
    region: int,
    include_control: bool = True,
    cus: list[CU] | None = None,
    graph: DiGraph | None = None,
) -> TaskParallelism:
    """Run the full Section III-B analysis on one region.

    *cus* and *graph* accept precomputed artifacts (e.g. the memoized ones
    from ``AnalysisContext``) so repeated analyses of the same region skip
    CU detection and graph construction.
    """
    if cus is None:
        cus = detect_cus(program, region)
    if graph is None:
        graph = build_cu_graph(cus, profile, region, include_control=include_control)
    marks = classify_cus(graph, cus)

    weights = {cu.cu_id: float(cu_weight(cu, profile)) for cu in cus}
    reg = program.regions.get(region)
    recursive = (
        reg is not None
        and reg.kind == "function"
        and program.has_function(reg.function)
        and is_recursive(program.function(reg.function), program)
    )

    order = path_order(graph)
    work_span: tuple[float, float] | None = None
    if recursive:
        work_span = _recursive_span(profile, region, cus, order)
    if work_span is None:
        total = sum(weights.values())
        if len(graph) and total > 0:
            span, path = longest_path(order, lambda cu: weights[cu])
            span = max(span, max(weights.values(), default=0.0))
        else:
            span, path = total, [cu.cu_id for cu in cus]
        work, span_value, cp = total, span, path
    else:
        work, span_value = work_span
        _, cp = longest_path(order, lambda cu: weights.get(cu, 0.0))

    single = _single_step(profile, region, cus, order)
    return TaskParallelism(
        region=region,
        cus=cus,
        graph=graph,
        marks=marks,
        barrier_inputs=_barrier_inputs(graph, marks),
        parallel_barriers=parallel_barrier_pairs(graph, marks),
        concurrent_tasks=concurrent_task_set(graph, cus, weights),
        weights=weights,
        total_instructions=int(round(work)),
        critical_path_instructions=int(round(span_value)),
        critical_path=list(cp),
        single_step_total=single[0] if single else 0,
        single_step_cp=single[1] if single else 0,
    )


class TaskParallelismDetector(Detector):
    """Hotspot-scoped Algorithm 1, with the engine's acceptance gates
    (:data:`MIN_TASK_SPEEDUP`, significant-task count,
    :data:`MIN_TASK_GRAIN`) evaluated into the evidence trace."""

    name = "tasks"
    stage = "tasks"
    requires = ("loop-classes",)

    def run(
        self, ctx: AnalysisContext, result: AnalysisResult, trace: StageTrace
    ) -> list[Evidence]:
        for hotspot in result.hotspots:
            result.tasks[hotspot.region] = detect_task_parallelism(
                ctx.program,
                ctx.profile,
                hotspot.region,
                cus=ctx.cus(hotspot.region),
                graph=ctx.cu_graph(hotspot.region),
            )
            trace.count("regions")
        best, evidence = evaluate_task_candidates(result)
        trace.counters["accepted"] = sum(1 for ev in evidence if ev.accepted)
        trace.counters["rejected"] = sum(1 for ev in evidence if not ev.accepted)
        if best is not None:
            trace.counters["best_region"] = best.region
        return evidence
