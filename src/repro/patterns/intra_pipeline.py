"""Intra-loop pipeline detection (extension).

The paper's multi-loop pipeline stretches *across* loops; the classic
pipeline lives *inside* one sequential loop: the body's CUs form stages,
each iteration flows through them, and loop-carried dependences are
tolerable as long as they point forward (or stay within a stage) — a
decoupled-software-pipelining view [Huang et al., CGO'10; cited as the
paper's reference 30].

A sequential loop is an intra-loop pipeline candidate when

1. its body splits into ≥ 2 CUs,
2. the intra-iteration CU graph is acyclic (stages = topological layers),
3. every loop-carried dependence is intra-stage or points to a later
   stage — a carried dependence *backward* into an earlier stage would
   stall the pipeline every iteration.

The estimated speedup is the balanced-stage bound: total weight over the
heaviest stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cu.detect import detect_cus
from repro.cu.graph import build_cu_graph, cu_weight
from repro.cu.model import CU
from repro.graphs.algorithms import topological_sort
from repro.graphs.digraph import DiGraph
from repro.lang.ast_nodes import Program
from repro.profiling.model import Profile


@dataclass
class IntraLoopPipeline:
    """A pipeline found inside one loop's body."""

    loop: int
    cus: list[CU]
    #: cu ids per stage, in flow order (topological layers)
    stages: list[list[int]] = field(default_factory=list)
    stage_weights: list[float] = field(default_factory=list)
    total_weight: float = 0.0

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def estimated_speedup(self) -> float:
        heaviest = max(self.stage_weights, default=0.0)
        if heaviest <= 0:
            return 1.0
        return self.total_weight / heaviest


def _topological_layers(graph: DiGraph) -> list[list[int]]:
    order = topological_sort(graph)
    level: dict[int, int] = {}
    for node in order:
        preds = graph.predecessors(node)
        level[node] = 1 + max((level[p] for p in preds), default=-1)
    layers: dict[int, list[int]] = {}
    for node, lvl in level.items():
        layers.setdefault(lvl, []).append(node)
    return [sorted(layers[lvl]) for lvl in sorted(layers)]


def detect_intra_loop_pipeline(
    program: Program, profile: Profile, loop: int
) -> IntraLoopPipeline | None:
    """Detect a pipeline inside the body of *loop*; None when not viable."""
    reg = program.regions.get(loop)
    if reg is None or reg.kind != "loop":
        return None
    cus = detect_cus(program, loop)
    if len(cus) < 2:
        return None
    graph = build_cu_graph(cus, profile, loop, include_control=False)
    try:
        layers = _topological_layers(graph)
    except ValueError:
        return None  # intra-iteration cycle: CUs are mutually entangled

    stage_of: dict[int, int] = {}
    for stage_i, layer in enumerate(layers):
        for cu_id in layer:
            stage_of[cu_id] = stage_i

    line_to_cu: dict[int, int] = {}
    for cu in cus:
        for line in cu.lines:
            line_to_cu.setdefault(line, cu.cu_id)

    # carried dependences must not flow backward across stages
    for dep in profile.deps:
        if dep.carrier != loop:
            continue
        src_cu = line_to_cu.get(dep.src_site)
        dst_cu = line_to_cu.get(dep.dst_site)
        if src_cu is None or dst_cu is None:
            continue
        if stage_of.get(src_cu, 0) > stage_of.get(dst_cu, 0):
            return None

    weights = {cu.cu_id: float(cu_weight(cu, profile)) for cu in cus}
    stage_weights = [sum(weights[c] for c in layer) for layer in layers]
    total = sum(stage_weights)
    if total <= 0:
        return None
    pipeline = IntraLoopPipeline(
        loop=loop,
        cus=cus,
        stages=layers,
        stage_weights=stage_weights,
        total_weight=total,
    )
    if pipeline.estimated_speedup < 1.2:
        return None  # one stage dominates: nothing to pipeline
    return pipeline
