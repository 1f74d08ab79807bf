"""Ranking multiple detected patterns — the paper's future work.

Section VI: "We aim to define metrics that help choose the best pattern
among multiple detected parallel patterns.  Such metrics may also quantify
the human effort needed for code transformation."

:func:`rank_patterns` enumerates *every* applicable pattern for a program
(not only the engine's primary label), simulates each one's schedule over
the profile, estimates the transformation effort, and ranks by simulated
benefit per unit of effort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.patterns.framework import AnalysisResult
from repro.patterns.result import SUPPORTING_STRUCTURE

#: Base effort (in "programmer units") of applying each supporting
#: structure.  Calibrated ordinally: a pragma on one loop is trivial; a
#: hand-built pipeline with inter-stage synchronization is not.
BASE_EFFORT = {
    "Do-all": 1.0,
    "Reduction": 2.0,
    "Fusion": 2.0,
    "Geometric decomposition": 3.0,
    "Task parallelism": 3.0,
    "Task parallelism + Do-all": 3.5,
    "Geometric decomposition + Reduction": 3.5,
    "Multi-loop pipeline": 4.0,
}


@dataclass(frozen=True)
class PatternOption:
    """One applicable pattern with its projected benefit and cost."""

    label: str
    best_speedup: float
    best_threads: int
    effort: float
    supporting_structure: str
    lines_touched: int

    @property
    def benefit_per_effort(self) -> float:
        gain = max(0.0, self.best_speedup - 1.0)
        return gain / self.effort if self.effort > 0 else 0.0


def _applicable_labels(result: AnalysisResult) -> list[str]:
    labels: list[str] = []
    if result.fusions:
        labels.append("Fusion")
    if result.clean_pipelines():
        labels.append("Multi-loop pipeline")
    task = result.best_task_parallelism()
    if task is not None:
        labels.append("Task parallelism")
    if result.geometric:
        labels.append("Geometric decomposition")
    hot = result.hotspot_regions
    if result.reductions or any(
        lc.is_reduction for r, lc in result.loop_classes.items() if r in hot
    ):
        labels.append("Reduction")
    if any(lc.is_doall for r, lc in result.loop_classes.items() if r in hot):
        labels.append("Do-all")
    return labels


def _lines_touched(result: AnalysisResult, label: str) -> int:
    from repro.lang.analysis import stmt_lines

    regions: list[int] = []
    if label == "Fusion" and result.fusions:
        regions = [result.fusions[0].loop_x, result.fusions[0].loop_y]
    elif label == "Multi-loop pipeline" and result.clean_pipelines():
        p = result.clean_pipelines()[0]
        regions = [p.loop_x, p.loop_y]
    elif label.startswith("Task parallelism"):
        task = result.best_task_parallelism()
        if task is not None:
            regions = [task.region]
    elif label.startswith("Geometric decomposition") and result.geometric:
        regions = [result.geometric[0].region]
    elif label == "Reduction" and result.reductions:
        regions = list(result.reductions)
    else:
        regions = [
            r for r, lc in result.loop_classes.items()
            if lc.is_doall and r in result.hotspot_regions
        ][:1]
    lines: set[int] = set()
    for region in regions:
        reg = result.program.regions.get(region)
        if reg is None or reg.node is None:
            continue
        lines.add(reg.line)
        for stmt in reg.node.body:
            lines |= stmt_lines(stmt)
    return len(lines)


def _intra_pipeline_option(
    result: AnalysisResult, thread_counts: Sequence[int]
) -> PatternOption | None:
    """Offer a DSWP-style intra-loop pipeline for sequential hotspot loops
    (extension; see repro.patterns.intra_pipeline)."""
    from repro.patterns.intra_pipeline import detect_intra_loop_pipeline
    from repro.sim.amdahl import compose_speedup
    from repro.sim.machine import DEFAULT_MACHINE
    from repro.sim.pipeline import simulate_pipeline_chain
    from repro.sim.sweep import sweep_threads

    best = None
    for region, lc in result.loop_classes.items():
        if lc.parallelizable or region not in result.hotspot_regions:
            continue
        pipe = detect_intra_loop_pipeline(result.program, result.profile, region)
        if pipe is None:
            continue
        cost = result.profile.region_cost(region)
        if best is None or cost > best[0]:
            best = (cost, region, pipe)
    if best is None:
        return None
    _, region, pipe = best
    trips = max(1, result.profile.max_trip(region))
    stage_costs = [
        [w / trips] * trips for w in pipe.stage_weights
    ]
    fits = [(1.0, 0.0)] * (pipe.n_stages - 1)

    def speedup_at(p: int) -> float:
        outcome = simulate_pipeline_chain(
            stage_costs,
            fits,
            DEFAULT_MACHINE.with_threads(p),
            stage0_parallel=False,
            streaming=result.profile.streaming_fraction,
        )
        return compose_speedup(float(result.profile.total_cost), [outcome])

    sweep = sweep_threads(speedup_at, thread_counts)
    lines = len(
        set().union(*(cu.lines for cu in pipe.cus)) if pipe.cus else set()
    )
    return PatternOption(
        label="Pipeline (intra-loop)",
        best_speedup=sweep.best_speedup,
        best_threads=sweep.best_threads,
        effort=round(4.0 + lines / 50.0, 2),
        supporting_structure="SPMD",
        lines_touched=lines,
    )


def rank_patterns(
    result: AnalysisResult,
    thread_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
) -> list[PatternOption]:
    """All applicable patterns, ranked by benefit per unit of effort."""
    from repro.sim.planner import simulate_analysis
    from repro.sim.sweep import sweep_threads

    options: list[PatternOption] = []
    intra = _intra_pipeline_option(result, thread_counts)
    if intra is not None:
        options.append(intra)
    for label in _applicable_labels(result):
        sweep = sweep_threads(
            lambda p, lbl=label: simulate_analysis(result, p, label=lbl),
            thread_counts,
        )
        touched = _lines_touched(result, label)
        effort = BASE_EFFORT.get(label, 3.0) + touched / 50.0
        options.append(
            PatternOption(
                label=label,
                best_speedup=sweep.best_speedup,
                best_threads=sweep.best_threads,
                effort=round(effort, 2),
                supporting_structure=SUPPORTING_STRUCTURE.get(
                    label.split(" + ")[0],
                    # do-all and fusion are loop-level SPMD; Table I's
                    # constant stays restricted to the paper's four rows
                    "SPMD" if label in ("Do-all", "Fusion") else "?",
                ),
                lines_touched=touched,
            )
        )
    options.sort(key=lambda o: (-o.benefit_per_effort, o.effort, o.label))
    return options
