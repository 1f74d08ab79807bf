"""Ranking multiple detected patterns — the paper's future work.

Section VI: "We aim to define metrics that help choose the best pattern
among multiple detected parallel patterns.  Such metrics may also quantify
the human effort needed for code transformation."

:func:`rank_patterns` takes *every* rung of the precedence ladder that
applies to a program (not only the engine's primary label), simulates each
one's schedule over the profile at the rung's regions, estimates the
transformation effort from the lines those regions span, and ranks by
simulated benefit per unit of effort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.patterns.framework import AnalysisResult
from repro.patterns.engine import applicable_patterns
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


def _lines_touched(result: AnalysisResult, regions: Sequence[int]) -> int:
    from repro.lang.analysis import stmt_lines

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
    thread_counts: Sequence[int] | None = None,
) -> list[PatternOption]:
    """All applicable patterns, ranked by benefit per unit of effort.

    *thread_counts* defaults to ``DEFAULT_THREAD_COUNTS``, the counts
    ``plan_and_simulate`` sweeps, so the primary label's option reads the
    primary sweep's best.
    """
    from repro.sim.planner import sweep_pattern
    from repro.sim.sweep import DEFAULT_THREAD_COUNTS

    if thread_counts is None:
        thread_counts = DEFAULT_THREAD_COUNTS

    options: list[PatternOption] = []
    intra = _intra_pipeline_option(result, thread_counts)
    if intra is not None:
        options.append(intra)
    for label, regions in applicable_patterns(result):
        label = label.split(" + ")[0]
        sweep = sweep_pattern(result, label, regions, thread_counts)
        touched = _lines_touched(result, regions)
        options.append(
            PatternOption(
                label=label,
                best_speedup=sweep.best_speedup,
                best_threads=sweep.best_threads,
                effort=round(BASE_EFFORT[label] + touched / 50.0, 2),
                # do-all and fusion are loop-level SPMD; Table I's constant
                # stays restricted to the paper's four rows
                supporting_structure=SUPPORTING_STRUCTURE.get(label, "SPMD"),
                lines_touched=touched,
            )
        )
    options.sort(key=lambda o: (-o.benefit_per_effort, o.effort, o.label))
    return options
