"""Multi-loop pipeline detection (Section III-A).

The profiler already recorded, for every pair of loops with a cross-loop
dependence, the ``(i_x, i_y)`` pairs of the *last* write iteration of loop x
and the *first* read iteration of loop y per memory location.  Here we

1. fit ``Y = aX + b`` over those pairs (Eq. 1),
2. compute the efficiency factor ``e`` (Eq. 2), and
3. attach each stage's do-all/reduction classification, since "the loops in
   each stage of a multi-loop pipeline may be parallelized using other
   parallel patterns".

Chains of more than two loops are reported pairwise, exactly as the paper's
tool does; :func:`pipeline_chains` assembles the pairwise reports into
n-stage chains.
"""

from __future__ import annotations

from typing import Callable

from repro.lang.ast_nodes import Program
from repro.patterns.doall import classify_loop
from repro.patterns.framework import (
    AnalysisContext,
    AnalysisResult,
    Detector,
    Evidence,
    StageTrace,
    evaluate_clean_pipelines,
)
from repro.patterns.regression import efficiency_factor, fit_iteration_pairs
from repro.patterns.result import LoopClass, MultiLoopPipeline
from repro.profiling.model import Profile


def detect_multiloop_pipelines(
    program: Program,
    profile: Profile,
    hotspots: set[int] | None = None,
    min_pairs: int = 3,
    classify: Callable[[int], LoopClass] | None = None,
) -> list[MultiLoopPipeline]:
    """Detect multi-loop pipelines between sibling loop pairs.

    *hotspots*, when given, restricts attention to pairs where both loops
    are hotspot regions (the paper gathers "all pairs of hotspot loops").
    ``min_pairs`` filters out incidental one-off dependences that cannot
    support a regression.  *classify* substitutes a memoized loop
    classifier (e.g. ``AnalysisContext.loop_class``) for the default
    per-call :func:`classify_loop`.
    """
    if classify is None:
        classify = lambda loop: classify_loop(program, profile, loop)  # noqa: E731
    results: list[MultiLoopPipeline] = []
    for (loop_x, loop_y), pairs in sorted(profile.pairs.items()):
        if hotspots is not None and (loop_x not in hotspots or loop_y not in hotspots):
            continue
        if len(pairs) < min_pairs:
            continue
        # A pipeline flows forward: loop x precedes loop y in serial order.
        # A "pair" whose writer loop lies lexically *after* the reader loop
        # is really a carried dependence of an enclosing loop (fdtd-2d's
        # hz(t-1) -> ey(t)), not a pipeline between the two loops.
        reg_x = program.regions.get(loop_x)
        reg_y = program.regions.get(loop_y)
        if reg_x is not None and reg_y is not None and reg_x.line > reg_y.line:
            continue
        fit = fit_iteration_pairs(pairs)
        trips_x = max(profile.max_trip(loop_x), 1)
        trips_y = max(profile.max_trip(loop_y), 1)
        e = efficiency_factor(fit.a, fit.b, trips_x, trips_y)
        results.append(
            MultiLoopPipeline(
                loop_x=loop_x,
                loop_y=loop_y,
                a=fit.a,
                b=fit.b,
                efficiency=e,
                n_pairs=fit.n,
                trips_x=trips_x,
                trips_y=trips_y,
                stage_x=classify(loop_x),
                stage_y=classify(loop_y),
            )
        )
    results.sort(key=lambda r: (r.loop_x, r.loop_y))
    return results


def pipeline_chains(results: list[MultiLoopPipeline]) -> list[list[int]]:
    """Assemble pairwise pipeline reports into maximal loop chains.

    A chain of n dependent loops yields n-1 pairwise reports (Section
    III-A); this helper recovers ``[x, y, z, ...]`` stage sequences for an
    n-stage pipeline implementation.
    """
    successor: dict[int, list[int]] = {}
    has_pred: set[int] = set()
    nodes: set[int] = set()
    for r in results:
        successor.setdefault(r.loop_x, []).append(r.loop_y)
        has_pred.add(r.loop_y)
        nodes.add(r.loop_x)
        nodes.add(r.loop_y)
    chains: list[list[int]] = []
    heads = sorted(n for n in nodes if n not in has_pred)
    for head in heads:
        chain = [head]
        seen = {head}
        cursor = head
        while cursor in successor:
            nxt = sorted(successor[cursor])[0]
            if nxt in seen:
                break
            chain.append(nxt)
            seen.add(nxt)
            cursor = nxt
        if len(chain) >= 2:
            chains.append(chain)
    return chains


class MultiLoopPipelineDetector(Detector):
    """Stage 2: pairwise pipeline fits between hotspot loops, with the
    clean-pipeline gates (single source, :data:`MIN_PIPELINE_EFFICIENCY`)
    evaluated up front so rejections land in the evidence trace."""

    name = "pipelines"
    requires = ("loop-classes",)

    def run(
        self, ctx: AnalysisContext, result: AnalysisResult, trace: StageTrace
    ) -> list[Evidence]:
        result.pipelines = detect_multiloop_pipelines(
            ctx.program,
            ctx.profile,
            hotspots=ctx.hotspot_regions,
            min_pairs=ctx.min_pairs,
            classify=ctx.loop_class,
        )
        clean, evidence = evaluate_clean_pipelines(result)
        trace.counters["detected"] = len(result.pipelines)
        trace.counters["clean"] = len(clean)
        trace.counters["rejected"] = len(result.pipelines) - len(clean)
        return evidence
