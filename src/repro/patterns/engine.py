"""The detection engine: run the detector pipeline over a program's hotspots.

``analyze`` profiles the program (optionally with several inputs, merged)
and applies the Section III detectors to the hotspot regions, mirroring the
paper's pipeline: hotspots from the PET → CU graphs → pattern detectors.
The detectors themselves are pluggable stages resolved from a
:class:`repro.patterns.framework.DetectorRegistry`; pass a custom registry
to ``analyze``/``analyze_profile`` to add, replace, or drop stages.

``summarize_patterns`` condenses an :class:`AnalysisResult` into the
"Detected Pattern" label of Table III, using the same precedence the paper's
evaluation section exhibits (fusion ≻ multi-loop pipeline ≻ task parallelism
≻ geometric decomposition ≻ reduction ≻ do-all).

The thresholds and :class:`AnalysisResult` itself live in
:mod:`repro.patterns.framework`.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.lang.ast_nodes import Program
from repro.obs.tracing import ensure_tracer
from repro.patterns.framework import (
    AnalysisContext,
    AnalysisResult,
    DetectorRegistry,
    run_detectors,
)
from repro.patterns.result import TaskParallelism
from repro.profiling.cache import ProfileCache, cached_profile_runs
from repro.profiling.hotspots import DEFAULT_THRESHOLD, hotspot_regions
from repro.profiling.model import Profile

__all__ = [
    "analyze",
    "analyze_profile",
    "summarize_patterns",
    "primary_pattern_regions",
    "primary_pattern_share",
]


def analyze(
    program: Program,
    entry: str,
    arg_sets: Sequence[Sequence[Any]],
    hotspot_threshold: float = DEFAULT_THRESHOLD,
    min_pairs: int = 3,
    record_calltree: bool = True,
    max_cost: int = 500_000_000,
    cache: ProfileCache | None = None,
    registry: DetectorRegistry | None = None,
    engine: str = "compiled",
) -> AnalysisResult:
    """Profile ``entry`` with each argument set and run all detectors.

    Pass a :class:`repro.profiling.cache.ProfileCache` to skip the
    instrumented run entirely when an identical (source, inputs, config)
    profile is already on disk, and a :class:`DetectorRegistry` to run a
    non-default detector pipeline.  *engine* picks the execution engine for
    the instrumented runs (``"compiled"`` closures or the ``"tree"``
    reference walker); the produced profiles are identical either way.
    """
    with ensure_tracer() as tracer:
        with tracer.span(
            "profile", cached=cache is not None, runs=len(arg_sets), engine=engine
        ):
            profile, _ = cached_profile_runs(
                program, entry, arg_sets,
                record_calltree=record_calltree, max_cost=max_cost, cache=cache,
                engine=engine,
            )
        return analyze_profile(
            program,
            profile,
            hotspot_threshold=hotspot_threshold,
            min_pairs=min_pairs,
            registry=registry,
        )


def analyze_profile(
    program: Program,
    profile: Profile,
    hotspot_threshold: float = DEFAULT_THRESHOLD,
    min_pairs: int = 3,
    registry: DetectorRegistry | None = None,
) -> AnalysisResult:
    """Run the detector pipeline over an existing profile."""
    hotspots = hotspot_regions(profile, program, threshold=hotspot_threshold)
    ctx = AnalysisContext(
        program=program,
        profile=profile,
        hotspots=hotspots,
        hotspot_threshold=hotspot_threshold,
        min_pairs=min_pairs,
    )
    return run_detectors(ctx, registry)


def summarize_patterns(result: AnalysisResult) -> str:
    """The Table III "Detected Pattern" label for an analysis result."""
    if result.fusions:
        return "Fusion"
    if result.clean_pipelines():
        return "Multi-loop pipeline"

    task = result.best_task_parallelism()
    if task is not None:
        workers_doall = _workers_are_doall_loops(result, task)
        return "Task parallelism + Do-all" if workers_doall else "Task parallelism"

    if result.geometric:
        gd = result.geometric[0]
        hot = result.hotspot_regions
        regions = result.program.regions
        # kmeans-style: a hotspot reduction loop anywhere inside the GD
        # function earns the "+ Reduction" suffix (Section IV-C/IV-D).
        has_hot_reduction = any(
            lc.is_reduction
            and region in hot
            and region in regions
            and regions[region].function == gd.function
            for region, lc in result.loop_classes.items()
        )
        if has_hot_reduction:
            return "Geometric decomposition + Reduction"
        return "Geometric decomposition"

    if result.reductions:
        return "Reduction"

    hot = result.hotspot_regions
    if any(lc.is_doall for region, lc in result.loop_classes.items() if region in hot):
        return "Do-all"
    return "None"


def primary_pattern_regions(result: AnalysisResult) -> list[int]:
    """The region(s) in which the primary pattern was detected."""
    label = summarize_patterns(result)
    if label == "Fusion" and result.fusions:
        f = result.fusions[0]
        return [f.loop_x, f.loop_y]
    if label == "Multi-loop pipeline":
        clean = result.clean_pipelines()
        if clean:
            return [clean[0].loop_x, clean[0].loop_y]
    if label.startswith("Task parallelism"):
        task = result.best_task_parallelism()
        if task is not None:
            return [task.region]
    if label.startswith("Geometric decomposition") and result.geometric:
        return [result.geometric[0].region]
    if label == "Reduction" and result.reductions:
        loop = max(result.reductions, key=lambda r: result.profile.region_cost(r))
        return [loop]
    if result.hotspots:
        return [result.hotspots[0].region]
    return []


def primary_pattern_share(result: AnalysisResult) -> float:
    """Fraction of executed instructions inside the primary pattern's
    region(s) — Table III's "Exec Inst % in Hotspot" column."""
    regions = primary_pattern_regions(result)
    if not regions or result.profile.total_cost <= 0:
        return 0.0
    total = sum(result.profile.region_cost(r) for r in set(regions))
    return min(1.0, total / result.profile.total_cost)


def _workers_are_doall_loops(result: AnalysisResult, task: TaskParallelism) -> bool:
    """True when every significant concurrent task is a do-all loop CU."""
    cu_by_id = {cu.cu_id: cu for cu in task.cus}
    workers = task.significant_tasks()
    if not workers:
        return False
    for cu_id in workers:
        cu = cu_by_id[cu_id]
        if cu.kind != "loop":
            return False
        loop_stmt = cu.stmts[0]
        region = getattr(loop_stmt, "region_id", -1)
        lc = result.loop_classes.get(region)
        if lc is None or not lc.is_doall:
            return False
    return True
