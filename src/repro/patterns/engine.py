"""The detection engine: run the detector pipeline over a program's hotspots.

``analyze`` profiles the program (optionally with several inputs, merged)
and applies the Section III detectors to the hotspot regions, mirroring the
paper's pipeline: hotspots from the PET → CU graphs → pattern detectors.
The detectors are the stages of
:func:`repro.patterns.framework.default_registry`;
:func:`repro.patterns.framework.run_detectors` runs any other registry.

``primary_pattern`` is Table III's precedence ladder, walked once: it
condenses an :class:`AnalysisResult` into the "Detected Pattern" label and
the region(s) the pattern was found in, using the precedence the paper's
evaluation section exhibits (fusion ≻ multi-loop pipeline ≻ task
parallelism ≻ geometric decomposition ≻ reduction ≻ do-all).
``summarize_patterns`` reads its label; ``region_share`` turns its regions
into the "Exec Inst % in Hotspot" column, which
:func:`repro.sim.planner.plan_and_simulate` reports from the same walk.

The thresholds and :class:`AnalysisResult` itself live in
:mod:`repro.patterns.framework`.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.lang.ast_nodes import Program
from repro.obs.tracing import ensure_tracer
from repro.patterns.framework import AnalysisContext, AnalysisResult, run_detectors
from repro.patterns.fusion import fusion_chains
from repro.patterns.result import TaskParallelism
from repro.profiling.cache import ProfileCache, cached_profile_runs
from repro.profiling.hotspots import DEFAULT_THRESHOLD, hotspot_regions
from repro.profiling.model import Profile

__all__ = [
    "analyze",
    "analyze_profile",
    "primary_pattern",
    "summarize_patterns",
    "region_share",
]


def analyze(
    program: Program,
    entry: str,
    arg_sets: Sequence[Sequence[Any]],
    hotspot_threshold: float = DEFAULT_THRESHOLD,
    min_pairs: int = 3,
    max_cost: int = 500_000_000,
    cache: ProfileCache | None = None,
    engine: str = "compiled",
) -> AnalysisResult:
    """Profile ``entry`` with each argument set and run all detectors.

    Pass a :class:`repro.profiling.cache.ProfileCache` to skip the
    instrumented run entirely when an identical (source, inputs, config)
    profile is already on disk.  *engine* picks the execution engine for
    the instrumented runs (``"compiled"`` closures or the ``"tree"``
    reference walker); the produced profiles are identical either way.
    """
    with ensure_tracer() as tracer:
        with tracer.span(
            "profile", cached=cache is not None, runs=len(arg_sets), engine=engine
        ):
            profile, _ = cached_profile_runs(
                program, entry, arg_sets, max_cost=max_cost, cache=cache, engine=engine
            )
        return analyze_profile(
            program, profile, hotspot_threshold=hotspot_threshold, min_pairs=min_pairs
        )


def analyze_profile(
    program: Program,
    profile: Profile,
    hotspot_threshold: float = DEFAULT_THRESHOLD,
    min_pairs: int = 3,
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
    return run_detectors(ctx)


def primary_pattern(result: AnalysisResult) -> tuple[str, list[int]]:
    """The Table III "Detected Pattern" label and the region(s) in which
    that pattern was detected (for Fusion, every loop of the first fusion's
    chain, as the Fusion plan fuses them)."""
    if result.fusions:
        first = result.fusions[0].loop_x
        return "Fusion", next(c for c in fusion_chains(result.fusions) if first in c)
    clean = result.clean_pipelines()
    if clean:
        return "Multi-loop pipeline", [clean[0].loop_x, clean[0].loop_y]

    task = result.best_task_parallelism()
    if task is not None:
        workers_doall = _workers_are_doall_loops(result, task)
        label = "Task parallelism + Do-all" if workers_doall else "Task parallelism"
        return label, [task.region]

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
            return "Geometric decomposition + Reduction", [gd.region]
        return "Geometric decomposition", [gd.region]

    if result.reductions:
        loop = max(result.reductions, key=lambda r: result.profile.region_cost(r))
        return "Reduction", [loop]

    hot = result.hotspot_regions
    top = [result.hotspots[0].region] if result.hotspots else []
    if any(lc.is_doall for region, lc in result.loop_classes.items() if region in hot):
        return "Do-all", top
    return "None", top


def summarize_patterns(result: AnalysisResult) -> str:
    """The Table III "Detected Pattern" label for an analysis result."""
    return primary_pattern(result)[0]


def region_share(profile: Profile, regions: Sequence[int]) -> float:
    """Fraction of executed instructions inside *regions*; for the primary
    pattern's regions, Table III's "Exec Inst % in Hotspot" column."""
    if not regions or profile.total_cost <= 0:
        return 0.0
    total = sum(profile.region_cost(r) for r in set(regions))
    return min(1.0, total / profile.total_cost)


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
