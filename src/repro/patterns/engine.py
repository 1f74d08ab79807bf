"""The detection engine: run the detector pipeline over a program's hotspots.

``analyze`` profiles the program (optionally with several inputs, merged)
and applies the Section III detectors to the hotspot regions, mirroring the
paper's pipeline: hotspots from the PET → CU graphs → pattern detectors.
The detectors are the stages of
:func:`repro.patterns.framework.default_registry`;
:func:`repro.patterns.framework.run_detectors` runs any other registry.

Table III's precedence ladder is the rung list :data:`RUNGS`, in the
precedence the paper's evaluation section exhibits (fusion ≻ multi-loop
pipeline ≻ task parallelism ≻ geometric decomposition ≻ reduction ≻
do-all).  Each rung returns its pattern's label and the region(s) the
pattern was found in, or ``None``: the rungs are the only code that decides
where a pattern sits.  ``primary_pattern`` takes the first rung that
applies; ``summarize_patterns`` reads its label, and ``region_share`` turns
its regions into the "Exec Inst % in Hotspot" column, which
:func:`repro.sim.planner.plan_and_simulate` reports beside the simulated
speedup of the same regions.  ``applicable_patterns`` yields every rung
that applies, the options :func:`repro.patterns.ranking.rank_patterns`
ranks.

The thresholds and :class:`AnalysisResult` itself live in
:mod:`repro.patterns.framework`.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

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
    "applicable_patterns",
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


#: A rung's finding: the pattern's label and the region(s) it was found in.
Finding = tuple[str, list[int]]


def _fusion_rung(result: AnalysisResult) -> Finding | None:
    """Every loop of the first fusion's chain, the loops the Fusion plan
    fuses."""
    if not result.fusions:
        return None
    first = result.fusions[0].loop_x
    return "Fusion", next(c for c in fusion_chains(result.fusions) if first in c)


def _pipeline_rung(result: AnalysisResult) -> Finding | None:
    clean = result.clean_pipelines()
    if not clean:
        return None
    return "Multi-loop pipeline", [clean[0].loop_x, clean[0].loop_y]


def _task_rung(result: AnalysisResult) -> Finding | None:
    task = result.best_task_parallelism()
    if task is None:
        return None
    if _workers_are_doall_loops(result, task):
        return "Task parallelism + Do-all", [task.region]
    return "Task parallelism", [task.region]


def _geometric_rung(result: AnalysisResult) -> Finding | None:
    if not result.geometric:
        return None
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


def _reduction_rung(result: AnalysisResult) -> Finding | None:
    """The costliest loop with reduction candidates."""
    if not result.reductions:
        return None
    return "Reduction", [max(result.reductions, key=result.profile.region_cost)]


def _doall_rung(result: AnalysisResult) -> Finding | None:
    """The costliest hotspot do-all loop, the loop the Do-all plan runs."""
    hot = result.hotspot_regions
    loops = [r for r, lc in result.loop_classes.items() if lc.is_doall and r in hot]
    if not loops:
        return None
    return "Do-all", [max(loops, key=result.profile.region_cost)]


#: Table III's precedence ladder, highest rung first.  Each rung returns
#: its finding, or ``None`` when its pattern does not apply.
RUNGS = (
    _fusion_rung,
    _pipeline_rung,
    _task_rung,
    _geometric_rung,
    _reduction_rung,
    _doall_rung,
)


def applicable_patterns(result: AnalysisResult) -> Iterator[Finding]:
    """The finding of every rung that applies, highest rung first."""
    for rung in RUNGS:
        found = rung(result)
        if found is not None:
            yield found


def primary_pattern(result: AnalysisResult) -> Finding:
    """The Table III "Detected Pattern" label and the region(s) in which
    that pattern was detected: the first rung that applies, else "None"
    at the top hotspot."""
    top = [result.hotspots[0].region] if result.hotspots else []
    return next(applicable_patterns(result), ("None", top))


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
