"""The Table III precedence ladder as two walks: the oracle for
:func:`repro.patterns.engine.primary_pattern`.

``summarize_patterns`` walks the ladder for the label, and
``primary_pattern_regions`` walks it again to find the winning rung's
candidate; ``primary_pattern_share`` reads those regions.  The library walks
the ladder once and returns the label and the regions together, so each
result must get the same label, regions and share from both.
"""

from __future__ import annotations

from repro.patterns.engine import _workers_are_doall_loops
from repro.patterns.framework import AnalysisResult
from repro.patterns.fusion import fusion_chains


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
        first = result.fusions[0].loop_x
        for chain in fusion_chains(result.fusions):
            if first in chain:
                return chain
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
    if label == "Do-all":
        # the costliest hotspot do-all loop, the one the Do-all plan runs
        hot = result.hotspot_regions
        loops = [r for r, lc in result.loop_classes.items() if lc.is_doall and r in hot]
        return [max(loops, key=lambda r: result.profile.region_cost(r))]
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
