"""Full analysis report: what the tool tells the programmer.

This mirrors the output of the paper's tool: hotspots, the patterns found
in each, the pipeline coefficients with their Table II reading, the
fork/worker/barrier classification, the annotated source — and, when the
result carries an :class:`~repro.patterns.framework.AnalysisTrace`, the
per-stage telemetry plus every candidate the thresholds rejected, with the
deciding threshold spelled out.
"""

from __future__ import annotations

from repro.patterns.engine import summarize_patterns
from repro.patterns.framework import AnalysisResult, Evidence
from repro.patterns.interpretation import interpret_pipeline
from repro.patterns.result import SUPPORTING_STRUCTURE
from repro.reporting.tables import format_table
from repro.transform.annotations import annotated_source


def _region_name(result: AnalysisResult, region: int) -> str:
    reg = result.program.regions.get(region)
    return reg.name if reg is not None else f"region {region}"


def _evidence_line(result: AnalysisResult, ev: Evidence) -> str:
    where = " -> ".join(_region_name(result, r) for r in ev.regions)
    text = f"  {ev.status} {ev.kind} [{where}]: {ev.reason}"
    if ev.threshold is not None and ev.observed is not None:
        observed, limit = ev.observed, ev.threshold_value
        op = "<" if observed < limit else ">" if observed > limit else "=="
        text += f" ({observed:.3g} {op} {ev.threshold}={limit:g})"
    if ev.detail:
        text += f" — {ev.detail}"
    return text


def trace_report(result: AnalysisResult) -> str:
    """Render the detection trace: per-stage telemetry and the candidates
    the thresholds rejected (the part a user cannot reconstruct from the
    main report), each with the observed value and its threshold."""
    trace = result.trace
    if trace is None:
        return ""
    parts: list[str] = []
    rows = []
    for st in trace.stages:
        counters = " ".join(f"{k}={st.counters[k]}" for k in sorted(st.counters))
        rows.append([st.stage, st.detector, st.wall_time_s * 1e3, counters or "-"])
    parts.append(
        format_table(
            ["stage", "detector", "ms", "counters"],
            rows,
            title="Detection trace",
        )
    )
    rejected = trace.rejected()
    if rejected:
        parts.append("Rejected candidates:")
        parts.extend(_evidence_line(result, ev) for ev in rejected)
    return "\n".join(parts)


def analysis_report(
    result: AnalysisResult,
    include_source: bool = True,
    include_trace: bool = True,
) -> str:
    """Render the full detection report as text."""
    parts: list[str] = []
    label = summarize_patterns(result)
    parts.append(f"Primary pattern: {label}")
    structure = SUPPORTING_STRUCTURE.get(label.split(" + ")[0])
    if structure:
        parts.append(f"Suggested supporting structure: {structure}")
    parts.append("")

    parts.append(
        format_table(
            ["region", "kind", "share %", "instructions"],
            [
                [_region_name(result, h.region), h.kind, 100 * h.share, h.inclusive_cost]
                for h in result.hotspots
            ],
            title="Hotspots",
        )
    )

    if result.pipelines:
        rows = []
        fused = {(f.loop_x, f.loop_y) for f in result.fusions}
        for p in result.pipelines:
            kind = "fusion" if (p.loop_x, p.loop_y) in fused else "pipeline"
            rows.append(
                [
                    _region_name(result, p.loop_x),
                    _region_name(result, p.loop_y),
                    p.a,
                    p.b,
                    p.efficiency,
                    kind,
                ]
            )
        parts.append(
            format_table(
                ["loop x", "loop y", "a", "b", "e", "verdict"],
                rows,
                title="Multi-loop pipelines (Eq. 1-2)",
            )
        )
        for p in result.pipelines:
            parts.append(
                f"  {_region_name(result, p.loop_x)} -> "
                f"{_region_name(result, p.loop_y)}: "
                f"{interpret_pipeline(p.a, p.b, p.efficiency)}"
            )
        parts.append("")

    wavefronts = getattr(result, "wavefronts", [])
    if wavefronts:
        rows = []
        for w in wavefronts:
            rows.append(
                [
                    _region_name(result, w.loop_x),
                    _region_name(result, w.loop_y),
                    _region_name(result, w.carrier) if w.carrier is not None else "-",
                    w.direction,
                    w.a,
                    w.b,
                    w.r2,
                ]
            )
        parts.append(
            format_table(
                ["loop x", "loop y", "carrier", "direction", "a", "b", "r2"],
                rows,
                title="Wavefront / skewed-pipeline shapes",
            )
        )
        for w in wavefronts:
            if w.is_carried:
                parts.append(
                    f"  {_region_name(result, w.carrier)} iterations can overlap "
                    f"diagonally: {_region_name(result, w.loop_y)} of step t "
                    f"needs {_region_name(result, w.loop_x)} of step t-1 only "
                    f"up to iteration {w.a:.2f}*i{w.b:+.2f}"
                )
            else:
                parts.append(
                    f"  skewed pipeline: iteration i of "
                    f"{_region_name(result, w.loop_y)} waits only for iteration "
                    f"{w.a:.2f}*i{w.b:+.2f} of {_region_name(result, w.loop_x)}"
                )
        parts.append("")

    task = result.best_task_parallelism()
    if task is not None:
        parts.append(
            f"Task parallelism in {_region_name(result, task.region)}: "
            f"estimated speedup {task.estimated_speedup:.2f} "
            f"(single-step {task.single_step_speedup:.2f})"
        )
        for cu in task.cus:
            mark = task.marks.get(cu.cu_id, "?")
            parts.append(f"  {cu.label:6s} {mark:8s} {cu.describe()}")
        for b1, b2 in task.parallel_barriers:
            parts.append(f"  barriers CU_{b1} and CU_{b2} can run in parallel")
        parts.append("")

    for gd in result.geometric:
        loop_names = ", ".join(
            f"{_region_name(result, r)}={lc.classification.value}"
            for r, lc in sorted(gd.analyzed_loops.items())
        )
        parts.append(
            f"Geometric decomposition candidate: {gd.function}() "
            f"[loops: {loop_names}]"
        )
    if result.geometric:
        parts.append("")

    for loop, candidates in sorted(result.reductions.items()):
        for c in candidates:
            op = c.operator or "?"
            parts.append(
                f"Reduction in {_region_name(result, loop)}: variable "
                f"{c.var!r} at line {c.line} (operator {op})"
            )
    if result.reductions:
        parts.append("")

    if include_trace and result.trace is not None:
        trace_text = trace_report(result)
        if trace_text:
            parts.append(trace_text)
            parts.append("")

    if include_source:
        parts.append("Annotated source:")
        parts.append(annotated_source(result))
    return "\n".join(parts)
