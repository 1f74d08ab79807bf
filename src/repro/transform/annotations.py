"""Pattern-driven source annotations.

``annotate`` turns an :class:`~repro.patterns.engine.AnalysisResult` into a
``stmt_id -> [pragma lines]`` map; ``annotated_source`` renders the program
with those pragmas, giving the programmer the classified view the paper
describes (Section III: "classifies CUs in a region according to the design
of the related supporting structures").
"""

from __future__ import annotations

from repro.lang.printer import format_program
from repro.patterns.framework import AnalysisResult
from repro.patterns.result import SUPPORTING_STRUCTURE


def _add(notes: dict[int, list[str]], stmt_id: int, text: str) -> None:
    notes.setdefault(stmt_id, []).append(text)


def annotate(result: AnalysisResult) -> dict[int, list[str]]:
    """Build the annotation map for every detected pattern."""
    notes: dict[int, list[str]] = {}
    program = result.program
    regions = program.regions
    hotspot_ids = result.hotspot_regions

    def loop_stmt(region: int):
        reg = regions.get(region)
        return None if reg is None or reg.kind != "loop" else reg.node

    # do-all / reduction loops in hotspots
    for region, lc in sorted(result.loop_classes.items()):
        if region not in hotspot_ids:
            continue
        stmt = loop_stmt(region)
        if stmt is None:
            continue
        if lc.is_doall:
            _add(notes, stmt.stmt_id, "#pragma repro parallel for  (do-all)")
        elif lc.is_reduction:
            clauses = ", ".join(
                f"{c.operator or '?'}:{c.var}" for c in lc.reductions
            )
            _add(
                notes,
                stmt.stmt_id,
                f"#pragma repro parallel for reduction({clauses})",
            )

    # multi-loop pipelines and fusion
    fused = {(f.loop_x, f.loop_y) for f in result.fusions}
    for p in result.pipelines:
        x_stmt = loop_stmt(p.loop_x)
        y_stmt = loop_stmt(p.loop_y)
        if x_stmt is None or y_stmt is None:
            continue
        if (p.loop_x, p.loop_y) in fused:
            _add(notes, x_stmt.stmt_id, "#pragma repro fuse-with next-stage  (do-all after fusion)")
            _add(notes, y_stmt.stmt_id, "#pragma repro fuse-with previous-stage")
            continue
        tag = f"a={p.a:.3g}, b={p.b:.3g}, e={p.efficiency:.3g}"
        _add(
            notes,
            x_stmt.stmt_id,
            f"#pragma repro pipeline stage 1 of 2 ({tag}) "
            f"[{SUPPORTING_STRUCTURE['Multi-loop pipeline']}]",
        )
        _add(notes, y_stmt.stmt_id, f"#pragma repro pipeline stage 2 of 2 ({tag})")

    # task parallelism: mark CU anchors
    task = result.best_task_parallelism()
    if task is not None:
        for cu in task.cus:
            mark = task.marks.get(cu.cu_id)
            if mark is None or not cu.stmts:
                continue
            anchor = cu.stmts[-1]
            _add(
                notes,
                anchor.stmt_id,
                f"#pragma repro task {mark}  ({cu.label}, "
                f"{SUPPORTING_STRUCTURE['Task parallelism']})",
            )

    # geometric decomposition: mark the candidate function's first statement
    for gd in result.geometric:
        func = program.function(gd.function)
        if func.body:
            _add(
                notes,
                func.body[0].stmt_id,
                f"#pragma repro geometric-decomposition of {gd.function}() "
                f"— call once per data chunk "
                f"[{SUPPORTING_STRUCTURE['Geometric decomposition']}]",
            )
    return notes


def annotated_source(result: AnalysisResult) -> str:
    """The program's source with pattern annotations inlined."""
    return format_program(result.program, annotations=annotate(result))
