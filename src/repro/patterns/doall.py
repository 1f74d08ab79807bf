"""Loop classification: do-all / reduction / sequential.

A loop is **do-all** when it has no loop-carried dependences after

* excluding its induction variables (and those of nested loops), and
* excluding WAR/WAW dependences on privatizable variables — variables the
  profiler proved are always written before read within an iteration *and*
  that do not escape the enclosing function (locals and by-value
  parameters).  Escaping memory (globals, array parameters, by-reference
  parameters) is observable after the loop, so colliding writes from
  different iterations are real conflicts even when never read inside —
  the final value depends on iteration order.

A loop is a **reduction** loop when its only remaining carried RAW
dependences are reduction candidates per Algorithm 3 (and the matching
WAR/WAW on the reduction variables are excused).

Everything else is **sequential**.
"""

from __future__ import annotations

from repro.lang.analysis import loop_induction_vars, non_escaping_names
from repro.lang.ast_nodes import Program
from repro.patterns.framework import (
    AnalysisContext,
    AnalysisResult,
    Detector,
    Evidence,
    StageTrace,
)
from repro.patterns.reduction import detect_reductions
from repro.patterns.result import LoopClass, LoopClassification
from repro.profiling.model import RAW, Profile


def classify_loop(
    program: Program,
    profile: Profile,
    loop: int,
    use_privatization: bool = True,
) -> LoopClass:
    """Classify one loop region from the profile's carried dependences.

    *use_privatization* exists for ablation: without it, WAR/WAW on
    written-before-read scalars (every loop-local temporary) block do-all
    classification, as a naive dependence test would conclude.

    This is the only caller of Algorithm 3 (:func:`detect_reductions`).  A
    do-all loop skips it: Algorithm 3's candidates need a carried RAW
    outside the induction set, which a do-all loop has none of.
    """
    induction = loop_induction_vars(program, loop)
    if use_privatization:
        local = non_escaping_names(program, loop)
        privatizable = {
            var
            for (lp, var) in profile.loop_accessed
            if lp == loop and (lp, var) not in profile.read_first and var in local
        }
    else:
        privatizable = set()

    blocking: set[str] = set()
    carried_raw: set[str] = set()
    for dep in profile.deps:
        if dep.carrier != loop:
            continue
        if dep.var in induction:
            continue
        if dep.kind == RAW:
            carried_raw.add(dep.var)
            blocking.add(dep.var)
        else:  # WAR / WAW
            if dep.var in privatizable:
                continue
            blocking.add(dep.var)

    if not blocking:
        return LoopClass(
            region=loop,
            classification=LoopClassification.DOALL,
            privatizable=privatizable,
        )

    reductions = detect_reductions(program, profile, loop)
    reduction_vars = {r.var for r in reductions}
    non_reduction_blockers = blocking - reduction_vars
    if carried_raw and carried_raw <= reduction_vars and not non_reduction_blockers:
        return LoopClass(
            region=loop,
            classification=LoopClassification.REDUCTION,
            blocking_vars=blocking,
            privatizable=privatizable,
            reductions=reductions,
        )
    return LoopClass(
        region=loop,
        classification=LoopClassification.SEQUENTIAL,
        blocking_vars=blocking,
        privatizable=privatizable,
        reductions=reductions,
    )


class LoopClassesDetector(Detector):
    """Stage 1: classify every executed loop (cheap, quoted everywhere)."""

    name = "loop-classes"

    def run(
        self, ctx: AnalysisContext, result: AnalysisResult, trace: StageTrace
    ) -> list[Evidence]:
        evidence: list[Evidence] = []
        hot = ctx.hotspot_regions
        for loop_region in ctx.profile.loop_trips:
            lc = ctx.loop_class(loop_region)
            result.loop_classes[loop_region] = lc
            trace.count("loops")
            trace.count(lc.classification.value)
            if loop_region in hot:
                evidence.append(
                    Evidence(
                        detector=self.name,
                        kind="loop",
                        regions=(loop_region,),
                        status="accepted" if lc.parallelizable else "rejected",
                        reason=f"classified-{lc.classification.value}",
                        detail=(
                            f"blocking={sorted(lc.blocking_vars)}"
                            if lc.blocking_vars
                            else ""
                        ),
                    )
                )
        return evidence
