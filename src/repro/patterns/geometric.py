"""Geometric decomposition detection (Section III-C, Algorithm 2).

A hotspot *function* is a geometric-decomposition candidate when every loop
among its immediate PET children — and every loop of functions it calls
directly (recursively expanded) — is a do-all or a reduction loop.  The
function can then be invoked once per data chunk on separate threads, which
coarsens granularity compared to parallelizing each loop individually.

Note: the paper's Algorithm 2 pseudocode tests ``!doall OR !reduction``,
which is vacuously true; we implement the evident intent (each loop must be
do-all **or** reduction, DESIGN.md §5.2).
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
)
from repro.patterns.result import GeometricDecomposition, LoopClass
from repro.profiling.model import PETNode, Profile


def _pet_nodes_for_region(profile: Profile, region: int) -> list[PETNode]:
    if profile.pet is None:
        return []
    return [n for n in profile.pet.walk() if n.region == region]


def detect_geometric_decomposition(
    program: Program,
    profile: Profile,
    func_region: int,
    min_invocations: int = 2,
    classify: Callable[[int], LoopClass] | None = None,
) -> GeometricDecomposition | None:
    """Run Algorithm 2 on a function region; None when not a candidate.

    Geometric decomposition calls the same function once per data chunk on
    separate threads, so the candidate must actually be *called* on
    separable data: we require at least *min_invocations* dynamic
    invocations and exclude the program's entry function (the PET root) —
    a whole program cannot be chunked from outside itself.  This mirrors
    the paper's reported candidates (``localSearch``, ``cluster``), which
    are invoked repeatedly from a driver loop, while single-call kernels
    like ``bicg`` fall through to plain reduction/do-all reporting.
    """
    if classify is None:
        classify = lambda loop: classify_loop(program, profile, loop)  # noqa: E731
    reg = program.regions.get(func_region)
    if reg is None or reg.kind != "function":
        return None
    nodes = _pet_nodes_for_region(profile, func_region)
    if not nodes:
        return None
    if profile.pet is not None and profile.pet.region == func_region:
        return None
    if sum(n.invocations for n in nodes) < min_invocations:
        return None

    analyzed: dict[int, LoopClass] = {}
    called: list[str] = []
    visited_functions: set[int] = set()

    def examine(region: int) -> bool:
        """True when every loop reachable per Algorithm 2 is do-all/reduction."""
        if region in visited_functions:
            return True
        visited_functions.add(region)
        ok = True
        for node in _pet_nodes_for_region(profile, region):
            for child in node.children:
                if child.kind == "loop":
                    if child.region not in analyzed:
                        analyzed[child.region] = classify(child.region)
                    if not analyzed[child.region].parallelizable:
                        ok = False
                elif child.kind == "function":
                    child_reg = program.regions.get(child.region)
                    if child_reg is not None and child_reg.name not in called:
                        called.append(child_reg.name)
                    if not examine(child.region):
                        ok = False
        return ok

    if not examine(func_region):
        return None
    if len(analyzed) < 2:
        # A function wrapping a single small loop (nqueens' safe_place) is
        # not a geometric-decomposition candidate: the pattern's value is
        # coarsening *multiple* loops behind one chunked call (Section
        # III-C), as in localSearch and cluster.
        return None
    return GeometricDecomposition(
        region=func_region,
        function=reg.name,
        analyzed_loops=analyzed,
        called_functions=called,
    )


class GeometricDecompositionDetector(Detector):
    """Hotspot-scoped Algorithm 2 over hotspot *functions*."""

    name = "geometric"
    requires = ("loop-classes",)

    def run(
        self, ctx: AnalysisContext, result: AnalysisResult, trace: StageTrace
    ) -> list[Evidence]:
        evidence: list[Evidence] = []
        for hotspot in result.hotspots:
            if hotspot.kind != "function":
                continue
            trace.count("hotspot-functions")
            gd = detect_geometric_decomposition(
                ctx.program, ctx.profile, hotspot.region, classify=ctx.loop_class
            )
            if gd is not None:
                result.geometric.append(gd)
                trace.count("candidates")
                evidence.append(
                    Evidence(
                        detector=self.name,
                        kind="geometric",
                        regions=(gd.region,),
                        status="accepted",
                        reason="all-loops-doall-or-reduction",
                        detail=f"{gd.function}() loops={sorted(gd.analyzed_loops)}",
                    )
                )
            else:
                evidence.append(
                    Evidence(
                        detector=self.name,
                        kind="geometric",
                        regions=(hotspot.region,),
                        status="rejected",
                        reason="not-a-candidate",
                        detail=f"{hotspot.name}",
                    )
                )
        return evidence
