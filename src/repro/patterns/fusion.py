"""Loop fusion detection (Section III-A, "Loop Fusion").

A detected multi-loop pipeline is a fusion candidate when

* both loops are do-all loops, and
* the regression coefficients are exactly ``a = 1`` and ``b = 0`` (hence
  ``e = 1``):

the fused loop then carries no dependences and parallelizes with do-all,
which coarsens granularity and removes one barrier.  Unlike a compiler's
static fusion, the loops may be lexically far apart — the evidence is
dynamic.
"""

from __future__ import annotations

from repro.patterns.framework import (
    AnalysisContext,
    AnalysisResult,
    Detector,
    Evidence,
    StageTrace,
)
from repro.patterns.result import FusionCandidate, MultiLoopPipeline

_TOL = 1e-9


def detect_fusion(pipelines: list[MultiLoopPipeline]) -> list[FusionCandidate]:
    """Filter pipeline reports down to fusion candidates.

    Beyond the paper's two conditions, loop *y* must depend on *no other
    loop*: in 3mm, G = E*F has a perfect one-to-one relation with the E
    nest but also needs *all* of the F nest — fusing G into E would execute
    G's iterations before F finished.  The single-source requirement keeps
    fusion semantics-preserving.
    """
    sources: dict[int, set[int]] = {}
    for p in pipelines:
        sources.setdefault(p.loop_y, set()).add(p.loop_x)
    out: list[FusionCandidate] = []
    for p in pipelines:
        if p.stage_x is None or p.stage_y is None:
            continue
        if not (p.stage_x.is_doall and p.stage_y.is_doall):
            continue
        if abs(p.a - 1.0) > _TOL or abs(p.b) > _TOL:
            continue
        if sources.get(p.loop_y, set()) != {p.loop_x}:
            continue
        out.append(FusionCandidate(loop_x=p.loop_x, loop_y=p.loop_y, pipeline=p))
    return out


def fusion_chains(fusions: list[FusionCandidate]) -> list[list[int]]:
    """The fused loops, pairs that share a loop merged into one chain:
    fusing (1, 2) and (2, 3) fuses loops 1, 2 and 3 into one loop.

    A pair that joins an earlier chain moves the merged chain to the end of
    the list, so find a given pair's chain by membership, not position.
    """
    chains: list[list[int]] = []
    for fusion in fusions:
        chain = [fusion.loop_x, fusion.loop_y]
        for other in [c for c in chains if set(c) & set(chain)]:
            chains.remove(other)
            chain = other + [r for r in chain if r not in other]
        chains.append(chain)
    return chains


class FusionDetector(Detector):
    """Stage 3: the ``a=1, b=0`` do-all special case on top of the
    pipeline stage's reports."""

    name = "fusion"
    requires = ("pipelines",)

    def run(
        self, ctx: AnalysisContext, result: AnalysisResult, trace: StageTrace
    ) -> list[Evidence]:
        result.fusions = detect_fusion(result.pipelines)
        trace.counters["candidates"] = len(result.pipelines)
        trace.counters["fusable"] = len(result.fusions)
        return [
            Evidence(
                detector=self.name,
                kind="fusion",
                regions=(f.loop_x, f.loop_y),
                status="accepted",
                reason="perfect-doall-pipeline",
                threshold="A_EQ_1_B_EQ_0",
                threshold_value=_TOL,
                observed=abs(f.pipeline.a - 1.0) + abs(f.pipeline.b),
            )
            for f in result.fusions
        ]
