"""Wavefront / skewed-pipeline detection over doubly-nested dependence shapes.

The profiler's ``(i_x, i_y)`` iteration pairs carry more information than the
multi-loop pipeline detector consumes.  Two shapes in particular are left on
the table:

* **Backward pairs** — the writer loop lies lexically *after* the reader
  loop, so the dependence is really carried by a common enclosing loop
  (fdtd-2d's ``hz(t-1) -> ey(t)``).  The pipeline detector skips these by
  design; here they become wavefront candidates: when the carried
  dependence is an affine function of the inner iteration (``i_y ≈ a·i_x +
  b`` with a tight fit), successive activations of the enclosing loop can
  overlap along the diagonal — the classic wavefront schedule over the
  ``(carrier, inner)`` iteration space.

* **Skewed forward pairs** — a forward dependence whose fitted line has a
  *negative* intercept (reg_detect's ``a = 1, b = -1``, the paper's Table
  IV).  Iteration ``i`` of loop y needs only iterations up to ``i + b`` of
  loop x, so the two loops overlap in a skewed (software-pipelined)
  schedule rather than a plain two-stage pipeline.

Both shapes gate on the regression's goodness of fit: a wavefront schedule
is only sound when the dependence distance is actually affine, so the
deciding threshold is :data:`MIN_WAVEFRONT_R2`.  Accepted candidates land in
``AnalysisResult.wavefronts`` — deliberately *not* in the Table III primary
label, which the paper defines over its six patterns — and serialize as a
tolerated schema extension (the key appears only when non-empty).
"""

from __future__ import annotations

from repro.lang.analysis import enclosing_loops
from repro.lang.ast_nodes import Program
from repro.patterns.framework import (
    AnalysisContext,
    AnalysisResult,
    Detector,
    Evidence,
    StageTrace,
)
from repro.patterns.regression import fit_iteration_pairs
from repro.patterns.result import WavefrontCandidate

#: A wavefront schedule assumes the carried dependence distance is affine in
#: the iteration number; below this goodness-of-fit the ``(i_x, i_y)`` cloud
#: is not a line and skewing would violate real dependences.
MIN_WAVEFRONT_R2 = 0.8


def common_carrier(program: Program, loop_x: int, loop_y: int) -> int | None:
    """The innermost loop enclosing both *loop_x* and *loop_y*, if any.

    A backward dependence between sibling loops is carried by exactly this
    loop — its iterations are what a wavefront schedule would overlap.
    """
    ancestors_y = set(enclosing_loops(program, loop_y))
    for region in enclosing_loops(program, loop_x):
        if region in ancestors_y:
            return region
    return None


def detect_wavefronts(
    program: Program,
    profile,
    hotspots: set[int] | None = None,
    min_pairs: int = 3,
) -> tuple[list[WavefrontCandidate], list[Evidence]]:
    """Classify every dependent loop pair as wavefront / skewed pipeline.

    Returns the accepted candidates plus the full evidence stream
    (acceptances and rejections, each naming the deciding gate).
    """
    candidates: list[WavefrontCandidate] = []
    evidence: list[Evidence] = []
    for (loop_x, loop_y), pairs in sorted(profile.pairs.items()):
        if hotspots is not None and (loop_x not in hotspots or loop_y not in hotspots):
            continue
        if len(pairs) < min_pairs:
            continue
        reg_x = program.regions.get(loop_x)
        reg_y = program.regions.get(loop_y)
        if reg_x is None or reg_y is None:
            continue
        backward = reg_x.line > reg_y.line
        direction = "backward" if backward else "forward"
        regions = (loop_x, loop_y)

        def reject(reason: str, threshold=None, tval=None, obs=None, detail=""):
            evidence.append(
                Evidence(
                    detector="wavefronts",
                    kind="wavefront",
                    regions=regions,
                    status="rejected",
                    reason=reason,
                    threshold=threshold,
                    threshold_value=tval,
                    observed=obs,
                    detail=detail or f"direction={direction}",
                )
            )

        carrier = common_carrier(program, loop_x, loop_y)
        if backward and carrier is None:
            # a backward dependence with no enclosing loop to carry it has
            # no iteration space to skew over
            reject("no-common-carrier")
            continue
        fit = fit_iteration_pairs(pairs)
        if fit.a <= 0.0:
            # the dependence distance shrinks (or is constant): later inner
            # iterations need *earlier* producer work, which a diagonal
            # schedule cannot exploit
            reject(
                "non-positive-slope",
                threshold="MIN_WAVEFRONT_SLOPE",
                tval=0.0,
                obs=fit.a,
                detail=f"a={fit.a:.3f}, direction={direction}",
            )
            continue
        if not backward and fit.b >= 0.0:
            # a forward dependence without a negative skew offset is a plain
            # pipeline (ludcmp's a=1, b=0) — the pipeline detector's case
            reject(
                "no-skew-offset",
                threshold="MAX_SKEW_INTERCEPT",
                tval=0.0,
                obs=fit.b,
                detail=f"b={fit.b:.3f} >= 0: plain pipeline, not skewed",
            )
            continue
        if fit.r2 < MIN_WAVEFRONT_R2:
            reject(
                "fit-below-threshold",
                threshold="MIN_WAVEFRONT_R2",
                tval=MIN_WAVEFRONT_R2,
                obs=fit.r2,
                detail=f"a={fit.a:.3f}, b={fit.b:.3f}, direction={direction}",
            )
            continue
        candidates.append(
            WavefrontCandidate(
                loop_x=loop_x,
                loop_y=loop_y,
                carrier=carrier if backward else None,
                a=fit.a,
                b=fit.b,
                r2=fit.r2,
                n_pairs=fit.n,
                direction=direction,
            )
        )
        evidence.append(
            Evidence(
                detector="wavefronts",
                kind="wavefront",
                regions=regions,
                status="accepted",
                reason=(
                    "carried-affine-dependence"
                    if backward
                    else "skewed-forward-dependence"
                ),
                threshold="MIN_WAVEFRONT_R2",
                threshold_value=MIN_WAVEFRONT_R2,
                observed=fit.r2,
                detail=(
                    f"a={fit.a:.3f}, b={fit.b:.3f}, direction={direction}"
                    + (f", carrier={carrier}" if backward else "")
                ),
            )
        )
    candidates.sort(key=lambda c: (c.loop_x, c.loop_y))
    return candidates, evidence


class WavefrontDetector(Detector):
    """Stage 7: wavefront / skewed-pipeline shapes over the same iteration
    pairs the pipeline stage fits, gated on :data:`MIN_WAVEFRONT_R2`.

    Runs after ``pipelines`` so the evidence stream reads forward→skewed in
    dependence order; results stay out of the Table III primary label."""

    name = "wavefronts"
    requires = ("pipelines",)

    def run(
        self, ctx: AnalysisContext, result: AnalysisResult, trace: StageTrace
    ) -> list[Evidence]:
        candidates, evidence = detect_wavefronts(
            ctx.program,
            ctx.profile,
            hotspots=ctx.hotspot_regions,
            min_pairs=ctx.min_pairs,
        )
        result.wavefronts = candidates
        trace.counters["candidates"] = len(evidence)
        trace.counters["accepted"] = len(candidates)
        trace.counters["rejected"] = len(evidence) - len(candidates)
        return evidence
