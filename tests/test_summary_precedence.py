"""Every rung of the Table III label precedence, on synthetic fixtures.

``summarize_patterns`` ranks: fusion ≻ clean multi-loop pipeline ≻ task
parallelism (+ do-all) ≻ geometric decomposition (+ reduction) ≻ reduction
≻ do-all ≻ none.  Each test takes a really-analyzed result and overrides
exactly the fields that should (or should not) win, so a precedence
regression cannot hide behind detector behavior changes.  Each label is
read through :func:`label_of`, which first holds the result's label,
regions and share to the two-walk reference ladder.
"""

import dataclasses

import numpy as np

from repro.patterns.engine import analyze, summarize_patterns
from repro.patterns.framework import MIN_PIPELINE_EFFICIENCY
from repro.patterns.result import (
    FusionCandidate,
    GeometricDecomposition,
    LoopClass,
    LoopClassification,
    MultiLoopPipeline,
)

from conftest import parsed
from test_ladder_reference import assert_matches_reference

REDUCTION_SRC = """\
float total(float A[], int n) {
    float s = 0.0;
    for (int i = 0; i < n; i++) {
        s += A[i];
    }
    return s;
}
"""

INDEPENDENT_LOOPS_SRC = """\
void f(float A[], float B[], int n) {
    for (int i = 0; i < n; i++) { A[i] = i * 1.0 + sqrt(i + 2.0); }
    for (int j = 0; j < n; j++) { B[j] = j * 2.0 + sqrt(j + 3.0); }
}
"""


def label_of(result):
    assert_matches_reference(result)
    return summarize_patterns(result)


def analyzed(src, entry, args):
    return analyze(parsed(src), entry, [args])


def base_result():
    """A real 'Reduction' result to graft synthetic findings onto."""
    return analyzed(REDUCTION_SRC, "total", [np.ones(32), 32])


def hot_loop(result):
    """The hotspot loop region of the base program."""
    loops = [r for r in result.loop_classes if r in result.hotspot_regions]
    assert loops
    return loops[0]


def synthetic_pipeline(loop_x, loop_y, efficiency=1.0):
    return MultiLoopPipeline(
        loop_x=loop_x, loop_y=loop_y, a=1.0, b=0.0,
        efficiency=efficiency, n_pairs=8, trips_x=32, trips_y=32,
    )


class TestPrecedenceLadder:
    def test_fusion_tops_everything(self):
        result = base_result()
        loop = hot_loop(result)
        pipe = synthetic_pipeline(loop, loop + 1)
        result = dataclasses.replace(
            result,
            pipelines=[pipe],
            fusions=[FusionCandidate(loop_x=loop, loop_y=loop + 1, pipeline=pipe)],
        )
        # reductions AND a clean pipeline are present — fusion still wins
        assert result.reductions and result.clean_pipelines()
        assert label_of(result) == "Fusion"

    def test_clean_pipeline_beats_reduction(self):
        result = base_result()
        loop = hot_loop(result)
        result = dataclasses.replace(
            result, pipelines=[synthetic_pipeline(loop, loop + 1)]
        )
        assert result.reductions
        assert label_of(result) == "Multi-loop pipeline"

    def test_unclean_pipeline_falls_through(self):
        result = base_result()
        loop = hot_loop(result)
        low = synthetic_pipeline(loop, loop + 1,
                                 efficiency=MIN_PIPELINE_EFFICIENCY / 2)
        result = dataclasses.replace(result, pipelines=[low])
        assert not result.clean_pipelines()
        assert label_of(result) == "Reduction"

    def test_task_parallelism_plus_doall(self):
        result = analyzed(
            INDEPENDENT_LOOPS_SRC, "f", [np.zeros(32), np.zeros(32), 32]
        )
        assert label_of(result) == "Task parallelism + Do-all"

    def test_task_parallelism_without_doall_workers(self):
        result = analyzed(
            INDEPENDENT_LOOPS_SRC, "f", [np.zeros(32), np.zeros(32), 32]
        )
        # demote every worker loop to sequential: the fork still pays off,
        # but the "+ Do-all" suffix must disappear
        demoted = {
            region: LoopClass(region=region,
                              classification=LoopClassification.SEQUENTIAL)
            for region in result.loop_classes
        }
        result = dataclasses.replace(result, loop_classes=demoted)
        assert label_of(result) == "Task parallelism"

    def test_geometric_plus_reduction(self):
        result = base_result()
        loop = hot_loop(result)
        fn_region = result.program.regions[loop].function
        gd = GeometricDecomposition(
            region=result.hotspots[0].region,
            function=fn_region,
            analyzed_loops={loop: result.loop_classes[loop]},
        )
        result = dataclasses.replace(result, geometric=[gd])
        # the base program's hot loop is a reduction in the GD function
        assert result.loop_classes[loop].is_reduction
        assert label_of(result) == "Geometric decomposition + Reduction"

    def test_geometric_plain_when_loops_doall(self):
        result = base_result()
        loop = hot_loop(result)
        doall = LoopClass(region=loop, classification=LoopClassification.DOALL)
        gd = GeometricDecomposition(
            region=result.hotspots[0].region,
            function=result.program.regions[loop].function,
            analyzed_loops={loop: doall},
        )
        result = dataclasses.replace(
            result, geometric=[gd], loop_classes={loop: doall}
        )
        assert label_of(result) == "Geometric decomposition"

    def test_reduction_rung(self):
        assert label_of(base_result()) == "Reduction"

    def test_doall_rung(self):
        result = base_result()
        loop = hot_loop(result)
        result = dataclasses.replace(
            result,
            reductions={},
            loop_classes={
                loop: LoopClass(region=loop,
                                classification=LoopClassification.DOALL)
            },
        )
        assert label_of(result) == "Do-all"

    def test_none_rung(self):
        result = base_result()
        loop = hot_loop(result)
        result = dataclasses.replace(
            result,
            reductions={},
            loop_classes={
                loop: LoopClass(region=loop,
                                classification=LoopClassification.SEQUENTIAL)
            },
        )
        assert label_of(result) == "None"


class TestRejectionsVisible:
    def test_efficiency_rejection_shows_up_in_evidence(self):
        result = analyzed(
            """\
void f(float A[], float B[], int n) {
    for (int i = 0; i < n; i++) { A[i] = i * 1.0; }
    for (int j = 0; j < n; j++) { B[j] = B[j] + A[n - 1 - j]; }
}
""",
            "f",
            [np.zeros(32), np.zeros(32), 32],
        )
        # the label falls through AND the trace says exactly why
        assert label_of(result) != "Multi-loop pipeline"
        assert any(
            ev.reason == "efficiency-below-threshold"
            and ev.threshold == "MIN_PIPELINE_EFFICIENCY"
            for ev in result.trace.rejected()
        )
