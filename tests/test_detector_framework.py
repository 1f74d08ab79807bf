"""Detector framework tests: registry order and checks, plug-in detectors,
context memoization, stage telemetry, and threshold evidence."""

import numpy as np
import pytest

from repro.patterns.engine import analyze, analyze_profile, summarize_patterns
from repro.patterns.framework import (
    MIN_PIPELINE_EFFICIENCY,
    MIN_TASK_GRAIN,
    MIN_TASK_SPEEDUP,
    AnalysisContext,
    Detector,
    DetectorRegistry,
    Evidence,
    default_registry,
    run_detectors,
)
from repro.profiling.hotspots import hotspot_regions
from repro.profiling.runner import profile_runs

from conftest import parsed

# the six legacy stages in engine order, plus the wavefront stage that
# rides after them (requires=("pipelines",), registered last)
LEGACY_ORDER = [
    "loop-classes", "pipelines", "fusion", "tasks", "geometric",
    "reductions", "wavefronts",
]

REDUCTION_SRC = """\
float total(float A[], int n) {
    float s = 0.0;
    for (int i = 0; i < n; i++) {
        s += A[i];
    }
    return s;
}
"""

BICG_SHAPE_SRC = """\
void f(float A[][], float s[], float q[], float p[], float r[], int nx, int ny) {
    for (int i = 0; i < nx; i++) {
        float acc = 0.0;
        for (int j = 0; j < ny; j++) {
            s[j] = s[j] + r[i] * A[i][j];
            acc += A[i][j] * p[j];
        }
        q[i] = acc;
    }
}
"""

LOW_EFFICIENCY_SRC = """\
void f(float A[], float B[], int n) {
    for (int i = 0; i < n; i++) { A[i] = i * 1.0; }
    for (int j = 0; j < n; j++) { B[j] = B[j] + A[n - 1 - j]; }
}
"""


def analyzed(src, entry, args, **kw):
    program = parsed(src)
    return analyze(program, entry, [args], **kw)


class _Noop(Detector):
    def __init__(self, name, requires=()):
        self.name = name
        self.requires = tuple(requires)

    def run(self, ctx, result, trace):
        return []


class TestRegistry:
    def test_default_order_matches_legacy_engine(self):
        assert [d.name for d in default_registry()] == LEGACY_ORDER

    def test_registration_order_breaks_ties(self):
        reg = DetectorRegistry()
        reg.register(_Noop("b"))
        reg.register(_Noop("a"))
        assert [d.name for d in reg] == ["b", "a"]

    def test_duplicate_name_rejected(self):
        reg = DetectorRegistry()
        reg.register(_Noop("x"))
        with pytest.raises(ValueError, match="already registered"):
            reg.register(_Noop("x"))
        assert [d.name for d in reg] == ["x"]

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty name"):
            DetectorRegistry().register(_Noop(""))

    def test_unknown_requirement_raises(self):
        reg = DetectorRegistry()
        with pytest.raises(ValueError, match="unregistered"):
            reg.register(_Noop("orphan", requires=("missing",)))
        assert list(reg) == []

    def test_requirement_registered_later_raises(self):
        reg = DetectorRegistry()
        with pytest.raises(ValueError, match=r"'late' requires unregistered .*'early'"):
            reg.register(_Noop("late", requires=("early",)))
        reg.register(_Noop("early"))
        reg.register(_Noop("late", requires=("early",)))
        assert [d.name for d in reg] == ["early", "late"]

    def test_dependency_cycle_raises(self):
        # a cycle cannot be registered: its first stage's requirement is
        # never registered before it
        reg = DetectorRegistry()
        with pytest.raises(ValueError, match="unregistered"):
            reg.register(_Noop("a", requires=("a",)))
        reg.register(_Noop("b"))
        with pytest.raises(ValueError, match="unregistered"):
            reg.register(_Noop("a", requires=("b", "a")))
        assert [d.name for d in reg] == ["b"]


def _context(src, entry, args):
    program = parsed(src)
    profile = profile_runs(program, entry, [args])
    hotspots = hotspot_regions(profile, program)
    return AnalysisContext(program=program, profile=profile, hotspots=hotspots)


class TestPluggability:
    def test_custom_detector_runs_after_dependency(self):
        seen = {}

        class Spy(Detector):
            name = "spy"
            requires = ("loop-classes",)

            def run(self, ctx, result, trace):
                seen["loop_classes"] = dict(result.loop_classes)
                trace.count("ran")
                return [
                    Evidence(
                        detector=self.name,
                        kind="loop",
                        regions=(),
                        status="accepted",
                        reason="spy-ran",
                    )
                ]

        registry = default_registry()
        registry.register(Spy())
        result = run_detectors(
            _context(REDUCTION_SRC, "total", [np.ones(16), 16]), registry
        )
        # the spy ran last, observed loop-classes output and left its own trail
        assert [st.detector for st in result.trace.stages] == LEGACY_ORDER + ["spy"]
        assert result.trace.stage("spy").stage == "spy"
        assert seen["loop_classes"] == result.loop_classes
        assert result.trace.stage("spy").counters == {"ran": 1}
        assert [ev.reason for ev in result.trace.for_detector("spy")] == ["spy-ran"]
        # the label is unaffected by the extra stage
        assert summarize_patterns(result) == "Reduction"

    def test_dropping_a_stage_skips_its_output(self):
        registry = DetectorRegistry()
        for detector in default_registry():
            if detector.name != "reductions":
                registry.register(detector)
        result = run_detectors(
            _context(REDUCTION_SRC, "total", [np.ones(16), 16]), registry
        )
        assert result.reductions == {}
        assert result.trace.stage("reductions") is None


class TestTrace:
    def test_stage_order_and_timing(self):
        result = analyzed(REDUCTION_SRC, "total", [np.ones(16), 16])
        assert [st.detector for st in result.trace.stages] == LEGACY_ORDER
        assert all(st.wall_time_s >= 0.0 for st in result.trace.stages)

    def test_loop_counters_recorded(self):
        result = analyzed(REDUCTION_SRC, "total", [np.ones(16), 16])
        st = result.trace.stage("loop-classes")
        assert st.counters.get("loops", 0) >= 1


class TestContextMemoization:
    def test_loop_class_and_graph_identity(self):
        ctx = _context(REDUCTION_SRC, "total", [np.ones(16), 16])
        region = next(iter(ctx.profile.loop_trips))
        assert ctx.loop_class(region) is ctx.loop_class(region)
        hot = ctx.hotspots[0].region
        assert ctx.cus(hot) is ctx.cus(hot)
        assert ctx.cu_graph(hot) is ctx.cu_graph(hot)
        assert ctx.hotspot_regions is ctx.hotspot_regions

    def test_context_results_match_legacy_analysis(self):
        program = parsed(REDUCTION_SRC)
        profile = profile_runs(program, "total", [[np.ones(16), 16]])
        via_ctx = analyze_profile(program, profile)
        direct = analyze(program, "total", [[np.ones(16), 16]])
        assert via_ctx.loop_classes.keys() == direct.loop_classes.keys()
        assert summarize_patterns(via_ctx) == summarize_patterns(direct)


class TestThresholdEvidence:
    def test_low_efficiency_pipeline_rejected_with_threshold(self):
        result = analyzed(LOW_EFFICIENCY_SRC, "f", [np.zeros(32), np.zeros(32), 32])
        rejected = [
            ev for ev in result.trace.for_detector("pipelines") if not ev.accepted
        ]
        assert rejected, "the inefficient pipeline must appear in evidence"
        ev = rejected[0]
        assert ev.reason == "efficiency-below-threshold"
        assert ev.threshold == "MIN_PIPELINE_EFFICIENCY"
        assert ev.threshold_value == MIN_PIPELINE_EFFICIENCY
        assert ev.observed is not None and ev.observed < MIN_PIPELINE_EFFICIENCY

    def test_fine_grain_tasks_rejected_with_threshold(self):
        result = analyzed(
            BICG_SHAPE_SRC,
            "f",
            [np.ones((20, 20)), np.zeros(20), np.zeros(20),
             np.ones(20), np.ones(20), 20, 20],
        )
        assert not summarize_patterns(result).startswith("Task parallelism")
        reasons = {
            ev.reason: ev
            for ev in result.trace.for_detector("tasks")
            if not ev.accepted
        }
        grain = reasons.get("grain-below-threshold")
        assert grain is not None, "grain rejection must appear in evidence"
        assert grain.threshold == "MIN_TASK_GRAIN"
        assert grain.threshold_value == MIN_TASK_GRAIN
        assert grain.observed is not None and grain.observed < MIN_TASK_GRAIN

    def test_low_speedup_tasks_rejected_with_threshold(self):
        result = analyzed(REDUCTION_SRC, "total", [np.ones(16), 16])
        rejected = [
            ev for ev in result.trace.for_detector("tasks") if not ev.accepted
        ]
        assert rejected
        assert all(ev.reason == "speedup-below-threshold" for ev in rejected)
        assert all(ev.threshold == "MIN_TASK_SPEEDUP" for ev in rejected)
        assert all(ev.observed < MIN_TASK_SPEEDUP for ev in rejected)
