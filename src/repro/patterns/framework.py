"""Detector pipeline: protocol, registry, context, evidence, trace.

The paper's workflow (PET hotspots → CU graphs → Section III detectors) is
expressed here as a pipeline of :class:`Detector` stages held in a
:class:`DetectorRegistry`.  Each stage reads shared inputs from an
:class:`AnalysisContext` (which memoizes artifacts several detectors need —
loop classifications, CU lists and CU graphs; a loop's classification also
holds its Algorithm 3 reduction candidates, which nothing else computes),
writes its findings into an :class:`AnalysisResult`, and reports *why*
candidates were accepted or rejected as structured :class:`Evidence`
carrying the deciding threshold.  Per-stage wall-clock and counters land in
an :class:`AnalysisTrace` attached to the result.

Stages run in registration order; :meth:`DetectorRegistry.register`
rejects a stage whose ``requires`` names a stage not registered before
it.  Any registry runs through :func:`run_detectors`:

    registry = default_registry()
    registry.register(MyDetector())
    result = run_detectors(ctx, registry)

The thresholds that decide candidate fate live here so evidence can name
them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

from repro.lang.analysis import is_recursive
from repro.lang.ast_nodes import Program
from repro.obs.metrics import get_registry
from repro.obs.tracing import Span, ensure_tracer
from repro.patterns.result import (
    FusionCandidate,
    GeometricDecomposition,
    LoopClass,
    MultiLoopPipeline,
    ReductionCandidate,
    TaskParallelism,
    WavefrontCandidate,
)
from repro.profiling.hotspots import Hotspot
from repro.profiling.model import Profile

#: A task-parallelism result is "interesting" when the region actually
#: splits into parallel work: at least this estimated speedup.
MIN_TASK_SPEEDUP = 1.3

#: A pipeline below this efficiency factor makes loop y wait for most of
#: loop x — not worth reporting as the program's primary pattern.
MIN_PIPELINE_EFFICIENCY = 0.5

#: Minimum instructions per region activation (per iteration for loops)
#: for task parallelism to be worth forking — statement-level concurrency
#: inside an innermost loop body (bicg's two accumulations) is below any
#: sensible task grain.  Recursive regions are exempt: their tasks are
#: whole subtrees.
MIN_TASK_GRAIN = 300.0

#: A task-parallel region needs at least this many *significant* concurrent
#: tasks (each ≥8 % of the region's CU weight) to be worth a fork.
MIN_SIGNIFICANT_TASKS = 2


# ---------------------------------------------------------------------------
# evidence and trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Evidence:
    """Why one candidate was accepted or rejected, with the deciding rule.

    ``threshold`` names the constant that decided a rejection (e.g.
    ``"MIN_PIPELINE_EFFICIENCY"``); ``threshold_value`` is its value at
    decision time and ``observed`` the candidate's measured value, so a
    report can print ``efficiency 0.03 < MIN_PIPELINE_EFFICIENCY 0.5``
    without re-running anything.
    """

    detector: str
    kind: str  # 'loop' | 'pipeline' | 'fusion' | 'task' | 'geometric' | 'reduction'
    regions: tuple[int, ...]
    status: str  # 'accepted' | 'rejected'
    reason: str  # machine-readable, e.g. 'efficiency-below-threshold'
    threshold: str | None = None
    threshold_value: float | None = None
    observed: float | None = None
    detail: str = ""

    @property
    def accepted(self) -> bool:
        return self.status == "accepted"


@dataclass
class StageTrace:
    """Telemetry for one detector stage: wall clock plus counters."""

    detector: str
    stage: str
    wall_time_s: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)

    def count(self, key: str, delta: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + delta


@dataclass
class AnalysisTrace:
    """Per-stage telemetry and the full evidence stream of one analysis."""

    stages: list[StageTrace] = field(default_factory=list)
    evidence: list[Evidence] = field(default_factory=list)
    #: hierarchical wall-clock spans (parse, profile, cache reads, one per
    #: detector stage) from :mod:`repro.obs.tracing`; serialized as the
    #: optional ``trace.spans`` extension block of the analysis document
    spans: list[Span] = field(default_factory=list)

    def stage(self, detector: str) -> StageTrace | None:
        for st in self.stages:
            if st.detector == detector:
                return st
        return None

    def for_detector(self, detector: str) -> list[Evidence]:
        return [ev for ev in self.evidence if ev.detector == detector]

    def accepted(self) -> list[Evidence]:
        return [ev for ev in self.evidence if ev.accepted]

    def rejected(self) -> list[Evidence]:
        return [ev for ev in self.evidence if not ev.accepted]


# ---------------------------------------------------------------------------
# context: shared inputs + memoized artifacts
# ---------------------------------------------------------------------------


@dataclass
class AnalysisContext:
    """Inputs every detector reads, plus memoized shared artifacts.

    Several detectors quote the same sub-analyses — loop classification is
    needed by the loop-classes stage, both pipeline stages, geometric
    decomposition and the reductions stage; CU lists/graphs by task
    parallelism.  The context computes each artifact once and hands out the
    cached object.
    """

    program: Program
    profile: Profile
    hotspots: list[Hotspot]
    hotspot_threshold: float = 0.10
    min_pairs: int = 3
    _loop_classes: dict[int, LoopClass] = field(default_factory=dict, repr=False)
    _cus: dict[int, list] = field(default_factory=dict, repr=False)
    _cu_graphs: dict[int, object] = field(default_factory=dict, repr=False)
    _hotspot_regions: set[int] | None = field(default=None, repr=False)

    @property
    def hotspot_regions(self) -> set[int]:
        if self._hotspot_regions is None:
            self._hotspot_regions = {h.region for h in self.hotspots}
        return self._hotspot_regions

    def loop_class(self, region: int) -> LoopClass:
        """Memoized :func:`repro.patterns.doall.classify_loop`."""
        lc = self._loop_classes.get(region)
        if lc is None:
            from repro.patterns.doall import classify_loop

            lc = classify_loop(self.program, self.profile, region)
            self._loop_classes[region] = lc
        return lc

    def cus(self, region: int) -> list:
        """Memoized :func:`repro.cu.detect.detect_cus`."""
        cached = self._cus.get(region)
        if cached is None:
            from repro.cu.detect import detect_cus

            cached = detect_cus(self.program, region)
            self._cus[region] = cached
        return cached

    def cu_graph(self, region: int):
        """Memoized :func:`repro.cu.graph.build_cu_graph` (control edges on)."""
        cached = self._cu_graphs.get(region)
        if cached is None:
            from repro.cu.graph import build_cu_graph

            cached = build_cu_graph(
                self.cus(region), self.profile, region, include_control=True
            )
            self._cu_graphs[region] = cached
        return cached


# ---------------------------------------------------------------------------
# result
# ---------------------------------------------------------------------------


@dataclass
class AnalysisResult:
    """Everything the detectors found for one program."""

    program: Program
    profile: Profile
    hotspots: list[Hotspot]
    loop_classes: dict[int, LoopClass] = field(default_factory=dict)
    pipelines: list[MultiLoopPipeline] = field(default_factory=list)
    fusions: list[FusionCandidate] = field(default_factory=list)
    tasks: dict[int, TaskParallelism] = field(default_factory=dict)
    geometric: list[GeometricDecomposition] = field(default_factory=list)
    reductions: dict[int, list[ReductionCandidate]] = field(default_factory=dict)
    #: wavefront / skewed-pipeline shapes (an extension beyond the paper's
    #: six patterns — never part of the Table III primary label)
    wavefronts: list[WavefrontCandidate] = field(default_factory=list)
    trace: AnalysisTrace | None = None
    _hotspot_regions_cache: set[int] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def hotspot_regions(self) -> set[int]:
        if self._hotspot_regions_cache is None:
            self._hotspot_regions_cache = {h.region for h in self.hotspots}
        return self._hotspot_regions_cache

    def clean_pipelines(self) -> list[MultiLoopPipeline]:
        """Pipelines implementable as a two-stage schedule: loop y depends
        on no loop other than x, and the efficiency factor clears
        :data:`MIN_PIPELINE_EFFICIENCY`."""
        return evaluate_clean_pipelines(self)[0]

    def best_task_parallelism(self) -> TaskParallelism | None:
        """The most promising task-parallel hotspot, if any.

        A region is interesting when at least two CUs can actually run
        concurrently (an antichain of the CU graph) and the work/span ratio
        clears :data:`MIN_TASK_SPEEDUP`.
        """
        return evaluate_task_candidates(self)[0]


# ---------------------------------------------------------------------------
# candidate evaluation (the thresholds, with evidence)
# ---------------------------------------------------------------------------


def evaluate_clean_pipelines(
    result: AnalysisResult,
) -> tuple[list[MultiLoopPipeline], list[Evidence]]:
    """Apply the clean-pipeline gates, recording the deciding rule per pair.

    A pipeline is *clean* when loop y has no source loop other than x and
    the efficiency factor clears :data:`MIN_PIPELINE_EFFICIENCY` — the
    exact predicate Table III's "Multi-loop pipeline" label quotes.
    """
    sources: dict[int, set[int]] = {}
    for p in result.pipelines:
        sources.setdefault(p.loop_y, set()).add(p.loop_x)
    clean: list[MultiLoopPipeline] = []
    evidence: list[Evidence] = []
    for p in result.pipelines:
        regions = (p.loop_x, p.loop_y)
        srcs = sources.get(p.loop_y, set())
        if srcs != {p.loop_x}:
            evidence.append(
                Evidence(
                    detector="pipelines",
                    kind="pipeline",
                    regions=regions,
                    status="rejected",
                    reason="multi-source-consumer",
                    threshold="SINGLE_SOURCE",
                    threshold_value=1.0,
                    observed=float(len(srcs)),
                    detail=f"loop {p.loop_y} consumes {sorted(srcs)}",
                )
            )
            continue
        if p.efficiency < MIN_PIPELINE_EFFICIENCY:
            evidence.append(
                Evidence(
                    detector="pipelines",
                    kind="pipeline",
                    regions=regions,
                    status="rejected",
                    reason="efficiency-below-threshold",
                    threshold="MIN_PIPELINE_EFFICIENCY",
                    threshold_value=MIN_PIPELINE_EFFICIENCY,
                    observed=p.efficiency,
                    detail=f"e={p.efficiency:.3f} (a={p.a:.3f}, b={p.b:.3f})",
                )
            )
            continue
        clean.append(p)
        evidence.append(
            Evidence(
                detector="pipelines",
                kind="pipeline",
                regions=regions,
                status="accepted",
                reason="clean-two-stage-schedule",
                threshold="MIN_PIPELINE_EFFICIENCY",
                threshold_value=MIN_PIPELINE_EFFICIENCY,
                observed=p.efficiency,
            )
        )
    return clean, evidence


def task_grain(
    result: AnalysisResult, tp: TaskParallelism
) -> tuple[bool, float | None, str]:
    """The grain gate of :data:`MIN_TASK_GRAIN` with its measured value.

    Returns ``(passes, grain, why)`` where *grain* is instructions per
    activation (``None`` for the recursive exemption and unknown regions)
    and *why* is ``'recursive'``, ``'grain'``, or ``'unknown-region'``.
    """
    reg = result.program.regions.get(tp.region)
    if reg is None:
        return False, None, "unknown-region"
    if reg.kind == "function":
        if result.program.has_function(reg.function) and is_recursive(
            result.program.function(reg.function), result.program
        ):
            return True, None, "recursive"  # tasks are whole recursive subtrees
        invocations = sum(
            n.invocations for n in result.profile.pet.walk() if n.region == tp.region
        ) if result.profile.pet else 1
        grain = result.profile.region_cost(tp.region) / max(1, invocations)
    else:
        trips = result.profile.trip_count(tp.region)
        grain = result.profile.region_cost(tp.region) / max(1, trips)
    return grain >= MIN_TASK_GRAIN, grain, "grain"


def evaluate_task_candidates(
    result: AnalysisResult,
) -> tuple[TaskParallelism | None, list[Evidence]]:
    """Apply the task-parallelism gates per hotspot, recording evidence.

    Gates run in the order speedup → significant-task count → grain, and
    the first failing gate decides the rejection; among survivors the
    highest estimated speedup wins (first-encountered on ties, preserving
    hotspot order).
    """
    best: TaskParallelism | None = None
    evidence: list[Evidence] = []
    for tp in result.tasks.values():
        regions = (tp.region,)
        if tp.estimated_speedup < MIN_TASK_SPEEDUP:
            evidence.append(
                Evidence(
                    detector="tasks",
                    kind="task",
                    regions=regions,
                    status="rejected",
                    reason="speedup-below-threshold",
                    threshold="MIN_TASK_SPEEDUP",
                    threshold_value=MIN_TASK_SPEEDUP,
                    observed=tp.estimated_speedup,
                )
            )
            continue
        significant = len(tp.significant_tasks())
        if significant < MIN_SIGNIFICANT_TASKS:
            evidence.append(
                Evidence(
                    detector="tasks",
                    kind="task",
                    regions=regions,
                    status="rejected",
                    reason="too-few-significant-tasks",
                    threshold="MIN_SIGNIFICANT_TASKS",
                    threshold_value=float(MIN_SIGNIFICANT_TASKS),
                    observed=float(significant),
                )
            )
            continue
        passes, grain, why = task_grain(result, tp)
        if not passes:
            evidence.append(
                Evidence(
                    detector="tasks",
                    kind="task",
                    regions=regions,
                    status="rejected",
                    reason=(
                        "grain-below-threshold" if why == "grain" else why
                    ),
                    threshold="MIN_TASK_GRAIN",
                    threshold_value=MIN_TASK_GRAIN,
                    observed=grain,
                )
            )
            continue
        evidence.append(
            Evidence(
                detector="tasks",
                kind="task",
                regions=regions,
                status="accepted",
                reason="recursive-exempt" if why == "recursive" else "candidate",
                threshold="MIN_TASK_SPEEDUP",
                threshold_value=MIN_TASK_SPEEDUP,
                observed=tp.estimated_speedup,
            )
        )
        if best is None or tp.estimated_speedup > best.estimated_speedup:
            best = tp
    return best, evidence


# ---------------------------------------------------------------------------
# detector protocol and registry
# ---------------------------------------------------------------------------


class Detector:
    """One pipeline stage.  Subclass, set the class attributes, implement
    :meth:`run`.

    ``requires`` names detectors that must run first; they must be
    registered before this one, since stages run in registration order.
    """

    #: unique registry key
    name: str = ""
    #: stage group shown in traces and metrics (empty means ``name``)
    stage: str = ""
    #: names of detectors that must have run before this one
    requires: tuple[str, ...] = ()

    def run(
        self, ctx: AnalysisContext, result: AnalysisResult, trace: StageTrace
    ) -> list[Evidence]:
        """Populate *result* from *ctx*; return this stage's evidence.

        Counters go on *trace* (``trace.count("candidates")``); wall time
        is measured by the runner.
        """
        raise NotImplementedError


class DetectorRegistry:
    """Detectors in run order: the order they were registered in."""

    def __init__(self) -> None:
        self._detectors: dict[str, Detector] = {}

    def register(self, detector: Detector) -> None:
        """Append *detector*; its name must be new and its ``requires``
        already registered."""
        if not detector.name:
            raise ValueError("detector must set a non-empty name")
        if detector.name in self._detectors:
            raise ValueError(f"detector {detector.name!r} is already registered")
        missing = [r for r in detector.requires if r not in self._detectors]
        if missing:
            raise ValueError(
                f"detector {detector.name!r} requires unregistered detector(s) {missing}"
            )
        self._detectors[detector.name] = detector

    def __iter__(self) -> Iterator[Detector]:
        return iter(self._detectors.values())


def default_registry() -> DetectorRegistry:
    """A fresh registry with the paper's six standard detectors, in the
    engine's historical order — loop classes, pipelines, fusion, tasks,
    geometric decomposition, reductions — plus the wavefront extension
    stage (whose findings stay out of the Table III primary label)."""
    from repro.patterns.doall import LoopClassesDetector
    from repro.patterns.fusion import FusionDetector
    from repro.patterns.geometric import GeometricDecompositionDetector
    from repro.patterns.pipeline import MultiLoopPipelineDetector
    from repro.patterns.reduction import ReductionDetector
    from repro.patterns.tasks import TaskParallelismDetector
    from repro.patterns.wavefront import WavefrontDetector

    registry = DetectorRegistry()
    registry.register(LoopClassesDetector())
    registry.register(MultiLoopPipelineDetector())
    registry.register(FusionDetector())
    registry.register(TaskParallelismDetector())
    registry.register(GeometricDecompositionDetector())
    registry.register(ReductionDetector())
    registry.register(WavefrontDetector())
    return registry


def run_detectors(
    ctx: AnalysisContext, registry: DetectorRegistry | None = None
) -> AnalysisResult:
    """Run every detector of *registry* (default: :func:`default_registry`)
    over *ctx*, in registration order, and collect the trace.

    Each stage runs inside a span (child of a ``detect`` root span on the
    thread's current tracer, if an outer layer — ``analyze``, the service
    executor — installed one) and reports its wall clock into the
    process-wide ``repro_detector_stage_seconds`` histogram, so per-stage
    latency is observable both per analysis (``trace.spans``) and in
    aggregate (``/v1/metrics``).
    """
    if registry is None:
        registry = default_registry()
    result = AnalysisResult(
        program=ctx.program, profile=ctx.profile, hotspots=list(ctx.hotspots)
    )
    metrics = get_registry()
    stage_seconds = metrics.histogram(
        "repro_detector_stage_seconds",
        "Wall-clock seconds of one detector pipeline stage",
        labelnames=("stage",),
    )
    trace = AnalysisTrace()
    with ensure_tracer() as tracer:
        with tracer.span("detect", hotspots=len(ctx.hotspots)):
            for detector in registry:
                stage = StageTrace(
                    detector=detector.name, stage=detector.stage or detector.name
                )
                with tracer.span(f"detector:{detector.name}") as sp:
                    t0 = time.perf_counter()
                    evidence = detector.run(ctx, result, stage) or []
                    stage.wall_time_s = time.perf_counter() - t0
                    sp.set(evidence=len(evidence))
                stage_seconds.labels(stage=stage.stage).observe(stage.wall_time_s)
                trace.stages.append(stage)
                trace.evidence.extend(evidence)
        # Everything closed so far — outer parse/profile/cache spans plus the
        # detect subtree; a still-open job-level root stays out of the
        # analysis document by construction.
        trace.spans = tracer.finished()
    metrics.counter(
        "repro_analyses_total", "Detector pipeline runs completed"
    ).inc()
    result.trace = trace
    return result
