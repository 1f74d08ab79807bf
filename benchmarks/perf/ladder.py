"""The analysis pipeline re-assembled from each layer's public entry points,
with a benchmark span around every layer call.

The untraced workloads call ``runtime.parallel.analyze_one`` (registry) or
``patterns.engine.analyze`` (corpus).  A traced pass makes the same calls
one layer at a time so each layer's cost can be read off.  Before it, a
probe phase runs two engine passes per program that the pipeline itself
does not make (:func:`probe_engine`):

* ``runtime.execute`` — the compiled engine with ``sink=None``;
* ``runtime.emit_run`` — the same engine delivering its event batches to a
  :class:`DropSink` that discards them.

Together with the profiled run they form a ladder: emission cost is the
drop-sink run minus the bare run, and the profiler's fold is the profiled
run minus the drop-sink run minus ``finish()`` and ``merge``.  The probes
run in a phase of their own, followed by a full garbage collection, so the
garbage they leave does not land in the pipeline's timings.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Mapping, Sequence

from repro.lang.parser import parse_program
from repro.lang.validate import validate_program
from repro.patterns.framework import (
    AnalysisContext,
    Detector,
    DetectorRegistry,
    default_registry,
    run_detectors,
)
from repro.profiling.cache import ProfileCache, profile_cache_key
from repro.profiling.hotspots import hotspot_regions
from repro.profiling.profiler import Profiler
from repro.profiling.serialize import canonical_profile_json, profile_digest
from repro.runtime import events
from repro.runtime.compile import CompiledEngine
from repro.sim import plan_and_simulate

from spans import Recorder, totals_by_name

#: The seven default detectors, in pipeline order.
DETECTORS = tuple(d.name for d in default_registry())

#: Layer row -> the span whose self time it reports, in pipeline order.
#: The rows' per-pass totals add up to a pass: ``patterns.detect_ms`` is
#: ``run_detectors`` outside the detectors, which have rows of their own.
ROW_SPANS = {
    "lang.parse_ms": "lang.parse",
    "runtime.execute_ms": "runtime.execute",
    "runtime.emit_ms": "runtime.emit_run",
    "profiling.fold_ms": "profiling.profile",
    "profiling.finish_ms": "profiling.finish",
    "profiling.merge_ms": "profiling.merge",
    "profiling.cache_key_ms": "profiling.cache_key",
    "profiling.cache_read_ms": "profiling.cache_read",
    "profiling.cache_store_ms": "profiling.cache_store",
    "patterns.hotspots_ms": "patterns.hotspots",
    "patterns.detect_ms": "patterns.detect",
    **{f"patterns.detector.{name}_ms": f"patterns.detector.{name}" for name in DETECTORS},
    "sim.simulate_ms": "sim.simulate",
    "profiling.digest_ms": "profiling.digest",
}

#: Event tags reported by the counting sink (exits equal entries).
EVENT_TAGS = {
    events.EV_READ: "read",
    events.EV_WRITE: "write",
    events.EV_COST: "cost",
    events.EV_STMT: "stmt",
    events.EV_ITER: "iter",
    events.EV_ENTER_FUNC: "call",
    events.EV_ENTER_LOOP: "loop",
}

class DropSink(events.Sink):
    """Takes every event batch and discards it."""

    def consume_batch(self, batch: Sequence[tuple]) -> None:
        pass


class CountingSink(events.Sink):
    """Counts events by tag; used in an untimed run only."""

    def __init__(self) -> None:
        self.tags: Counter = Counter()
        self.batches = 0

    def consume_batch(self, batch: Sequence[tuple]) -> None:
        self.batches += 1
        self.tags.update(ev[0] for ev in batch)


class TimedProfiler(Profiler):
    """The stock profiler with a span around ``finish()``."""

    def __init__(self, recorder: Recorder) -> None:
        super().__init__()
        self._recorder = recorder

    def finish(self) -> None:
        with self._recorder.span("profiling.finish"):
            super().finish()


class TimedDetector(Detector):
    """Delegates to a stock detector inside a span."""

    def __init__(self, inner: Detector, recorder: Recorder) -> None:
        self.name = inner.name
        self.stage = inner.stage
        self.requires = inner.requires
        self._inner = inner
        self._recorder = recorder

    def run(self, ctx, result, trace):
        with self._recorder.span(f"patterns.detector.{self.name}"):
            return self._inner.run(ctx, result, trace)


def timed_registry(recorder: Recorder) -> DetectorRegistry:
    """The default detectors, each wrapped in a span, same order."""
    registry = DetectorRegistry()
    for detector in default_registry():
        registry.register(TimedDetector(detector, recorder))
    return registry


def parse(rec: Recorder, source: str):
    with rec.span("lang.parse"):
        program = parse_program(source)
        validate_program(program)
    return program


def probe_engine(rec: Recorder, program, entry: str, arg_sets: Sequence[Sequence[Any]]):
    """The bare and the drop-sink engine runs of one program."""
    with rec.span("runtime.execute", runs=len(arg_sets)):
        for args in arg_sets:
            CompiledEngine(program, sink=None).run(entry, args)
    with rec.span("runtime.emit_run", runs=len(arg_sets)):
        for args in arg_sets:
            CompiledEngine(program, sink=DropSink()).run(entry, args)


def profile(rec: Recorder, program, entry: str, arg_sets: Sequence[Sequence[Any]]):
    """The profile ``profiling.runner.profile_runs`` builds, with spans
    around ``finish()`` and each merge."""
    merged = None
    with rec.span("profiling.profile", runs=len(arg_sets)):
        for args in arg_sets:
            profiler = TimedProfiler(rec)
            CompiledEngine(program, sink=profiler).run(entry, args)
            if merged is None:
                merged = profiler.profile
            else:
                with rec.span("profiling.merge"):
                    merged = merged.merge(profiler.profile)
    return merged


def profile_cached(rec: Recorder, cache: ProfileCache, source: str, entry: str,
                   arg_sets: Sequence[Sequence[Any]]):
    """A profile-cache lookup split into key derivation and read."""
    with rec.span("profiling.cache_key"):
        key = profile_cache_key(source, entry, arg_sets)
    with rec.span("profiling.cache_read"):
        profile = cache.load(key)
    if profile is None:
        raise RuntimeError("profile cache miss on a pre-filled cache")
    return profile


def detect(rec: Recorder, registry: DetectorRegistry, program, profile,
           hotspot_threshold: float, min_pairs: int):
    """``patterns.engine.analyze_profile`` with hotspots and detection
    timed apart."""
    with rec.span("patterns.hotspots"):
        hotspots = hotspot_regions(profile, program, threshold=hotspot_threshold)
    ctx = AnalysisContext(
        program=program,
        profile=profile,
        hotspots=hotspots,
        hotspot_threshold=hotspot_threshold,
        min_pairs=min_pairs,
    )
    with rec.span("patterns.detect"):
        return run_detectors(ctx, registry)


def simulate(rec: Recorder, result):
    with rec.span("sim.simulate"):
        return plan_and_simulate(result)


def digest(rec: Recorder, profile) -> str:
    with rec.span("profiling.digest"):
        return profile_digest(profile)


def count_events(program, entry: str, arg_sets: Sequence[Sequence[Any]]) -> Counter:
    """Exact event and batch counts of the profiled runs (untimed)."""
    sink = CountingSink()
    for args in arg_sets:
        CompiledEngine(program, sink=sink).run(entry, args)
    counts = Counter({f"runtime.events.{EVENT_TAGS[t]}": n
                      for t, n in sink.tags.items() if t in EVENT_TAGS})
    counts["runtime.batches"] = sink.batches
    return counts


def profile_counts(profile) -> Counter:
    """Exact size counters of one profile (untimed)."""
    return Counter({
        "profiling.profile_bytes": len(canonical_profile_json(profile).encode("utf-8")),
        "profiling.dep_records": len(profile.deps),
    })


def evidence_counts(result) -> Counter:
    trace = result.trace
    return Counter({
        "patterns.evidence_accepted": len(trace.accepted()),
        "patterns.evidence_rejected": len(trace.rejected()),
    })


def layer_ms(spans: Sequence[Mapping[str, Any]]) -> dict[str, float]:
    """One traced pass's spans -> per-layer self times in milliseconds."""
    totals = totals_by_name(spans)
    own = {row: totals.get(span, {}).get("self", 0.0) for row, span in ROW_SPANS.items()}
    # The ladder: the drop-sink run less the bare run is emission; the
    # profiled run less the drop-sink run (and its finish/merge children)
    # is the fold.
    emit_run = own["runtime.emit_ms"]
    if emit_run:
        own["runtime.emit_ms"] = emit_run - own["runtime.execute_ms"]
    if own["profiling.fold_ms"]:
        own["profiling.fold_ms"] -= emit_run
    return {row: seconds * 1e3 for row, seconds in own.items()}


def layer_calls(spans: Sequence[Mapping[str, Any]]) -> dict[str, int]:
    """Call counts behind each row of :func:`layer_ms`."""
    totals = totals_by_name(spans)
    return {row: int(totals.get(span, {}).get("calls", 0)) for row, span in ROW_SPANS.items()}
