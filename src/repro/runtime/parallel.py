"""Process-parallel registry analysis with per-program fault isolation.

Table III re-runs the whole interpret → profile → detect → simulate stack
for every registry program; the runs are completely independent, so this
module fans them out over a :class:`~concurrent.futures.ProcessPoolExecutor`.

Guarantees:

* **Deterministic ordering** — results come back in the order the names
  were given (registry order by default), independent of worker completion
  order: futures are submitted individually and reassembled by index.
* **Parallel ≡ serial** — each worker parses its program from source and
  calls the analysis engine directly, bypassing every in-process cache a
  forked child might inherit; the analysis itself is deterministic, and
  :class:`BenchmarkOutcome` carries the canonical profile digest so equality
  is checkable down to the serialized profile bytes.  The guarantee holds
  for every program that succeeds on both paths.
* **Fault isolation** — a worker that raises, times out, or dies yields a
  structured :class:`FailedOutcome` record (exception type, message,
  traceback summary, attempt count) in that program's slot instead of
  aborting the sweep.  Failures are retried up to ``retries`` times with
  exponential backoff; a broken pool (e.g. an OOM-killed child taking the
  executor down with :class:`BrokenProcessPool`) degrades to in-process
  serial execution for every program still unresolved, so completed work
  is never forfeited.
* **Compact results** — workers return plain-data summaries (labels,
  pipeline coefficients, simulated speedups, digests, evidence counts), not
  multi-megabyte :class:`AnalysisResult` objects, keeping pickling off the
  critical path.
* **Versioned records** — outcomes and failures serialize through
  ``to_dict``/``from_dict`` stamped with the analysis ``schema_version``
  (see :mod:`repro.patterns.schema`), the same document convention the
  CLI's ``--json`` modes emit; :func:`outcome_from_dict` dispatches on the
  ``"failed"`` marker.

An optional shared profile cache directory lets workers reuse on-disk
profiles (writes are atomic, so concurrent workers are safe).
"""

from __future__ import annotations

import functools
import os
import signal
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.obs.logs import JsonLogger
    from repro.profiling.cache import ProfileCache

#: Exception message length kept in failure records.
_MESSAGE_LIMIT = 300

#: Traceback frames kept in failure records (innermost last).
_TRACEBACK_FRAMES = 3


class AnalysisTimeout(RuntimeError):
    """One program's analysis exceeded the per-program timeout."""


@dataclass(frozen=True)
class BenchmarkOutcome:
    """Picklable summary of one benchmark's end-to-end analysis."""

    name: str
    suite: str
    loc: int
    label: str
    primary_share: float
    best_speedup: float
    best_threads: int
    #: one (loop_x, loop_y, a, b, efficiency) tuple per detected pipeline
    pipelines: tuple[tuple[int, int, float, float, float], ...]
    #: sha256 of the canonical profile JSON — byte-level profile identity
    profile_digest: str
    #: accepted/rejected candidate counts from the detection evidence trace
    evidence_accepted: int = 0
    evidence_rejected: int = 0

    #: discriminator shared with :class:`FailedOutcome`
    ok = True

    def to_dict(self) -> dict[str, Any]:
        """Versioned JSON-compatible record (the analysis schema version)."""
        from repro.patterns.schema import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "suite": self.suite,
            "loc": self.loc,
            "label": self.label,
            "primary_share": self.primary_share,
            "best_speedup": self.best_speedup,
            "best_threads": self.best_threads,
            "pipelines": [list(p) for p in self.pipelines],
            "profile_digest": self.profile_digest,
            "evidence_accepted": self.evidence_accepted,
            "evidence_rejected": self.evidence_rejected,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BenchmarkOutcome":
        """Rebuild an outcome from :meth:`to_dict`; rejects other versions."""
        from repro.patterns.schema import SCHEMA_VERSION

        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported outcome schema version {version!r}")
        if data.get("failed"):
            raise ValueError("failure record passed to BenchmarkOutcome.from_dict")
        return cls(
            name=data["name"],
            suite=data["suite"],
            loc=data["loc"],
            label=data["label"],
            primary_share=data["primary_share"],
            best_speedup=data["best_speedup"],
            best_threads=data["best_threads"],
            pipelines=tuple(tuple(p) for p in data["pipelines"]),
            profile_digest=data["profile_digest"],
            evidence_accepted=data.get("evidence_accepted", 0),
            evidence_rejected=data.get("evidence_rejected", 0),
        )


@dataclass(frozen=True)
class FailedOutcome:
    """Structured record of one program whose analysis did not complete.

    Fills the program's slot in :func:`analyze_registry` results so a
    partial sweep still reports every requested name exactly once.  The
    record is an *extension* of the outcome document convention: it carries
    the same ``schema_version`` plus a ``"failed": true`` marker, so
    ``table3 --json`` consumers can mix the two row kinds safely (unknown
    keys are already tolerated by the schema's loaders).
    """

    name: str
    #: exception class name (``"AnalysisTimeout"`` for per-program timeouts)
    error_type: str
    message: str
    #: innermost frames, rendered ``file:line in func``; parallel failures
    #: quote the worker-side traceback the executor forwarded
    traceback_summary: str
    #: total runs attempted (1 + retries consumed)
    attempts: int

    #: discriminator shared with :class:`BenchmarkOutcome`
    ok = False

    def to_dict(self) -> dict[str, Any]:
        """Versioned JSON-compatible failure record."""
        from repro.patterns.schema import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "failed": True,
            "name": self.name,
            "error_type": self.error_type,
            "message": self.message,
            "traceback_summary": self.traceback_summary,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FailedOutcome":
        """Rebuild a failure record from :meth:`to_dict`."""
        from repro.patterns.schema import SCHEMA_VERSION

        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported outcome schema version {version!r}")
        if not data.get("failed"):
            raise ValueError("success record passed to FailedOutcome.from_dict")
        return cls(
            name=data["name"],
            error_type=data["error_type"],
            message=data["message"],
            traceback_summary=data["traceback_summary"],
            attempts=data["attempts"],
        )


def outcome_from_dict(data: dict[str, Any]) -> "BenchmarkOutcome | FailedOutcome":
    """Decode either record kind, dispatching on the ``"failed"`` marker."""
    if data.get("failed"):
        return FailedOutcome.from_dict(data)
    return BenchmarkOutcome.from_dict(data)


def _summarize_traceback(exc: BaseException) -> str:
    """Condense *exc*'s traceback to its innermost frames.

    Exceptions re-raised from a worker process carry the remote traceback
    only as a ``_RemoteTraceback`` cause string; prefer its ``File`` lines
    so the summary points into the worker's code, not the executor's.
    """
    cause = exc.__cause__
    if cause is not None and type(cause).__name__ == "_RemoteTraceback":
        lines = [ln.strip() for ln in str(cause).splitlines() if ln.strip().startswith("File ")]
        if lines:
            return " <- ".join(reversed(lines[-_TRACEBACK_FRAMES:]))
    frames = traceback.extract_tb(exc.__traceback__)[-_TRACEBACK_FRAMES:]
    return " <- ".join(
        f"{os.path.basename(f.filename)}:{f.lineno} in {f.name}"
        for f in reversed(frames)
    ) or "<no traceback>"


def failure_record(name: str, exc: BaseException, attempts: int) -> FailedOutcome:
    return FailedOutcome(
        name=name,
        error_type=type(exc).__name__,
        message=str(exc)[:_MESSAGE_LIMIT],
        traceback_summary=_summarize_traceback(exc),
        attempts=attempts,
    )


def outcome_from_analysis(spec, result, sim_outcome) -> BenchmarkOutcome:
    """Condense one benchmark's analysis + simulation into an outcome."""
    from repro.patterns.engine import primary_pattern_share, summarize_patterns
    from repro.profiling.serialize import profile_digest

    trace = result.trace
    return BenchmarkOutcome(
        name=spec.name,
        suite=spec.suite,
        loc=spec.loc,
        label=summarize_patterns(result),
        primary_share=primary_pattern_share(result),
        best_speedup=sim_outcome.best_speedup,
        best_threads=sim_outcome.best_threads,
        pipelines=tuple(
            (p.loop_x, p.loop_y, p.a, p.b, p.efficiency) for p in result.pipelines
        ),
        profile_digest=profile_digest(result.profile),
        evidence_accepted=len(trace.accepted()) if trace is not None else 0,
        evidence_rejected=len(trace.rejected()) if trace is not None else 0,
    )


def bench_outcome(
    payload: dict[str, Any],
    cache: "ProfileCache | None" = None,
    engine: str = "compiled",
) -> BenchmarkOutcome:
    """One registered benchmark end to end: analysis plus simulation.

    ``payload["name"]`` names the benchmark.  Campaign cells ride through
    optional payload keys, each defaulting to the registry spec / the frozen
    :data:`~repro.sim.machine.DEFAULT_MACHINE`, so a bare ``{"name": ...}``
    stays byte-identical to ``repro table3``:

    * ``scale`` — input-scale factor applied to the spec's argument sets
      via :func:`repro.bench_programs.workloads.scale_arg_sets`;
    * ``threshold`` / ``min_pairs`` — detector-config overrides;
    * ``machine`` — mapping of :class:`~repro.sim.machine.Machine` cost
      fields (``spawn_cost``, ``barrier_base``, ...) replaced onto the
      default model before simulation.

    Deliberately avoids ``registry.analyze_benchmark`` (its ``lru_cache``
    would be inherited by forked workers and could mask real recomputation)
    and re-parses the program from its source text.  *cache* is a
    :class:`~repro.profiling.cache.ProfileCache` or None (no cache);
    *engine* selects the execution engine for the instrumented runs, and
    outcomes (including the profile digest) are identical across engines.
    """
    from dataclasses import replace

    from repro.bench_programs.registry import get_benchmark
    from repro.bench_programs.workloads import scale_arg_sets
    from repro.lang.parser import parse_program
    from repro.lang.validate import validate_program
    from repro.patterns.engine import analyze
    from repro.sim import plan_and_simulate
    from repro.sim.machine import DEFAULT_MACHINE

    spec = get_benchmark(payload["name"])
    program = parse_program(spec.source)
    validate_program(program)
    arg_sets = spec.arg_sets()
    scale = float(payload.get("scale", 1.0))
    if scale != 1.0:
        arg_sets = scale_arg_sets(arg_sets, scale)
    overrides = payload.get("machine") or {}
    machine = replace(DEFAULT_MACHINE, **overrides) if overrides else DEFAULT_MACHINE
    result = analyze(
        program,
        spec.entry,
        arg_sets,
        hotspot_threshold=float(payload.get("threshold", spec.hotspot_threshold)),
        min_pairs=int(payload.get("min_pairs", spec.min_pairs)),
        cache=cache,
        engine=engine,
    )
    return outcome_from_analysis(
        spec, result, plan_and_simulate(result, machine=machine)
    )


def analyze_one(
    name: str, cache_dir: str | None = None, engine: str = "compiled"
) -> BenchmarkOutcome:
    """Analyze one registry benchmark from scratch; used as the pool worker.

    The :func:`bench_outcome` of a bare ``{"name": name}`` payload, profiled
    through the on-disk cache at *cache_dir* when one is given.
    """
    cache = None
    if cache_dir is not None:
        from repro.profiling.cache import ProfileCache

        cache = ProfileCache(root=cache_dir)
    return bench_outcome({"name": name}, cache, engine)


def call_with_timeout(
    analyze_fn: Callable[[str, str | None], BenchmarkOutcome],
    name: str,
    cache_dir: str | None,
    timeout: float | None,
) -> BenchmarkOutcome:
    """Run ``analyze_fn(name, cache_dir)``, bounded by a SIGALRM timer.

    The timer measures pure execution time (it starts only once the call is
    actually running — queue wait in a busy pool never counts) and fires as
    :class:`AnalysisTimeout`, which frees the worker slot for the next
    program.  Signals only work on the main thread of a process; off the
    main thread (or without SIGALRM) the call runs unbounded.
    """
    if (
        not timeout
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return analyze_fn(name, cache_dir)

    def _on_alarm(signum, frame):
        raise AnalysisTimeout(f"analysis of {name!r} exceeded {timeout:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return analyze_fn(name, cache_dir)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _pool_task(analyze_fn, name: str, cache_dir: str | None, timeout: float | None):
    """Top-level (picklable) worker entry: one program, timeout-bounded."""
    return call_with_timeout(analyze_fn, name, cache_dir, timeout)


def _backoff_delay(backoff: float, attempt: int) -> float:
    """Exponential backoff before re-running *attempt* (1-based)."""
    return backoff * (2 ** (attempt - 1))


def default_max_workers(n_tasks: int | None = None) -> int:
    """Process-pool sizing shared by the sweep and the service's
    ``process`` backend: the machine's CPU count, capped by the number of
    tasks when known, never below one."""
    workers = os.cpu_count() or 1
    if n_tasks is not None:
        workers = min(max(0, n_tasks), workers)
    return max(1, workers)


def run_one(
    name: str,
    cache_dir: str | None = None,
    *,
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.5,
    analyze_fn: Callable[[str, str | None], Any] = analyze_one,
    prior_attempts: int = 0,
    log: "JsonLogger | None" = None,
) -> "BenchmarkOutcome | FailedOutcome | Any":
    """Submit-one-program entry point with the sweep's fault semantics.

    Runs ``analyze_fn(name, cache_dir)`` under the same timeout / retry /
    failure-record policy :func:`analyze_registry` applies per program, but
    for a single submission — the building block the analysis service's
    executor and the serial sweep path share.  Never raises: after
    ``1 + retries`` attempts (counting *prior_attempts* already consumed,
    e.g. by a broken pool) the exhausted exception comes back as a
    structured :class:`FailedOutcome`.

    *log* is an optional :class:`repro.obs.logs.JsonLogger` (typically
    already bound to a job/correlation id by the caller); each retry and
    the final failure emit a structured record through it.
    """
    attempts = prior_attempts
    while True:
        attempts += 1
        try:
            return call_with_timeout(analyze_fn, name, cache_dir, timeout)
        except Exception as exc:
            if attempts <= retries:
                if log is not None:
                    log.warning(
                        "run.retry",
                        name=name,
                        attempt=attempts,
                        error_type=type(exc).__name__,
                        message=str(exc)[:_MESSAGE_LIMIT],
                    )
                time.sleep(_backoff_delay(backoff, attempts))
                continue
            record = failure_record(name, exc, attempts)
            if log is not None:
                log.error(
                    "run.failed",
                    name=name,
                    attempts=attempts,
                    error_type=record.error_type,
                    message=record.message,
                )
            return record


def _analyze_serial(
    names: Sequence[str],
    indices: Sequence[int],
    results: dict[int, "BenchmarkOutcome | FailedOutcome"],
    attempts: dict[int, int],
    cache_dir: str | None,
    analyze_fn,
    timeout: float | None,
    retries: int,
    backoff: float,
    fail_fast: bool,
) -> None:
    """Resolve *indices* in-process, honoring retry/timeout/fail-fast.

    Shared by the ``parallel=False`` path (all indices) and the broken-pool
    degradation path (whatever the pool left unresolved); attempts already
    consumed by the pool count against each program's retry budget.
    """
    for i in indices:
        results[i] = run_one(
            names[i],
            cache_dir,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            analyze_fn=analyze_fn,
            prior_attempts=attempts.get(i, 0),
        )
        if fail_fast and isinstance(results[i], FailedOutcome):
            return


def _analyze_parallel(
    names: Sequence[str],
    max_workers: int,
    cache_dir: str | None,
    analyze_fn,
    timeout: float | None,
    retries: int,
    backoff: float,
    fail_fast: bool,
    results: dict[int, "BenchmarkOutcome | FailedOutcome"],
    attempts: dict[int, int],
) -> None:
    """Fan *names* over a process pool with per-future fault isolation.

    Raises :class:`BrokenProcessPool` (after shutting the pool down) when
    the executor itself dies; the caller degrades to the serial path for
    everything still missing from *results*.
    """
    pool = ProcessPoolExecutor(max_workers=max_workers)
    pending: dict[Future, int] = {}

    def submit(i: int) -> None:
        attempts[i] = attempts.get(i, 0) + 1
        pending[pool.submit(_pool_task, analyze_fn, names[i], cache_dir, timeout)] = i

    try:
        for i in range(len(names)):
            submit(i)
        while pending:
            done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
            stop = False
            for fut in done:
                i = pending.pop(fut)
                try:
                    results[i] = fut.result()
                except BrokenProcessPool:
                    raise
                except Exception as exc:
                    if attempts[i] <= retries:
                        time.sleep(_backoff_delay(backoff, attempts[i]))
                        submit(i)
                        continue
                    results[i] = failure_record(names[i], exc, attempts[i])
                    if fail_fast:
                        stop = True
            if stop:
                for fut in pending:
                    fut.cancel()
                pending.clear()
    finally:
        # A worker that outlived its timeout may still hold a slot; don't
        # block result delivery on it.
        pool.shutdown(wait=False, cancel_futures=True)


def analyze_registry(
    names: Sequence[str] | None = None,
    max_workers: int | None = None,
    cache_dir: str | None = None,
    parallel: bool = True,
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.5,
    fail_fast: bool = False,
    analyze_fn: Callable[[str, str | None], BenchmarkOutcome] = analyze_one,
    engine: str = "compiled",
) -> list["BenchmarkOutcome | FailedOutcome"]:
    """Analyze registry benchmarks, optionally across worker processes.

    Results are returned in the order of *names* (registry order when None)
    whichever path runs.  ``parallel=False`` runs the identical per-program
    code in this process — the reference for equality testing.

    *engine* selects the execution engine for the instrumented runs; a
    non-default value is forwarded to *analyze_fn* as an ``engine`` keyword
    (custom ``analyze_fn`` callables that never see a non-default engine
    are unaffected).

    Fault tolerance: a program whose analysis raises or exceeds *timeout*
    seconds occupies its result slot as a :class:`FailedOutcome` after
    ``1 + retries`` attempts (exponential backoff, ``backoff * 2**n``
    seconds between runs); the rest of the sweep is unaffected.  With
    ``fail_fast=True`` the sweep stops at the first exhausted failure and
    returns only the entries resolved by then (still in *names* order).
    If the pool itself breaks mid-sweep, every unresolved program is re-run
    serially in this process — completed outcomes are kept either way.
    """
    if names is None:
        from repro.bench_programs.registry import all_benchmarks

        names = [spec.name for spec in all_benchmarks()]
    if not names:
        return []
    if engine != "compiled":
        # functools.partial of a top-level function stays picklable, so the
        # wrapped callable crosses the process-pool boundary intact.
        analyze_fn = functools.partial(analyze_fn, engine=engine)

    results: dict[int, BenchmarkOutcome | FailedOutcome] = {}
    attempts: dict[int, int] = {}
    if parallel:
        if max_workers is None:
            max_workers = default_max_workers(len(names))
        try:
            _analyze_parallel(
                names, max_workers, cache_dir, analyze_fn,
                timeout, retries, backoff, fail_fast, results, attempts,
            )
        except BrokenProcessPool:
            unresolved = [i for i in range(len(names)) if i not in results]
            _analyze_serial(
                names, unresolved, results, attempts, cache_dir,
                analyze_fn, timeout, retries, backoff, fail_fast,
            )
    else:
        _analyze_serial(
            names, range(len(names)), results, attempts, cache_dir,
            analyze_fn, timeout, retries, backoff, fail_fast,
        )
    return [results[i] for i in sorted(results)]
