"""Execution backends: where a claimed service job actually runs.

This module is the seam between the service's queueing layer
(:mod:`repro.service.jobs` + :mod:`repro.service.executor`) and the
fault-tolerant analysis core (:func:`repro.runtime.parallel.run_one`).
The executor's claimer threads hand each claimed job to one
:class:`ExecutionBackend`; everything below that call — job-kind routing,
per-job tracer, timeout/retry/failure-record policy — is shared by every
backend through :func:`execute_job`, so the two backends can only differ
in *where* the work runs, never in *what* it produces:

``thread`` (:class:`ThreadBackend`)
    Runs the job in the claiming worker thread — the service's original
    behavior.  Cheap (no serialization, shares the daemon's warm
    interpreter state) but GIL-bound, and SIGALRM timeouts cannot fire
    off the main thread, so ``source``/``bench`` jobs run unbounded.

``process`` (:class:`ProcessBackend`)
    Ships the job to a :class:`~concurrent.futures.ProcessPoolExecutor`
    worker via the top-level :func:`process_job_entry`.  Analysis runs on
    the worker process's **main** thread, so
    :func:`~repro.runtime.parallel.call_with_timeout` arms a real SIGALRM
    timer again — per-job ``timeout`` is enforced for every job kind —
    and N workers profile N jobs with N GILs.  Workers share the daemon's
    on-disk profile cache (content-addressed, atomic writes) and ship
    their :class:`~repro.profiling.cache.CacheStats` back with each
    result so cache telemetry stays visible in the daemon's metrics.  A
    broken pool degrades the affected job to in-thread execution (the
    ``thread`` behavior) and rebuilds the pool for the next job, the same
    keep-serving posture :func:`~repro.runtime.parallel.analyze_registry`
    takes when its sweep pool dies.

Both backends produce either ``(result_document, info)`` or a
:class:`~repro.runtime.parallel.FailedOutcome` — never an exception — and
result documents are byte-identical across backends (enforced by
``tests/test_service_backends.py``): process boundaries move work, not
meaning.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.obs.logs import JsonLogger
from repro.obs.tracing import Tracer, activate
from repro.profiling.cache import CacheStats, ProfileCache
from repro.profiling.hotspots import DEFAULT_THRESHOLD
from repro.runtime.parallel import FailedOutcome, bench_outcome, run_one
from repro.service.jobs import Job, build_call_args

#: Backend names ``repro serve --backend`` accepts.
BACKENDS = ("thread", "process")


# -- job runners (pure functions of payload + cache) ---------------------

def run_source_job(payload: dict[str, Any], cache: ProfileCache) -> tuple[dict, dict]:
    """Compile, profile (through *cache*), and analyze one MiniC source.

    Returns the versioned analysis document — byte-identical, modulo trace
    wall-clock timings, to ``repro detect --json --compact`` on the same
    program — plus ``{"profile_cache_hit": bool}``.
    """
    from repro.api import compile_source
    from repro.patterns.engine import analyze_profile
    from repro.patterns.schema import analysis_to_dict
    from repro.profiling.cache import cached_profile_runs

    program = compile_source(payload["source"])
    arg_sets = [
        build_call_args(payload.get("args", []), int(payload.get("seed", 0)))
    ]
    profile, hit = cached_profile_runs(
        program, payload["entry"], arg_sets, cache=cache
    )
    result = analyze_profile(
        program,
        profile,
        hotspot_threshold=float(payload.get("threshold", DEFAULT_THRESHOLD)),
    )
    return analysis_to_dict(result), {"profile_cache_hit": hit}


def run_bench_job(payload: dict[str, Any], cache: ProfileCache) -> tuple[dict, dict]:
    """One registered benchmark end to end (analysis + simulation).

    :func:`~repro.runtime.parallel.bench_outcome` (which documents the
    campaign keys a payload may carry), profiled through the daemon's cache
    object so hits show up in its ``/v1/stats``.
    """
    before = cache.stats.hits
    outcome = bench_outcome(payload, cache)
    return outcome.to_dict(), {"profile_cache_hit": cache.stats.hits > before}


def run_sweep_job(
    payload: dict[str, Any],
    cache: ProfileCache,
    timeout: float | None = None,
    retries: int = 0,
) -> tuple[list, dict]:
    """A registry sweep in keep-going mode; failures fill their slots."""
    from repro.runtime.parallel import analyze_registry

    outcomes = analyze_registry(
        names=payload.get("names"),
        cache_dir=str(cache.root),
        parallel=bool(payload.get("parallel", False)),
        timeout=timeout,
        retries=retries,
        fail_fast=False,
    )
    failed = sum(1 for o in outcomes if isinstance(o, FailedOutcome))
    return (
        [o.to_dict() for o in outcomes],
        {"programs": len(outcomes), "failed": failed},
    )


_RUNNERS = {
    "source": run_source_job,
    "bench": run_bench_job,
    "sweep": run_sweep_job,
}


def execute_job(
    kind: str,
    payload: dict[str, Any],
    cache: ProfileCache,
    *,
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.5,
    name: str = "job",
    log: JsonLogger | None = None,
    queue_wait_s: float = 0.0,
) -> "FailedOutcome | tuple[Any, dict]":
    """Run one job body under the sweep's fault policy; never raises.

    This is the single execution path both backends funnel into — in the
    claimer thread for ``thread``, on a pool worker's main thread for
    ``process``.  A per-job :class:`Tracer` is activated so every span
    the analysis opens (parse, cache reads, detector stages) joins this
    job's tree, with the queue wait recorded into the same tree; the job
    body runs inside :func:`~repro.runtime.parallel.run_one`, so after
    ``1 + retries`` attempts an exhausted exception comes back as a
    structured :class:`FailedOutcome` instead of propagating.

    The payload's own ``timeout``/``retries`` keys override the
    service-level defaults.  A ``sweep``'s knobs are per-program and
    consumed inside ``analyze_registry``; its job-level wrapper only
    catches the sweep machinery itself crashing.
    """
    job_timeout = payload.get("timeout", timeout)
    job_retries = int(payload.get("retries", retries))
    runner = _RUNNERS[kind]
    if kind == "sweep":
        sweep_timeout, sweep_retries = job_timeout, job_retries
        job_timeout, job_retries = None, 0

        def body() -> tuple[Any, dict]:
            return runner(payload, cache, timeout=sweep_timeout, retries=sweep_retries)
    else:
        def body() -> tuple[Any, dict]:
            return runner(payload, cache)

    tracer = Tracer()
    tracer.record("job.queue_wait", queue_wait_s)
    with activate(tracer):
        with tracer.span("job.run", kind=kind):
            return run_one(
                name,
                timeout=job_timeout,
                retries=job_retries,
                backoff=backoff,
                analyze_fn=lambda _name, _cache_dir: body(),
                log=log,
            )


def process_job_entry(
    kind: str,
    payload: dict[str, Any],
    cache_root: str,
    timeout: float | None,
    retries: int,
    backoff: float,
    name: str,
    queue_wait_s: float,
) -> "tuple[FailedOutcome | tuple[Any, dict], CacheStats]":
    """Pool-worker entry point: run one job, report the worker's cache stats.

    Top-level (picklable) by design.  The worker opens its own handle on
    the daemon's **on-disk** cache root — the content-addressed store is
    multi-process safe (atomic writes, re-read on miss) — and ships its
    in-memory :class:`CacheStats` back alongside the outcome, because the
    metric increments the worker mirrored into its *own* process registry
    die with the worker; the dispatcher merges them into the daemon's
    stats with ``mirror_metrics=True``.

    Running here, on the worker process's main thread, is what re-arms
    SIGALRM: per-job timeouts fire for ``source``/``bench`` jobs again.
    """
    cache = ProfileCache(root=cache_root)
    outcome = execute_job(
        kind,
        payload,
        cache,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        name=name,
        queue_wait_s=queue_wait_s,
    )
    return outcome, cache.stats


# -- backends ------------------------------------------------------------

class ExecutionBackend:
    """Where claimed jobs run.  Subclasses override :meth:`run`.

    ``run`` must never raise — it returns either ``(result, info)`` or a
    :class:`FailedOutcome`, mirroring :func:`execute_job`'s contract —
    because the claimer thread that calls it must survive any job.
    """

    name = "abstract"

    def __init__(
        self,
        cache: ProfileCache,
        timeout: float | None = None,
        retries: int = 0,
        backoff: float = 0.5,
    ) -> None:
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    def run(
        self, job: Job, queue_wait_s: float = 0.0, log: JsonLogger | None = None
    ) -> "FailedOutcome | tuple[Any, dict]":
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release backend resources (pools); idempotent."""


class ThreadBackend(ExecutionBackend):
    """Run jobs in the claiming worker thread (the original behavior)."""

    name = "thread"

    def run(
        self, job: Job, queue_wait_s: float = 0.0, log: JsonLogger | None = None
    ) -> "FailedOutcome | tuple[Any, dict]":
        return execute_job(
            job.kind,
            job.payload,
            self.cache,
            timeout=self.timeout,
            retries=self.retries,
            backoff=self.backoff,
            name=f"job-{job.id}",
            log=log,
            queue_wait_s=queue_wait_s,
        )


class ProcessBackend(ExecutionBackend):
    """Run jobs in a process pool: N GILs, real per-job SIGALRM timeouts."""

    name = "process"

    def __init__(
        self,
        cache: ProfileCache,
        timeout: float | None = None,
        retries: int = 0,
        backoff: float = 0.5,
        workers: int = 2,
    ) -> None:
        super().__init__(cache, timeout=timeout, retries=retries, backoff=backoff)
        self.workers = max(1, workers)
        #: jobs that fell back to in-thread execution after a pool break
        self.degraded = 0
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=self.workers
        )

    def _submit(self, job: Job, queue_wait_s: float):
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool.submit(
                process_job_entry,
                job.kind,
                job.payload,
                str(self.cache.root),
                self.timeout,
                self.retries,
                self.backoff,
                f"job-{job.id}",
                queue_wait_s,
            )

    def _discard_pool(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def run(
        self, job: Job, queue_wait_s: float = 0.0, log: JsonLogger | None = None
    ) -> "FailedOutcome | tuple[Any, dict]":
        try:
            outcome, worker_stats = self._submit(job, queue_wait_s).result()
        except BrokenProcessPool:
            # The pool died under this job (worker killed, fork failure).
            # Keep serving: discard the pool (a fresh one is built lazily
            # for the next job) and degrade this job to in-thread
            # execution — the thread backend's semantics, minus SIGALRM.
            self._discard_pool()
            self.degraded += 1
            if log is not None:
                log.warning("backend.pool_broken", job_id=job.id, degraded=self.degraded)
            outcome = execute_job(
                job.kind,
                job.payload,
                self.cache,
                timeout=self.timeout,
                retries=self.retries,
                backoff=self.backoff,
                name=f"job-{job.id}",
                log=log,
                queue_wait_s=queue_wait_s,
            )
            if not isinstance(outcome, FailedOutcome):
                result, info = outcome
                outcome = (result, {**info, "backend_degraded": True})
            return outcome
        # The worker's own registry increments died with its process; this
        # merge is their only path into the daemon's scrape.
        self.cache.stats.merge(worker_stats, mirror_metrics=True)
        return outcome

    def shutdown(self) -> None:
        self._discard_pool()


def make_backend(
    name: str,
    cache: ProfileCache,
    *,
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.5,
    workers: int = 2,
) -> ExecutionBackend:
    """Instantiate the backend *name* (one of :data:`BACKENDS`)."""
    if name == "thread":
        return ThreadBackend(cache, timeout=timeout, retries=retries, backoff=backoff)
    if name == "process":
        return ProcessBackend(
            cache, timeout=timeout, retries=retries, backoff=backoff, workers=workers
        )
    raise ValueError(f"unknown backend {name!r}; expected one of {list(BACKENDS)}")
