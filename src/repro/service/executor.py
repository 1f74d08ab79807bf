"""The daemon's executor: claimer threads, and where each job runs.

:class:`AnalysisExecutor` owns ``workers`` daemon threads that claim jobs
from a :class:`~repro.service.jobs.JobStore` and run each one where its
``backend`` says:

``thread``
    In the claiming worker thread.  Cheap (no serialization, shares the
    daemon's warm interpreter state) but GIL-bound, and SIGALRM timeouts
    cannot fire off the main thread, so ``source``/``bench`` jobs run
    unbounded.

``process``
    On a :class:`~concurrent.futures.ProcessPoolExecutor` worker the
    executor owns, via the top-level :func:`process_job_entry`.  Analysis
    runs on the worker process's **main** thread, so
    :func:`~repro.runtime.parallel.call_with_timeout` arms a real SIGALRM
    timer — per-job ``timeout`` is enforced for every job kind — and N
    workers profile N jobs with N GILs.  Workers share the daemon's
    on-disk profile cache (content-addressed, atomic writes) and ship
    their :class:`~repro.profiling.cache.CacheStats` back with each result
    so cache telemetry stays visible in the daemon's metrics.  A broken
    pool degrades the affected job to in-thread execution and rebuilds the
    pool for the next job, the same keep-serving posture
    :func:`~repro.runtime.parallel.analyze_registry` takes when its sweep
    pool dies.

Either way the job body runs through :func:`execute_job` under
:func:`repro.runtime.parallel.run_one` — the same timeout / retry /
failure-record policy the registry sweep applies per program — so a job
whose analysis raises lands as a ``failed`` record carrying the sweep's
structured error envelope, and the claimer thread survives to claim the
next job: one crashing submission never takes the daemon down.  Result
documents are byte-identical across backends (enforced by
``tests/test_service_backends.py``): process boundaries move work, not
meaning.  ``workers`` bounds the number of concurrently running jobs.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.obs.logs import JsonLogger
from repro.obs.metrics import get_registry
from repro.obs.tracing import Tracer, activate
from repro.profiling.cache import CacheStats, ProfileCache, default_cache_root
from repro.profiling.hotspots import DEFAULT_THRESHOLD
from repro.runtime.parallel import FailedOutcome, bench_outcome, run_one
from repro.service.jobs import Job, JobStore, build_call_args

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
                body,
                name=name,
                timeout=job_timeout,
                retries=job_retries,
                backoff=backoff,
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


class AnalysisExecutor:
    """Bounded pool of job claimers over a shared :class:`JobStore`.

    *backend* (one of :data:`BACKENDS`) says where claimed jobs run; the
    ``process`` backend's pool is created on first use and rebuilt after
    a break.
    """

    def __init__(
        self,
        store: JobStore,
        workers: int = 2,
        cache_dir: str | None = None,
        timeout: float | None = None,
        retries: int = 0,
        backoff: float = 0.5,
        backend: str = "thread",
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {list(BACKENDS)}"
            )
        self.store = store
        self.workers = max(1, workers)
        self.cache = ProfileCache(root=cache_dir if cache_dir else default_cache_root())
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backend = backend
        #: jobs that fell back to in-thread execution after a pool break
        self.degraded = 0
        self._pool: ProcessPoolExecutor | None = None
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._busy = 0
        #: high-water mark of concurrently running jobs — observable proof
        #: the worker bound held under saturation
        self.peak_busy = 0
        # Pool gauges read live state at scrape time (set_function), so they
        # can never go stale; the latest executor in the process wins the
        # callback, matching the one-daemon-per-process deployment.
        metrics = get_registry()
        metrics.gauge(
            "repro_pool_workers", "Size of the analysis worker pool"
        ).set_function(lambda: self.workers)
        metrics.gauge(
            "repro_pool_busy", "Workers currently running a job"
        ).set_function(lambda: self.busy)
        metrics.gauge(
            "repro_pool_peak_busy", "High-water mark of concurrently busy workers"
        ).set_function(lambda: self.peak_busy)
        metrics.gauge(
            "repro_jobs_queue_depth", "Jobs queued and not yet claimed"
        ).set_function(lambda: self.store.counts()["queue_depth"])

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Spawn the claimer threads (idempotent)."""
        if self._threads:
            return
        self._stop.clear()
        for n in range(self.workers):
            thread = threading.Thread(
                target=self._worker, name=f"repro-analysis-{n}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def shutdown(self, wait: bool = True) -> None:
        """Stop claiming new jobs; optionally join the claimers."""
        self._stop.set()
        self.store.close()
        if wait:
            for thread in self._threads:
                thread.join(timeout=5.0)
        self._threads.clear()
        self._discard_pool()

    @property
    def busy(self) -> int:
        with self._lock:
            return self._busy

    def utilization(self) -> float:
        """Fraction of workers currently running a job."""
        return self.busy / self.workers

    # -- running one job ------------------------------------------------

    def run(
        self, job: Job, queue_wait_s: float = 0.0, log: JsonLogger | None = None
    ) -> "FailedOutcome | tuple[Any, dict]":
        """Run *job* where the backend says; never raises.

        Returns ``(result, info)`` or a :class:`FailedOutcome`, because the
        claimer thread that calls it must survive any job.
        """
        kwargs = {
            "timeout": self.timeout,
            "retries": self.retries,
            "backoff": self.backoff,
            "name": f"job-{job.id}",
            "queue_wait_s": queue_wait_s,
        }
        if self.backend == "thread":
            return execute_job(job.kind, job.payload, self.cache, log=log, **kwargs)
        try:
            with self._lock:
                if self._pool is None:
                    self._pool = ProcessPoolExecutor(max_workers=self.workers)
                future = self._pool.submit(
                    process_job_entry, job.kind, job.payload, str(self.cache.root), **kwargs
                )
            outcome, worker_stats = future.result()
        except BrokenProcessPool:
            # The pool died under this job (worker killed, fork failure).
            # Keep serving: discard the pool (a fresh one is built lazily
            # for the next job) and degrade this job to in-thread execution.
            self._discard_pool()
            with self._lock:
                self.degraded += 1
            if log is not None:
                log.warning("backend.pool_broken", job_id=job.id, degraded=self.degraded)
            outcome = execute_job(job.kind, job.payload, self.cache, log=log, **kwargs)
            if not isinstance(outcome, FailedOutcome):
                result, info = outcome
                outcome = (result, {**info, "backend_degraded": True})
            return outcome
        # The worker's own registry increments died with its process; this
        # merge is their only path into the daemon's scrape.
        self.cache.stats.merge(worker_stats, mirror_metrics=True)
        return outcome

    def _discard_pool(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- worker loop ----------------------------------------------------

    def _worker(self) -> None:
        while not self._stop.is_set():
            job = self.store.claim(timeout=0.2)
            if job is None:
                continue
            with self._lock:
                self._busy += 1
                self.peak_busy = max(self.peak_busy, self._busy)
            try:
                self._execute(job)
            finally:
                with self._lock:
                    self._busy -= 1

    def _execute(self, job: Job) -> None:
        log = self.store.logger.bind(
            job_id=job.id, correlation_id=job.correlation_id, kind=job.kind
        )
        queue_wait_s = max(0.0, (job.started_at or 0.0) - job.submitted_at)
        outcome = self.run(job, queue_wait_s=queue_wait_s, log=log)
        telemetry = {"queue_wait_s": round(queue_wait_s, 6)}
        if isinstance(outcome, FailedOutcome):
            self.store.fail(job.id, outcome.to_dict(), info=telemetry)
        else:
            result, info = outcome
            self.store.finish(job.id, result, {**info, **telemetry})
