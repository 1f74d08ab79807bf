"""Job store for the analysis service: lifecycle, coalescing, durability.

A :class:`JobStore` is the single source of truth the daemon's HTTP front
end and execution backend share.  Every submission becomes a :class:`Job`
with a monotonically increasing id and walks the lifecycle::

    queued -> running -> done | failed
    queued -> cancelled
    queued -> done | failed          (coalesced followers, see below)

State transitions happen under one lock, so a cancel can never race a
worker's claim: a queued job cancels immediately, and
:meth:`JobStore.claim` skips entries cancelled while waiting in the queue.
A *running* job is cancelled cooperatively — MiniC interpretation holds no
cancellation points, so ``DELETE /v1/jobs/<id>`` marks the job
``cancel_requested`` and the worker's completion is recorded as
``cancelled`` (its result document discarded) instead of ``done`` or
``failed``.  Only already-terminal jobs refuse cancellation.

**Digest-keyed coalescing.**  Every submission is content-addressed at
submit time by :func:`job_digest` — for ``source`` jobs the same SHA-256
the profile cache derives from source + entry + materialized inputs (plus
the detection threshold), for ``bench``/``sweep`` jobs the canonical JSON
of the payload.  While a job with the same digest is still in flight
(queued or running, cancel not requested), a new identical submission
does not enqueue new work: it becomes a *follower* carrying
``coalesced_with: <leader id>``, never claimed by a worker, and completed
in the same instant as its leader with the **same result document object**
(byte-identity across the N coalesced records is structural, not
re-computed).  Cancelling a follower detaches only that follower;
cancelling a queued leader promotes its oldest follower to run in its
place, so coalesced submitters never lose work to someone else's cancel.

**Admission control.**  With ``max_queue`` set, a submission that would
push the number of queued (non-follower) jobs past the bound raises
:class:`QueueFull` instead of enqueueing — the HTTP layer maps it to
``429`` with a ``Retry-After`` estimated from the store's run-time EMA.
Followers bypass the bound (they add no work).

**Durability.**  With ``db_path`` set, every transition is written through
to a WAL-mode sqlite database (:mod:`repro.service.store`); a restarting
store re-serves terminal results warm and re-enqueues jobs the dead
daemon left ``queued``/``running`` (``info.recovered`` marks them).  The
existing JSONL transition log is kept as the append-only audit trail.

Job records serialize through the versioned envelope of
:func:`repro.patterns.schema.job_record` (now carrying ``digest``,
``coalesced_with``, and ``backend``); a failed job's ``error`` field is
the :class:`~repro.runtime.parallel.FailedOutcome` document with its
``"failed": true`` marker, so service consumers reuse the sweep's failure
decoding unchanged.  History is bounded — terminal jobs beyond
``max_history`` are evicted oldest-first (queued and running jobs are
never evicted).

Telemetry: every transition emits a structured ``job.transition`` record
through a :class:`repro.obs.logs.JsonLogger`, each record carrying the
job's ``correlation_id``; and the store maintains the daemon's job
metrics — ``repro_jobs_{submitted,completed,failed,cancelled,coalesced,
rejected}_total`` counters plus the ``repro_job_queue_wait_seconds`` and
``repro_job_run_seconds{kind=}`` histograms — in the process-wide
registry scraped at ``/v1/metrics``.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.obs.logs import JsonLogger, new_correlation_id
from repro.obs.metrics import get_registry
from repro.patterns.schema import JOB_STATES, job_record
from repro.service.store import SqliteJobLog

#: Job kinds the executor knows how to run.
JOB_KINDS = ("source", "bench", "sweep")

#: States a job never leaves.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


class QueueFull(RuntimeError):
    """Submission rejected: the queue is at its admission-control bound."""

    def __init__(self, depth: int, max_queue: int) -> None:
        super().__init__(
            f"queue is full ({depth} queued, bound {max_queue}); retry later"
        )
        self.depth = depth
        self.max_queue = max_queue


def build_call_args(specs: Iterable[Sequence[str]], seed: int = 0) -> list:
    """Materialize one entry-function argument list from a portable spec.

    *specs* is an ordered sequence of ``(kind, value)`` pairs — the same
    left-to-right convention as the CLI's ``--scalar/--zeros/--rand``
    options, which delegate here — where ``kind`` is ``"scalar"``,
    ``"zeros"``, or ``"rand"`` and ``value`` is the option text (``"5"``,
    ``"A:40,40"``).  Random arrays come from a generator seeded with *seed*,
    so a spec is a complete, JSON-friendly description of the inputs: the
    service and the CLI build bit-identical argument sets from it.
    """
    rng = np.random.default_rng(seed)
    call_args: list = []
    for kind, value in specs:
        if kind == "scalar":
            call_args.append(float(value) if "." in value else int(value))
        elif kind in ("zeros", "rand"):
            name, _, shape_txt = value.partition(":")
            if not shape_txt:
                shape_txt = name
            shape = tuple(int(s) for s in shape_txt.split(",") if s)
            call_args.append(np.zeros(shape) if kind == "zeros" else rng.random(shape))
        else:
            raise ValueError(f"unknown argument kind {kind!r}")
    return call_args


def job_digest(kind: str, payload: dict[str, Any]) -> str:
    """Content address of the work one submission describes.

    Two submissions share a digest exactly when executing either would
    produce the same result document:

    * ``source`` — the profile cache's own content address
      (:func:`repro.profiling.cache.profile_cache_key` over source text,
      entry name, and the **materialized** argument sets, so spec + seed
      equality means bit-identical inputs) combined with the detection
      threshold;
    * ``bench`` / ``sweep`` — the canonical JSON of the payload (name or
      name list plus every fault-tolerance knob that could change which
      failure records appear).

    Raises :class:`ValueError` for a malformed ``args`` spec — submission
    time is where bad inputs should surface, not inside a worker.
    """
    h = hashlib.sha256()
    h.update(f"repro-job:{kind}\x00".encode())
    if kind == "source":
        from repro.profiling.cache import profile_cache_key
        from repro.profiling.hotspots import DEFAULT_THRESHOLD

        arg_sets = [build_call_args(payload.get("args", []), int(payload.get("seed", 0)))]
        h.update(
            profile_cache_key(
                payload.get("source", ""), payload.get("entry", ""), arg_sets
            ).encode()
        )
        h.update(
            f"\x00threshold={float(payload.get('threshold', DEFAULT_THRESHOLD))!r}".encode()
        )
    else:
        from repro.profiling.serialize import canonical_json

        h.update(canonical_json(dict(payload)).encode())
    return h.hexdigest()


def _public_payload(kind: str, payload: dict[str, Any]) -> dict[str, Any]:
    """The payload as exposed in job records: source text becomes a digest.

    Raw MiniC source can be large and records are listed, persisted, and
    polled repeatedly, so ``source`` jobs carry a sha256 + line count in
    place of the text (the analysis result embeds the source anyway).
    """
    public = {k: v for k, v in payload.items() if k != "source"}
    if kind == "source":
        source = payload.get("source", "")
        public["source_sha256"] = hashlib.sha256(source.encode("utf-8")).hexdigest()
        public["source_lines"] = source.count("\n") + bool(source)
    return public


@dataclass
class Job:
    """One submission and everything the service knows about it."""

    id: int
    kind: str
    payload: dict[str, Any]
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    #: analysis / outcome document(s) once the job is ``done``
    result: Any = None
    #: :class:`FailedOutcome` document once the job is ``failed``
    error: dict[str, Any] | None = None
    #: side-channel facts that must not perturb the result document
    #: (e.g. ``profile_cache_hit``, ``recovered``)
    info: dict[str, Any] = field(default_factory=dict)
    #: opaque id correlating this job's log records across every layer
    #: (client submission -> store transitions -> worker -> run_one);
    #: client-generated when provided, otherwise minted at submit time
    correlation_id: str = ""
    #: set when a cancel arrived while the job was already running; the
    #: worker's completion is then recorded as ``cancelled``
    cancel_requested: bool = False
    #: content address of the work (see :func:`job_digest`)
    digest: str = ""
    #: leader job id when this submission coalesced onto in-flight work
    coalesced_with: int | None = None
    #: execution backend that runs (or ran) this job's analysis
    backend: str = "thread"

    def to_dict(self, include_result: bool = True) -> dict[str, Any]:
        """The versioned job-record envelope for this job.

        ``include_result=False`` gives the listing summary: everything but
        the (potentially multi-megabyte) result document.
        """
        doc: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "payload": _public_payload(self.kind, self.payload),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "info": dict(self.info),
            "correlation_id": self.correlation_id,
            "cancel_requested": self.cancel_requested,
            "digest": self.digest,
            "coalesced_with": self.coalesced_with,
            "backend": self.backend,
        }
        if include_result:
            doc["result"] = self.result
        return job_record(doc)


class JobStore:
    """Thread-safe job registry + FIFO queue with coalescing + durability."""

    def __init__(
        self,
        max_history: int = 256,
        jsonl_path: str | None = None,
        db_path: str | None = None,
        max_queue: int | None = None,
        backend: str = "thread",
    ) -> None:
        self.max_history = max(1, max_history)
        self.jsonl_path = jsonl_path
        self.max_queue = max_queue
        self.backend = backend
        self._log = JsonLogger(path=jsonl_path) if jsonl_path else JsonLogger()
        self._cond = threading.Condition()
        self._jobs: dict[int, Job] = {}
        self._queue: deque[int] = deque()
        self._terminal: deque[int] = deque()
        self._ids = itertools.count(1)
        self._closed = False
        #: digest -> id of the in-flight leader new submissions attach to
        self._inflight: dict[str, int] = {}
        #: leader id -> follower ids awaiting its result
        self._followers: dict[int, list[int]] = {}
        self.submitted = 0
        self.evicted = 0
        self.coalesced = 0
        self.rejected = 0
        self.recovered = 0
        #: EMA of recent run times — the Retry-After estimator's input
        self.avg_run_s = 0.0
        metrics = get_registry()
        self._submitted_total = metrics.counter(
            "repro_jobs_submitted_total", "Jobs accepted into the queue"
        )
        self._completed_total = metrics.counter(
            "repro_jobs_completed_total", "Jobs finished in the done state"
        )
        self._failed_total = metrics.counter(
            "repro_jobs_failed_total", "Jobs finished in the failed state"
        )
        self._cancelled_total = metrics.counter(
            "repro_jobs_cancelled_total",
            "Jobs cancelled (while queued or cooperatively while running)",
        )
        self._coalesced_total = metrics.counter(
            "repro_jobs_coalesced_total",
            "Submissions attached to an identical in-flight job by digest",
        )
        self._rejected_total = metrics.counter(
            "repro_jobs_rejected_total",
            "Submissions rejected by admission control (queue at bound)",
        )
        self._queue_wait_seconds = metrics.histogram(
            "repro_job_queue_wait_seconds",
            "Seconds a job waited in the queue before a worker claimed it",
        )
        self._run_seconds = metrics.histogram(
            "repro_job_run_seconds",
            "Seconds a worker spent running a claimed job",
            labelnames=("kind",),
        )
        self._db = SqliteJobLog(db_path) if db_path else None
        if self._db is not None:
            self._restore()

    @property
    def persist_errors(self) -> int:
        """Transition-log appends that failed (disk full, unwritable path);
        the in-memory store keeps working — persistence is best-effort."""
        return self._log.errors

    @property
    def db_errors(self) -> int:
        """Failed sqlite write-throughs (best-effort, like the JSONL log)."""
        return self._db.errors if self._db is not None else 0

    @property
    def logger(self) -> JsonLogger:
        """The store's structured transition logger (shared sink)."""
        return self._log

    # -- durable restore ------------------------------------------------

    def _restore(self) -> None:
        """Replay the sqlite table into memory (constructor-time only).

        Terminal jobs come back whole (results served warm); interrupted
        ``queued``/``running`` jobs are reset to ``queued`` and re-enter
        the run queue with ``info.recovered`` set — unless a cancel was
        already requested, in which case the restart grants it.  Follower
        links are re-attached when the leader is also still in flight and
        dissolved (the follower runs on its own) when it is not.
        """
        rows = self._db.load_rows()
        max_id = 0
        interrupted: list[Job] = []
        for row in rows:
            max_id = max(max_id, row["id"])
            job = Job(**row)
            self._jobs[job.id] = job
            if job.state in TERMINAL_STATES:
                self._terminal.append(job.id)
            else:
                interrupted.append(job)
        leaders = {
            j.id for j in interrupted if j.coalesced_with is None and not j.cancel_requested
        }
        for job in interrupted:
            if job.cancel_requested:
                # the dead daemon never got to record the cancel; grant it now
                job.state = "cancelled"
                job.finished_at = time.time()
                job.result = None
                job.error = None
                self._terminal.append(job.id)
                self._db.upsert(job)
                continue
            job.state = "queued"
            job.started_at = None
            job.info["recovered"] = True
            self.recovered += 1
            if job.coalesced_with is not None and job.coalesced_with in leaders:
                self._followers.setdefault(job.coalesced_with, []).append(job.id)
            else:
                job.coalesced_with = None
                self._queue.append(job.id)
                if job.digest:
                    self._inflight.setdefault(job.digest, job.id)
            self._db.upsert(job)
        while len(self._terminal) > self.max_history:
            evicted = self._terminal.popleft()
            if self._jobs.pop(evicted, None) is not None:
                self.evicted += 1
                self._db.delete(evicted)
        self._ids = itertools.count(max_id + 1)

    # -- submission / claiming ------------------------------------------

    def _queued_depth(self) -> int:
        """Queued non-follower jobs — the work the backend still owes."""
        return sum(
            1
            for job in self._jobs.values()
            if job.state == "queued" and job.coalesced_with is None
        )

    def submit(
        self,
        kind: str,
        payload: dict[str, Any],
        correlation_id: str | None = None,
    ) -> Job:
        """Enqueue a new job; returns it in the ``queued`` state.

        Identical in-flight work (same :func:`job_digest`) absorbs the
        submission as a follower instead of enqueueing a duplicate run.
        Raises :class:`QueueFull` when admission control rejects the
        submission and :class:`ValueError` for an unknown kind or a
        malformed ``args`` spec.

        *correlation_id* is normally minted by the submitting client so the
        caller can grep its own logs for the same id; one is generated here
        when absent so every job is correlatable.
        """
        if kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {kind!r}")
        digest = job_digest(kind, payload)
        with self._cond:
            if self._closed:
                raise RuntimeError("job store is closed")
            leader = self._jobs.get(self._inflight.get(digest, -1))
            if (
                leader is not None
                and leader.state in ("queued", "running")
                and not leader.cancel_requested
            ):
                job = Job(
                    id=next(self._ids),
                    kind=kind,
                    payload=dict(payload),
                    correlation_id=correlation_id or new_correlation_id(),
                    digest=digest,
                    coalesced_with=leader.id,
                    backend=self.backend,
                )
                self._jobs[job.id] = job
                self._followers.setdefault(leader.id, []).append(job.id)
                self.submitted += 1
                self.coalesced += 1
                self._submitted_total.inc()
                self._coalesced_total.inc()
                self._persist(job)
                return job
            if self.max_queue is not None:
                depth = self._queued_depth()
                if depth >= self.max_queue:
                    self.rejected += 1
                    self._rejected_total.inc()
                    raise QueueFull(depth, self.max_queue)
            job = Job(
                id=next(self._ids),
                kind=kind,
                payload=dict(payload),
                correlation_id=correlation_id or new_correlation_id(),
                digest=digest,
                backend=self.backend,
            )
            self._jobs[job.id] = job
            self._queue.append(job.id)
            self._inflight[digest] = job.id
            self.submitted += 1
            self._submitted_total.inc()
            self._persist(job)
            self._cond.notify()
        return job

    def claim(self, timeout: float | None = None) -> Job | None:
        """Pop the next queued job and mark it ``running`` atomically.

        Blocks up to *timeout* seconds (forever when None) for work; returns
        None on timeout or once the store is closed.  Jobs cancelled while
        queued are skipped here — cancellation and claiming share the lock.
        Followers never enter the queue, so they are never claimed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                while self._queue:
                    job = self._jobs.get(self._queue.popleft())
                    if job is None or job.state != "queued":
                        continue
                    job.state = "running"
                    job.started_at = time.time()
                    self._queue_wait_seconds.observe(
                        max(0.0, job.started_at - job.submitted_at)
                    )
                    self._persist(job)
                    return job
                if self._closed:
                    return None
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)

    def close(self) -> None:
        """Stop accepting submissions and wake every waiting claimer."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def dispose(self) -> None:
        """Close the store and release the sqlite connection.

        In-flight workers finishing after this point keep the in-memory
        store coherent; their sqlite writes land as counted errors — the
        same crash-consistency a real kill gives, which is exactly what
        the restart path is built to absorb.
        """
        self.close()
        if self._db is not None:
            self._db.close()

    # -- transitions ----------------------------------------------------

    def finish(self, job_id: int, result: Any, info: dict[str, Any] | None = None) -> Job:
        """Transition a running job to ``done`` with its result document."""
        return self._complete(job_id, "done", result=result, info=info)

    def fail(self, job_id: int, error: dict[str, Any], info: dict[str, Any] | None = None) -> Job:
        """Transition a running job to ``failed`` with its failure record."""
        return self._complete(job_id, "failed", error=error, info=info)

    def cancel(self, job_id: int) -> Job:
        """Cancel a job that has not finished yet.

        A *queued* job becomes ``cancelled`` immediately; a queued
        **leader** with coalesced followers promotes its oldest follower
        into the queue first, so the shared work still runs for everyone
        else.  A *running* job is cancelled cooperatively: MiniC
        interpretation holds no cancellation points, so the job is marked
        ``cancel_requested`` (its state stays ``running``) and the
        worker's eventual completion is recorded as ``cancelled`` with the
        result discarded — attached followers still receive the real
        outcome.  Raises :class:`KeyError` for an unknown id and
        :class:`ValueError` for a job already in a terminal state.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"no job {job_id}")
            if job.state == "queued":
                if job.coalesced_with is not None:
                    # follower: detach quietly, the leader keeps running
                    siblings = self._followers.get(job.coalesced_with)
                    if siblings and job.id in siblings:
                        siblings.remove(job.id)
                else:
                    self._promote_follower(job)
                job.state = "cancelled"
                job.finished_at = time.time()
                self._cancelled_total.inc()
                self._retire(job)
                return job
            if job.state == "running":
                if not job.cancel_requested:
                    job.cancel_requested = True
                    self._persist(job, event="job.cancel_requested")
                return job
            raise ValueError(f"job {job_id} is {job.state}, already terminal")

    def _promote_follower(self, leader: Job) -> None:
        """Hand a cancelled queued leader's work to its oldest follower."""
        if self._inflight.get(leader.digest) == leader.id:
            self._inflight.pop(leader.digest, None)
        followers = self._followers.pop(leader.id, [])
        promoted: Job | None = None
        rest: list[int] = []
        for fid in followers:
            f = self._jobs.get(fid)
            if f is None or f.state != "queued":
                continue
            if promoted is None:
                promoted = f
            else:
                f.coalesced_with = promoted.id
                rest.append(fid)
        if promoted is None:
            return
        promoted.coalesced_with = None
        self._queue.append(promoted.id)
        self._inflight[promoted.digest] = promoted.id
        if rest:
            self._followers[promoted.id] = rest
        self._persist(promoted, event="job.promoted")
        self._cond.notify()

    def _complete(
        self,
        job_id: int,
        state: str,
        result: Any = None,
        error: dict[str, Any] | None = None,
        info: dict[str, Any] | None = None,
    ) -> Job:
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"no job {job_id}")
            if job.state != "running":
                raise ValueError(f"job {job_id} is {job.state}, not running")
            job.finished_at = time.time()
            if job.started_at is not None:
                run_s = max(0.0, job.finished_at - job.started_at)
                self._run_seconds.labels(kind=job.kind).observe(run_s)
                self.avg_run_s = (
                    run_s if self.avg_run_s == 0.0
                    else 0.8 * self.avg_run_s + 0.2 * run_s
                )
            if job.cancel_requested:
                # the run completed, but a cancel arrived mid-flight: the
                # outcome the caller no longer wants is discarded, only what
                # it *was* is kept for the record
                job.state = "cancelled"
                job.result = None
                job.error = None
                job.info["completed_as"] = state
                self._cancelled_total.inc()
            else:
                job.state = state
                job.result = result
                job.error = error
                (self._completed_total if state == "done" else self._failed_total).inc()
            if info:
                job.info.update(info)
            if self._inflight.get(job.digest) == job.id:
                self._inflight.pop(job.digest, None)
            self._retire(job)
            # followers receive the run's real outcome — even when the
            # leader itself was cooperatively cancelled mid-flight, the
            # completed work belongs to everyone who coalesced onto it
            for fid in self._followers.pop(job.id, []):
                follower = self._jobs.get(fid)
                if follower is None or follower.state != "queued":
                    continue
                follower.state = state
                follower.started_at = job.started_at
                follower.finished_at = job.finished_at
                follower.result = result
                follower.error = error
                (self._completed_total if state == "done" else self._failed_total).inc()
                self._retire(follower)
            return job

    def _retire(self, job: Job) -> None:
        """Record a terminal transition: persist, then bound the history."""
        self._persist(job)
        self._terminal.append(job.id)
        while len(self._terminal) > self.max_history:
            evicted = self._terminal.popleft()
            if self._jobs.pop(evicted, None) is not None:
                self.evicted += 1
                if self._db is not None:
                    self._db.delete(evicted)

    # -- queries --------------------------------------------------------

    def get(self, job_id: int) -> Job | None:
        with self._cond:
            return self._jobs.get(job_id)

    def list_jobs(
        self,
        state: str | None = None,
        kind: str | None = None,
        limit: int | None = None,
    ) -> list[Job]:
        """Retained jobs **newest first** (descending id), optionally filtered.

        One documented order whether or not *limit* is given: the listing
        always starts at the most recent submission, and *limit* merely
        truncates it — ``limit=N`` is "the last N", ``limit=0`` is
        explicitly zero rows, ``limit=None`` is everything.  (The listing
        used to flip between oldest-first and newest-first depending on
        whether a limit was set; pagination must never change order.)
        """
        with self._cond:
            jobs = [
                job
                for job_id in sorted(self._jobs, reverse=True)
                if (job := self._jobs[job_id])
                and (state is None or job.state == state)
                and (kind is None or job.kind == kind)
            ]
        if limit is not None:
            jobs = jobs[: max(0, limit)]
        return jobs

    def counts(self) -> dict[str, Any]:
        """Queue-depth and per-state tallies for ``/v1/stats``."""
        with self._cond:
            states = {s: 0 for s in JOB_STATES}
            for job in self._jobs.values():
                states[job.state] += 1
            return {
                "states": states,
                "queue_depth": self._queued_depth(),
                "submitted": self.submitted,
                "retained": len(self._jobs),
                "evicted": self.evicted,
                "coalesced": self.coalesced,
                "rejected": self.rejected,
                "recovered": self.recovered,
                "persist_errors": self.persist_errors,
                "db_errors": self.db_errors,
            }

    # -- persistence ----------------------------------------------------

    def _persist(self, job: Job, event: str = "job.transition") -> None:
        """Record *job*'s current state: sqlite write-through + log line.

        The sqlite row (when a ``db_path`` was given) carries the full
        job including its result document — that is what a restart serves
        warm.  The structured log line is the human/audit view: one JSON
        object with timestamp, level, *event*, the job's correlation id,
        and the versioned job-record envelope under ``record`` (result
        document excluded — results can be megabytes and are fetchable
        from the store).  Both are best-effort.
        """
        if self._db is not None:
            self._db.upsert(job)
        if not self._log.active:
            return
        self._log.info(
            event,
            job_id=job.id,
            correlation_id=job.correlation_id,
            state=job.state,
            kind=job.kind,
            record=job.to_dict(include_result=False),
        )
