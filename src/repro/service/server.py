"""HTTP front end for the analysis daemon.

Built on :class:`http.server.ThreadingHTTPServer` (stdlib only); request
threads just enqueue into / read from the shared
:class:`~repro.service.jobs.JobStore`, so submissions return immediately
with ``202 Accepted`` while the bounded worker pool drains the queue
through the configured backend (``thread`` or ``process`` — see
:mod:`repro.service.executor`).

Endpoints (all JSON):

====================  ======================================================
``POST /v1/jobs``     submit a job: ``{"kind": "source", "source": ...,
                      "entry": ..., "args": [["rand", "A:24,24"], ...]}``,
                      ``{"kind": "bench", "name": "reg_detect"}``, or
                      ``{"kind": "sweep", "names": [...]}``; identical
                      in-flight work coalesces (the 202 record carries
                      ``coalesced_with``); a full queue answers ``429``
                      with a ``Retry-After`` header.  A JSON **array** of
                      such objects submits a batch: all items validate
                      before any enqueue (400 lists per-index errors and
                      nothing is admitted), success answers 202
                      ``{"jobs": [...]}``, and queue-full mid-batch
                      answers 429 with the ``accepted`` prefix so clients
                      resubmit only the tail
``GET /v1/jobs``      list retained jobs, **newest first** (``?state=``,
                      ``?kind=`` filters; ``?limit=N`` truncates to the
                      newest N, ``?limit=0`` is explicitly zero rows);
                      summaries only — results are fetched per job
``GET /v1/jobs/<id>``     full job record: status, timestamps, result/error
``DELETE /v1/jobs/<id>``  cancel a job: queued jobs cancel immediately,
                          running jobs cooperatively (``cancel_requested``
                          until the worker finishes); 409 once terminal
``GET /v1/health``    liveness + uptime
``GET /v1/stats``     queue depth, per-state tallies, worker utilization,
                      backend + admission-control state, per-client
                      request accounting, and the shared profile cache's
                      counters
``GET /v1/version``   ``repro.__version__`` + analysis schema version
``GET /v1/metrics``   Prometheus text exposition of the process registry
                      (**not** JSON — scrape it, or ``repro metrics``)
====================  ======================================================

Clients self-identify with an ``X-Repro-Client`` header (the bundled
:class:`~repro.service.client.ServiceClient` always sends one; anonymous
callers are keyed by remote address) — ``/v1/stats`` reports per-client
accepted/coalesced/rejected tallies and ``/v1/metrics`` exposes them as
``repro_client_requests_total{client=...,outcome=...}``.

Error responses are ``{"error": <message>}`` with the usual status codes
(400 malformed submission, 404 unknown job/route, 409 not cancellable,
413 body over :data:`MAX_BODY_BYTES`, 429 queue full, 500 unexpected
handler failure — never an HTML traceback).
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro import __version__
from repro.obs.metrics import get_registry
from repro.patterns.schema import SCHEMA_VERSION
from repro.service.executor import AnalysisExecutor
from repro.service.jobs import JOB_KINDS, JobStore, QueueFull

#: Per-client accounting keeps at most this many distinct identities; the
#: long tail aggregates under ``_other`` so a client-id cardinality attack
#: cannot balloon daemon memory or scrape size.
MAX_TRACKED_CLIENTS = 64

#: Largest ``POST /v1/jobs`` body the daemon reads; a larger declared
#: ``Content-Length`` is answered 413 before any of the body is read.
MAX_BODY_BYTES = 4 * 1024 * 1024


def _reject_constant(name: str) -> float:
    """``json.loads`` hook: ``NaN``, ``Infinity`` and ``-Infinity`` are not
    JSON, and no field of a submission can take them."""
    raise ValueError(f"request body holds {name}, which is not a JSON number")


class AnalysisService:
    """The daemon: one job store, one worker pool, one HTTP server.

    ``port=0`` binds an ephemeral port (read it back from ``self.port``) —
    the idiom tests and embedded use rely on.  Run blocking with
    :meth:`serve_forever` (the CLI's ``repro serve``) or off-thread with
    :meth:`start_background`; either way :meth:`shutdown` stops the HTTP
    loop and the workers.

    *backend* says where jobs run (one of
    :data:`~repro.service.executor.BACKENDS`); *db_path* makes the job
    store durable across restarts (sqlite, WAL); *max_queue* arms
    admission control (queue at bound → 429 + ``Retry-After``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        workers: int = 2,
        cache_dir: str | None = None,
        max_history: int = 256,
        jsonl_path: str | None = None,
        timeout: float | None = None,
        retries: int = 0,
        backend: str = "thread",
        db_path: str | None = None,
        max_queue: int | None = None,
    ) -> None:
        self.store = JobStore(
            max_history=max_history,
            jsonl_path=jsonl_path,
            db_path=db_path,
            max_queue=max_queue,
            backend=backend,
        )
        self.executor = AnalysisExecutor(
            self.store,
            workers=workers,
            cache_dir=cache_dir,
            timeout=timeout,
            retries=retries,
            backend=backend,
        )
        self.started_at = time.time()
        self._client_lock = threading.Lock()
        self._clients: dict[str, dict[str, int]] = {}
        self._client_requests = get_registry().counter(
            "repro_client_requests_total",
            "Submission outcomes per client identity",
            labelnames=("client", "outcome"),
        )
        handler = type("AnalysisRequestHandler", (_Handler,), {"service": self})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Start the workers and block serving HTTP until :meth:`shutdown`."""
        self.executor.start()
        self.httpd.serve_forever(poll_interval=0.2)

    def start_background(self) -> None:
        """Start workers + HTTP loop on a daemon thread and return."""
        self.executor.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()

    def shutdown(self) -> None:
        """Stop the HTTP loop, drain the workers, release socket + sqlite."""
        self.httpd.shutdown()
        self.httpd.server_close()
        # Wait for in-flight jobs so their terminal rows land in sqlite —
        # a clean shutdown leaves nothing for the next start to recover.
        self.executor.shutdown(wait=True)
        self.store.dispose()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- request-level operations (called from handler threads) ---------

    def record_client(self, client: str, outcome: str) -> None:
        """Tally one submission *outcome* for *client* (stats + metrics)."""
        with self._client_lock:
            if client not in self._clients and len(self._clients) >= MAX_TRACKED_CLIENTS:
                client = "_other"
            tallies = self._clients.setdefault(
                client, {"accepted": 0, "coalesced": 0, "rejected": 0}
            )
            tallies[outcome] = tallies.get(outcome, 0) + 1
        self._client_requests.labels(client=client, outcome=outcome).inc()

    def retry_after_s(self) -> int:
        """Seconds a 429'd client should wait before resubmitting.

        Estimated drain time for the current queue: depth x the store's
        run-time EMA / worker count, **rounded up to whole seconds** (RFC
        9110 §10.2.3 allows only integer ``delay-seconds`` in a
        ``Retry-After`` header) and clamped to [1, 60] so the hint is
        always usable even before any job has finished (EMA still zero).
        """
        counts = self.store.counts()
        avg = self.store.avg_run_s or 1.0
        estimate = counts["queue_depth"] * avg / max(1, self.executor.workers)
        return max(1, min(60, math.ceil(estimate)))

    def validate_submission(
        self, body: dict[str, Any]
    ) -> tuple[str, dict[str, Any], str | None]:
        """Validate a submission body without enqueueing anything.

        Returns ``(kind, payload, correlation_id)`` ready for the job
        store; raises :class:`ValueError` on any malformed field.  Batch
        submissions validate every item through here *first*, so a 400
        response guarantees nothing from the batch was enqueued.
        """
        kind = body.get("kind")
        if kind not in JOB_KINDS:
            raise ValueError(f"kind must be one of {list(JOB_KINDS)}, got {kind!r}")
        if kind == "source":
            if not body.get("source") or not body.get("entry"):
                raise ValueError("source jobs require 'source' and 'entry'")
            args = body.get("args", [])
            if not all(
                isinstance(a, (list, tuple)) and len(a) == 2 for a in args
            ):
                raise ValueError("'args' must be a list of [kind, value] pairs")
        elif kind == "bench":
            from repro.bench_programs.registry import all_benchmarks

            names = {spec.name for spec in all_benchmarks()}
            if body.get("name") not in names:
                raise ValueError(f"unknown benchmark {body.get('name')!r}")
            # campaign-cell knobs: reject malformed values at submission,
            # not as a failed job a poller discovers later
            scale = body.get("scale")
            if scale is not None:
                if not isinstance(scale, (int, float)) or isinstance(scale, bool) \
                        or scale <= 0:
                    raise ValueError(f"'scale' must be a positive number, got {scale!r}")
            threshold = body.get("threshold")
            if threshold is not None:
                if not isinstance(threshold, (int, float)) or isinstance(threshold, bool) \
                        or not 0 <= threshold <= 1:
                    raise ValueError(
                        f"'threshold' must be a number in [0, 1], got {threshold!r}"
                    )
            min_pairs = body.get("min_pairs")
            if min_pairs is not None:
                if not isinstance(min_pairs, int) or isinstance(min_pairs, bool) \
                        or min_pairs < 0:
                    raise ValueError(
                        f"'min_pairs' must be a non-negative integer, got {min_pairs!r}"
                    )
            machine = body.get("machine")
            if machine is not None:
                import dataclasses

                from repro.sim.machine import Machine

                known_fields = {
                    f.name for f in dataclasses.fields(Machine) if f.name != "threads"
                }
                if not isinstance(machine, dict):
                    raise ValueError("'machine' must be a mapping of Machine fields")
                bad = sorted(set(machine) - known_fields)
                if bad:
                    raise ValueError(
                        f"unknown machine fields {bad!r}; "
                        f"expected a subset of {sorted(known_fields)}"
                    )
                for field, value in machine.items():
                    # bandwidth divides by min(threads, bw_saturation)
                    floor = 1 if field == "bw_saturation" else 0
                    if not isinstance(value, (int, float)) or isinstance(value, bool) \
                            or value < floor:
                        raise ValueError(
                            f"machine field {field!r} must be a number >= "
                            f"{floor}, got {value!r}"
                        )
        elif kind == "sweep":
            # An unknown name must be a 400 here, not a failed job a poller
            # discovers minutes later.
            sweep_names = body.get("names")
            if sweep_names is not None:
                if not isinstance(sweep_names, (list, tuple)) or not all(
                    isinstance(n, str) for n in sweep_names
                ):
                    raise ValueError("'names' must be a list of benchmark names")
                from repro.bench_programs.registry import all_benchmarks

                known = {spec.name for spec in all_benchmarks()}
                unknown = sorted(set(sweep_names) - known)
                if unknown:
                    raise ValueError(f"unknown benchmarks {unknown!r}")
        correlation_id = body.get("correlation_id")
        if correlation_id is not None and not isinstance(correlation_id, str):
            raise ValueError("'correlation_id' must be a string")
        payload = {
            k: v for k, v in body.items() if k not in ("kind", "correlation_id")
        }
        return kind, payload, correlation_id

    def enqueue(
        self,
        kind: str,
        payload: dict[str, Any],
        correlation_id: str | None = None,
        client: str = "",
    ) -> dict[str, Any]:
        """Enqueue an already-validated submission, tallying per *client*.

        Lets :class:`QueueFull` propagate (HTTP 429) — admission-control
        rejections are tallied against *client* here so every rejection
        path is accounted.
        """
        try:
            job = self.store.submit(kind, payload, correlation_id=correlation_id)
        except QueueFull:
            if client:
                self.record_client(client, "rejected")
            raise
        if client:
            self.record_client(
                client, "coalesced" if job.coalesced_with is not None else "accepted"
            )
        return job.to_dict(include_result=False)

    def submit(self, body: dict[str, Any], client: str = "") -> dict[str, Any]:
        """Validate a submission body and enqueue it.

        Raises :class:`ValueError` for malformed bodies (HTTP 400) and
        lets :class:`QueueFull` propagate (HTTP 429).
        """
        kind, payload, correlation_id = self.validate_submission(body)
        return self.enqueue(kind, payload, correlation_id, client=client)

    def stats(self) -> dict[str, Any]:
        with self._client_lock:
            clients = {name: dict(t) for name, t in self._clients.items()}
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "backend": self.executor.backend,
            "jobs": self.store.counts(),
            "admission": {
                "max_queue": self.store.max_queue,
                "rejected": self.store.rejected,
                "retry_after_s": self.retry_after_s(),
                "avg_run_s": round(self.store.avg_run_s, 6),
            },
            "clients": clients,
            "workers": {
                "count": self.executor.workers,
                "busy": self.executor.busy,
                "peak_busy": self.executor.peak_busy,
                "utilization": round(self.executor.utilization(), 4),
            },
            "cache": self.executor.cache.stats.as_dict(),
        }


class _Handler(BaseHTTPRequestHandler):
    """Routes ``/v1/...`` onto the owning :class:`AnalysisService`."""

    service: AnalysisService  # bound by the per-service subclass
    protocol_version = "HTTP/1.1"

    # The daemon prints one startup line; per-request logging stays off so
    # stdout/stderr remain usable in pipelines and tests.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _send(
        self, status: int, doc: Any, headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self, status: int, message: str, headers: dict[str, str] | None = None
    ) -> None:
        self._send(status, {"error": message}, headers=headers)

    def _job_id(self, path: str) -> int | None:
        tail = path[len("/v1/jobs/"):]
        return int(tail) if tail.isdigit() else None

    def _client_id(self) -> str:
        """The caller's self-declared identity, or its remote address."""
        return (
            self.headers.get("X-Repro-Client", "").strip()
            or f"addr:{self.client_address[0]}"
        )

    def _guarded(self, handler) -> None:
        """Run *handler*; any unexpected failure becomes a JSON 500.

        Without this, a handler bug surfaces as ``http.server``'s HTML
        traceback page — unparseable by API clients and silent in the
        daemon's logs.  The log record keeps the detail; the response
        carries a one-line summary.
        """
        try:
            handler()
        except BrokenPipeError:
            pass  # client hung up mid-response; nothing to answer
        except Exception as exc:  # noqa: BLE001 — the catch-all is the point
            self.service.store.logger.error(
                "http.error",
                method=self.command,
                path=self.path,
                error=f"{type(exc).__name__}: {exc}",
            )
            try:
                self._error(500, f"internal error: {type(exc).__name__}: {exc}")
            except Exception:  # noqa: BLE001 — socket already unusable
                pass

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._guarded(self._do_get)

    def do_POST(self) -> None:  # noqa: N802
        self._guarded(self._do_post)

    def do_DELETE(self) -> None:  # noqa: N802
        self._guarded(self._do_delete)

    def _do_get(self) -> None:
        url = urlparse(self.path)
        path = url.path.rstrip("/") or "/"
        if path == "/v1/health":
            self._send(200, {
                "status": "ok",
                "uptime_s": round(time.time() - self.service.started_at, 3),
            })
        elif path == "/v1/version":
            self._send(200, {
                "version": __version__,
                "schema_version": SCHEMA_VERSION,
            })
        elif path == "/v1/stats":
            self._send(200, self.service.stats())
        elif path == "/v1/metrics":
            self._send_text(200, get_registry().render())
        elif path == "/v1/jobs":
            query = parse_qs(url.query)
            limit_txt = query.get("limit", [None])[0]
            if limit_txt is not None and not limit_txt.isdigit():
                self._error(400, f"limit must be a non-negative integer, got {limit_txt!r}")
                return
            jobs = self.service.store.list_jobs(
                state=query.get("state", [None])[0],
                kind=query.get("kind", [None])[0],
                limit=int(limit_txt) if limit_txt is not None else None,
            )
            self._send(200, {
                "jobs": [job.to_dict(include_result=False) for job in jobs],
            })
        elif path.startswith("/v1/jobs/"):
            job_id = self._job_id(path)
            job = None if job_id is None else self.service.store.get(job_id)
            if job is None:
                self._error(404, f"no job {path[len('/v1/jobs/'):]!r}")
            else:
                self._send(200, job.to_dict())
        else:
            self._error(404, f"no route {path!r}")

    def _do_post(self) -> None:
        if urlparse(self.path).path.rstrip("/") != "/v1/jobs":
            self._error(404, f"no route {self.path!r}")
            return
        raw_length = self.headers.get("Content-Length", "0")
        # RFC 9110 §8.6: Content-Length is a non-negative decimal integer.
        # Validate before int() so a malformed header is a clean 400 with a
        # JSON body, not a bare ValueError bubbling toward the 500 path.
        if not raw_length.strip().isdigit():
            self._error(
                400,
                f"invalid Content-Length header: {raw_length!r} "
                "(must be a non-negative integer)",
            )
            return
        try:
            length = int(raw_length)
            if length > MAX_BODY_BYTES:
                # Refuse without reading: the unread body leaves the
                # connection unusable, so it closes after this answer.
                self._error(
                    413,
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                    headers={"Connection": "close"},
                )
                return
            body = json.loads(
                self.rfile.read(length) or b"{}", parse_constant=_reject_constant
            )
            if isinstance(body, list):
                self._post_batch(body)
                return
            if not isinstance(body, dict):
                raise ValueError("submission body must be a JSON object or array")
            record = self.service.submit(body, client=self._client_id())
        except QueueFull as exc:
            self._error(
                429, str(exc),
                headers={"Retry-After": str(self.service.retry_after_s())},
            )
            return
        except (ValueError, json.JSONDecodeError) as exc:
            self._error(400, str(exc))
            return
        self._send(202, record)

    def _post_batch(self, bodies: list[Any]) -> None:
        """A JSON array body: atomic validation, sequential admission.

        Every item is validated before anything is enqueued, so a 400
        (which names each invalid index) guarantees the batch had no
        effect.  Admission is then sequential; a queue-full mid-batch
        answers 429 with the records already ``accepted`` plus a
        ``Retry-After`` hint, and the client resubmits only the tail.
        """
        if not bodies:
            self._error(400, "batch submission must contain at least one job")
            return
        client = self._client_id()
        parsed: list[tuple[str, dict[str, Any], str | None]] = []
        invalid: list[dict[str, Any]] = []
        for index, item in enumerate(bodies):
            try:
                if not isinstance(item, dict):
                    raise ValueError("submission body must be a JSON object")
                parsed.append(self.service.validate_submission(item))
            except ValueError as exc:
                invalid.append({"index": index, "error": str(exc)})
        if invalid:
            self._send(400, {
                "error": f"{len(invalid)} invalid submission(s)",
                "items": invalid,
            })
            return
        accepted: list[dict[str, Any]] = []
        for kind, payload, correlation_id in parsed:
            try:
                accepted.append(
                    self.service.enqueue(kind, payload, correlation_id, client=client)
                )
            except QueueFull as exc:
                self._send(
                    429,
                    {"error": str(exc), "accepted": accepted},
                    headers={"Retry-After": str(self.service.retry_after_s())},
                )
                return
        self._send(202, {"jobs": accepted})

    def _do_delete(self) -> None:
        path = urlparse(self.path).path.rstrip("/")
        if not path.startswith("/v1/jobs/"):
            self._error(404, f"no route {path!r}")
            return
        job_id = self._job_id(path)
        if job_id is None:
            self._error(404, f"no job {path[len('/v1/jobs/'):]!r}")
            return
        try:
            job = self.service.store.cancel(job_id)
        except KeyError:
            self._error(404, f"no job {job_id}")
        except ValueError as exc:
            self._error(409, str(exc))
        else:
            self._send(200, job.to_dict(include_result=False))
