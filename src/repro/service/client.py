"""Blocking client for the analysis daemon (stdlib ``urllib`` only).

>>> client = ServiceClient("http://127.0.0.1:8765")
>>> job = client.submit_benchmark("reg_detect")
>>> record = client.wait(job["id"])
>>> record["result"]["label"]
'Multi-loop pipeline'

Every method returns the decoded JSON document; HTTP error responses
raise :class:`ServiceError` carrying the status code and the server's
``{"error": ...}`` payload.

Each submission is stamped with a client-generated ``correlation_id``
(:func:`repro.obs.logs.new_correlation_id`) unless the caller supplies
one, so a submitter can log the id on its side and grep the daemon's
structured log for the same job's every transition.

Every request also carries an ``X-Repro-Client`` identity header
(``REPRO_CLIENT_ID`` env var, else ``pid-<pid>``) — the daemon keys its
per-client accounting in ``/v1/stats`` and ``/v1/metrics`` on it.  When
admission control answers ``429``, submissions honor the server's
``Retry-After`` hint (capped at :attr:`ServiceClient.retry_after_cap`
seconds) and retry up to :attr:`ServiceClient.retry_limit` times before
surfacing the :class:`ServiceError` to the caller.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
from typing import Any, Iterable, Sequence

from repro.obs.logs import new_correlation_id

#: Environment override for the daemon address, honored by the CLI too.
URL_ENV_VAR = "REPRO_SERVICE_URL"

#: Environment override for the client identity header.
CLIENT_ID_ENV_VAR = "REPRO_CLIENT_ID"

DEFAULT_URL = "http://127.0.0.1:8765"


def default_service_url() -> str:
    return os.environ.get(URL_ENV_VAR) or DEFAULT_URL


def default_client_id() -> str:
    """This process's identity for the daemon's per-client accounting."""
    return os.environ.get(CLIENT_ID_ENV_VAR) or f"pid-{os.getpid()}"


def _parse_retry_after(hint: str | None) -> float | None:
    """Lenient ``Retry-After`` parse: seconds as a float, else ``None``.

    The daemon emits RFC 9110 integer ``delay-seconds``, but this client
    talks to whatever answers — be liberal in what we accept: numeric
    strings (integer or fractional) parse, anything else (HTTP-dates,
    garbage, empty) degrades to ``None`` rather than crashing the error
    path.  Negative values clamp to 0 so callers never sleep backwards.
    """
    if hint is None:
        return None
    try:
        return max(0.0, float(hint.strip()))
    except (ValueError, AttributeError):
        return None


class ServiceError(RuntimeError):
    """An HTTP error response from the daemon."""

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: float | None = None,
        payload: dict | None = None,
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        #: the server's ``Retry-After`` hint in seconds, when sent (429)
        self.retry_after = retry_after
        #: the full JSON error document — batch submissions use the
        #: ``accepted`` prefix of a mid-batch 429 and the per-index
        #: ``items`` of a validation 400
        self.payload = payload or {}


class ServiceClient:
    """Thin blocking wrapper over the daemon's ``/v1`` endpoints."""

    def __init__(
        self,
        url: str | None = None,
        timeout: float = 30.0,
        client_id: str | None = None,
        retry_limit: int = 3,
        retry_after_cap: float = 5.0,
    ) -> None:
        self.url = (url or default_service_url()).rstrip("/")
        self.timeout = timeout
        self.client_id = client_id or default_client_id()
        #: how many 429s a submission absorbs before raising
        self.retry_limit = max(0, retry_limit)
        #: ceiling on a single honored ``Retry-After`` sleep — the server's
        #: hint is advisory and a saturated daemon may suggest up to 60s;
        #: interactive callers should not block that long per attempt
        self.retry_after_cap = retry_after_cap

    def _request(
        self, method: str, path: str, body: dict | list | None = None
    ) -> Any:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"X-Repro-Client": self.client_id}
        if data:
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.url + path, data=data, method=method, headers=headers
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            try:
                doc = json.loads(exc.read())
            except (ValueError, OSError):
                doc = {}
            if not isinstance(doc, dict):
                doc = {}
            hint = exc.headers.get("Retry-After") if exc.headers else None
            raise ServiceError(
                exc.code,
                doc.get("error", str(exc)),
                retry_after=_parse_retry_after(hint),
                payload=doc,
            ) from None

    def _submit(self, body: dict[str, Any] | list[dict[str, Any]]) -> dict:
        """POST a job object or a batch array, absorbing 429s per the
        server's ``Retry-After`` hints up to :attr:`retry_limit` times.

        A batch's 429 carries the records admitted before the queue filled
        (``accepted``); they are kept, never resubmitted, and only the
        tail is posted again.  A batch answers ``{"jobs": [...]}`` with
        one record per body in order; a single job answers its record.
        """
        accepted: list[dict] = []
        attempts = 0
        while True:
            try:
                doc = self._request("POST", "/v1/jobs", body)
            except ServiceError as exc:
                if exc.status != 429 or attempts >= self.retry_limit:
                    raise
                admitted = exc.payload.get("accepted", [])
                if admitted:
                    accepted.extend(admitted)
                    body = body[len(admitted):]
                attempts += 1
                hint = exc.retry_after if exc.retry_after is not None else 1.0
                time.sleep(max(0.0, min(hint, self.retry_after_cap)))
                continue
            return {"jobs": accepted + doc["jobs"]} if accepted else doc

    # -- service-level ---------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def version(self) -> dict:
        return self._request("GET", "/v1/version")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def metrics(self) -> str:
        """The daemon's ``/v1/metrics`` Prometheus text, verbatim."""
        request = urllib.request.Request(
            self.url + "/v1/metrics",
            method="GET",
            headers={"X-Repro-Client": self.client_id},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code, str(exc)) from None

    def wait_healthy(self, timeout: float = 10.0, poll: float = 0.1) -> dict:
        """Poll ``/v1/health`` until the daemon answers (startup races)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except (ServiceError, OSError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll)

    # -- job submission --------------------------------------------------

    def submit_source(
        self,
        source: str,
        entry: str,
        args: Iterable[Sequence[str]] = (),
        seed: int = 0,
        threshold: float | None = None,
        **extra: Any,
    ) -> dict:
        """Submit MiniC source for analysis; returns the queued job record.

        *args* uses the portable ``(kind, value)`` spec of
        :func:`repro.service.jobs.build_call_args`.
        """
        body: dict[str, Any] = {
            "kind": "source",
            "source": source,
            "entry": entry,
            "args": [list(a) for a in args],
            "seed": seed,
            **extra,
        }
        if threshold is not None:
            body["threshold"] = threshold
        body.setdefault("correlation_id", new_correlation_id())
        return self._submit(body)

    def submit_benchmark(self, name: str, **extra: Any) -> dict:
        """Submit one registered benchmark by name."""
        body: dict[str, Any] = {"kind": "bench", "name": name, **extra}
        body.setdefault("correlation_id", new_correlation_id())
        return self._submit(body)

    def submit_sweep(self, names: Sequence[str] | None = None, **extra: Any) -> dict:
        """Submit a registry sweep (all benchmarks when *names* is None)."""
        body: dict[str, Any] = {"kind": "sweep", **extra}
        if names is not None:
            body["names"] = list(names)
        body.setdefault("correlation_id", new_correlation_id())
        return self._submit(body)

    def submit_many(self, bodies: Sequence[dict[str, Any]]) -> list[dict]:
        """Submit a batch of jobs in one POST; one queued record per body.

        Each body takes the same shape as the single-job endpoint accepts
        (``kind`` plus its fields) and is stamped with a fresh
        ``correlation_id`` unless it carries one.  The server validates
        the whole batch before admitting anything — a validation failure
        raises :class:`ServiceError` 400 whose ``payload["items"]`` names
        every invalid index, and nothing was enqueued.  A queue-full
        mid-batch (429) is absorbed by resubmitting only the unaccepted
        tail, honoring ``Retry-After``, up to :attr:`retry_limit` times;
        records accepted before the 429 are kept, never resubmitted.
        """
        pending = []
        for body in bodies:
            item = dict(body)
            item.setdefault("correlation_id", new_correlation_id())
            pending.append(item)
        if not pending:
            return []
        return self._submit(pending)["jobs"]

    # -- job queries -----------------------------------------------------

    def job(self, job_id: int) -> dict:
        """Full record (status + result/error) for one job."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(
        self,
        state: str | None = None,
        kind: str | None = None,
        limit: int | None = None,
    ) -> list[dict]:
        """List retained jobs, newest first; *limit* truncates to the newest N
        (``limit=0`` is explicitly an empty listing)."""
        query = "&".join(
            f"{key}={value}"
            for key, value in (("state", state), ("kind", kind), ("limit", limit))
            if value is not None and value != ""
        )
        doc = self._request("GET", "/v1/jobs" + (f"?{query}" if query else ""))
        return doc["jobs"]

    def cancel(self, job_id: int) -> dict:
        """Cancel a job: immediate while queued, cooperative while running
        (the returned record then shows ``cancel_requested``).  Raises
        :class:`ServiceError` 409 once the job is terminal."""
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def wait(self, job_id: int, timeout: float = 120.0, poll: float = 0.1) -> dict:
        """Block until the job reaches a terminal state; return its record."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] in ("done", "failed", "cancelled"):
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']} after {timeout:g}s"
                )
            time.sleep(poll)
