"""Client round-trips against a real daemon on an ephemeral port."""

import io
import json
import threading
from contextlib import redirect_stdout

import pytest

import repro
from repro.cli import main
from repro.patterns.schema import SCHEMA_VERSION, strip_trace_timings
from repro.profiling.serialize import canonical_json
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import AnalysisService

#: Everything here drives a live daemon: excluded from the fast CI lane (-m "not slow").
pytestmark = pytest.mark.slow

SRC = """\
float total(float A[], int n) {
    float s = 0.0;
    for (int i = 0; i < n; i++) {
        s += A[i];
    }
    return s;
}
"""

SRC_ARGS = [["rand", "A:16"], ["scalar", "16"]]

#: Triple-loop matmul — slow enough (hundreds of ms interpreted) to hold a
#: worker busy while the tests race a second submission against it.
SLOW_SRC = """\
void mm(float A[][], float B[][], float C[][], int n) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            C[i][j] = 0.0;
            for (int k = 0; k < n; k++) {
                C[i][j] = C[i][j] + A[i][k] * B[k][j];
            }
        }
    }
}
"""

SLOW_ARGS = [
    ["rand", "A:24,24"], ["rand", "B:24,24"], ["zeros", "C:24,24"], ["scalar", "24"],
]


def _metric_value(text, name):
    """First sample value of *name* in Prometheus exposition *text*."""
    for line in text.splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


@pytest.fixture
def service(tmp_path):
    svc = AnalysisService(port=0, workers=2, cache_dir=str(tmp_path / "cache"))
    svc.start_background()
    try:
        yield svc
    finally:
        svc.shutdown()


@pytest.fixture
def client(service):
    c = ServiceClient(service.url)
    c.wait_healthy(timeout=5.0)
    return c


class TestEndpoints:
    def test_health_and_version(self, client):
        assert client.health()["status"] == "ok"
        version = client.version()
        assert version["version"] == repro.__version__
        assert version["schema_version"] == SCHEMA_VERSION

    def test_unknown_routes_and_jobs(self, client):
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/v1/nope")
        assert exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            client.job(12345)
        assert exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            client.cancel(12345)
        assert exc.value.status == 404

    def test_submit_validation(self, client):
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/v1/jobs", {"kind": "mystery"})
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/v1/jobs", {"kind": "source", "entry": "f"})
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client.submit_benchmark("no_such_benchmark")
        assert exc.value.status == 400

    def test_stats_shape(self, client):
        stats = client.stats()
        assert stats["workers"]["count"] == 2
        assert set(stats["cache"]) == {
            "hits", "misses", "stores", "evictions", "read_errors", "store_errors",
        }
        assert stats["jobs"]["queue_depth"] == 0


class TestRoundTrip:
    def test_submit_poll_result(self, client):
        job = client.submit_source(SRC, entry="total", args=SRC_ARGS)
        assert job["state"] == "queued" and job["record"] == "job"
        record = client.wait(job["id"], timeout=60.0)
        assert record["state"] == "done"
        assert record["result"]["schema_version"] == SCHEMA_VERSION
        assert record["info"]["profile_cache_hit"] is False

    def test_result_matches_detect_json_bytes(self, client, tmp_path):
        """The daemon's analysis document is byte-identical to the CLI's
        `detect --json --compact` for the same program, once the trace's
        wall-clock timings (run-specific noise) are stripped."""
        path = tmp_path / "total.minic"
        path.write_text(SRC)
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main([
                "detect", str(path), "--entry", "total", "--rand", "A:16",
                "--scalar", "16", "--json", "--compact",
                "--cache-dir", str(tmp_path / "cli-cache"),
            ]) == 0
        cli_doc = json.loads(buf.getvalue())

        job = client.submit_source(SRC, entry="total", args=SRC_ARGS)
        record = client.wait(job["id"], timeout=60.0)
        assert canonical_json(strip_trace_timings(record["result"])) == \
            canonical_json(strip_trace_timings(cli_doc))

    def test_repeat_submission_reports_cache_hit(self, client):
        first = client.submit_source(SRC, entry="total", args=SRC_ARGS)
        client.wait(first["id"], timeout=60.0)
        second = client.submit_source(SRC, entry="total", args=SRC_ARGS)
        record = client.wait(second["id"], timeout=60.0)
        assert record["info"]["profile_cache_hit"] is True
        assert client.stats()["cache"]["hits"] >= 1

    def test_eight_concurrent_distinct_submissions(self, client):
        """≥ 8 concurrent clients saturate the 2-worker pool; every job
        completes and the worker bound holds.  Distinct seeds give each
        submission its own digest, so nothing coalesces — all 8 run."""
        records, errors = [], []

        def one(seed):
            try:
                job = client.submit_source(SRC, entry="total", args=SRC_ARGS, seed=seed)
                records.append(client.wait(job["id"], timeout=120.0))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=one, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert not errors
        assert len(records) == 8
        assert all(r["state"] == "done" for r in records)
        assert len({r["digest"] for r in records}) == 8

    def test_eight_concurrent_identical_submissions_coalesce(self, tmp_path):
        """8 concurrent identical submits → exactly 1 execution, 8 results,
        byte-identity across all 8 (the ISSUE's coalescing acceptance).

        The HTTP loop runs but the workers stay parked until the whole
        burst has landed, so every submission provably arrives while the
        leader is still in flight — no timing luck involved."""
        svc = AnalysisService(port=0, workers=2, cache_dir=str(tmp_path / "cache"))
        http_thread = threading.Thread(
            target=svc.httpd.serve_forever, kwargs={"poll_interval": 0.2}, daemon=True
        )
        http_thread.start()
        try:
            client = ServiceClient(svc.url)
            client.wait_healthy(timeout=5.0)
            before = client.metrics()
            records, errors = [], []

            def one():
                try:
                    records.append(
                        client.submit_source(SRC, entry="total", args=SRC_ARGS, seed=77)
                    )
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=one) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not errors and len(records) == 8

            svc.executor.start()  # now let the pool drain the burst
            finals = [client.wait(r["id"], timeout=120.0) for r in records]
            assert all(r["state"] == "done" for r in finals)
            # exactly one leader executed; the other seven attached to it
            leaders = [r for r in finals if r["coalesced_with"] is None]
            followers = [r for r in finals if r["coalesced_with"] is not None]
            assert len(leaders) == 1 and len(followers) == 7
            assert all(f["coalesced_with"] == leaders[0]["id"] for f in followers)
            assert len({r["digest"] for r in finals}) == 1
            # all eight carry byte-identical result documents
            full = [client.job(r["id"])["result"] for r in finals]
            assert len({canonical_json(doc) for doc in full}) == 1
            # metrics: 7 coalesced submissions, exactly 1 execution
            after = client.metrics()
            coalesced = _metric_value(
                after, "repro_jobs_coalesced_total"
            ) - _metric_value(before, "repro_jobs_coalesced_total")
            assert coalesced == 7
            runs = _metric_value(
                after, 'repro_job_run_seconds_count{kind="source"}'
            ) - _metric_value(before, 'repro_job_run_seconds_count{kind="source"}')
            assert runs == 1
        finally:
            svc.shutdown()

    def test_bench_submission_matches_table3(self, client):
        record = client.wait(client.submit_benchmark("reg_detect")["id"], timeout=120.0)
        assert record["state"] == "done"
        assert record["result"]["label"] == "Multi-loop pipeline"

    def test_crashing_job_fails_daemon_survives(self, client):
        job = client.submit_source("void f() { x = 1; }", entry="f")
        record = client.wait(job["id"], timeout=30.0)
        assert record["state"] == "failed"
        assert record["error"]["failed"] is True
        assert record["error"]["error_type"] == "ValidationError"
        assert record["error"]["schema_version"] == SCHEMA_VERSION
        # the daemon keeps serving after the failure
        after = client.wait(
            client.submit_source(SRC, entry="total", args=SRC_ARGS)["id"],
            timeout=60.0,
        )
        assert after["state"] == "done"


class TestCancel:
    def test_cancel_while_queued(self, tmp_path):
        svc = AnalysisService(port=0, workers=1, cache_dir=str(tmp_path / "cache"))
        svc.start_background()
        try:
            client = ServiceClient(svc.url)
            client.wait_healthy(timeout=5.0)
            # occupy the single worker, then cancel the job stuck behind it
            slow = client.submit_source(SLOW_SRC, entry="mm", args=SLOW_ARGS)
            queued = client.submit_source(SRC, entry="total", args=SRC_ARGS)
            record = client.cancel(queued["id"])
            assert record["state"] == "cancelled"
            assert client.job(queued["id"])["state"] == "cancelled"
            done = client.wait(slow["id"], timeout=120.0)
            assert done["state"] == "done"
        finally:
            svc.shutdown()

    def test_cancel_terminal_conflicts(self, client):
        job = client.submit_source(SRC, entry="total", args=SRC_ARGS)
        client.wait(job["id"], timeout=60.0)
        with pytest.raises(ServiceError) as exc:
            client.cancel(job["id"])
        assert exc.value.status == 409
        # DELETE on the already-terminal job again: still 409, not 500/404
        with pytest.raises(ServiceError) as exc:
            client.cancel(job["id"])
        assert exc.value.status == 409

    def test_cancel_while_running_is_cooperative(self, tmp_path):
        import time as _time

        log_path = tmp_path / "jobs.jsonl"
        svc = AnalysisService(
            port=0, workers=1,
            cache_dir=str(tmp_path / "cache"),
            jsonl_path=str(log_path),
        )
        svc.start_background()
        try:
            client = ServiceClient(svc.url)
            client.wait_healthy(timeout=5.0)
            metrics_before = client.metrics()
            job = client.submit_source(SLOW_SRC, entry="mm", args=SLOW_ARGS)
            # wait until the single worker actually claims it
            deadline = _time.monotonic() + 30.0
            while client.job(job["id"])["state"] != "running":
                assert _time.monotonic() < deadline, "job never started running"
                _time.sleep(0.02)
            record = client.cancel(job["id"])
            assert record["state"] == "running"
            assert record["cancel_requested"] is True
            final = client.wait(job["id"], timeout=120.0)
            assert final["state"] == "cancelled"
            assert final.get("result") is None
            assert final["info"]["completed_as"] == "done"
            # the cancellation is visible in the daemon's metrics...
            # counters are process-global across tests, so assert the delta
            metrics_after = client.metrics()
            delta = _metric_value(
                metrics_after, "repro_jobs_cancelled_total"
            ) - _metric_value(metrics_before, "repro_jobs_cancelled_total")
            assert delta == 1
        finally:
            svc.shutdown()
        # ...and in its structured log, correlated with the submission
        events = [json.loads(line) for line in log_path.read_text().splitlines()]
        by_event = {}
        for doc in events:
            by_event.setdefault(doc["event"], []).append(doc)
        assert "job.cancel_requested" in by_event
        cancel_doc = by_event["job.cancel_requested"][0]
        assert cancel_doc["correlation_id"] == job["correlation_id"]
        terminal = [
            d for d in by_event["job.transition"] if d["state"] == "cancelled"
        ]
        assert terminal and terminal[-1]["correlation_id"] == job["correlation_id"]


class TestListing:
    def test_list_and_filter(self, client):
        done_job = client.submit_source(SRC, entry="total", args=SRC_ARGS)
        client.wait(done_job["id"], timeout=60.0)
        failed_job = client.submit_source("void f() { x = 1; }", entry="f")
        client.wait(failed_job["id"], timeout=30.0)

        everything = client.jobs()
        assert {r["id"] for r in everything} >= {done_job["id"], failed_job["id"]}
        # summaries never carry the result payload
        assert all("result" not in r for r in everything)
        failed = client.jobs(state="failed")
        assert failed_job["id"] in {r["id"] for r in failed}
        assert all(r["state"] == "failed" for r in failed)

    def test_limit_returns_newest_first(self, client):
        ids = []
        for seed in range(3):
            job = client.submit_source(SRC, entry="total", args=SRC_ARGS, seed=seed)
            client.wait(job["id"], timeout=60.0)
            ids.append(job["id"])
        newest_two = client.jobs(limit=2)
        assert [r["id"] for r in newest_two] == [ids[-1], ids[-2]]

    def test_limit_validation(self, client):
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/v1/jobs?limit=banana")
        assert exc.value.status == 400


class TestValidation:
    def test_sweep_unknown_names_rejected_at_submission(self, client):
        with pytest.raises(ServiceError) as exc:
            client.submit_sweep(names=["reg_detect", "no_such_benchmark"])
        assert exc.value.status == 400
        assert "no_such_benchmark" in exc.value.message

    def test_sweep_malformed_names_rejected(self, client):
        with pytest.raises(ServiceError) as exc:
            client.submit_sweep(names=[42])  # type: ignore[list-item]
        assert exc.value.status == 400

    def test_handler_bug_returns_json_500_not_html(self, service, client, monkeypatch):
        # break one endpoint from the outside; the catch-all must answer
        # with the service's JSON error shape, never http.server's HTML page
        def boom():
            raise RuntimeError("stats exploded")

        monkeypatch.setattr(service, "stats", boom)
        with pytest.raises(ServiceError) as exc:
            client.stats()
        assert exc.value.status == 500
        assert "internal error" in exc.value.message
        assert "stats exploded" in exc.value.message
        # the daemon keeps serving other routes afterwards
        assert client.health()["status"] == "ok"

    def test_bench_campaign_knobs_validated_at_submission(self, client):
        for bad in (
            {"scale": -1}, {"scale": "big"},
            {"threshold": 2.0}, {"threshold": "high"},
            {"min_pairs": -1}, {"min_pairs": 1.5},
            {"machine": "fast"}, {"machine": {"warp_drive": 1.0}},
            {"machine": {"spawn_cost": -5.0}}, {"machine": {"threads": 4}},
        ):
            with pytest.raises(ServiceError) as exc:
                client.submit_benchmark("reg_detect", **bad)
            assert exc.value.status == 400, bad

    def test_values_the_simulator_cannot_run_rejected_at_submission(self, client):
        # the client sends float("nan") and float("inf") as the bare NaN and
        # Infinity constants, which json.loads accepts unless told not to
        for bad in (
            {"machine": {"bw_saturation": 0}},
            {"scale": float("nan")},
            {"scale": float("inf")},
            {"machine": {"spawn_cost": float("nan")}},
        ):
            with pytest.raises(ServiceError) as exc:
                client.submit_benchmark("bicg", **bad)
            assert exc.value.status == 400, bad
        assert client.jobs() == []

    def test_retired_machine_field_is_unknown(self, client):
        with pytest.raises(ServiceError) as exc:
            client.submit_benchmark("bicg", machine={"chunk_cost": 12.0})
        assert exc.value.status == 400
        assert "unknown machine fields ['chunk_cost']" in exc.value.message
        assert client.jobs() == []

    def test_bench_accepts_campaign_knobs(self, client):
        job = client.submit_benchmark(
            "reg_detect", scale=1.0, threshold=0.1,
            machine={"spawn_cost": 10.0},
        )
        record = client.wait(job["id"], timeout=120.0)
        assert record["state"] == "done", record.get("error")

    def test_malformed_content_length_is_json_400(self, service):
        # a bad Content-Length must be a clean 400 with a JSON error body,
        # not a ValueError surfacing through the 500 catch-all
        import http.client

        conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/jobs", skip_accept_encoding=True)
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "banana")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            doc = json.loads(response.read())
            assert "Content-Length" in doc["error"]
        finally:
            conn.close()
        # negative lengths are rejected the same way ('-1'.isdigit() is False)
        conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/jobs", skip_accept_encoding=True)
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.loads(response.read())["error"]
        finally:
            conn.close()


    def test_oversize_body_is_413_and_daemon_keeps_serving(self, service, client):
        # declared, never sent: the daemon must answer from the header alone
        import http.client

        from repro.service.server import MAX_BODY_BYTES

        conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/jobs", skip_accept_encoding=True)
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
            assert "exceeds" in json.loads(response.read())["error"]
        finally:
            conn.close()
        job = client.submit_source(SRC, entry="total", args=SRC_ARGS)
        assert client.wait(job["id"], timeout=60.0)["state"] == "done"


class TestRetryAfterParsing:
    """Client-side ``Retry-After`` leniency (RFC 9110: server sends ints)."""

    def test_parse_retry_after_is_lenient(self):
        from repro.service.client import _parse_retry_after

        assert _parse_retry_after("7") == 7.0
        assert _parse_retry_after(" 2.5 ") == 2.5  # fractional tolerated
        assert _parse_retry_after("-3") == 0.0  # never sleep backwards
        assert _parse_retry_after(None) is None
        # non-numeric forms (e.g. an HTTP-date) degrade to None, not a crash
        assert _parse_retry_after("Fri, 08 Aug 2026 12:00:00 GMT") is None
        assert _parse_retry_after("") is None

    def test_non_numeric_retry_after_header_is_ignored(self, service):
        # regression: a proxy-style HTTP-date Retry-After must not crash the
        # client's error path — the ServiceError simply carries no hint
        import urllib.error
        import urllib.request

        from repro.service import client as client_mod

        real_urlopen = urllib.request.urlopen

        def date_flavored(request, **kwargs):
            try:
                return real_urlopen(request, **kwargs)
            except urllib.error.HTTPError as exc:
                exc.headers["Retry-After"] = "Fri, 08 Aug 2026 12:00:00 GMT"
                raise

        sick = ServiceClient(service.url, retry_limit=0)
        try:
            client_mod.urllib.request.urlopen = date_flavored
            with pytest.raises(ServiceError) as exc:
                sick._request("GET", "/v1/jobs/999999")
        finally:
            client_mod.urllib.request.urlopen = real_urlopen
        assert exc.value.status == 404
        assert exc.value.retry_after is None


class TestAdmissionControl:
    @pytest.fixture
    def bounded(self, tmp_path):
        svc = AnalysisService(
            port=0, workers=1, cache_dir=str(tmp_path / "cache"), max_queue=1
        )
        svc.start_background()
        try:
            client = ServiceClient(svc.url, retry_limit=0)
            client.wait_healthy(timeout=5.0)
            yield svc, client
        finally:
            svc.shutdown()

    def _saturate(self, client):
        """Fill the 1-worker/1-slot daemon: one running, one queued."""
        import time as _time

        running = client.submit_source(SLOW_SRC, entry="mm", args=SLOW_ARGS, seed=201)
        deadline = _time.monotonic() + 30.0
        while client.job(running["id"])["state"] != "running":
            assert _time.monotonic() < deadline, "job never started running"
            _time.sleep(0.02)
        queued = client.submit_source(SLOW_SRC, entry="mm", args=SLOW_ARGS, seed=202)
        return running, queued

    def test_full_queue_answers_429_with_retry_after(self, bounded):
        svc, client = bounded
        self._saturate(client)
        with pytest.raises(ServiceError) as exc:
            client.submit_source(SRC, entry="total", args=SRC_ARGS, seed=203)
        assert exc.value.status == 429
        assert exc.value.retry_after is not None and exc.value.retry_after >= 1
        # RFC 9110 delay-seconds: the server's hint is whole seconds
        assert float(exc.value.retry_after).is_integer()
        stats = client.stats()
        assert stats["admission"]["max_queue"] == 1
        assert stats["admission"]["rejected"] >= 1
        assert stats["jobs"]["rejected"] >= 1

    def test_coalesced_submission_bypasses_full_queue(self, bounded):
        svc, client = bounded
        _, queued = self._saturate(client)
        follower = client.submit_source(
            SLOW_SRC, entry="mm", args=SLOW_ARGS, seed=202
        )
        assert follower["coalesced_with"] == queued["id"]

    def test_client_honors_retry_after_and_recovers(self, bounded):
        svc, client = bounded
        _, queued = self._saturate(client)
        # free the queue slot shortly after the first 429
        threading.Timer(0.3, lambda: client.cancel(queued["id"])).start()
        retrying = ServiceClient(
            svc.url, retry_limit=10, retry_after_cap=0.2, client_id="retrier"
        )
        record = retrying.submit_source(SRC, entry="total", args=SRC_ARGS, seed=204)
        assert record["state"] == "queued"
        clients = client.stats()["clients"]
        assert clients["retrier"]["rejected"] >= 1
        assert clients["retrier"]["accepted"] == 1

    def test_per_client_accounting_in_stats_and_metrics(self, bounded):
        svc, client = bounded
        named = ServiceClient(svc.url, client_id="alice")
        job = named.submit_source(SRC, entry="total", args=SRC_ARGS, seed=205)
        named.wait(job["id"], timeout=60.0)
        tallies = named.stats()["clients"]["alice"]
        assert tallies["accepted"] == 1
        text = named.metrics()
        assert 'repro_client_requests_total{client="alice",outcome="accepted"}' in text


class TestBatchSubmission:
    """JSON-array bodies on POST /v1/jobs and ServiceClient.submit_many."""

    def test_batch_round_trip(self, client):
        records = client.submit_many([
            {"kind": "source", "source": SRC, "entry": "total",
             "args": SRC_ARGS, "seed": 301},
            {"kind": "source", "source": SRC, "entry": "total",
             "args": SRC_ARGS, "seed": 302},
            {"kind": "bench", "name": "reg_detect"},
        ])
        assert len(records) == 3
        assert all(r["record"] == "job" for r in records)
        # every body was stamped with its own correlation id
        assert len({r["correlation_id"] for r in records}) == 3
        finals = [client.wait(r["id"], timeout=120.0) for r in records]
        assert all(r["state"] == "done" for r in finals)
        assert finals[2]["result"]["label"] == "Multi-loop pipeline"

    def test_batch_validation_is_atomic(self, client):
        """One bad item fails the whole batch with per-index errors and
        provably enqueues nothing."""
        before = {r["id"] for r in client.jobs()}
        with pytest.raises(ServiceError) as exc:
            client.submit_many([
                {"kind": "bench", "name": "reg_detect"},          # valid
                {"kind": "bench", "name": "no_such_benchmark"},   # invalid
                {"kind": "mystery"},                              # invalid
            ])
        assert exc.value.status == 400
        assert "2 invalid submission(s)" in exc.value.message
        items = exc.value.payload["items"]
        assert [item["index"] for item in items] == [1, 2]
        assert "no_such_benchmark" in items[0]["error"]
        # the valid first item was NOT admitted
        assert {r["id"] for r in client.jobs()} == before

    def test_batch_non_object_item_rejected(self, client):
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/v1/jobs", [42])
        assert exc.value.status == 400
        assert exc.value.payload["items"][0]["index"] == 0

    def test_empty_batch_rejected_by_server(self, client):
        # the client short-circuits []; the wire protocol still answers 400
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/v1/jobs", [])
        assert exc.value.status == 400
        # and the client-side short circuit performs no request at all
        assert client.submit_many([]) == []

    @pytest.fixture
    def bounded(self, tmp_path):
        svc = AnalysisService(
            port=0, workers=1, cache_dir=str(tmp_path / "cache"), max_queue=1
        )
        svc.start_background()
        try:
            c = ServiceClient(svc.url, retry_limit=0)
            c.wait_healthy(timeout=5.0)
            yield svc, c
        finally:
            svc.shutdown()

    def _saturate(self, client):
        import time as _time

        running = client.submit_source(SLOW_SRC, entry="mm", args=SLOW_ARGS, seed=211)
        deadline = _time.monotonic() + 30.0
        while client.job(running["id"])["state"] != "running":
            assert _time.monotonic() < deadline, "job never started running"
            _time.sleep(0.02)
        queued = client.submit_source(SLOW_SRC, entry="mm", args=SLOW_ARGS, seed=212)
        return running, queued

    def test_queue_full_mid_batch_returns_accepted_prefix(self, bounded):
        svc, client = bounded
        _, queued = self._saturate(client)
        # first item coalesces with the queued job (bypasses the bound and
        # is deterministically accepted); the second hits the full queue
        with pytest.raises(ServiceError) as exc:
            client.submit_many([
                {"kind": "source", "source": SLOW_SRC, "entry": "mm",
                 "args": SLOW_ARGS, "seed": 212,
                 "correlation_id": queued["correlation_id"]},
                {"kind": "source", "source": SRC, "entry": "total",
                 "args": SRC_ARGS, "seed": 213},
            ])
        assert exc.value.status == 429
        assert exc.value.retry_after is not None and exc.value.retry_after >= 1
        accepted = exc.value.payload["accepted"]
        assert len(accepted) == 1
        assert accepted[0]["coalesced_with"] == queued["id"]

    def test_submit_many_retries_only_the_tail(self, bounded):
        svc, client = bounded
        _, queued = self._saturate(client)
        # free the queue slot shortly after the first 429
        threading.Timer(0.3, lambda: client.cancel(queued["id"])).start()
        retrying = ServiceClient(
            svc.url, retry_limit=10, retry_after_cap=0.2, client_id="batch-retrier"
        )
        records = retrying.submit_many([
            {"kind": "source", "source": SLOW_SRC, "entry": "mm",
             "args": SLOW_ARGS, "seed": 212,
             "correlation_id": queued["correlation_id"]},
            {"kind": "source", "source": SRC, "entry": "total",
             "args": SRC_ARGS, "seed": 214},
        ])
        assert len(records) == 2
        # head accepted on the first attempt (coalesced), tail after retry —
        # and the head was never resubmitted (no duplicate job ids)
        assert records[0]["coalesced_with"] == queued["id"]
        assert records[1]["coalesced_with"] is None
        assert len({r["id"] for r in records}) == 2
        tallies = client.stats()["clients"]["batch-retrier"]
        assert tallies["rejected"] >= 1
        assert tallies["accepted"] >= 1


class TestCliCommands:
    def test_submit_jobs_result_cli(self, service, client, tmp_path, capsys):
        path = tmp_path / "total.minic"
        path.write_text(SRC)
        assert main([
            "submit", str(path), "--entry", "total", "--rand", "A:16",
            "--scalar", "16", "--wait", "--url", service.url, "--json", "--compact",
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["state"] == "done"

        assert main(["jobs", "--url", service.url]) == 0
        assert "done" in capsys.readouterr().out

        assert main(["result", str(record["id"]), "--url", service.url]) == 0
        out = capsys.readouterr().out
        assert "Primary pattern: Reduction" in out

    def test_submit_bench_cli(self, service, capsys):
        assert main([
            "submit", "--bench", "reg_detect", "--wait", "--url", service.url,
            "--json", "--compact",
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["result"]["label"] == "Multi-loop pipeline"

    def test_submit_failed_job_exits_nonzero(self, service, tmp_path, capsys):
        path = tmp_path / "bad.minic"
        path.write_text("void f() { x = 1; }")
        assert main([
            "submit", str(path), "--entry", "f", "--wait", "--url", service.url,
        ]) == 1
        assert "ValidationError" in capsys.readouterr().out

    def test_submit_unreachable_daemon(self, capsys):
        assert main([
            "submit", "--bench", "reg_detect", "--url", "http://127.0.0.1:1",
        ]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_list_json(self, capsys):
        assert main(["list", "--json", "--compact"]) == 0
        docs = json.loads(capsys.readouterr().out)
        names = {d["name"] for d in docs}
        assert "reg_detect" in names and "fib" in names
        assert all(
            set(d) == {"name", "suite", "entry", "loc", "paper_pattern", "expected_label"}
            for d in docs
        )

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestMetricsEndpoint:
    def test_metrics_expose_job_cache_pool_and_stage_series(self, client):
        job = client.submit_source(SRC, entry="total", args=SRC_ARGS)
        assert client.wait(job["id"], timeout=60.0)["state"] == "done"
        text = client.metrics()
        # jobs
        assert _metric_value(text, "repro_jobs_submitted_total") >= 1
        assert _metric_value(text, "repro_jobs_completed_total") >= 1
        assert "repro_job_queue_wait_seconds_bucket" in text
        assert 'repro_job_run_seconds_count{kind="source"}' in text
        # cache (the cold submission missed, then stored)
        assert _metric_value(text, "repro_profile_cache_misses_total") >= 1
        assert _metric_value(text, "repro_profile_cache_stores_total") >= 1
        assert "repro_cache_read_seconds_bucket" in text
        # pool gauges read live executor state
        assert _metric_value(text, "repro_pool_workers") == 2
        assert "repro_jobs_queue_depth" in text
        # per-detector-stage histograms
        assert 'repro_detector_stage_seconds_count{stage="loop-classes"}' in text
        assert "# TYPE repro_detector_stage_seconds histogram" in text

    def test_metrics_cli_prints_exposition(self, service, capsys):
        assert main(["metrics", "--url", service.url]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_jobs_submitted_total counter" in out

    def test_metrics_cli_unreachable_daemon(self, capsys):
        assert main(["metrics", "--url", "http://127.0.0.1:1"]) == 1
        assert "metrics:" in capsys.readouterr().err
