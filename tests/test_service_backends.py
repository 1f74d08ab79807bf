"""Where daemon jobs run: thread/process parity, timeouts, degradation."""

import io
import json
from contextlib import redirect_stdout

import pytest

from repro.cli import main
from repro.patterns.schema import SCHEMA_VERSION, strip_trace_timings
from repro.profiling.cache import ProfileCache
from repro.profiling.serialize import canonical_json
from repro.runtime.parallel import FailedOutcome
from repro.service.client import ServiceClient
from repro.service.executor import BACKENDS, AnalysisExecutor, execute_job
from repro.service.jobs import Job, JobStore
from repro.service.server import AnalysisService

#: Everything here drives a live daemon or worker pool: excluded from the
#: fast CI lane (-m "not slow").
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
    ["rand", "A:32,32"], ["rand", "B:32,32"], ["zeros", "C:32,32"], ["scalar", "32"],
]


def _source_payload(**extra):
    return {"source": SRC, "entry": "total", "args": SRC_ARGS, "seed": 0, **extra}


def _executor(tmp_path, backend, **kw):
    """An executor that is never started: tests call :meth:`run` directly."""
    return AnalysisExecutor(
        JobStore(), cache_dir=str(tmp_path / f"cache-{backend}"), backend=backend, **kw
    )


@pytest.fixture
def process_service(tmp_path):
    svc = AnalysisService(
        port=0, workers=2, cache_dir=str(tmp_path / "cache"), backend="process"
    )
    svc.start_background()
    try:
        client = ServiceClient(svc.url)
        client.wait_healthy(timeout=5.0)
        yield svc, client
    finally:
        svc.shutdown()


class TestBackendFactory:
    def test_known_backends(self, tmp_path):
        assert set(BACKENDS) == {"thread", "process"}
        for name in BACKENDS:
            executor = _executor(tmp_path, name, workers=1)
            assert executor.backend == name
            executor.shutdown()

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown backend"):
            _executor(tmp_path, "fiber")
        with pytest.raises(ValueError, match="unknown backend"):
            AnalysisService(port=0, backend="fiber")


class TestBackendParity:
    def test_thread_and_process_results_are_byte_identical(self, tmp_path):
        """The backend moves work, not meaning: identical documents out."""
        results = {}
        for name in BACKENDS:
            executor = _executor(tmp_path, name, workers=1)
            try:
                outcome = executor.run(Job(id=1, kind="source", payload=_source_payload()))
            finally:
                executor.shutdown()
            assert not isinstance(outcome, FailedOutcome)
            result, info = outcome
            assert info["profile_cache_hit"] is False
            results[name] = canonical_json(strip_trace_timings(result))
        assert results["thread"] == results["process"]

    def test_process_service_matches_detect_json_bytes(self, process_service, tmp_path):
        """Same acceptance bar the thread backend already meets: the daemon's
        document is byte-identical to `detect --json --compact`, modulo
        trace wall-clock timings."""
        svc, client = process_service
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
        record = client.wait(job["id"], timeout=120.0)
        assert record["state"] == "done"
        assert record["backend"] == "process"
        assert canonical_json(strip_trace_timings(record["result"])) == \
            canonical_json(strip_trace_timings(cli_doc))


class TestProcessBackendBehavior:
    def test_crash_becomes_failed_record_and_pool_survives(self, process_service):
        svc, client = process_service
        bad = client.submit_source("void f() { x = 1; }", entry="f")
        record = client.wait(bad["id"], timeout=60.0)
        assert record["state"] == "failed"
        assert record["error"]["failed"] is True
        assert record["error"]["error_type"] == "ValidationError"
        assert record["error"]["schema_version"] == SCHEMA_VERSION
        # the pool keeps serving after the failure
        good = client.submit_source(SRC, entry="total", args=SRC_ARGS)
        assert client.wait(good["id"], timeout=120.0)["state"] == "done"

    def test_sigalrm_timeout_fires_for_source_jobs(self, process_service):
        """The reason the process backend exists: per-job timeouts work
        again because analysis runs on a worker process's main thread."""
        svc, client = process_service
        job = client.submit_source(
            SLOW_SRC, entry="mm", args=SLOW_ARGS, timeout=0.2
        )
        record = client.wait(job["id"], timeout=120.0)
        # the record's info and timestamps say how a job outran its timer
        assert record["state"] == "failed", json.dumps(
            {k: v for k, v in record.items() if k != "result"}, sort_keys=True
        )
        assert record["error"]["error_type"] == "AnalysisTimeout"

    def test_worker_cache_stats_reach_daemon_metrics(self, process_service):
        """A worker's cache counters cross the process boundary with the
        result and land in the daemon's stats + registry."""
        svc, client = process_service
        cold = client.submit_source(SRC, entry="total", args=SRC_ARGS, seed=5)
        client.wait(cold["id"], timeout=120.0)
        stats = client.stats()
        assert stats["backend"] == "process"
        assert stats["cache"]["misses"] >= 1
        assert stats["cache"]["stores"] >= 1
        # warm repeat reports the hit even though it ran in another process
        warm = client.submit_source(SRC, entry="total", args=SRC_ARGS, seed=5)
        record = client.wait(warm["id"], timeout=120.0)
        assert record["info"]["profile_cache_hit"] is True
        assert client.stats()["cache"]["hits"] >= 1

    def test_broken_pool_degrades_to_in_thread_execution(self, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        class DeadPool:
            """A pool whose worker was killed under the job."""

            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("pool died under the job")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        executor = _executor(tmp_path, "process", workers=1)
        try:
            executor._pool = DeadPool()
            outcome = executor.run(Job(id=1, kind="source", payload=_source_payload()))
            assert not isinstance(outcome, FailedOutcome)
            result, info = outcome
            assert info["backend_degraded"] is True
            assert executor.degraded == 1
            assert executor._pool is None  # rebuilt lazily for the next job
            assert result["schema_version"] == SCHEMA_VERSION
        finally:
            executor.shutdown()


class TestExecuteJob:
    def test_never_raises_returns_failed_outcome(self, tmp_path):
        cache = ProfileCache(root=str(tmp_path / "cache"))
        outcome = execute_job(
            "source", {"source": "void f() { x = 1; }", "entry": "f"}, cache
        )
        assert isinstance(outcome, FailedOutcome)
        assert outcome.to_dict()["error_type"] == "ValidationError"

    def test_payload_retries_override_defaults(self, tmp_path):
        cache = ProfileCache(root=str(tmp_path / "cache"))
        outcome = execute_job(
            "source",
            {"source": "void f() { x = 1; }", "entry": "f", "retries": 2},
            cache,
            backoff=0.01,
        )
        assert outcome.to_dict()["attempts"] == 3
