"""Job store lifecycle, executor fault isolation, and job-record envelope."""

import json
import threading

import numpy as np
import pytest

from repro.patterns.schema import (
    JOB_STATES,
    SCHEMA_VERSION,
    job_record,
    strip_trace_timings,
    validate_job_record,
)
from repro.service.executor import AnalysisExecutor
from repro.service.jobs import (
    Job,
    JobStore,
    QueueFull,
    build_call_args,
    job_digest,
)

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


def _source_payload():
    return {"source": SRC, "entry": "total", "args": SRC_ARGS, "seed": 0}


class TestBuildCallArgs:
    def test_kinds(self):
        args = build_call_args([("scalar", "5"), ("zeros", "A:3,4"), ("rand", "B:8")])
        assert args[0] == 5
        assert args[1].shape == (3, 4) and not args[1].any()
        assert args[2].shape == (8,)

    def test_scalar_float(self):
        assert build_call_args([("scalar", "0.5")]) == [0.5]

    def test_seed_determinism(self):
        a = build_call_args([("rand", "A:16")], seed=7)[0]
        b = build_call_args([("rand", "A:16")], seed=7)[0]
        c = build_call_args([("rand", "A:16")], seed=8)[0]
        assert np.array_equal(a, b) and not np.array_equal(a, c)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown argument kind"):
            build_call_args([("ones", "A:4")])


class TestJobStore:
    def test_monotonic_ids_and_lifecycle(self):
        store = JobStore()
        a = store.submit("bench", {"name": "x"})
        b = store.submit("bench", {"name": "y"})
        assert (a.id, b.id) == (1, 2)
        assert a.state == "queued"

        claimed = store.claim(timeout=0.1)
        assert claimed.id == 1 and claimed.state == "running"
        assert claimed.started_at is not None

        store.finish(1, {"ok": True}, info={"note": 1})
        assert store.get(1).state == "done"
        assert store.get(1).finished_at is not None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobStore().submit("mystery", {})

    def test_cancel_while_queued_is_immediate(self):
        store = JobStore()
        job = store.submit("bench", {"name": "x"})
        store.cancel(job.id)
        assert store.get(job.id).state == "cancelled"
        # a cancelled entry left in the queue is skipped by claim
        assert store.claim(timeout=0.05) is None

        with pytest.raises(KeyError):
            store.cancel(999)

    def test_cancel_while_running_is_cooperative(self):
        store = JobStore()
        job = store.submit("bench", {"name": "y"})
        store.claim(timeout=0.1)
        # cancel mid-run: the job keeps running but is marked, and the
        # worker's completion lands as cancelled with the result discarded
        cancelled = store.cancel(job.id)
        assert cancelled.state == "running" and cancelled.cancel_requested
        store.finish(job.id, {"discard": "me"})
        final = store.get(job.id)
        assert final.state == "cancelled"
        assert final.result is None
        assert final.info["completed_as"] == "done"
        # now terminal: a second cancel conflicts
        with pytest.raises(ValueError, match="already terminal"):
            store.cancel(job.id)

    def test_fail_records_error(self):
        store = JobStore()
        job = store.submit("source", _source_payload())
        store.claim(timeout=0.1)
        store.fail(job.id, {"failed": True, "error_type": "Boom"})
        assert store.get(job.id).state == "failed"
        assert store.get(job.id).error["error_type"] == "Boom"

    def test_bounded_history_evicts_oldest_terminal(self):
        store = JobStore(max_history=2)
        ids = []
        for _ in range(4):
            job = store.submit("bench", {"name": "x"})
            store.claim(timeout=0.1)
            store.finish(job.id, None)
            ids.append(job.id)
        assert store.get(ids[0]) is None and store.get(ids[1]) is None
        assert store.get(ids[2]) is not None and store.get(ids[3]) is not None
        assert store.counts()["evicted"] == 2

    def test_history_bound_spares_live_jobs(self):
        # only terminal jobs count against max_history; a job still running
        # survives any number of evictions around it (distinct names so the
        # later submissions don't coalesce onto the running one)
        store = JobStore(max_history=1)
        live = store.submit("bench", {"name": "x"})
        store.claim(timeout=0.1)  # `live` is now running
        for n in range(3):
            job = store.submit("bench", {"name": f"y{n}"})
            store.claim(timeout=0.1)
            store.finish(job.id, None)
        assert store.get(live.id).state == "running"
        store.finish(live.id, None)
        assert store.get(live.id).state == "done"

    def test_jsonl_persistence(self, tmp_path):
        log = tmp_path / "jobs.jsonl"
        store = JobStore(jsonl_path=str(log))
        job = store.submit("source", _source_payload())
        store.claim(timeout=0.1)
        store.finish(job.id, {"schema_version": SCHEMA_VERSION})
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [doc["state"] for doc in lines] == ["queued", "running", "done"]
        # structured log lines: event + correlation id + the versioned
        # job-record envelope under "record"
        for doc in lines:
            assert doc["event"] == "job.transition"
            assert doc["correlation_id"] == job.correlation_id
            validate_job_record(doc["record"])
        # source text never leaks into records — only its digest
        payload = lines[0]["record"]["payload"]
        assert "source" not in payload
        assert len(payload["source_sha256"]) == 64

    def test_persistence_failure_is_best_effort(self, tmp_path):
        store = JobStore(jsonl_path=str(tmp_path / "no" / "such" / "dir" / "x.jsonl"))
        job = store.submit("bench", {"name": "x"})
        assert job.state == "queued"
        assert store.persist_errors == 1

    def test_list_filters(self):
        store = JobStore()
        store.submit("bench", {"name": "x"})
        job = store.submit("source", _source_payload())
        store.claim(timeout=0.1)
        assert [j.id for j in store.list_jobs(state="queued")] == [job.id]
        assert [j.id for j in store.list_jobs(kind="bench")] == [1]

    def test_close_wakes_claimers(self):
        store = JobStore()
        results = []
        thread = threading.Thread(
            target=lambda: results.append(store.claim(timeout=10.0))
        )
        thread.start()
        store.close()
        thread.join(timeout=5.0)
        assert results == [None]
        with pytest.raises(RuntimeError, match="closed"):
            store.submit("bench", {"name": "x"})


class TestJobDigest:
    def test_identical_submissions_share_a_digest(self):
        assert job_digest("bench", {"name": "x"}) == job_digest("bench", {"name": "x"})
        assert job_digest("bench", {"name": "x"}) != job_digest("bench", {"name": "y"})

    def test_kind_is_part_of_the_address(self):
        assert job_digest("bench", {"name": "x"}) != job_digest("sweep", {"name": "x"})

    def test_source_digest_tracks_inputs_and_threshold(self):
        base = _source_payload()
        assert job_digest("source", base) == job_digest("source", dict(base))
        assert job_digest("source", base) != job_digest("source", {**base, "seed": 1})
        assert job_digest("source", base) != job_digest(
            "source", {**base, "threshold": 0.5}
        )

    def test_malformed_args_raise_at_digest_time(self):
        with pytest.raises(ValueError, match="unknown argument kind"):
            job_digest("source", {**_source_payload(), "args": [["ones", "A:4"]]})


class TestCoalescing:
    def test_identical_inflight_submission_becomes_follower(self):
        store = JobStore()
        leader = store.submit("bench", {"name": "x"})
        follower = store.submit("bench", {"name": "x"})
        assert follower.coalesced_with == leader.id
        assert follower.digest == leader.digest
        assert store.counts()["coalesced"] == 1
        # the follower never enters the queue
        assert store.claim(timeout=0.1).id == leader.id
        assert store.claim(timeout=0.05) is None

    def test_followers_receive_the_leaders_result(self):
        store = JobStore()
        leader = store.submit("bench", {"name": "x"})
        followers = [store.submit("bench", {"name": "x"}) for _ in range(3)]
        store.claim(timeout=0.1)
        result = {"the": "document"}
        store.finish(leader.id, result)
        for f in followers:
            record = store.get(f.id)
            assert record.state == "done"
            # the same object — byte-identity is structural
            assert record.result is result

    def test_followers_receive_the_leaders_failure(self):
        store = JobStore()
        leader = store.submit("bench", {"name": "x"})
        follower = store.submit("bench", {"name": "x"})
        store.claim(timeout=0.1)
        store.fail(leader.id, {"failed": True, "error_type": "Boom"})
        assert store.get(follower.id).state == "failed"
        assert store.get(follower.id).error["error_type"] == "Boom"

    def test_terminal_leader_does_not_absorb_new_submissions(self):
        store = JobStore()
        leader = store.submit("bench", {"name": "x"})
        store.claim(timeout=0.1)
        store.finish(leader.id, {"ok": 1})
        again = store.submit("bench", {"name": "x"})
        assert again.coalesced_with is None
        assert store.claim(timeout=0.1).id == again.id

    def test_cancelling_a_follower_detaches_only_it(self):
        store = JobStore()
        leader = store.submit("bench", {"name": "x"})
        follower = store.submit("bench", {"name": "x"})
        keeper = store.submit("bench", {"name": "x"})
        store.cancel(follower.id)
        assert store.get(follower.id).state == "cancelled"
        store.claim(timeout=0.1)
        store.finish(leader.id, {"ok": 1})
        assert store.get(follower.id).state == "cancelled"
        assert store.get(keeper.id).state == "done"

    def test_cancelling_a_queued_leader_promotes_oldest_follower(self):
        store = JobStore()
        leader = store.submit("bench", {"name": "x"})
        first = store.submit("bench", {"name": "x"})
        second = store.submit("bench", {"name": "x"})
        store.cancel(leader.id)
        assert store.get(leader.id).state == "cancelled"
        promoted = store.get(first.id)
        assert promoted.coalesced_with is None
        assert store.get(second.id).coalesced_with == first.id
        claimed = store.claim(timeout=0.1)
        assert claimed.id == first.id
        store.finish(first.id, {"ok": 1})
        assert store.get(second.id).state == "done"

    def test_cancel_requested_leader_rejects_new_followers(self):
        store = JobStore()
        leader = store.submit("bench", {"name": "x"})
        store.claim(timeout=0.1)
        store.cancel(leader.id)  # cooperative — still running
        fresh = store.submit("bench", {"name": "x"})
        assert fresh.coalesced_with is None

    def test_followers_get_real_outcome_when_leader_cancelled_midrun(self):
        store = JobStore()
        leader = store.submit("bench", {"name": "x"})
        follower = store.submit("bench", {"name": "x"})
        store.claim(timeout=0.1)
        store.cancel(leader.id)
        result = {"computed": "anyway"}
        store.finish(leader.id, result)
        # the canceller's record discards; the follower keeps the work
        assert store.get(leader.id).state == "cancelled"
        assert store.get(follower.id).state == "done"
        assert store.get(follower.id).result is result


class TestAdmissionControl:
    def test_queue_full_rejects_submission(self):
        store = JobStore(max_queue=2)
        store.submit("bench", {"name": "a"})
        store.submit("bench", {"name": "b"})
        with pytest.raises(QueueFull) as exc_info:
            store.submit("bench", {"name": "c"})
        assert exc_info.value.depth == 2
        assert store.counts()["rejected"] == 1

    def test_followers_bypass_the_bound(self):
        store = JobStore(max_queue=1)
        store.submit("bench", {"name": "a"})
        # identical work adds no load — coalesced even at the bound
        follower = store.submit("bench", {"name": "a"})
        assert follower.coalesced_with is not None

    def test_draining_reopens_admission(self):
        store = JobStore(max_queue=1)
        job = store.submit("bench", {"name": "a"})
        with pytest.raises(QueueFull):
            store.submit("bench", {"name": "b"})
        store.claim(timeout=0.1)  # running no longer counts as queued
        accepted = store.submit("bench", {"name": "b"})
        assert accepted.state == "queued"
        store.finish(job.id, None)


class TestListLimit:
    def test_limit_returns_newest_first(self):
        store = JobStore()
        ids = [store.submit("bench", {"name": f"n{i}"}).id for i in range(5)]
        newest_two = store.list_jobs(limit=2)
        assert [j.id for j in newest_two] == [ids[-1], ids[-2]]

    def test_unlimited_is_newest_first_too(self):
        # one documented order: limit only truncates, it never reorders
        store = JobStore()
        ids = [store.submit("bench", {"name": f"n{i}"}).id for i in range(5)]
        assert [j.id for j in store.list_jobs()] == ids[::-1]
        assert [j.id for j in store.list_jobs(limit=3)] == ids[::-1][:3]

    def test_limit_composes_with_filters(self):
        store = JobStore()
        store.submit("bench", {"name": "a"})
        store.submit("sweep", {"names": ["a"]})
        b = store.submit("bench", {"name": "b"})
        assert [j.id for j in store.list_jobs(kind="bench", limit=1)] == [b.id]

    def test_limit_zero_is_empty(self):
        store = JobStore()
        store.submit("bench", {"name": "a"})
        assert store.list_jobs(limit=0) == []


class TestJobRecordEnvelope:
    def test_round_trip(self):
        doc = Job(id=3, kind="bench", payload={"name": "fib"}).to_dict()
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["record"] == "job"
        assert validate_job_record(doc) is doc
        # provenance fields ride in the envelope with safe defaults
        assert doc["digest"] == ""
        assert doc["coalesced_with"] is None
        assert doc["backend"] == "thread"

    def test_rejects_malformed_provenance_fields(self):
        good = Job(id=1, kind="bench", payload={}).to_dict()
        with pytest.raises(ValueError, match="coalesced_with"):
            validate_job_record({**good, "coalesced_with": "seven"})
        with pytest.raises(ValueError, match="digest"):
            validate_job_record({**good, "digest": 123})

    def test_rejects_bad_version_state_and_kind(self):
        good = Job(id=1, kind="bench", payload={}).to_dict()
        with pytest.raises(ValueError, match="schema version"):
            validate_job_record({**good, "schema_version": 99})
        with pytest.raises(ValueError, match="not a job record"):
            validate_job_record({**good, "record": "analysis"})
        with pytest.raises(ValueError, match="unknown job state"):
            validate_job_record({**good, "state": "paused"})

    def test_states_cover_lifecycle(self):
        assert set(JOB_STATES) == {"queued", "running", "done", "failed", "cancelled"}

    def test_job_record_stamps_without_mutating(self):
        raw = {"id": 1, "state": "queued"}
        stamped = job_record(raw)
        assert "schema_version" not in raw
        assert stamped["schema_version"] == SCHEMA_VERSION

    def test_strip_trace_timings(self):
        doc = {
            "trace": {"stages": [{"detector": "d", "wall_time_s": 1.5}], "evidence": []},
            "other": 1,
        }
        stripped = strip_trace_timings(doc)
        assert stripped["trace"]["stages"][0]["wall_time_s"] == 0.0
        assert doc["trace"]["stages"][0]["wall_time_s"] == 1.5
        assert strip_trace_timings({"trace": None})["trace"] is None


class TestExecutor:
    def _executor(self, tmp_path, **kw):
        store = JobStore()
        executor = AnalysisExecutor(store, cache_dir=str(tmp_path / "cache"), **kw)
        executor.start()
        return store, executor

    def _wait_terminal(self, store, job_id, timeout=60.0):
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            job = store.get(job_id)
            if job.state in ("done", "failed", "cancelled"):
                return job
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} still {store.get(job_id).state}")

    def test_source_job_done_with_analysis_doc(self, tmp_path):
        store, executor = self._executor(tmp_path, workers=1)
        try:
            job = store.submit("source", _source_payload())
            done = self._wait_terminal(store, job.id)
            assert done.state == "done"
            assert done.result["schema_version"] == SCHEMA_VERSION
            assert done.result["program"]["source"] == SRC
            assert done.info["profile_cache_hit"] is False
            assert done.info["queue_wait_s"] >= 0.0
        finally:
            executor.shutdown()

    def test_repeat_submission_hits_cache(self, tmp_path):
        store, executor = self._executor(tmp_path, workers=1)
        try:
            first = store.submit("source", _source_payload())
            self._wait_terminal(store, first.id)
            second = store.submit("source", _source_payload())
            done = self._wait_terminal(store, second.id)
            assert done.info["profile_cache_hit"] is True
            assert executor.cache.stats.hits == 1
        finally:
            executor.shutdown()

    def test_crashing_job_fails_with_error_envelope(self, tmp_path):
        """A worker crash becomes a failed record; the pool keeps serving."""
        store, executor = self._executor(tmp_path, workers=1)
        try:
            bad = store.submit("source", {"source": "void f() { x = 1; }", "entry": "f"})
            failed = self._wait_terminal(store, bad.id)
            assert failed.state == "failed"
            assert failed.error["failed"] is True
            assert failed.error["schema_version"] == SCHEMA_VERSION
            assert failed.error["error_type"] == "ValidationError"
            assert failed.error["attempts"] == 1
            assert failed.error["traceback_summary"]
            # the same worker thread survives to run the next job
            good = store.submit("source", _source_payload())
            assert self._wait_terminal(store, good.id).state == "done"
        finally:
            executor.shutdown()

    def test_retries_consume_budget(self, tmp_path):
        store, executor = self._executor(tmp_path, workers=1, backoff=0.01)
        try:
            bad = store.submit(
                "source",
                {"source": "void f() { x = 1; }", "entry": "f", "retries": 2},
            )
            failed = self._wait_terminal(store, bad.id)
            assert failed.error["attempts"] == 3
        finally:
            executor.shutdown()

    def test_saturation_respects_worker_bound(self, tmp_path):
        store, executor = self._executor(tmp_path, workers=2)
        try:
            # distinct seeds give distinct digests — all eight really run
            jobs = [
                store.submit("source", {**_source_payload(), "seed": n})
                for n in range(8)
            ]
            records = [self._wait_terminal(store, job.id) for job in jobs]
            assert all(job.state == "done" for job in records)
            assert executor.peak_busy <= 2
        finally:
            executor.shutdown()

    def test_bench_job_returns_outcome_record(self, tmp_path):
        store, executor = self._executor(tmp_path, workers=1)
        try:
            job = store.submit("bench", {"name": "reg_detect"})
            done = self._wait_terminal(store, job.id, timeout=120.0)
            assert done.state == "done"
            assert done.result["name"] == "reg_detect"
            assert done.result["label"] == "Multi-loop pipeline"
            assert done.result["schema_version"] == SCHEMA_VERSION
        finally:
            executor.shutdown()
