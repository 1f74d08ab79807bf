"""Structured JSON logging: record shape, bound context, best-effort sinks."""

import io
import json

from repro.obs.logs import JsonLogger, new_correlation_id


def _records(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestRecordShape:
    def test_one_json_object_per_line(self):
        stream = io.StringIO()
        log = JsonLogger(stream=stream)
        log.info("job.transition", state="queued")
        log.warning("run.retry", attempt=2)
        docs = _records(stream)
        assert [d["event"] for d in docs] == ["job.transition", "run.retry"]
        assert [d["level"] for d in docs] == ["info", "warning"]
        assert docs[0]["state"] == "queued"
        assert all(isinstance(d["ts"], float) for d in docs)

    def test_error_level(self):
        stream = io.StringIO()
        JsonLogger(stream=stream).error("run.failed", error_type="Boom")
        assert _records(stream)[0]["level"] == "error"

    def test_non_serializable_fields_stringify(self):
        stream = io.StringIO()
        JsonLogger(stream=stream).info("x", path=object())
        assert "object object" in _records(stream)[0]["path"]


class TestBinding:
    def test_bound_context_lands_on_every_record(self):
        stream = io.StringIO()
        log = JsonLogger(stream=stream).bind(job_id=7, correlation_id="abc")
        log.info("claimed")
        log.info("done")
        assert all(
            d["job_id"] == 7 and d["correlation_id"] == "abc" for d in _records(stream)
        )

    def test_bind_layers_and_call_fields_win(self):
        stream = io.StringIO()
        base = JsonLogger(stream=stream).bind(a=1)
        child = base.bind(b=2)
        child.info("e", b=3)
        doc = _records(stream)[0]
        assert (doc["a"], doc["b"]) == (1, 3)
        assert base.context == {"a": 1}  # parent unchanged

    def test_bound_children_share_one_sink(self):
        stream = io.StringIO()
        root = JsonLogger(stream=stream)
        root.bind(k=1).info("one")
        root.bind(k=2).info("two")
        assert [d["k"] for d in _records(stream)] == [1, 2]


class TestSinks:
    def test_null_sink_drops_silently(self):
        log = JsonLogger()
        assert not log.active
        log.info("nobody.listening")
        assert log.errors == 0

    def test_file_sink_appends(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = JsonLogger(path=str(path))
        assert log.active
        log.info("a")
        log.info("b")
        docs = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert [d["event"] for d in docs] == ["a", "b"]

    def test_unwritable_path_counts_errors(self, tmp_path):
        log = JsonLogger(path=str(tmp_path / "no" / "dir" / "x.jsonl"))
        log.info("lost")
        log.info("also.lost")
        assert log.errors == 2

    def test_closed_stream_counts_errors(self):
        stream = io.StringIO()
        log = JsonLogger(stream=stream)
        stream.close()
        log.info("late")
        assert log.errors == 1

    def test_bound_logger_shares_error_count(self, tmp_path):
        root = JsonLogger(path=str(tmp_path / "no" / "dir" / "x.jsonl"))
        root.bind(k=1).info("lost")
        assert root.errors == 1


class TestCorrelationIds:
    def test_ids_are_unique_hex(self):
        a, b = new_correlation_id(), new_correlation_id()
        assert a != b
        assert len(a) == 32 and int(a, 16) >= 0
